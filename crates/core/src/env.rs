//! Lexically scoped environments.

use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A shared, mutable scope.
pub type EnvRef = Rc<RefCell<Scope>>;

/// One lexical scope with an optional parent.
#[derive(Debug, Default)]
pub struct Scope {
    vars: HashMap<String, Value>,
    parent: Option<EnvRef>,
}

impl Scope {
    /// Creates a root scope.
    pub fn root() -> EnvRef {
        Rc::new(RefCell::new(Scope::default()))
    }

    /// Creates a child scope.
    pub fn child(parent: &EnvRef) -> EnvRef {
        Rc::new(RefCell::new(Scope {
            vars: HashMap::new(),
            parent: Some(Rc::clone(parent)),
        }))
    }
}

/// Looks a name up through the scope chain.
pub fn lookup(env: &EnvRef, name: &str) -> Option<Value> {
    let scope = env.borrow();
    if let Some(v) = scope.vars.get(name) {
        return Some(v.clone());
    }
    scope.parent.as_ref().and_then(|p| lookup(p, name))
}

/// Defines or overwrites a name in the *current* scope.
pub fn define(env: &EnvRef, name: impl Into<String>, value: Value) {
    env.borrow_mut().vars.insert(name.into(), value);
}

/// Clones a scope's *own* `(name, value)` pairs, ignoring the parent
/// chain. The compiled engine uses this to vet a hoisted base
/// environment (checking for shared mutable values and for names the
/// user program would `assign` into the shared scope).
pub(crate) fn own_vars(env: &EnvRef) -> Vec<(String, Value)> {
    env.borrow()
        .vars
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Drops every binding of the scope itself (its parents keep theirs). A
/// candidate's scope holds the functions and classes it defines, whose
/// closures are that same scope: clearing it when the candidate ends
/// breaks the `Rc` cycle that would otherwise leak the scope and every
/// object it reaches.
pub(crate) fn clear(env: &EnvRef) {
    let vars = std::mem::take(&mut env.borrow_mut().vars);
    drop(vars);
}

/// Assigns to an existing name in the nearest enclosing scope that has
/// it, or defines it in the current scope (Python-like assignment
/// without `nonlocal`: we write into the scope that already holds the
/// name so loop counters in functions behave as expected).
pub fn assign(env: &EnvRef, name: &str, value: Value) {
    fn try_set(env: &EnvRef, name: &str, value: &Value) -> bool {
        let mut scope = env.borrow_mut();
        if scope.vars.contains_key(name) {
            scope.vars.insert(name.to_string(), value.clone());
            return true;
        }
        let parent = scope.parent.clone();
        drop(scope);
        parent.map(|p| try_set(&p, name, value)).unwrap_or(false)
    }
    if !try_set(env, name, &value) {
        define(env, name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup() {
        let env = Scope::root();
        define(&env, "x", Value::Number(1.0));
        assert!(lookup(&env, "x").unwrap().equals(&Value::Number(1.0)));
        assert!(lookup(&env, "y").is_none());
    }

    #[test]
    fn child_sees_parent() {
        let root = Scope::root();
        define(&root, "x", Value::Number(1.0));
        let child = Scope::child(&root);
        assert!(lookup(&child, "x").is_some());
    }

    #[test]
    fn assign_updates_outer_scope() {
        let root = Scope::root();
        define(&root, "x", Value::Number(1.0));
        let child = Scope::child(&root);
        assign(&child, "x", Value::Number(2.0));
        assert!(lookup(&root, "x").unwrap().equals(&Value::Number(2.0)));
    }

    #[test]
    fn assign_defines_locally_when_absent() {
        let root = Scope::root();
        let child = Scope::child(&root);
        assign(&child, "y", Value::Number(3.0));
        assert!(lookup(&child, "y").is_some());
        assert!(lookup(&root, "y").is_none());
    }

    #[test]
    fn shadowing() {
        let root = Scope::root();
        define(&root, "x", Value::Number(1.0));
        let child = Scope::child(&root);
        define(&child, "x", Value::Number(9.0));
        assert!(lookup(&child, "x").unwrap().equals(&Value::Number(9.0)));
        assert!(lookup(&root, "x").unwrap().equals(&Value::Number(1.0)));
    }
}
