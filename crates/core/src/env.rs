//! Lexically scoped environments.

use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A shared, mutable scope.
pub type EnvRef = Rc<RefCell<Scope>>;

/// The name [`Scope::child_with_self`] binds without a table entry.
const SELF: &str = "self";

/// One lexical scope with an optional parent.
#[derive(Debug, Default)]
pub struct Scope {
    vars: HashMap<String, Value>,
    /// The binding of `self`, when the scope was made by
    /// [`Scope::child_with_self`]. Such a scope never also holds `self`
    /// in `vars`: every write of `self` to it lands here.
    this: Option<Value>,
    parent: Option<EnvRef>,
    /// The frame of a function or specifier call under the compiled
    /// engine: the values of the names lowering resolved to this frame,
    /// by slot, `None` while unbound (see [`slot`]).
    slots: Vec<Option<Value>>,
}

impl Scope {
    /// Creates a root scope.
    pub fn root() -> EnvRef {
        Rc::new(RefCell::new(Scope::default()))
    }

    /// Creates a child scope.
    pub fn child(parent: &EnvRef) -> EnvRef {
        Self::with_parent(parent, None)
    }

    /// Creates a child scope with `self` bound to `this`: the scope of a
    /// class default or a user-specifier body. It behaves exactly like
    /// [`Scope::child`] followed by `define(child, "self", this)`, but
    /// allocates no table until something else is defined in it — a
    /// class default allocates nothing beyond the scope itself.
    pub fn child_with_self(parent: &EnvRef, this: Value) -> EnvRef {
        Self::with_parent(parent, Some(this))
    }

    fn with_parent(parent: &EnvRef, this: Option<Value>) -> EnvRef {
        Rc::new(RefCell::new(Scope {
            vars: HashMap::new(),
            this,
            parent: Some(Rc::clone(parent)),
            slots: Vec::new(),
        }))
    }

    /// The scope's own `self` slot, if it has one and `name` is `self`.
    fn self_slot(&mut self, name: &str) -> Option<&mut Value> {
        self.this.as_mut().filter(|_| name == SELF)
    }
}

/// Looks a name up through the scope chain.
pub fn lookup(env: &EnvRef, name: &str) -> Option<Value> {
    let scope = env.borrow();
    if let Some(this) = scope.this.as_ref().filter(|_| name == SELF) {
        return Some(this.clone());
    }
    if let Some(v) = scope.vars.get(name) {
        return Some(v.clone());
    }
    scope.parent.as_ref().and_then(|p| lookup(p, name))
}

/// The value in slot `slot` of the frame `hops` scopes out from `env`,
/// if it is bound. Only the compiled engine's resolved names read slots;
/// [`lookup`] never sees them.
pub(crate) fn slot(env: &EnvRef, hops: u32, slot: u32) -> Option<Value> {
    let scope = env.borrow();
    match hops.checked_sub(1) {
        None => scope.slots.get(slot as usize).cloned().flatten(),
        Some(hops) => scope
            .parent
            .as_ref()
            .and_then(|p| self::slot(p, hops, slot)),
    }
}

/// Binds slot `slot` of `env`'s own frame.
pub(crate) fn set_slot(env: &EnvRef, slot: u32, value: Value) {
    let slots = &mut env.borrow_mut().slots;
    let i = slot as usize;
    if slots.len() <= i {
        slots.resize(i + 1, None);
    }
    slots[i] = Some(value);
}

/// Defines or overwrites a name in the *current* scope.
pub fn define(env: &EnvRef, name: impl Into<String>, value: Value) {
    let name = name.into();
    let mut scope = env.borrow_mut();
    match scope.self_slot(&name) {
        Some(slot) => *slot = value,
        None => {
            scope.vars.insert(name, value);
        }
    }
}

/// Clones a scope's *own* `(name, value)` pairs, ignoring the parent
/// chain. The compiled engine uses this to vet a hoisted base
/// environment (checking for shared mutable values and for names the
/// user program would `assign` into the shared scope).
pub(crate) fn own_vars(env: &EnvRef) -> Vec<(String, Value)> {
    let scope = env.borrow();
    let this = scope.this.iter().map(|v| (SELF.to_string(), v.clone()));
    scope
        .vars
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .chain(this)
        .collect()
}

/// Drops every binding of the scope itself (its parents keep theirs). A
/// candidate's scope holds the functions and classes it defines, whose
/// closures are that same scope: clearing it when the candidate ends
/// breaks the `Rc` cycle that would otherwise leak the scope and every
/// object it reaches.
pub(crate) fn clear(env: &EnvRef) {
    let (vars, this, slots) = {
        let mut scope = env.borrow_mut();
        (
            std::mem::take(&mut scope.vars),
            scope.this.take(),
            std::mem::take(&mut scope.slots),
        )
    };
    drop((vars, this, slots));
}

/// Assigns to an existing name in the nearest enclosing scope that has
/// it, or defines it in the current scope (Python-like assignment
/// without `nonlocal`: we write into the scope that already holds the
/// name so loop counters in functions behave as expected).
pub fn assign(env: &EnvRef, name: &str, value: Value) {
    fn try_set(env: &EnvRef, name: &str, value: &Value) -> bool {
        let mut scope = env.borrow_mut();
        if let Some(slot) = scope.self_slot(name) {
            *slot = value.clone();
            return true;
        }
        if let Some(slot) = scope.vars.get_mut(name) {
            *slot = value.clone();
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
    use crate::object::{oriented_point, ObjRef};
    use scenic_geom::Vec2;

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

    /// A detached object tagged with `id`.
    fn object(id: usize) -> ObjRef {
        let o = oriented_point(Vec2::ZERO, 0.0);
        o.borrow_mut().id = id;
        o
    }

    /// What `name` resolves to in `env`: an object's id, a value, or
    /// nothing.
    fn seen(env: &EnvRef, name: &str) -> Option<String> {
        lookup(env, name).map(|v| match v {
            Value::Object(o) => format!("object {}", o.borrow().id),
            other => other.to_string(),
        })
    }

    /// A scope's own bindings as [`seen`] shows them, sorted by name.
    fn own(env: &EnvRef) -> Vec<(String, Option<String>)> {
        let mut pairs: Vec<_> = own_vars(env)
            .into_iter()
            .map(|(name, _)| {
                let v = seen(env, &name);
                (name, v)
            })
            .collect();
        pairs.sort();
        pairs
    }

    /// `self` bound to `this` in a child of `parent` both ways: through
    /// the slot, and as the ordinary definition the slot replaces.
    fn slot_and_table(parent: &EnvRef, this: &ObjRef) -> [EnvRef; 2] {
        let table = Scope::child(parent);
        define(&table, "self", Value::Object(Rc::clone(this)));
        [
            Scope::child_with_self(parent, Value::Object(Rc::clone(this))),
            table,
        ]
    }

    /// A root that binds `self` (object 0) and `x`.
    fn root_with_self() -> EnvRef {
        let root = Scope::root();
        define(&root, "self", Value::Object(object(0)));
        define(&root, "x", Value::Number(1.0));
        root
    }

    #[test]
    fn self_slot_resolves_and_shadows_like_a_definition() {
        let root = root_with_self();
        let this = object(1);
        let [slot, table] = slot_and_table(&root, &this);
        for env in [&slot, &table] {
            assert_eq!(seen(env, "self").as_deref(), Some("object 1"));
            assert_eq!(seen(env, "x").as_deref(), Some("1"));
            assert_eq!(seen(env, "y"), None);
            // A nested construction's scope sees the outer `self`...
            let nested = Scope::child(env);
            assert_eq!(seen(&nested, "self").as_deref(), Some("object 1"));
            // ...until it binds its own, which shadows it.
            let [inner_slot, inner_table] = slot_and_table(env, &object(2));
            for inner in [&inner_slot, &inner_table] {
                assert_eq!(seen(inner, "self").as_deref(), Some("object 2"));
            }
            assert_eq!(seen(env, "self").as_deref(), Some("object 1"));
            assert_eq!(seen(&root, "self").as_deref(), Some("object 0"));
        }
        assert_eq!(own(&slot), own(&table));
        assert_eq!(own(&slot), vec![("self".into(), Some("object 1".into()))]);
    }

    #[test]
    fn self_slot_takes_writes_like_a_definition() {
        let root = root_with_self();
        let [slot, table] = slot_and_table(&root, &object(1));
        for env in [&slot, &table] {
            // `assign` from a nested scope lands in the nearest `self`.
            let nested = Scope::child(env);
            assign(&nested, "self", Value::Object(object(3)));
            assert_eq!(seen(env, "self").as_deref(), Some("object 3"));
            assert!(own(&nested).is_empty());
            define(env, "self", Value::Number(4.0));
            assert_eq!(seen(env, "self").as_deref(), Some("4"));
            assign(env, "x", Value::Number(5.0));
            define(env, "z", Value::Number(6.0));
            assert_eq!(seen(&root, "self").as_deref(), Some("object 0"));
            assert_eq!(seen(&root, "x").as_deref(), Some("5"));
        }
        assert_eq!(own(&slot), own(&table));
        assert_eq!(
            own(&slot),
            vec![
                ("self".into(), Some("4".into())),
                ("z".into(), Some("6".into())),
            ]
        );
    }

    #[test]
    fn clear_releases_a_slot_bound_self() {
        let root = root_with_self();
        let this = object(1);
        let held = Rc::downgrade(&this);
        let [slot, table] = slot_and_table(&root, &this);
        drop(this);
        for env in [&slot, &table] {
            clear(env);
            assert!(own(env).is_empty());
            // The parent's binding shows through again.
            assert_eq!(seen(env, "self").as_deref(), Some("object 0"));
        }
        assert!(held.upgrade().is_none(), "cleared scope kept `self` alive");
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
