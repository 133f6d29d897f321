//! Runtime classes and the built-in class hierarchy (Table 2).

use crate::env::EnvRef;
use scenic_lang::ast::Expr;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// A class at runtime: its own default-value expressions plus a link to
/// its superclass. Default values are *expressions* evaluated per
/// instance (§4.1), so `weight: (1, 5)` draws independently for every
/// object.
pub struct RuntimeClass {
    /// Class name.
    pub name: String,
    /// Superclass (`None` only for `Point`).
    pub superclass: Option<Rc<RuntimeClass>>,
    /// Own `property: defaultValueExpr` pairs in declaration order,
    /// the expressions shared with the class definition.
    pub properties: Vec<(String, Arc<Expr>)>,
    /// Environment the class was defined in (default-value expressions
    /// evaluate here, with `self` bound per instance).
    pub env: EnvRef,
    /// [`RuntimeClass::lineage`], built on first use.
    lineage: OnceCell<Rc<[String]>>,
}

impl std::fmt::Debug for RuntimeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<class {}>", self.name)
    }
}

impl RuntimeClass {
    /// Creates a class.
    pub fn new(
        name: String,
        superclass: Option<Rc<RuntimeClass>>,
        properties: Vec<(String, Arc<Expr>)>,
        env: EnvRef,
    ) -> Self {
        RuntimeClass {
            name,
            superclass,
            properties,
            env,
            lineage: OnceCell::new(),
        }
    }

    /// Names from this class up to the root, most-derived first. Built
    /// once per class; every instance shares it.
    pub fn lineage(&self) -> Rc<[String]> {
        Rc::clone(self.lineage.get_or_init(|| {
            let mut names = vec![self.name.clone()];
            let mut cur = self.superclass.as_deref();
            while let Some(c) = cur {
                names.push(c.name.clone());
                cur = c.superclass.as_deref();
            }
            names.into()
        }))
    }

    /// The *most-derived* default expression for each property across
    /// the hierarchy, in stable order (base-class properties first, so
    /// `position` precedes user-added ones).
    pub fn defaults(self: &Rc<Self>) -> Vec<(String, Arc<Expr>)> {
        let mut chain = Vec::new();
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            chain.push(Rc::clone(&c));
            cur = c.superclass.clone();
        }
        // Walk base-first; later (more-derived) definitions override.
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<String, Arc<Expr>> =
            std::collections::HashMap::new();
        for class in chain.iter().rev() {
            for (prop, expr) in &class.properties {
                if !map.contains_key(prop) {
                    order.push(prop.clone());
                }
                map.insert(prop.clone(), Arc::clone(expr));
            }
        }
        order
            .into_iter()
            .map(|p| {
                let e = map.remove(&p).expect("present");
                (p, e)
            })
            .collect()
    }
}

/// The built-in class prelude, written in Scenic itself. Defaults follow
/// Table 2 of the paper. (`Point` is the unique root class.)
pub const PRELUDE: &str = "\
class Point:
    position: 0 @ 0
    width: 0
    height: 0
    viewDistance: 50
    mutationScale: 0
    positionStdDev: 1

class OrientedPoint(Point):
    heading: 0
    viewAngle: 360 deg
    headingStdDev: 5 deg

class Object(OrientedPoint):
    width: 1
    height: 1
    allowCollisions: False
    requireVisible: True
";

/// Collects the properties an expression reads off `self` — the
/// dependencies of a default-value specifier (§4.1: "Default values may
/// use the special syntax `self.property` … which is then a dependency
/// of this default value").
pub fn self_dependencies(expr: &Expr) -> Vec<String> {
    let mut deps = Vec::new();
    expr.walk(&mut |e| {
        if let Expr::Attribute { obj, name } = e {
            if obj.ident() == Some("self") {
                deps.push(name.clone());
            }
        }
    });
    deps.sort();
    deps.dedup();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_lang::parse;

    fn class_chain() -> (Rc<RuntimeClass>, Rc<RuntimeClass>) {
        let env = crate::env::Scope::root();
        let base = Rc::new(RuntimeClass::new(
            "Object".into(),
            None,
            vec![
                ("width".into(), Arc::new(Expr::Number(1.0))),
                ("height".into(), Arc::new(Expr::Number(1.0))),
            ],
            env.clone(),
        ));
        let car = Rc::new(RuntimeClass::new(
            "Car".into(),
            Some(Rc::clone(&base)),
            vec![("width".into(), Arc::new(Expr::Number(2.0)))],
            env,
        ));
        (base, car)
    }

    #[test]
    fn lineage_and_descent() {
        let (base, car) = class_chain();
        assert_eq!(&*car.lineage(), ["Car".to_string(), "Object".to_string()]);
        // Memoized: every call shares one list.
        assert!(Rc::ptr_eq(&car.lineage(), &car.lineage()));
        assert_eq!(&*base.lineage(), ["Object".to_string()]);
    }

    #[test]
    fn defaults_are_overridden_by_derived() {
        let (_, car) = class_chain();
        let defaults = car.defaults();
        let width = defaults.iter().find(|(p, _)| p == "width").unwrap();
        assert_eq!(*width.1, Expr::Number(2.0));
        assert_eq!(defaults.len(), 2);
        // Base-first ordering.
        assert_eq!(defaults[0].0, "width");
        assert_eq!(defaults[1].0, "height");
    }

    #[test]
    fn prelude_parses() {
        let p = parse(PRELUDE).unwrap();
        assert_eq!(p.statements.len(), 3);
    }

    #[test]
    fn self_dependency_extraction() {
        let program = parse(
            "class C:\n    heading: roadDirection at self.position\n    width: self.model.width\n",
        )
        .unwrap();
        let scenic_lang::StmtKind::ClassDef(cd) = &program.statements[0].kind else {
            panic!();
        };
        assert_eq!(self_dependencies(&cd.properties[0].1), vec!["position"]);
        assert_eq!(self_dependencies(&cd.properties[1].1), vec!["model"]);
    }

    #[test]
    fn self_dependency_in_sum() {
        let program =
            parse("class C:\n    heading: (roadDirection at self.position) + self.roadDeviation\n")
                .unwrap();
        let scenic_lang::StmtKind::ClassDef(cd) = &program.statements[0].kind else {
            panic!();
        };
        assert_eq!(
            self_dependencies(&cd.properties[0].1),
            vec!["position", "roadDeviation"]
        );
    }
}
