//! Runtime classes and the built-in class hierarchy (Table 2).

use crate::env::EnvRef;
use scenic_lang::ast::Expr;
use std::cell::OnceCell;
use std::rc::Rc;

/// A class at runtime: its own default-value expressions plus a link to
/// its superclass. Default values are *expressions* evaluated per
/// instance (§4.1), so `weight: (1, 5)` draws independently for every
/// object.
pub struct RuntimeClass {
    /// Class name.
    pub name: String,
    /// Superclass (`None` only for `Point`).
    pub superclass: Option<Rc<RuntimeClass>>,
    /// Own `property: defaultValueExpr` pairs in declaration order.
    pub properties: Vec<(String, Expr)>,
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
        properties: Vec<(String, Expr)>,
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

    /// Whether this class descends from `name` (inclusive).
    pub fn descends_from(self: &Rc<Self>, name: &str) -> bool {
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            if c.name == name {
                return true;
            }
            cur = c.superclass.clone();
        }
        false
    }

    /// The *most-derived* default expression for each property across
    /// the hierarchy, in stable order (base-class properties first, so
    /// `position` precedes user-added ones).
    pub fn defaults(self: &Rc<Self>) -> Vec<(String, Expr)> {
        let mut chain = Vec::new();
        let mut cur = Some(Rc::clone(self));
        while let Some(c) = cur {
            chain.push(Rc::clone(&c));
            cur = c.superclass.clone();
        }
        // Walk base-first; later (more-derived) definitions override.
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<String, Expr> = std::collections::HashMap::new();
        for class in chain.iter().rev() {
            for (prop, expr) in &class.properties {
                if !map.contains_key(prop) {
                    order.push(prop.clone());
                }
                map.insert(prop.clone(), expr.clone());
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
    collect_self_deps(expr, &mut deps);
    deps.sort();
    deps.dedup();
    deps
}

fn collect_self_deps(expr: &Expr, out: &mut Vec<String>) {
    use Expr::*;
    match expr {
        Attribute { obj, name } => {
            if matches!(&**obj, Ident(id) if id == "self") {
                out.push(name.clone());
            }
            collect_self_deps(obj, out);
        }
        Number(_) | Bool(_) | Str(_) | None | Ident(_) => {}
        Vector(a, b) | Interval(a, b) => {
            collect_self_deps(a, out);
            collect_self_deps(b, out);
        }
        Call { func, args, kwargs } => {
            collect_self_deps(func, out);
            args.iter().for_each(|a| collect_self_deps(a, out));
            kwargs.iter().for_each(|(_, v)| collect_self_deps(v, out));
        }
        Index { obj, key } => {
            collect_self_deps(obj, out);
            collect_self_deps(key, out);
        }
        List(items) => items.iter().for_each(|i| collect_self_deps(i, out)),
        Dict(items) => items.iter().for_each(|(k, v)| {
            collect_self_deps(k, out);
            collect_self_deps(v, out);
        }),
        Neg(e) | NotOp(e) | Deg(e) | Visible(e) => collect_self_deps(e, out),
        Binary { lhs, rhs, .. } | Compare { lhs, rhs, .. } => {
            collect_self_deps(lhs, out);
            collect_self_deps(rhs, out);
        }
        IfElse {
            cond,
            then,
            otherwise,
        } => {
            collect_self_deps(cond, out);
            collect_self_deps(then, out);
            collect_self_deps(otherwise, out);
        }
        RelativeTo(a, b)
        | OffsetBy(a, b)
        | FieldAt(a, b)
        | CanSee(a, b)
        | IsIn(a, b)
        | VisibleFrom(a, b) => {
            collect_self_deps(a, out);
            collect_self_deps(b, out);
        }
        OffsetAlong {
            base,
            direction,
            offset,
        } => {
            collect_self_deps(base, out);
            collect_self_deps(direction, out);
            collect_self_deps(offset, out);
        }
        DistanceTo { from, to } | AngleTo { from, to } => {
            if let Some(f) = from {
                collect_self_deps(f, out);
            }
            collect_self_deps(to, out);
        }
        RelativeHeadingOf { of, from } | ApparentHeadingOf { of, from } => {
            collect_self_deps(of, out);
            if let Some(f) = from {
                collect_self_deps(f, out);
            }
        }
        Follow {
            field,
            from,
            distance,
        } => {
            collect_self_deps(field, out);
            if let Some(f) = from {
                collect_self_deps(f, out);
            }
            collect_self_deps(distance, out);
        }
        BoxPointOf { obj, .. } => collect_self_deps(obj, out),
        Ctor { specifiers, .. } => {
            use scenic_lang::ast::Specifier as S;
            for s in specifiers {
                match s {
                    S::With(_, e)
                    | S::At(e)
                    | S::OffsetBy(e)
                    | S::InRegion(e)
                    | S::Facing(e)
                    | S::FacingToward(e)
                    | S::FacingAwayFrom(e)
                    | S::Visible(Some(e)) => collect_self_deps(e, out),
                    S::Visible(Option::None) => {}
                    S::OffsetAlong(a, b) => {
                        collect_self_deps(a, out);
                        collect_self_deps(b, out);
                    }
                    S::Beside { target, by, .. } => {
                        collect_self_deps(target, out);
                        if let Some(b) = by {
                            collect_self_deps(b, out);
                        }
                    }
                    S::Beyond {
                        target,
                        offset,
                        from,
                    } => {
                        collect_self_deps(target, out);
                        collect_self_deps(offset, out);
                        if let Some(f) = from {
                            collect_self_deps(f, out);
                        }
                    }
                    S::Following {
                        field,
                        from,
                        distance,
                    } => {
                        collect_self_deps(field, out);
                        if let Some(f) = from {
                            collect_self_deps(f, out);
                        }
                        collect_self_deps(distance, out);
                    }
                    S::ApparentlyFacing { heading, from } => {
                        collect_self_deps(heading, out);
                        if let Some(f) = from {
                            collect_self_deps(f, out);
                        }
                    }
                    S::Using { args, kwargs, .. } => {
                        for a in args {
                            collect_self_deps(a, out);
                        }
                        for (_, v) in kwargs {
                            collect_self_deps(v, out);
                        }
                    }
                }
            }
        }
    }
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
                ("width".into(), Expr::Number(1.0)),
                ("height".into(), Expr::Number(1.0)),
            ],
            env.clone(),
        ));
        let car = Rc::new(RuntimeClass::new(
            "Car".into(),
            Some(Rc::clone(&base)),
            vec![("width".into(), Expr::Number(2.0))],
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
        assert!(car.descends_from("Object"));
        assert!(!base.descends_from("Car"));
    }

    #[test]
    fn defaults_are_overridden_by_derived() {
        let (_, car) = class_chain();
        let defaults = car.defaults();
        let width = defaults.iter().find(|(p, _)| p == "width").unwrap();
        assert_eq!(width.1, Expr::Number(2.0));
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
