//! Early rejection: which constraints a candidate may check before
//! termination.
//!
//! Rejection sampling (§5.2, Algorithm 1) accepts a candidate iff every
//! requirement holds, so *when* a requirement is checked never changes
//! which scenes are accepted — only how much a doomed candidate costs.
//! The interpreter therefore checks each hard `require` at its own
//! statement, and each physical object's default requirements right
//! after the object is constructed, wherever that gives the same answer
//! as the check at termination (Fig. 25). This module decides, once per
//! [`crate::Scenario`] and from its static facts (`facts.rs`), where
//! that holds; the runtime half (the RNG snapshot and the per-object
//! checks) lives in [`crate::interp`].
//!
//! A top-level hard `require` is decided at its statement when:
//!
//! - no program source contains `mutate` (mutation moves objects after
//!   the imperative part runs, before the deferred checks);
//! - its condition reads no name — `ego` counted always, since most
//!   operators read it implicitly — that a later statement binds, that a
//!   function or specifier body assigns, or that an `import` of a module
//!   outside the world's auto-imports binds;
//! - its condition constructs no object and calls only names that no
//!   statement of any source binds — built-in and world-module natives,
//!   so never a `def`, directly or through an alias — and not `print`,
//!   whose output the deferred check would order differently.
//!
//! Objects are checked at construction only when `ego` is assigned
//! exactly once, by a top-level statement of the user program, so the
//! viewer an object is checked against is the final one.
//!
//! # The visibility guard
//!
//! Most candidates of a scenario like `simplest` die because an object
//! cannot be seen from the ego, and its first resolved row, `position`,
//! already settles that. The compiled engine therefore stages with each
//! construction site a [`VisibilityGuard`]: right after the `position`
//! row, it rejects the candidate with `Rejection::Visibility` when a disc
//! of radius `r` around the new position cannot meet the ego's visible
//! region, the workspace certainly contains that disc and the object
//! cannot collide. `r` bounds the object's circumradius. The check runs
//! only where the interpreter would check the object at construction
//! (objects are checked early, no mutation is pending, every earlier
//! object is decided, the ego's viewer is known). There the full checks
//! would pass containment and collisions and fail visibility, so the
//! candidate is rejected for the same reason, only sooner.
//!
//! Only sites the compiled engine caches get a guard: classes living in
//! the hoisted base environment, which is verified frozen, so names
//! resolved there at staging stay valid. [`visibility_guard`] gives one
//! to a site only when all of these hold:
//!
//! - (a) the class is physical (its lineage reaches `Object`), so the
//!   object is checked at all;
//! - (b) every explicit specifier is a value known before construction
//!   starts (`with`, `at`, `in`, …), `left of` and friends, or a
//!   `facing` form computed from the position: a deferred `with`/`facing`
//!   argument or a `using` runs user code, which could construct objects
//!   or move the ego;
//! - (c) `requireVisible` is a literal `True` class default,
//!   `mutationScale` a literal `0` class default or absent, and
//!   `allowCollisions` a literal class default, so the object is
//!   checked for visibility, never mutated, and its collision exemption
//!   is known;
//! - (d) `width` and `height` are class defaults with a static bound: a
//!   number, a constant interval, or `self.P.F` where `P`'s class default
//!   calls, with no arguments, a native whose declared support
//!   (`NativeFn::support`) has a numeric field `F` in every value. Then
//!   `r = hypot(max|width|, max|height|) / 2`;
//! - (e) every row after the `position` row is an explicit specifier
//!   allowed by (b), or a class default that constructs no object and
//!   calls only names that resolve, in the class's environment, to
//!   natives. So nothing after the guard can reject: no object is
//!   constructed, no `require` runs, and natives never reject.
//!
//! An explicit specifier for `requireVisible`, `mutationScale`,
//! `allowCollisions`, `width`, `height` or `P` replaces the class
//! default, so it turns the guard off. The box also stays within `r` of
//! its position only while its heading is finite: the runtime check
//! asks that every number the site's explicit specifiers carry be
//! finite, and trusts library class defaults to compute finite headings
//! from finite inputs, as the bundled ones do.
//!
//! The AST engine does not guard: it is the oracle the compiled engine
//! is tested against. An error that only a guarded-out candidate would
//! reach in the rest of its construction becomes a rejection on the
//! compiled engine — the contract early rejection already has.

use crate::class::RuntimeClass;
use crate::compile::{assigns_in_defs, collect_expr_idents, defined_names, CachedDefault};
use crate::env::{lookup, EnvRef};
use crate::facts::Facts;
use crate::interp::{ActionShape, Scenario};
use crate::specifier::ResolvedOrder;
use crate::value::{dict_get, Value};
use crate::world::NativeValue;
use scenic_lang::ast::{for_each_stmt, Expr, StmtKind};
use std::collections::HashSet;

/// Which of one scenario's constraints the interpreter may check as soon
/// as they are decidable. The default plan checks everything at
/// termination.
#[derive(Debug, Default)]
pub(crate) struct EarlyPlan {
    /// Per top-level statement of the user program: whether it is a hard
    /// `require` to decide at its own statement.
    requires: Vec<bool>,
    /// Whether each physical object's default requirements are checked
    /// right after its construction.
    pub(crate) objects: bool,
}

impl EarlyPlan {
    /// Derives the plan from the scenario's parsed sources.
    pub(crate) fn build(scenario: &Scenario) -> EarlyPlan {
        let facts = Facts::of(scenario);
        if facts.has_mutation {
            return EarlyPlan::default();
        }
        // Names a candidate can rebind at any point, and the names an
        // early condition must not call: every name a statement binds
        // (only those can hold a user function), and `print`.
        let mut unstable = HashSet::new();
        let mut uncallable = HashSet::from(["print".to_string()]);
        let mut ego_assignments = 0;
        for program in &facts.programs {
            assigns_in_defs(&program.statements, &mut unstable);
            defined_names(&program.statements, &mut uncallable);
            for_each_stmt(&program.statements, &mut |stmt| match &stmt.kind {
                StmtKind::Import(module) if !scenario.world.auto_imports.contains(module) => {
                    if let Some(p) = scenario.module_programs.get(module) {
                        defined_names(&p.statements, &mut unstable);
                    }
                    if let Some(m) = scenario.world.module(module) {
                        unstable.extend(m.natives.iter().map(|(name, _)| name.clone()));
                    }
                }
                StmtKind::Assign { name, .. } if name == "ego" => ego_assignments += 1,
                _ => {}
            });
        }

        // Walk the top level backwards, so `unstable` also holds every
        // name bound after the statement at hand.
        let statements = &scenario.program.statements;
        let mut requires = vec![false; statements.len()];
        for (i, stmt) in statements.iter().enumerate().rev() {
            if let StmtKind::Require { prob: None, cond } = &stmt.kind {
                let mut reads = HashSet::from(["ego".to_string()]);
                collect_expr_idents(cond, &mut reads);
                requires[i] = reads.is_disjoint(&unstable) && calls_only_natives(cond, &uncallable);
            }
            defined_names(std::slice::from_ref(stmt), &mut unstable);
        }
        let ego_at_top = statements
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Assign { name, .. } if name == "ego"));
        EarlyPlan {
            requires,
            objects: ego_assignments == 1 && ego_at_top,
        }
    }

    /// Whether top-level statement `index` is a `require` decided at its
    /// own statement.
    pub(crate) fn decides_require(&self, index: usize) -> bool {
        self.requires.get(index).copied().unwrap_or(false)
    }
}

/// A construction site's visibility guard (see the module docs): the
/// facts its runtime check needs, computed once per staged site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VisibilityGuard {
    /// The row of the site's resolved order that assigns `position`; the
    /// check runs right after it.
    pub(crate) row: usize,
    /// A bound on the circumradius of every object the site builds.
    pub(crate) radius: f64,
    /// The class's literal `allowCollisions`.
    pub(crate) allow_collisions: bool,
}

/// The visibility guard of a staged construction site of `class`, whose
/// explicit specifiers have `shapes` and whose rows `order` resolves
/// over those specifiers followed by `defaults`; `None` unless every
/// rule (a)–(e) of the module docs holds.
pub(crate) fn visibility_guard(
    class: &RuntimeClass,
    shapes: &[ActionShape],
    order: &ResolvedOrder,
    defaults: &[CachedDefault],
) -> Option<VisibilityGuard> {
    let explicit = shapes.len();
    let row_of = |prop: &str| {
        order
            .order
            .iter()
            .position(|(_, props)| props.iter().any(|p| &**p == prop))
    };
    // The class default assigning `prop`, when a class default does.
    let default_of = |prop: &str| {
        let (idx, _) = &order.order[row_of(prop)?];
        idx.checked_sub(explicit).map(|k| &*defaults[k].expr)
    };
    let env = &class.env;

    // (a) and (b).
    if !class.lineage().iter().any(|c| c == "Object") || !shapes.iter().all(decided_before) {
        return None;
    }
    // (c).
    if !matches!(default_of("requireVisible"), Some(Expr::Bool(true))) {
        return None;
    }
    if row_of("mutationScale").is_some()
        && !matches!(default_of("mutationScale"), Some(Expr::Number(n)) if *n == 0.0)
    {
        return None;
    }
    let Some(Expr::Bool(allow_collisions)) = default_of("allowCollisions") else {
        return None;
    };
    // (d).
    let dimension = |prop: &str| -> Option<f64> {
        let expr = default_of(prop)?;
        if let Some(bound) = crate::prune::interval_bound(expr) {
            return Some(bound);
        }
        let Expr::Attribute { obj, name: field } = expr else {
            return None;
        };
        let Expr::Attribute {
            obj: owner,
            name: p,
        } = &**obj
        else {
            return None;
        };
        if owner.ident() != Some("self") {
            return None;
        }
        let Some(Expr::Call { func, args, kwargs }) = default_of(p) else {
            return None;
        };
        let Some(Value::Native(native)) = resolve_name(func, env) else {
            return None;
        };
        if !args.is_empty() || !kwargs.is_empty() {
            return None;
        }
        native
            .support
            .as_ref()?
            .iter()
            .try_fold(0.0_f64, |bound, value| {
                let NativeValue::Namespace(fields) = value else {
                    return None;
                };
                match fields.iter().find(|(name, _)| name == field)? {
                    (_, NativeValue::Number(n)) => Some(bound.max(n.abs())),
                    _ => None,
                }
            })
    };
    let radius = dimension("width")?.hypot(dimension("height")?) / 2.0;
    // (e).
    let row = row_of("position")?;
    let rest_is_native = order.order[row + 1..].iter().all(|(idx, _)| {
        idx.checked_sub(explicit)
            .is_none_or(|k| calls_only_resolved_natives(&defaults[k].expr, env))
    });
    (radius.is_finite() && rest_is_native).then_some(VisibilityGuard {
        row,
        radius,
        allow_collisions: *allow_collisions,
    })
}

/// Rule (b): whether an explicit specifier's values are all computed
/// before construction starts, or from the position alone.
fn decided_before(shape: &ActionShape) -> bool {
    match shape {
        ActionShape::Const(_)
        | ActionShape::BesideVector
        | ActionShape::BesideOriented
        | ActionShape::FacingField
        | ActionShape::FacingToward
        | ActionShape::ApparentlyFacing => true,
        ActionShape::Deferred | ActionShape::User => false,
    }
}

/// The value a name or dotted path (`CarModel.defaultModel`) holds in
/// `env`, when it resolves without evaluating anything.
fn resolve_name(expr: &Expr, env: &EnvRef) -> Option<Value> {
    match expr {
        Expr::Ident(_) | Expr::Resolved(_) => lookup(env, expr.ident()?),
        Expr::Attribute { obj, name } => match resolve_name(obj, env)?.unwrap_sample() {
            Value::Dict(d) => dict_get(d, name),
            _ => None,
        },
        _ => None,
    }
    .map(|v| v.unwrap_sample().clone())
}

/// Rule (e): whether `expr` constructs no object and calls only names
/// that resolve, in `env`, to natives.
fn calls_only_resolved_natives(expr: &Expr, env: &EnvRef) -> bool {
    let mut ok = match expr {
        Expr::Ctor { .. } => false,
        Expr::Call { func, .. } => matches!(resolve_name(func, env), Some(Value::Native(_))),
        _ => true,
    };
    expr.for_each_child(&mut |e| {
        ok = ok && calls_only_resolved_natives(e, env);
    });
    ok
}

/// Whether `expr` constructs no object and calls only plain names outside
/// `uncallable`.
fn calls_only_natives(expr: &Expr, uncallable: &HashSet<String>) -> bool {
    let mut ok = match expr {
        Expr::Ctor { .. } => false,
        Expr::Call { func, .. } => {
            matches!(&**func, Expr::Ident(name) if !uncallable.contains(name))
        }
        _ => true,
    };
    expr.for_each_child(&mut |e| ok = ok && calls_only_natives(e, uncallable));
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Engine;
    use crate::value::NativeFn;
    use crate::world::{Module, World};
    use rand::SeedableRng;
    use scenic_geom::{Heading, Region, Vec2, VectorField};
    use std::sync::Arc;

    fn plan(source: &str) -> EarlyPlan {
        EarlyPlan::build(&crate::compile(source).unwrap())
    }

    /// A small driving world shaped like gta's: `Car` takes its
    /// dimensions from `CarModel.defaultModel()`, whose declared support
    /// is two models, the wider one the shorter.
    fn driving_world() -> World {
        let model = |width: f64, height: f64| {
            NativeValue::Namespace(vec![
                ("width".into(), NativeValue::Number(width)),
                ("height".into(), NativeValue::Number(height)),
            ])
        };
        let models = Arc::new(vec![model(2.5, 5.0), model(1.8, 11.0)]);
        let draw = Arc::clone(&models);
        let default_model = NativeFn {
            name: "CarModel.defaultModel".into(),
            imp: Arc::new(move |_, _, _| Ok(draw[0].to_value())),
            support: Some(models),
        };
        let module = Module {
            natives: vec![
                (
                    "road".into(),
                    NativeValue::Region(Arc::new(Region::rectangle(Vec2::ZERO, 200.0, 200.0))),
                ),
                (
                    "roadDirection".into(),
                    NativeValue::Field(Arc::new(VectorField::Constant(Heading::NORTH))),
                ),
                (
                    "CarModel".into(),
                    NativeValue::Namespace(vec![(
                        "defaultModel".into(),
                        NativeValue::Function(default_model),
                    )]),
                ),
            ],
            source: Some(
                "class Car:\n    position: Point on road\n    \
                 heading: (roadDirection at self.position) + self.roadDeviation\n    \
                 roadDeviation: 0\n    width: self.model.width\n    \
                 height: self.model.height\n    viewAngle: 80 deg\n    \
                 visibleDistance: 30\n    model: CarModel.defaultModel()\n"
                    .into(),
            ),
        };
        let mut world = World::with_workspace(Region::rectangle(Vec2::ZERO, 400.0, 400.0));
        world.add_auto_module("lib", module);
        world
    }

    /// The guards of the `Car` sites one candidate of `source` stages.
    fn car_guards(source: &str) -> Vec<Option<VisibilityGuard>> {
        let scenario = crate::compile_with_world(source, &driving_world()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = scenario.generate_with(&mut rng, None, Engine::Compiled);
        scenario.compiled().staged_guards("Car")
    }

    #[test]
    fn a_car_site_is_guarded_by_the_declared_support() {
        // Width and height are bounded separately: 2.5 m by one model,
        // 11 m by the other.
        let guards = car_guards("ego = Object at 0 @ 0\nCar\n");
        let [Some(guard)] = guards[..] else {
            panic!("expected one guarded site, got {guards:?}");
        };
        assert_eq!(guard.radius, 1.25f64.hypot(5.5));
        assert!(!guard.allow_collisions);
        // Explicit values known up front keep the guard.
        let guards = car_guards("ego = Object at 0 @ 0\nCar at 3 @ 4, facing 10 deg\n");
        assert!(matches!(guards[..], [Some(_)]), "{guards:?}");
    }

    #[test]
    fn sites_that_could_reject_later_or_grow_the_box_get_no_guard() {
        for site in [
            "Car with model CarModel.defaultModel()",
            "Car with width 2",
            "Car with height 2",
            "Car with requireVisible False",
            "Car with allowCollisions True",
            "Car with mutationScale 1",
            // Deferred: the argument needs the car's own position.
            "Car with heading (roadDirection relative to 10 deg)",
            "Car using wide()",
        ] {
            let source = format!(
                "specifier wide() specifies width:\n    return {{\"width\": 2}}\n\
                 ego = Object at 0 @ 0\n{site}\n"
            );
            assert_eq!(car_guards(&source), [None], "{site}");
        }
    }

    #[test]
    fn user_classes_are_never_staged_so_never_guarded() {
        let guards =
            car_guards("class Van(Car):\n    roadDeviation: 0\nego = Object at 0 @ 0\nVan\n");
        assert!(guards.is_empty(), "{guards:?}");
    }

    #[test]
    fn stable_top_level_requires_are_decided_early() {
        let p = plan("ego = Object at 0 @ 0\nx = (0, 1)\nrequire x < 0.5\nObject at 0 @ 5\n");
        assert_eq!(p.requires, [false, false, true, false]);
        assert!(p.objects);
    }

    #[test]
    fn ineligible_requires_stay_deferred() {
        for source in [
            // A name the condition reads is rebound later.
            "ego = Object at 0 @ 0\nx = 1\nrequire x > 0\nx = 2\n",
            // A user function call.
            "def f():\n    return 1\nego = Object at 0 @ 0\nrequire f() > 0\n",
            // A user function through an alias.
            "def f():\n    return 1\ng = f\nego = Object at 0 @ 0\nrequire g() > 0\n",
            // A name a function body assigns.
            "def f():\n    x = 3\nego = Object at 0 @ 0\nx = 1\nrequire x > 0\n",
            // `ego` assigned after the requirement.
            "x = 1\nrequire x > 0\nego = Object at 0 @ 0\n",
            // `print`.
            "ego = Object at 0 @ 0\nrequire print(1) is None\n",
            // A constructor.
            "ego = Object at 0 @ 0\nrequire (Object at 0 @ 9) can see ego\n",
            // Soft requirements keep their draw at the statement.
            "ego = Object at 0 @ 0\nrequire[0.5] 1 > 0\n",
        ] {
            let p = plan(source);
            assert!(!(0..8).any(|i| p.decides_require(i)), "{source}");
        }
    }

    #[test]
    fn mutation_or_a_second_ego_assignment_turns_checks_off() {
        let mutated = plan("ego = Object at 0 @ 0\nrequire 1 > 0\nmutate\n");
        assert!(!mutated.objects && !mutated.decides_require(1));
        let reassigned = plan("ego = Object at 0 @ 0\nego = Object at 0 @ 9\n");
        assert!(!reassigned.objects);
        let nested = plan("if True:\n    ego = Object at 0 @ 0\n");
        assert!(!nested.objects);
    }
}
