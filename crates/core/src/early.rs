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
//! [`crate::Scenario`], where that holds; the runtime half (the RNG
//! snapshot and the per-object checks) lives in [`crate::interp`].
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

use crate::analysis::{stmts_contain_mutate, walk_subexprs};
use crate::compile::{assigns_in_defs, collect_expr_idents, defined_names, for_each_stmt};
use crate::interp::Scenario;
use scenic_lang::ast::{Expr, StmtKind};
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
        let programs = scenario.all_programs();
        if programs.iter().any(|p| stmts_contain_mutate(&p.statements)) {
            return EarlyPlan::default();
        }
        // Names a candidate can rebind at any point, and the names an
        // early condition must not call: every name a statement binds
        // (only those can hold a user function), and `print`.
        let mut unstable = HashSet::new();
        let mut uncallable = HashSet::from(["print".to_string()]);
        let mut ego_assignments = 0;
        for program in &programs {
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
    walk_subexprs(expr, &mut |e| ok = ok && calls_only_natives(e, uncallable));
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(source: &str) -> EarlyPlan {
        EarlyPlan::build(&crate::compile(source).unwrap())
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
