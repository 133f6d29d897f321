//! Static facts about a scenario's sources, read by every pass that
//! judges a program without running it: lint ([`crate::analysis`]), the
//! §5.2 parameter derivation ([`crate::prune`]) and the early-rejection
//! plan ([`crate::early`]).
//!
//! One walk over the prelude, the user program and the module programs,
//! through every scope, records each class definition (with its origin
//! and whether it sits in a `def` or `specifier` body), the names bound
//! as variables, whether any source `mutate`s, and the properties each
//! user specifier sets.
//!
//! # What a class name means
//!
//! Which definition a name denotes depends on the run: a program's own
//! class shadows a library class of the same name only from its
//! statement on, and a class defined in a function body lives in that
//! call's frame. So a class name means each distinct definition of it.
//! Identical definitions count once, such as a library that a world
//! registers under two module names. Every question about a class is
//! asked of all its definitions:
//!
//! - a name **must** be physical (Table 2: its lineage reaches `Object`)
//!   only if every definition's superclass chain reaches `Object`. Lint's
//!   W103 and the derivation's "helper drawn `on` a region" test use
//!   this;
//! - a name **may** be physical if any chain does. The containment
//!   radius is the minimum over every definition that may be physical;
//! - a name no class is defined under, or one a statement binds as a
//!   variable (an assignment, a `param`, a `for` variable or a `def` or
//!   `specifier` parameter), may hold any class: it never must be
//!   physical, a chain through it may reach `Object`, and it supplies no
//!   known default;
//! - a class default is known statically only when every class on the
//!   chain has one definition, and none sits in a `def` or `specifier`
//!   body, whose locals the default could read.

use crate::interp::Scenario;
use scenic_lang::ast::{for_each_stmt_framed, ClassDef, Expr, Program, StmtKind};
use std::collections::{HashMap, HashSet};

/// Where a source comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// The prelude or a world module's library.
    Library,
    /// The user program.
    User,
}

/// One distinct definition of a class name.
#[derive(Debug)]
pub(crate) struct ClassFact<'a> {
    def: &'a ClassDef,
    /// Whether the prelude or a world module defines it.
    library: bool,
    /// Whether a copy of it sits in a `def` or `specifier` body.
    in_frame: bool,
}

impl<'a> ClassFact<'a> {
    /// The superclass, by the interpreter's rule: the explicit one, else
    /// `Object`; `None` for the root, `Point`.
    fn superclass(&self) -> Option<&'a str> {
        match &self.def.superclass {
            Some(name) => Some(name),
            None if self.def.name == "Point" => None,
            None => Some("Object"),
        }
    }

    /// This definition's own default for `prop`.
    fn own_default(&self, prop: &str) -> Option<&'a Expr> {
        let (_, expr) = self.def.properties.iter().find(|(p, _)| p == prop)?;
        Some(expr)
    }
}

/// The facts one walk over a scenario's sources records (module docs).
#[derive(Debug)]
pub(crate) struct Facts<'a> {
    /// Every source, in [`Scenario::sources`] order.
    pub(crate) programs: Vec<&'a Program>,
    /// Each class name's distinct definitions.
    classes: HashMap<&'a str, Vec<ClassFact<'a>>>,
    /// Names some statement binds as a variable, which may hold any class.
    variables: HashSet<&'a str>,
    /// Names every definition of which chains to `Object`.
    must_be_physical: HashSet<&'a str>,
    /// Names some definition of which chains to `Object`.
    may_be_physical: HashSet<&'a str>,
    /// Whether any source contains a `mutate` statement.
    pub(crate) has_mutation: bool,
    /// The properties each user specifier name may set, over all its
    /// definitions.
    specifiers: HashMap<&'a str, Vec<&'a str>>,
}

impl<'a> Facts<'a> {
    /// The facts of a compiled scenario's sources.
    pub(crate) fn of(scenario: &'a Scenario) -> Facts<'a> {
        Facts::new(&scenario.sources())
    }

    /// The facts of `sources`.
    pub(crate) fn new(sources: &[(Origin, &'a Program)]) -> Facts<'a> {
        let mut facts = Facts {
            programs: sources.iter().map(|&(_, program)| program).collect(),
            classes: HashMap::new(),
            variables: HashSet::new(),
            must_be_physical: HashSet::new(),
            may_be_physical: HashSet::new(),
            has_mutation: false,
            specifiers: HashMap::new(),
        };
        for &(origin, program) in sources {
            for_each_stmt_framed(&program.statements, false, &mut |stmt, in_frame| {
                facts.record(&stmt.kind, origin == Origin::Library, in_frame);
            });
        }
        facts.must_be_physical = facts.physical_names(true);
        facts.may_be_physical = facts.physical_names(false);
        facts
    }

    /// Records one statement of a library or user source.
    fn record(&mut self, kind: &'a StmtKind, library: bool, in_frame: bool) {
        match kind {
            StmtKind::ClassDef(def) => {
                let defs = self.classes.entry(&def.name).or_default();
                if let Some(same) = defs.iter_mut().find(|c| c.def == def) {
                    same.library |= library;
                    same.in_frame |= in_frame;
                } else {
                    defs.push(ClassFact {
                        def,
                        library,
                        in_frame,
                    });
                }
            }
            StmtKind::SpecifierDef(def) => {
                let props = self.specifiers.entry(&def.name).or_default();
                for prop in def.specifies.iter().chain(&def.optional) {
                    if !props.contains(&prop.as_str()) {
                        props.push(prop);
                    }
                }
                self.bind(&def.params);
            }
            StmtKind::FuncDef(def) => self.bind(&def.params),
            StmtKind::Param(params) => self.bind(params),
            StmtKind::Assign { name, .. } | StmtKind::For { var: name, .. } => {
                self.variables.insert(name);
            }
            StmtKind::Mutate { .. } => self.has_mutation = true,
            _ => {}
        }
    }

    /// Records the names `bindings` bind as variables.
    fn bind<T>(&mut self, bindings: &'a [(String, T)]) {
        self.variables
            .extend(bindings.iter().map(|(name, _)| name.as_str()));
    }

    /// The definitions `name` denotes; `None` when it may hold any class
    /// (see the module docs).
    fn definitions(&self, name: &str) -> Option<&[ClassFact<'a>]> {
        if self.variables.contains(name) {
            return None;
        }
        self.classes.get(name).map(Vec::as_slice)
    }

    /// Whether every object built as `class` is physical.
    pub(crate) fn must_be_physical(&self, class: &str) -> bool {
        self.must_be_physical.contains(class)
    }

    /// The names the prelude or a world module defines a class under.
    pub(crate) fn library_classes(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.classes
            .iter()
            .filter(|(_, defs)| defs.iter().any(|c| c.library))
            .map(|(name, _)| *name)
    }

    /// Every distinct class definition whose superclass chain may reach
    /// `Object`.
    pub(crate) fn physical_definitions(&self) -> impl Iterator<Item = &ClassFact<'a>> {
        self.classes.values().flatten().filter(|c| {
            c.def.name == "Object"
                || c.superclass()
                    .is_some_and(|s| self.may_be_physical.contains(s))
        })
    }

    /// Every default for `prop` that a chain of superclass definitions
    /// from `class` can supply, visiting each class name once; `None`
    /// when some chain ends without one, at the root or at a name that
    /// may hold any class.
    pub(crate) fn inherited_defaults(
        &self,
        class: &ClassFact<'a>,
        prop: &str,
    ) -> Option<Vec<&'a Expr>> {
        let mut found = Vec::new();
        let mut seen = HashSet::new();
        let mut pending = vec![class];
        while let Some(c) = pending.pop() {
            if let Some(expr) = c.own_default(prop) {
                found.push(expr);
            } else if seen.insert(c.superclass()?) {
                pending.extend(self.definitions(c.superclass()?)?);
            }
        }
        Some(found)
    }

    /// The default for `prop` of every object built as `class`, when it
    /// is statically known (see the module docs).
    pub(crate) fn known_default(&self, class: &str, prop: &str) -> Option<&'a Expr> {
        let mut name = class;
        // A chain through distinct names is no longer than the table.
        for _ in 0..=self.classes.len() {
            let [c] = self.definitions(name)? else {
                return None;
            };
            if c.in_frame {
                return None;
            }
            if let Some(expr) = c.own_default(prop) {
                return Some(expr);
            }
            name = c.superclass()?;
        }
        None
    }

    /// The properties a `using name` application may set, when `name` is
    /// a user specifier.
    pub(crate) fn specifier_properties(&self, name: &str) -> Option<&[&'a str]> {
        self.specifiers.get(name).map(Vec::as_slice)
    }

    /// The least set of names holding `Object` and every name whose
    /// definitions' superclasses are in it: all of them when `every`,
    /// else any. A name that may hold any class never joins when
    /// `every`, and starts in the set otherwise.
    fn physical_names(&self, every: bool) -> HashSet<&'a str> {
        let mut names = HashSet::from(["Object"]);
        if !every {
            let supers = self
                .classes
                .values()
                .flatten()
                .filter_map(ClassFact::superclass);
            names.extend(supers.filter(|s| self.definitions(s).is_none()));
        }
        loop {
            let before = names.len();
            for (name, defs) in &self.classes {
                let chains = |c: &ClassFact| c.superclass().is_some_and(|s| names.contains(s));
                let physical = if every {
                    self.definitions(name).is_some() && defs.iter().all(chains)
                } else {
                    defs.iter().any(chains)
                };
                if physical {
                    names.insert(*name);
                }
            }
            if names.len() == before {
                return names;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts_of<'a>(library: &'a Program, user: &'a Program) -> Facts<'a> {
        Facts::new(&[(Origin::Library, library), (Origin::User, user)])
    }

    fn prelude() -> Program {
        scenic_lang::parse(crate::class::PRELUDE).unwrap()
    }

    #[test]
    fn a_name_must_be_physical_only_if_every_definition_is() {
        let prelude = prelude();
        let user = scenic_lang::parse(
            "class Crate:\n    width: 2\n\
             class Marker(OrientedPoint):\n    heading: 0\n\
             def f():\n    class Marker(Object):\n        width: 3\n    return Marker\n\
             class Loop(Cycle):\n    width: 1\nclass Cycle(Loop):\n    width: 1\n",
        )
        .unwrap();
        let facts = facts_of(&prelude, &user);
        for (name, must, may) in [
            ("Object", true, true),
            ("Crate", true, true),
            ("Marker", false, true),
            ("OrientedPoint", false, false),
            ("Point", false, false),
            ("Loop", false, false),
            ("Undefined", false, false),
        ] {
            assert_eq!(facts.must_be_physical(name), must, "{name}");
            assert_eq!(facts.may_be_physical.contains(name), may, "{name}");
        }
        // Both `Marker`s, `Crate` and `Object` may be physical; the
        // marker chained to `OrientedPoint` is not among them.
        let mut physical: Vec<_> = facts
            .physical_definitions()
            .map(|c| (c.def.name.as_str(), c.superclass()))
            .collect();
        physical.sort();
        assert_eq!(
            physical,
            [
                ("Crate", Some("Object")),
                ("Marker", Some("Object")),
                ("Object", Some("OrientedPoint")),
            ]
        );
    }

    #[test]
    fn a_variable_may_hold_any_class() {
        let prelude = prelude();
        let user = scenic_lang::parse(
            "base = Object\nclass Sliver(base):\n    width: 0.02\n\
             OrientedPoint = Object\nclass Shard(OrientedPoint):\n    width: 0.03\n\
             def f(k):\n    class Local(k):\n        width: 1\n    return Local\n\
             class Stray(Undefined):\n    width: 1\n",
        )
        .unwrap();
        let facts = facts_of(&prelude, &user);
        for name in ["Sliver", "Shard", "Local", "Stray", "OrientedPoint", "base"] {
            assert!(!facts.must_be_physical(name), "{name}");
        }
        let mut physical: Vec<_> = facts
            .physical_definitions()
            .map(|c| c.def.name.as_str())
            .collect();
        physical.sort_unstable();
        assert_eq!(physical, ["Local", "Object", "Shard", "Sliver", "Stray"]);
        // Own defaults stay known; a chain through a variable supplies
        // none.
        assert_eq!(
            facts.known_default("Sliver", "width"),
            Some(&Expr::Number(0.02))
        );
        assert_eq!(facts.known_default("Sliver", "height"), None);
        assert_eq!(facts.known_default("OrientedPoint", "heading"), None);
        let sliver = &facts.classes["Sliver"][0];
        assert_eq!(facts.inherited_defaults(sliver, "height"), None);
    }

    #[test]
    fn identical_definitions_count_once_and_library_origin_sticks() {
        let prelude = prelude();
        let lib = scenic_lang::parse("class Rock:\n    width: 0.35\n").unwrap();
        let user = scenic_lang::parse("class Crate:\n    width: 2\n").unwrap();
        let facts = Facts::new(&[
            (Origin::Library, &prelude),
            (Origin::Library, &lib),
            (Origin::Library, &lib),
            (Origin::User, &user),
        ]);
        assert_eq!(facts.classes["Rock"].len(), 1);
        let mut library: Vec<_> = facts.library_classes().collect();
        library.sort_unstable();
        assert_eq!(library, ["Object", "OrientedPoint", "Point", "Rock"]);
    }

    #[test]
    fn defaults_are_known_only_through_single_top_level_definitions() {
        let prelude = prelude();
        let user = scenic_lang::parse(
            "if True:\n    class Far(Object):\n        position: 100 @ 100\n\
             class Twice:\n    width: 1\nclass Twice:\n    width: 2\n\
             def f(w):\n    class Local:\n        width: w\n    return Local\n",
        )
        .unwrap();
        let facts = facts_of(&prelude, &user);
        // A branch is not a frame; the width is inherited from `Object`.
        assert_eq!(
            facts
                .known_default("Far", "position")
                .map(scenic_lang::print_expr),
            Some("(100 @ 100)".to_string())
        );
        assert_eq!(
            facts.known_default("Far", "width"),
            Some(&Expr::Number(1.0))
        );
        assert_eq!(facts.known_default("Twice", "width"), None);
        assert_eq!(facts.known_default("Local", "width"), None);
        assert_eq!(facts.known_default("Undefined", "width"), None);
        // Every definition's chain counts for the inherited defaults.
        let twice = &facts.classes["Twice"][0];
        let heights = facts.inherited_defaults(twice, "height").unwrap();
        assert_eq!(heights, [&Expr::Number(1.0)]);
        let point = &facts.classes["Point"][0];
        assert_eq!(facts.inherited_defaults(point, "heading"), None);
    }

    #[test]
    fn mutation_and_specifier_properties_are_seen_in_every_scope() {
        let user = scenic_lang::parse(
            "specifier a() specifies position:\n    return {}\n\
             def f():\n    specifier a() specifies heading optionally width:\n        \
             return {}\n    mutate\n",
        )
        .unwrap();
        let prelude = prelude();
        let facts = facts_of(&prelude, &user);
        assert!(facts.has_mutation);
        assert_eq!(
            facts.specifier_properties("a"),
            Some(&["position", "heading", "width"][..])
        );
        assert_eq!(facts.specifier_properties("b"), None);
    }
}
