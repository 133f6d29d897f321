//! User-defined specifiers (`specifier … specifies …` / `using name(…)`),
//! the language extension named in §8 of the paper ("allowing
//! user-defined specifiers").
//!
//! A user-defined specifier participates in Algorithm 1 exactly like a
//! built-in one: its `specifies`/`optionally` lists say which properties
//! it produces, its `requires` list gives its dependencies (available on
//! `self` when the body runs), and its body returns a dict of property
//! values.

use scenic::core::{PropValue, ScenicError};
use scenic::prelude::*;

fn run(source: &str, seed: u64) -> Result<Scene, ScenicError> {
    compile(source)?.generate_seeded(seed)
}

fn pos(scene: &Scene, idx: usize) -> [f64; 2] {
    scene.objects[idx].position
}

// ---------------------------------------------------------------------
// Basic definition and application
// ---------------------------------------------------------------------

#[test]
fn simple_position_specifier() {
    let scene = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object at 5 @ 5\n\
         Object using atOrigin()\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [0.0, 0.0]);
}

#[test]
fn specifier_with_arguments_and_defaults() {
    let scene = run(
        "specifier east(d, y=0) specifies position:\n\
         \x20   return {'position': d @ y}\n\
         ego = Object at 0 @ 0\n\
         Object using east(7)\n\
         Object using east(3, y=4)\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [7.0, 0.0]);
    assert_eq!(pos(&scene, 2), [3.0, 4.0]);
}

#[test]
fn specifier_may_set_multiple_properties() {
    let scene = run(
        "specifier posed(x, h) specifies position, heading:\n\
         \x20   return {'position': x @ 0, 'heading': h}\n\
         ego = Object using posed(2, 90 deg)\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 0), [2.0, 0.0]);
    let h = scene.objects[0].heading.to_degrees();
    assert!((h - 90.0).abs() < 1e-9, "{h}");
}

#[test]
fn specifier_body_may_write_outside_the_object_layout() {
    // A user `Point` declares no `mutationScale`, so `mutate self` gives
    // the object under construction a property its construction site
    // has no slot for, before `width` and the `position` default land.
    let scenario = compile(
        "class Point:\n\
         \x20   position: 3 @ 4\n\
         \x20   width: 1\n\
         specifier marked() specifies width:\n\
         \x20   mutate self\n\
         \x20   return {'width': 2}\n\
         ego = Object at 0 @ 0\n\
         p = Point using marked()\n\
         Object at 0 @ 5, with marks [p.mutationScale, p.width, p.position]\n",
    )
    .unwrap();
    for engine in [Engine::Compiled, Engine::Ast] {
        let scene = Sampler::new(&scenario)
            .with_engine(engine)
            .sample_seeded(0)
            .unwrap();
        assert_eq!(
            scene.objects[1].property("marks"),
            Some(&PropValue::List(vec![
                PropValue::Number(1.0),
                PropValue::Number(2.0),
                PropValue::Vector([3.0, 4.0]),
            ])),
            "{engine}"
        );
    }
}

#[test]
fn requires_makes_dependencies_visible_on_self() {
    // The body reads self.width, so `with width 4` must be evaluated
    // first even though it is written after the `using`.
    let scene = run(
        "specifier centeredRight(gap) specifies position requires width:\n\
         \x20   return {'position': (self.width / 2 + gap) @ 0}\n\
         ego = Object at 0 @ 0\n\
         Object using centeredRight(1), with width 4\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [3.0, 0.0]);
}

#[test]
fn dependency_chain_through_class_defaults() {
    // The paper's motivating chain: position depends on width, whose
    // default depends on model.
    let scene = run(
        "class Sized:\n\
         \x20   model: 2\n\
         \x20   width: self.model * 3\n\
         specifier leftOfCurb(x) specifies position requires width:\n\
         \x20   return {'position': (x - self.width / 2) @ 0}\n\
         ego = Object at 50 @ 0\n\
         Sized using leftOfCurb(10)\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [7.0, 0.0]);
}

// ---------------------------------------------------------------------
// Optional properties and overriding (Algorithm 1 step 2)
// ---------------------------------------------------------------------

#[test]
fn optional_property_applies_when_unopposed() {
    let scene = run(
        "specifier slot() specifies position optionally heading:\n\
         \x20   return {'position': 3 @ 3, 'heading': 90 deg}\n\
         ego = Object at 0 @ 0\n\
         Object using slot()\n",
        0,
    )
    .unwrap();
    let h = scene.objects[1].heading.to_degrees();
    assert!((h - 90.0).abs() < 1e-9, "{h}");
}

#[test]
fn optional_property_overridden_by_facing() {
    let scene = run(
        "specifier slot() specifies position optionally heading:\n\
         \x20   return {'position': 1 @ 1, 'heading': 90 deg}\n\
         ego = Object at 0 @ 0\n\
         Object using slot(), facing 45 deg\n",
        0,
    )
    .unwrap();
    let h = scene.objects[1].heading.to_degrees();
    assert!((h - 45.0).abs() < 1e-9, "{h}");
}

#[test]
fn omitted_optional_is_fine_when_overridden() {
    // The body may skip optional keys entirely if something else
    // specifies them.
    let scene = run(
        "specifier spot() specifies position optionally heading:\n\
         \x20   return {'position': 2 @ 2}\n\
         ego = Object at 0 @ 0\n\
         Object using spot(), facing 10 deg\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [2.0, 2.0]);
}

#[test]
fn double_specification_with_builtin_errors() {
    let err = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object at 0 @ 0\n\
         Object using atOrigin(), at 3 @ 3\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
}

#[test]
fn cyclic_dependency_with_builtin_detected() {
    // `using needsHeading(...)` needs heading; `facing field` needs
    // position — the paper's canonical cycle, through a user specifier.
    let err = run(
        "specifier needsHeading() specifies position requires heading:\n\
         \x20   return {'position': self.heading @ 0}\n\
         ego = Object at 0 @ 0\n\
         vf = workspace\n\
         Object using needsHeading(), facing toward 5 @ 5\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Specifier { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("cyclic"), "{message}");
}

// ---------------------------------------------------------------------
// Randomness inside specifier bodies
// ---------------------------------------------------------------------

#[test]
fn specifier_bodies_may_sample() {
    let scene = run(
        "specifier nearby(r) specifies position:\n\
         \x20   return {'position': (0, r) @ (0, r)}\n\
         ego = Object at -20 @ -20\n\
         Object using nearby(5)\n",
        7,
    )
    .unwrap();
    let [x, y] = pos(&scene, 1);
    assert!((0.0..=5.0).contains(&x), "{x}");
    assert!((0.0..=5.0).contains(&y), "{y}");
}

#[test]
fn samples_differ_across_instances() {
    // Each application re-runs the body, so two objects get independent
    // draws (mirroring per-instance default evaluation, §4.1).
    let scene = run(
        "specifier spread() specifies position:\n\
         \x20   return {'position': (-100, 100) @ (-100, 100)}\n\
         ego = Object at 200 @ 200, with requireVisible False\n\
         a = Object using spread(), with requireVisible False\n\
         b = Object using spread(), with requireVisible False\n",
        3,
    )
    .unwrap();
    assert_ne!(pos(&scene, 1), pos(&scene, 2));
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

#[test]
fn using_undefined_name_errors() {
    let err = run("ego = Object using ghost()\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Undefined { .. }), "{err}");
}

#[test]
fn using_a_function_errors() {
    let err = run(
        "def f():\n    return {'position': 0 @ 0}\n\
         ego = Object using f()\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Type { .. }), "{err}");
}

#[test]
fn returning_non_dict_errors() {
    let err = run(
        "specifier bad() specifies position:\n\
         \x20   return 0 @ 0\n\
         ego = Object using bad()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Type { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("must return a dict"), "{message}");
}

#[test]
fn returning_nothing_errors() {
    let err = run(
        "specifier silent() specifies position:\n\
         \x20   pass\n\
         ego = Object using silent()\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Type { .. }), "{err}");
}

#[test]
fn returning_undeclared_property_errors() {
    let err = run(
        "specifier sneaky() specifies position:\n\
         \x20   return {'position': 0 @ 0, 'heading': 1}\n\
         ego = Object using sneaky()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Runtime { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("does not declare"), "{message}");
}

#[test]
fn missing_declared_property_errors() {
    let err = run(
        "specifier partial() specifies position, heading:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object using partial()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Specifier { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("did not produce"), "{message}");
}

#[test]
fn missing_argument_errors() {
    let err = run(
        "specifier east(d) specifies position:\n\
         \x20   return {'position': d @ 0}\n\
         ego = Object using east()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Runtime { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("missing argument"), "{message}");
}

#[test]
fn an_argument_given_by_position_and_keyword_is_rejected() {
    // Binding `d` twice used to keep the positional value silently.
    let scenario = compile(
        "specifier east(d) specifies position:\n\
         \x20   return {'position': d @ 0}\n\
         ego = Object using east(1, d=5)\n",
    )
    .unwrap();
    for engine in [Engine::Ast, Engine::Compiled] {
        let err = Sampler::new(&scenario)
            .with_engine(engine)
            .sample_seeded(0)
            .unwrap_err();
        assert!(
            matches!(&err, ScenicError::Runtime { message, .. }
                if message == "specifier east() got multiple values for argument `d`"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn extra_argument_errors() {
    let err = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object using atOrigin(1)\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

#[test]
fn unexpected_keyword_errors() {
    let err = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object using atOrigin(q=1)\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Runtime { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("unexpected keyword"), "{message}");
}

#[test]
fn requires_of_unspecified_property_errors() {
    let err = run(
        "specifier needy() specifies position requires flavor:\n\
         \x20   return {'position': self.flavor @ 0}\n\
         ego = Object using needy()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Specifier { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("flavor"), "{message}");
}

#[test]
fn recursive_specifier_bodies_are_bounded() {
    // A specifier whose body constructs an object using itself: the
    // call-depth guard must stop it.
    let err = run(
        "specifier viral() specifies position:\n\
         \x20   Object using viral(), with requireVisible False\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object using viral()\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Runtime { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("recursion"), "{message}");
}

// ---------------------------------------------------------------------
// Interplay with the rest of the language
// ---------------------------------------------------------------------

#[test]
fn specifier_is_a_first_class_value() {
    // `specifier` definitions live in the ordinary namespace; printing
    // one shows a useful description rather than crashing.
    let scene = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         x = atOrigin\n\
         ego = Object using atOrigin()\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 0), [0.0, 0.0]);
}

#[test]
fn specifier_closes_over_definition_environment() {
    let scene = run(
        "base = 10\n\
         specifier shifted(d) specifies position:\n\
         \x20   return {'position': (base + d) @ 0}\n\
         ego = Object at 0 @ 0\n\
         Object using shifted(2)\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [12.0, 0.0]);
}

#[test]
fn variable_named_specifier_still_works() {
    // `specifier` is contextual: plain uses as an identifier parse.
    let scene = run("specifier = 4\nego = Object at specifier @ 0\n", 0).unwrap();
    assert_eq!(pos(&scene, 0), [4.0, 0.0]);
}

#[test]
fn geometric_operators_inside_bodies() {
    // Bodies are full Scenic: line-of-sight math with the ego works.
    let scene = run(
        "specifier mirrored() specifies position:\n\
         \x20   return {'position': ego offset by 0 @ -5}\n\
         ego = Object at 3 @ 3\n\
         Object using mirrored(), with requireVisible False\n",
        0,
    )
    .unwrap();
    assert_eq!(pos(&scene, 1), [3.0, -2.0]);
}

#[test]
fn mutation_applies_to_custom_specified_objects() {
    let scene = run(
        "specifier atOrigin() specifies position:\n\
         \x20   return {'position': 0 @ 0}\n\
         ego = Object at 20 @ 20\n\
         x = Object using atOrigin(), with requireVisible False\n\
         mutate x\n",
        11,
    )
    .unwrap();
    let [x, y] = pos(&scene, 1);
    assert!(x != 0.0 || y != 0.0, "mutation noise must move the object");
}

#[test]
fn specifiers_defined_in_imported_libraries() {
    // The motivating use case for the runtime-bound `using` syntax: a
    // library module (like the paper's gtaLib) exports a specifier; the
    // user program applies it without the parser ever seeing the
    // definition.
    use scenic::core::{compile_with_world, Module, World};
    let mut world = World::bare();
    world.add_module(
        "parking",
        Module {
            natives: Vec::new(),
            source: Some(
                "specifier gridSlot(i, pitch=5) specifies position:\n\
                 \x20   return {'position': (i * pitch) @ 10}\n"
                    .into(),
            ),
        },
    );
    let scenario = compile_with_world(
        "import parking\n\
         ego = Object at 0 @ 0\n\
         Object using gridSlot(1)\n\
         Object using gridSlot(2)\n\
         Object using gridSlot(3, pitch=7)\n",
        &world,
    )
    .unwrap();
    let scene = scenario.generate_seeded(0).unwrap();
    assert_eq!(pos(&scene, 1), [5.0, 10.0]);
    assert_eq!(pos(&scene, 2), [10.0, 10.0]);
    assert_eq!(pos(&scene, 3), [21.0, 10.0]);
}

#[test]
fn print_parse_round_trip_for_definitions() {
    let src = "specifier slot(gap, y=1) specifies position optionally heading requires width:\n\
               \x20   return {'position': gap @ y}\n\
               ego = Object using slot(2), facing 30 deg\n";
    let ast = scenic::lang::parse(src).unwrap();
    let printed = scenic::lang::print_program(&ast);
    let reparsed = scenic::lang::parse(&printed).unwrap();
    assert_eq!(ast, reparsed, "{printed}");
}
