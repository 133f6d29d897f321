//! Language semantics torture tests: error paths, edge cases, and the
//! less-traveled corners of §4/§5.

use scenic::core::{Rejection, ScenicError};
use scenic::prelude::*;

fn run(source: &str, seed: u64) -> Result<Scene, ScenicError> {
    compile(source)?.generate_seeded(seed)
}

// ---------------------------------------------------------------------
// Error reporting
// ---------------------------------------------------------------------

#[test]
fn undefined_variable_reports_name_and_line() {
    let err = run("ego = Object at 0 @ 0\nx = missing + 1\n", 0).unwrap_err();
    let ScenicError::Undefined { name, line } = err else {
        panic!("wrong error: {err}");
    };
    assert_eq!(name, "missing");
    assert_eq!(line, 2);
}

#[test]
fn unknown_class_is_undefined() {
    let err = run("ego = Spaceship\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Undefined { .. }), "{err}");
}

#[test]
fn ego_must_be_an_object() {
    let err = run("ego = 5\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Type { .. }), "{err}");
}

#[test]
fn type_errors_carry_messages() {
    let err = run("ego = Object at 0 @ 0\nx = 3 at 1 @ 2\n", 0).unwrap_err();
    let ScenicError::Type { message, .. } = err else {
        panic!("wrong error: {err}");
    };
    assert!(message.contains("vector field"), "{message}");
}

#[test]
fn division_by_zero() {
    let err = run("ego = Object at 0 @ 0\nx = 1 / 0\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

#[test]
fn calling_a_scalar_fails() {
    let err = run("x = 3\nego = Object at 0 @ 0\ny = x(1)\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Type { .. }), "{err}");
}

#[test]
fn list_index_out_of_range() {
    let err = run("ego = Object at 0 @ 0\nx = [1, 2][5]\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

#[test]
fn wrong_keyword_argument() {
    let err = run(
        "def f(a):\n    return a\nego = Object at 0 @ 0\nf(b=1)\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

/// Runs `source` under both engines and returns each one's error.
fn errors_on_both_engines(source: &str) -> Vec<ScenicError> {
    let scenario = compile(source).unwrap();
    [Engine::Ast, Engine::Compiled]
        .into_iter()
        .map(|engine| {
            Sampler::new(&scenario)
                .with_engine(engine)
                .sample_seeded(0)
                .unwrap_err()
        })
        .collect()
}

#[test]
fn an_argument_given_by_position_and_keyword_is_rejected() {
    // Binding `a` twice used to keep the positional value silently.
    for err in
        errors_on_both_engines("def f(a, b=2):\n    return a\nego = Object at f(1, a=5) @ 0\n")
    {
        assert!(
            matches!(&err, ScenicError::Runtime { message, .. }
                if message == "f() got multiple values for argument `a`"),
            "{err}"
        );
        let code = scenic::core::Diagnostic::from_error(&err).code;
        assert_eq!(code.as_str(), "E007");
    }
}

#[test]
fn missing_function_argument() {
    let err = run(
        "def f(a, b):\n    return a\nego = Object at 0 @ 0\nf(1)\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

#[test]
fn recursion_is_bounded() {
    let err = run(
        "def f(n):\n    return f(n)\nego = Object at 0 @ 0\nf(1)\n",
        0,
    )
    .unwrap_err();
    let ScenicError::Runtime { message, .. } = err else {
        panic!("wrong error");
    };
    assert!(message.contains("recursion"), "{message}");
}

// ---------------------------------------------------------------------
// Random control flow restriction (§4)
// ---------------------------------------------------------------------

#[test]
fn random_while_condition_rejected() {
    let err = run(
        "x = (0, 1)\nego = Object at 0 @ 0\nwhile x > 2:\n    pass\n",
        0,
    )
    .unwrap_err();
    assert!(
        matches!(err, ScenicError::RandomControlFlow { .. }),
        "{err}"
    );
}

#[test]
fn random_ternary_condition_rejected() {
    let err = run(
        "x = (0, 1)\nego = Object at 0 @ 0\ny = 1 if x > 0.5 else 2\n",
        0,
    )
    .unwrap_err();
    assert!(
        matches!(err, ScenicError::RandomControlFlow { .. }),
        "{err}"
    );
}

#[test]
fn randomness_taints_through_arithmetic() {
    let err = run(
        "x = (0, 1)\ny = x * 2 + 1\nego = Object at 0 @ 0\nif y > 1:\n    pass\n",
        0,
    )
    .unwrap_err();
    assert!(
        matches!(err, ScenicError::RandomControlFlow { .. }),
        "{err}"
    );
}

#[test]
fn is_none_on_random_value_is_fine() {
    // Identity vs None is structural, not value-dependent (Fig. 18's
    // `model is None` guard).
    let scene = run(
        "x = (0, 1)\nego = Object at 0 @ 0\ny = 1 if x is None else 2\nObject at 0 @ y * 5\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.objects[1].position[1], 10.0);
}

#[test]
fn deterministic_conditions_work() {
    let scene = run(
        "n = 3\nego = Object at 0 @ 0\nif n > 2:\n    Object at 0 @ 10\nelse:\n    Object at 0 @ 20\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.objects[1].position[1], 10.0);
}

// ---------------------------------------------------------------------
// Soft requirements and rejection bookkeeping
// ---------------------------------------------------------------------

#[test]
fn soft_requirement_probability_must_be_constant() {
    let err = run(
        "ego = Object at 0 @ 0\np = (0, 1)\nrequire[p] ego can see 0 @ 5\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Runtime { .. }), "{err}");
}

#[test]
fn requirement_rejection_carries_line() {
    let err = run("ego = Object at 0 @ 0\nrequire 1 > 2\n", 0).unwrap_err();
    assert_eq!(
        err,
        ScenicError::Rejected(Rejection::Requirement { line: 2 })
    );
}

#[test]
fn requirements_checked_after_mutation() {
    // The requirement references the post-noise position (Fig. 25's
    // ordering): with a tight bound it must sometimes reject.
    let scenario = compile(
        "ego = Object at 0 @ 0\nc = Object at 0 @ 20\nmutate c\nrequire c.position.y > 20\n",
    )
    .unwrap();
    let mut saw_reject = false;
    let mut saw_accept = false;
    for seed in 0..40 {
        match scenario.generate_seeded(seed) {
            Ok(scene) => {
                saw_accept = true;
                assert!(scene.objects[1].position[1] > 20.0);
            }
            Err(ScenicError::Rejected(Rejection::Requirement { .. })) => saw_reject = true,
            Err(other) => panic!("unexpected: {other}"),
        }
    }
    assert!(saw_accept && saw_reject, "mutation+requirement interaction");
}

// ---------------------------------------------------------------------
// Classes and specifiers
// ---------------------------------------------------------------------

#[test]
fn class_shadowing_most_derived_default_wins() {
    let scene = run(
        "class A:\n    width: 2\nclass B(A):\n    width: 4\nclass C(B):\n    pass\n\
         ego = Object at 0 @ 0\nC at 10 @ 0, with requireVisible False\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.objects[1].width, 4.0);
}

#[test]
fn with_specifier_defines_new_properties() {
    let scene = run(
        "ego = Object at 0 @ 0, with flavor 'salt', with count 3\n",
        0,
    )
    .unwrap();
    let ego = scene.ego();
    assert_eq!(ego.property("flavor").unwrap().as_str(), Some("salt"));
    assert_eq!(ego.property("count").unwrap().as_number(), Some(3.0));
}

#[test]
fn heading_specified_twice_is_error() {
    let err = run("ego = Object at 0 @ 0, facing 10 deg, facing 20 deg\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
}

#[test]
fn with_position_conflicts_with_at() {
    let err = run("ego = Object at 0 @ 0, with position 1 @ 1\n", 0).unwrap_err();
    assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
}

#[test]
fn default_chain_through_self() {
    // width → model-free three-level self dependency chain.
    let scene = run(
        "class T:\n    a: 2\n    b: self.a * 3\n    c: self.b + self.a\n\
         ego = Object at 0 @ 0\nT at 10 @ 0, with requireVisible False\n",
        0,
    )
    .unwrap();
    let t = &scene.objects[1];
    assert_eq!(t.property("c").unwrap().as_number(), Some(8.0));
}

#[test]
fn cyclic_self_defaults_error() {
    let err = run(
        "class T:\n    a: self.b\n    b: self.a\n\
         ego = Object at 0 @ 0\nT at 10 @ 0\n",
        0,
    )
    .unwrap_err();
    assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
}

#[test]
fn point_and_oriented_point_are_not_physical() {
    let scene = run(
        "ego = Object at 0 @ 0\np = Point at 50 @ 50\nq = OrientedPoint at 60 @ 60\n",
        0,
    )
    .unwrap();
    // Only the ego is in the scene; points don't collide or render.
    assert_eq!(scene.objects.len(), 1);
}

#[test]
fn ego_can_be_reassigned() {
    // The last assignment to ego wins (as in the paper's semantics where
    // ego is just a special variable).
    let scene = run("ego = Object at 0 @ 0\nc = Object at 0 @ 10\nego = c\n", 0).unwrap();
    assert!(scene.objects[1].is_ego);
    assert!(!scene.objects[0].is_ego);
}

// ---------------------------------------------------------------------
// Values and builtins
// ---------------------------------------------------------------------

#[test]
fn list_and_dict_operations() {
    let scene = run(
        "xs = [1, 2, 3] + [4]\n\
         d = {'a': 10, 'b': 20}\n\
         ego = Object at 0 @ 0, with n len(xs), with last xs[-1], with a d['a']\n",
        0,
    )
    .unwrap();
    let ego = scene.ego();
    assert_eq!(ego.property("n").unwrap().as_number(), Some(4.0));
    assert_eq!(ego.property("last").unwrap().as_number(), Some(4.0));
    assert_eq!(ego.property("a").unwrap().as_number(), Some(10.0));
}

#[test]
fn string_concatenation_and_comparison() {
    let scenario =
        compile("ego = Object at 0 @ 0\nrequire ('ab' + 'cd') == 'abcd'\nrequire 'x' != 'y'\n")
            .unwrap();
    assert!(scenario.generate_seeded(0).is_ok());
}

#[test]
fn uniform_over_objects_and_discrete_weights() {
    let scene = run(
        "choice = Uniform('a', 'b', 'c')\n\
         w = Discrete({'heads': 1, 'tails': 1})\n\
         ego = Object at 0 @ 0, with pick choice, with flip w\n",
        3,
    )
    .unwrap();
    let pick = scene
        .ego()
        .property("pick")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(["a", "b", "c"].contains(&pick.as_str()));
}

#[test]
fn nested_function_closures() {
    let scene = run(
        "base = 100\n\
         def outer(k):\n    def inner(j):\n        return base + k + j\n    return inner(5)\n\
         ego = Object at 0 @ 0, with v outer(10)\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.ego().property("v").unwrap().as_number(), Some(115.0));
}

#[test]
fn for_loop_over_list_literal() {
    let scene = run(
        "ego = Object at 0 @ 0\nfor dy in [10, 20, 30]:\n    Object at 0 @ dy\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.objects.len(), 4);
    assert_eq!(scene.objects[3].position[1], 30.0);
}

#[test]
fn while_loop_builds_row() {
    let scene = run(
        "ego = Object at 0 @ 0\nn = 0\nwhile n < 3:\n    Object at (n * 10 + 10) @ 0\n    n = n + 1\n",
        0,
    )
    .unwrap();
    assert_eq!(scene.objects.len(), 4);
}

#[test]
fn vector_component_access() {
    let scenario = compile(
        "v = 3 @ 4\nego = Object at v\nrequire ego.position.x == 3\nrequire ego.position.y == 4\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(0).is_ok());
}

#[test]
fn printed_variant_scenarios_still_run() {
    // Print a parsed scenario back to source and sample the result:
    // printer and interpreter agree.
    let src = "ego = Object at 0 @ 0, facing 45 deg\nObject beyond 0 @ 10 by 0 @ 2, with requireVisible False\n";
    let ast = scenic::lang::parse(src).unwrap();
    let printed = scenic::lang::print_program(&ast);
    let scene_a = run(src, 5).unwrap();
    let scene_b = run(&printed, 5).unwrap();
    assert_eq!(scene_a.objects[1].position, scene_b.objects[1].position);
}
