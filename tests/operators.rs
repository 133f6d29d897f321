//! Semantics of Scenic's geometric operators and specifiers, asserting
//! the concrete geometry of Fig. 6 of the paper.
//!
//! Fig. 6 shows an ego at the origin facing North and an OrientedPoint
//! `P`, illustrating `left of ego`, `back right of ego`,
//! `Point offset by 1 @ 2`, `P offset by 0 @ -2`, `Point beyond P by
//! -2 @ 1`, `Object behind P by 2`, and `apparent heading of P`.

use scenic::prelude::*;

fn sample(source: &str, seed: u64) -> Scene {
    let scenario = compile(source).expect("compiles");
    Sampler::new(&scenario)
        .sample_seeded(seed)
        .expect("samples")
}

fn pos(scene: &Scene, idx: usize) -> [f64; 2] {
    scene.objects[idx].position
}

#[test]
fn offset_by_in_ego_frame() {
    // Fig. 6: `Point offset by 1 @ 2` ≡ `1 @ 2 relative to ego`.
    let scene = sample(
        "ego = Object at 0 @ 0\nObject offset by 1 @ 2, with requireVisible False\n",
        1,
    );
    assert_eq!(pos(&scene, 1), [1.0, 2.0]);
    // With a rotated ego the offset rotates too.
    let scene = sample(
        "ego = Object at 0 @ 0, facing 90 deg\nObject offset by 1 @ 2, with requireVisible False\n",
        1,
    );
    let p = pos(&scene, 1);
    assert!(
        (p[0] - (-2.0)).abs() < 1e-9 && (p[1] - 1.0).abs() < 1e-9,
        "{p:?}"
    );
}

#[test]
fn oriented_point_offset_keeps_heading() {
    // Fig. 6: `P offset by 0 @ -2` yields an OrientedPoint facing the
    // same way as P.
    let scene = sample(
        "ego = Object at 0 @ 0\n\
         p = OrientedPoint at 5 @ 5, facing 45 deg\n\
         q = p offset by 0 @ -2\n\
         Object at q, facing q.heading, with requireVisible False\n",
        1,
    );
    let o = &scene.objects[1];
    assert!((o.heading.to_degrees() - 45.0).abs() < 1e-9);
    // 2m backwards along P's heading: (5, 5) + rotate((0, -2), 45°).
    let expected = [
        5.0 - (-2.0) * (45f64.to_radians()).sin(),
        5.0 + (-2.0) * (45f64.to_radians()).cos(),
    ];
    let p = o.position;
    assert!((p[0] - expected[0]).abs() < 1e-9 && (p[1] - expected[1]).abs() < 1e-9);
}

#[test]
fn beyond_in_line_of_sight_frame() {
    // Fig. 6: `Point beyond P by -2 @ 1` — offset in the coordinate
    // system oriented along the line of sight from ego.
    // Ego at origin, P at (0, 10): line of sight is North, so
    // beyond P by -2 @ 1 = (-2, 11).
    let scene = sample(
        "ego = Object at 0 @ 0\n\
         Object beyond 0 @ 10 by -2 @ 1, with requireVisible False\n",
        1,
    );
    let p = pos(&scene, 1);
    assert!(
        (p[0] - (-2.0)).abs() < 1e-9 && (p[1] - 11.0).abs() < 1e-9,
        "{p:?}"
    );
}

#[test]
fn beyond_with_explicit_from() {
    // `beyond A by O from B`: sight line from B to A.
    // B = (0, 20), A = (0, 10): sight direction South, so `by 0 @ 3`
    // goes 3m further South.
    let scene = sample(
        "ego = Object at 0 @ 0\n\
         Object beyond 0 @ 10 by 0 @ 3 from 0 @ 20, with requireVisible False\n",
        1,
    );
    let p = pos(&scene, 1);
    assert!(p[0].abs() < 1e-9 && (p[1] - 7.0).abs() < 1e-9, "{p:?}");
}

#[test]
fn behind_oriented_point_by_gap() {
    // Fig. 6: `Object behind P by 2` places the object's front edge 2m
    // behind P.
    let scene = sample(
        "ego = Object at 0 @ 0\n\
         p = OrientedPoint at 0 @ 10, facing 0 deg\n\
         Object behind p by 2, with height 4, with requireVisible False\n",
        1,
    );
    // Center = P - (2 + height/2) along P's heading = (0, 10 - 4) = (0, 6).
    let p = pos(&scene, 1);
    assert!(p[0].abs() < 1e-9 && (p[1] - 6.0).abs() < 1e-9, "{p:?}");
}

#[test]
fn apparent_heading_of() {
    // Fig. 6's apparent heading: P's heading relative to the line of
    // sight from ego. P at (0, 10) facing West (90°): line of sight is
    // North (0°), so apparent heading is 90°.
    let scenario = compile(
        "ego = Object at 0 @ 0\n\
         p = OrientedPoint at 0 @ 10, facing 90 deg\n\
         require abs((apparent heading of p) - 90 deg) < 0.001\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(1).is_ok());
}

#[test]
fn relative_heading_of() {
    let scenario = compile(
        "ego = Object at 0 @ 0, facing 30 deg\n\
         c = Object at 0 @ 10, facing 50 deg\n\
         require abs((relative heading of c) - 20 deg) < 0.001\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(1).is_ok());
}

#[test]
fn distance_and_angle_operators() {
    let scenario = compile(
        "ego = Object at 0 @ 0\n\
         c = Object at 3 @ 4\n\
         require abs((distance to c) - 5) < 0.001\n\
         require abs((distance from 1 @ 0 to 4 @ 4) - 5) < 0.001\n\
         require abs((angle to 0 @ 10) - 0) < 0.001\n\
         require abs((angle to -10 @ 0) - 90 deg) < 0.001\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(2).is_ok());
}

#[test]
fn box_corner_operators() {
    // front/back/left/right and corner points of a 2×4 object.
    let scenario = compile(
        "ego = Object at 0 @ 0, with width 2, with height 4\n\
         require abs((distance to front of ego) - 2) < 0.001\n\
         require abs((distance to back of ego) - 2) < 0.001\n\
         require abs((distance to left of ego) - 1) < 0.001\n\
         require abs((distance to front left of ego) - 2.2360679) < 0.001\n\
         require abs((distance to back right of ego) - 2.2360679) < 0.001\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(3).is_ok());
}

#[test]
fn field_at_and_relative_to() {
    use scenic::core::{Module, NativeValue, World};
    use scenic::geom::{Heading, VectorField};
    use std::sync::Arc;
    let mut world = World::bare();
    world.add_module(
        "lib",
        Module {
            natives: vec![(
                "f".into(),
                NativeValue::Field(Arc::new(VectorField::Constant(Heading::from_degrees(30.0)))),
            )],
            source: None,
        },
    );
    let scenario = scenic::core::compile_with_world(
        "import lib\n\
         ego = Object at 0 @ 0\n\
         require abs((f at 1 @ 1) - 30 deg) < 0.001\n\
         Object at 0 @ 5, facing 15 deg relative to f\n",
        &world,
    )
    .unwrap();
    let scene = scenario.generate_seeded(1).unwrap();
    assert!((scene.objects[1].heading.to_degrees() - 45.0).abs() < 1e-6);
}

#[test]
fn offset_along_heading_and_field() {
    let scene = sample(
        "ego = Object at 0 @ 0\n\
         Object at (0 @ 0) offset along 90 deg by 0 @ 5, with requireVisible False\n",
        1,
    );
    // Offset (0,5) rotated 90° ccw = (-5, 0).
    let p = pos(&scene, 1);
    assert!((p[0] - (-5.0)).abs() < 1e-9 && p[1].abs() < 1e-9, "{p:?}");
}

#[test]
fn can_see_and_is_in() {
    let scenario = compile(
        "ego = Object at 0 @ 0, with viewAngle 90 deg, with viewDistance 20\n\
         require ego can see 0 @ 10\n\
         require not (ego can see 0 @ -10)\n\
         require not (ego can see 0 @ 30)\n\
         require (3 @ 4) is in workspace\n",
    )
    .unwrap();
    assert!(scenario.generate_seeded(1).is_ok());
}

#[test]
fn visible_region_sampling() {
    // The `visible` specifier samples uniformly in the ego view region.
    let scenario = compile(
        "ego = Object at 0 @ 0, with viewAngle 60 deg, with viewDistance 25\n\
         Object visible, with allowCollisions True\n",
    )
    .unwrap();
    for seed in 0..20 {
        let scene = scenario.generate_seeded(seed);
        let Ok(scene) = scene else { continue };
        let p = scene.objects[1].position_vec();
        assert!(p.norm() <= 25.0 + 1e-9);
        let bearing = scenic::geom::Heading::of_vector(p);
        assert!(bearing.radians().abs() <= 30f64.to_radians() + 1e-9);
    }
}

#[test]
fn follow_field_euler() {
    use scenic::core::{Module, NativeValue, World};
    use scenic::geom::{Heading, VectorField};
    use std::sync::Arc;
    let mut world = World::bare();
    world.add_module(
        "lib",
        Module {
            natives: vec![(
                "f".into(),
                NativeValue::Field(Arc::new(VectorField::Constant(Heading::from_degrees(
                    -90.0,
                )))),
            )],
            source: None,
        },
    );
    // Following an East-pointing field for 8m lands at (8, 0).
    let scenario = scenic::core::compile_with_world(
        "import lib\n\
         ego = Object at 0 @ 0\n\
         p = follow f from 0 @ 0 for 8\n\
         Object at p, facing p.heading, with requireVisible False, with allowCollisions True\n",
        &world,
    )
    .unwrap();
    let scene = scenario.generate_seeded(1).unwrap();
    let p = scene.objects[1].position;
    assert!((p[0] - 8.0).abs() < 1e-9 && p[1].abs() < 1e-9, "{p:?}");
    assert!((scene.objects[1].heading.to_degrees() + 90.0).abs() < 1e-9);
}

/// A list index must be an integer inside the list: a negative index
/// counts from the end, and one past either end or with a fraction is a
/// runtime error (E007) on both engines.
#[test]
fn list_indices_are_in_range_integers() {
    let scene = sample("ego = Object at [1, 2, 3][-1] @ [1, 2, 3][-3]\n", 0);
    assert_eq!(pos(&scene, 0), [3.0, 1.0]);
    for (index, expected) in [
        ("-10", "list index out of range"),
        ("-4", "list index out of range"),
        ("3", "list index out of range"),
        ("1.5", "list index must be an integer"),
        ("-0.5", "list index must be an integer"),
    ] {
        let scenario = compile(&format!("ego = Object at [1, 2, 3][{index}] @ 0\n")).unwrap();
        for engine in [Engine::Ast, Engine::Compiled] {
            let err = Sampler::new(&scenario)
                .with_engine(engine)
                .sample_seeded(0)
                .unwrap_err();
            assert!(
                matches!(&err, ScenicError::Runtime { message, .. } if message == expected),
                "{engine}: [1, 2, 3][{index}]: {err}"
            );
        }
    }
}
