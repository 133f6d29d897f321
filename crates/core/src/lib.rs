//! # scenic-core
//!
//! The Scenic language runtime: the paper's primary contribution.
//!
//! This crate implements, from the PLDI 2019 paper:
//!
//! - the value model and distributions of §4.1 (Table 1) — [`value`];
//! - the built-in class hierarchy `Point` / `OrientedPoint` / `Object`
//!   with the defaults of Table 2 — [`class`], [`object`];
//! - specifier resolution, Algorithm 1 — [`specifier`];
//! - the operator semantics of Appendix C — inside [`interp`];
//! - the operational semantics of Appendix B: requirement-conditioned
//!   execution, soft requirements, mutation, and the termination rules
//!   — [`interp`];
//! - rejection sampling with statistics — [`sampler`];
//! - the domain-specific pruning algorithms of §5.2 (Algorithms 2 & 3
//!   plus containment erosion) — [`prune`];
//! - the [`scene`] output format (the simulator interface layer).
//!
//! Two amortization layers scale the pipeline beyond one-shot runs: a
//! persistent worker [`pool`] reused across `sample_batch` calls, and a
//! compiled-scenario [`cache`] so revisited sources compile once.
//!
//! # Example
//!
//! ```
//! use scenic_core::sampler::Sampler;
//!
//! let scenario = scenic_core::compile(
//!     "ego = Object at 0 @ 0\nObject at 0 @ (5, 10)\nrequire ego can see 0 @ 7\n",
//! )?;
//! let scene = Sampler::new(&scenario).sample_seeded(1)?;
//! assert_eq!(scene.objects.len(), 2);
//! # Ok::<(), scenic_core::ScenicError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builtins;
pub mod cache;
pub mod class;
pub mod compile;
pub mod diag;
mod early;
pub mod env;
pub mod error;
mod facts;
pub mod interp;
pub mod object;
pub mod pool;
pub mod prune;
pub mod sampler;
pub mod scene;
pub mod specifier;
pub mod value;
pub mod world;

pub use analysis::analyze;
pub use cache::{source_hash, ScenarioCache};
pub use compile::{CompiledProgram, Engine};
pub use diag::{Code, Diagnostic, Severity};
pub use error::{Pruner, Rejection, RunResult, ScenicError};
pub use interp::{compile, compile_with_world, Interpreter, Scenario};
pub use pool::WorkerPool;
pub use prune::{PruneParams, PrunePlan};
pub use sampler::{derive_scene_seed, BatchReport, Sampler, SamplerConfig, SamplerStats};
pub use scene::{batch_digest, scene_digest, PropValue, Scene, SceneObject};
pub use value::Value;
pub use world::{Module, NativeValue, World};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Sampler;

    fn sample(source: &str, seed: u64) -> Scene {
        let scenario = compile(source).expect("compiles");
        Sampler::new(&scenario)
            .sample_seeded(seed)
            .expect("samples")
    }

    #[test]
    fn simplest_scenario_two_objects() {
        let scene = sample("ego = Object at 0 @ 0\nObject at 0 @ 10\n", 1);
        assert_eq!(scene.objects.len(), 2);
        assert!(scene.ego().is_ego);
        assert_eq!(scene.objects[1].position, [0.0, 10.0]);
    }

    #[test]
    fn ego_required() {
        let scenario = compile("Object at 0 @ 0\n").unwrap();
        let err = scenario.generate_seeded(0).unwrap_err();
        assert_eq!(err, ScenicError::EgoUndefined);
    }

    #[test]
    fn interval_distribution_sampling() {
        let scene = sample("ego = Object at 0 @ 0\nObject at 0 @ (5, 10)\n", 3);
        let y = scene.objects[1].position[1];
        assert!((5.0..10.0).contains(&y), "y = {y}");
    }

    #[test]
    fn default_collision_requirement() {
        // Two objects at the same place: every run rejects.
        let scenario = compile("ego = Object at 0 @ 0\nObject at 0 @ 0.5\n").unwrap();
        let mut sampler = Sampler::new(&scenario).with_config(SamplerConfig { max_iterations: 20 });
        let err = sampler.sample_seeded(0).unwrap_err();
        assert!(matches!(err, ScenicError::MaxIterationsExceeded { .. }));
        assert_eq!(sampler.stats().collision_rejections, 20);
    }

    #[test]
    fn allow_collisions_escape_hatch() {
        let scene = sample(
            "ego = Object at 0 @ 0, with allowCollisions True\n\
             Object at 0 @ 0.5, with allowCollisions True\n",
            2,
        );
        assert_eq!(scene.objects.len(), 2);
    }

    #[test]
    fn visibility_requirement_enforced() {
        // Object behind an ego with a narrow forward cone: always
        // rejected.
        let scenario =
            compile("ego = Object at 0 @ 0, with viewAngle 30 deg\nObject at 0 @ -20\n").unwrap();
        let mut sampler = Sampler::new(&scenario).with_config(SamplerConfig { max_iterations: 10 });
        assert!(sampler.sample_seeded(1).is_err());
        assert_eq!(sampler.stats().visibility_rejections, 10);
        // requireVisible False lifts it.
        let scene = sample(
            "ego = Object at 0 @ 0, with viewAngle 30 deg\n\
             Object at 0 @ -20, with requireVisible False\n",
            1,
        );
        assert_eq!(scene.objects.len(), 2);
    }

    #[test]
    fn hard_requirement_conditions_distribution() {
        // y uniform on (0, 10) conditioned on y > 8.
        let scenario = compile(
            "ego = Object at 0 @ 0\nc = Object at 0 @ (0, 10), with requireVisible False, with allowCollisions True\nrequire c.position.y > 8\n",
        )
        .unwrap();
        let mut sampler = Sampler::new(&scenario).with_seed(5);
        for _ in 0..20 {
            let scene = sampler.sample().unwrap();
            assert!(scene.objects[1].position[1] > 8.0);
        }
        assert!(sampler.stats().requirement_rejections > 0);
    }

    #[test]
    fn soft_requirement_holds_with_probability() {
        let scenario = compile(
            "ego = Object at 0 @ 0\nc = Object at 0 @ (2, 10)\nrequire[0.9] c.position.y > 6\n",
        )
        .unwrap();
        let mut sampler = Sampler::new(&scenario).with_seed(11);
        let n = 300;
        let mut holds = 0;
        for _ in 0..n {
            let scene = sampler.sample().unwrap();
            if scene.objects[1].position[1] > 6.0 {
                holds += 1;
            }
        }
        // Unconditioned probability is 0.5; with the soft requirement it
        // must be at least 0.9 (up to sampling noise).
        let frac = holds as f64 / n as f64;
        assert!(frac > 0.85, "soft requirement held only {frac}");
    }

    #[test]
    fn classes_defaults_and_inheritance() {
        let scene = sample(
            "class Box:\n    width: 3\n    height: (2, 4)\n\
             class BigBox(Box):\n    width: 6\n\
             ego = Object at 0 @ 0\n\
             BigBox at 10 @ 10, with requireVisible False\n",
            7,
        );
        let b = &scene.objects[1];
        assert_eq!(b.class, "BigBox");
        assert_eq!(b.width, 6.0);
        assert!((2.0..4.0).contains(&b.height));
    }

    #[test]
    fn default_values_draw_per_instance() {
        let scene = sample(
            "class Box:\n    height: (0, 100)\n    requireVisible: False\n    allowCollisions: True\n\
             ego = Object at 0 @ 0\n\
             Box at 50 @ 0\nBox at -50 @ 0\n",
            13,
        );
        let h1 = scene.objects[1].height;
        let h2 = scene.objects[2].height;
        assert_ne!(h1, h2, "defaults must resample per instance");
    }

    #[test]
    fn self_dependent_defaults() {
        let scene = sample(
            "class Tall:\n    height: self.width * 2\n    requireVisible: False\n\
             ego = Object at 0 @ 0\n\
             Tall at 20 @ 0, with width 3\n",
            1,
        );
        assert_eq!(scene.objects[1].height, 6.0);
    }

    #[test]
    fn specifier_cycle_is_error() {
        // A cycle: `left of <vector>` needs heading, `facing toward`
        // needs position.
        let cyc = compile("ego = Object left of 0 @ 0, facing toward 5 @ 5\n").unwrap();
        let err = cyc.generate_seeded(0).unwrap_err();
        assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
    }

    #[test]
    fn double_position_is_error() {
        let scenario = compile("ego = Object at 0 @ 0, at 1 @ 1\n").unwrap();
        let err = scenario.generate_seeded(0).unwrap_err();
        assert!(matches!(err, ScenicError::Specifier { .. }), "{err}");
    }

    #[test]
    fn offset_by_is_ego_relative() {
        // Ego faces West (90° ccw); `offset by 0 @ 10` lands 10m West.
        let scene = sample(
            "ego = Object at 0 @ 0, facing 90 deg\nObject offset by 0 @ 10\n",
            3,
        );
        let p = scene.objects[1].position;
        assert!((p[0] - (-10.0)).abs() < 1e-9, "{p:?}");
        assert!(p[1].abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn left_of_object_accounts_for_widths() {
        let scene = sample(
            "ego = Object at 0 @ 0, with width 4\n\
             Object left of ego by 1, with width 2\n",
            1,
        );
        // Ego's left edge at x = -2; gap 1; new object's half-width 1:
        // center at x = -4.
        let p = scene.objects[1].position;
        assert!((p[0] - (-4.0)).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn behind_vector_uses_height() {
        let scene = sample(
            "ego = Object at 0 @ 0\nObject behind 0 @ 20, with height 6\n",
            1,
        );
        // Midpoint of front edge at (0, 20), center 3 below.
        let p = scene.objects[1].position;
        assert!((p[1] - 17.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn facing_toward() {
        let scene = sample(
            "ego = Object at 0 @ 0\nObject at 10 @ 0, facing toward 0 @ 0\n",
            1,
        );
        // From (10, 0) facing the origin = facing West = +90°.
        let h = scene.objects[1].heading;
        assert!((h - 90f64.to_radians()).abs() < 1e-9, "h = {h}");
    }

    #[test]
    fn beyond_specifier() {
        // `beyond 0 @ 20 by 0 @ 5` from ego at origin: 5m further along
        // the line of sight = (0, 25).
        let scene = sample("ego = Object at 0 @ 0\nObject beyond 0 @ 20 by 0 @ 5\n", 1);
        let p = scene.objects[1].position;
        assert!((p[1] - 25.0).abs() < 1e-9, "{p:?}");
        assert!(p[0].abs() < 1e-9);
    }

    #[test]
    fn mutation_perturbs_scene() {
        let base = sample(
            "ego = Object at 0 @ 0\ntaxi = Object at 0 @ 20, facing 10 deg\n",
            9,
        );
        let noisy = sample(
            "ego = Object at 0 @ 0\ntaxi = Object at 0 @ 20, facing 10 deg\nmutate taxi\n",
            9,
        );
        assert_eq!(base.objects[1].position, [0.0, 20.0]);
        let p = noisy.objects[1].position;
        assert!(p != [0.0, 20.0], "mutation left position unchanged");
        // Noise is standard-normal-ish: within 6 sigma.
        assert!((p[0]).abs() < 6.0 && (p[1] - 20.0).abs() < 6.0, "{p:?}");
    }

    #[test]
    fn random_control_flow_rejected() {
        let scenario = compile("x = (0, 1)\nif x > 0.5:\n    ego = Object at 0 @ 0\n").unwrap();
        let err = scenario.generate_seeded(0).unwrap_err();
        assert!(
            matches!(err, ScenicError::RandomControlFlow { .. }),
            "{err}"
        );
    }

    #[test]
    fn resample_draws_independently() {
        let scene = sample(
            "w = (0, 100)\n\
             ego = Object at 0 @ 0\n\
             Object at 0 @ 20, with a w, with b resample(w)\n",
            21,
        );
        let o = &scene.objects[1];
        let a = o.property("a").unwrap().as_number().unwrap();
        let b = o.property("b").unwrap().as_number().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn functions_loops_and_params() {
        let scene = sample(
            "param n = 3, label = 'hi'\ndef makeRow(count, gap=10):\n    for i in range(count):\n        Object at (i * gap + 10) @ 20\nego = Object at 0 @ 0\nmakeRow(3)\n",
            2,
        );
        assert_eq!(scene.objects.len(), 4);
        assert_eq!(scene.param("n").unwrap().as_number(), Some(3.0));
        assert_eq!(scene.param("label").unwrap().as_str(), Some("hi"));
        assert_eq!(scene.objects[3].position, [30.0, 20.0]);
    }

    #[test]
    fn can_see_operator() {
        let scenario = compile(
            "ego = Object at 0 @ 0, with viewAngle 60 deg\n\
             c = Object at 0 @ 10\n\
             require ego can see c\n",
        )
        .unwrap();
        assert!(scenario.generate_seeded(1).is_ok());
        let blocked = compile(
            "ego = Object at 0 @ 0, with viewAngle 60 deg\n\
             c = Object at 0 @ 10\n\
             require not (ego can see c)\n",
        )
        .unwrap();
        assert!(blocked.generate_seeded(1).is_err());
    }

    #[test]
    fn oriented_point_helpers() {
        let scene = sample(
            "ego = Object at 0 @ 0, with height 4\n\
             spot = front of ego\n\
             Object at spot offset by 0 @ 3\n",
            1,
        );
        // front of ego = (0, 2); offset by (0,3) in its frame = (0, 5).
        let p = scene.objects[1].position;
        assert!((p[1] - 5.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn scene_json_round_trips() {
        let scene = sample("ego = Object at 1 @ 2\nObject at 3 @ 4\n", 1);
        let json = scene.to_json();
        let back = Scene::from_json(&json).unwrap();
        assert_eq!(back.objects.len(), 2);
        assert_eq!(back.ego().position, [1.0, 2.0]);
    }

    #[test]
    fn apparently_facing() {
        // Object at (0, 10) viewed from ego at origin; apparently facing
        // 90° means heading = 90° + line-of-sight(0°) = 90°.
        let scene = sample(
            "ego = Object at 0 @ 0\nObject at 0 @ 10, apparently facing 90 deg\n",
            1,
        );
        let h = scene.objects[1].heading;
        assert!((h - 90f64.to_radians()).abs() < 1e-9, "h = {h}");
    }

    #[test]
    fn workspace_containment() {
        use scenic_geom::{Region, Vec2};
        let world = World::with_workspace(Region::rectangle(Vec2::ZERO, 30.0, 30.0));
        let scenario = compile_with_world(
            "ego = Object at 0 @ 0\nObject at 0 @ (5, 100), with requireVisible False\n",
            &world,
        )
        .unwrap();
        let mut sampler = Sampler::new(&scenario).with_seed(3);
        for _ in 0..10 {
            let scene = sampler.sample().unwrap();
            let y = scene.objects[1].position[1];
            assert!(y <= 14.5 + 1e-9, "object escaped workspace: {y}");
        }
        assert!(sampler.stats().containment_rejections > 0);
    }

    #[test]
    fn modules_with_natives_and_source() {
        use scenic_geom::{Heading, Region, Vec2, VectorField};
        use std::sync::Arc;
        let mut world = World::bare();
        world.add_module(
            "lib",
            Module {
                natives: vec![
                    (
                        "road".into(),
                        NativeValue::Region(Arc::new(Region::rectangle(Vec2::ZERO, 10.0, 100.0))),
                    ),
                    (
                        "roadDir".into(),
                        NativeValue::Field(Arc::new(VectorField::Constant(Heading::from_degrees(
                            45.0,
                        )))),
                    ),
                ],
                source: Some(
                    "class Car:\n    position: Point on road\n    heading: roadDir at self.position\n    requireVisible: False\n"
                        .into(),
                ),
            },
        );
        let scenario = compile_with_world("import lib\nego = Car\nCar\n", &world).unwrap();
        let scene = Sampler::new(&scenario).sample_seeded(5).unwrap();
        assert_eq!(scene.objects.len(), 2);
        for o in &scene.objects {
            assert!((o.heading - 45f64.to_radians()).abs() < 1e-9);
            assert!(o.position[0].abs() <= 5.0);
        }
    }

    #[test]
    fn on_region_orientation_is_optional() {
        use scenic_geom::{Heading, Polygon, Region, Vec2, VectorField};
        use std::sync::Arc;
        let region = Region::polygons_with_orientation(
            vec![Polygon::rectangle(Vec2::ZERO, 10.0, 10.0)],
            VectorField::Constant(Heading::from_degrees(30.0)),
        );
        let mut world = World::bare();
        world.add_module(
            "lib",
            Module {
                natives: vec![("road".into(), NativeValue::Region(Arc::new(region)))],
                source: None,
            },
        );
        // Without facing: heading comes from the region's orientation.
        let s1 = compile_with_world(
            "import lib\nego = Object on road, with requireVisible False\n",
            &world,
        )
        .unwrap();
        let scene1 = Sampler::new(&s1).sample_seeded(1).unwrap();
        assert!((scene1.objects[0].heading - 30f64.to_radians()).abs() < 1e-9);
        // With facing: the explicit specifier overrides the optional.
        let s2 = compile_with_world(
            "import lib\nego = Object on road, facing 20 deg, with requireVisible False\n",
            &world,
        )
        .unwrap();
        let scene2 = Sampler::new(&s2).sample_seeded(1).unwrap();
        assert!((scene2.objects[0].heading - 20f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn badly_parked_style_scenario() {
        use scenic_geom::{Heading, Polygon, Region, Vec2, VectorField};
        use std::sync::Arc;
        // A "curb" along x = 3, road heading North.
        let curb = Region::polygons_with_orientation(
            vec![Polygon::rectangle(Vec2::new(3.0, 25.0), 0.4, 50.0)],
            VectorField::Constant(Heading::NORTH),
        );
        let mut world = World::bare();
        world.add_module(
            "lib",
            Module {
                natives: vec![("curb".into(), NativeValue::Region(Arc::new(curb)))],
                source: None,
            },
        );
        let scenario = compile_with_world(
            "import lib\n\
             ego = Object at 0 @ 0\n\
             spot = OrientedPoint on visible curb\n\
             badAngle = Uniform(1.0, -1.0) * (10, 20) deg\n\
             Object left of spot by 0.5, facing badAngle\n",
            &world,
        )
        .unwrap();
        let scene = Sampler::new(&scenario).sample_seeded(4).unwrap();
        let parked = &scene.objects[1];
        // Left of the curb spot: x below 3.
        assert!(parked.position[0] < 3.0);
        let h = parked.heading.abs().to_degrees();
        assert!((10.0..=20.0).contains(&h), "angle {h}");
    }

    #[test]
    fn field_relative_heading_in_specifier() {
        use scenic_geom::{Heading, VectorField};
        use std::sync::Arc;
        let mut world = World::bare();
        world.add_module(
            "lib",
            Module {
                natives: vec![(
                    "roadDirection".into(),
                    NativeValue::Field(Arc::new(VectorField::Constant(Heading::from_degrees(
                        40.0,
                    )))),
                )],
                source: None,
            },
        );
        let scenario = compile_with_world(
            "import lib\nego = Object at 0 @ 0\n\
             Object at 0 @ 10, facing 10 deg relative to roadDirection\n",
            &world,
        )
        .unwrap();
        let scene = Sampler::new(&scenario).sample_seeded(2).unwrap();
        let h = scene.objects[1].heading.to_degrees();
        assert!((h - 50.0).abs() < 1e-9, "h = {h}");
    }

    #[test]
    fn needs_self_error_escapes_at_top_level() {
        use scenic_geom::{Heading, VectorField};
        use std::sync::Arc;
        let mut world = World::bare();
        world.add_module(
            "lib",
            Module {
                natives: vec![(
                    "field".into(),
                    NativeValue::Field(Arc::new(VectorField::Constant(Heading::NORTH))),
                )],
                source: None,
            },
        );
        let scenario = compile_with_world(
            "import lib\nego = Object at 0 @ 0\nx = 30 deg relative to field\n",
            &world,
        )
        .unwrap();
        assert!(scenario.generate_seeded(0).is_err());
    }
}
