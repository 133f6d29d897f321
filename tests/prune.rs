//! Property tests pinning the §5.2 pruning semantics.
//!
//! The contract under test (see `docs/ARCHITECTURE.md`, "Pruning
//! layer"): guard-mode pruning draws the exact unpruned candidate
//! stream and only abandons candidates that could never be accepted, so
//!
//! - a scene accepted unpruned at seed `s` is accepted pruned at seed
//!   `s` and is byte-identical;
//! - pruned regions only ever shrink (area never grows, pieces stay
//!   inside the original cells);
//! - the per-pruner counters in `SamplerStats` merge associatively and
//!   are invariant in the worker count.

use scenic::core::prune::{PruneDecision, PruneParams, Pruner};
use scenic::core::sampler::{Sampler, SamplerStats};
use scenic::core::{compile_with_world, Module, NativeValue, ScenarioCache, World};
use scenic::geom::field::FieldCell;
use scenic::geom::{Heading, Polygon, Region, Vec2, VectorField};
use std::sync::Arc;

/// A bounded road world where both the containment and the orientation
/// guards have something to do: a northbound lane, an opposing lane
/// 12 m away, and a remote northbound lane at x = 500, inside a
/// workspace that hugs the lanes' y-extent.
fn lane_cells() -> Vec<FieldCell> {
    vec![
        FieldCell {
            polygon: Polygon::rectangle(Vec2::new(0.0, 0.0), 6.0, 200.0),
            heading: Heading::NORTH,
        },
        FieldCell {
            polygon: Polygon::rectangle(Vec2::new(12.0, 0.0), 6.0, 200.0),
            heading: Heading::from_degrees(180.0),
        },
        FieldCell {
            polygon: Polygon::rectangle(Vec2::new(500.0, 0.0), 6.0, 200.0),
            heading: Heading::NORTH,
        },
    ]
}

fn lanes_world() -> World {
    let cells = lane_cells();
    let field = VectorField::polygonal(cells.clone(), Heading::NORTH);
    let road =
        Region::polygons_with_orientation(cells.iter().map(|c| c.polygon.clone()).collect(), field);
    // Workspace y-extent equals the lanes' (±100), so draws near the
    // lane ends are within containment-margin reach of the boundary.
    let mut world = World::with_workspace(Region::rectangle(Vec2::new(250.0, 0.0), 540.0, 200.0));
    world.add_auto_module(
        "lib",
        Module {
            natives: vec![("road".into(), NativeValue::Region(Arc::new(road)))],
            source: Some(
                "class Car:\n    position: Point on road\n    heading: 0\n    width: 8\n    height: 8\n    requireVisible: False\n    allowCollisions: True\n"
                    .into(),
            ),
        },
    );
    world
}

const THREE_CARS: &str = "ego = Car\nCar\nCar\n";

#[test]
fn derived_params_bound_the_car_in_radius() {
    let scenario = compile_with_world(THREE_CARS, &lanes_world()).unwrap();
    let params = scenario.derived_prune_params();
    // Every physical class bounds the margin: the prelude's `Object`
    // (1×1, in-radius 0.5) binds, not the 8×8 Car.
    assert!(
        (params.min_radius - 0.5).abs() < 1e-9,
        "{}",
        params.min_radius
    );
    assert!(!scenario.prune_plan().is_empty());
}

#[test]
fn accepted_unpruned_is_accepted_pruned_and_byte_identical() {
    let world = lanes_world();
    let scenario = compile_with_world(THREE_CARS, &world).unwrap();
    let mut plain = Sampler::new(&scenario);
    let mut pruned = Sampler::new(&scenario).with_pruning();
    let mut accepted = 0;
    for seed in 0..40 {
        match (plain.sample_seeded(seed), pruned.sample_seeded(seed)) {
            (Ok(a), Ok(b)) => {
                accepted += 1;
                assert_eq!(a.to_json(), b.to_json(), "seed {seed} diverged");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed} errors diverged"),
            (a, b) => panic!("seed {seed}: unpruned {a:?} vs pruned {b:?}"),
        }
    }
    assert!(accepted > 30, "fixture too hard: {accepted}/40 accepted");
    // Identical candidate streams: same number of candidates drawn...
    assert_eq!(plain.stats().iterations, pruned.stats().iterations);
    assert_eq!(plain.stats().scenes, pruned.stats().scenes);
    // ...but the guard caught some of the doomed ones early, and every
    // guard catch replaced a containment rejection one-for-one (the
    // derived margin equals the objects' in-radius exactly).
    let caught = pruned.stats().prune_rejections();
    assert!(caught > 0, "containment guard never fired");
    assert_eq!(caught, pruned.stats().prune_containment_rejections);
    assert_eq!(
        plain.stats().containment_rejections,
        pruned.stats().containment_rejections + caught,
    );
}

#[test]
fn orientation_guard_fires_with_explicit_params() {
    // An oncoming-style relative-heading interval: the remote lane has
    // no opposing cell within 50 m, so a third of the road area — and
    // therefore roughly a third of the draws — is guard-rejected.
    let world = lanes_world();
    let scenario = compile_with_world(THREE_CARS, &world).unwrap();
    let pi = std::f64::consts::PI;
    let params = PruneParams {
        min_radius: 0.0,
        relative_heading: Some((pi - 0.2, pi + 0.2)),
        max_distance: 50.0,
        heading_tolerance: 0.0,
        min_width: None,
    };
    let mut sampler = Sampler::new(&scenario)
        .with_seed(11)
        .with_prune_params(&params);
    let plan = sampler.prune_plan().expect("plan built").clone();
    assert!(plan
        .guards
        .iter()
        .any(|g| g.pruners().any(|p| p == Pruner::Orientation)));
    sampler.sample_batch(10, 2).unwrap();
    let stats = sampler.stats();
    assert!(
        stats.prune_orientation_rejections > 0,
        "orientation guard never fired: {stats:?}"
    );
    assert_eq!(
        stats.full_iterations(),
        stats.iterations - stats.prune_rejections()
    );
    assert!(stats.full_iterations() >= stats.scenes);
}

#[test]
fn pruned_pieces_shrink_and_stay_inside_the_cells() {
    use scenic::core::prune::prune_stages;
    let cells = lane_cells();
    let pi = std::f64::consts::PI;
    for (heading, width) in [
        (Some((pi - 0.2, pi + 0.2)), None),
        (Some((-0.3, 0.3)), Some(10.0)),
        (None, Some(10.0)),
        (None, Some(4.0)),
    ] {
        let params = PruneParams {
            min_radius: 0.0,
            relative_heading: heading,
            max_distance: 50.0,
            heading_tolerance: 0.1,
            min_width: width,
        };
        let stages = prune_stages(&cells, &params);
        assert!(!stages.is_empty());
        let mut previous = cells.iter().map(|c| c.polygon.area()).sum::<f64>();
        for stage in &stages {
            // Area never grows across stages.
            assert!(
                stage.effect.area_before <= previous + 1e-6,
                "{:?}: {} > {previous}",
                stage.pruner,
                stage.effect.area_before
            );
            assert!(stage.effect.area_after <= stage.effect.area_before + 1e-6);
            previous = stage.effect.area_after;
            // Every surviving piece sits inside some original cell.
            for poly in &stage.polygons {
                let c = poly.centroid();
                assert!(
                    cells.iter().any(|cell| cell.polygon.contains(c)),
                    "piece escaped the cells: centroid {c}"
                );
            }
        }
    }
}

#[test]
fn per_pruner_counters_merge_associatively_and_jobs_invariantly() {
    let world = lanes_world();
    let scenario = compile_with_world(THREE_CARS, &world).unwrap();
    let reports: Vec<_> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let mut sampler = Sampler::new(&scenario).with_seed(5).with_pruning();
            sampler.sample_batch_report(12, jobs).unwrap()
        })
        .collect();
    // Worker count changes nothing: per-scene stats and totals match.
    assert_eq!(reports[0].per_scene, reports[1].per_scene);
    assert_eq!(reports[0].total_stats(), reports[1].total_stats());

    // Counter merging is associative: any grouping of the per-scene
    // stats reduces to the same total.
    let per_scene = &reports[0].per_scene;
    let merge = |a: &SamplerStats, b: &SamplerStats| {
        let mut out = *a;
        out.merge(b);
        out
    };
    let left = per_scene[2..]
        .iter()
        .fold(merge(&per_scene[0], &per_scene[1]), |acc, s| merge(&acc, s));
    let right = per_scene[..per_scene.len() - 1]
        .iter()
        .rev()
        .fold(per_scene[per_scene.len() - 1], |acc, s| {
            merge(&s.clone(), &acc)
        });
    assert_eq!(left, right);
    assert_eq!(left, reports[0].total_stats());
}

#[test]
fn prune_plan_is_cached_and_shared_by_cache_hits() {
    let world = lanes_world();
    let cache = ScenarioCache::new();
    let a = cache.get_or_compile("lanes", THREE_CARS, &world).unwrap();
    let plan_a = a.prune_plan();
    let b = cache.get_or_compile("lanes", THREE_CARS, &world).unwrap();
    // Cache hit: same compiled scenario, same (not re-built) plan.
    assert!(Arc::ptr_eq(&a, &b));
    assert!(Arc::ptr_eq(&plan_a, &b.prune_plan()));
    // Clones (as handed to batch workers) share the plan too.
    let c = (*a).clone();
    assert!(Arc::ptr_eq(&plan_a, &c.prune_plan()));
}

/// What the §5.2 derivation takes from each bundled scenario, pinned:
/// `pruning_on_equals_pruning_off_for_every_bundled_scenario` catches an
/// unsound parameter, this catches lost pruning. The cases reach every
/// outcome: δ from `gta_intersection`'s `facing (75, 105) deg relative to
/// roadDirection`, containment at 0.1 m on both mars scenarios, and
/// `badly_parked`'s helper drawn `on` a region.
#[test]
fn derived_prune_params_are_pinned_for_every_bundled_scenario() {
    let gta = scenic::gta::World::generate(scenic::gta::MapConfig::default())
        .core()
        .clone();
    let mars = scenic::mars::world();
    let no_dims = "no physical class with statically known dimensions";
    let helper = "a helper point is drawn `on` a region outside a class `position:` default; \
                  its draw is not a physical object's final position, so erosion would be unsound";
    let clearance = "every physical object keeps at least 0.1 m of clearance \
                     (smallest class half-extent, lowered by constant dimension overrides)";
    // (scenario, world, min_radius, heading_tolerance, containment reason)
    let cases = [
        ("badly_parked", &gta, 0.0, 0.0, helper),
        ("gta_intersection", &gta, 0.0, 105f64.to_radians(), no_dims),
        ("gta_oncoming", &gta, 0.0, 0.0, no_dims),
        ("simplest", &gta, 0.0, 0.0, no_dims),
        ("two_cars", &gta, 0.0, 0.0, no_dims),
        (
            "mars_bottleneck",
            &mars,
            0.1,
            120f64.to_radians(),
            clearance,
        ),
        ("mars_formation", &mars, 0.1, 0.0, clearance),
    ];
    for (name, world, min_radius, heading_tolerance, containment) in cases {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(format!("{name}.scenic"));
        let source = std::fs::read_to_string(&path).expect("bundled scenario");
        let scenario = compile_with_world(&source, world).expect("bundled scenario compiles");
        let p = scenario.derived_prune_params();
        assert_eq!(
            (
                p.min_radius,
                p.relative_heading,
                p.max_distance,
                p.heading_tolerance,
                p.min_width
            ),
            (min_radius, None, 50.0, heading_tolerance, None),
            "{name}"
        );
        let decision = |pruner, enabled, reason: &str| PruneDecision {
            pruner,
            enabled,
            reason: reason.to_string(),
        };
        assert_eq!(
            scenario.derived_prune_decisions(),
            [
                decision(Pruner::Containment, min_radius > 0.0, containment),
                decision(
                    Pruner::Orientation,
                    false,
                    "no syntactic analysis soundly bounds relative headings; \
                     pass `--heading LO,HI` to prune-report to enable it"
                ),
                decision(
                    Pruner::Size,
                    false,
                    "no syntactic analysis soundly bounds the configuration's minimum width; \
                     pass `--min-width W` to prune-report to enable it"
                ),
            ],
            "{name}"
        );
    }
}

/// Where a program's own class shares its name with another class, the
/// derivation takes every definition into account: a user `Pipe`
/// thinner than the library's lowers the margin to its in-radius, and a
/// name that is a marker in one definition makes a draw `on` the ground
/// a helper's. A class whose superclass is a variable, which may hold
/// any class, counts among the physical ones.
#[test]
fn derived_prune_params_count_every_definition_of_a_class() {
    let mars = scenic::mars::world();
    for (name, min_radius, containment) in [
        (
            "thin_pipe",
            0.01,
            "every physical object keeps at least 0.01 m of clearance \
             (smallest class half-extent, lowered by constant dimension overrides)",
        ),
        (
            "variable_superclass",
            0.01,
            "every physical object keeps at least 0.01 m of clearance \
             (smallest class half-extent, lowered by constant dimension overrides)",
        ),
        (
            "marker_named_twice",
            0.0,
            "a helper point is drawn `on` a region outside a class `position:` default; \
             its draw is not a physical object's final position, so erosion would be unsound",
        ),
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(format!("{name}.scenic"));
        let source = std::fs::read_to_string(&path).expect("fixture");
        let scenario = compile_with_world(&source, &mars).expect("fixture compiles");
        assert_eq!(
            scenario.derived_prune_params().min_radius,
            min_radius,
            "{name}"
        );
        assert_eq!(
            scenario.derived_prune_decisions()[0],
            PruneDecision {
                pruner: Pruner::Containment,
                enabled: min_radius > 0.0,
                reason: containment.to_string(),
            },
            "{name}"
        );
    }
}
