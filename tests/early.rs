//! Early rejection against deferred checking.
//!
//! By default the interpreter checks each hard `require` at its own
//! statement and each object's default requirements right after the
//! object is constructed, wherever that gives the answer the check at
//! termination (Fig. 25) would. Rejection sampling accepts a candidate
//! iff every requirement holds, so this may change which check a doomed
//! candidate is counted under — never which scenes are accepted, nor
//! how many candidates each scene takes. These tests hold early checking
//! to that, against `Sampler::with_deferred_checks` (every check at
//! termination).

use proptest::prelude::*;
use scenic::core::{RunResult, SamplerStats, Scenario};
use scenic::gta::{MapConfig, World};
use scenic::prelude::*;

/// Every bundled scenario with its world.
const BUNDLED: &[(&str, &str)] = &[
    ("simplest.scenic", "gta"),
    ("two_cars.scenic", "gta"),
    ("badly_parked.scenic", "gta"),
    ("gta_intersection.scenic", "gta"),
    ("gta_oncoming.scenic", "gta"),
    ("mars_bottleneck.scenic", "mars"),
    ("mars_formation.scenic", "mars"),
];

fn world(name: &str) -> &'static scenic::core::World {
    use std::sync::OnceLock;
    static GTA: OnceLock<scenic::core::World> = OnceLock::new();
    static MARS: OnceLock<scenic::core::World> = OnceLock::new();
    static BARE: OnceLock<scenic::core::World> = OnceLock::new();
    match name {
        "gta" => GTA.get_or_init(|| World::generate(MapConfig::default()).core().clone()),
        "mars" => MARS.get_or_init(scenic::mars::world),
        _ => BARE.get_or_init(scenic::core::World::bare),
    }
}

/// A bundled scenario's source.
fn load(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn compile_bundled(name: &str, world_name: &str) -> Scenario {
    compile_with_world(&load(name), world(world_name)).expect("bundled scenario compiles")
}

/// A batch of `n` scenes rooted at `seed`, with prune guards on (as
/// `scenic prune-report` samples, which also defers every check);
/// `deferred` moves every check to termination.
fn sample(
    scenario: &Scenario,
    seed: u64,
    n: usize,
    jobs: usize,
    deferred: bool,
) -> RunResult<BatchReport> {
    let sampler = Sampler::new(scenario)
        .with_seed(seed)
        .with_pruning()
        .with_config(SamplerConfig {
            max_iterations: 100_000,
        });
    let mut sampler = if deferred {
        sampler.with_deferred_checks()
    } else {
        sampler
    };
    sampler.sample_batch_report(n, jobs)
}

fn scenes(report: &BatchReport) -> Vec<String> {
    report.scenes.iter().map(Scene::to_json).collect()
}

fn candidates(report: &BatchReport) -> Vec<usize> {
    report.per_scene.iter().map(|s| s.iterations).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn early_checks_keep_scenes_and_candidate_counts(seed in 0u64..1_000_000) {
        for (name, world_name) in BUNDLED {
            let scenario = compile_bundled(name, world_name);
            // Scene i draws from its own seed, so the deferred batch (the
            // slow one) is the early batch's first two scenes.
            let deferred = sample(&scenario, seed, 2, 1, true).unwrap();
            let early = sample(&scenario, seed, 4, 1, false).unwrap();
            prop_assert!(scenes(&early)[..2] == scenes(&deferred), "{name}: scenes differ");
            prop_assert!(
                candidates(&early)[..2] == candidates(&deferred),
                "{name}: candidates per scene {:?} vs {:?}",
                candidates(&early),
                candidates(&deferred)
            );
            let parallel = sample(&scenario, seed, 4, 4, false).unwrap();
            prop_assert!(
                early.per_scene == parallel.per_scene,
                "{name}: per-scene stats differ between jobs 1 and 4"
            );
        }
    }
}

/// One program per eligibility rule. Deciding its `require` (or its
/// objects' checks) early would change which scenes are accepted, so it
/// must sample exactly as with every check deferred.
const STAY_DEFERRED: &[(&str, &str)] = &[
    (
        "a name rebound after the require",
        "ego = Object at 0 @ 0\nx = (0, 1)\nrequire x < 0.5\nx = 0\n",
    ),
    (
        "a require calling a user def",
        "y = 0\ndef f():\n    return y\nego = Object at 0 @ 0\nrequire f() < 0.5\ny = (0, 1)\n",
    ),
    (
        "a user def called through an alias",
        "y = 0\ndef f():\n    return y\ng = f\nego = Object at 0 @ 0\nrequire g() < 0.5\ny = (0, 1)\n",
    ),
    (
        "a require that draws",
        "ego = Object at 0 @ 0\nrequire (0, 1) < 0.5\nObject at 0 @ (5, 6)\n",
    ),
    (
        "mutate",
        "ego = Object at 0 @ 0, with requireVisible False\n\
         c = Object at 0 @ 20, with requireVisible False\n\
         require c.position.y > 20\nmutate c\n",
    ),
    (
        "a mutation scale set without mutate",
        "ego = Object at 0 @ 0\nc = Object at 0 @ 20, with mutationScale 1\n\
         require c.position.y > 20\n",
    ),
    (
        "ego reassigned",
        "ego = Object at 0 @ 0, with viewAngle 30 deg, with allowCollisions True\n\
         Object at 0 @ -10\n\
         ego = Object at 0 @ 0, facing 180 deg, with allowCollisions True\n",
    ),
    (
        "a require inside a for",
        "ego = Object at 0 @ 0\nfor i in [0, 1]:\n    require i > 0\n",
    ),
    (
        "a require inside an if",
        "ego = Object at 0 @ 0\nx = (0, 1)\nif True:\n    require x < 0.5\nx = 0\n",
    ),
];

#[test]
fn ineligible_checks_stay_deferred() {
    for (rule, source) in STAY_DEFERRED {
        let scenario = compile(source).unwrap_or_else(|e| panic!("{rule}: {e}"));
        let early = sample(&scenario, 3, 4, 1, false).unwrap_or_else(|e| panic!("{rule}: {e}"));
        let deferred = sample(&scenario, 3, 4, 1, true).unwrap_or_else(|e| panic!("{rule}: {e}"));
        assert_eq!(scenes(&early), scenes(&deferred), "{rule}");
        assert_eq!(early.per_scene, deferred.per_scene, "{rule}");
    }
}

#[test]
fn an_error_after_an_early_require_keeps_its_code_and_line() {
    // Line 3 is decided early and fails half the time; line 4 always
    // raises. Both modes fail the batch with the same error.
    let scenario =
        compile("ego = Object at 0 @ 0\nx = (0, 1)\nrequire x < 0.5\ny = 1 + 'two'\n").unwrap();
    let early = sample(&scenario, 5, 2, 1, false).unwrap_err();
    let deferred = sample(&scenario, 5, 2, 1, true).unwrap_err();
    assert_eq!(early, deferred);
    assert!(
        matches!(early, ScenicError::Type { line: 4, .. }),
        "{early}"
    );
}

/// The early-rejection plan lives on the compiled scenario: compiling,
/// dropping and recompiling different programs (which may reuse freed
/// allocations) never serves one scenario another's plan.
#[test]
fn recompiled_scenarios_match_a_fresh_compile() {
    let cases: Vec<(&str, String, &str)> = vec![
        ("gta_intersection", load("gta_intersection.scenic"), "gta"),
        ("mars_formation", load("mars_formation.scenic"), "mars"),
        ("rebound", STAY_DEFERRED[0].1.to_string(), "bare"),
        ("for", STAY_DEFERRED[7].1.to_string(), "bare"),
        (
            "early require",
            "ego = Object at 0 @ 0, with viewAngle 90 deg\nx = (0, 1)\nrequire x < 0.5\n\
             Object at (-20, 20) @ (-20, 20)\n"
                .to_string(),
            "bare",
        ),
    ];
    let stats = |source: &str, world_name: &str| -> Vec<SamplerStats> {
        let scenario = compile_with_world(source, world(world_name)).unwrap();
        sample(&scenario, 9, 3, 2, false).unwrap().per_scene
    };
    let fresh: Vec<_> = cases.iter().map(|(_, s, w)| stats(s, w)).collect();
    for round in 0..3 {
        for ((name, source, world_name), expected) in cases.iter().zip(&fresh) {
            assert_eq!(
                &stats(source, world_name),
                expected,
                "round {round}: {name}"
            );
        }
    }
}
