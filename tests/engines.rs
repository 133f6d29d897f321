//! Differential testing of the compiled draw path against the reference
//! tree-walking interpreter.
//!
//! The compiled engine's contract is *byte-identical output*: for any
//! scenario, seed, and job count, `--engine=compiled` must produce the
//! same scenes (and the same per-scene statistics) as `--engine=ast`,
//! because every lowering step — constant folding, prefix hoisting,
//! construction staging — is RNG-stream preserving. These tests compare
//! the two engines over every bundled scenario and over randomized
//! seeds; any divergence is a lowering bug, not a tolerance issue.

use proptest::prelude::*;
use scenic::core::SamplerStats;
use scenic::gta::{MapConfig, World};
use scenic::prelude::*;

/// FNV-1a (64-bit) over one scene's canonical JSON.
fn fnv(mut hash: u64, scene: &Scene) -> u64 {
    for byte in scene.to_json().bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a over the concatenated JSON of a whole batch.
fn batch_digest(scenes: &[Scene]) -> u64 {
    scenes.iter().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// Loads a bundled scenario file from `scenarios/`.
fn bundled(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn compile_bundled(name: &str, world: &str) -> scenic::core::Scenario {
    use std::sync::OnceLock;
    static GTA: OnceLock<scenic::core::World> = OnceLock::new();
    static MARS: OnceLock<scenic::core::World> = OnceLock::new();
    static BARE: OnceLock<scenic::core::World> = OnceLock::new();
    let source = bundled(name);
    let w = match world {
        "gta" => GTA.get_or_init(|| World::generate(MapConfig::default()).core().clone()),
        "mars" => MARS.get_or_init(scenic::mars::world),
        _ => BARE.get_or_init(scenic::core::World::bare),
    };
    compile_with_world(&source, w).expect("bundled scenario compiles")
}

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

#[test]
fn engines_agree_on_every_bundled_scenario_and_job_count() {
    for (name, world) in BUNDLED {
        let scenario = compile_bundled(name, world);
        for jobs in [1, 4] {
            let ast = Sampler::new(&scenario)
                .with_seed(7)
                .with_engine(Engine::Ast)
                .sample_batch(3, jobs)
                .unwrap_or_else(|e| panic!("{name} (ast, jobs={jobs}): {e}"));
            let compiled = Sampler::new(&scenario)
                .with_seed(7)
                .with_engine(Engine::Compiled)
                .sample_batch(3, jobs)
                .unwrap_or_else(|e| panic!("{name} (compiled, jobs={jobs}): {e}"));
            assert_eq!(
                batch_digest(&ast),
                batch_digest(&compiled),
                "{name}, jobs={jobs}: compiled engine diverged from the \
                 AST reference"
            );
        }
    }
}

#[test]
fn engines_agree_on_statistics_and_pruned_sampling() {
    for (name, world) in BUNDLED {
        let scenario = compile_bundled(name, world);
        let mut ast = Sampler::new(&scenario)
            .with_seed(11)
            .with_engine(Engine::Ast)
            .with_pruning();
        let a = ast
            .sample_batch_report(2, 2)
            .unwrap_or_else(|e| panic!("{name} (ast): {e}"));
        let mut compiled = Sampler::new(&scenario)
            .with_seed(11)
            .with_engine(Engine::Compiled)
            .with_pruning();
        let c = compiled
            .sample_batch_report(2, 2)
            .unwrap_or_else(|e| panic!("{name} (compiled): {e}"));
        assert_eq!(
            batch_digest(&a.scenes),
            batch_digest(&c.scenes),
            "{name}: engines diverge under prune guards"
        );
        assert_eq!(
            a.per_scene, c.per_scene,
            "{name}: engines count rejections differently"
        );
    }
}

/// `n` scenes of `scenario` rooted at `seed` on `engine`, with prune
/// guards on, so guard kills are held to the oracle too.
fn report(scenario: &scenic::core::Scenario, seed: u64, n: usize, engine: Engine) -> BatchReport {
    Sampler::new(scenario)
        .with_seed(seed)
        .with_engine(engine)
        .with_pruning()
        .sample_batch_report(n, 2)
        .unwrap_or_else(|e| panic!("{engine}, seed {seed}: {e}"))
}

/// Holds the compiled engine to the AST engine, which does not run the
/// visibility guard: the same scenes, and per scene the same candidate
/// count and the same count under each rejection reason. Returns the
/// totals.
fn assert_guard_keeps_the_oracle(
    name: &str,
    scenario: &scenic::core::Scenario,
    seed: u64,
) -> SamplerStats {
    let ast = report(scenario, seed, 30, Engine::Ast);
    let compiled = report(scenario, seed, 30, Engine::Compiled);
    assert_eq!(
        batch_digest(&ast.scenes),
        batch_digest(&compiled.scenes),
        "{name}, seed {seed}: scenes diverge"
    );
    for (i, (a, c)) in ast.per_scene.iter().zip(&compiled.per_scene).enumerate() {
        assert_eq!(a, c, "{name}, seed {seed}: statistics of scene {i} diverge");
    }
    compiled.total_stats()
}

#[test]
fn the_visibility_guard_keeps_scenes_and_rejection_reasons() {
    for name in ["simplest.scenic", "gta_oncoming.scenic"] {
        let scenario = compile_bundled(name, "gta");
        for seed in [1, 7] {
            assert_guard_keeps_the_oracle(name, &scenario, seed);
        }
    }
}

/// An ego on the 8 m mars square that sees a disc of 1 m, and a pipe
/// (up to 2 m long) drawn anywhere: most candidates cannot be seen, and
/// those near the edge must still count as containment.
const FAR_PIPE: &str = "ego = Rover at 0 @ 0, with viewDistance 1\nPipe\n";

/// Half the time the second rock lands on a rock that need not be
/// visible: those candidates must count as collisions, though the ego
/// cannot see them either.
const ROCK_ON_A_HIDDEN_ROCK: &str = "ego = Rover at 0 @ 0, with viewDistance 1\n\
     hidden = Rock with requireVisible False\n\
     Rock at Uniform(hidden.position, 0 @ 1)\n";

#[test]
fn guard_fixtures_count_rejections_where_the_full_checks_do() {
    let mars = scenic::mars::world();
    // Each total is the parent commit's, before the guard existed.
    let far = compile_with_world(FAR_PIPE, &mars).unwrap();
    assert_eq!(
        assert_guard_keeps_the_oracle("far pipe", &far, 1),
        SamplerStats {
            scenes: 30,
            iterations: 384,
            collision_rejections: 23,
            containment_rejections: 66,
            visibility_rejections: 249,
            prune_containment_rejections: 16,
            ..SamplerStats::default()
        }
    );
    let on_top = compile_with_world(ROCK_ON_A_HIDDEN_ROCK, &mars).unwrap();
    assert_eq!(
        assert_guard_keeps_the_oracle("rock on a hidden rock", &on_top, 1),
        SamplerStats {
            scenes: 30,
            iterations: 77,
            collision_rejections: 44,
            containment_rejections: 1,
            prune_containment_rejections: 2,
            ..SamplerStats::default()
        }
    );
}

/// `1e308 * 10` overflows to an infinite heading, so the far object's
/// box has NaN corners, and the full checks see it from the ego's 5 m
/// disc (a NaN fails the distance test that would rule it out): the
/// candidate is accepted. The far object's site is guarded, so the
/// guard must not take that box to lie within its circumradius of its
/// position.
#[test]
fn a_box_with_an_infinite_heading_is_left_to_the_full_checks() {
    let scenario = compile(
        "ego = Object at 0 @ 0, with viewDistance 5, with allowCollisions True\n\
         Object at 100 @ 0, with heading (1e308 * 10)\n",
    )
    .unwrap();
    let [ast, compiled] = [Engine::Ast, Engine::Compiled].map(|engine| {
        Sampler::new(&scenario)
            .with_seed(1)
            .with_engine(engine)
            .sample_batch_report(1, 1)
            .unwrap()
    });
    assert_eq!(
        ast.per_scene[0].iterations, 1,
        "accepted at the first candidate"
    );
    assert_eq!(compiled.per_scene, ast.per_scene);
    assert_eq!(batch_digest(&compiled.scenes), batch_digest(&ast.scenes));
}

/// The guard is invisible in scenes and statistics by design; what it
/// changes is how much of a doomed candidate runs. A guarded candidate
/// skips the rows after `position` — on a gta `Car`, the model and
/// color draws — so after it the compiled engine's generator differs
/// from the AST engine's. That pins where the guard fires on the real
/// gta world: an ego `Car` sees 30 m straight ahead, and the bound on a
/// `Car`'s circumradius is `hypot(2.5, 11) / 2`, from the support
/// `CarModel.defaultModel()` declares.
#[test]
fn the_gta_car_guard_fires_beyond_its_declared_radius() {
    use rand::SeedableRng;
    let world = World::generate(MapConfig::default());
    let center = world.map.bounds.center();
    let radius = 1.25f64.hypot(5.5);
    let fires = |site: &str, distance: f64| {
        let source = format!(
            "ego = Car at {x} @ {y}, facing 0 deg\n{site} at {x} @ {}\n",
            center.y + distance,
            x = center.x,
            y = center.y,
        );
        let scenario = compile_with_world(&source, world.core()).unwrap();
        let run = |engine| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let outcome = scenario
                .generate_with(&mut rng, None, engine)
                .map(|s| s.to_json());
            (outcome, rng)
        };
        let (ast, ast_rng) = run(Engine::Ast);
        let (compiled, compiled_rng) = run(Engine::Compiled);
        assert_eq!(ast, compiled, "{source}");
        ast_rng != compiled_rng
    };
    assert!(fires("Car", 30.0 + radius + 1e-3));
    assert!(!fires("Car", 30.0 + radius - 1e-3));
    assert!(!fires("Car", 20.0));
    // No guard for an explicit model, or for a class of the program.
    assert!(!fires("Car with model CarModel.models['BUS'],", 50.0));
    let van = "class Van(Car):\n    roadDeviation: 0\nVan";
    assert!(!fires(van, 50.0));
}

/// The differential tests above would pass vacuously if the compiled
/// engine silently fell back to the reference path everywhere; pin that
/// the bundled scenarios actually take the hoisted fast path.
#[test]
fn bundled_scenarios_take_the_hoisted_path() {
    for (name, world) in BUNDLED {
        let scenario = compile_bundled(name, world);
        assert!(
            scenario.compiled().hoisted(),
            "{name}: compiled engine fell back to the reference path"
        );
    }
}

/// The reject-heavy scenarios gain from resolution only if their
/// candidates read no name by name; pin that lowering placed every name
/// of their user programs and of every class default in a slot.
#[test]
fn reject_heavy_scenarios_resolve_every_name() {
    for (name, world) in [
        ("simplest.scenic", "gta"),
        ("mars_bottleneck.scenic", "mars"),
    ] {
        let scenario = compile_bundled(name, world);
        assert_eq!(
            scenario.compiled().unresolved_names(),
            Some(Vec::new()),
            "{name}: names left to lookup by name"
        );
    }
}

/// Programs that exercise every binding form lowering resolves or leaves
/// by name: recursion, keyword and default arguments, closures read
/// after their call returned, a class defined in a function, a specifier
/// bound to a second name, `while` and `for` counters, a body reading an
/// outer name before its own assignment, a `def` shadowing a base native
/// after a use, a nested `def` assigning its caller's parameter and a
/// non-auto `import`. Each hoists and samples identically on both
/// engines.
const SCOPING_PROGRAMS: &[(&str, &str)] = &[
    (
        "x = 1\ny = (1, 3)\ndef fact(n):\n    if n <= 1:\n        return 1\n    return n * fact(n - 1)\n\
         def bump(k=y):\n    x = x + k\n    return x\n\
         def outer(a):\n    b = a * 2\n    def inner(c):\n        return a + b + c\n    return inner\n\
         g = outer(2)\nz = g(1)\nbump()\nbump(k=2)\nw = fact(4)\n\
         ego = Object at x @ z, facing (0, 360) deg\n\
         Object at w @ (z + (1, 5)), with requireVisible False\n",
        "bare",
    ),
    (
        "w = 2\ndef mk(q):\n    lw = q + 1\n    class Crate(Object):\n        width: lw\n        height: w\n\
         \x20       anchor: Point at (self.width @ (0, 1))\n\
         \x20   return Crate at (q * 10) @ 0, with requireVisible False\n\
         ego = mk(0)\nw = (2, 4)\nc = mk(1)\nrequire c.anchor.position.x > 1.5\n",
        "bare",
    ),
    (
        "off = 2\nspecifier east(d, extra=off) specifies position requires width:\n\
         \x20   return {'position': (d + extra) @ self.width}\n\
         s2 = east\nego = Object using s2(1), with width (1, 2)\n\
         o = Object using east(d=3, extra=off), with requireVisible False\nmutate o by 0.5\n\
         total = 0\ni = 0\nwhile i < 3:\n    total = total + i\n    i = i + 1\n\
         for j in [1, 2, 3]:\n    total = total + j\n\
         Object at total @ i, with requireVisible False\n",
        "bare",
    ),
    (
        "def f():\n    a = b\n    b = 1\n    return a\nb = 7\nv = f()\nego = Object at v @ b\n\
         a = abs(-3)\ndef abs(q):\n    return 10\nObject at a @ abs(1), with requireVisible False\n",
        "bare",
    ),
    (
        "def h(p):\n    def g():\n        p = 5\n    g()\n    return p\nt = h(1)\nego = Object at t @ 0\n\
         def count(n):\n    k = 0\n    for i in range(n):\n        k = k + i\n    return k\n\
         Object at count(4) @ (1, 3), with requireVisible False\n",
        "bare",
    ),
    (
        "import marsLib\nego = Rover at 0 @ -2\ndef put(x):\n    return Rock at x @ (1, 2)\n\
         r = put((-1, 1))\nPipe at 1 @ (1, 2)\n",
        "mars",
    ),
    // Literal class defaults (written from the stage by the compiled
    // engine), overridden by `with`, and read through `self` by a
    // sibling default and by a `using` specifier's body.
    (
        "class Crate(Object):\n    width: 3\n    height: 1.5\n    sturdy: True\n    label: None\n\
         \x20   reach: self.width * 2\n\
         specifier past(gap) specifies position requires width:\n\
         \x20   return {'position': (self.width + gap) @ 1}\n\
         ego = Crate at 0 @ 0, with width 2\n\
         c = Crate using past((1, 2)), with height (1, 2), with requireVisible False\n\
         Crate at c.reach @ 6, with sturdy False, with label 'x', with requireVisible False\n\
         require ego.reach == 4\n",
        "bare",
    ),
];

#[test]
fn scoping_programs_hoist_and_agree_on_both_engines() {
    let mars = scenic::mars::world();
    for &(source, world) in SCOPING_PROGRAMS {
        let world = if world == "mars" {
            &mars
        } else {
            &scenic::core::World::bare()
        };
        let scenario = compile_with_world(source, world).unwrap();
        assert!(scenario.compiled().hoisted(), "falls back: {source}");
        let digest = |engine| {
            let scenes = Sampler::new(&scenario)
                .with_engine(engine)
                .with_seed(5)
                .sample_batch(3, 1)
                .unwrap_or_else(|e| panic!("{engine}: {e}: {source}"));
            batch_digest(&scenes)
        };
        assert_eq!(digest(Engine::Ast), digest(Engine::Compiled), "{source}");
    }
}

/// A program whose user code shadows a name the library classes depend
/// on must *not* hoist (the AST engine resolves the library's reference
/// to the user's definition), but must still sample identically via the
/// fallback.
#[test]
fn library_shadowing_disables_hoisting_but_stays_identical() {
    let world = World::generate(MapConfig::default());
    // gtaLib's Car defaults reference `roadDirection`; shadow it.
    let source = "roadDirection = 0\nego = Object at 0 @ 0\n";
    let scenario = compile_with_world(source, world.core()).unwrap();
    assert!(
        !scenario.compiled().hoisted(),
        "shadowing a library name must disqualify hoisting"
    );
    let a = Sampler::new(&scenario)
        .with_seed(3)
        .with_engine(Engine::Ast)
        .sample_batch(2, 1)
        .unwrap();
    let c = Sampler::new(&scenario)
        .with_seed(3)
        .with_engine(Engine::Compiled)
        .sample_batch(2, 1)
        .unwrap();
    assert_eq!(batch_digest(&a), batch_digest(&c));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized-seed differential check on the two scenario families
    /// with the richest draw paths (field-following roads and
    /// multi-object formations).
    #[test]
    fn engines_agree_on_random_seeds(seed in 0u64..1_000_000) {
        for (name, world) in [("gta_oncoming.scenic", "gta"), ("mars_formation.scenic", "mars")] {
            let scenario = compile_bundled(name, world);
            let a = Sampler::new(&scenario)
                .with_seed(seed)
                .with_engine(Engine::Ast)
                .sample_batch(1, 1)
                .unwrap();
            let c = Sampler::new(&scenario)
                .with_seed(seed)
                .with_engine(Engine::Compiled)
                .sample_batch(1, 1)
                .unwrap();
            prop_assert_eq!(batch_digest(&a), batch_digest(&c));
        }
    }

    /// The grid-indexed `Region::contains` must agree with a linear scan
    /// over the region's polygons at every probe point, including on
    /// box edges and far outside the indexed bounds.
    #[test]
    fn indexed_region_contains_matches_linear_scan(
        layout_seed in 0u64..1_000_000,
        n_rects in 1usize..12,
    ) {
        use rand::{Rng, SeedableRng};
        use scenic::geom::{Heading, Vec2, VectorField};
        let mut rng = rand::rngs::StdRng::seed_from_u64(layout_seed);
        let polys: Vec<Polygon> = (0..n_rects)
            .map(|_| {
                let x = rng.gen_range(-40.0..40.0);
                let y = rng.gen_range(-40.0..40.0);
                let w = rng.gen_range(0.5..25.0);
                let h = rng.gen_range(0.5..25.0);
                Polygon::rectangle(Vec2::new(x, y), w, h)
            })
            .collect();
        let probes: Vec<(f64, f64)> = (0..32)
            .map(|_| (rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)))
            .collect();
        let region = Region::polygons_with_orientation(
            polys.clone(),
            VectorField::Constant(Heading::NORTH),
        );
        let mut points: Vec<Vec2> = probes.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        // Degenerate probes: exact corners and box-edge midpoints.
        for p in &polys {
            points.extend(p.vertices().iter().copied());
            let bb = p.aabb();
            points.push(Vec2::new(bb.min.x, (bb.min.y + bb.max.y) / 2.0));
            points.push(Vec2::new(bb.max.x, bb.min.y));
        }
        for p in points {
            let linear = polys.iter().any(|poly| poly.contains(p));
            prop_assert_eq!(region.contains(p), linear);
        }
    }
}
