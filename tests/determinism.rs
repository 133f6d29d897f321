//! Cross-platform reproducibility of seeded sampling.
//!
//! The workspace pins its RNG to an explicit algorithm (xoshiro256++
//! seeded via SplitMix64 — see the vendored `rand` crate docs), so a
//! given seed must produce byte-identical scenes on every platform,
//! toolchain, and run. These digests are part of that contract: if one
//! changes, either the RNG algorithm or the sampling order changed, and
//! that is a breaking change to `Sampler::sample_seeded` semantics.

use scenic::gta::{scenarios, MapConfig, World};
use scenic::prelude::*;

/// FNV-1a (64-bit) over the scene's canonical JSON.
fn digest(scene: &Scene) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, scene)
}

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

/// The shared world instance a bundled scenario compiles against.
/// Worlds are deterministic and immutable, so the gta/mars instances
/// are generated once and shared (map generation is the expensive part
/// of this suite).
fn bundled_world(world: &str) -> &'static scenic::core::World {
    use std::sync::OnceLock;
    static GTA: OnceLock<scenic::core::World> = OnceLock::new();
    static MARS: OnceLock<scenic::core::World> = OnceLock::new();
    static BARE: OnceLock<scenic::core::World> = OnceLock::new();
    match world {
        "gta" => GTA.get_or_init(|| World::generate(MapConfig::default()).core().clone()),
        "mars" => MARS.get_or_init(scenic::mars::world),
        _ => BARE.get_or_init(scenic::core::World::bare),
    }
}

fn compile_bundled(name: &str, world: &str) -> scenic::core::Scenario {
    let source = bundled(name);
    compile_with_world(&source, bundled_world(world)).expect("bundled scenario compiles")
}

#[test]
fn known_seed_produces_known_scene_digest() {
    let world = World::generate(MapConfig::default());
    let scenario = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let scene = Sampler::new(&scenario).sample_seeded(42).unwrap();
    assert_eq!(
        digest(&scene),
        9199604626994008818,
        "seeded scene digest drifted: the pinned RNG stream or the \
         sampling order changed (breaking for sample_seeded)"
    );
}

#[test]
fn bare_world_digest_is_stable() {
    let scenario = compile(
        "ego = Object at 0 @ 0\n\
         Object at (5, 15) @ (5, 15), facing (0, 360) deg\n",
    )
    .unwrap();
    let scene = Sampler::new(&scenario).sample_seeded(7).unwrap();
    assert_eq!(
        digest(&scene),
        1650101027389927407,
        "seeded scene digest drifted: the pinned RNG stream or the \
         sampling order changed (breaking for sample_seeded)"
    );
}

/// A class default that constructs a nested object reading the outer
/// object's `self`: the `Point` in `anchor` is built while `Crate` is
/// under construction, and its `at` argument sees the `Crate` through
/// the scope chain.
const NESTED_SELF: &str = "\
class Crate(Object):
    width: (1, 3)
    anchor: Point at (self.width @ (0, 1))
ego = Crate at 0 @ 0
c = Crate at 10 @ 0
require c.anchor.position.x > 1.5
";

#[test]
fn nested_self_digest_is_stable_on_both_engines() {
    let scenario = compile(NESTED_SELF).unwrap();
    for engine in [Engine::Compiled, Engine::Ast] {
        let scenes = Sampler::new(&scenario)
            .with_engine(engine)
            .with_seed(3)
            .sample_batch(3, 1)
            .unwrap();
        assert_eq!(
            batch_digest(&scenes),
            8655506070621154411,
            "{engine}: nested-construction digest drifted: a default's \
             `self` binding or the construction order changed"
        );
    }
}

/// Asserts that `source`, sampled as a 3-scene batch at root seed 3,
/// has `expected` as its batch digest under both engines.
fn assert_batch_digest_on_both_engines(source: &str, world: &str, expected: u64, what: &str) {
    let scenario = compile_with_world(source, bundled_world(world)).unwrap();
    for engine in [Engine::Compiled, Engine::Ast] {
        let scenes = Sampler::new(&scenario)
            .with_engine(engine)
            .with_seed(3)
            .sample_batch(3, 1)
            .unwrap_or_else(|e| panic!("{engine}: {what}: {e}"));
        assert_eq!(batch_digest(&scenes), expected, "{engine}: {what}");
    }
}

/// Pairs of library-class construction sites whose specifiers classify
/// alike (one constant value each), written where every candidate runs
/// the syntax again: in `def` bodies, in user class defaults, in `with`
/// arguments deferred until `position` is known, and in `require`s
/// deferred to termination (their conditions draw). The compiled engine
/// must stage the two sites of each pair apart.
const SITES_IN_RUNTIME_SYNTAX: &[(&str, &str, u64)] = &[
    (
        "ego = Object at 0 @ -2\n\
         def f():\n    return Object at 0 @ 2\n\
         def g():\n    return Object facing 30 deg\n\
         a = f()\nb = g()\n",
        "bare",
        1103923322401209398,
    ),
    (
        "class Crate(Object):\n    anchor: Point at 1 @ 1\n\
         class Box2(Object):\n    anchor: Point facing 30 deg\n\
         ego = Crate at 0 @ -2\nb = Box2 at 0 @ 3\n",
        "bare",
        4688431699681297029,
    ),
    (
        "ego = Object at 0 @ -2\n\
         a = Object at 0 @ 2, with anchor [roadDirection relative to 0 deg, Point at 1 @ 1]\n\
         b = Object at 0 @ 5, with anchor [roadDirection relative to 0 deg, Point facing 30 deg]\n",
        "gta",
        16095554080044534825,
    ),
    (
        "ego = Object at 0 @ 0\n\
         require (Point at (0, 1) @ 0).position.x < 5\n\
         require (Point facing (0, 1)).heading < 5\n",
        "bare",
        7185746144691294114,
    ),
];

#[test]
fn sites_in_runtime_syntax_digests_are_stable_on_both_engines() {
    for &(source, world, expected) in SITES_IN_RUNTIME_SYNTAX {
        assert_batch_digest_on_both_engines(source, world, expected, source);
    }
}

/// `mutate` on a detached `front of` point writes `mutationScale`, which
/// the point has no slot for, and the `require` reads it back; the last
/// object sets `tag`, which no class declares.
const WRITES_OUTSIDE_THE_LAYOUT: &str = "\
ego = Object at 0 @ 0
p = front of ego
mutate p by 2
require p.mutationScale == 2
Object at 0 @ (4, 6), with tag \"far\"
";

#[test]
fn writes_outside_the_layout_digest_is_stable_on_both_engines() {
    assert_batch_digest_on_both_engines(
        WRITES_OUTSIDE_THE_LAYOUT,
        "bare",
        10950505392564156387,
        "writes to names outside an object's layout",
    );
}

/// One program per scoping rule of `docs/LANGUAGE.md` ("Names and
/// scopes"), each with the batch digest both engines give it. The
/// compiled engine resolves names to slots at lowering; each rule here is
/// one it must either prove or leave to by-name lookup.
const SCOPING_RULES: &[(&str, &str, &str, u64)] = &[
    (
        "a `def` reads a top-level name bound after the `def`, before the call",
        "def f():\n    return x\nx = 3\nego = Object at f() @ (0, 1)\n",
        "bare",
        12920583059496844740,
    ),
    (
        "`x = x + 1` in a function body writes the outer `x`",
        "x = 1\ndef bump():\n    x = x + 1\nbump()\nego = Object at x @ (0, 1)\n",
        "bare",
        5261707033986137167,
    ),
    (
        "a `def` that shadows a base native after a use of the native",
        "a = abs(-3)\ndef abs(v):\n    return 10\nego = Object at a @ abs(1), facing (0, 1)\n",
        "bare",
        12608293893091561967,
    ),
    (
        "a `for` variable keeps its last value after the loop",
        "for i in [1, 2, 5]:\n    pass\nego = Object at i @ (0, 1)\n",
        "bare",
        5776915926845138326,
    ),
    (
        "a nested `def` reads its enclosing call's parameter",
        "def outer(k):\n    def inner(v):\n        return v + k\n    return inner(2)\n\
         ego = Object at outer(4) @ (0, 1)\n",
        "bare",
        12793875071201325539,
    ),
    (
        "a user class default reads the top-level name's value at construction",
        "w = 2\nclass Crate(Object):\n    width: w\nego = Crate at 0 @ (0, 1)\n\
         w = 3\nc = Crate at 5 @ (0, 1)\n",
        "bare",
        4703179210433442427,
    ),
    (
        "a non-auto `import` binds the module's names in the candidate",
        "import marsLib\nego = Rover at 0 @ -2\nRock at 0 @ (1, 2)\n",
        "mars",
        9933194025965028463,
    ),
];

#[test]
fn scoping_rules_digests_are_stable_on_both_engines() {
    for &(rule, source, world, expected) in SCOPING_RULES {
        assert_batch_digest_on_both_engines(source, world, expected, rule);
    }
}

/// A function body that reads a name before its own assignment binds
/// it, where no enclosing scope has the name: both engines raise E003.
#[test]
fn reading_a_local_before_its_assignment_is_undefined_on_both_engines() {
    let source = "def f():\n    a = b\n    b = 1\n    return a\nego = Object at f() @ 0\n";
    let scenario = compile(source).unwrap();
    for engine in [Engine::Compiled, Engine::Ast] {
        let err = Sampler::new(&scenario)
            .with_engine(engine)
            .with_seed(3)
            .sample_batch(1, 1)
            .unwrap_err();
        assert!(
            matches!(&err, ScenicError::Undefined { name, .. } if name == "b"),
            "{engine}: {err}"
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_scenes() {
    let world = World::generate(MapConfig::default());
    let scenario = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let a = Sampler::new(&scenario).sample_seeded(1).unwrap();
    let b = Sampler::new(&scenario).sample_seeded(2).unwrap();
    assert_ne!(digest(&a), digest(&b));
}

// ---------------------------------------------------------------------
// sample_batch: thread-count invariance + pinned digests per bundled
// scenario. The batch seed-derivation (`derive_scene_seed`) is part of
// the reproducibility contract exactly like the per-seed stream: if one
// of these digests drifts, batch output changed on every platform
// (breaking for `sample_batch`).
// ---------------------------------------------------------------------

/// Every bundled `scenarios/*.scenic` file with its world and the
/// pinned digest of a 3-scene batch at root seed 7.
const BUNDLED_BATCH_DIGESTS: &[(&str, &str, u64)] = &[
    ("simplest.scenic", "gta", 11147000041812585473),
    ("two_cars.scenic", "gta", 12432342917023476994),
    ("badly_parked.scenic", "gta", 13142882594589914072),
    ("gta_intersection.scenic", "gta", 15307603797103711724),
    ("gta_oncoming.scenic", "gta", 16107416849542298254),
    ("mars_bottleneck.scenic", "mars", 432406145982909675),
    ("mars_formation.scenic", "mars", 1255604280676792309),
];

#[test]
fn batch_digests_are_pinned_and_thread_count_invariant() {
    for (name, world, expected) in BUNDLED_BATCH_DIGESTS {
        let scenario = compile_bundled(name, world);
        let serial = Sampler::new(&scenario)
            .with_seed(7)
            .sample_batch(3, 1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let parallel = Sampler::new(&scenario)
            .with_seed(7)
            .sample_batch(3, 4)
            .unwrap();
        assert_eq!(
            batch_digest(&serial),
            batch_digest(&parallel),
            "{name}: jobs=1 and jobs=4 disagree (batch sampling is not \
             thread-count invariant)"
        );
        assert_eq!(
            batch_digest(&serial),
            *expected,
            "{name}: batch digest drifted: the pinned RNG stream, the \
             seed derivation, or the sampling order changed (breaking \
             for sample_batch)"
        );
    }
}

// ---------------------------------------------------------------------
// §5.2 pruning is acceptance-invariant: guard-mode pruning draws the
// exact unpruned candidate stream and only abandons candidates that
// could never be accepted, so for every bundled scenario the accepted
// scenes — and therefore the pinned digests above — are byte-identical
// with pruning on or off. If this test fails, a prune guard rejected a
// viable candidate (the derivation behind `Scenario::derived_prune_params`
// produced unsound parameters) and pruning changed *which* scenes are
// sampled, not just how fast.
// ---------------------------------------------------------------------

/// Fixtures where the derivation must take every class a name can mean
/// into account: a thinner `Pipe` than the library's, a marker named
/// like a physical class, and a thin class whose superclass is a
/// variable. Each accepts mostly scenes whose guarded draw lies near the
/// workspace boundary.
const PRUNE_FIXTURES: &[(&str, &str)] = &[
    ("thin_pipe.scenic", "mars"),
    ("marker_named_twice.scenic", "mars"),
    ("variable_superclass.scenic", "mars"),
];

/// Every bundled scenario and every [`PRUNE_FIXTURES`] entry, compiled.
fn prune_subjects() -> impl Iterator<Item = (&'static str, scenic::core::Scenario)> {
    let fixtures = PRUNE_FIXTURES.iter().map(|&(name, world)| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let source = std::fs::read_to_string(&path).expect("fixture");
        (
            name,
            compile_with_world(&source, bundled_world(world)).unwrap(),
        )
    });
    let bundled = BUNDLED_BATCH_DIGESTS
        .iter()
        .map(|&(name, world, _)| (name, compile_bundled(name, world)));
    bundled.chain(fixtures)
}

#[test]
fn pruning_on_equals_pruning_off_for_every_bundled_scenario() {
    for (name, scenario) in prune_subjects() {
        let plain = Sampler::new(&scenario)
            .with_seed(7)
            .sample_batch(3, 2)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut pruned_sampler = Sampler::new(&scenario).with_seed(7).with_pruning();
        let pruned = pruned_sampler
            .sample_batch(3, 2)
            .unwrap_or_else(|e| panic!("{name} (pruned): {e}"));
        assert_eq!(
            batch_digest(&plain),
            batch_digest(&pruned),
            "{name}: pruning changed the accepted scenes"
        );
    }
}

/// The invariant behind the test above, checked object by object: no
/// object of a scene that the default (unguarded) route accepts lies
/// outside a guard of the scenario's derived prune plan. A guard that
/// flagged one would abandon a candidate that sampling accepts.
#[test]
fn no_accepted_object_trips_a_derived_prune_guard() {
    let mut checks = 0;
    for (name, scenario) in prune_subjects() {
        let plan = scenario.prune_plan();
        if plan.is_empty() {
            continue;
        }
        let n = if name == "mars_bottleneck.scenic" {
            20
        } else {
            100
        };
        let scenes = Sampler::new(&scenario)
            .with_seed(1)
            .sample_batch(n, 2)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (i, scene) in scenes.iter().enumerate() {
            for object in &scene.objects {
                let position = object.position_vec();
                for guard in &plan.guards {
                    assert_eq!(
                        guard.rejects(position),
                        None,
                        "{name}: scene {i}'s {} at {position:?} lies outside \
                         {}.{}'s pruned region",
                        object.class,
                        guard.module,
                        guard.name
                    );
                    checks += 1;
                }
            }
        }
    }
    assert!(checks > 0, "no scenario derived a prune guard");
}

#[test]
fn batch_agrees_with_derived_seeded_draws() {
    let world = World::generate(MapConfig::default());
    let scenario = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let batch = Sampler::new(&scenario)
        .with_seed(21)
        .sample_batch(3, 2)
        .unwrap();
    for (i, scene) in batch.iter().enumerate() {
        let seed = derive_scene_seed(21, i as u64);
        let expected = Sampler::new(&scenario).sample_seeded(seed).unwrap();
        assert_eq!(digest(scene), digest(&expected), "scene {i}");
    }
}
