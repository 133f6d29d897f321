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
// viable candidate (the derivation in `prune::derive_params` produced
// unsound parameters) and pruning changed *which* scenes are sampled,
// not just how fast.
// ---------------------------------------------------------------------

#[test]
fn pruning_on_equals_pruning_off_for_every_bundled_scenario() {
    for (name, world, _) in BUNDLED_BATCH_DIGESTS {
        let scenario = compile_bundled(name, world);
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
