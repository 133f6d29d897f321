//! Integration tests of the compiled-scenario cache and the persistent
//! sampler worker pool: invalidation semantics, concurrent compiles,
//! and private-pool output equivalence.

use scenic::gta::{scenarios, MapConfig, World};
use scenic::prelude::*;
use std::sync::Arc;

/// FNV-1a (64-bit) over a batch's concatenated canonical JSON — the
/// same digest family `tests/determinism.rs` pins.
fn batch_digest(scenes: &[Scene]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for scene in scenes {
        for byte in scene.to_json().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[test]
fn cache_shares_one_compilation_per_content() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let a = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    let b = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same content compiled twice");
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
}

#[test]
fn cache_recompiles_edited_source() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let original = scenarios::SIMPLEST;
    let edited = format!("{original}Car\n");
    let a = cache.get_or_compile("gta", original, world.core()).unwrap();
    let b = cache.get_or_compile("gta", &edited, world.core()).unwrap();
    assert!(!Arc::ptr_eq(&a, &b), "edited source must recompile");
    assert_ne!(source_hash(original), source_hash(&edited));
    assert_eq!((cache.misses(), cache.hits()), (2, 0));
}

#[test]
fn cached_scenario_samples_identically_to_fresh_compile() {
    let cache = ScenarioCache::new();
    let world = World::generate(MapConfig::default());
    let cached = cache
        .get_or_compile("gta", scenarios::SIMPLEST, world.core())
        .unwrap();
    let fresh = compile_with_world(scenarios::SIMPLEST, world.core()).unwrap();
    let a = Sampler::new(&cached)
        .with_seed(11)
        .sample_batch(3, 2)
        .unwrap();
    let b = Sampler::new(&fresh)
        .with_seed(11)
        .sample_batch(3, 2)
        .unwrap();
    assert_eq!(batch_digest(&a), batch_digest(&b));
}

#[test]
fn private_pool_reports_match_serial_reports() {
    let scenario = compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
    let pool = WorkerPool::new(1);
    let mut pooled = Sampler::new(&scenario).with_seed(5);
    let mut serial = Sampler::new(&scenario).with_seed(5);
    for _ in 0..2 {
        let a = pooled.sample_batch_report_with(&pool, 5, 3).unwrap();
        let b = serial.sample_batch_report(5, 1).unwrap();
        assert_eq!(batch_digest(&a.scenes), batch_digest(&b.scenes));
        assert_eq!(a.per_scene, b.per_scene);
    }
    assert_eq!(pooled.stats(), serial.stats());
    // jobs=3 runs one worker inline and two on the pool: the 1-thread
    // pool must have grown to 2 for the first batch, then stayed put.
    assert_eq!(pool.workers(), 2, "pool did not grow for the batches");
}

#[test]
fn concurrent_clients_share_exactly_one_compilation() {
    // The daemon shares one ScenarioCache across all connection
    // handlers, so this is the serving layer's hot path: many clients
    // requesting the same scenario at once must end up with the very
    // same compiled Arc, after exactly one compilation entering the
    // cache. A barrier releases all threads into get_or_compile at the
    // same instant to make the race real.
    const THREADS: usize = 8;
    let cache = Arc::new(ScenarioCache::new());
    let world = Arc::new(World::generate(MapConfig::default()).core().clone());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let world = Arc::clone(&world);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut entries = Vec::new();
                for _ in 0..16 {
                    entries.push(
                        cache
                            .get_or_compile("gta", scenarios::SIMPLEST, &world)
                            .expect("compiles"),
                    );
                }
                entries
            })
        })
        .collect();
    let all: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("hammer thread"))
        .collect();
    let first = &all[0];
    for (i, entry) in all.iter().enumerate() {
        assert!(
            Arc::ptr_eq(first, entry),
            "entry {i} is a different compilation: racing compiles must \
             converge on one shared Arc"
        );
    }
    assert_eq!(
        cache.misses(),
        1,
        "racing compiles of one key must count exactly one miss \
         (= one entry ever cached)"
    );
    assert_eq!(cache.len(), 1);
    // Each call is a hit, the one counted miss, or a racing compile
    // that lost the insert (counts neither; at most one per thread,
    // since after the first insert every lookup hits).
    assert!(
        cache.hits() >= THREADS * 16 - THREADS && cache.hits() < THREADS * 16,
        "hit count {} out of range for {} calls",
        cache.hits(),
        THREADS * 16
    );
}
