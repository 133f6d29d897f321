//! A compiled-scenario cache: compile once, sample forever.
//!
//! The paper's pipeline compiles a Scenic program once and then draws
//! many independent scenes from it by rejection sampling — so any
//! driver that revisits a scenario (the CLI's `--repeat`, multi-file
//! runs, a long-lived service) should amortize the compile. A
//! [`ScenarioCache`] memoizes compiled [`Scenario`]s behind [`Arc`]s,
//! keyed by the pair **(source content hash, world name)**:
//!
//! - hashing the *content* (FNV-1a over the bytes, [`source_hash`])
//!   rather than the file path means the same program reached through
//!   two different paths is still one cache entry, and an edited file
//!   is automatically a different one — no invalidation protocol, no
//!   mtime races;
//! - the *world name* is part of the key because one source compiles to
//!   different scenarios against different worlds (the same `.scenic`
//!   file means different things under `gta` and `bare`). The caller
//!   chooses the label; it must identify the [`World`] value passed
//!   alongside it.
//!
//! Compile *errors* are intentionally not cached: they are cheap to
//! reproduce (parsing fails fast) and callers usually want the error
//! anew, e.g. after fixing the file.
//!
//! Cached scenarios carry their §5.2 prune plan with them: the plan is
//! built lazily behind a shared `OnceLock` on the [`Scenario`], so a
//! cache hit (or any clone handed to batch workers) reuses the pruned
//! regions instead of re-running the prepare step.
//!
//! # Example
//!
//! ```
//! use scenic_core::cache::ScenarioCache;
//! use scenic_core::World;
//! use std::sync::Arc;
//!
//! let cache = ScenarioCache::new();
//! let world = World::bare();
//! let a = cache.get_or_compile("bare", "ego = Object at 0 @ 0\n", &world)?;
//! let b = cache.get_or_compile("bare", "ego = Object at 0 @ 0\n", &world)?;
//! // Same content + world: the very same compiled scenario is shared.
//! assert!(Arc::ptr_eq(&a, &b));
//! assert_eq!((cache.misses(), cache.hits()), (1, 1));
//!
//! // Edited source is a different key — it recompiles.
//! let c = cache.get_or_compile("bare", "ego = Object at 1 @ 0\n", &world)?;
//! assert!(!Arc::ptr_eq(&a, &c));
//! assert_eq!(cache.misses(), 2);
//! # Ok::<(), scenic_core::ScenicError>(())
//! ```

use crate::error::RunResult;
use crate::interp::{compile_with_world, Scenario};
use crate::world::World;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a (64-bit) over the source bytes: the content half of a
/// [`ScenarioCache`] key. Stable across platforms and runs (the same
/// hash family pins the scene digests in `tests/determinism.rs`).
#[must_use]
pub fn source_hash(source: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in source.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A thread-safe cache of compiled scenarios keyed by
/// (source content hash, world name).
///
/// Entries are [`Arc`]-shared: a hit hands back the *same* compiled
/// [`Scenario`] (compiled programs and world geometry are themselves
/// `Arc`-shared and immutable, so concurrent samplers can use one entry
/// freely). See the [module docs](self) for the key design.
#[derive(Debug, Default)]
pub struct ScenarioCache {
    entries: Mutex<HashMap<(u64, String), Arc<Scenario>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ScenarioCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ScenarioCache::default()
    }

    /// Returns the cached compilation of `source` against the world
    /// labelled `world_name`, compiling (and caching) it on first sight.
    ///
    /// `world_name` must identify `world`: callers passing different
    /// [`World`] values under one label would get whichever compiled
    /// first.
    ///
    /// # Errors
    ///
    /// Propagates compile errors; failed compilations are not cached.
    pub fn get_or_compile(
        &self,
        world_name: &str,
        source: &str,
        world: &World,
    ) -> RunResult<Arc<Scenario>> {
        if let Some(hit) = self.lookup(world_name, source) {
            return Ok(hit);
        }
        // Compile outside the lock: parsing a big scenario must not
        // block concurrent lookups. Two racing compilers of the same
        // key both succeed and one insert wins — compilation is
        // deterministic, so the entries are interchangeable; only the
        // winner counts as a miss (the loser's work is discarded), so
        // `misses()` always equals the number of entries ever cached.
        let compiled = Arc::new(compile_with_world(source, world)?);
        let mut entries = self.entries.lock().expect("scenario cache poisoned");
        match entries.entry((source_hash(source), world_name.to_owned())) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(v.insert(compiled)))
            }
        }
    }

    /// Returns the cached compilation if present (counts as a hit),
    /// without compiling.
    #[must_use]
    pub fn lookup(&self, world_name: &str, source: &str) -> Option<Arc<Scenario>> {
        let entries = self.entries.lock().expect("scenario cache poisoned");
        let hit = entries
            .get(&(source_hash(source), world_name.to_owned()))
            .cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Number of cached scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("scenario cache poisoned").len()
    }

    /// Whether the cache holds no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (outstanding [`Arc`]s stay valid); the hit and
    /// miss counters keep counting.
    pub fn clear(&self) {
        self.entries
            .lock()
            .expect("scenario cache poisoned")
            .clear();
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compilations that entered the cache (first sight of a key);
    /// always equals the number of entries ever cached, even under
    /// concurrent compiles of the same key.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "ego = Object at 0 @ 0\nObject at 0 @ 5\n";

    #[test]
    fn identical_source_is_one_entry() {
        let cache = ScenarioCache::new();
        let world = World::bare();
        let a = cache.get_or_compile("bare", SRC, &world).unwrap();
        let b = cache.get_or_compile("bare", SRC, &world).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn edited_source_recompiles() {
        let cache = ScenarioCache::new();
        let world = World::bare();
        let a = cache.get_or_compile("bare", SRC, &world).unwrap();
        let b = cache
            .get_or_compile("bare", "ego = Object at 0 @ 0\nObject at 0 @ 6\n", &world)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
    }

    #[test]
    fn world_name_is_part_of_the_key() {
        let cache = ScenarioCache::new();
        let world = World::bare();
        let a = cache.get_or_compile("bare", SRC, &world).unwrap();
        let b = cache.get_or_compile("other", SRC, &world).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ScenarioCache::new();
        let world = World::bare();
        assert!(cache
            .get_or_compile("bare", "ego = Object offset\n", &world)
            .is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn clear_empties_but_entries_stay_usable() {
        let cache = ScenarioCache::new();
        let world = World::bare();
        let a = cache.get_or_compile("bare", SRC, &world).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        // The Arc outlives the cache entry.
        assert!(a.generate_seeded(1).is_ok());
        // Re-requesting recompiles.
        let b = cache.get_or_compile("bare", SRC, &world).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn source_hash_is_stable_and_content_sensitive() {
        assert_eq!(source_hash(""), 0xcbf2_9ce4_8422_2325);
        let owned: String = SRC.into();
        assert_eq!(source_hash(SRC), source_hash(&owned));
        assert_ne!(source_hash(SRC), source_hash("ego = Object at 0 @ 0\n"));
    }
}
