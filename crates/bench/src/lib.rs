//! # scenic-bench
//!
//! The experiment harness behind `scenic exp`: regenerates every table
//! and figure of the paper's evaluation (§6, Appendix D) as typed
//! reports compared against the paper's reported numbers. Performance
//! is measured by `perfbench/` (see its README), not here.
//!
//! Scale: the paper trained a real CNN on thousands of GTAV renders;
//! our substrate is cheap enough to rerun end-to-end, but dataset sizes
//! are scaled down by default (`scenic exp <id> --scale S`, 1.0 =
//! paper-proportional counts scaled by 1/4).

pub mod experiments;
pub mod harness;
pub mod report;
pub mod seed_case;

use scenic_core::cache::ScenarioCache;
use scenic_core::{RunResult, Scenario};
use scenic_gta::{MapConfig, World};
use std::sync::{Arc, OnceLock};

/// The standard world every experiment runs against.
pub fn standard_world() -> World {
    World::generate(MapConfig::default())
}

static EXP_CACHE: OnceLock<ScenarioCache> = OnceLock::new();

/// The process-wide compile cache every experiment shares. Scenarios
/// reused across experiments (`TWO_CARS` alone appears in five of
/// them) compile once per process.
pub(crate) fn exp_compile(
    world_name: &str,
    source: &str,
    world: &scenic_core::World,
) -> RunResult<Arc<Scenario>> {
    exp_cache().get_or_compile(world_name, source, world)
}

/// The shared experiment compile cache, for callers that want its hit
/// counters (the `scenic exp --stats` report).
pub fn exp_cache() -> &'static ScenarioCache {
    EXP_CACHE.get_or_init(ScenarioCache::new)
}

/// Scales a base count.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(4)
}
