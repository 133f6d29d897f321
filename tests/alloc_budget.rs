//! Heap allocations per rejection-sampling candidate.
//!
//! Nearly every candidate the sampler draws is rejected (`simplest`
//! draws about 118 per scene, `mars_bottleneck` about 1,760), so the
//! cost of building one candidate's objects is the sampler's
//! throughput, and every allocation in that loop is paid thousands of
//! times per scene. This binary installs a counting global allocator
//! and holds two reject-heavy scenarios to a per-candidate budget.
//!
//! The allocator counts the current thread only (a `const`
//! thread-local), so tests running in parallel do not mix their counts,
//! and the count is deterministic: the same seed draws the same
//! candidates. When construction starts allocating more per property,
//! this is the test that fails; see "Compiled evaluation" in
//! `docs/ARCHITECTURE.md` for what one construction allocates and why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation the current thread makes
/// (`realloc` included: it may move the block).
struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Candidates run before counting starts: the per-thread hoisted base,
/// the staged class defaults and construction sites are built on the
/// first ones.
const WARM_UP: usize = 1_000;
/// Candidates counted.
const MEASURED: usize = 2_000;

fn bundled(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Mean allocations per candidate over [`MEASURED`] candidates of the
/// compiled engine with the derived prune plan, after [`WARM_UP`].
fn allocations_per_candidate(scenario: &scenic::core::Scenario) -> f64 {
    let plan = scenario.prune_plan();
    let mut rng = StdRng::seed_from_u64(1);
    let candidate = |rng: &mut StdRng| {
        // Accepted or rejected, the outcome is dropped inside the count.
        let _ = scenario.generate_with(rng, Some(&plan), Engine::Compiled);
    };
    for _ in 0..WARM_UP {
        candidate(&mut rng);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..MEASURED {
        candidate(&mut rng);
    }
    let after = ALLOCATIONS.with(Cell::get);
    (after - before) as f64 / MEASURED as f64
}

/// Asserts the mean allocations per candidate stay at or under `budget`.
/// Each budget is the scenario's measured mean (the same in debug and
/// release builds) plus a few allocations of slack for standard-library
/// drift.
fn assert_within_budget(name: &str, scenario: &scenic::core::Scenario, budget: f64) {
    let mean = allocations_per_candidate(scenario);
    eprintln!("{name}: {mean:.1} allocations per candidate");
    assert!(
        mean <= budget,
        "{name}: {mean:.1} heap allocations per candidate, budget {budget}"
    );
}

#[test]
fn simplest_candidates_stay_within_the_allocation_budget() {
    let world = scenic::gta::World::generate(scenic::gta::MapConfig::default());
    let scenario = compile_with_world(&bundled("simplest.scenic"), world.core()).unwrap();
    // Measures 52.5.
    assert_within_budget("simplest", &scenario, 55.0);
}

#[test]
fn mars_bottleneck_candidates_stay_within_the_allocation_budget() {
    let world = scenic::mars::world();
    let scenario = compile_with_world(&bundled("mars_bottleneck.scenic"), &world).unwrap();
    // Measures 70.6.
    assert_within_budget("mars_bottleneck", &scenario, 75.0);
}
