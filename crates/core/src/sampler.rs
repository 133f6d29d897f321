//! Scene generation by rejection sampling (§5.2).
//!
//! "Our implementation uses rejection sampling, generating scenes from
//! the imperative part of the scenario until all requirements are
//! satisfied." The sampler wraps [`Scenario::generate`] in a retry loop
//! with an iteration budget and per-reason rejection statistics —
//! the statistics reproduce the pruning measurements of Appendix D.
//!
//! # Batch sampling and determinism
//!
//! Rejection sampling is embarrassingly parallel: every candidate scene
//! is an independent draw. [`Sampler::sample_batch`] exploits this by
//! fanning scene draws across worker threads while staying
//! **bit-reproducible**: the RNG stream of scene `i` is derived
//! *by index* from the sampler's root seed via a SplitMix64 stream split
//! ([`derive_scene_seed`]), so the output is byte-identical for any
//! worker count. The design needs no extra dependencies and no
//! `unsafe`: a compiled [`Scenario`] is `Send + Sync`, each worker
//! builds its own thread-local interpreter state per run, and batches
//! run on the persistent process-wide [`WorkerPool`] (threads spawned
//! once, reused by every call).

use crate::compile::Engine;
use crate::early::EarlyPlan;
use crate::error::{Pruner, Rejection, RunResult, ScenicError};
use crate::interp::Scenario;
use crate::pool::WorkerPool;
use crate::prune::{PruneParams, PrunePlan};
use crate::scene::Scene;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Maximum rejection-sampling iterations per scene (the paper found
    /// "all reasonable scenarios … required only several hundred
    /// iterations at most").
    pub max_iterations: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            max_iterations: 10_000,
        }
    }
}

/// Cumulative statistics across all `sample` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Scenes successfully generated.
    pub scenes: usize,
    /// Total interpreter runs (accepted + rejected).
    pub iterations: usize,
    /// Rejections from user `require` statements.
    pub requirement_rejections: usize,
    /// Rejections from bounding-box collisions.
    pub collision_rejections: usize,
    /// Rejections from workspace containment.
    pub containment_rejections: usize,
    /// Rejections from ego visibility.
    pub visibility_rejections: usize,
    /// Rejections from empty/over-constrained regions.
    pub empty_region_rejections: usize,
    /// Candidate runs the §5.2 containment prune guard killed early
    /// (position drawn too close to the workspace boundary for any
    /// object to fit).
    pub prune_containment_rejections: usize,
    /// Candidate runs the orientation prune guard (Algorithm 2) killed
    /// early.
    pub prune_orientation_rejections: usize,
    /// Candidate runs the size prune guard (Algorithm 3) killed early.
    pub prune_size_rejections: usize,
}

impl SamplerStats {
    /// Total rejections of any kind.
    pub fn rejections(&self) -> usize {
        self.iterations - self.scenes
    }

    /// Mean interpreter runs needed per accepted scene.
    pub fn iterations_per_scene(&self) -> f64 {
        if self.scenes == 0 {
            f64::NAN
        } else {
            self.iterations as f64 / self.scenes as f64
        }
    }

    /// Candidate runs killed early by any §5.2 prune guard.
    pub fn prune_rejections(&self) -> usize {
        self.prune_containment_rejections
            + self.prune_orientation_rejections
            + self.prune_size_rejections
    }

    /// Iterations that got past the prune guards. With pruning off this
    /// equals [`SamplerStats::iterations`]. Under
    /// [`Sampler::with_deferred_checks`] it is the iteration count a
    /// sampler drawing directly from the pruned regions would have paid,
    /// so the gap between the two is the Appendix D "unpruned vs pruned"
    /// comparison, measured from a single guarded run. With early checks
    /// on, a candidate that an earlier check rejects never reaches a
    /// later guarded draw, so guard kills undercount what pruning saves.
    pub fn full_iterations(&self) -> usize {
        self.iterations - self.prune_rejections()
    }

    /// Mean fully-interpreted runs per accepted scene (the "pruned"
    /// iterations-per-scene column of Appendix D).
    pub fn full_iterations_per_scene(&self) -> f64 {
        if self.scenes == 0 {
            f64::NAN
        } else {
            self.full_iterations() as f64 / self.scenes as f64
        }
    }

    /// Adds another run's counters into this one (used to reduce
    /// per-scene batch statistics in index order). Pure counter
    /// addition, so merging is associative and commutative — batch
    /// totals are independent of worker count and merge order.
    pub fn merge(&mut self, other: &SamplerStats) {
        self.scenes += other.scenes;
        self.iterations += other.iterations;
        self.requirement_rejections += other.requirement_rejections;
        self.collision_rejections += other.collision_rejections;
        self.containment_rejections += other.containment_rejections;
        self.visibility_rejections += other.visibility_rejections;
        self.empty_region_rejections += other.empty_region_rejections;
        self.prune_containment_rejections += other.prune_containment_rejections;
        self.prune_orientation_rejections += other.prune_orientation_rejections;
        self.prune_size_rejections += other.prune_size_rejections;
    }

    fn record(&mut self, rejection: &Rejection) {
        match rejection {
            Rejection::Requirement { .. } => self.requirement_rejections += 1,
            Rejection::Collision => self.collision_rejections += 1,
            Rejection::Containment => self.containment_rejections += 1,
            Rejection::Visibility => self.visibility_rejections += 1,
            Rejection::EmptyRegion => self.empty_region_rejections += 1,
            Rejection::Pruned(Pruner::Containment) => self.prune_containment_rejections += 1,
            Rejection::Pruned(Pruner::Orientation) => self.prune_orientation_rejections += 1,
            Rejection::Pruned(Pruner::Size) => self.prune_size_rejections += 1,
        }
    }
}

/// SplitMix64 increment (the golden-ratio gamma of the reference
/// implementation).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the RNG seed for scene `index` of a batch rooted at
/// `root_seed`.
///
/// This is a SplitMix64 stream split: the `index`-th point of the
/// SplitMix64 sequence starting at `root_seed`, pushed through the
/// SplitMix64 finalizer. Both the index map (`root + (index+1)·γ`, γ
/// odd) and the finalizer are bijections on `u64`, so for a fixed root
/// seed **distinct scene indices can never collide** — each scene gets
/// its own independent child stream regardless of which worker thread
/// draws it.
#[must_use]
pub fn derive_scene_seed(root_seed: u64, index: u64) -> u64 {
    let mut z = root_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scene slot of a batch: the draw's outcome (if it was computed
/// before cancellation kicked in) with its statistics.
type BatchSlot = Option<(RunResult<Scene>, SamplerStats)>;

/// One worker's outcomes, tagged with the scene indices it drew.
type IndexedOutcomes = Vec<(usize, (RunResult<Scene>, SamplerStats))>;

/// Everything a batch worker needs, shared across threads. Owning a
/// [`Scenario`] clone (cheap: compiled programs and world geometry are
/// `Arc`-shared) keeps the state `'static`, as the persistent
/// [`WorkerPool`] requires.
struct BatchShared {
    scenario: Scenario,
    config: SamplerConfig,
    /// Evaluation engine for every candidate run.
    engine: Engine,
    /// Active §5.2 prune guards, shared by every worker.
    prune: Option<Arc<PrunePlan>>,
    /// The checks every candidate decides early.
    early: Arc<EarlyPlan>,
    root_seed: u64,
    /// Absolute scene index of the batch's first slot: slot `i` draws
    /// from `derive_scene_seed(root_seed, start + i)`, so a ranged
    /// batch reproduces exactly the scenes a full batch would put at
    /// those indices (see [`Sampler::sample_batch_report_range`]).
    start: usize,
    n: usize,
    /// Next unclaimed scene slot (dynamic work pulling; relative to
    /// `start`).
    next_index: AtomicUsize,
    /// Lowest failing scene slot seen so far (`usize::MAX` = none).
    first_error: AtomicUsize,
}

/// The batch worker loop: pull the next scene index, derive its seed,
/// run a thread-local interpreter; after any failure, indices above the
/// lowest failing one are abandoned (their results could never be
/// reported).
fn drain_batch(shared: &BatchShared) -> IndexedOutcomes {
    let mut local = Vec::new();
    loop {
        let index = shared.next_index.fetch_add(1, Ordering::Relaxed);
        // `first_error` only ever decreases, so once an index is past
        // it every later index is too: stop pulling work.
        if index >= shared.n || index > shared.first_error.load(Ordering::Acquire) {
            break;
        }
        let seed = derive_scene_seed(shared.root_seed, (shared.start + index) as u64);
        let outcome = sample_scene(
            &shared.scenario,
            shared.config,
            seed,
            shared.prune.as_deref(),
            shared.engine,
            &shared.early,
        );
        if outcome.0.is_err() {
            shared.first_error.fetch_min(index, Ordering::AcqRel);
        }
        local.push((index, outcome));
    }
    local
}

/// The outcome of a [`Sampler::sample_batch_report`] call: accepted
/// scenes plus the per-scene rejection statistics, both in scene-index
/// order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The accepted scenes, ordered by scene index.
    pub scenes: Vec<Scene>,
    /// Rejection statistics per scene, aligned with `scenes`.
    pub per_scene: Vec<SamplerStats>,
}

impl BatchReport {
    /// Sum of the per-scene statistics.
    pub fn total_stats(&self) -> SamplerStats {
        let mut total = SamplerStats::default();
        for s in &self.per_scene {
            total.merge(s);
        }
        total
    }
}

/// One complete rejection-sampling attempt for a single scene: the
/// worker-side core of both [`Sampler::sample_seeded`] and
/// [`Sampler::sample_batch`]. Free of `&mut Sampler` state — all it
/// needs is the shared scenario, the config, and the scene's own seed —
/// so any thread can run it.
fn sample_scene(
    scenario: &Scenario,
    config: SamplerConfig,
    seed: u64,
    prune: Option<&PrunePlan>,
    engine: Engine,
    early: &EarlyPlan,
) -> (RunResult<Scene>, SamplerStats) {
    let mut stats = SamplerStats::default();
    let mut seed_rng = StdRng::seed_from_u64(seed);
    for _ in 0..config.max_iterations {
        stats.iterations += 1;
        // One seed draw per candidate, whatever happens inside the run:
        // the candidate stream — and therefore the accepted scenes — is
        // identical with prune guards and early checks on or off.
        let mut run_rng = StdRng::seed_from_u64(seed_rng.gen());
        match scenario.generate_checked(&mut run_rng, prune, engine, early) {
            Ok(scene) => {
                stats.scenes += 1;
                return (Ok(scene), stats);
            }
            Err(ScenicError::Rejected(r)) => stats.record(&r),
            Err(other) => return (Err(other), stats),
        }
    }
    (
        Err(ScenicError::MaxIterationsExceeded {
            limit: config.max_iterations,
        }),
        stats,
    )
}

/// A rejection sampler over a compiled scenario.
///
/// # Example
///
/// ```
/// use scenic_core::sampler::Sampler;
///
/// let scenario = scenic_core::compile("ego = Object at 0 @ 0\nObject at 0 @ 5\n")?;
/// let mut sampler = Sampler::new(&scenario);
/// let scene = sampler.sample_seeded(7)?;
/// assert_eq!(scene.objects.len(), 2);
/// # Ok::<(), scenic_core::ScenicError>(())
/// ```
///
/// Deterministic parallel batches derive every scene's RNG stream from
/// the root seed by index, so the worker count never changes the output:
///
/// ```
/// use scenic_core::sampler::Sampler;
///
/// let scenario = scenic_core::compile("ego = Object at 0 @ 0\nObject at 0 @ (5, 9)\n")?;
/// let serial = Sampler::new(&scenario).with_seed(3).sample_batch(4, 1)?;
/// let parallel = Sampler::new(&scenario).with_seed(3).sample_batch(4, 4)?;
/// assert_eq!(
///     serial.iter().map(|s| s.to_json()).collect::<Vec<_>>(),
///     parallel.iter().map(|s| s.to_json()).collect::<Vec<_>>(),
/// );
/// # Ok::<(), scenic_core::ScenicError>(())
/// ```
#[derive(Debug)]
pub struct Sampler<'s> {
    scenario: &'s Scenario,
    config: SamplerConfig,
    /// Root of the per-index seed-derivation scheme (and the seed of
    /// `rng` at construction time).
    root_seed: u64,
    /// Stateful stream for the legacy sequential `sample` path.
    rng: StdRng,
    stats: SamplerStats,
    /// Active §5.2 prune guards (`None` = unpruned sampling).
    prune: Option<Arc<PrunePlan>>,
    /// Evaluation engine (compiled by default; scenes are byte-identical
    /// either way, see [`Engine`]).
    engine: Engine,
    /// The checks candidates decide as soon as they are decidable: the
    /// scenario's own plan, or none after
    /// [`Sampler::with_deferred_checks`].
    early: Arc<EarlyPlan>,
}

impl<'s> Sampler<'s> {
    /// Creates a sampler with default configuration, an entropy-derived
    /// root seed, and pruning off.
    pub fn new(scenario: &'s Scenario) -> Self {
        let root_seed = StdRng::from_entropy().gen();
        Sampler {
            scenario,
            config: SamplerConfig::default(),
            root_seed,
            rng: StdRng::seed_from_u64(root_seed),
            stats: SamplerStats::default(),
            prune: None,
            engine: Engine::default(),
            early: Arc::clone(scenario.early_plan()),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: SamplerConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the evaluation engine ([`Engine::Compiled`] by default).
    /// Engine choice never changes the sampled scenes, statistics, or
    /// RNG streams — only how fast candidates evaluate.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The active evaluation engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Turns on §5.2 prune guards with the scenario's auto-derived
    /// parameters ([`Scenario::derived_prune_params`]). Guarded
    /// sampling is **acceptance-invariant**: it draws the same
    /// candidate stream as unpruned sampling and accepts byte-identical
    /// scenes — but candidates whose region draws land outside the
    /// pruned restrictions are abandoned before full interpretation,
    /// and counted per pruner in [`SamplerStats`]. A plan with no
    /// applicable guards is dropped (sampling stays literally
    /// unpruned). No sampling route of the CLI or the daemon calls
    /// this: guards only measure what pruning saves, which
    /// `scenic prune-report` does through
    /// [`Sampler::with_prune_params`].
    pub fn with_pruning(mut self) -> Self {
        let plan = self.scenario.prune_plan();
        self.prune = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Like [`Sampler::with_pruning`], but with caller-supplied
    /// [`PruneParams`] (the §5.2 soundness obligations are then the
    /// caller's: unsound parameters make pruning reject scenes that
    /// unpruned sampling would accept).
    pub fn with_prune_params(mut self, params: &PruneParams) -> Self {
        let plan = self.scenario.prune_plan_with(params);
        self.prune = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Checks every requirement at termination, as Fig. 25 states it,
    /// instead of as soon as it is decidable. By default each hard
    /// `require` is checked at its own statement and each object's
    /// default requirements right after its construction, wherever that
    /// gives the answer the termination check would; the accepted scenes
    /// and each scene's candidate count are the same either way, but a
    /// candidate that fails several checks counts under the one that
    /// runs first, and one rejected early never reaches a later prune
    /// guard. `scenic prune-report` samples this way, so its "pruned"
    /// column ([`SamplerStats::full_iterations`]) keeps Appendix D's
    /// meaning.
    pub fn with_deferred_checks(mut self) -> Self {
        self.early = Arc::new(EarlyPlan::default());
        self
    }

    /// The active prune plan, if any.
    pub fn prune_plan(&self) -> Option<&Arc<PrunePlan>> {
        self.prune.as_ref()
    }

    /// Sets the root seed (for reproducible streams): reseeds the
    /// internal RNG and re-roots the `sample_batch` seed derivation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// The root seed scene seeds derive from (see [`derive_scene_seed`]).
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Generates one scene, retrying rejected runs up to the configured
    /// budget.
    ///
    /// # Errors
    ///
    /// [`ScenicError::MaxIterationsExceeded`] when the budget runs out;
    /// program errors are passed through immediately.
    pub fn sample(&mut self) -> RunResult<Scene> {
        for _ in 0..self.config.max_iterations {
            self.stats.iterations += 1;
            let mut run_rng = StdRng::seed_from_u64(self.rng.gen());
            match self.scenario.generate_checked(
                &mut run_rng,
                self.prune.as_deref(),
                self.engine,
                &self.early,
            ) {
                Ok(scene) => {
                    self.stats.scenes += 1;
                    return Ok(scene);
                }
                Err(ScenicError::Rejected(r)) => {
                    self.stats.record(&r);
                }
                Err(other) => return Err(other),
            }
        }
        Err(ScenicError::MaxIterationsExceeded {
            limit: self.config.max_iterations,
        })
    }

    /// Generates one scene from a deterministic seed (independent of the
    /// sampler's own RNG stream, but statistics still accumulate).
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::sample`].
    pub fn sample_seeded(&mut self, seed: u64) -> RunResult<Scene> {
        let (result, stats) = sample_scene(
            self.scenario,
            self.config,
            seed,
            self.prune.as_deref(),
            self.engine,
            &self.early,
        );
        self.stats.merge(&stats);
        result
    }

    /// Generates `n` scenes across `jobs` worker threads,
    /// deterministically: scene `i` is always drawn from
    /// `derive_scene_seed(root_seed, i)`, so the result is byte-identical
    /// for every `jobs` value (including 1). Statistics accumulate as if
    /// the scenes were drawn sequentially in index order.
    ///
    /// Runs on the persistent process-wide [`WorkerPool`], so repeated
    /// batches reuse the same threads instead of paying `jobs` spawns
    /// per call (use [`Sampler::sample_batch_report_with`] for a private
    /// pool). `jobs` is clamped to `1..=n` — a batch never engages more
    /// workers than it has scenes, and single-scene batches run inline;
    /// pass `std::thread::available_parallelism()` for a sensible
    /// default.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing scene (budget exhaustion or
    /// program error); work past that index is cancelled and excluded
    /// from the statistics, again independent of `jobs`.
    pub fn sample_batch(&mut self, n: usize, jobs: usize) -> RunResult<Vec<Scene>> {
        self.sample_batch_report(n, jobs).map(|r| r.scenes)
    }

    /// Like [`Sampler::sample_batch`], but also returns per-scene
    /// rejection statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::sample_batch`].
    pub fn sample_batch_report(&mut self, n: usize, jobs: usize) -> RunResult<BatchReport> {
        self.sample_batch_report_with(WorkerPool::global(), n, jobs)
    }

    /// Samples the scenes a full batch would put at indices
    /// `start..start + count`, without computing the earlier ones:
    /// slot `i` of the result is byte-identical to scene `start + i` of
    /// `sample_batch(start + count, jobs)`. This is how a streaming
    /// driver (the `scenicd` daemon) delivers a large batch
    /// incrementally — chunked ranged calls reproduce exactly the
    /// scenes of one big call, in any chunking, for any `jobs`.
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::sample_batch`], relative to this range.
    pub fn sample_batch_report_range(
        &mut self,
        start: usize,
        count: usize,
        jobs: usize,
    ) -> RunResult<BatchReport> {
        self.batch_report(WorkerPool::global(), start, count, jobs)
    }

    /// Like [`Sampler::sample_batch_report`], but on a caller-supplied
    /// [`WorkerPool`] instead of the shared global one (isolation for
    /// tests, or dedicated pools per subsystem). The pool grows to
    /// `jobs - 1` workers if needed; one worker always runs inline on
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::sample_batch`].
    pub fn sample_batch_report_with(
        &mut self,
        pool: &WorkerPool,
        n: usize,
        jobs: usize,
    ) -> RunResult<BatchReport> {
        self.batch_report(pool, 0, n, jobs)
    }

    /// The body of every batch entry point: scenes `start..start + n`
    /// on `pool` with `jobs` clamped to `1..=n` (one job runs inline).
    fn batch_report(
        &mut self,
        pool: &WorkerPool,
        start: usize,
        n: usize,
        jobs: usize,
    ) -> RunResult<BatchReport> {
        let jobs = jobs.clamp(1, n.max(1));
        let slots = if jobs == 1 {
            self.batch_serial(start, n)
        } else {
            self.batch_pooled(pool, start, n, jobs)?
        };
        self.reduce(n, slots)
    }

    /// Deterministic reduction in scene-index order: merge statistics
    /// and collect scenes up to (and including) the first failure.
    /// Slots past a failure may or may not have been computed
    /// depending on worker timing; ignoring them keeps scenes, error,
    /// and statistics all invariant in `jobs`.
    fn reduce(&mut self, n: usize, slots: Vec<BatchSlot>) -> RunResult<BatchReport> {
        let mut report = BatchReport {
            scenes: Vec::with_capacity(n),
            per_scene: Vec::with_capacity(n),
        };
        for slot in slots {
            match slot {
                Some((Ok(scene), stats)) => {
                    self.stats.merge(&stats);
                    report.per_scene.push(stats);
                    report.scenes.push(scene);
                }
                Some((Err(e), stats)) => {
                    self.stats.merge(&stats);
                    return Err(e);
                }
                None => unreachable!("scene slot below first error left uncomputed"),
            }
        }
        Ok(report)
    }

    /// The shared worker state for one batch over scenes
    /// `start..start + n`.
    fn batch_shared(&self, start: usize, n: usize) -> BatchShared {
        BatchShared {
            scenario: self.scenario.clone(),
            config: self.config,
            engine: self.engine,
            prune: self.prune.clone(),
            early: Arc::clone(&self.early),
            root_seed: self.root_seed,
            start,
            n,
            next_index: AtomicUsize::new(0),
            first_error: AtomicUsize::new(usize::MAX),
        }
    }

    /// In-thread batch: identical semantics to the parallel path, with
    /// early exit at the first error.
    fn batch_serial(&self, start: usize, n: usize) -> Vec<BatchSlot> {
        let mut slots: Vec<BatchSlot> = Vec::new();
        for index in 0..n {
            let seed = derive_scene_seed(self.root_seed, (start + index) as u64);
            let outcome = sample_scene(
                self.scenario,
                self.config,
                seed,
                self.prune.as_deref(),
                self.engine,
                &self.early,
            );
            let failed = outcome.0.is_err();
            slots.push(Some(outcome));
            if failed {
                break;
            }
        }
        slots
    }

    /// Persistent-pool dispatch: `jobs` copies of [`drain_batch`] on the
    /// pool (one inline on this thread), no thread spawned after the
    /// pool's first growth to this concurrency. A worker panic (an
    /// interpreter bug) surfaces as [`ScenicError::WorkerPanic`] instead
    /// of poisoning the caller, so a long-running daemon keeps serving.
    fn batch_pooled(
        &self,
        pool: &WorkerPool,
        start: usize,
        n: usize,
        jobs: usize,
    ) -> RunResult<Vec<BatchSlot>> {
        let shared = Arc::new(self.batch_shared(start, n));
        let worker_shared = Arc::clone(&shared);
        let results = pool
            .try_execute(jobs, move |_| drain_batch(&worker_shared))
            .map_err(|message| ScenicError::WorkerPanic { message })?;
        // Scatter worker results back into index-addressed slots.
        let mut slots: Vec<BatchSlot> = Vec::new();
        slots.resize_with(n, || None);
        for (index, outcome) in results.into_iter().flatten() {
            slots[index] = Some(outcome);
        }
        Ok(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_never_collide_in_small_windows() {
        let mut seen = std::collections::HashSet::new();
        for index in 0..4096u64 {
            assert!(seen.insert(derive_scene_seed(99, index)));
        }
    }

    #[test]
    fn batch_matches_seeded_draws() {
        let scenario = crate::compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
        let mut sampler = Sampler::new(&scenario).with_seed(17);
        let batch = sampler.sample_batch(3, 1).unwrap();
        for (i, scene) in batch.iter().enumerate() {
            let expected = Sampler::new(&scenario)
                .sample_seeded(derive_scene_seed(17, i as u64))
                .unwrap();
            assert_eq!(scene.to_json(), expected.to_json());
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let scenario = crate::compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
        let serial = Sampler::new(&scenario)
            .with_seed(5)
            .sample_batch_report(6, 1)
            .unwrap();
        for jobs in [2, 3, 8] {
            let parallel = Sampler::new(&scenario)
                .with_seed(5)
                .sample_batch_report(6, jobs)
                .unwrap();
            let a: Vec<String> = serial.scenes.iter().map(Scene::to_json).collect();
            let b: Vec<String> = parallel.scenes.iter().map(Scene::to_json).collect();
            assert_eq!(a, b, "jobs={jobs} changed the batch");
            assert_eq!(serial.per_scene, parallel.per_scene);
        }
    }

    #[test]
    fn batch_error_is_thread_count_invariant() {
        // Unsatisfiable: two objects pinned to the same spot.
        let scenario = crate::compile("ego = Object at 0 @ 0\nObject at 0 @ 0.5\n").unwrap();
        for jobs in [1, 4] {
            let mut sampler = Sampler::new(&scenario)
                .with_seed(1)
                .with_config(SamplerConfig { max_iterations: 5 });
            let err = sampler.sample_batch(4, jobs).unwrap_err();
            assert!(matches!(
                err,
                ScenicError::MaxIterationsExceeded { limit: 5 }
            ));
            // Only scene 0's attempts count: later indices are cancelled.
            assert_eq!(sampler.stats().iterations, 5, "jobs={jobs}");
        }
    }

    #[test]
    fn batch_stats_accumulate_on_sampler() {
        let scenario = crate::compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
        let mut sampler = Sampler::new(&scenario).with_seed(2);
        let report = sampler.sample_batch_report(4, 2).unwrap();
        assert_eq!(report.scenes.len(), 4);
        assert_eq!(report.per_scene.len(), 4);
        assert_eq!(sampler.stats(), report.total_stats());
        assert_eq!(sampler.stats().scenes, 4);
    }

    #[test]
    fn chunked_ranges_reassemble_the_full_batch() {
        let scenario = crate::compile("ego = Object at 0 @ 0\nObject at 0 @ (4, 9)\n").unwrap();
        let full = Sampler::new(&scenario)
            .with_seed(11)
            .sample_batch_report(7, 3)
            .unwrap();
        // Any chunking — even mixed serial/parallel chunks — must
        // reproduce the same scenes and per-scene statistics.
        for chunks in [
            vec![(0, 7)],
            vec![(0, 3), (3, 3), (6, 1)],
            vec![(0, 1), (1, 6)],
        ] {
            let mut sampler = Sampler::new(&scenario).with_seed(11);
            let mut scenes = Vec::new();
            let mut per_scene = Vec::new();
            for (start, count) in chunks {
                let part = sampler
                    .sample_batch_report_range(start, count, 2)
                    .unwrap_or_else(|e| panic!("range {start}+{count}: {e}"));
                scenes.extend(part.scenes);
                per_scene.extend(part.per_scene);
            }
            let a: Vec<String> = full.scenes.iter().map(Scene::to_json).collect();
            let b: Vec<String> = scenes.iter().map(Scene::to_json).collect();
            assert_eq!(a, b, "chunked ranges drifted from the full batch");
            assert_eq!(full.per_scene, per_scene);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let scenario = crate::compile("ego = Object at 0 @ 0\n").unwrap();
        let report = Sampler::new(&scenario).sample_batch_report(0, 8).unwrap();
        assert!(report.scenes.is_empty());
        assert!(report.per_scene.is_empty());
    }
}
