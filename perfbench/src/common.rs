//! Pieces every workload shares: the bundled scenarios, set-up,
//! seeds, statistics, work counters, output checks and the result line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic_core::{
    compile_with_world, derive_scene_seed, Engine, Sampler, SamplerConfig, SamplerStats, Scenario,
    World,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sampling jobs for in-process batches (the machine has 2 cores).
pub const JOBS: usize = 2;

/// Per-scene candidate budget for in-process sampling. `mars_bottleneck`
/// needs about 1,830 candidates per scene, so at the CLI default of
/// 10,000 about 0.4% of its scenes would exhaust the budget; at 100,000
/// none does. The CLI and the daemon keep their default, which is why
/// `mars_bottleneck` never goes through them here.
pub const MAX_ITERATIONS: usize = 100_000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Rounds of distinct operation seeds per stream. Later rounds reuse
/// them, so a faster build times the same operations as a slower one
/// (not a different draw of the seed's luck), and the CLI's digest
/// ledger stops growing after the first cycle.
pub const SEED_CYCLE: usize = 8;

/// Where run artifacts (traces, counters, the CLI store) go, relative
/// to the repository root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// The world a bundled scenario compiles against.
pub fn world_of(name: &str) -> &'static str {
    if name.starts_with("mars_") {
        "mars"
    } else {
        "gta"
    }
}

/// The scenario source path, relative to the repository root.
pub fn source_path(name: &str) -> String {
    format!("scenarios/{name}.scenic")
}

pub fn read_source(name: &str) -> Result<String, String> {
    let path = source_path(name);
    std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e} (run from the repository root)"))
}

/// Builds a world the way `scenic sample --world W` does.
pub fn build_world(name: &str) -> World {
    match name {
        "gta" => scenic_gta::World::generate(scenic_gta::MapConfig::default())
            .core()
            .clone(),
        "mars" => scenic_mars::world(),
        other => panic!("unknown world {other}"),
    }
}

/// A compiled, lowered and prune-planned scenario.
pub struct Prepared {
    pub name: &'static str,
    pub source: String,
    pub scenario: Scenario,
}

impl Prepared {
    pub fn world(&self) -> &'static str {
        world_of(self.name)
    }
}

/// One set-up: builds each world once, then compiles, lowers and plans
/// every scenario, and runs one candidate of each as warm-up.
pub fn prepare(names: &[&'static str]) -> Result<Vec<Prepared>, String> {
    let mut worlds: BTreeMap<&str, World> = BTreeMap::new();
    let mut prepared = Vec::new();
    for &name in names {
        let world = worlds
            .entry(world_of(name))
            .or_insert_with(|| build_world(world_of(name)));
        let source = read_source(name)?;
        let scenario = compile_with_world(&source, world).map_err(|e| format!("{name}: {e}"))?;
        scenario.compiled();
        let plan = scenario.prune_plan();
        // Warm-up: one candidate, whatever its outcome.
        let _ =
            scenario.generate_with(&mut StdRng::seed_from_u64(0), Some(&plan), Engine::Compiled);
        prepared.push(Prepared {
            name,
            source,
            scenario,
        });
    }
    Ok(prepared)
}

/// Runs `setup` [`SETUPS`] times and returns the median CPU time in
/// seconds (this process and its waited-for children) with the last
/// set-up's result.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = process_cpu_s() + children_cpu_s();
        last = Some(setup()?);
        times.push(process_cpu_s() + children_cpu_s() - start);
    }
    Ok((median(&mut times), last.expect("at least one set-up")))
}

/// The sampler every in-process batch uses: pruning on, the given
/// engine, the raised budget.
pub fn sampler(scenario: &Scenario, seed: u64, engine: Engine) -> Sampler<'_> {
    Sampler::new(scenario)
        .with_seed(seed)
        .with_engine(engine)
        .with_config(SamplerConfig {
            max_iterations: MAX_ITERATIONS,
        })
        .with_pruning()
}

/// Root seed of operation `op` on stream `stream` (a scenario index or
/// a client index) of a run with workload seed `seed`.
pub fn op_seed(seed: u64, stream: usize, op: usize) -> u64 {
    derive_scene_seed(derive_scene_seed(seed, stream as u64), op as u64)
}

/// Root seed of round `round` on stream `stream`, cycling through
/// [`SEED_CYCLE`] seeds.
pub fn cycled_seed(seed: u64, stream: usize, round: usize) -> u64 {
    op_seed(seed, stream, round % SEED_CYCLE)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `0..=1`); NaN for no values.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `getrusage(RUSAGE_CHILDREN)`: every waited-for child.
fn children_usage() -> Option<RUsage> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out exactly as the
    // kernel's `struct rusage` on 64-bit Linux (144 bytes), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Largest peak resident memory of any waited-for child, in MB.
pub fn children_peak_rss_mb() -> f64 {
    children_usage().map_or(f64::NAN, |u| u.maxrss as f64 / 1024.0)
}

/// User plus system CPU time of every waited-for child, in seconds.
pub fn children_cpu_s() -> f64 {
    children_usage().map_or(f64::NAN, |u| {
        let [us, uus] = u.utime;
        let [ss, sus] = u.stime;
        (us + ss) as f64 + (uus + sus) as f64 * 1e-6
    })
}

/// Reads a CPU-time clock, in seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `struct timespec` of 64-bit
    // Linux, and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(clock, &mut time) };
    if rc == 0 {
        time.sec as f64 + time.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU time of this process (all its threads), in seconds. Unlike wall
/// time it leaves out the time the host runs other tenants on the
/// machine's cores.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of thread `tid` of this process, in seconds: the clock
/// `pthread_getcpuclockid` would give for it (`~tid << 3 | 6`).
pub fn thread_cpu_s_of(tid: i32) -> f64 {
    cpu_clock_s((!tid << 3) | 6)
}

/// The calling thread's id.
pub fn current_tid() -> Option<i32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// The ids of this process's threads whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            comm.starts_with(prefix).then_some(tid)
        })
        .collect()
}

/// CPU time of the reference kernel on the machine the metrics are
/// scaled to: a 2-vCPU Xeon VM at a typical moment.
pub const REFERENCE_KERNEL_MS: f64 = 1.5;

/// Share of the workload's CPU time spent on the reference kernel.
const KERNEL_SHARE: f64 = 0.05;

/// Kernel runs per benchmark run at least, for a steady median.
const MIN_KERNEL_RUNS: usize = 100;

/// A fixed computation of the benchmark's own (pointer chasing over
/// 1 MiB, integer mixing, `sin`, small allocations in a `BTreeMap`),
/// run in CPU time beside the workload. The machine's cores are shared:
/// CPU time leaves out the time other tenants run, but not the time
/// they slow this one down by (shared caches, clock speed), which moved
/// every CPU time here by up to a third between runs an hour apart. The
/// kernel slows down with them, so each timed figure is reported as
/// `cpu × REFERENCE_KERNEL_MS / median kernel time`: what it would take
/// where the kernel takes [`REFERENCE_KERNEL_MS`].
pub struct Calibration {
    next: Vec<u32>,
    runs_ms: Vec<f64>,
    workload_ms: f64,
    kernel_ms: f64,
}

impl Calibration {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot.
        let n = 1usize << 18;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibration {
            next,
            runs_ms: Vec::new(),
            workload_ms: 0.0,
            kernel_ms: 0.0,
        }
    }

    /// One kernel run on this thread; its CPU time in ms. An untimed
    /// pass over the table first brings it into cache, so that a run
    /// costs the same whatever the workload did just before.
    fn run(&mut self) -> f64 {
        std::hint::black_box(self.next.iter().map(|&slot| u64::from(slot)).sum::<u64>());
        let start = thread_cpu_s();
        let (mut slot, mut acc, mut x) = (0u32, 0u64, 0.5f64);
        let mut map = BTreeMap::new();
        for i in 0..20_000u64 {
            slot = self.next[slot as usize];
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(slot));
            x = (x + f64::from(slot) * 1e-6).sin().abs() + 0.1;
            if i % 4 == 0 {
                map.insert(acc % 512, vec![x; 4]);
            }
            if i % 7 == 0 {
                map.remove(&(acc % 512));
            }
        }
        std::hint::black_box((acc, x, map.len()));
        let ms = (thread_cpu_s() - start) * 1e3;
        self.runs_ms.push(ms);
        self.kernel_ms += ms;
        ms
    }

    /// Counts `cpu_ms` of workload time, then runs the kernel until it
    /// has had [`KERNEL_SHARE`] of the total, so its runs spread over
    /// the run as the workload's time does.
    pub fn pace(&mut self, cpu_ms: f64) {
        self.workload_ms += cpu_ms;
        while self.kernel_ms < KERNEL_SHARE * self.workload_ms {
            self.run();
        }
    }

    /// Adds another thread's kernel runs.
    pub fn merge(&mut self, other: Calibration) {
        self.runs_ms.extend(other.runs_ms);
        self.kernel_ms += other.kernel_ms;
        self.workload_ms += other.workload_ms;
    }

    /// The factor that scales a CPU time to the reference machine, after
    /// topping the kernel up to [`MIN_KERNEL_RUNS`] runs.
    pub fn scale(&mut self) -> f64 {
        while self.runs_ms.len() < MIN_KERNEL_RUNS {
            self.run();
        }
        let median = median(&mut self.runs_ms.clone());
        println!(
            "reference kernel: median {median:.4} ms CPU over {} runs; times scaled by {:.4}",
            self.runs_ms.len(),
            REFERENCE_KERNEL_MS / median
        );
        REFERENCE_KERNEL_MS / median
    }
}

/// Deterministic work counters: equal on every run with the same seed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    pub fn add(&mut self, key: &str, value: u64) {
        *self.0.entry(key.to_string()).or_default() += value;
    }

    /// Adds a sampler's scenes, candidates, rejections by reason and
    /// prune kills.
    pub fn add_stats(&mut self, s: &SamplerStats) {
        for (key, value) in [
            ("scenes", s.scenes),
            ("candidates", s.iterations),
            ("rejections.requirement", s.requirement_rejections),
            ("rejections.collision", s.collision_rejections),
            ("rejections.containment", s.containment_rejections),
            ("rejections.visibility", s.visibility_rejections),
            ("rejections.empty_region", s.empty_region_rejections),
            ("prune_kills.containment", s.prune_containment_rejections),
            ("prune_kills.orientation", s.prune_orientation_rejections),
            ("prune_kills.size", s.prune_size_rejections),
        ] {
            self.add(key, value as u64);
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Output checks and failed operations of one run. Every failure is
/// reported on stderr and counts in `failed`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: u64,
}

impl Tally {
    /// Records one operation; `Err` makes it a failed one.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: failed operation: {what}: {e}");
                None
            }
        }
    }

    /// Records one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }
}

/// Prints the deterministic counters of a run's first round. Every run
/// on the same seed prints the same line, traced or not; each run also
/// samples that round twice and checks the two agree.
pub fn print_counters(workload: &str, seed: u64, counters: &Counters) {
    println!("counters {workload} seed {seed}: {}", counters.to_json());
}

/// The result line: the last line of stdout.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Report {
            tally,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN: a metric that could not be measured is
            // reported as -1.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.check_failures == 0 && self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
        )
    }
}
