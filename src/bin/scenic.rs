//! `scenic` — the command-line front end.
//!
//! Mirrors how the paper's tool flow (§2, Fig. 2) is driven in practice:
//! `.scenic` files go in, sampled scenes come out in a simulator's
//! input format.
//!
//! ```text
//! scenic check  <file>... [--world gta|mars|bare]
//! scenic lint   <file>... [--world W] [--deny warnings] [--format text|json]
//! scenic print  <file>...
//! scenic sample <file>... [--world W] [-n N] [--seed S] [--jobs J]
//!               [--repeat R] [--format json|gta|wbt|summary]
//!               [--out DIR] [--stats]
//! scenic prune-report <file>... [--world W] [-n N] [--seed S] [--jobs J]
//!               [pruner overrides]
//! scenic exp    <name>... [--scale S] [--seed N] [--jobs J]
//!               [--json PATH] [--md PATH]
//! scenic serve  [--host H] [--port P]
//! scenic client <action> [<file>...] [--addr HOST:PORT] [sample options]
//! ```
//!
//! `check` parses, compiles, and runs the static analyzer (reporting
//! every diagnostic with rustc-style carets; analysis errors fail the
//! check), `lint` runs the same pass with lint-style exit codes (2 on
//! errors, 1 when `--deny warnings` and any warning fired, 0 otherwise)
//! and machine-readable `--format json`,
//! `print` re-emits the canonical pretty-printed source, and
//! `sample` draws `N` scenes by deterministic parallel rejection
//! sampling (`--jobs` workers on the persistent process pool; every
//! scene's RNG stream derives from `--seed` and the scene index, so the
//! output is byte-identical for any worker count) and writes them to
//! stdout (or one file per scene under `--out`).
//!
//! `prune-report` is the one command that runs the §5.2 prune guards: it
//! samples with every check deferred to the end of a run and reports
//! Appendix D's unpruned and pruned iterations per scene from a single
//! batch. `sample` and the daemon reject candidates early only through
//! the early `require` and object checks (see `scenic_core::early`).
//!
//! Repeated and multi-scenario runs compile each source once: all
//! compilations go through a [`ScenarioCache`] keyed by source content
//! and world, so `--repeat R` pays one compile for `R` sampling rounds
//! (round `r` re-roots the seed at `S + r`), and the same file listed
//! twice — or reached via two paths — is compiled once. The cache lives
//! in memory, so nothing persists from one invocation to the next.
//!
//! `exp` reproduces the paper's evaluation: each named experiment (or
//! `all`) drives the full sample → render → train → evaluate pipeline
//! through [`scenic::bench::harness`], prints the paper-vs-measured
//! tables, and reduces the paper's qualitative claims to shape-check
//! verdicts. Exit code 0 means every check HOLDS, 1 that one was
//! VIOLATED (or the pipeline failed), 2 a usage error. `--json` /
//! `--md` write the `scenic-exp/v1` artifact and a markdown report —
//! both byte-identical across runs and `--jobs` values (timings go to
//! stderr only).
//!
//! `serve` runs `scenicd`, the long-running scenario daemon: one shared
//! worker pool and compiled-scenario cache serve every client, and
//! sampled scenes stream back as they complete. `client` talks to it;
//! `scenic client sample` output is **byte-identical** to
//! `scenic sample` for the same scenario, seed, and format (both render
//! through [`scenic::serve::format`], and scene RNG streams depend only
//! on the seed and scene index).

use scenic::core::compile::Engine;
use scenic::core::diag::{render_json, render_text, Diagnostic, Severity};
use scenic::core::prune::PrunePlan;
use scenic::core::sampler::{Sampler, SamplerConfig, SamplerStats};
use scenic::core::{analyze, batch_digest, PruneParams, ScenarioCache, ScenicError, World};
use scenic::prelude::{Scene, Vec2};
use scenic::serve::format::{file_extension, render_scene};
use scenic::serve::proto::{Request, Response, SampleRequest};
use scenic::serve::{Client, ClientError, Server};
use std::process::ExitCode;
use std::time::Duration;

/// Writes a chunk of output to stdout, exiting quietly if the reader
/// went away. A downstream `| head`-style consumer routinely closes the
/// pipe mid-stream; that is a normal end of output (exit 0, like other
/// Unix streamers), not a panic.
fn stream_print(text: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`stream_print`]: every stdout write of the CLI
/// goes this way.
macro_rules! out {
    ($($arg:tt)*) => {
        stream_print(format_args!($($arg)*))
    };
}

/// `eprint!` that drops a failed write: every stderr write of the CLI
/// goes this way. Diagnostics and statistics are a side channel, so a
/// closed or full stderr must not turn a run's exit code into a panic.
macro_rules! err {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = std::io::stderr().write_fmt(format_args!($($arg)*));
    }};
}

/// A run-time failure: scenic-language errors carry the file and source
/// so `main` can render them through the diagnostics renderer; anything
/// else (IO, bad values) stays a plain message.
enum CliError {
    Scenic {
        file: String,
        source: String,
        err: ScenicError,
    },
    Other(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Other(message)
    }
}

fn scenic_err(file: &str, source: &str, err: ScenicError) -> CliError {
    CliError::Scenic {
        file: file.to_string(),
        source: source.to_string(),
        err,
    }
}

const USAGE: &str = "\
usage:
  scenic check  <file>... [--world gta|mars|bare]
  scenic lint   <file>... [--world gta|mars|bare] [--deny warnings]
                [--format text|json]
  scenic print  <file>...
  scenic sample <file>... [--world gta|mars|bare] [-n N] [--seed S]
                [--jobs J] [--repeat R] [--engine ast|compiled]
                [--format json|gta|wbt|summary] [--out DIR]
                [--stats] [--ppm]
  scenic prune-report <file>... [--world W] [-n N] [--seed S] [--jobs J]
                [--min-radius R] [--heading LO,HI] [--heading-tolerance D]
                [--max-distance M] [--min-width W]
  scenic exp    <name>... [--scale S] [--seed N] [--jobs J]
                [--json PATH] [--md PATH]
  scenic serve  [--host H] [--port P]
  scenic client <action> [<file>...] [--addr HOST:PORT]
                [sample/lint options]

options:
  --world W     world/library to compile against (default: gta)
  --deny warnings
                (lint) exit 1 when any warning fires
  -n N          number of scenes to sample (default: 1)
  --seed S      RNG seed (default: 0)
  --jobs J      sampling worker threads (default: all cores; output is
                identical for every J)
  --repeat R    sampling rounds per scenario (default: 1); each source
                is compiled once and round r uses seed S + r
  --engine E    candidate evaluation engine: compiled (default) runs the
                lowered draw path (constants folded, library prefix
                hoisted, construction staged); ast runs the reference
                tree-walking interpreter. Scenes are byte-identical
                either way
  --format F    output format: sample takes json|gta|wbt|summary (default
                summary); lint takes text|json (default text)
  --out DIR     write one file per scene instead of stdout
  --stats       print rejection-sampling and compile-cache statistics,
                plus one batch digest per scenario round, to stderr
  --ppm         also write a top-down scene_NNNN.ppm (needs --out)
  --scale S     (exp) dataset scale factor, positive (default 1.0)
  --json PATH   (exp) write the scenic-exp/v1 JSON artifact
  --md PATH     (exp) write a markdown report

`prune-report` regenerates the paper's Appendix D pruning comparison
from one guarded batch per scenario: candidates whose draws land
outside the pruned regions are counted (and abandoned early), so the
unpruned and pruned iterations-per-scene columns come from a single
run; it is the only command that runs the §5.2 prune guards. Pruner
parameters start from the derived ones and are overridden by
--min-radius (m), --heading LO,HI (deg, relative-heading interval
enabling orientation pruning), --heading-tolerance (deg),
--max-distance (m), and --min-width (m, enabling size pruning).

`exp` reproduces the paper's evaluation tables/figures end-to-end
(sample → render → train → evaluate the surrogate detector). <name> is
one of table6, table7, table8, table9, table10, fig36, conditions,
pruning, ablation, or all. --scale scales dataset sizes (default 1.0);
--seed overrides the per-experiment default seeds; --json/--md write
the scenic-exp/v1 artifact and a markdown report (byte-identical for
any --jobs). Exit 0 iff every shape check HOLDS, 1 on a VIOLATED
check, 2 on usage errors.

`serve` runs scenicd, the long-running scenario daemon (--host default
127.0.0.1, --port default 7907): all clients share one worker pool and
one compiled-scenario cache, and sampled scenes stream back as they
complete. `client` sends one action to a running daemon:
  scenic client sample <file>...   sample via the daemon; output is
                byte-identical to `scenic sample` for the same options
                (-n, --seed, --jobs, --repeat, --engine, --format all
                apply; --timeout-ms sets the daemon-side request
                deadline)
  scenic client compile <file>...  warm the daemon's scenario cache
  scenic client lint <file>...     lint via the daemon
  scenic client status             summary daemon statistics
  scenic client stats              statistics with per-scenario rows
  scenic client health             liveness probe
  scenic client shutdown           graceful daemon shutdown
";

struct Options {
    command: String,
    files: Vec<String>,
    world: String,
    n: usize,
    seed: u64,
    /// Whether `--seed` was given explicitly (`exp` distinguishes
    /// per-experiment default seeds from a user override).
    seed_given: bool,
    /// `None` until `--jobs` is given: local sampling defaults to all
    /// cores, `client sample` to the daemon's choice.
    jobs: Option<usize>,
    repeat: usize,
    format: String,
    out: Option<String>,
    stats: bool,
    ppm: bool,
    /// `lint --deny warnings`: warnings fail the exit status.
    deny_warnings: bool,
    /// Candidate evaluation engine for `sample` (compiled by default;
    /// scenes are byte-identical under either engine).
    engine: Engine,
    /// `prune-report` parameter overrides (on top of the derived ones).
    min_radius: Option<f64>,
    heading: Option<(f64, f64)>,
    heading_tolerance: Option<f64>,
    max_distance: Option<f64>,
    min_width: Option<f64>,
    /// `serve` bind host.
    host: String,
    /// `serve` bind port.
    port: u16,
    /// `client` daemon address.
    addr: String,
    /// `client sample` daemon-side request deadline override.
    timeout_ms: Option<u64>,
    /// `exp` dataset scale factor.
    scale: f64,
    /// `exp` machine-readable artifact path (`scenic-exp/v1` JSON).
    json_out: Option<String>,
    /// `exp` markdown report path.
    md_out: Option<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether the command line asks for the usage: `--help` or `-h`
/// anywhere, or `help` as the command.
fn wants_help(args: std::env::Args) -> bool {
    args.skip(1)
        .enumerate()
        .any(|(i, arg)| arg == "--help" || arg == "-h" || (i == 0 && arg == "help"))
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    args.next(); // program name
    let command = args.next().ok_or("missing command")?;
    let mut options = Options {
        command,
        files: Vec::new(),
        world: "gta".into(),
        n: 1,
        seed: 0,
        seed_given: false,
        jobs: None,
        repeat: 1,
        format: "summary".into(),
        out: None,
        stats: false,
        ppm: false,
        deny_warnings: false,
        engine: Engine::default(),
        min_radius: None,
        heading: None,
        heading_tolerance: None,
        max_distance: None,
        min_width: None,
        host: "127.0.0.1".into(),
        port: 7907,
        addr: "127.0.0.1:7907".into(),
        timeout_ms: None,
        scale: 1.0,
        json_out: None,
        md_out: None,
    };
    let mut args = args.peekable();
    let mut format_given = false;
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--world" => options.world = take("--world")?,
            "-n" => {
                options.n = take("-n")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("-n needs a positive integer")?;
            }
            "--seed" => {
                options.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
                options.seed_given = true;
            }
            "--scale" => {
                options.scale = take("--scale")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--scale needs a positive number")?;
            }
            "--json" => options.json_out = Some(take("--json")?),
            "--md" => options.md_out = Some(take("--md")?),
            "--jobs" => {
                options.jobs = Some(
                    take("--jobs")?
                        .parse()
                        .ok()
                        .filter(|j| *j > 0)
                        .ok_or("--jobs needs a positive integer")?,
                );
            }
            "--repeat" => {
                options.repeat = take("--repeat")?
                    .parse()
                    .ok()
                    .filter(|r| *r > 0)
                    .ok_or("--repeat needs a positive integer")?;
            }
            "--format" => {
                options.format = take("--format")?;
                format_given = true;
            }
            "--deny" => {
                let what = take("--deny")?;
                if what != "warnings" {
                    return Err(format!("unknown --deny value `{what}` (expected warnings)"));
                }
                options.deny_warnings = true;
            }
            "--out" => options.out = Some(take("--out")?),
            "--stats" => options.stats = true,
            "--ppm" => options.ppm = true,
            "--engine" => options.engine = take("--engine")?.parse()?,
            "--min-radius" => {
                options.min_radius = Some(
                    take("--min-radius")?
                        .parse()
                        .map_err(|_| "--min-radius needs a number (meters)")?,
                );
            }
            "--heading" => {
                let raw = take("--heading")?;
                let (lo, hi) = raw
                    .split_once(',')
                    .and_then(|(lo, hi)| Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?)))
                    .ok_or("--heading needs LO,HI in degrees (e.g. 150,210)")?;
                options.heading = Some((lo, hi));
            }
            "--heading-tolerance" => {
                options.heading_tolerance = Some(
                    take("--heading-tolerance")?
                        .parse()
                        .map_err(|_| "--heading-tolerance needs a number (degrees)")?,
                );
            }
            "--max-distance" => {
                options.max_distance = Some(
                    take("--max-distance")?
                        .parse()
                        .map_err(|_| "--max-distance needs a number (meters)")?,
                );
            }
            "--min-width" => {
                options.min_width = Some(
                    take("--min-width")?
                        .parse()
                        .map_err(|_| "--min-width needs a number (meters)")?,
                );
            }
            "--host" => options.host = take("--host")?,
            "--port" => {
                options.port = take("--port")?
                    .parse()
                    .map_err(|_| "--port needs a port number")?;
            }
            "--addr" => options.addr = take("--addr")?,
            "--timeout-ms" => {
                options.timeout_ms = Some(
                    take("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms needs a number (milliseconds)")?,
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => options.files.push(arg),
        }
    }
    if options.files.is_empty() && options.command != "serve" {
        return Err(match options.command.as_str() {
            "client" => {
                "client needs an action (sample, compile, lint, status, stats, health, shutdown)"
                    .into()
            }
            "exp" => format!(
                "exp needs an experiment name ({}, or all)",
                scenic::bench::harness::EXPERIMENT_IDS.join(", ")
            ),
            _ => "missing input file".into(),
        });
    }
    if options.command == "exp" {
        for name in &options.files {
            // Resolve names at parse time so typos exit 2 with usage.
            scenic::bench::harness::expand(name).map_err(|e| e.to_string())?;
        }
    }
    if !matches!(options.world.as_str(), "gta" | "mars" | "bare") {
        return Err(format!(
            "unknown world `{}` (expected gta, mars, or bare)",
            options.world
        ));
    }
    if options.ppm && options.out.is_none() {
        return Err("--ppm needs --out DIR".into());
    }
    if options.command == "lint" {
        if !format_given {
            options.format = "text".into();
        }
        if !matches!(options.format.as_str(), "text" | "json") {
            return Err(format!(
                "unknown lint format `{}` (expected text or json)",
                options.format
            ));
        }
    } else if !matches!(options.format.as_str(), "json" | "gta" | "wbt" | "summary") {
        return Err(format!(
            "unknown format `{}` (expected json, gta, wbt, or summary)",
            options.format
        ));
    }
    Ok(options)
}

/// The compiled world plus whatever background polygons a top-down
/// rendering should show (the gta world's roads; nothing elsewhere).
struct LoadedWorld {
    core: World,
    background: Vec<scenic::geom::Polygon>,
}

fn build_world(name: &str) -> LoadedWorld {
    match name {
        "gta" => {
            let world = scenic::gta::World::generate(scenic::gta::MapConfig::default());
            LoadedWorld {
                core: world.core().clone(),
                background: world.map.road_polygons(),
            }
        }
        "mars" => LoadedWorld {
            core: scenic::mars::world(),
            background: Vec::new(),
        },
        _ => LoadedWorld {
            core: World::bare(),
            background: Vec::new(),
        },
    }
}

/// Renders a 60 m top-down view centered on the ego.
fn write_ppm(
    scene: &Scene,
    background: &[scenic::geom::Polygon],
    path: &std::path::Path,
) -> Result<(), String> {
    let center = scene.ego().position_vec();
    let bounds = scenic::geom::Aabb::new(
        center - Vec2::new(30.0, 30.0),
        center + Vec2::new(30.0, 30.0),
    );
    let raster = scenic::sim::top_down(scene, background, bounds, 480, 480);
    raster
        .save_ppm(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_source(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))
}

/// The file-name stem a scenario's output files are prefixed with when
/// several scenarios share one `--out` directory.
fn file_stem(file: &str) -> String {
    std::path::Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".into())
}

/// One output-name stem per input file, disambiguated so two files with
/// the same stem in different directories (`city/crossing.scenic`,
/// `rural/crossing.scenic`) never overwrite each other's scenes in a
/// shared `--out` directory: repeated stems get a positional suffix
/// (`crossing1`, `crossing2`, …).
fn unique_stems(files: &[String]) -> Vec<String> {
    let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for file in files {
        *counts.entry(file_stem(file)).or_default() += 1;
    }
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    files
        .iter()
        .map(|file| {
            let stem = file_stem(file);
            if counts[&stem] > 1 {
                let k = seen.entry(stem.clone()).or_default();
                *k += 1;
                format!("{stem}{k}")
            } else {
                stem
            }
        })
        .collect()
}

/// One sampling round of one scenario: draw `n` scenes and write them
/// out. Under `--stats`, also print the round's batch digest (decimal,
/// the family `tests/determinism.rs` pins) so runs can be compared.
#[allow(clippy::too_many_arguments)]
fn sample_round(
    options: &Options,
    world: &LoadedWorld,
    scenario: &scenic::core::Scenario,
    file: &str,
    source: &str,
    stem: &str,
    rep: usize,
    jobs: usize,
    total: &mut SamplerStats,
) -> Result<(), CliError> {
    let seed = options.seed.wrapping_add(rep as u64);
    let mut sampler = Sampler::new(scenario)
        .with_seed(seed)
        .with_engine(options.engine);
    let scenes = sampler
        .sample_batch(options.n, jobs)
        .map_err(|e| scenic_err(file, source, e))?;
    if options.stats {
        err!(
            "batch digest: {file} round {rep} seed {seed}: {}\n",
            batch_digest(&scenes)
        );
    }
    // Per-scene output names must stay unique across scenarios and
    // rounds sharing one --out directory.
    let multi_file = options.files.len() > 1;
    let prefix = match (multi_file, options.repeat > 1) {
        (false, false) => String::new(),
        (false, true) => format!("r{rep:02}_"),
        (true, false) => format!("{stem}_"),
        (true, true) => format!("{stem}_r{rep:02}_"),
    };
    if options.out.is_none() && options.format == "summary" && (multi_file || options.repeat > 1) {
        out!("=== {file} (round {rep}, seed {seed}) ===\n");
    }
    for (i, scene) in scenes.iter().enumerate() {
        let text = render_scene(scene, &options.format);
        match &options.out {
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!(
                    "{prefix}scene_{i:04}.{}",
                    file_extension(&options.format)
                ));
                std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                err!("wrote {}\n", path.display());
                if options.ppm {
                    let ppm_path =
                        std::path::Path::new(dir).join(format!("{prefix}scene_{i:04}.ppm"));
                    write_ppm(scene, &world.background, &ppm_path)?;
                    err!("wrote {}\n", ppm_path.display());
                }
            }
            None => {
                if options.n > 1 && options.format == "summary" {
                    out!("--- scene {i} ---\n");
                }
                out!("{text}");
            }
        }
    }
    total.merge(&sampler.stats());
    Ok(())
}

/// One `module.name: pruner area -> area` table row per guard stage.
fn guard_table(plan: &PrunePlan) -> Vec<String> {
    let mut rows = Vec::new();
    for guard in &plan.guards {
        for effect in &guard.effects {
            rows.push(format!(
                "  {:<18} {:<12} {:>12.1} m² -> {:>12.1} m² ({:>5.1}% kept)",
                format!("{}.{}", guard.module, guard.name),
                effect.pruner.to_string(),
                effect.area_before,
                effect.area_after,
                100.0 * effect.kept_fraction(),
            ));
        }
    }
    rows
}

/// `prune-report`: the Appendix D comparison from one guarded batch per
/// scenario. The guard draws the exact unpruned candidate stream, so
/// `iterations` is the unpruned column and `full_iterations` (the
/// candidates that survived the pruned regions and were interpreted to
/// completion) is the pruned column — one run, both numbers. Every
/// check is deferred to termination, as in the paper, so no early
/// rejection pre-empts a guard.
fn prune_report(options: &Options, world: &LoadedWorld) -> Result<(), CliError> {
    let jobs = options.jobs.unwrap_or_else(default_jobs);
    let cache = ScenarioCache::new();
    out!("Appendix D pruning comparison (guard mode: one batch yields both columns)\n");
    for file in &options.files {
        let source = read_source(file)?;
        let scenario = cache
            .get_or_compile(&options.world, &source, &world.core)
            .map_err(|e| scenic_err(file, &source, e))?;
        // Derived parameters, overridden by the command-line knobs.
        let mut params: PruneParams = scenario.derived_prune_params();
        if let Some(r) = options.min_radius {
            params.min_radius = r;
        }
        if let Some((lo, hi)) = options.heading {
            params.relative_heading = Some((lo.to_radians(), hi.to_radians()));
        }
        if let Some(d) = options.heading_tolerance {
            params.heading_tolerance = d.to_radians();
        }
        if let Some(m) = options.max_distance {
            params.max_distance = m;
        }
        if let Some(w) = options.min_width {
            params.min_width = Some(w);
        }
        let plan = scenario.prune_plan_with(&params);
        out!(
            "{file}: world {}, n={}, seed={}, jobs={jobs}\n",
            options.world,
            options.n,
            options.seed
        );
        if plan.is_empty() {
            out!("  no applicable pruned regions: both columns are equal\n");
        } else {
            for row in guard_table(&plan) {
                out!("{row}\n");
            }
        }
        let mut sampler = Sampler::new(&scenario)
            .with_seed(options.seed)
            .with_config(SamplerConfig {
                max_iterations: 100_000,
            })
            .with_prune_params(&params)
            .with_deferred_checks();
        let start = std::time::Instant::now();
        sampler
            .sample_batch(options.n, jobs)
            .map_err(|e| scenic_err(file, &source, e))?;
        let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
        let stats = sampler.stats();
        let unpruned = stats.iterations_per_scene();
        let pruned = stats.full_iterations_per_scene();
        out!(
            "  iters/scene: {:.1} unpruned, {:.1} pruned ({:.2}x fewer); \
             {} of {} candidates guard-pruned; {:.1} ms/scene wall-clock\n",
            unpruned,
            pruned,
            unpruned / pruned,
            stats.prune_rejections(),
            stats.iterations,
            elapsed_ms / options.n as f64,
        );
    }
    Ok(())
}

fn client_err(e: ClientError) -> CliError {
    CliError::Other(e.to_string())
}

/// `exp`: reproduce the paper's experiments through the shared harness.
/// Everything on stdout and in the `--json`/`--md` artifacts is
/// deterministic (identical across runs and `--jobs` values); timings
/// and work counters go to stderr.
fn exp_command(options: &Options) -> Result<ExitCode, CliError> {
    use scenic::bench::harness::{self, ExpConfig};
    use scenic::bench::report::{self, RunConfig};

    let cfg = ExpConfig {
        scale: options.scale,
        seed: options.seed_given.then_some(options.seed),
        jobs: options.jobs.unwrap_or_else(default_jobs),
    };
    let mut ids: Vec<&'static str> = Vec::new();
    for name in &options.files {
        for id in harness::expand(name).map_err(|e| e.to_string())? {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    let world = scenic::bench::standard_world();
    let mut reports = Vec::new();
    for id in ids {
        let report = harness::run_experiment(id, &world, &cfg).map_err(|e| e.to_string())?;
        out!("{}\n", report.to_text());
        err!(
            "[{id}] {:.0} ms: {} scenes sampled, {} images rendered, {} sampler iterations\n",
            report.wall_ms,
            report.counters.scenes,
            report.counters.images,
            report.counters.iterations
        );
        reports.push(report);
    }
    let run_config = RunConfig {
        scale: cfg.scale,
        seed: cfg.seed,
    };
    if let Some(path) = &options.json_out {
        std::fs::write(path, report::to_json(&reports, &run_config))
            .map_err(|e| format!("{path}: {e}"))?;
        err!("wrote {path}\n");
    }
    if let Some(path) = &options.md_out {
        std::fs::write(path, report::to_markdown(&reports, &run_config))
            .map_err(|e| format!("{path}: {e}"))?;
        err!("wrote {path}\n");
    }
    if options.stats {
        let cache = scenic::bench::exp_cache();
        err!(
            "compiled {} scenario(s), {} cache hit(s)\n",
            cache.misses(),
            cache.hits(),
        );
    }
    let held: usize = reports
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| c.holds)
        .count();
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    out!("{held}/{total} shape checks hold\n");
    Ok(if held == total {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `serve`: run the scenicd daemon on the calling thread until a client
/// asks it to shut down.
fn serve(options: &Options) -> Result<ExitCode, CliError> {
    let addr = format!("{}:{}", options.host, options.port);
    let server = Server::bind(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke test) parse this line for the port, so
    // it must hit the pipe before the accept loop blocks.
    out!("scenicd listening on {local}\n");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())?;
    err!("scenicd: shut down\n");
    Ok(ExitCode::SUCCESS)
}

/// `client sample`: stream batches from the daemon, printing exactly
/// what `scenic sample` prints for the same options (same separators,
/// same renderer, same per-round seeds) — byte-identical output.
fn client_sample(options: &Options, client: &mut Client, files: &[String]) -> Result<(), CliError> {
    let multi_file = files.len() > 1;
    for file in files {
        let source = read_source(file)?;
        for rep in 0..options.repeat {
            let seed = options.seed.wrapping_add(rep as u64);
            if options.format == "summary" && (multi_file || options.repeat > 1) {
                out!("=== {file} (round {rep}, seed {seed}) ===\n");
            }
            let request = SampleRequest {
                source: source.clone(),
                world: options.world.clone(),
                name: file_stem(file),
                n: options.n,
                seed,
                jobs: options.jobs.unwrap_or(0),
                prune: false,
                engine: options.engine.to_string(),
                format: options.format.clone(),
                timeout_ms: options.timeout_ms,
            };
            client
                .sample(&request, |i, text| {
                    if options.n > 1 && options.format == "summary" {
                        out!("--- scene {i} ---\n");
                    }
                    out!("{text}");
                })
                .map_err(client_err)?;
        }
    }
    Ok(())
}

/// `client`: one action against a running daemon.
fn client_command(options: &Options) -> Result<ExitCode, CliError> {
    let (action, files) = options
        .files
        .split_first()
        .expect("parse_args requires an action");
    let mut client = Client::connect_retry(options.addr.as_str(), Duration::from_secs(5))
        .map_err(|e| format!("{}: {e}", options.addr))?;
    match action.as_str() {
        "sample" => {
            if files.is_empty() {
                return Err("client sample needs at least one file".to_string().into());
            }
            client_sample(options, &mut client, files)?;
            Ok(ExitCode::SUCCESS)
        }
        "compile" => {
            if files.is_empty() {
                return Err("client compile needs at least one file".to_string().into());
            }
            for file in files {
                let source = read_source(file)?;
                match client
                    .request(&Request::Compile {
                        source,
                        world: options.world.clone(),
                    })
                    .map_err(client_err)?
                {
                    Response::Compiled {
                        cached,
                        source_hash,
                    } => out!(
                        "{file}: compiled ({}, hash {source_hash:016x})\n",
                        if cached { "cache hit" } else { "cached now" },
                    ),
                    other => return Err(format!("unexpected daemon reply: {other:?}").into()),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            if files.is_empty() {
                return Err("client lint needs at least one file".to_string().into());
            }
            let mut any_error = false;
            for file in files {
                let source = read_source(file)?;
                match client
                    .request(&Request::Lint {
                        file: file.clone(),
                        source,
                        world: options.world.clone(),
                    })
                    .map_err(client_err)?
                {
                    Response::Lint {
                        text,
                        errors,
                        warnings,
                        infos,
                    } => {
                        out!("{text}");
                        err!("{file}: {errors} error(s), {warnings} warning(s), {infos} note(s)\n");
                        any_error |= errors > 0;
                    }
                    other => return Err(format!("unexpected daemon reply: {other:?}").into()),
                }
            }
            Ok(if any_error {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        "status" | "stats" => {
            let stats = client.stats(action == "stats").map_err(client_err)?;
            out!(
                "scenicd up {:.1} s: {} request(s), {} in flight, {} scene(s) served\n",
                stats.uptime_ms as f64 / 1000.0,
                stats.requests,
                stats.in_flight,
                stats.scenes_served,
            );
            out!(
                "cache: {} scenario(s), {} hit(s), {} miss(es); {} protocol error(s)\n",
                stats.cache_entries,
                stats.cache_hits,
                stats.cache_misses,
                stats.protocol_errors,
            );
            for (name, scenes) in &stats.per_scenario {
                out!("  {name}: {scenes} scene(s)\n");
            }
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            let uptime_ms = client.health().map_err(client_err)?;
            out!("ok (up {uptime_ms} ms)\n");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            client.shutdown().map_err(client_err)?;
            out!("scenicd shutting down\n");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown client action `{other}` (expected sample, compile, lint, status, stats, \
             health, or shutdown)"
        )
        .into()),
    }
}

fn run(options: &Options) -> Result<ExitCode, CliError> {
    match options.command.as_str() {
        "print" => {
            for file in &options.files {
                let source = read_source(file)?;
                let program = scenic::lang::parse(&source)
                    .map_err(|e| scenic_err(file, &source, ScenicError::Parse(e)))?;
                out!("{}", scenic::lang::print_program(&program));
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let world = build_world(&options.world);
            let cache = ScenarioCache::new();
            let mut failed = false;
            for file in &options.files {
                let source = read_source(file)?;
                match cache.get_or_compile(&options.world, &source, &world.core) {
                    Ok(scenario) => {
                        let diags = analyze(&scenario);
                        // `check` reports problems; the I2xx pruning
                        // narration stays in `lint`.
                        let shown: Vec<Diagnostic> = diags
                            .iter()
                            .filter(|d| d.severity > Severity::Info)
                            .cloned()
                            .collect();
                        if !shown.is_empty() {
                            err!("{}", render_text(&shown, file, &source));
                        }
                        if shown.iter().any(|d| d.severity == Severity::Error) {
                            failed = true;
                        } else {
                            err!("{file}: ok\n");
                        }
                    }
                    Err(err) => {
                        let d = Diagnostic::from_error(&err);
                        err!("{}", render_text(&[d], file, &source));
                        failed = true;
                    }
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "lint" => {
            let world = build_world(&options.world);
            let cache = ScenarioCache::new();
            let mut any_error = false;
            let mut any_warning = false;
            for file in &options.files {
                let source = read_source(file)?;
                let diags = match cache.get_or_compile(&options.world, &source, &world.core) {
                    Ok(scenario) => analyze(&scenario),
                    Err(err) => vec![Diagnostic::from_error(&err)],
                };
                any_error |= diags.iter().any(|d| d.severity == Severity::Error);
                any_warning |= diags.iter().any(|d| d.severity == Severity::Warning);
                if options.format == "json" {
                    out!("{}", render_json(&diags, file));
                } else {
                    out!("{}", render_text(&diags, file, &source));
                    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
                    err!(
                        "{file}: {} error(s), {} warning(s), {} note(s)\n",
                        count(Severity::Error),
                        count(Severity::Warning),
                        count(Severity::Info),
                    );
                }
            }
            Ok(if any_error {
                ExitCode::from(2)
            } else if any_warning && options.deny_warnings {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "sample" => {
            let world = build_world(&options.world);
            let jobs = options.jobs.unwrap_or_else(default_jobs);
            if let Some(dir) = &options.out {
                std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            }
            // One cache for the whole invocation: a scenario listed
            // twice, or sampled for --repeat rounds, compiles once.
            let cache = ScenarioCache::new();
            let mut total = SamplerStats::default();
            let stems = unique_stems(&options.files);
            for (file, stem) in options.files.iter().zip(&stems) {
                let source = read_source(file)?;
                for rep in 0..options.repeat {
                    let scenario = cache
                        .get_or_compile(&options.world, &source, &world.core)
                        .map_err(|e| scenic_err(file, &source, e))?;
                    sample_round(
                        options, &world, &scenario, file, &source, stem, rep, jobs, &mut total,
                    )?;
                }
            }
            if options.stats {
                err!("engine: {}\n", options.engine);
                err!(
                    "{} scenes, {} iterations ({:.1}/scene); rejections: \
                     {} requirement, {} collision, {} containment, {} visibility\n",
                    total.scenes,
                    total.iterations,
                    total.iterations_per_scene(),
                    total.requirement_rejections,
                    total.collision_rejections,
                    total.containment_rejections,
                    total.visibility_rejections,
                );
                err!(
                    "compiled {} scenario(s), {} cache hit(s)\n",
                    cache.misses(),
                    cache.hits(),
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "prune-report" => {
            let world = build_world(&options.world);
            prune_report(options, &world)?;
            Ok(ExitCode::SUCCESS)
        }
        "exp" => exp_command(options),
        "serve" => serve(options),
        "client" => client_command(options),
        other => Err(CliError::Other(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    if wants_help(std::env::args()) {
        out!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(std::env::args()) {
        Ok(options) => match run(&options) {
            Ok(code) => code,
            Err(CliError::Scenic { file, source, err }) => {
                let d = Diagnostic::from_error(&err);
                err!("{}", render_text(&[d], &file, &source));
                ExitCode::FAILURE
            }
            Err(CliError::Other(message)) => {
                err!("error: {message}\n");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            err!("error: {message}\n\n");
            err!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
