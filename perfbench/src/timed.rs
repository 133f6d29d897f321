//! The untraced runs (`--trace 0`): end-to-end metrics, then the output
//! checks and the work counters, both outside the timed region.
//!
//! Every time here is CPU time: of this process for in-process batches
//! and set-up, of the client thread plus the daemon thread serving it
//! for a request, of the child for a CLI process. The machine's cores
//! are shared with other tenants; CPU time leaves out the time they
//! run, which wall time does not, and the reference kernel of
//! [`Calibration`] takes out how much they slow this one down.

use crate::common::{
    children_cpu_s, children_peak_rss_mb, Calibration, cycled_seed, median_setup, peak_rss_mb, percentile,
    current_tid, prepare, print_counters, process_cpu_s, sampler, source_path, thread_cpu_s, thread_cpu_s_of,
    threads_named, world_of, Counters, Prepared, Report, Tally, JOBS, OUT_DIR, SEED_CYCLE,
};
use crate::{Options, Workload};
use scenic_core::{batch_digest, BatchReport, Engine, SamplerStats, Scene};
use scenic_serve::proto::SampleRequest;
use scenic_serve::{Client, Server};
use scenic_sim::{render_scene, to_gta_json_lines, RenderedImage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Scenes per batch checked against the AST engine, the independent
/// reference interpreter.
const AST_PREFIX: usize = 2;

/// Requests per daemon client whose streams are checked byte for byte.
const DAEMON_PREFIX: usize = 5;

pub fn run(options: &Options) -> Result<Report, String> {
    match options.workload {
        Workload::RejectHeavy | Workload::Dataset => in_process(options),
        Workload::ColdCli => cold_cli(options),
        Workload::Daemon => daemon(options),
    }
}

/// One timed operation: a batch, a CLI process or a daemon request.
struct Op {
    scenario: usize,
    cpu_ms: f64,
    wall_ms: f64,
    candidates: usize,
    scenes: usize,
}

/// Mean over the scenarios of a per-scenario figure, so that the mix of
/// operations a run happened to finish does not weigh in.
fn per_scenario_mean(ops: &[Op], scenarios: usize, figure: impl Fn(&[&Op]) -> f64) -> f64 {
    let figures: Vec<f64> = (0..scenarios)
        .map(|i| ops.iter().filter(|op| op.scenario == i).collect::<Vec<_>>())
        .filter(|ops| !ops.is_empty())
        .map(|ops| figure(&ops))
        .collect();
    figures.iter().sum::<f64>() / figures.len() as f64
}

/// The end-to-end metrics every workload reports, times scaled to the
/// reference machine. On `reject_heavy` an operation's CPU time is
/// taken per 1,000 candidates, since a batch's candidate count is
/// geometric and mostly measures its seed's luck.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    tally: Tally,
    setup_s: f64,
    ops: &[Op],
    scenarios: usize,
    per_candidate: bool,
    peak_rss_mb: f64,
    work: &Counters,
    mut calibration: Calibration,
) -> Report {
    let scale = calibration.scale();
    let op_ms = |op: &&Op| {
        scale
            * if per_candidate {
                op.cpu_ms * 1e3 / op.candidates as f64
            } else {
                op.cpu_ms
            }
    };
    let quantile = |q: f64| {
        per_scenario_mean(ops, scenarios, |ops| {
            percentile(&mut ops.iter().map(op_ms).collect::<Vec<_>>(), q)
        })
    };
    let mean = per_scenario_mean(ops, scenarios, |ops| {
        ops.iter().map(op_ms).sum::<f64>() / ops.len() as f64
    });
    let scenes: usize = ops.iter().map(|op| op.scenes).sum();
    let cpu_s: f64 = ops.iter().map(|op| op.cpu_ms).sum::<f64>() / 1e3;
    let mut wall_ms: Vec<f64> = ops.iter().map(|op| op.wall_ms).collect();
    println!("timed work: {}", work.to_json());
    println!(
        "{} operations: {scenes} scenes in {cpu_s:.3} CPU s ({:.1} scenes per CPU s, \
         unscaled); wall p50 {:.3} ms; scaled CPU p99 {:.3} ms; unscaled set-up {setup_s:.5} s",
        ops.len(),
        scenes as f64 / cpu_s,
        percentile(&mut wall_ms, 0.5),
        quantile(0.99),
    );
    let mut report = Report::new(tally);
    report.metric("setup_s", setup_s * scale, "s");
    report.metric("op_cpu_mean_ms", mean, "ms");
    report.metric("op_cpu_p50_ms", quantile(0.5), "ms");
    report.metric("op_cpu_p90_ms", quantile(0.9), "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report
}

/// What `dataset` produces per accepted scene, as `Dataset::generate`
/// and `scenic sample --format` do.
#[derive(PartialEq)]
pub struct SceneOutput {
    image: RenderedImage,
    gta: String,
    json: String,
}

pub fn render_all(scenes: &[Scene]) -> Vec<SceneOutput> {
    scenes
        .iter()
        .map(|scene| SceneOutput {
            image: render_scene(scene),
            gta: to_gta_json_lines(scene),
            json: scene.to_json(),
        })
        .collect()
}

/// `reject_heavy` and `dataset`: rounds of one batch per scenario at
/// jobs 2 until the time is up, at least one full cycle of seeds.
fn in_process(options: &Options) -> Result<Report, String> {
    let mix = options.workload.mix();
    let names: Vec<&'static str> = mix.iter().map(|(name, _)| *name).collect();
    let (setup_s, prepared) = median_setup(|| prepare(&names))?;
    let output = options.workload == Workload::Dataset;
    let peak_ops = options.workload.peak_ops();

    let mut tally = Tally::default();
    let mut work = Counters::default();
    let mut first_round: Vec<Option<(BatchReport, Vec<SceneOutput>)>> = Vec::new();
    let mut ops = Vec::new();
    let mut attempted = 0;
    let mut peak = f64::NAN;
    let mut calibration = Calibration::new();
    let start = Instant::now();
    'run: for round in 0.. {
        for (i, (p, &(_, n))) in prepared.iter().zip(&mix).enumerate() {
            if attempted == peak_ops {
                peak = peak_rss_mb();
            }
            if round >= SEED_CYCLE
                && attempted >= peak_ops
                && start.elapsed().as_secs_f64() >= options.seconds
            {
                break 'run;
            }
            attempted += 1;
            let (wall, cpu) = (Instant::now(), process_cpu_s());
            let result = sampler(
                &p.scenario,
                cycled_seed(options.seed, i, round),
                Engine::Compiled,
            )
            .sample_batch_report(n, JOBS);
            let outputs = match &result {
                Ok(batch) if output => black_box(render_all(&batch.scenes)),
                _ => Vec::new(),
            };
            let cpu_ms = (process_cpu_s() - cpu) * 1e3;
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            calibration.pace(cpu_ms);
            let batch = tally.op(p.name, result);
            if let Some(batch) = &batch {
                let stats = batch.total_stats();
                work.add_stats(&stats);
                ops.push(Op {
                    scenario: i,
                    cpu_ms,
                    wall_ms,
                    candidates: stats.iterations,
                    scenes: stats.scenes,
                });
            }
            if round == 0 {
                first_round.push(batch.map(|b| (b, outputs)));
            }
        }
    }

    let mut counters = Counters::default();
    for (i, (p, &(_, n))) in prepared.iter().zip(&mix).enumerate() {
        let Some((timed, outputs)) = &first_round[i] else {
            continue;
        };
        let seed = cycled_seed(options.seed, i, 0);
        let serial = sampler(&p.scenario, seed, Engine::Compiled).sample_batch_report(n, 1);
        if let Some(serial) = tally.op(&format!("{} jobs-1 resample", p.name), serial) {
            tally.check(
                &format!("{}: jobs 1 and jobs {JOBS} give identical digests", p.name),
                same_batch(&serial, timed, n),
            );
            if output {
                tally.check(
                    &format!("{}: identical render/export/JSON at jobs 1", p.name),
                    render_all(&serial.scenes) == *outputs,
                );
            }
            counters.add_stats(&serial.total_stats());
        }
        let ast =
            sampler(&p.scenario, seed, Engine::Ast).sample_batch_report_range(0, AST_PREFIX, JOBS);
        if let Some(ast) = tally.op(&format!("{} AST reference", p.name), ast) {
            tally.check(
                &format!("{}: the AST engine gives identical digests", p.name),
                same_batch(&ast, timed, AST_PREFIX),
            );
        }
    }
    print_counters(options.workload.name(), options.seed, &counters);
    Ok(end_to_end(
        tally,
        setup_s,
        &ops,
        mix.len(),
        options.workload == Workload::RejectHeavy,
        peak,
        &work,
        calibration,
    ))
}

/// Whether the first `n` scenes and per-scene statistics agree.
pub fn same_batch(a: &BatchReport, b: &BatchReport, n: usize) -> bool {
    a.scenes.len() >= n
        && b.scenes.len() >= n
        && batch_digest(&a.scenes[..n]) == batch_digest(&b.scenes[..n])
        && a.per_scene[..n] == b.per_scene[..n]
}

/// The release `scenic` binary `run.sh` built.
pub fn scenic_binary() -> Result<PathBuf, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&dir).join("release").join("scenic");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release --bin scenic`",
            bin.display()
        ))
    }
}

/// A fresh, empty directory for the CLI's `SCENIC_STORE`.
pub fn fresh_store(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One `scenic sample <file> --world W -n N --jobs J` process.
pub struct Spawned {
    /// Wall time from spawn to exit, ms.
    pub wall_ms: f64,
    /// The child's user plus system CPU time, ms.
    pub cpu_ms: f64,
    pub stdout: String,
}

pub fn spawn_cli(
    bin: &Path,
    store: &Path,
    name: &str,
    seed: u64,
    n: usize,
    jobs: usize,
) -> Result<Spawned, String> {
    let (wall, cpu) = (Instant::now(), children_cpu_s());
    let out = Command::new(bin)
        .args(["sample", &source_path(name), "--world", world_of(name)])
        .args(["-n", &n.to_string(), "--jobs", &jobs.to_string()])
        .args(["--seed", &seed.to_string(), "--format", "json"])
        .env("SCENIC_STORE", store)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let cpu_ms = (children_cpu_s() - cpu) * 1e3;
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("{name}: stdout: {e}"))?;
    Ok(Spawned {
        wall_ms,
        cpu_ms,
        stdout,
    })
}

/// The scenes `scenic sample --format json` prints for this batch.
pub fn expected_stdout(
    p: &Prepared,
    seed: u64,
    n: usize,
    engine: Engine,
) -> Result<String, String> {
    let scenes = sampler(&p.scenario, seed, engine)
        .sample_batch(n, 1)
        .map_err(|e| format!("{}: {e}", p.name))?;
    Ok(scenes.iter().map(Scene::to_json).collect())
}

/// `cold_cli`: fresh CLI processes over a fixed rotation until the time
/// is up, at least one full cycle of seeds.
fn cold_cli(options: &Options) -> Result<Report, String> {
    let names: Vec<&'static str> = options
        .workload
        .mix()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    let bin = scenic_binary()?;
    let mut store = PathBuf::new();
    let (setup_s, prepared) = median_setup(|| {
        let prepared = prepare(&names)?;
        store = fresh_store("cold_cli")?;
        // One warm spawn pages the binary in.
        spawn_cli(&bin, &store, "simplest", 0, 1, 1)?;
        Ok(prepared)
    })?;

    let mut tally = Tally::default();
    let mut runs = Vec::new();
    let mut calibration = Calibration::new();
    let start = Instant::now();
    for k in 0.. {
        if k >= names.len() * SEED_CYCLE && start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
        let i = k % names.len();
        let seed = cycled_seed(options.seed, i, k / names.len());
        if let Some(spawned) = tally.op(names[i], spawn_cli(&bin, &store, names[i], seed, 1, 1)) {
            calibration.pace(spawned.cpu_ms);
            runs.push((i, seed, spawned));
        }
    }
    let peak = children_peak_rss_mb();

    // The in-process result of each (scenario, seed), and for the first
    // cycle the AST engine's too.
    let mut expected: BTreeMap<(usize, u64), Option<(String, SamplerStats)>> = BTreeMap::new();
    let mut counters = Counters::default();
    for (i, seed, _) in &runs {
        if expected.contains_key(&(*i, *seed)) {
            continue;
        }
        let p = &prepared[*i];
        let local = sampler(&p.scenario, *seed, Engine::Compiled).sample_batch_report(1, 1);
        let local = tally.op(&format!("{} in-process resample", p.name), local);
        if let Some(local) = &local {
            if *seed == cycled_seed(options.seed, *i, 0) {
                counters.add_stats(&local.total_stats());
            }
        }
        let local = local.map(|l| {
            let text: String = l.scenes.iter().map(Scene::to_json).collect();
            (text, l.total_stats())
        });
        let ast = expected_stdout(p, *seed, 1, Engine::Ast);
        if let (Some(ast), Some((text, _))) = (
            tally.op(&format!("{} AST reference", p.name), ast),
            &local,
        ) {
            tally.check(
                &format!("{} seed {seed}: the AST engine gives the same scene", p.name),
                ast == *text,
            );
        }
        expected.insert((*i, *seed), local);
    }
    let mut work = Counters::default();
    let mut ops = Vec::new();
    for (i, seed, spawned) in &runs {
        let Some((text, stats)) = &expected[&(*i, *seed)] else {
            continue;
        };
        tally.check(
            &format!(
                "{} seed {seed}: CLI stdout equals the in-process scene",
                names[*i]
            ),
            spawned.stdout == *text,
        );
        work.add_stats(stats);
        ops.push(Op {
            scenario: *i,
            cpu_ms: spawned.cpu_ms,
            wall_ms: spawned.wall_ms,
            candidates: stats.iterations,
            scenes: stats.scenes,
        });
    }
    work.add("requests", runs.len() as u64);
    // Untimed: --jobs 2 on a 2-scene batch prints what jobs 1 does.
    for (i, p) in prepared.iter().enumerate() {
        let seed = cycled_seed(options.seed, i, 0);
        let spawned = spawn_cli(&bin, &store, p.name, seed, 2, 2);
        let expected = expected_stdout(p, seed, 2, Engine::Compiled);
        if let (Some(spawned), Some(expected)) = (
            tally.op(&format!("{} --jobs 2", p.name), spawned),
            tally.op(&format!("{} in-process resample", p.name), expected),
        ) {
            tally.check(
                &format!("{}: CLI --jobs 2 equals the jobs-1 batch", p.name),
                spawned.stdout == expected,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    print_counters(options.workload.name(), options.seed, &counters);
    Ok(end_to_end(
        tally,
        setup_s,
        &ops,
        names.len(),
        false,
        peak,
        &work,
        calibration,
    ))
}

/// A JSON `Sample` request as the daemon workload sends it.
pub fn sample_request(p: &Prepared, seed: u64, n: usize) -> SampleRequest {
    SampleRequest {
        source: p.source.clone(),
        world: p.world().into(),
        name: p.name.into(),
        n,
        seed,
        jobs: 1,
        prune: true,
        engine: String::new(),
        format: "json".into(),
        timeout_ms: None,
    }
}

/// One client request of the `daemon` workload.
struct Served {
    scenario: usize,
    seed: u64,
    cpu_ms: f64,
    wall_ms: f64,
    /// `Done`'s scenes and iterations.
    done: (usize, usize),
    /// The streamed scene texts (kept for the checked prefix only).
    texts: Vec<String>,
}

/// CPU time of every thread of this process, by thread id.
fn thread_cpu_times() -> BTreeMap<i32, f64> {
    threads_named("")
        .into_iter()
        .map(|tid| (tid, thread_cpu_s_of(tid)))
        .collect()
}

/// Connects a client and finds the daemon thread that serves it: the
/// thread, other than this one, that gains the most CPU time during one
/// warm request on the connection.
fn connect_served(addr: std::net::SocketAddr, p: &Prepared) -> Result<(Client, i32), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let before = thread_cpu_times();
    client
        .sample_collect(&sample_request(p, 0, 1))
        .map_err(|e| format!("warm {}: {e}", p.name))?;
    let this = current_tid();
    thread_cpu_times()
        .into_iter()
        .filter(|(tid, _)| Some(*tid) != this)
        .map(|(tid, cpu)| (tid, cpu - before.get(&tid).copied().unwrap_or(0.0)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(tid, _)| (client, tid))
        .ok_or_else(|| "no daemon thread serves the connection".into())
}

/// `daemon`: an in-process server and a closed loop of 2 clients.
fn daemon(options: &Options) -> Result<Report, String> {
    let mix = options.workload.mix();
    let names: Vec<&'static str> = mix.iter().map(|(name, _)| *name).collect();
    let n = mix[0].1;
    let (setup_s, (prepared, server)) = median_setup(|| {
        let prepared = prepare(&names)?;
        let server = Server::bind("127.0.0.1:0")
            .and_then(Server::spawn)
            .map_err(|e| format!("daemon: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        // One warm request per scenario fills the daemon's cache.
        for p in &prepared {
            client
                .sample_collect(&sample_request(p, 0, 1))
                .map_err(|e| format!("warm {}: {e}", p.name))?;
        }
        Ok((prepared, server))
    })?;

    let addr = server.addr();
    let connections = (0..2)
        .map(|c| connect_served(addr, &prepared[c]))
        .collect::<Result<Vec<_>, _>>()?;
    let done = AtomicUsize::new(0);
    let peak = OnceLock::new();
    let start = Instant::now();
    let calibrations: Vec<Calibration> = (0..2).map(|_| Calibration::new()).collect();
    let clients: Vec<(Vec<Result<Served, String>>, Calibration)> = std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .into_iter()
            .zip(calibrations)
            .enumerate()
            .map(|(c, (connection, mut calibration))| {
                let (prepared, done, peak) = (&prepared, &done, &peak);
                scope.spawn(move || {
                    let served = client_loop(
                        connection,
                        &mut calibration,
                        prepared,
                        options,
                        c,
                        n,
                        start,
                        done,
                        peak,
                    );
                    (served, calibration)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let peak = peak.get().copied().unwrap_or(f64::NAN);

    let mut tally = Tally::default();
    let mut work = Counters::default();
    let mut counters = Counters::default();
    let mut ops = Vec::new();
    let mut requests = 0;
    let mut calibration = Calibration::new();
    for (c, (served, client_calibration)) in clients.into_iter().enumerate() {
        calibration.merge(client_calibration);
        for (k, result) in served.into_iter().enumerate() {
            requests += 1;
            let Some(s) = tally.op(&format!("client {c} request {k}"), result) else {
                continue;
            };
            work.add("scenes", s.done.0 as u64);
            work.add("candidates", s.done.1 as u64);
            ops.push(Op {
                scenario: s.scenario,
                cpu_ms: s.cpu_ms,
                wall_ms: s.wall_ms,
                candidates: s.done.1,
                scenes: s.done.0,
            });
            if k >= DAEMON_PREFIX {
                continue;
            }
            let p = &prepared[s.scenario];
            let local = sampler(&p.scenario, s.seed, Engine::Compiled).sample_batch_report(n, JOBS);
            if let Some(local) = tally.op(&format!("{} in-process resample", p.name), local) {
                let texts: Vec<String> = local.scenes.iter().map(Scene::to_json).collect();
                let stats = local.total_stats();
                tally.check(
                    &format!(
                        "{} seed {}: daemon stream equals in-process Scene::to_json",
                        p.name, s.seed
                    ),
                    texts == s.texts && s.done == (stats.scenes, stats.iterations),
                );
                // Client 0's prefix is the first round.
                if c == 0 {
                    counters.add_stats(&stats);
                }
            }
            let ast = expected_stdout(p, s.seed, AST_PREFIX, Engine::Ast);
            if let Some(ast) = tally.op(&format!("{} AST reference", p.name), ast) {
                tally.check(
                    &format!(
                        "{} seed {}: the AST engine gives the daemon's scenes",
                        p.name, s.seed
                    ),
                    s.texts.len() >= AST_PREFIX && ast == s.texts[..AST_PREFIX].concat(),
                );
            }
        }
    }
    let cache = server.state().cache();
    let (hits, misses) = (cache.hits() as u64, cache.misses() as u64);
    // The warm requests of set-up miss once per scenario; the 2 warm
    // requests that find the serving threads and every timed one hit.
    tally.check(
        "daemon cache: one miss per scenario, then only hits",
        misses == prepared.len() as u64 && hits == requests + 2,
    );
    work.add("requests", requests);
    work.add("cache_hits", hits);
    work.add("cache_misses", misses);
    server
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    print_counters(options.workload.name(), options.seed, &counters);
    Ok(end_to_end(
        tally,
        setup_s,
        &ops,
        prepared.len(),
        false,
        peak,
        &work,
        calibration,
    ))
}

/// One client's closed loop: a request, wait for `Done`, the next.
/// `done` counts both clients' requests; the one that completes the
/// workload's `peak_ops`-th request reads the peak RSS into `peak`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    (mut client, server_tid): (Client, i32),
    calibration: &mut Calibration,
    prepared: &[Prepared],
    options: &Options,
    c: usize,
    n: usize,
    start: Instant,
    done: &AtomicUsize,
    peak: &OnceLock<f64>,
) -> Vec<Result<Served, String>> {
    let mut served = Vec::new();
    let rounds = prepared.len() * SEED_CYCLE / 2;
    for k in 0.. {
        if k >= rounds
            && done.load(Ordering::SeqCst) >= options.workload.peak_ops()
            && start.elapsed().as_secs_f64() >= options.seconds
        {
            break;
        }
        // Client 0 takes the even rounds of each scenario, client 1 the
        // odd ones, so client 0's first requests are the first round.
        let scenario = (c + k) % prepared.len();
        let seed = cycled_seed(options.seed, scenario, 2 * (k / prepared.len()) + c);
        let request = sample_request(&prepared[scenario], seed, n);
        let mut texts = Vec::new();
        let (wall, cpu) = (Instant::now(), thread_cpu_s() + thread_cpu_s_of(server_tid));
        let result = client.sample(&request, |_, text| {
            if k < DAEMON_PREFIX {
                texts.push(text.to_string());
            }
        });
        let cpu_ms = (thread_cpu_s() + thread_cpu_s_of(server_tid) - cpu) * 1e3;
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        calibration.pace(cpu_ms);
        if done.fetch_add(1, Ordering::SeqCst) + 1 == options.workload.peak_ops() {
            let _ = peak.set(peak_rss_mb());
        }
        served.push(
            result
                .map(|(scenes, iterations, _)| Served {
                    scenario,
                    seed,
                    cpu_ms,
                    wall_ms,
                    done: (scenes, iterations),
                    texts,
                })
                .map_err(|e| e.to_string()),
        );
    }
    served
}
