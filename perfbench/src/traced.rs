//! The traced run (`--trace 1`): spans around the calls into each layer
//! on a fixed amount of work per workload, reported as the per-layer
//! metrics. Every workload's traced run covers every layer: set-up,
//! candidates, pool, scene output, daemon and CLI, on that workload's
//! own scenarios. The spans are written to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use crate::common::{
    build_world, median, op_seed, percentile, print_counters, read_source, sampler, world_of,
    Counters, Prepared, Report, Tally, JOBS, MAX_ITERATIONS, OUT_DIR, SETUPS,
};
use crate::timed::{
    expected_stdout, fresh_store, same_batch, sample_request, scenic_binary, spawn_cli,
};
use crate::trace::Tracer;
use crate::{Options, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenic_core::{
    compile_with_world, derive_scene_seed, Engine, Pruner, Rejection, Sampler, SamplerStats, Scene,
    ScenicError,
};
use scenic_serve::proto::{read_frame, read_response, write_request, Request, Response};
use scenic_serve::Server;
use scenic_sim::{render_scene, to_gta_json_lines};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The hidden sub-command of the traced fresh child process.
pub const PROBE_FLAG: &str = "--probe-cli";

/// Candidate outcomes, in report order.
const OUTCOMES: [&str; 7] = [
    "accepted",
    "requirement",
    "collision",
    "containment",
    "visibility",
    "empty_region",
    "prune",
];

/// Per-layer metric values by name.
type Metrics = BTreeMap<String, f64>;

/// Scenes per traced daemon request (as in the `daemon` workload).
const REQUEST_SCENES: usize = 8;

/// How much work each traced phase does.
struct Plan {
    /// Rounds of one in-process batch per scenario.
    rounds: usize,
    /// Daemon requests per client (2 clients).
    requests: usize,
    /// CLI spawns, and as many traced probe children, per scenario.
    spawns: usize,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::RejectHeavy => Plan {
            rounds: 2,
            requests: 4,
            spawns: 5,
        },
        Workload::Dataset => Plan {
            rounds: 10,
            requests: 10,
            spawns: 3,
        },
        Workload::ColdCli => Plan {
            rounds: 40,
            requests: 6,
            spawns: 8,
        },
        Workload::Daemon => Plan {
            rounds: 20,
            requests: 40,
            spawns: 3,
        },
    }
}

/// One scene of the traced candidate loop.
struct TracedScene {
    scene: Scene,
    stats: SamplerStats,
    /// The scene span's id (its group id too).
    span: usize,
    /// Time spent in this scene's candidate runs, µs.
    busy_us: f64,
}

pub fn run(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let plan = plan(workload);
    let mix = workload.mix();
    let names: Vec<&'static str> = mix.iter().map(|(name, _)| *name).collect();
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();

    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        prepared = traced_setup(&mut t, &names)?;
    }

    // Candidates: the sampler's documented seed-per-candidate loop with
    // one span per `Scenario::generate_with` call. Each batch also runs
    // untraced at jobs 1: the pair gives the tracing overhead and checks
    // that the trace measured the same work. The second run of a batch
    // is the faster one, so the order alternates.
    let mut batches = Vec::new();
    let mut pinned = Counters::default();
    let (mut traced_s, mut untraced_s, mut scenes) = (0.0, 0.0, 0);
    for round in 0..plan.rounds {
        for (i, (p, &(_, n))) in prepared.iter().zip(&mix).enumerate() {
            let seed = op_seed(options.seed, i, round);
            let mut untraced = || {
                let start = Instant::now();
                let serial = sampler(&p.scenario, seed, Engine::Compiled).sample_batch_report(n, 1);
                untraced_s += start.elapsed().as_secs_f64();
                serial
            };
            let untraced_first = batches.len() % 2 == 1;
            let early = untraced_first.then(&mut untraced);
            let start = Instant::now();
            let traced = traced_batch(&mut t, p, seed, n)?;
            traced_s += start.elapsed().as_secs_f64();
            let serial = early.unwrap_or_else(untraced);
            scenes += traced.len();
            if let Some(serial) = tally.op(&format!("{} untraced resample", p.name), serial) {
                tally.check(
                    &format!(
                        "{} seed {seed}: traced scenes and SamplerStats equal the untraced run's",
                        p.name
                    ),
                    same_batch(&batch_report(&traced), &serial, n),
                );
                // The first round, whose counters every mode prints.
                if round == 0 {
                    pinned.add_stats(&serial.total_stats());
                }
            }
            batches.push((i, seed, n, traced));
        }
    }
    metrics.insert("trace.scenes_per_s".into(), scenes as f64 / traced_s);
    metrics.insert(
        "trace.untraced_scenes_per_s".into(),
        scenes as f64 / untraced_s,
    );
    metrics.insert("trace.overhead".into(), traced_s / untraced_s - 1.0);

    // Pool: the same batches at jobs 2 against their serial busy time.
    let mut busy_us = 0.0;
    let mut capacity_us = 0.0;
    for (i, seed, n, traced) in &batches {
        let p = &prepared[*i];
        let id = t.open("pool.batch", None, 0);
        let pooled = sampler(&p.scenario, *seed, Engine::Compiled).sample_batch_report(*n, JOBS);
        t.close(id);
        if let Some(pooled) = tally.op(&format!("{} jobs-{JOBS} batch", p.name), pooled) {
            let serial = batch_report(traced);
            tally.check(
                &format!(
                    "{} seed {seed}: jobs 1 and jobs {JOBS} give identical digests",
                    p.name
                ),
                same_batch(&pooled, &serial, *n),
            );
        }
        busy_us += traced.iter().map(|s| s.busy_us).sum::<f64>();
        capacity_us += JOBS.min(*n) as f64 * t.spans[id].micros();
    }
    metrics.insert("pool.efficiency".into(), busy_us / capacity_us);

    // Scene output, one span per call, grouped with the scene.
    for (_, _, _, traced) in &batches {
        for s in traced {
            let group = s.span as u64;
            black_box(t.span("sim.render", None, group, || render_scene(&s.scene)));
            black_box(t.span("sim.export", None, group, || to_gta_json_lines(&s.scene)));
            black_box(t.span("core.scene_json", None, group, || s.scene.to_json()));
        }
    }

    candidate_metrics(&t, &batches, &prepared, &mut metrics);
    // mars_bottleneck exhausts the CLI's and the daemon's default budget
    // of 10,000 candidates on about 0.4% of scenes, so those phases skip it.
    let served: Vec<&Prepared> = prepared
        .iter()
        .filter(|p| p.name != "mars_bottleneck")
        .collect();
    daemon_phase(
        &mut t,
        &served,
        REQUEST_SCENES,
        options,
        &plan,
        &mut tally,
        &mut metrics,
    )?;
    cli_phase(&mut t, &served, options, &plan, &mut tally, &mut metrics)?;

    for (span, metric) in [
        ("setup", "setup.self_us"),
        ("scene", "scene.self_us"),
        ("serve.request", "serve.request.self_us"),
    ] {
        let count = t.spans.iter().filter(|s| s.name == span).count().max(1);
        let total_ms = t.self_ms().get(span).copied().unwrap_or(f64::NAN);
        metrics.insert(metric.into(), total_ms * 1e3 / count as f64);
    }
    println!("layer self time (ms, whole trace):");
    for (name, ms) in t.self_ms() {
        println!("  {name:<20} {ms:>12.3}");
    }
    write_trace(&t, workload.name(), options.seed);
    print_counters(workload.name(), options.seed, &pinned);

    let mut report = Report::new(tally);
    for (name, unit) in PER_LAYER {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        report.metric(name, value, unit);
    }
    Ok(report)
}

/// Every per-layer metric, with its unit, in report order.
const PER_LAYER: [(&str, &str); 45] = [
    ("world.build_ms", "ms"),
    ("lang.parse_us", "us"),
    ("core.compile_us", "us"),
    ("core.lower_us", "us"),
    ("core.prune_plan_us", "us"),
    ("sample.candidate_us.p50", "us"),
    ("sample.candidate_us.p99", "us"),
    ("sample.candidates_per_scene", "count"),
    ("sample.acceptance_ratio", "ratio"),
    ("sample.rejections.requirement", "count"),
    ("sample.rejections.collision", "count"),
    ("sample.rejections.containment", "count"),
    ("sample.rejections.visibility", "count"),
    ("sample.rejections.empty_region", "count"),
    ("sample.rejections.prune", "count"),
    ("sample.busy_us.accepted", "us"),
    ("sample.busy_us.requirement", "us"),
    ("sample.busy_us.collision", "us"),
    ("sample.busy_us.containment", "us"),
    ("sample.busy_us.visibility", "us"),
    ("sample.busy_us.empty_region", "us"),
    ("sample.busy_us.prune", "us"),
    ("prune.kill_ratio", "ratio"),
    ("pool.efficiency", "ratio"),
    ("sim.render_us", "us"),
    ("sim.export_us", "us"),
    ("core.scene_json_us", "us"),
    ("serve.server_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.frame_decode_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.inprocess_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("cli.world_ms", "ms"),
    ("cli.layers_ms", "ms"),
    ("cli.wall_ms", "ms"),
    ("trace.scenes_per_s", "1/s"),
    ("trace.untraced_scenes_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("setup.self_us", "us"),
    ("scene.self_us", "us"),
    ("serve.request.self_us", "us"),
    ("sample.requirement_share", "ratio"),
    ("sample.visibility_share", "ratio"),
    ("serve.per_scene_gap_us", "us"),
];

/// One set-up with a span around each layer call.
fn traced_setup(t: &mut Tracer, names: &[&'static str]) -> Result<Vec<Prepared>, String> {
    let setup = t.open("setup", None, 0);
    let mut worlds = BTreeMap::new();
    let mut prepared = Vec::new();
    for &name in names {
        let world_name = world_of(name);
        if !worlds.contains_key(world_name) {
            let world = t.span("world.build", Some(setup), 0, || build_world(world_name));
            worlds.insert(world_name, world);
        }
        let source = read_source(name)?;
        t.span("lang.parse", Some(setup), 0, || scenic_lang::parse(&source))
            .map_err(|e| format!("{name}: {e}"))?;
        let scenario = t
            .span("core.compile", Some(setup), 0, || {
                compile_with_world(&source, &worlds[world_name])
            })
            .map_err(|e| format!("{name}: {e}"))?;
        t.span("core.lower", Some(setup), 0, || scenario.compiled());
        t.span("core.prune_plan", Some(setup), 0, || scenario.prune_plan());
        prepared.push(Prepared {
            name,
            source,
            scenario,
        });
    }
    t.close(setup);
    Ok(prepared)
}

/// Counts one candidate run in `stats` and returns its outcome label;
/// `Err` for a program error.
fn outcome(
    result: &Result<Scene, ScenicError>,
    stats: &mut SamplerStats,
) -> Result<&'static str, String> {
    let (tag, counter) = match result {
        Ok(_) => ("accepted", &mut stats.scenes),
        Err(ScenicError::Rejected(r)) => match r {
            Rejection::Requirement { .. } => ("requirement", &mut stats.requirement_rejections),
            Rejection::Collision => ("collision", &mut stats.collision_rejections),
            Rejection::Containment => ("containment", &mut stats.containment_rejections),
            Rejection::Visibility => ("visibility", &mut stats.visibility_rejections),
            Rejection::EmptyRegion => ("empty_region", &mut stats.empty_region_rejections),
            Rejection::Pruned(Pruner::Containment) => {
                ("prune", &mut stats.prune_containment_rejections)
            }
            Rejection::Pruned(Pruner::Orientation) => {
                ("prune", &mut stats.prune_orientation_rejections)
            }
            Rejection::Pruned(Pruner::Size) => ("prune", &mut stats.prune_size_rejections),
        },
        Err(e) => return Err(e.to_string()),
    };
    *counter += 1;
    Ok(tag)
}

/// Samples the `n` scenes of one batch the way the sampler does, one
/// span per candidate inside one span per scene.
fn traced_batch(
    t: &mut Tracer,
    p: &Prepared,
    root_seed: u64,
    n: usize,
) -> Result<Vec<TracedScene>, String> {
    // The sampler drops a plan with no guards, so this does too.
    let plan = Some(p.scenario.prune_plan()).filter(|plan| !plan.is_empty());
    let mut scenes = Vec::new();
    for index in 0..n {
        let scene_span = t.open("scene", None, t.spans.len() as u64);
        let group = scene_span as u64;
        let mut seed_rng = StdRng::seed_from_u64(derive_scene_seed(root_seed, index as u64));
        let mut stats = SamplerStats::default();
        let mut busy_us = 0.0;
        let scene = loop {
            if stats.iterations == MAX_ITERATIONS {
                return Err(format!("{}: candidate budget exhausted", p.name));
            }
            stats.iterations += 1;
            let mut run_rng = StdRng::seed_from_u64(seed_rng.gen());
            let id = t.open("sample.candidate", Some(scene_span), group);
            let result = p
                .scenario
                .generate_with(&mut run_rng, plan.as_deref(), Engine::Compiled);
            t.close(id);
            busy_us += t.spans[id].micros();
            t.spans[id].tag =
                outcome(&result, &mut stats).map_err(|e| format!("{}: {e}", p.name))?;
            if let Ok(scene) = result {
                break scene;
            }
        };
        t.close(scene_span);
        scenes.push(TracedScene {
            scene,
            stats,
            span: scene_span,
            busy_us,
        });
    }
    Ok(scenes)
}

fn batch_report(traced: &[TracedScene]) -> scenic_core::BatchReport {
    scenic_core::BatchReport {
        scenes: traced.iter().map(|s| s.scene.clone()).collect(),
        per_scene: traced.iter().map(|s| s.stats).collect(),
    }
}

/// Set-up, candidate and scene-output metrics from the spans.
fn candidate_metrics(
    t: &Tracer,
    batches: &[(usize, u64, usize, Vec<TracedScene>)],
    prepared: &[Prepared],
    metrics: &mut Metrics,
) {
    // Set-up layers: the time per set-up (all of the workload's
    // scenarios), median over the set-ups.
    let per_setup = |name: &str| {
        let mut totals: BTreeMap<usize, f64> = BTreeMap::new();
        for s in t.spans.iter().filter(|s| s.name == name) {
            *totals
                .entry(s.parent.expect("set-up spans have a parent"))
                .or_default() += s.micros();
        }
        median(&mut totals.into_values().collect::<Vec<_>>())
    };
    metrics.insert("world.build_ms".into(), per_setup("world.build") / 1e3);
    metrics.insert("lang.parse_us".into(), per_setup("lang.parse"));
    metrics.insert("core.compile_us".into(), per_setup("core.compile"));
    metrics.insert("core.lower_us".into(), per_setup("core.lower"));
    metrics.insert("core.prune_plan_us".into(), per_setup("core.prune_plan"));
    let med = |name: &str| median(&mut t.micros(name));
    metrics.insert("sim.render_us".into(), med("sim.render"));
    metrics.insert("sim.export_us".into(), med("sim.export"));
    metrics.insert("core.scene_json_us".into(), med("core.scene_json"));
    let mut candidate_us = t.micros("sample.candidate");
    metrics.insert(
        "sample.candidate_us.p50".into(),
        percentile(&mut candidate_us, 0.5),
    );
    metrics.insert(
        "sample.candidate_us.p99".into(),
        percentile(&mut candidate_us, 0.99),
    );

    // Busy time and counts by outcome, per scenario and in total.
    let mut scenario_of_scene = BTreeMap::new();
    for (i, _, _, traced) in batches {
        for s in traced {
            scenario_of_scene.insert(s.span, prepared[*i].name);
        }
    }
    let mut by_scenario: BTreeMap<&str, BTreeMap<&str, (u64, f64)>> = BTreeMap::new();
    for span in t.spans.iter().filter(|s| s.name == "sample.candidate") {
        let scenario = scenario_of_scene[&span.parent.expect("candidate spans have a scene")];
        let entry = by_scenario
            .entry(scenario)
            .or_default()
            .entry(span.tag)
            .or_default();
        entry.0 += 1;
        entry.1 += span.micros();
    }
    let mut total: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    println!("candidate busy time by outcome (count, us per accepted scene, share of busy time):");
    for (scenario, outcomes) in &by_scenario {
        let accepted = outcomes.get("accepted").map_or(1, |o| o.0) as f64;
        let busy: f64 = outcomes.values().map(|o| o.1).sum();
        for outcome in OUTCOMES {
            let (count, us) = outcomes.get(outcome).copied().unwrap_or_default();
            let e = total.entry(outcome).or_default();
            e.0 += count;
            e.1 += us;
            if count > 0 {
                println!(
                    "  {scenario:<18} {outcome:<13} {count:>8} {:>12.1} {:>7.1}%",
                    us / accepted,
                    100.0 * us / busy
                );
            }
        }
    }
    let scenes = total["accepted"].0 as f64;
    let candidates: u64 = total.values().map(|o| o.0).sum();
    let busy: f64 = total.values().map(|o| o.1).sum();
    metrics.insert(
        "sample.candidates_per_scene".into(),
        candidates as f64 / scenes,
    );
    metrics.insert("sample.acceptance_ratio".into(), scenes / candidates as f64);
    metrics.insert(
        "prune.kill_ratio".into(),
        total["prune"].0 as f64 / candidates as f64,
    );
    metrics.insert(
        "sample.requirement_share".into(),
        total["requirement"].1 / busy,
    );
    metrics.insert(
        "sample.visibility_share".into(),
        total["visibility"].1 / busy,
    );
    for outcome in OUTCOMES {
        let (count, us) = total[outcome];
        if outcome != "accepted" {
            metrics.insert(format!("sample.rejections.{outcome}"), count as f64);
        }
        metrics.insert(format!("sample.busy_us.{outcome}"), us / scenes);
    }
}

/// One traced daemon request: client latency, `Done.elapsed_ms`, the
/// streamed texts.
struct TracedRequest {
    scenario: usize,
    seed: u64,
    latency_ms: f64,
    server_ms: f64,
    texts: Vec<String>,
}

/// Two clients against an in-process daemon, each frame decoded by
/// `proto::read_response` inside its own span.
#[allow(clippy::too_many_arguments)]
fn daemon_phase(
    t: &mut Tracer,
    served: &[&Prepared],
    n: usize,
    options: &Options,
    plan: &Plan,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let server = Server::bind("127.0.0.1:0")
        .and_then(Server::spawn)
        .map_err(|e| format!("daemon: {e}"))?;
    let addr = server.addr();
    let origin = t.origin();
    let results: Vec<(Tracer, Vec<Result<TracedRequest, String>>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut t = Tracer::new(origin);
                    let requests =
                        traced_client(&mut t, addr, served, n, options.seed, c, plan.requests);
                    (t, requests)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let cache = server.state().cache();
    let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
    server
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    metrics.insert("serve.cache_hit_ratio".into(), hits / (hits + misses));

    let mut server_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut inprocess = Vec::new();
    let mut gap = Vec::new();
    for (client_trace, requests) in results {
        t.merge(client_trace);
        for (k, request) in requests.into_iter().enumerate() {
            let Some(r) = tally.op(&format!("traced daemon request {k}"), request) else {
                continue;
            };
            server_ms.push(r.server_ms);
            overhead.push(r.latency_ms - r.server_ms);
            // The daemon's work without the daemon: sample the same
            // request in-process and render every scene as JSON.
            let p = served[r.scenario];
            let start = Instant::now();
            let local = Sampler::new(&p.scenario)
                .with_seed(r.seed)
                .with_pruning()
                .sample_batch(n, 1)
                .map(|scenes| scenes.iter().map(Scene::to_json).collect::<Vec<_>>());
            let local_ms = start.elapsed().as_secs_f64() * 1e3;
            inprocess.push(local_ms);
            gap.push((r.latency_ms - local_ms) * 1e3 / n as f64);
            if let Some(local) = tally.op(&format!("{} in-process resample", p.name), local) {
                tally.check(
                    &format!(
                        "{} seed {}: daemon stream equals in-process Scene::to_json",
                        p.name, r.seed
                    ),
                    local == r.texts,
                );
            }
        }
    }
    metrics.insert("serve.server_ms".into(), median(&mut server_ms));
    metrics.insert("serve.overhead_ms".into(), median(&mut overhead));
    metrics.insert(
        "serve.frame_decode_us".into(),
        median(&mut t.micros("serve.frame_decode")),
    );
    metrics.insert("serve.inprocess_ms".into(), median(&mut inprocess));
    metrics.insert("serve.per_scene_gap_us".into(), median(&mut gap));
    Ok(())
}

fn traced_client(
    t: &mut Tracer,
    addr: std::net::SocketAddr,
    served: &[&Prepared],
    n: usize,
    seed: u64,
    c: usize,
    count: usize,
) -> Vec<Result<TracedRequest, String>> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => return vec![Err(format!("connect: {e}"))],
    };
    let _ = stream.set_nodelay(true);
    (0..count)
        .map(|k| {
            let scenario = (c + k) % served.len();
            let seed = op_seed(seed, 100 + c, k);
            let group = ((c as u64 + 1) << 32) | k as u64;
            let span = t.open("serve.request", None, group);
            let request = Request::Sample(sample_request(served[scenario], seed, n));
            write_request(&mut stream, &request).map_err(|e| e.to_string())?;
            let mut texts = Vec::new();
            let server_ms = loop {
                let body = read_frame(&mut stream)
                    .map_err(|e| e.to_string())?
                    .ok_or("daemon closed the connection")?;
                let mut frame = u32::try_from(body.len())
                    .expect("frame fits u32")
                    .to_be_bytes()
                    .to_vec();
                frame.extend_from_slice(&body);
                let response = t
                    .span("serve.frame_decode", Some(span), group, || {
                        read_response(&mut frame.as_slice())
                    })
                    .map_err(|e| e.to_string())?;
                match response {
                    Some(Response::Scene { text, .. }) => texts.push(text),
                    Some(Response::Done { elapsed_ms, .. }) => break elapsed_ms,
                    other => return Err(format!("unexpected reply {other:?}")),
                }
            };
            t.close(span);
            Ok(TracedRequest {
                scenario,
                seed,
                latency_ms: t.spans[span].micros() / 1e3,
                server_ms,
                texts,
            })
        })
        .collect()
}

/// Fresh `scenic sample` processes, each paired with a traced fresh
/// child that times the same layers the CLI runs.
fn cli_phase(
    t: &mut Tracer,
    served: &[&Prepared],
    options: &Options,
    plan: &Plan,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let bin = scenic_binary()?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let store = fresh_store("trace")?;
    // Page both binaries in.
    let _ = spawn_cli(&bin, &store, served[0].name, 0, 1, 1);
    let _ = probe(&exe, served[0].name, 0);
    // Per scenario: median CLI wall, median probe layers, median probe
    // world build.
    let mut rows = Vec::new();
    for (i, p) in served.iter().enumerate() {
        let (mut wall, mut layers, mut world) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..plan.spawns {
            let seed = op_seed(options.seed, 200 + i, s);
            let group = ((i as u64 + 1) << 40) | s as u64;
            let cli = t.span("cli.process", None, group, || {
                spawn_cli(&bin, &store, p.name, seed, 1, 1)
            });
            let probed = t.span("cli.probe", None, group, || probe(&exe, p.name, seed));
            let (Some(spawned), Some(layer_ms)) = (
                tally.op(p.name, cli),
                tally.op(&format!("{} probe", p.name), probed),
            ) else {
                continue;
            };
            if let Some(expected) = tally.op(p.name, expected_stdout(p, seed, 1, Engine::Compiled))
            {
                tally.check(
                    &format!(
                        "{} seed {seed}: CLI stdout equals the in-process scene",
                        p.name
                    ),
                    spawned.stdout == expected,
                );
            }
            wall.push(spawned.wall_ms);
            layers.push(layer_ms.iter().sum());
            world.push(layer_ms[0]);
        }
        rows.push((
            p.name,
            median(&mut wall),
            median(&mut layers),
            median(&mut world),
        ));
    }
    let _ = std::fs::remove_dir_all(&store);
    println!(
        "cold CLI per scenario (ms): wall, layers in a traced fresh child, of which world build:"
    );
    for (name, wall, layers, world) in &rows {
        println!("  {name:<18} {wall:>8.2} {layers:>8.2} {world:>8.2}");
    }
    // Means over the scenarios of the per-scenario medians.
    let count = rows.len() as f64;
    let (wall, layers, world) = rows.iter().fold((0.0, 0.0, 0.0), |acc, r| {
        (
            acc.0 + r.1 / count,
            acc.1 + r.2 / count,
            acc.2 + r.3 / count,
        )
    });
    metrics.insert("cli.wall_ms".into(), wall);
    metrics.insert("cli.layers_ms".into(), layers);
    metrics.insert("cli.world_ms".into(), world);
    metrics.insert("cli.process_ms".into(), wall - layers);
    Ok(())
}

/// Runs the probe child; returns its layer times in ms: world build,
/// compile (parse included), lower, prune plan, sampling, JSON.
fn probe(exe: &Path, name: &str, seed: u64) -> Result<Vec<f64>, String> {
    let out = Command::new(exe)
        .args([PROBE_FLAG, name, &seed.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "probe {name}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .split_whitespace()
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("probe output {stdout:?}: {e}"))
        })
        .collect()
}

/// The traced fresh child: the layers `scenic sample <file> -n 1
/// --jobs 1` runs, each timed, printed as ms on one line.
pub fn probe_cli(args: &[String]) -> ExitCode {
    let (Some(name), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: perfbench {PROBE_FLAG} <scenario> <seed>");
        return ExitCode::from(2);
    };
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let world = build_world(world_of(name));
    let world_ms = ms(start);
    let Ok(source) = read_source(name) else {
        return ExitCode::FAILURE;
    };
    let start = Instant::now();
    let Ok(scenario) = compile_with_world(&source, &world) else {
        return ExitCode::FAILURE;
    };
    let compile_ms = ms(start);
    let start = Instant::now();
    scenario.compiled();
    let lower_ms = ms(start);
    let start = Instant::now();
    scenario.prune_plan();
    let prune_ms = ms(start);
    let start = Instant::now();
    let Ok(scenes) = Sampler::new(&scenario)
        .with_seed(seed)
        .with_pruning()
        .sample_batch(1, 1)
    else {
        return ExitCode::FAILURE;
    };
    let sample_ms = ms(start);
    let start = Instant::now();
    black_box(scenes.iter().map(Scene::to_json).collect::<String>());
    let json_ms = ms(start);
    println!("{world_ms} {compile_ms} {lower_ms} {prune_ms} {sample_ms} {json_ms}");
    ExitCode::SUCCESS
}

fn write_trace(t: &Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, t.to_json(workload, seed)));
    match written {
        Ok(()) => println!("trace: {} ({} spans)", path.display(), t.spans.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
