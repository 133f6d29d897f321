//! End-to-end tests of the `scenic` command-line front end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scenic_bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenic")
}

fn write_scenario(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(scenic_bin())
        .args(args)
        .output()
        .expect("failed to launch scenic binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn help_prints_usage() {
    for args in [&["--help"][..], &["sample", "--help"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).contains("scenic sample"), "{args:?}");
        assert!(stderr(&out).is_empty(), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn check_accepts_a_valid_scenario() {
    let path = write_scenario("ok.scenic", "ego = Car\nCar\n");
    let out = run(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("ok"));
}

#[test]
fn check_reports_parse_errors_with_position() {
    let path = write_scenario("bad.scenic", "ego = Car\nCar offset\n");
    let out = run(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
    assert!(stderr(&out).contains('2'), "line missing: {}", stderr(&out));
}

#[test]
fn type_errors_in_mutate_and_soft_require_point_at_their_statement() {
    for (name, statement) in [
        ("bad_scale.scenic", "mutate ego by \"x\""),
        (
            "bad_probability.scenic",
            "require[\"a\"] ego.position.x > 0",
        ),
    ] {
        let path = write_scenario(name, &format!("ego = Object at 0 @ 0\n{statement}\n"));
        let out = run(&["sample", path.to_str().unwrap(), "--world", "bare"]);
        assert_eq!(out.status.code(), Some(1));
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{}:2:1", path.display())),
            "{name}: wrong location: {err}"
        );
        assert!(err.contains(&format!(" 2 | {statement}")), "{name}: {err}");
    }
}

#[test]
fn check_with_bare_world_rejects_gta_classes() {
    let path = write_scenario("needs_gta.scenic", "ego = Car\n");
    let out = run(&["check", path.to_str().unwrap(), "--world", "bare"]);
    // `Car` only exists in the gta library; the bare world compiles
    // fine (binding happens at run time), so `check` still passes —
    // but sampling must fail cleanly.
    let sample = run(&["sample", path.to_str().unwrap(), "--world", "bare"]);
    assert!(out.status.success());
    assert_eq!(sample.status.code(), Some(1));
    assert!(stderr(&sample).contains("Car"), "{}", stderr(&sample));
}

#[test]
fn sample_summary_lists_every_object() {
    let path = write_scenario("two.scenic", "ego = Car\nCar\n");
    let out = run(&["sample", path.to_str().unwrap(), "--seed", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("Car").count(), 2, "{text}");
    assert!(text.contains("(ego)"), "{text}");
}

#[test]
fn sample_is_deterministic_per_seed() {
    let path = write_scenario("det.scenic", "ego = Car\nCar\n");
    let a = run(&["sample", path.to_str().unwrap(), "--seed", "9"]);
    let b = run(&["sample", path.to_str().unwrap(), "--seed", "9"]);
    let c = run(&["sample", path.to_str().unwrap(), "--seed", "10"]);
    assert_eq!(stdout(&a), stdout(&b));
    assert_ne!(stdout(&a), stdout(&c));
}

#[test]
fn sample_output_is_invariant_in_jobs() {
    let path = write_scenario("jobs.scenic", "ego = Car\nCar\n");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = run(&[
            "sample",
            path.to_str().unwrap(),
            "-n",
            "4",
            "--seed",
            "6",
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "jobs={jobs}: {}", stderr(&out));
        outputs.push(stdout(&out));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 2 changed the output");
    assert_eq!(outputs[0], outputs[2], "--jobs 8 changed the output");
}

#[test]
fn zero_jobs_is_rejected() {
    let path = write_scenario("jobs0.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--jobs"), "{}", stderr(&out));
}

/// Path of a bundled scenario under the repo's `scenarios/` directory.
fn bundled(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

#[test]
fn bundled_mars_formation_samples_in_parallel() {
    let out = run(&[
        "sample",
        bundled("mars_formation.scenic").to_str().unwrap(),
        "--world",
        "mars",
        "-n",
        "2",
        "--jobs",
        "4",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Lead rover (ego) plus the two wing rovers built by the `def`
    // helper.
    assert_eq!(text.matches("Rover").count(), 6, "{text}");
    assert!(text.contains("Goal"), "{text}");
}

#[test]
fn bundled_gta_intersection_samples_in_parallel() {
    let out = run(&[
        "sample",
        bundled("gta_intersection.scenic").to_str().unwrap(),
        "-n",
        "2",
        "--jobs",
        "4",
        "--seed",
        "5",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("Car").count(), 4, "{text}");
    assert!(stderr(&out).contains("2 scenes"), "{}", stderr(&out));
}

/// A reader that closes the pipe early (`| head -c 1024`) ends the
/// output quietly. The run writes about 233 KB, past the pipe buffer, so
/// the CLI is still writing when the pipe closes.
#[test]
fn closed_stdout_pipe_ends_sampling_quietly() {
    use std::io::Read;
    let mut child = Command::new(scenic_bin())
        .args(["sample", bundled("two_cars.scenic").to_str().unwrap()])
        .args(["-n", "100", "--format", "json"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("launch scenic sample");
    let mut pipe = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 1024];
    pipe.read_exact(&mut head).expect("read the first KiB");
    drop(pipe);
    let out = child.wait_with_output().expect("wait for scenic");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

/// With stderr on a pipe whose reader is gone, a run still exits with
/// the code it decided (success, run-time error, usage error): the
/// failed stderr writes are dropped, not a panic (exit 101).
#[test]
fn closed_stderr_pipe_keeps_the_exit_code() {
    let two_cars = bundled("two_cars.scenic");
    let simplest = bundled("simplest.scenic");
    let nope = bundled("nope.scenic");
    // The scenario's own `print` writes to stderr from inside the sampler.
    let prints = write_scenario("prints.scenic", "ego = Object at 0 @ 0\nprint(3)\n");
    let (two_cars, simplest, nope, prints) = (
        two_cars.to_str().unwrap(),
        simplest.to_str().unwrap(),
        nope.to_str().unwrap(),
        prints.to_str().unwrap(),
    );
    let cases: [(&[&str], i32); 5] = [
        (&["sample", two_cars, "-n", "5", "--stats"], 0),
        (&["lint", simplest, two_cars], 0),
        (&["sample", nope], 1),
        (&["sample", two_cars, "--bogus"], 2),
        (&["sample", prints, "--world", "bare"], 0),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let status = Command::new(scenic_bin())
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("launch scenic");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn sample_json_round_trips() {
    let path = write_scenario("json.scenic", "ego = Car\nCar\n");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let scene = scenic::prelude::Scene::from_json(&stdout(&out)).expect("valid scene JSON");
    assert_eq!(scene.objects.len(), 2);
}

#[test]
fn sample_writes_files_with_out_dir() {
    let path = write_scenario("outdir.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "-n",
        "3",
        "--format",
        "gta",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 3);
    let first = std::fs::read_to_string(dir.join("scene_0000.gta.jsonl")).unwrap();
    assert!(first.contains("set_camera"), "{first}");
}

#[test]
fn sample_ppm_writes_rasters() {
    let path = write_scenario("ppm.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/ppm");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "-n",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "--ppm",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let ppm = std::fs::read(dir.join("scene_0000.ppm")).unwrap();
    assert!(ppm.starts_with(b"P6"), "not a binary PPM");
    assert!(dir.join("scene_0001.ppm").exists());
}

#[test]
fn ppm_without_out_dir_is_rejected() {
    let path = write_scenario("ppm2.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--ppm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--ppm needs --out"));
}

#[test]
fn sample_stats_go_to_stderr() {
    let path = write_scenario("stats.scenic", "ego = Car\nCar\n");
    let out = run(&["sample", path.to_str().unwrap(), "-n", "2", "--stats"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("2 scenes"), "{}", stderr(&out));
}

#[test]
fn sample_mars_world() {
    let path = write_scenario(
        "rover.scenic",
        "ego = Rover at 0 @ -2\nGoal at (-2, 2) @ (2, 2.5)\n",
    );
    let out = run(&["sample", path.to_str().unwrap(), "--world", "mars"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("Rover"), "{}", stdout(&out));
}

#[test]
fn print_emits_reparsable_source() {
    let path = write_scenario(
        "pretty.scenic",
        "ego = Car\nCar offset by (-10, 10) @ (20, 40), facing 5 deg\n",
    );
    let out = run(&["print", path.to_str().unwrap()]);
    assert!(out.status.success());
    scenic::lang::parse(&stdout(&out)).expect("printed source parses");
}

#[test]
fn unknown_world_is_rejected() {
    let path = write_scenario("w.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--world", "moon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown world"));
}

#[test]
fn unknown_format_is_rejected() {
    let path = write_scenario("f.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--format", "png"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown format"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["check", "/nonexistent/path.scenic"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"));
}

#[test]
fn repeat_compiles_once_and_reroots_the_seed() {
    let path = write_scenario("repeat.scenic", "ego = Car\nCar\n");
    let repeated = run(&[
        "sample",
        path.to_str().unwrap(),
        "--seed",
        "4",
        "--repeat",
        "2",
        "--stats",
    ]);
    assert!(repeated.status.success(), "{}", stderr(&repeated));
    // One compile, one cache hit: the scenario compiled once for both
    // rounds.
    assert!(
        stderr(&repeated).contains("compiled 1 scenario(s), 1 cache hit(s)"),
        "{}",
        stderr(&repeated)
    );
    // Round r samples with seed S + r: the repeated run's scenes are
    // exactly the single-run outputs at seeds 4 and 5.
    let single_4 = run(&["sample", path.to_str().unwrap(), "--seed", "4"]);
    let single_5 = run(&["sample", path.to_str().unwrap(), "--seed", "5"]);
    let text = stdout(&repeated);
    assert!(text.contains(stdout(&single_4).trim()), "{text}");
    assert!(text.contains(stdout(&single_5).trim()), "{text}");
}

#[test]
fn identical_source_under_a_different_path_hits_the_cache() {
    let source = "ego = Car\nCar\n";
    let a = write_scenario("same_a.scenic", source);
    let b = write_scenario("same_b.scenic", source);
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--seed",
        "1",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // The cache keys on content, not path: the second file is a hit.
    assert!(
        stderr(&out).contains("compiled 1 scenario(s), 1 cache hit(s)"),
        "{}",
        stderr(&out)
    );
    // Same world, same seed, same content: both files produce the same
    // scene.
    let text = stdout(&out);
    assert!(text.contains("same_a"), "{text}");
    assert!(text.contains("same_b"), "{text}");
}

#[test]
fn multi_file_sample_compiles_distinct_sources_separately() {
    let a = write_scenario("multi_a.scenic", "ego = Car\nCar\n");
    let b = write_scenario("multi_b.scenic", "ego = Car\nCar\nCar\n");
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--seed",
        "2",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("compiled 2 scenario(s), 0 cache hit(s)"),
        "{}",
        stderr(&out)
    );
    assert_eq!(stdout(&out).matches("Car").count(), 5, "{}", stdout(&out));
}

#[test]
fn repeat_with_out_dir_prefixes_round_numbers() {
    let path = write_scenario("repout.scenic", "ego = Car\nCar\n");
    let dir = std::env::temp_dir().join("scenic-cli-tests/repeat-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--repeat",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(dir.join("r00_scene_0000.txt").exists());
    assert!(dir.join("r01_scene_0000.txt").exists());
}

#[test]
fn same_stem_in_different_directories_does_not_collide_in_out_dir() {
    let base = std::env::temp_dir().join("scenic-cli-tests");
    for sub in ["city", "rural"] {
        std::fs::create_dir_all(base.join(sub)).unwrap();
    }
    let a = base.join("city/crossing.scenic");
    let b = base.join("rural/crossing.scenic");
    std::fs::write(&a, "ego = Car\n").unwrap();
    std::fs::write(&b, "ego = Car\nCar\n").unwrap();
    let dir = base.join("stem-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "sample",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Both scenarios' scenes survive under disambiguated stems.
    assert!(dir.join("crossing1_scene_0000.txt").exists());
    assert!(dir.join("crossing2_scene_0000.txt").exists());
}

#[test]
fn zero_repeat_is_rejected() {
    let path = write_scenario("rep0.scenic", "ego = Car\n");
    for flag in ["--repeat", "-n"] {
        let out = run(&["sample", path.to_str().unwrap(), flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        assert!(
            stderr(&out).contains(&format!("{flag} needs a positive integer")),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn check_accepts_multiple_files() {
    let a = write_scenario("chk_a.scenic", "ego = Car\n");
    let b = write_scenario("chk_b.scenic", "ego = Car\nCar\n");
    let out = run(&["check", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out).matches(": ok").count(), 2, "{}", stderr(&out));
}

/// Asserts that `flag` is no `sample` option: exit 2 with the usage.
fn assert_unknown_sample_option(path: &str, flag: &str) {
    let out = run(&["sample", path, "--world", "mars", flag]);
    assert_eq!(out.status.code(), Some(2), "{flag}");
    let err = stderr(&out);
    assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

/// `sample` is the unguarded route the retired `--prune=off` switch
/// selected, so that spelling is now an unknown option. Its output is
/// byte-identical to the library's unguarded sampler and, because a §5.2
/// guard only abandons doomed candidates earlier, to its guarded one.
#[test]
fn prune_off_output_is_byte_identical_to_default() {
    use scenic::prelude::{compile_with_world, Sampler};
    use scenic::serve::format::render_scene;

    let path = bundled("mars_bottleneck.scenic");
    let path_str = path.to_str().unwrap();
    let out = run(&[
        "sample", path_str, "--world", "mars", "--seed", "4", "-n", "2", "--jobs", "2", "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let source = std::fs::read_to_string(&path).unwrap();
    let world = scenic::mars::world();
    let scenario = compile_with_world(&source, &world).expect("bundled scenario compiles");
    for guarded in [false, true] {
        let mut sampler = Sampler::new(&scenario).with_seed(4);
        if guarded {
            sampler = sampler.with_pruning();
        }
        let scenes = sampler.sample_batch(2, 2).expect("batch samples");
        let text: String = scenes.iter().map(|s| render_scene(s, "json")).collect();
        assert_eq!(stdout(&out), text, "guarded library run: {guarded}");
    }
    assert_unknown_sample_option(path_str, "--prune=off");
}

/// The §5.2 guard table and its counters are `prune-report`'s alone:
/// no `--prune` switch turns guards on in `sample`, whose `--stats`
/// lists no guard and counts every rejection under the check that
/// makes it (the unguarded route's counts).
#[test]
fn prune_stats_table_lists_guards_and_counters() {
    let path = bundled("mars_bottleneck.scenic");
    let path = path.to_str().unwrap();
    let report = run(&[
        "prune-report",
        path,
        "--world",
        "mars",
        "-n",
        "2",
        "--seed",
        "4",
        "--jobs",
        "2",
    ]);
    assert!(report.status.success(), "{}", stderr(&report));
    let table = stdout(&report);
    assert!(table.contains("mars.ground        containment"), "{table}");
    assert!(table.contains("candidates guard-pruned"), "{table}");

    assert_unknown_sample_option(path, "--prune");
    let out = run(&[
        "sample", path, "--world", "mars", "--seed", "4", "-n", "2", "--jobs", "2", "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains(
            "2 scenes, 2660 iterations (1330.0/scene); rejections: \
             2324 requirement, 330 collision, 4 containment, 0 visibility"
        ),
        "{err}"
    );
    assert!(!err.contains("mars.ground"), "{err}");
    assert!(!err.contains("prune-guard rejections:"), "{err}");
}

/// With guards gone from `sample`, `--stats` has no pruning state to
/// report on any world: neither a world with a prunable region (mars)
/// nor one without (bare) prints a `pruning:` line or an `I2xx` note
/// (those are `scenic lint`'s), only the rejection counts and digest.
#[test]
fn prune_off_and_unguarded_worlds_report_so_in_stats() {
    let mars = bundled("mars_bottleneck.scenic");
    let bare = write_scenario("noprune.scenic", "ego = Object at 0 @ 0\n");
    for (path, world) in [
        (mars.to_str().unwrap(), "mars"),
        (bare.to_str().unwrap(), "bare"),
    ] {
        let out = run(&["sample", path, "--world", world, "--stats"]);
        assert!(out.status.success(), "{world}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("rejections:"), "{world}: {err}");
        assert!(err.contains("batch digest:"), "{world}: {err}");
        assert!(!err.contains("pruning:"), "{world}: {err}");
        assert!(!err.contains("I20"), "{world}: {err}");
    }
}

#[test]
fn bogus_prune_value_is_rejected() {
    let path = write_scenario("prune_bogus.scenic", "ego = Car\n");
    let out = run(&["sample", path.to_str().unwrap(), "--prune=sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--prune"), "{}", stderr(&out));
}

/// The stable part of a prune-report output: everything except the
/// wall-clock field (the only non-deterministic column).
fn strip_wall_clock(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.find(" ms/scene") {
            Some(_) => {
                let cut = line.rfind(';').unwrap_or(line.len());
                &line[..cut]
            }
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn prune_report_regenerates_appendix_d_from_one_run() {
    let path = bundled("gta_oncoming.scenic");
    let args = [
        "prune-report",
        path.to_str().unwrap(),
        "--heading",
        "150,210",
        "--max-distance",
        "50",
        "-n",
        "5",
        "--seed",
        "7",
        "--jobs",
        "2",
    ];
    let out = run(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Table shape: the per-region area rows and the two iteration
    // columns derived from the one guarded batch.
    assert!(text.contains("gtaLib.road"), "{text}");
    assert!(text.contains("orientation"), "{text}");
    assert!(text.contains("% kept"), "{text}");
    assert!(text.contains("iters/scene:"), "{text}");
    assert!(text.contains("unpruned"), "{text}");
    assert!(text.contains("guard-pruned"), "{text}");
    // The §5.2 promise on this bottleneck scenario: strictly fewer full
    // interpreter runs per scene with pruning on.
    let line = text
        .lines()
        .find(|l| l.contains("iters/scene:"))
        .expect("no iters/scene line");
    let mut nums = line
        .split(&[' ', ','][..])
        .filter_map(|w| w.parse::<f64>().ok());
    let unpruned = nums.next().expect("unpruned column");
    let pruned = nums.next().expect("pruned column");
    assert!(
        pruned < unpruned,
        "pruning did not reduce iterations/scene: {line}"
    );
    // Deterministic: a second run differs only in wall-clock.
    let again = run(&args);
    assert!(again.status.success());
    assert_eq!(strip_wall_clock(&text), strip_wall_clock(&stdout(&again)));
}

/// Appendix D's columns for `mars_bottleneck`: `prune-report` defers
/// every check to termination, so the pruned column counts exactly the
/// candidates the guard let through (early rejection would raise it to
/// 1225.7 by rejecting candidates before their guarded draws).
#[test]
fn prune_report_pins_the_mars_bottleneck_columns() {
    let path = bundled("mars_bottleneck.scenic");
    let path = path.to_str().unwrap();
    let out = run(&[
        "prune-report",
        path,
        "--world",
        "mars",
        "-n",
        "20",
        "--seed",
        "0",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let expected = format!(
        "Appendix D pruning comparison (guard mode: one batch yields both columns)\n\
         {path}: world mars, n=20, seed=0, jobs=2\n  \
         mars.ground        containment          64.0 m² ->         61.3 m² ( 95.8% kept)\n  \
         iters/scene: 1226.0 unpruned, 1000.7 pruned (1.23x fewer); \
         4505 of 24519 candidates guard-pruned"
    );
    assert_eq!(strip_wall_clock(&stdout(&out)), expected);
}

#[test]
fn prune_report_without_applicable_regions_says_so() {
    let path = write_scenario("prune_bare.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&["prune-report", path.to_str().unwrap(), "--world", "bare"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("no applicable pruned regions"),
        "{}",
        stdout(&out)
    );
}

/// `--stats` prints each round's batch digest, in decimal so it reads
/// like the pinned `BUNDLED_BATCH_DIGESTS` table in
/// `tests/determinism.rs` (this is its `simplest` row), and like it the
/// digest does not depend on `--jobs`.
#[test]
fn stats_print_the_jobs_invariant_batch_digest() {
    let path = bundled("simplest.scenic");
    let path = path.to_str().unwrap();
    for jobs in ["1", "2"] {
        let out = run(&[
            "sample", path, "-n", "3", "--seed", "7", "--jobs", jobs, "--stats",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let line = format!("batch digest: {path} round 0 seed 7: 11147000041812585473\n");
        assert!(
            stderr(&out).contains(&line),
            "jobs {jobs}: {}",
            stderr(&out)
        );
    }
}

/// The CLI keeps no hidden state: run with an environment holding only
/// `HOME`, pointing at an empty directory, sampling, checking and
/// linting leave that directory empty.
#[test]
fn sample_check_and_lint_write_nothing_under_home() {
    let home = std::env::temp_dir().join(format!("scenic-cli-home-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();
    let path = bundled("simplest.scenic");
    let path = path.to_str().unwrap();
    for args in [
        &["sample", path, "--stats"][..],
        &["check", path],
        &["lint", path],
    ] {
        let out = Command::new(scenic_bin())
            .env_clear()
            .env("HOME", &home)
            .args(args)
            .output()
            .expect("failed to launch scenic binary");
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
    let left: Vec<_> = std::fs::read_dir(&home)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert!(left.is_empty(), "the CLI wrote under HOME: {left:?}");
    std::fs::remove_dir(&home).unwrap();
}

#[test]
fn engine_ast_output_is_byte_identical_to_compiled_default() {
    // The compiled engine (the default) must sample the exact scenes
    // the reference interpreter samples — `--engine` only changes how
    // fast candidates evaluate, never what comes out.
    let path = bundled("gta_oncoming.scenic");
    let base = [
        "sample",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--seed",
        "6",
        "-n",
        "2",
        "--jobs",
        "2",
    ];
    let compiled = run(&base);
    let mut with_ast = base.to_vec();
    with_ast.extend(["--engine", "ast"]);
    let ast = run(&with_ast);
    assert!(compiled.status.success(), "{}", stderr(&compiled));
    assert!(ast.status.success(), "{}", stderr(&ast));
    assert_eq!(stdout(&compiled), stdout(&ast));
}

#[test]
fn engine_shows_in_stats_and_bogus_engine_is_rejected() {
    let path = write_scenario("eng.scenic", "ego = Object at 0 @ 0\n");
    let out = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "bare",
        "--stats",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("engine: compiled"),
        "{}",
        stderr(&out)
    );
    let bad = run(&[
        "sample",
        path.to_str().unwrap(),
        "--world",
        "bare",
        "--engine",
        "jit",
    ]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("unknown engine"), "{}", stderr(&bad));
}

// ---------------------------------------------------------------------
// scenicd: the serve/client commands end to end, over a real subprocess
// boundary (the in-process protocol tests live in tests/daemon.rs).
// ---------------------------------------------------------------------

/// Starts `scenic serve` on an ephemeral port and returns the child
/// plus the address parsed from its announcement line.
fn spawn_daemon() -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(scenic_bin())
        .args(["serve", "--port", "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("launch scenic serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announcement line");
    let addr = line
        .trim()
        .strip_prefix("scenicd listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_and_client_round_trip_byte_identically_with_direct_sampling() {
    let (mut child, addr) = spawn_daemon();
    let path = bundled("two_cars.scenic");
    let base = [
        path.to_str().unwrap(),
        "--world",
        "gta",
        "-n",
        "3",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--format",
        "json",
    ];
    let mut client_args = vec!["client", "sample", "--addr", &addr];
    client_args.extend(base);
    let via_daemon = run(&client_args);
    assert!(via_daemon.status.success(), "{}", stderr(&via_daemon));
    let mut direct_args = vec!["sample"];
    direct_args.extend(base);
    let direct = run(&direct_args);
    assert!(direct.status.success(), "{}", stderr(&direct));
    assert_eq!(
        stdout(&via_daemon),
        stdout(&direct),
        "daemon-served scenes must be byte-identical to `scenic sample`"
    );

    let health = run(&["client", "health", "--addr", &addr]);
    assert!(health.status.success(), "{}", stderr(&health));
    assert!(stdout(&health).starts_with("ok"), "{}", stdout(&health));

    let stats = run(&["client", "stats", "--addr", &addr]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    assert!(
        stdout(&stats).contains("two_cars: 3 scene(s)"),
        "{}",
        stdout(&stats)
    );

    let shutdown = run(&["client", "shutdown", "--addr", &addr]);
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
}

#[test]
fn client_without_daemon_fails_cleanly() {
    // Port 9 (discard) is never a scenicd; connect_retry gives up fast
    // on a refused connection.
    let out = run(&["client", "health", "--addr", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error:"), "{}", stderr(&out));
}

#[test]
fn client_needs_an_action() {
    let out = run(&["client"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("client needs an action"),
        "{}",
        stderr(&out)
    );
}

// ---------------------------------------------------------------------
// scenic exp: the experiment harness front end. Golden-output tests at
// a tiny scale — the artifact must be byte-identical across runs, carry
// the scenic-exp/v1 schema with complete shape-check records, and the
// usual usage errors must exit 2 before any experiment runs.
// ---------------------------------------------------------------------

#[test]
fn exp_json_artifact_is_byte_identical_and_schema_complete() {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("exp_golden_a.json");
    let b = dir.join("exp_golden_b.json");
    let run_once = |path: &std::path::Path| {
        let out = run(&[
            "exp",
            "table6",
            "--scale",
            "0.02",
            "--json",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("shape check"), "{}", stdout(&out));
        std::fs::read(path).unwrap()
    };
    let first = run_once(&a);
    let second = run_once(&b);
    assert_eq!(first, second, "exp JSON artifact is not reproducible");

    let value: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&first).unwrap()).unwrap();
    let top = value.as_object().expect("artifact is an object");
    assert_eq!(
        top.get("schema").and_then(serde_json::Value::as_str),
        Some("scenic-exp/v1")
    );
    assert!(top.get("all_hold").is_some(), "all_hold missing");
    let experiments = top
        .get("experiments")
        .and_then(serde_json::Value::as_array)
        .expect("experiments array");
    assert_eq!(experiments.len(), 1);
    let exp = experiments[0].as_object().unwrap();
    assert_eq!(
        exp.get("id").and_then(serde_json::Value::as_str),
        Some("table6")
    );
    let checks = exp
        .get("checks")
        .and_then(serde_json::Value::as_array)
        .expect("checks array");
    assert!(!checks.is_empty(), "table6 must report shape checks");
    for check in checks {
        let check = check.as_object().expect("check is an object");
        for field in ["name", "holds", "detail"] {
            assert!(
                check.get(field).is_some(),
                "shape check missing field {field}"
            );
        }
    }
}

#[test]
fn exp_unknown_experiment_is_rejected_before_running() {
    let out = run(&["exp", "table99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown experiment"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn exp_zero_scale_is_rejected() {
    let out = run(&["exp", "table6", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--scale"), "{}", stderr(&out));
}

#[test]
fn exp_markdown_artifact_lists_tables_and_verdicts() {
    let dir = std::env::temp_dir().join("scenic-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let md_path = dir.join("exp_golden.md");
    let out = run(&[
        "exp",
        "fig36",
        "--scale",
        "0.02",
        "--md",
        md_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let md = std::fs::read_to_string(&md_path).unwrap();
    assert!(md.contains("# Scenic experiment reproduction"), "{md}");
    assert!(
        md.contains("**HOLDS**") || md.contains("**VIOLATED**"),
        "{md}"
    );
    assert!(md.contains("| source |"), "{md}");
}
