//! The repository benchmark: four workloads, each timed end to end
//! through the entry points users hit, plus a separate traced run that
//! breaks each one down by layer. See README.md for the metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs from the repository root (it reads `scenarios/` and spawns the
//! release `scenic` binary from `$CARGO_TARGET_DIR`); `run.sh` builds
//! both first. The last line of stdout is the JSON result.

mod common;
mod timed;
mod trace;
mod traced;

use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `mars_bottleneck` + `simplest` sampled in-process at jobs 2.
    RejectHeavy,
    /// The five low-rejection scenarios sampled in batches, then
    /// rendered, exported and serialized.
    Dataset,
    /// Fresh spawns of the release `scenic sample` CLI.
    ColdCli,
    /// An in-process daemon under a closed loop of 2 clients.
    Daemon,
}

/// The five low-rejection scenarios of `dataset` and `daemon`.
const LOW_REJECTION: [&str; 5] = [
    "two_cars",
    "badly_parked",
    "gta_intersection",
    "gta_oncoming",
    "mars_formation",
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "reject_heavy" => Workload::RejectHeavy,
            "dataset" => Workload::Dataset,
            "cold_cli" => Workload::ColdCli,
            "daemon" => Workload::Daemon,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RejectHeavy => "reject_heavy",
            Workload::Dataset => "dataset",
            Workload::ColdCli => "cold_cli",
            Workload::Daemon => "daemon",
        }
    }

    /// The workload's scenarios, each with the scenes of one operation:
    /// an in-process batch, a daemon request, or a CLI spawn. The
    /// `reject_heavy` counts give both scenarios a comparable share of
    /// the time.
    pub fn mix(self) -> Vec<(&'static str, usize)> {
        match self {
            Workload::RejectHeavy => vec![("mars_bottleneck", 4), ("simplest", 200)],
            Workload::Dataset => LOW_REJECTION.iter().map(|&name| (name, 32)).collect(),
            Workload::ColdCli => [
                "badly_parked",
                "gta_intersection",
                "gta_oncoming",
                "mars_formation",
                "simplest",
                "two_cars",
            ]
            .iter()
            .map(|&name| (name, 1))
            .collect(),
            Workload::Daemon => LOW_REJECTION.iter().map(|&name| (name, 8)).collect(),
        }
    }

    /// Operations after which `peak_rss_mb` is read: a fixed amount of
    /// work, so that memory which grows with work done (the program
    /// leaks on `mars_formation`) does not grow with throughput.
    /// `cold_cli` reads its children's peak instead.
    pub fn peak_ops(self) -> usize {
        match self {
            Workload::RejectHeavy => 20,
            Workload::Dataset => 300,
            Workload::ColdCli => 0,
            Workload::Daemon => 1000,
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload reject_heavy|dataset|cold_cli|daemon --seed N --seconds S --trace 0|1";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(traced::PROBE_FLAG) {
        return traced::probe_cli(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if options.trace {
        traced::run(&options)
    } else {
        timed::run(&options)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
