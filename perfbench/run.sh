#!/usr/bin/env bash
# Builds the release `scenic` CLI and the benchmark from source, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload reject_heavy --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The last
# line of stdout is the JSON result; see perfbench/README.md.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin scenic >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Run as a child, not via exec: the benchmark reads the peak RSS of its
# own children, and an exec'd process would inherit the compilers' peaks.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
