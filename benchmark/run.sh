#!/usr/bin/env bash
# Builds the benchmark (and, through its path dependency, the program)
# from source and runs it. Every argument is passed through:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--repeat K] [--quick | --seconds S]
#       the whole suite: four workloads untraced, then traced; prints
#       `workload metric value unit` and writes benchmark/out/results.json
#   benchmark/run.sh --compare a.json b.json
#       improved / unchanged / unresolved / regressed per metric
#
# Exit status: 0 all gates passed, 2 a correctness gate failed (or
# --compare found a regression), anything else an error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# One malloc arena: with glibc's default (up to 8 per core) which of the
# program's dozen threads shares an arena with which is a lottery that
# decided a fifth of peak_rss_mb (18-25 MiB from run to run on
# tcp_pingpong_b, 10 MiB with one arena); speed is the same either way
# on the one CPU a run confines itself to.
export MALLOC_ARENA_MAX=1
# The build log goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/icg-benchmark" "$@"
