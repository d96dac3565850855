#!/usr/bin/env bash
# Runs the microbenchmark suites with JSON emission enabled and merges the
# per-benchmark records into one machine-readable trajectory file
# (schema: suites -> benchmark -> {mean_ns, median_ns, p95_ns, samples}).
#
# Usage: scripts/bench_json.sh [out.json]
#   out.json defaults to BENCH_PR4.json in the repository root.
#
# Honours the criterion shim's env knobs: ICG_QUICK=1 for an abbreviated
# run, ICG_WARMUP_MS / ICG_MEASURE_MS for explicit periods. The CI
# perf-gate job uses ICG_MEASURE_MS=800 as a stability/wall-time
# compromise, then compares the output against the committed baseline via
# `perf_gate compare` (BENCH_PR4.json for the headline rows; the rows later
# PRs added are compared against the file of the PR that added them:
# micro_spec/spec/weak-view-10000 against BENCH_PR13.json,
# micro_simnet/simnet/settle-sparse-1k-rounds against BENCH_PR24.json,
# micro_simnet/simnet/fanout-100-in-flight against BENCH_PR25.json,
# micro_simnet/apps/ads-fetch-icg against BENCH_PR27.json,
# micro_crdt/crdt/anti-entropy-retry-5k-log and micro_crdt/crdt/escrow-merge
# against BENCH_PR30.json, micro_crdt/causal/state-transfer-32-keys
# against BENCH_PR31.json, micro_simnet/apps/ads-setup-15k against
# BENCH_PR32.json, micro_wire/wire/ids128-encode, wire/ids128-decode and
# frame/ids128-encode+read against BENCH_PR41.json).
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_PR4.json}"
# Absolute path: cargo runs bench binaries with the package directory as
# their working directory, not the workspace root.
lines="$(pwd)/target/bench_lines.jsonl"

suites=(micro_correctable micro_simnet micro_shard micro_crdt micro_wire micro_spec)

rm -f "$lines"
mkdir -p target

for suite in "${suites[@]}"; do
    echo "=== bench suite: $suite"
    ICG_BENCH_JSON="$lines" ICG_BENCH_SUITE="$suite" \
        cargo bench -p icg_bench --bench "$suite"
done

cargo run --release -q -p icg_bench --bin perf_gate -- merge "$lines" "$out"
