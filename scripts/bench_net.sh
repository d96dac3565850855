#!/usr/bin/env bash
# Socket-level benchmark leg: boots a 3-replica reactor cluster on
# loopback, drives it with icg-loadgen in both loop modes, and merges
# the perf-gate JSONL records into a trajectory file next to the
# microbenchmark suites.
#
# Usage: scripts/bench_net.sh [out.json]
#   out.json defaults to BENCH_PR8.json in the repository root.
#
# Legs (benchmark names are fixed so `perf_gate compare` can gate them):
#   net/closed-4c/*    closed loop, 4 clients       (throughput as ns-per-op)
#   net/open-2000c/*   open loop, 2000 connections  (latency under fan-in)
# With ICG_NET_SOAK=1 a third leg runs 10,000 connections for the
# connection-scaling record (net/open-10000c/*); it is committed in the
# baseline for the trajectory but not gated — CI runners are too small
# to reproduce it stably.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_PR8.json}"
lines="$(pwd)/target/bench_net_lines.jsonl"

echo "=== building (release) ==="
cargo build --release -q -p icg_apps -p icg_bench

REPLICAD=target/release/icg-replicad
LOADGEN=target/release/icg-loadgen

pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT

port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

BASE_PORT=0
for _ in $(seq 1 20); do
    c=$((20000 + RANDOM % 40000))
    if port_free "$c" && port_free $((c + 1)) && port_free $((c + 2)); then
        BASE_PORT=$c
        break
    fi
done
[ "$BASE_PORT" != 0 ] || { echo "no free ports" >&2; exit 1; }
P0="127.0.0.1:$BASE_PORT"
P1="127.0.0.1:$((BASE_PORT + 1))"
P2="127.0.0.1:$((BASE_PORT + 2))"

echo "=== booting 3 replicas on $P0 $P1 $P2 ==="
"$REPLICAD" --id 0 --listen "$P0" --peers "$P1,$P2" & pids+=($!)
"$REPLICAD" --id 1 --listen "$P1" --peers "$P0,$P2" & pids+=($!)
"$REPLICAD" --id 2 --listen "$P2" --peers "$P0,$P1" & pids+=($!)

rm -f "$lines"
mkdir -p target

echo "=== net leg: closed loop, 4 clients ==="
"$LOADGEN" --replicas "$P0,$P1,$P2" \
    --clients 4 --ops 5000 --keys 1000 --write-ratio 0.1 \
    --bench-json "$lines" --bench-name closed-4c

echo "=== net leg: open loop, 2000 connections ==="
"$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
    --open-loop --connections 2000 --rate 8000 --duration-secs 10 \
    --keys 1000 --write-ratio 0.1 --timeout-ms 5000 \
    --bench-json "$lines" --bench-name open-2000c

if [ "${ICG_NET_SOAK:-0}" = 1 ]; then
    echo "=== net leg: open loop, 10000 connections (soak) ==="
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --open-loop --connections 10000 --rate 15000 --duration-secs 20 \
        --keys 1000 --write-ratio 0.1 --timeout-ms 5000 \
        --bench-json "$lines" --bench-name open-10000c
fi

cargo run --release -q -p icg_bench --bin perf_gate -- merge "$lines" "$out"
