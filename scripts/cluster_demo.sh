#!/usr/bin/env bash
# Boots a 3-replica cluster on loopback TCP and drives it with
# icg-loadgen, first the quorum store and then the spec store at all four
# levels (--levels); exits green iff every operation completed. This is the
# one-command proof that the deployment layer serves real traffic —
# CI's net-smoke step runs it with --quick.
#
# Usage: scripts/cluster_demo.sh [--quick] [--kill]
#   --quick      abbreviated run (CI): fewer clients/ops, skips the ICG
#                latency-comparison pass
#   --kill       crash one replica mid-demo and run a second loadgen pass
#                against the surviving quorum (R=2 of 3 stays available)
#
# Ports: by default three free ports are probed from a randomized base,
# and boot is retried on a fresh base if another process steals one in
# the window between probe and bind — parallel CI jobs no longer flake
# on collisions. ICG_DEMO_PORT=5000 pins the base port (no reprobe).
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
KILL=0
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) QUICK=1 ;;
        --kill) KILL=1 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done
if [ "$QUICK" = 1 ]; then
    CLIENTS=2 OPS=300 KEYS=200
else
    CLIENTS=4 OPS=2000 KEYS=1000
fi

echo "=== building (release) ==="
cargo build --release -q -p icg_apps

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

# True iff nothing on loopback accepts a connection to $1.
port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

# Picks BASE_PORT: the pinned ICG_DEMO_PORT, or a random base whose
# three consecutive ports all look free right now.
pick_base() {
    if [ -n "${ICG_DEMO_PORT:-}" ]; then
        BASE_PORT="$ICG_DEMO_PORT"
        return
    fi
    for _ in $(seq 1 20); do
        BASE_PORT=$((20000 + RANDOM % 40000))
        if port_free "$BASE_PORT" && port_free $((BASE_PORT + 1)) \
            && port_free $((BASE_PORT + 2)); then
            return
        fi
    done
    echo "cannot find three free loopback ports" >&2
    exit 1
}

# Boots the 3 replicas on $BASE_PORT.. and waits until all of them
# accept connections. Returns nonzero if any replica dies first (port
# stolen between probe and bind).
boot_cluster() {
    P0="127.0.0.1:$BASE_PORT"
    P1="127.0.0.1:$((BASE_PORT + 1))"
    P2="127.0.0.1:$((BASE_PORT + 2))"
    echo "=== booting 3 replicas on $P0 $P1 $P2 ==="
    "$REPLICAD" --id 0 --listen "$P0" --peers "$P1,$P2" & pids+=($!)
    "$REPLICAD" --id 1 --listen "$P1" --peers "$P0,$P2" & pids+=($!)
    "$REPLICAD" --id 2 --listen "$P2" --peers "$P0,$P1" & pids+=($!)
    for i in $(seq 0 49); do
        alive=1
        for pid in "${pids[@]}"; do
            kill -0 "$pid" 2>/dev/null || alive=0
        done
        if [ "$alive" = 0 ]; then
            return 1
        fi
        if ! port_free "$BASE_PORT" && ! port_free $((BASE_PORT + 1)) \
            && ! port_free $((BASE_PORT + 2)); then
            return 0
        fi
        sleep 0.1
    done
    echo "replicas did not become ready within 5s" >&2
    return 1
}

booted=0
for attempt in 1 2 3; do
    pick_base
    if boot_cluster; then
        booted=1
        break
    fi
    echo "boot attempt $attempt lost a port race; retrying on a fresh base" >&2
    cleanup
    pids=()
    # A pinned base has nowhere else to go — fail loudly instead of
    # fighting the squatter.
    if [ -n "${ICG_DEMO_PORT:-}" ]; then
        echo "ICG_DEMO_PORT=$ICG_DEMO_PORT is in use" >&2
        exit 1
    fi
done
if [ "$booted" = 0 ]; then
    echo "could not boot the cluster after 3 attempts" >&2
    exit 1
fi

echo "=== closed-loop ICG load ($CLIENTS clients x $OPS ops, zipfian over $KEYS keys) ==="
"$LOADGEN" --replicas "$P0,$P1,$P2" \
    --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1

echo "=== spec store, weak -> update -> causal -> strong on every operation ==="
"$LOADGEN" --replicas "$P0,$P1,$P2" \
    --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 \
    --levels weak,update,causal,strong

if [ "$QUICK" = 0 ]; then
    echo "=== same load, confirmation optimization (*CC) on ==="
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --confirm

    echo "=== single-level baselines (weak-only, strong-only reads) ==="
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --mode weak
    "$LOADGEN" --replicas "$P0,$P1,$P2" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 --mode strong
fi

if [ "$KILL" = 1 ]; then
    echo "=== crashing replica 2, rerunning against the surviving quorum ==="
    kill -9 "${pids[2]}" 2>/dev/null || true
    # Replica 2 is gone before this pass connects, and it was nobody's
    # coordinator here: the survivors see its links close and ask each
    # other, so every operation must complete at R=2 of the two.
    "$LOADGEN" --replicas "$P0,$P1" --no-preload \
        --clients "$CLIENTS" --ops "$OPS" --keys "$KEYS" --write-ratio 0.1 \
        --allow-failures 0
fi

echo "=== cluster demo passed ==="
