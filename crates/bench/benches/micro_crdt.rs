//! Microbenchmarks of the `icg-crdt` hot paths:
//!
//! 1. state-based anti-entropy — merging two diverged composite states
//!    (the cost one `SyncState` message imposes on a replica);
//! 2. op-based delivery — applying a buffered batch of prepared
//!    downstream effects (the CBCAST drain loop's inner cost);
//! 3. OR-Set prepare+effect round trip (tag allocation + observed-set
//!    bookkeeping, the most allocation-heavy of the shipped types);
//! 4. the escrow fast path — one coordination-free sale against the
//!    local segment, the operation the tickets app rides;
//! 5. op-based anti-entropy — one due retry of a replica whose SEC log
//!    is long and whose un-acked own suffix is short (what a lagging
//!    peer costs it: the suffix, not the log);
//! 6. the causal store's state transfer — one `SyncReq` → `SyncResp`
//!    round trip between converged replicas (the snapshot shares the
//!    primary's map; a copy of it costs two allocations per key), and
//!    the same round trip to a stale backup, which adopts every key.
//!
//! Batch benches process [`EFFECTS_PER_ITER`] effects per iteration, so
//! per-effect cost is `mean / EFFECTS_PER_ITER`.

use std::any::Any;
use std::sync::Arc;

use causalstore::{CausalReplica, Item, Msg, VectorClock};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simnet::{ClientMsg, Ctx, Engine, Node, NodeId, SimDuration, Timer, Wants};

use icg_crdt::types::{Crdt, EffectCtx, OrSet, SetOp};
use icg_crdt::{CrdtEffect, CrdtMsg, CrdtOp, CrdtReplica, CrdtState, EscrowState, Repl, SecEntry};

const REPLICAS: usize = 3;
const GROW_OPS: usize = 200;
const EFFECTS_PER_ITER: usize = 256;

/// Splitmix64 word stream for op decoding.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn decode(w: u64) -> CrdtOp {
    let key = (w >> 3) % 8;
    match w % 5 {
        0 => CrdtOp::CtrAdd(key, ((w >> 5) % 40) as i64 - 20),
        1 => CrdtOp::SetAdd(key, (w >> 5) % 16),
        2 => CrdtOp::SetRemove(key, (w >> 5) % 16),
        3 => CrdtOp::MapPut(key, (w >> 5) % 8, (w >> 7) % 1_000),
        _ => CrdtOp::CtrAdd(key, ((w >> 5) % 7) as i64),
    }
}

/// Grows a composite state from `n` decoded ops at round-robin replicas.
fn grown(seed: u64, n: usize) -> CrdtState {
    let mut state = CrdtState::new();
    let mut seqs = [0u64; REPLICAS];
    let mut w = seed;
    for i in 0..n {
        w = mix(w);
        let r = i % REPLICAS;
        seqs[r] += 1;
        let ctx = EffectCtx {
            replica: r,
            seq: seqs[r],
            lamport: 1 + i as u64,
        };
        let e = state.prepare(&decode(w), ctx);
        state.effect(&e);
    }
    state
}

fn bench_state_merge(c: &mut Criterion) {
    // Two states grown from a shared prefix, then diverged: the shape a
    // replica actually sees when anti-entropy brings a peer's state in.
    let base = grown(11, GROW_OPS);
    let mut a = base.clone();
    let mut b = base;
    for (i, seed) in [(0usize, 77u64), (1, 99)] {
        let target = if i == 0 { &mut a } else { &mut b };
        let mut w = seed;
        for j in 0..GROW_OPS / 2 {
            w = mix(w);
            let ctx = EffectCtx {
                replica: i,
                seq: 1_001 + j as u64,
                lamport: 10_000 + j as u64,
            };
            let e = target.prepare(&decode(w), ctx);
            target.effect(&e);
        }
    }
    c.bench_function("crdt/state-merge-300ops", |bch| {
        bch.iter(|| {
            let mut m = a.clone();
            m.merge(black_box(&b));
            black_box(m)
        })
    });
}

fn bench_effect_apply(c: &mut Criterion) {
    // Pre-prepared concurrent effects from all three origins, applied in
    // one drain — the op-mode deliver_buffered inner loop.
    let base = grown(23, GROW_OPS);
    let mut locals: Vec<CrdtState> = (0..REPLICAS).map(|_| base.clone()).collect();
    let mut seqs = [10_000u64; REPLICAS];
    let mut w = 5u64;
    let effects: Vec<CrdtEffect> = (0..EFFECTS_PER_ITER)
        .map(|i| {
            w = mix(w);
            let r = i % REPLICAS;
            seqs[r] += 1;
            let ctx = EffectCtx {
                replica: r,
                seq: seqs[r],
                lamport: 20_000 + i as u64,
            };
            let e = locals[r].prepare(&decode(w), ctx);
            locals[r].effect(&e);
            e
        })
        .collect();
    c.bench_function("crdt/apply-256effects", |bch| {
        bch.iter(|| {
            let mut s = base.clone();
            for e in &effects {
                s.effect(black_box(e));
            }
            black_box(s)
        })
    });
}

fn bench_orset_roundtrip(c: &mut Criterion) {
    let mut set = OrSet::<u64>::default();
    let mut seq = 0u64;
    c.bench_function("crdt/orset-add-remove", |bch| {
        bch.iter(|| {
            seq += 1;
            let add = set.prepare(
                &SetOp::Add(seq % 64),
                EffectCtx {
                    replica: 0,
                    seq,
                    lamport: seq,
                },
            );
            set.effect(&add);
            seq += 1;
            let rm = set.prepare(
                &SetOp::Remove(seq % 64),
                EffectCtx {
                    replica: 0,
                    seq,
                    lamport: seq,
                },
            );
            set.effect(&rm);
            black_box(set.contains(&(seq % 64)))
        })
    });
}

fn bench_escrow_sell(c: &mut Criterion) {
    // One covered sale: the entire coordination-free fast path at the
    // data layer (remaining check + own-row bump).
    let base = EscrowState::new(vec![1_000_000, 0, 0]);
    let mut ledger = base.clone();
    c.bench_function("crdt/escrow-sell", |bch| {
        bch.iter(|| {
            if ledger.remaining(0) == 0 {
                ledger = base.clone();
            }
            black_box(ledger.sell(black_box(0)))
        })
    });

    // The gossip absorption cost for the 3-segment ledger.
    let mut peer = base.clone();
    peer.grant(0, 1, 500);
    for _ in 0..400 {
        peer.sell(1);
    }
    c.bench_function("crdt/escrow-merge", |bch| {
        bch.iter(|| {
            let mut m = base.clone();
            m.merge(black_box(&peer));
            black_box(m.total_sold())
        })
    });
}

/// A peer that takes whatever it is sent and never answers, so the
/// replica under test never hears its own updates acknowledged.
struct Silent;

impl Node<CrdtMsg> for Silent {
    fn on_message(&mut self, _: &mut Ctx<'_, CrdtMsg>, _: NodeId, _: CrdtMsg) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, CrdtMsg>, _: Timer) {}

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

const FOREIGN_EFFECTS: u64 = 5_000;
const OWN_UNACKED: u64 = 4;

fn bench_anti_entropy_retry(c: &mut Criterion) {
    // The FRK replica of the EC2 deployment with two silent peers: it
    // delivers 5 000 effects from IRL's, then accepts four writes of its
    // own that neither peer acknowledges. One iteration runs the engine
    // for one retry period: the retry fires once and re-sends the four
    // to both peers (the previous iteration's re-sends arrive in it).
    let (mut engine, ids) = Engine::ec2(1, |i, ids| match i {
        0 => Box::new(CrdtReplica::new(0, ids, Repl::Op, false)),
        _ => Box::new(Silent),
    });
    let mut origin = CrdtState::new();
    let mut w = 31u64;
    for seq in 1..=FOREIGN_EFFECTS {
        w = mix(w);
        let ctx = EffectCtx {
            replica: 1,
            seq,
            lamport: seq,
        };
        let effect = origin.prepare(&decode(w), ctx);
        origin.effect(&effect);
        let entry = Arc::new(SecEntry {
            origin: 1,
            seq,
            ts: seq,
            vc: VectorClock::from(vec![0, seq, 0]),
            effect,
        });
        engine.schedule_message(ids[1], ids[0], SimDuration::ZERO, CrdtMsg::Effect { entry });
    }
    let wants = Wants::of(&[
        correctables::ConsistencyLevel::WEAK,
        correctables::ConsistencyLevel::STRONG,
    ]);
    for op in 0..OWN_UNACKED {
        let submit = ClientMsg::Submit {
            op,
            client_op: CrdtOp::CtrAdd(op, 1),
            wants,
        };
        engine.schedule_message(ids[1], ids[0], SimDuration::ZERO, CrdtMsg::Client(submit));
    }
    engine.run_for(SimDuration::from_millis(100));
    assert_eq!(
        engine.node_as::<CrdtReplica>(ids[0]).sec_log().len() as u64,
        FOREIGN_EFFECTS + OWN_UNACKED,
        "every effect delivered, every write accepted"
    );
    c.bench_function("crdt/anti-entropy-retry-5k-log", |bch| {
        bch.iter(|| black_box(engine.run_for(SimDuration::from_millis(200))))
    });
}

const STATE_KEYS: u64 = 32;

fn bench_state_transfer(c: &mut Criterion) {
    // The causal store on the EC2 sites, primary in FRK, every replica
    // seeded with the same 32 keys. One iteration: the IRL backup asks
    // the primary for a state transfer and adopts the answer (nothing
    // in it is fresher). Each key and list is built once and shared by
    // the three replicas, as `SimCausal::seed` does.
    let (mut engine, ids) = Engine::ec2(1, |i, ids| Box::new(CausalReplica::new(i, ids, 0)));
    let seeded: Vec<(Arc<str>, Item)> = (0..STATE_KEYS)
        .map(|k| {
            let item = Item {
                rev: 1,
                items: vec![k, k + 1].into(),
            };
            (format!("k{k}").into(), item)
        })
        .collect();
    for id in &ids {
        let replica = engine.node_as::<CausalReplica>(*id);
        for (key, item) in &seeded {
            replica.seed(Arc::clone(key), item.clone());
        }
    }
    let (primary, backup) = (ids[0], ids[1]);
    c.bench_function("causal/state-transfer-32-keys", |bch| {
        bch.iter(|| {
            engine.schedule_message(backup, primary, SimDuration::ZERO, Msg::SyncReq);
            black_box(engine.run_until_idle(16))
        })
    });
    assert!(engine.node_as::<CausalReplica>(primary).syncs_served > 0);
}

fn bench_state_transfer_to_a_stale_backup(c: &mut Criterion) {
    // As `causal/state-transfer-32-keys`, but the primary holds revision
    // 2 of every key and the backup is handed back its revision-1 map
    // before each transfer, so every key of the snapshot is adopted. The
    // backup shares that map with this bench, so each adoption also
    // copies it once (copy on write) before its 32 inserts.
    let (mut engine, ids) = Engine::ec2(1, |i, ids| Box::new(CausalReplica::new(i, ids, 0)));
    for (i, id) in ids.iter().enumerate() {
        let replica = engine.node_as::<CausalReplica>(*id);
        let rev = if i == 0 { 2 } else { 1 };
        for k in 0..STATE_KEYS {
            let items = vec![k, k + rev].into();
            replica.seed(format!("k{k}").into(), Item { rev, items });
        }
    }
    let (primary, backup) = (ids[0], ids[1]);
    let stale = Arc::clone(&engine.node_as::<CausalReplica>(backup).data);
    c.bench_function("causal/state-transfer-32-keys-stale", |bch| {
        bch.iter(|| {
            engine.node_as::<CausalReplica>(backup).data = Arc::clone(&stale);
            engine.schedule_message(backup, primary, SimDuration::ZERO, Msg::SyncReq);
            black_box(engine.run_until_idle(16))
        })
    });
    let adopted = &engine.node_as::<CausalReplica>(backup).data;
    assert!(
        adopted.values().all(|item| item.rev == 2),
        "every key adopted"
    );
}

criterion_group!(
    benches,
    bench_state_merge,
    bench_effect_apply,
    bench_orset_roundtrip,
    bench_escrow_sell,
    bench_anti_entropy_retry,
    bench_state_transfer,
    bench_state_transfer_to_a_stale_backup
);
criterion_main!(benches);
