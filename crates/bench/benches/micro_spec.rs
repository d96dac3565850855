//! Microbenchmarks of the spec store's replay views
//! (`specstore::ReplayLog` over a 64-key `CounterSpec`), at three log
//! lengths: what one view costs must not depend on how long the replica
//! has been up.
//!
//! 1. `spec/weak-view-N` — an unlogged op on top of the whole log;
//! 2. `spec/update-view-at-tail-N` — the value of the newest update, by
//!    order key, with the tip already past it (a checkpoint clone plus
//!    `N mod stride` steps);
//! 3. `spec/strong-view-32-back-N` — the same for the update 32 entries
//!    from the tail, where stabilized updates typically sit;
//! 4. `spec/late-insert-64-back` — a gossiped update that sorts 64
//!    entries from the tail of a 10 000-entry log, and the next view
//!    (the log grows by one per iteration; the distance stays 64).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use correctables::spec::{CounterSpec, CtrOp};
use specstore::{ReplayLog, Update, UpdateId, VectorClock};

const KEYS: u64 = 64;
const LENGTHS: [u64; 3] = [100, 1_000, 10_000];

fn op(i: u64) -> CtrOp {
    match i % 3 {
        0 => CtrOp::Get(i % KEYS),
        _ => CtrOp::Add(i % KEYS, 1 + i % 9),
    }
}

/// Update `i` of a three-origin log, timestamps 10 apart.
fn update(i: u64) -> Update<CtrOp> {
    Update {
        id: UpdateId {
            origin: (i % 3) as usize,
            seq: 1 + i / 3,
        },
        ts: 10 * i,
        vc: VectorClock::zero(3),
        op: op(i),
    }
}

/// A log of `n` updates whose tip has caught up with its tail.
fn warmed(n: u64) -> ReplayLog<CounterSpec> {
    let mut log = ReplayLog::new(CounterSpec);
    (0..n).for_each(|i| log.insert(update(i)));
    log.ret_on_top(&CtrOp::Get(0));
    log
}

fn bench_views(c: &mut Criterion) {
    for n in LENGTHS {
        let mut log = warmed(n);
        let probe = CtrOp::Add(7, 1);
        c.bench_function(&format!("spec/weak-view-{n}"), |b| {
            b.iter(|| black_box(log.ret_on_top(black_box(&probe))))
        });
        let tail = update(n - 1).key();
        c.bench_function(&format!("spec/update-view-at-tail-{n}"), |b| {
            b.iter(|| black_box(log.ret_of(black_box(tail))))
        });
        let back = update(n - 33).key();
        c.bench_function(&format!("spec/strong-view-32-back-{n}"), |b| {
            b.iter(|| black_box(log.ret_of(black_box(back))))
        });
    }
}

fn bench_late_insert(c: &mut Criterion) {
    let n = 10_000;
    let mut log = warmed(n);
    // Every late update shares one timestamp in the gap below the last
    // 64 entries and sorts after its predecessors by `seq`.
    let gap = 10 * (n - 64) - 5;
    let mut seq = n;
    c.bench_function("spec/late-insert-64-back", |b| {
        b.iter(|| {
            seq += 1;
            log.insert(Update {
                id: UpdateId { origin: 0, seq },
                ts: gap,
                ..update(seq)
            });
            black_box(log.ret_on_top(&CtrOp::Get(1)))
        })
    });
}

criterion_group!(benches, bench_views, bench_late_insert);
criterion_main!(benches);
