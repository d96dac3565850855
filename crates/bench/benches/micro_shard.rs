//! Microbenchmarks of the `icg-shard` routing layer:
//!
//! 1. ring lookup cost;
//! 2. router overhead — an op through the inline sharded router vs. the
//!    same op submitted directly to a single binding;
//! 3. a 16-key scatter across 8 shards, merged by `Correctable::gather`.
//!
//! The shards are synchronous in-process CRDT stores (`LocalCrdt`), so
//! the numbers are routing and merging cost, not storage latency.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use correctables::{Client, ObjectId};
use icg_crdt::{CrdtOp, LocalCrdt};
use icg_shard::{HashRing, ShardedBinding};

const SHARDS: usize = 8;
const VNODES: usize = 128;
const RECORDS: u64 = 1_000;

fn shards() -> Vec<LocalCrdt> {
    (0..SHARDS).map(|_| LocalCrdt::new(0)).collect()
}

fn bench_ring(c: &mut Criterion) {
    let ring = HashRing::new(SHARDS as u32, VNODES, 42);
    let mut key = 0u64;
    c.bench_function("shard/ring-lookup-8x128", |b| {
        b.iter(|| {
            key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(ring.owner_index(ObjectId(black_box(key))))
        })
    });
}

fn bench_router_overhead(c: &mut Criterion) {
    // Baseline: one op straight into a single shard holding as many
    // counters as each routed shard does, so the stores cost the same.
    let direct = Client::new(LocalCrdt::new(0));
    let mut key = 0u64;
    c.bench_function("shard/direct-submit", |b| {
        b.iter(|| {
            key = key.wrapping_add(1);
            black_box(direct.invoke(CrdtOp::CtrAdd(key % (RECORDS / SHARDS as u64), 1)))
        })
    });

    // Same op through the inline router: the delta is pure routing cost
    // (ring lookup + dispatch), no threads involved.
    let routed = Client::new(ShardedBinding::inline(shards(), VNODES, 42));
    let mut key = 0u64;
    c.bench_function("shard/inline-routed-submit", |b| {
        b.iter(|| {
            key = key.wrapping_add(1);
            black_box(routed.invoke(CrdtOp::CtrAdd(key % RECORDS, 1)))
        })
    });
}

fn bench_scatter(c: &mut Criterion) {
    let router = ShardedBinding::inline(shards(), VNODES, 42);
    c.bench_function("shard/scatter-16keys", |b| {
        b.iter(|| {
            let c = router.scatter((0..16).map(CrdtOp::CtrGet).collect());
            black_box(c.final_view())
        })
    });
}

criterion_group!(benches, bench_ring, bench_router_overhead, bench_scatter);
criterion_main!(benches);
