//! Sharded counters: the `icg-shard` routing layer end to end.
//!
//! Builds an 8-shard CRDT counter store behind one sharded binding,
//! pushes an increment workload through it (each op routed by the
//! consistent-hash ring to the shard that owns its key), and reads the
//! counters back with a scatter (multi-get) whose merged Correctable
//! carries weakest-common-level semantics. Each shard's weak view trails
//! its fresh state by a different number of updates, so the scatter's
//! preliminary is stale where its final is not.
//!
//! Run with `cargo run --release --example sharded_counters`.

use icg::correctables::Client;
use icg::crdt::{CrdtOp, CrdtVal, LocalCrdt};
use icg::shard::ShardedBinding;

const SHARDS: usize = 8;
const COUNTERS: u64 = 256;
const INCREMENTS: u64 = 100_000;

fn main() {
    let router =
        ShardedBinding::inline((0..SHARDS).map(|i| LocalCrdt::new(i % 3)).collect(), 64, 42);
    let client = Client::new(router.clone());
    let levels: Vec<String> = client
        .consistency_levels()
        .iter()
        .map(|l| l.to_string())
        .collect();
    println!("sharded counter store: {SHARDS} shards x 64 vnodes, levels {levels:?}\n");

    // --- increments, routed op by op -------------------------------------
    for i in 0..INCREMENTS {
        client.invoke_strong(CrdtOp::CtrAdd(i % COUNTERS, 1));
    }
    println!("{INCREMENTS} increments over {COUNTERS} counters");
    println!("ops per shard: {:?}\n", router.routed_per_shard());

    // --- scatter: one logical multi-get across every shard --------------
    // One more bump of each key read back: a shard whose weak view lags
    // has not applied its last one or two of these yet.
    let keys: Vec<u64> = (0..10).collect();
    for &k in &keys {
        client.invoke_strong(CrdtOp::CtrAdd(k, 1));
    }
    let c = router.scatter(keys.iter().map(|&k| CrdtOp::CtrGet(k)).collect());
    for v in c.preliminary_views() {
        println!(
            "scatter preliminary at `{}` (every shard answered at least weakly): {:?}",
            v.level, v.value
        );
    }
    let fin = c.final_view().expect("scatter closed");
    println!(
        "scatter final at `{}` (all shards delivered their strongest view):",
        fin.level
    );
    for (k, v) in keys.iter().zip(&fin.value) {
        println!("  counter {k:2} = {v:?}");
    }
    for (&k, v) in keys.iter().zip(&fin.value) {
        let expect = INCREMENTS / COUNTERS + u64::from(k < INCREMENTS % COUNTERS) + 1;
        assert_eq!(*v, CrdtVal::Int(expect as i64), "counter {k}");
    }
}
