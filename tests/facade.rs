//! Coverage of the `icg` facade re-exports: every workspace crate is
//! reachable through the facade, and `Client::invoke` runs end to end
//! through each storage substrate at every consistency level the
//! substrate's binding advertises — both level-by-level (via
//! `LevelSelection::Only`) and incrementally (the default `invoke`).

use icg::causalstore::{CacheOp, SimCausal};
use icg::consensusq::{QueueOp, ServerConfig, SimQueue};
use icg::correctables::{Binding, Client, ConsistencyLevel, LevelSelection, LevelSet};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value};

/// Drives one op through `binding` at every advertised level in
/// isolation, then incrementally across all levels, settling the
/// simulation via `settle` after each invocation. Returns the advertised
/// levels for substrate-specific assertions.
fn exercise_all_levels<B, F>(binding: B, mut op: impl FnMut() -> B::Op, mut settle: F) -> LevelSet
where
    B: Binding + Clone + 'static,
    B::Op: Send + 'static,
    F: FnMut(),
{
    let levels = binding.consistency_levels();
    assert!(!levels.is_empty(), "binding advertises no levels");
    assert!(
        levels.as_slice().windows(2).all(|w| w[0] < w[1]),
        "levels must be advertised weakest-first: {levels:?}"
    );

    // Each level alone: exactly one view, final, at the requested level.
    for level in &levels {
        let client = Client::new(binding.clone());
        let c = client.invoke_with(op(), &LevelSelection::only(&[level]));
        settle();
        assert!(
            c.preliminary_views().is_empty(),
            "single-level invoke at {level} produced preliminaries"
        );
        let fin = c.final_view().unwrap_or_else(|| {
            panic!(
                "single-level invoke at {level} did not resolve (state {:?})",
                c.state()
            )
        });
        assert_eq!(fin.level, level);
    }

    // All levels incrementally: preliminaries weakest-first, closed at the
    // strongest advertised level.
    let client = Client::new(binding.clone());
    let c = client.invoke(op());
    settle();
    let seen: Vec<ConsistencyLevel> = c
        .preliminary_views()
        .iter()
        .map(|v| v.level)
        .chain(c.final_view().map(|v| v.level))
        .collect();
    assert_eq!(
        seen,
        levels.to_vec(),
        "incremental invoke must deliver every level"
    );

    levels
}

#[test]
fn quorum_store_serves_every_level() {
    let qs = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 11);
    qs.preload((0..8).map(|i| (Key::plain(i), Value::Opaque(64))));
    let levels = exercise_all_levels(
        qs.binding(),
        || StoreOp::Read(Key::plain(3)),
        || qs.settle(),
    );
    assert_eq!(
        levels,
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    );
}

#[test]
fn consensus_queue_serves_every_level() {
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", 12);
    q.prefill(64, 20);
    let levels = exercise_all_levels(q.binding(), || QueueOp::Dequeue, || q.settle());
    assert_eq!(
        levels,
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    );
}

#[test]
fn causal_store_serves_every_level() {
    let n = SimCausal::ec2("VRG", "IRL", 13);
    n.seed("key", 1, vec![42]);
    let levels = exercise_all_levels(n.binding(), || CacheOp::Get("key".into()), || n.settle());
    assert_eq!(
        levels,
        LevelSet::of(&[
            ConsistencyLevel::CACHE,
            ConsistencyLevel::CAUSAL,
            ConsistencyLevel::STRONG
        ])
    );
}

#[test]
fn facade_reexports_every_workspace_crate() {
    // One load-bearing item per re-exported crate; a missing or renamed
    // re-export fails this test at compile time.
    let _level: icg::correctables::ConsistencyLevel = icg::correctables::ConsistencyLevel::WEAK;
    let _duration = icg::simnet::SimDuration::from_millis(1);
    let _key = icg::quorumstore::Key::plain(0);
    let _op = icg::consensusq::QueueOp::Dequeue;
    let _cache_op = icg::causalstore::CacheOp::Get("k".into());
    let _update = icg::specstore::UpdateId { origin: 0, seq: 1 };
    let _workload = icg::ycsb::Workload::a(icg::ycsb::Distribution::Uniform, 10);
    let _depth = icg::blockchain::FINAL_DEPTH;
    let _ads = icg::apps::AdsDataset::small();
    let _ring = icg::shard::HashRing::new(1, 1, 0);
}
