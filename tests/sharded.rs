//! End-to-end coverage of the sharding layer over the simulated
//! substrates: routing through real multi-shard SimStore/SimCausal
//! fleets, per-level re-emission, and scatter/gather close semantics.

use icg::causalstore::CacheOp;
use icg::correctables::{Client, ConsistencyLevel, ObjectId, State};
use icg::quorumstore::{Key, StoreOp, Value};
use icg::sharded::{ShardedSimCausal, ShardedSimStore};

#[test]
fn sharded_quorum_store_routes_and_reemits_every_level() {
    let fleet = ShardedSimStore::ec2(4, 2, false, 77);
    fleet.preload((0..64).map(|i| (Key::plain(i), Value::Opaque(100 + i as u32))));
    let client = Client::new(fleet.binding());

    let reads: Vec<_> = (0..64)
        .map(|i| client.invoke(StoreOp::Read(Key::plain(i))))
        .collect();
    fleet.settle();
    for (i, c) in reads.iter().enumerate() {
        assert_eq!(c.state(), State::Final, "key {i}");
        // The owning shard's ICG pipeline flows through unchanged:
        // preliminary at Weak, close at Strong.
        assert_eq!(c.preliminary_views().len(), 1, "key {i}");
        assert_eq!(c.preliminary_views()[0].level, ConsistencyLevel::WEAK);
        let fin = c.final_view().unwrap();
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value.value, Value::Opaque(100 + i as u32));
    }
    // The keyspace actually spread across the fleet.
    let routed = fleet.binding().routed_per_shard();
    assert_eq!(routed.iter().sum::<u64>(), 64);
    assert!(
        routed.iter().all(|&r| r > 0),
        "unbalanced fleet: {routed:?}"
    );
}

#[test]
fn sharded_write_then_read_is_shard_local() {
    let fleet = ShardedSimStore::ec2(4, 2, false, 3);
    let client = Client::new(fleet.binding());
    let w = client.invoke_strong(StoreOp::Write(Key::plain(9), Value::Opaque(55)));
    fleet.settle();
    assert_eq!(w.state(), State::Final);
    let r = client.invoke_strong(StoreOp::Read(Key::plain(9)));
    fleet.settle();
    assert_eq!(r.final_view().unwrap().value.value, Value::Opaque(55));
    // Both ops hit the same single shard.
    let routed = fleet.binding().routed_per_shard();
    assert_eq!(routed.iter().filter(|&&r| r > 0).count(), 1);
    assert_eq!(routed.iter().sum::<u64>(), 2);
}

#[test]
fn scatter_closes_when_every_shard_delivered_strongest() {
    let fleet = ShardedSimStore::ec2(4, 2, false, 21);
    fleet.preload((0..16).map(|i| (Key::plain(i), Value::Opaque(10 + i as u32))));
    let c = fleet
        .binding()
        .scatter((0..16).map(|i| StoreOp::Read(Key::plain(i))).collect());
    fleet.settle();
    assert_eq!(c.state(), State::Final);
    // Intermediate view at the weakest common level once every touched
    // shard flushed a preliminary, then the close at Strong.
    let prelims = c.preliminary_views();
    assert!(!prelims.is_empty());
    assert_eq!(prelims[0].level, ConsistencyLevel::WEAK);
    let fin = c.final_view().unwrap();
    assert_eq!(fin.level, ConsistencyLevel::STRONG);
    let values: Vec<Value> = fin.value.iter().map(|v| v.value.clone()).collect();
    assert_eq!(
        values,
        (0..16)
            .map(|i| Value::Opaque(10 + i as u32))
            .collect::<Vec<_>>()
    );
}

#[test]
fn sharded_causal_store_keeps_three_level_pipeline() {
    let fleet = ShardedSimCausal::ec2(3, 13);
    for k in 0..9 {
        fleet.seed(&format!("news-{k}"), 1, vec![k]);
    }
    let client = Client::new(fleet.binding());
    let reads: Vec<_> = (0..9)
        .map(|k| client.invoke(CacheOp::Get(format!("news-{k}"))))
        .collect();
    fleet.settle();
    for (k, c) in reads.iter().enumerate() {
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 2, "key {k}");
        assert_eq!(prelims[0].level, ConsistencyLevel::CACHE);
        assert_eq!(prelims[1].level, ConsistencyLevel::CAUSAL);
        let fin = c.final_view().unwrap();
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value.map(|i| i.items.to_vec()), Some(vec![k as u64]));
    }
}

#[test]
fn facade_reexports_the_shard_crate() {
    let ring = icg::shard::HashRing::new(2, icg::sharded::VNODES, 0);
    assert!(ring.owner_index(ObjectId(5)) < 2);
    let merged = icg::correctables::Correctable::<u8>::gather(Vec::new());
    assert_eq!(merged.state(), State::Final);
}
