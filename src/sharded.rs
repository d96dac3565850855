//! Sharded simulation stacks: the `icg-shard` routing layer assembled
//! over the paper's simulated substrates.
//!
//! Each shard is one complete simulated deployment (its own replicas,
//! gateway, and virtual clock) and keeps its own incremental-consistency
//! pipeline; the router fans keyed operations out across shards and
//! merges per-level views. [`ShardedSimStore::settle`] drives every
//! shard's engine until the whole fleet is quiescent, including ops that
//! callbacks submit mid-settle (speculative chains route like first-class
//! traffic).

use correctables::KeyedOp;

use causalstore::{CacheOp, CausalBinding, SimCausal};
use icg_shard::ShardedBinding;
use quorumstore::{Key, QuorumBinding, ReplicaConfig, SimStore, StoreOp, Value};

/// Virtual nodes per shard used by the facade stacks.
pub const VNODES: usize = 64;

/// A fleet of quorum-store deployments behind one sharded binding.
pub struct ShardedSimStore {
    binding: ShardedBinding<QuorumBinding>,
    stores: Vec<SimStore>,
}

impl ShardedSimStore {
    /// Builds `shards` independent FRK/IRL/VRG deployments (client
    /// gateway in IRL, coordinator in FRK — the paper's §6.1 setup) with
    /// inline routing.
    pub fn ec2(shards: usize, r_strong: u8, confirm: bool, seed: u64) -> ShardedSimStore {
        let stores: Vec<SimStore> = (0..shards)
            .map(|i| {
                SimStore::ec2(
                    ReplicaConfig::default(),
                    r_strong,
                    confirm,
                    "IRL",
                    0,
                    seed.wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        let bindings: Vec<QuorumBinding> = stores.iter().map(|s| s.binding()).collect();
        let binding = ShardedBinding::inline(bindings, VNODES, seed);
        ShardedSimStore { binding, stores }
    }

    /// The sharded Correctables binding over the fleet.
    pub fn binding(&self) -> ShardedBinding<QuorumBinding> {
        self.binding.clone()
    }

    /// Seeds each record on the replicas of the shard that owns its key:
    /// the records are grouped by shard, and each shard is preloaded
    /// once.
    pub fn preload<I>(&self, records: I)
    where
        I: IntoIterator<Item = (Key, Value)>,
    {
        let ring = self.binding.ring();
        let mut per_shard: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.stores.len()];
        for (key, value) in records {
            let idx = ring.owner_index(StoreOp::Read(key).object_id());
            per_shard[idx].push((key, value));
        }
        for (store, records) in self.stores.iter().zip(per_shard) {
            store.preload(records);
        }
    }

    /// Drives every shard's simulation until all submitted operations —
    /// including ops submitted by callbacks while other shards settle —
    /// have resolved.
    pub fn settle(&self) {
        self.binding.settle(|| {
            for s in &self.stores {
                s.settle();
            }
        });
    }
}

/// A fleet of cached causal deployments behind one sharded binding.
pub struct ShardedSimCausal {
    binding: ShardedBinding<CausalBinding>,
    stores: Vec<SimCausal>,
}

impl ShardedSimCausal {
    /// Builds `shards` news-reader deployments (primary VRG, client IRL)
    /// with inline routing.
    pub fn ec2(shards: usize, seed: u64) -> ShardedSimCausal {
        let stores: Vec<SimCausal> = (0..shards)
            .map(|i| {
                SimCausal::ec2(
                    "VRG",
                    "IRL",
                    seed.wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        let bindings: Vec<CausalBinding> = stores.iter().map(|s| s.binding()).collect();
        let binding = ShardedBinding::inline(bindings, VNODES, seed);
        ShardedSimCausal { binding, stores }
    }

    /// The sharded Correctables binding over the fleet.
    pub fn binding(&self) -> ShardedBinding<CausalBinding> {
        self.binding.clone()
    }

    /// Seeds a key (replicas + cache) on the shard that owns it.
    pub fn seed(&self, key: &str, rev: u64, items: Vec<u64>) {
        let idx = self
            .binding
            .ring()
            .owner_index(CacheOp::Get(key.to_string()).object_id());
        self.stores[idx].seed(key, rev, items);
    }

    /// Drives every shard's simulation until all submitted operations
    /// have resolved.
    pub fn settle(&self) {
        self.binding.settle(|| {
            for s in &self.stores {
                s.settle();
            }
        });
    }
}
