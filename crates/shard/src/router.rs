//! [`ShardedBinding`]: the multi-object router.
//!
//! The router implements [`Binding`] itself, so a `Client` (and every
//! combinator, speculation helper, and load driver in the workspace)
//! works over a sharded store unchanged. Each keyed op is routed, on the
//! caller thread, to the owning shard's inner binding, and that shard's
//! per-level upcall deliveries flow through untouched.
//! [`ShardedBinding::scatter`] adds the one genuinely multi-shard
//! operation: a multi-get whose merged Correctable carries
//! weakest-common-level semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use correctables::{Binding, ConsistencyLevel, Correctable, KeyedOp, LevelSet, Upcall};

use crate::ring::HashRing;

struct Inner<B: Binding> {
    shards: Vec<B>,
    ring: HashRing,
    /// The common level set of all shards, sorted weakest-first.
    levels: LevelSet,
    /// Ops routed to each shard so far.
    routed: Vec<AtomicU64>,
}

/// A sharded multi-object store over `N` single-object bindings.
pub struct ShardedBinding<B: Binding> {
    inner: Arc<Inner<B>>,
}

impl<B: Binding> Clone for ShardedBinding<B> {
    fn clone(&self) -> Self {
        ShardedBinding {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: Binding> ShardedBinding<B>
where
    B::Op: KeyedOp,
{
    /// A router over `shards` that submits on the caller thread, placing
    /// keys with a `vnodes`-per-shard ring drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards advertise different
    /// consistency levels.
    pub fn inline(shards: Vec<B>, vnodes: usize, seed: u64) -> Self {
        assert!(
            !shards.is_empty(),
            "sharded binding needs at least one shard"
        );
        let levels = shards[0].consistency_levels();
        for (i, s) in shards.iter().enumerate().skip(1) {
            assert_eq!(
                s.consistency_levels(),
                levels,
                "shard {i} advertises different consistency levels"
            );
        }
        ShardedBinding {
            inner: Arc::new(Inner {
                ring: HashRing::new(shards.len() as u32, vnodes, seed),
                routed: shards.iter().map(|_| AtomicU64::new(0)).collect(),
                shards,
                levels,
            }),
        }
    }

    /// The ring this router places keys with.
    pub fn ring(&self) -> &HashRing {
        &self.inner.ring
    }

    /// Ops routed to each shard so far.
    pub fn routed_per_shard(&self) -> Vec<u64> {
        self.inner
            .routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Drives a fleet of simulated shards to quiescence: runs `pass` (one
    /// settle of every shard) again until a whole pass routes no new op.
    /// Callbacks running mid-pass may submit more work, possibly to a
    /// shard that already settled this pass.
    pub fn settle(&self, mut pass: impl FnMut()) {
        let routed = || self.routed_per_shard().iter().sum::<u64>();
        let mut before = routed();
        loop {
            pass();
            let after = routed();
            if after == before {
                return;
            }
            before = after;
        }
    }

    /// Multi-get/scatter across all levels: one logical invocation fanned
    /// out to every owning shard, merged with weakest-common-level
    /// semantics (see [`Correctable::gather`]).
    pub fn scatter(&self, ops: Vec<B::Op>) -> Correctable<Vec<B::Val>> {
        let levels = self.inner.levels.as_slice();
        let parts = ops
            .into_iter()
            .map(|op| {
                let (c, handle) = Correctable::pending();
                self.submit(op, levels, Upcall::for_levels(handle, levels));
                c
            })
            .collect();
        Correctable::gather(parts)
    }
}

impl<B: Binding> Binding for ShardedBinding<B>
where
    B::Op: KeyedOp,
{
    type Op = B::Op;
    type Val = B::Val;

    fn consistency_levels(&self) -> LevelSet {
        self.inner.levels.clone()
    }

    fn submit(&self, op: B::Op, levels: &[ConsistencyLevel], upcall: Upcall<B::Val>) {
        let idx = self.inner.ring.owner_index(op.object_id());
        self.inner.routed[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.shards[idx].submit(op, levels, upcall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::{Client, State};
    use icg_crdt::{CrdtOp, CrdtVal, LocalCrdt};
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;

    fn sharded(n: usize) -> ShardedBinding<LocalCrdt> {
        ShardedBinding::inline((0..n).map(|_| LocalCrdt::new(0)).collect(), 64, 42)
    }

    #[test]
    fn routes_by_key_and_reemits_levels_unchanged() {
        let s = sharded(4);
        let client = Client::new(s.clone());
        for k in 0..64 {
            client.invoke_strong(CrdtOp::CtrAdd(k, 10 * k as i64));
        }
        for k in 0..64 {
            let c = client.invoke(CrdtOp::CtrGet(k));
            assert_eq!(c.state(), State::Final);
            assert_eq!(c.preliminary_views().len(), 1);
            assert_eq!(c.preliminary_views()[0].level, WEAK);
            let fin = c.final_view().unwrap();
            assert_eq!(fin.level, STRONG);
            assert_eq!(fin.value, CrdtVal::Int(10 * k as i64));
        }
        // Keys actually spread over the shards.
        let routed = s.routed_per_shard();
        assert!(routed.iter().all(|&r| r > 0), "unbalanced: {routed:?}");
        assert_eq!(routed.iter().sum::<u64>(), 128);
    }

    #[test]
    fn same_key_always_lands_on_same_shard() {
        let s = sharded(8);
        let client = Client::new(s.clone());
        client.invoke_strong(CrdtOp::CtrAdd(7, 1));
        client.invoke_strong(CrdtOp::CtrAdd(7, 2));
        client.invoke_strong(CrdtOp::CtrAdd(7, 3));
        let c = client.invoke_strong(CrdtOp::CtrGet(7));
        assert_eq!(c.final_view().unwrap().value, CrdtVal::Int(6));
        // Exactly one shard served the key.
        let routed = s.routed_per_shard();
        assert_eq!(routed.iter().filter(|&&r| r > 0).count(), 1, "{routed:?}");
    }

    #[test]
    fn settle_repeats_passes_until_one_routes_nothing() {
        let s = sharded(2);
        let client = Client::new(s.clone());
        let mut passes = 0;
        // The first two passes each route an op, as a callback chaining
        // work mid-settle would; the third routes none and ends it.
        s.settle(|| {
            passes += 1;
            if passes <= 2 {
                client.invoke(CrdtOp::CtrAdd(passes, 1));
            }
        });
        assert_eq!(passes, 3);
    }

    #[test]
    fn scatter_closes_at_weakest_common_level() {
        let s = sharded(4);
        for k in 0..16 {
            Client::new(s.clone()).invoke_strong(CrdtOp::CtrAdd(k, 100 + k as i64));
        }
        let c = s.scatter((0..16).map(CrdtOp::CtrGet).collect());
        assert_eq!(c.state(), State::Final);
        // Each shard delivers WEAK then STRONG, so the merge surfaces one
        // WEAK common view before closing at STRONG.
        let prelims = c.preliminary_views();
        assert!(!prelims.is_empty());
        assert_eq!(prelims[0].level, WEAK);
        assert!(prelims
            .windows(2)
            .all(|w| w[0].level.rank() < w[1].level.rank()));
        let fin = c.final_view().unwrap();
        assert_eq!(fin.level, STRONG);
        assert_eq!(
            fin.value,
            (0..16).map(|k| CrdtVal::Int(100 + k)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_of_nothing_closes_immediately() {
        let s = sharded(2);
        let c = s.scatter(Vec::new());
        assert_eq!(c.final_view().unwrap().value, Vec::<CrdtVal>::new());
    }

    #[test]
    fn mismatched_shard_levels_are_rejected() {
        let ok = LocalCrdt::new(0);
        let weak_only = LocalCrdt::with_levels(LevelSet::of(&[WEAK]), 0);
        let r = std::panic::catch_unwind(|| ShardedBinding::inline(vec![ok, weak_only], 8, 0));
        assert!(r.is_err());
    }
}
