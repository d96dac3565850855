//! A synchronous, in-process CRDT shard: the keyed-binding backend for
//! `ShardedBinding` tests.
//!
//! [`LocalCrdt`] serves a configurable slice of the lattice over one
//! [`CrdtState`], with a tunable **freshness lag**: weak views are read
//! from a stale snapshot that trails the fresh state by `lag` applied
//! effects, modeling a replica whose anti-entropy is behind. The
//! strongest served level always reads the fresh state and closes the
//! upcall. Different shards in one router can then answer at different
//! CRDT freshness — exactly the situation `scatter`'s
//! weakest-common-level merge must stay monotone under.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::{Binding, ConsistencyLevel, LevelSet, Upcall};

use crate::object::{CrdtOp, CrdtState, CrdtVal};
use crate::types::{Crdt, EffectCtx};

struct Inner {
    fresh: CrdtState,
    stale: CrdtState,
    /// Effects applied to `fresh` but not yet to `stale`.
    pending: VecDeque<crate::object::CrdtEffect>,
    lag: usize,
    seq: u64,
    lamport: u64,
}

/// A single-process CRDT shard with a freshness-lagged weak view.
#[derive(Clone)]
pub struct LocalCrdt {
    inner: Arc<Mutex<Inner>>,
    levels: LevelSet,
}

impl LocalCrdt {
    /// A shard serving weak + strong, with weak views trailing the
    /// fresh state by `lag` effects.
    pub fn new(lag: usize) -> LocalCrdt {
        Self::with_levels(
            LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG]),
            lag,
        )
    }

    /// A shard serving an arbitrary lattice slice. All levels below the
    /// strongest read the stale snapshot; the strongest reads fresh and
    /// closes.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn with_levels(levels: LevelSet, lag: usize) -> LocalCrdt {
        assert!(!levels.to_vec().is_empty(), "a shard must serve some level");
        LocalCrdt {
            inner: Arc::new(Mutex::new(Inner {
                fresh: CrdtState::new(),
                stale: CrdtState::new(),
                pending: VecDeque::new(),
                lag,
                seq: 0,
                lamport: 0,
            })),
            levels,
        }
    }
}

impl Binding for LocalCrdt {
    type Op = CrdtOp;
    type Val = CrdtVal;

    fn consistency_levels(&self) -> LevelSet {
        self.levels.clone()
    }

    fn submit(&self, op: CrdtOp, _levels: &[ConsistencyLevel], upcall: Upcall<CrdtVal>) {
        let mut inner = self.inner.lock();
        if !op.is_read() {
            inner.seq += 1;
            inner.lamport += 1;
            let ctx = EffectCtx {
                replica: 0,
                seq: inner.seq,
                lamport: inner.lamport,
            };
            let effect = inner.fresh.prepare(&op, ctx);
            inner.fresh.effect(&effect);
            inner.pending.push_back(effect);
        }
        // Advance the stale snapshot to within `lag` effects.
        while inner.pending.len() > inner.lag {
            let e = inner.pending.pop_front().expect("len checked");
            inner.stale.effect(&e);
        }
        // Deliver every served level ascending; the upcall's own
        // arbitration drops non-requested prelims and closes at the
        // strongest requested one.
        let served = self.levels.to_vec();
        let strongest = *served.last().expect("non-empty by construction");
        for level in served {
            let val = if level == strongest {
                inner.fresh.eval(&op)
            } else {
                inner.stale.eval(&op)
            };
            upcall.deliver(val, level);
        }
    }
}
