//! The composite keyed CRDT object the simulated deployments replicate.
//!
//! [`CrdtState`] is one replica's whole store: keyed PN-Counters,
//! OR-Sets, and LWW-Maps under a single [`Crdt`] impl, so the
//! replication layer (op-shipping or state-shipping, `store.rs`) and
//! the oracle's SEC checker treat the entire store as one CRDT. Reads
//! prepare to a no-op effect and are answered from [`CrdtState::eval`];
//! writes dispatch to the per-type effect.
//!
//! With [`CrdtState::new_broken`], counter traffic is routed to the
//! deliberately non-commutative [`BrokenCrdt`] instead — the negative
//! fixture the oracle must reject.
//!
//! The same fail-soft rules as `types.rs` hold here, denied by the
//! attributes below.

// Fail soft (DESIGN.md §11): outside tests, nothing here may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::collections::BTreeMap;

use correctables::{KeyedOp, ObjectId};

use crate::types::{
    BrokenCrdt, BrokenSet, Crdt, EffectCtx, LwwMap, LwwPut, MapOp, OrSet, PnCounter, PnDelta,
    SetEffect, SetOp,
};

/// Client operations over the keyed CRDT store. Keys are `u64`s (as in
/// the counter spec's `CtrOp`); each key independently names one counter,
/// one set, or one map — the namespaces are disjoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrdtOp {
    /// Add a (possibly negative) delta to counter `key`.
    CtrAdd(u64, i64),
    /// Read counter `key`.
    CtrGet(u64),
    /// Insert `elem` into set `key`.
    SetAdd(u64, u64),
    /// Remove `elem` from set `key` (observed-remove).
    SetRemove(u64, u64),
    /// Membership test for `elem` in set `key`.
    SetContains(u64, u64),
    /// Write `field = value` in map `key` (last writer wins).
    MapPut(u64, u64, u64),
    /// Read `field` from map `key`.
    MapGet(u64, u64),
}

impl CrdtOp {
    /// The store key this operation touches.
    pub fn key(&self) -> u64 {
        match self {
            CrdtOp::CtrAdd(k, _)
            | CrdtOp::CtrGet(k)
            | CrdtOp::SetAdd(k, _)
            | CrdtOp::SetRemove(k, _)
            | CrdtOp::SetContains(k, _)
            | CrdtOp::MapPut(k, _, _)
            | CrdtOp::MapGet(k, _) => *k,
        }
    }

    /// Whether this is a read (prepares to [`CrdtEffect::Nop`]).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            CrdtOp::CtrGet(_) | CrdtOp::SetContains(_, _) | CrdtOp::MapGet(_, _)
        )
    }
}

impl KeyedOp for CrdtOp {
    fn object_id(&self) -> ObjectId {
        ObjectId(self.key())
    }
}

/// The value a [`CrdtOp`] evaluates to against one replica state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrdtVal {
    /// Counter reads and writes (the counter value).
    Int(i64),
    /// Set membership.
    Bool(bool),
    /// Map field reads and writes.
    Entry(Option<u64>),
}

/// The downstream effect of one [`CrdtOp`], tagged with its key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrdtEffect {
    /// Counter delta.
    Ctr(u64, PnDelta),
    /// Set add/remove.
    Set(u64, SetEffect<u64>),
    /// Map put.
    Map(u64, LwwPut),
    /// Broken-counter overwrite (negative fixture only).
    BrokenCtr(u64, BrokenSet),
    /// Reads ship nothing.
    Nop,
}

/// One replica's entire keyed store, as a single composite [`Crdt`].
#[derive(Clone, Default, PartialEq, Debug)]
pub struct CrdtState {
    broken: bool,
    counters: BTreeMap<u64, PnCounter>,
    sets: BTreeMap<u64, OrSet<u64>>,
    maps: BTreeMap<u64, LwwMap>,
    broken_ctrs: BTreeMap<u64, BrokenCrdt>,
}

impl CrdtState {
    /// An empty, healthy store.
    pub fn new() -> CrdtState {
        CrdtState::default()
    }

    /// An empty store whose counters are [`BrokenCrdt`]s (negative
    /// fixture — non-commutative effects and merge).
    pub fn new_broken() -> CrdtState {
        CrdtState {
            broken: true,
            ..CrdtState::default()
        }
    }

    /// Evaluate an operation against this state (reads and the
    /// post-apply view of writes).
    pub fn eval(&self, op: &CrdtOp) -> CrdtVal {
        match op {
            CrdtOp::CtrAdd(k, _) | CrdtOp::CtrGet(k) => {
                if self.broken {
                    CrdtVal::Int(self.broken_ctrs.get(k).map(|c| c.value()).unwrap_or(0))
                } else {
                    CrdtVal::Int(self.counters.get(k).map(|c| c.value()).unwrap_or(0))
                }
            }
            CrdtOp::SetAdd(k, e) | CrdtOp::SetRemove(k, e) | CrdtOp::SetContains(k, e) => {
                CrdtVal::Bool(self.sets.get(k).is_some_and(|s| s.contains(e)))
            }
            CrdtOp::MapPut(k, f, _) | CrdtOp::MapGet(k, f) => {
                CrdtVal::Entry(self.maps.get(k).and_then(|m| m.get(*f)))
            }
        }
    }
}

/// Calls `f` on the object at `k`, or on a fresh one if there is none —
/// without cloning the object to read it.
fn at<T: Default, R>(objects: &BTreeMap<u64, T>, k: &u64, f: impl FnOnce(&T) -> R) -> R {
    match objects.get(k) {
        Some(object) => f(object),
        None => f(&T::default()),
    }
}

impl Crdt for CrdtState {
    type Op = CrdtOp;
    type Effect = CrdtEffect;

    fn prepare(&self, op: &CrdtOp, ctx: EffectCtx) -> CrdtEffect {
        match op {
            CrdtOp::CtrAdd(k, delta) if self.broken => {
                CrdtEffect::BrokenCtr(*k, at(&self.broken_ctrs, k, |c| c.prepare(delta, ctx)))
            }
            CrdtOp::CtrAdd(k, delta) => {
                CrdtEffect::Ctr(*k, at(&self.counters, k, |c| c.prepare(delta, ctx)))
            }
            CrdtOp::SetAdd(k, e) => {
                CrdtEffect::Set(*k, at(&self.sets, k, |s| s.prepare(&SetOp::Add(*e), ctx)))
            }
            CrdtOp::SetRemove(k, e) => CrdtEffect::Set(
                *k,
                at(&self.sets, k, |s| s.prepare(&SetOp::Remove(*e), ctx)),
            ),
            CrdtOp::MapPut(k, f, v) => CrdtEffect::Map(
                *k,
                at(&self.maps, k, |m| m.prepare(&MapOp::Put(*f, *v), ctx)),
            ),
            CrdtOp::CtrGet(_) | CrdtOp::SetContains(_, _) | CrdtOp::MapGet(_, _) => CrdtEffect::Nop,
        }
    }

    fn ready(&self, effect: &CrdtEffect) -> bool {
        match effect {
            CrdtEffect::Set(k, e) => at(&self.sets, k, |s| s.ready(e)),
            _ => true,
        }
    }

    fn effect(&mut self, effect: &CrdtEffect) {
        match effect {
            CrdtEffect::Ctr(k, e) => self.counters.entry(*k).or_default().effect(e),
            CrdtEffect::Set(k, e) => self.sets.entry(*k).or_default().effect(e),
            CrdtEffect::Map(k, e) => self.maps.entry(*k).or_default().effect(e),
            CrdtEffect::BrokenCtr(k, e) => self.broken_ctrs.entry(*k).or_default().effect(e),
            CrdtEffect::Nop => {}
        }
    }

    fn merge(&mut self, other: &Self) {
        for (k, c) in &other.counters {
            self.counters.entry(*k).or_default().merge(c);
        }
        for (k, s) in &other.sets {
            self.sets.entry(*k).or_default().merge(s);
        }
        for (k, m) in &other.maps {
            self.maps.entry(*k).or_default().merge(m);
        }
        for (k, c) in &other.broken_ctrs {
            self.broken_ctrs.entry(*k).or_default().merge(c);
        }
        self.broken = self.broken || other.broken;
    }
}
