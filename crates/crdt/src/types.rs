//! Hand-rolled conflict-free replicated data types.
//!
//! Every type here is *both* a state-based CvRDT and an op-based CmRDT,
//! through the one [`Crdt`] trait:
//!
//! - **state-based**: [`Crdt::merge`] is a join-semilattice join —
//!   commutative, associative, idempotent (property-tested in
//!   `tests/prop_crdt.rs`); replicas converge by exchanging and joining
//!   full states, in any order, any number of times;
//! - **op-based**: [`Crdt::prepare`] turns an operation into a
//!   self-contained downstream *effect* at the origin (reading local
//!   state, e.g. the observed tags of an OR-Set remove), and
//!   [`Crdt::effect`] applies it at every replica. Effects of concurrent
//!   operations commute; [`Crdt::ready`] is the delivery precondition a
//!   causal-delivery layer checks before applying.
//!
//! Strong eventual consistency (Gomes et al., *Verifying Strong Eventual
//! Consistency in Distributed Systems*) follows from exactly these
//! obligations: replicas that have delivered the same set of updates are
//! in the same state. The oracle's `check_sec` verifies the obligations
//! mechanically over explorer runs; [`BrokenCrdt`] is the fixture that
//! violates them (a "counter" replicated by shipping its new total).
//!
//! Merge/apply runs inside replica event handlers, so everything here
//! fails soft — no indexing, no unwrap, saturating arithmetic — and the
//! attributes below have clippy deny the rest.

// Fail soft (DESIGN.md §11): outside tests, nothing here may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Per-operation context the runtime hands to [`Crdt::prepare`]: which
/// replica is preparing, a per-replica sequence number (the unique-tag
/// source for OR-Set adds), and a lamport timestamp (LWW arbitration).
#[derive(Clone, Copy, Debug)]
pub struct EffectCtx {
    /// Index of the preparing replica.
    pub replica: usize,
    /// Per-replica operation counter (1-based, unique per replica).
    pub seq: u64,
    /// Lamport timestamp at the origin.
    pub lamport: u64,
}

/// A replicated data type: state-based join plus op-based
/// prepare/effect with a delivery precondition (see module docs).
pub trait Crdt: Clone + PartialEq + fmt::Debug {
    /// The operations clients submit.
    type Op;
    /// The self-contained downstream effect of one operation.
    type Effect: Clone + fmt::Debug;

    /// Op-based *prepare* (at the origin): read local state, produce the
    /// effect to broadcast. Must not mutate — the runtime applies the
    /// returned effect through [`Crdt::effect`] like any remote one.
    fn prepare(&self, op: &Self::Op, ctx: EffectCtx) -> Self::Effect;

    /// Delivery precondition: whether `effect` may be applied to this
    /// state now. Causal delivery makes the default (`true`) sound for
    /// every type here; OR-Set removes state their real precondition.
    fn ready(&self, _effect: &Self::Effect) -> bool {
        true
    }

    /// Op-based *effect* (at every replica): apply one delivered effect.
    /// Effects of concurrent operations must commute.
    fn effect(&mut self, effect: &Self::Effect);

    /// State-based join: least upper bound of the two states. Must be
    /// commutative, associative, and idempotent.
    fn merge(&mut self, other: &Self);
}

// ---------------------------------------------------------------------
// G-Counter / PN-Counter
// ---------------------------------------------------------------------

/// Grow-only counter: one monotone slot per replica; join is pointwise
/// max, value is the slot sum.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct GCounter {
    slots: BTreeMap<usize, u64>,
}

/// Downstream effect of a G-Counter increment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GInc {
    /// The incrementing replica (owns the slot).
    pub replica: usize,
    /// Increment amount.
    pub amount: u64,
}

impl GCounter {
    /// The counter value (sum of all slots).
    pub fn value(&self) -> u64 {
        self.slots.values().fold(0u64, |a, v| a.saturating_add(*v))
    }

    /// One replica's slot.
    pub fn slot(&self, replica: usize) -> u64 {
        self.slots.get(&replica).copied().unwrap_or(0)
    }
}

impl Crdt for GCounter {
    type Op = u64;
    type Effect = GInc;

    fn prepare(&self, op: &u64, ctx: EffectCtx) -> GInc {
        GInc {
            replica: ctx.replica,
            amount: *op,
        }
    }

    fn effect(&mut self, e: &GInc) {
        let slot = self.slots.entry(e.replica).or_default();
        *slot = slot.saturating_add(e.amount);
    }

    fn merge(&mut self, other: &Self) {
        for (r, v) in &other.slots {
            let slot = self.slots.entry(*r).or_default();
            *slot = (*slot).max(*v);
        }
    }
}

/// Positive-negative counter: two G-Counters.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct PnCounter {
    pos: GCounter,
    neg: GCounter,
}

/// Downstream effect of a PN-Counter add (one signed delta, split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PnDelta {
    /// The adding replica.
    pub replica: usize,
    /// Positive part of the delta.
    pub pos: u64,
    /// Negative part of the delta.
    pub neg: u64,
}

impl PnCounter {
    /// The counter value.
    pub fn value(&self) -> i64 {
        let p = i64::try_from(self.pos.value()).unwrap_or(i64::MAX);
        let n = i64::try_from(self.neg.value()).unwrap_or(i64::MAX);
        p.saturating_sub(n)
    }
}

impl Crdt for PnCounter {
    type Op = i64;
    type Effect = PnDelta;

    fn prepare(&self, op: &i64, ctx: EffectCtx) -> PnDelta {
        let (pos, neg) = if *op >= 0 {
            (op.unsigned_abs(), 0)
        } else {
            (0, op.unsigned_abs())
        };
        PnDelta {
            replica: ctx.replica,
            pos,
            neg,
        }
    }

    fn effect(&mut self, e: &PnDelta) {
        self.pos.effect(&GInc {
            replica: e.replica,
            amount: e.pos,
        });
        self.neg.effect(&GInc {
            replica: e.replica,
            amount: e.neg,
        });
    }

    fn merge(&mut self, other: &Self) {
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
    }
}

// ---------------------------------------------------------------------
// OR-Set (observed-remove, add-wins)
// ---------------------------------------------------------------------

/// A unique add tag: `(replica, per-replica seq)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Tag {
    /// Minting replica.
    pub replica: usize,
    /// That replica's operation counter at mint time.
    pub seq: u64,
}

/// Observed-remove set. Every add mints a fresh [`Tag`]; a remove
/// tombstones exactly the tags it *observed*, so a concurrent re-add
/// (with a tag the remove never saw) survives — add-wins semantics.
/// Effects commute unconditionally because adds and removes touch
/// disjoint tag sets.
#[derive(Clone, Debug)]
pub struct OrSet<T: Ord + Clone + fmt::Debug> {
    /// Every tag ever minted for each element (adds only grow this).
    tags: BTreeMap<T, BTreeSet<Tag>>,
    /// Tombstoned tags (removes only grow this).
    removed: BTreeSet<Tag>,
}

impl<T: Ord + Clone + fmt::Debug> Default for OrSet<T> {
    fn default() -> Self {
        OrSet {
            tags: BTreeMap::new(),
            removed: BTreeSet::new(),
        }
    }
}

impl<T: Ord + Clone + fmt::Debug> PartialEq for OrSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.tags == other.tags && self.removed == other.removed
    }
}

/// OR-Set operations.
#[derive(Clone, Debug)]
pub enum SetOp<T> {
    /// Insert an element (mints a fresh tag).
    Add(T),
    /// Remove the element's currently observed tags.
    Remove(T),
}

/// OR-Set downstream effects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetEffect<T> {
    /// One freshly minted tag for `elem`.
    Add {
        /// The element.
        elem: T,
        /// The minted tag.
        tag: Tag,
    },
    /// Tombstone the tags the origin observed for `elem`.
    Remove {
        /// The element.
        elem: T,
        /// The tags observed at the origin at prepare time.
        observed: BTreeSet<Tag>,
    },
}

impl<T: Ord + Clone + fmt::Debug> OrSet<T> {
    /// Whether `elem` is present (has a live, un-tombstoned tag).
    pub fn contains(&self, elem: &T) -> bool {
        self.tags
            .get(elem)
            .is_some_and(|tags| tags.iter().any(|t| !self.removed.contains(t)))
    }

    /// The live elements.
    pub fn elements(&self) -> BTreeSet<T> {
        self.tags
            .iter()
            .filter(|(_, tags)| tags.iter().any(|t| !self.removed.contains(t)))
            .map(|(e, _)| e.clone())
            .collect()
    }
}

impl<T: Ord + Clone + fmt::Debug> Crdt for OrSet<T> {
    type Op = SetOp<T>;
    type Effect = SetEffect<T>;

    fn prepare(&self, op: &SetOp<T>, ctx: EffectCtx) -> SetEffect<T> {
        match op {
            SetOp::Add(e) => SetEffect::Add {
                elem: e.clone(),
                tag: Tag {
                    replica: ctx.replica,
                    seq: ctx.seq,
                },
            },
            SetOp::Remove(e) => SetEffect::Remove {
                elem: e.clone(),
                observed: self
                    .tags
                    .get(e)
                    .map(|tags| {
                        tags.iter()
                            .filter(|t| !self.removed.contains(t))
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default(),
            },
        }
    }

    /// A remove is deliverable once every tag it tombstones has been
    /// added here — satisfied automatically under causal delivery (the
    /// adds causally precede the remove that observed them).
    fn ready(&self, effect: &SetEffect<T>) -> bool {
        match effect {
            SetEffect::Add { .. } => true,
            SetEffect::Remove { elem, observed } => self
                .tags
                .get(elem)
                .map(|tags| observed.is_subset(tags))
                .unwrap_or_else(|| observed.is_empty()),
        }
    }

    fn effect(&mut self, e: &SetEffect<T>) {
        match e {
            SetEffect::Add { elem, tag } => {
                self.tags.entry(elem.clone()).or_default().insert(*tag);
            }
            SetEffect::Remove { observed, .. } => {
                self.removed.extend(observed.iter().copied());
            }
        }
    }

    fn merge(&mut self, other: &Self) {
        for (e, tags) in &other.tags {
            self.tags
                .entry(e.clone())
                .or_default()
                .extend(tags.iter().copied());
        }
        self.removed.extend(other.removed.iter().copied());
    }
}

// ---------------------------------------------------------------------
// LWW-Map
// ---------------------------------------------------------------------

/// Last-writer-wins arbitration stamp: lamport time, replica tie-break.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Stamp {
    /// Lamport timestamp at the writing origin.
    pub lamport: u64,
    /// Writing replica (total tie-break; no two stamps are equal).
    pub replica: usize,
}

/// Last-writer-wins map from `u64` fields to `u64` values.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct LwwMap {
    entries: BTreeMap<u64, (Stamp, u64)>,
}

/// LWW-Map operations.
#[derive(Clone, Copy, Debug)]
pub enum MapOp {
    /// Write `field = value`.
    Put(u64, u64),
}

/// Downstream effect of an LWW put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LwwPut {
    /// The written field.
    pub field: u64,
    /// The written value.
    pub value: u64,
    /// Arbitration stamp.
    pub stamp: Stamp,
}

impl LwwMap {
    /// The current value of `field`, if any write won it.
    pub fn get(&self, field: u64) -> Option<u64> {
        self.entries.get(&field).map(|(_, v)| *v)
    }

    fn take_if_newer(&mut self, field: u64, stamp: Stamp, value: u64) {
        let slot = self.entries.entry(field).or_insert((stamp, value));
        // Lexicographic on (stamp, value): stamps are unique in a real
        // run (lamport + replica tie-break), but totalizing on the value
        // keeps merge a join even for adversarial duplicate stamps.
        if (stamp, value) >= (slot.0, slot.1) {
            *slot = (stamp, value);
        }
    }
}

impl Crdt for LwwMap {
    type Op = MapOp;
    type Effect = LwwPut;

    fn prepare(&self, op: &MapOp, ctx: EffectCtx) -> LwwPut {
        let MapOp::Put(field, value) = *op;
        LwwPut {
            field,
            value,
            stamp: Stamp {
                lamport: ctx.lamport,
                replica: ctx.replica,
            },
        }
    }

    fn effect(&mut self, e: &LwwPut) {
        self.take_if_newer(e.field, e.stamp, e.value);
    }

    fn merge(&mut self, other: &Self) {
        for (field, (stamp, value)) in &other.entries {
            self.take_if_newer(*field, *stamp, *value);
        }
    }
}

// ---------------------------------------------------------------------
// BrokenCrdt (negative fixture)
// ---------------------------------------------------------------------

/// The deliberately broken "CRDT": a counter replicated by shipping its
/// **new total** instead of a delta. Applying an effect overwrites the
/// state, so effects of concurrent adds do not commute (the last arrival
/// wins and the other add is lost), and `merge` overwrites instead of
/// joining. Replicas that deliver the same updates in different orders
/// end in different states — exactly the violation the oracle's SEC
/// checker must reject, mirroring the `LaggyMem` pattern.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BrokenCrdt {
    total: i64,
}

/// Downstream "effect" of the broken counter: the origin's new total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrokenSet {
    /// The total computed at the origin — overwrites on apply.
    pub total: i64,
}

impl BrokenCrdt {
    /// The counter value.
    pub fn value(&self) -> i64 {
        self.total
    }
}

impl Crdt for BrokenCrdt {
    type Op = i64;
    type Effect = BrokenSet;

    fn prepare(&self, op: &i64, _ctx: EffectCtx) -> BrokenSet {
        BrokenSet {
            total: self.total.saturating_add(*op),
        }
    }

    fn effect(&mut self, e: &BrokenSet) {
        // BUG (deliberate): overwrite, not add — concurrent effects
        // applied in different orders leave different totals.
        self.total = e.total;
    }

    fn merge(&mut self, other: &Self) {
        // BUG (deliberate): overwrite, not join — not commutative.
        self.total = other.total;
    }
}
