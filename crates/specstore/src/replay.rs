//! The ordered update log and the views replayed from it.
//!
//! Update consistency (Perrin, Mostéfaoui & Jard) and causal
//! consistency for any sequential spec (Mostéfaoui, Perrin & Raynal)
//! both define a view as the replay of an ordered update log through
//! the spec. [`ReplayLog`] computes exactly those values without
//! replaying from the initial state each time: it keeps the state after
//! every `STRIDE`-th entry and a *tip* state that follows the tail,
//! and re-executes only what lies between the nearest kept state and
//! the entry asked about.
//!
//! Cost model, in [`SeqSpec::apply_mut`] steps (plus at most one state
//! clone per view):
//!
//! - an insert executes nothing; below the tip it drops the kept states
//!   that cover the new entry, so the next view re-executes from the
//!   last checkpoint before it — at most `d + STRIDE` steps for an
//!   insert `d` positions from the tail;
//! - [`ReplayLog::ret_on_top`] (weak) is one step once the tip has
//!   caught up with the tail, and every entry is stepped onto the tip
//!   once, whichever view gets there first;
//! - [`ReplayLog::ret_of`] (update, causal, strong — the log holds
//!   exactly the causally delivered updates, so the three differ only
//!   in when they are read) is one step at or above the tip and at most
//!   `STRIDE` steps below it.
//!
//! The log itself only grows; compacting its stable prefix is not done
//! here.

use causalstore::VectorClock;
use correctables::spec::SeqSpec;

/// Entries between kept prefix states. A view below the tip re-executes
/// at most this many entries; the log keeps one state per this many.
const STRIDE: usize = 32;

/// The total-order key of an update: `(lamport ts, origin, seq)`.
pub type OrderKey = (u64, usize, u64);

/// Identity of one update: which replica accepted it, and where it sits
/// in that replica's local submission order (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateId {
    /// Index of the origin replica.
    pub origin: usize,
    /// 1-based position in the origin's local submission order.
    pub seq: u64,
}

/// One update as it travels between replicas.
#[derive(Clone, Debug, PartialEq)]
pub struct Update<Op> {
    /// Origin replica and per-origin sequence number.
    pub id: UpdateId,
    /// Lamport timestamp; `(ts, origin, seq)` is the total order.
    pub ts: u64,
    /// Vector clock at the origin when the update was accepted (its own
    /// entry already bumped) — the CBCAST causal stamp.
    pub vc: VectorClock,
    /// The operation itself.
    pub op: Op,
}

impl<Op> Update<Op> {
    /// The total-order key.
    pub fn key(&self) -> OrderKey {
        (self.ts, self.id.origin, self.id.seq)
    }
}

/// An update log ordered by [`OrderKey`], with the replay views of the
/// spec store (see the module docs for what each costs).
pub struct ReplayLog<S: SeqSpec> {
    spec: S,
    entries: Vec<Update<S::Op>>,
    /// Inserts go to the tail whatever their key: the deliberately
    /// buggy fixture the update-consistency checker must catch.
    arrival_order: bool,
    /// `checkpoints[i]` is the state after the first `(i + 1) * STRIDE`
    /// entries. Only the tip's advance writes them, so there are always
    /// exactly `tip_len / STRIDE`.
    checkpoints: Vec<S::State>,
    /// The state after the first `tip_len` entries.
    tip: S::State,
    tip_len: usize,
}

impl<S: SeqSpec> ReplayLog<S> {
    /// An empty log over `spec`.
    pub fn new(spec: S) -> Self {
        ReplayLog {
            tip: spec.initial(),
            spec,
            entries: Vec::new(),
            arrival_order: false,
            checkpoints: Vec::new(),
            tip_len: 0,
        }
    }

    /// Makes [`ReplayLog::insert`] append instead of sorting. Set it
    /// before the first insert.
    pub fn set_arrival_order(&mut self, on: bool) {
        self.arrival_order = on;
    }

    /// The updates in log order.
    pub fn entries(&self) -> &[Update<S::Op>] {
        &self.entries
    }

    /// The logged update with order key `key`.
    pub fn get(&self, key: OrderKey) -> Option<&Update<S::Op>> {
        self.entries.get(self.position(key)?)
    }

    /// Adds `update` at its place in the order. Executes nothing; kept
    /// states that cover the new entry are dropped.
    pub fn insert(&mut self, update: Update<S::Op>) {
        let at = if self.arrival_order {
            self.entries.len()
        } else {
            let key = update.key();
            self.entries.partition_point(|u| u.key() < key)
        };
        self.entries.insert(at, update);
        if at < self.tip_len {
            self.checkpoints.truncate(at / STRIDE);
            (self.tip, self.tip_len) = self.checkpoint_at_or_below(at);
        }
    }

    /// The value of `op` applied on top of the whole log — the weak
    /// view of an operation that is not logged yet.
    pub fn ret_on_top(&mut self, op: &S::Op) -> S::Ret {
        let mut state = self.prefix_state(self.entries.len());
        self.spec.apply_mut(&mut state, op)
    }

    /// The value of the update with order key `key` at its place in the
    /// log as it stands — the update view, the causal view once a peer
    /// has the update too, and the strong view once that place is
    /// stable. `None` if no such update is logged.
    pub fn ret_of(&mut self, key: OrderKey) -> Option<S::Ret> {
        let at = self.position(key)?;
        self.ret_at(at)
    }

    fn position(&self, key: OrderKey) -> Option<usize> {
        if self.arrival_order {
            self.entries.iter().rposition(|u| u.key() == key)
        } else {
            self.entries.binary_search_by(|u| u.key().cmp(&key)).ok()
        }
    }

    fn ret_at(&mut self, at: usize) -> Option<S::Ret> {
        if at >= self.tip_len {
            self.advance_tip(at);
            return self.step_tip();
        }
        let mut state = self.prefix_state(at);
        Some(self.spec.apply_mut(&mut state, &self.entries.get(at)?.op))
    }

    /// The kept state that covers the most entries without covering
    /// more than `n`, and how many it covers.
    fn checkpoint_at_or_below(&self, n: usize) -> (S::State, usize) {
        let kept = n / STRIDE;
        match kept.checked_sub(1).and_then(|i| self.checkpoints.get(i)) {
            Some(state) => (state.clone(), kept * STRIDE),
            None => (self.spec.initial(), 0),
        }
    }

    /// Steps entry `tip_len` onto the tip and returns its value.
    fn step_tip(&mut self) -> Option<S::Ret> {
        let u = self.entries.get(self.tip_len)?;
        let ret = self.spec.apply_mut(&mut self.tip, &u.op);
        self.tip_len += 1;
        if self.tip_len.is_multiple_of(STRIDE) {
            self.checkpoints.push(self.tip.clone());
        }
        Some(ret)
    }

    fn advance_tip(&mut self, to: usize) {
        while self.tip_len < to && self.step_tip().is_some() {}
    }

    /// The state after the first `n` entries.
    fn prefix_state(&mut self, n: usize) -> S::State {
        if n >= self.tip_len {
            self.advance_tip(n);
            return self.tip.clone();
        }
        let (mut state, from) = self.checkpoint_at_or_below(n);
        for u in self.entries.iter().take(n).skip(from) {
            self.spec.apply_mut(&mut state, &u.op);
        }
        state
    }
}
