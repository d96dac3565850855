//! Pluggable sequential specifications: the deterministic state machines
//! that both the spec-driven bindings and the oracle's linearizability
//! checker replay.
//!
//! A [`SeqSpec`] is a deterministic state machine. The update-consistency
//! and causal bindings replay one through [`SeqSpec::apply_mut`] to turn
//! a totally-ordered (or causally-ordered) update log into views; the
//! oracle's checker searches, through [`SeqSpec::apply`], for an order of
//! the observed operations in which the same replay reproduces every
//! observed return value.
//! Specs model exactly what the bindings promise — a last-value
//! register map (quorum store), a counter map (the spec store's counter
//! object), a sequenced FIFO queue (the ZooKeeper-model queue), and a
//! revisioned key-value store (the causal store's primary).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// A sequential specification: deterministic `apply` over a hashable
/// state (hashability feeds the checker's memoization).
pub trait SeqSpec {
    /// Operation type. `Send`, like the other two: operations and
    /// returns travel in simulated messages and replicas keep replayed
    /// states, and all of that is moved across threads.
    type Op: Clone + Debug + Send;
    /// Return type; compared against observed returns.
    type Ret: Clone + PartialEq + Debug + Send;
    /// State type (the spec store's checkpoints).
    type State: Clone + Eq + Hash + Send;

    /// The initial state (preloaded / seeded data).
    fn initial(&self) -> Self::State;

    /// Applies `op` to `state`, yielding the next state and the return
    /// value a sequential execution would observe.
    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret);

    /// [`SeqSpec::apply`] in place: advances `state` by `op` and returns
    /// the same value. Log replay steps through this, so a spec whose
    /// state is more than a few words should override it to mutate
    /// rather than rebuild (and may then express `apply` as
    /// [`apply_cloned`], keeping one definition of its semantics).
    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Ret {
        let (next, ret) = self.apply(state, op);
        *state = next;
        ret
    }
}

/// `apply` for specs that define [`SeqSpec::apply_mut`]: one clone of
/// the state, then the in-place step.
pub fn apply_cloned<S: SeqSpec>(spec: &S, state: &S::State, op: &S::Op) -> (S::State, S::Ret) {
    let mut next = state.clone();
    let ret = spec.apply_mut(&mut next, op);
    (next, ret)
}

/// Operations of the register-map specs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegOp {
    /// Read key.
    Read(u64),
    /// Write key := value.
    Write(u64, u64),
}

/// A map of last-value registers over `u64` keys: the sequential model
/// of the quorum store (reads return the most recently written value;
/// unknown keys read 0 — the "absent" record).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegisterSpec {
    /// Preloaded key → value pairs.
    pub initial: BTreeMap<u64, u64>,
}

impl SeqSpec for RegisterSpec {
    type Op = RegOp;
    type Ret = u64;
    type State = BTreeMap<u64, u64>;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        apply_cloned(self, state, op)
    }

    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Ret {
        match op {
            RegOp::Read(k) => state.get(k).copied().unwrap_or(0),
            RegOp::Write(k, v) => {
                state.insert(*k, *v);
                *v
            }
        }
    }
}

/// Operations of the counter-map spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrOp {
    /// Read a counter (absent counters read 0).
    Get(u64),
    /// Overwrite a counter, returning the written value.
    Put(u64, u64),
    /// Increment a counter, returning the new value.
    Add(u64, u64),
}

/// A map of counters: the spec store's counter object, and the
/// sequential model the oracle's buggy counter fixture is checked
/// against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSpec;

impl SeqSpec for CounterSpec {
    type Op = CtrOp;
    type Ret = u64;
    type State = BTreeMap<u64, u64>;

    fn initial(&self) -> Self::State {
        BTreeMap::new()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        apply_cloned(self, state, op)
    }

    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Ret {
        match op {
            CtrOp::Get(k) => state.get(k).copied().unwrap_or(0),
            CtrOp::Put(k, v) => {
                state.insert(*k, *v);
                *v
            }
            CtrOp::Add(k, d) => {
                let e = state.entry(*k).or_insert(0);
                *e = e.wrapping_add(*d);
                *e
            }
        }
    }
}

/// Operations of the queue spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QOp {
    /// Append an element; returns its sequence number.
    Enqueue,
    /// Remove the head element.
    Dequeue,
}

/// Return value of a queue operation: the element's sequence number (as
/// parsed from its `qn-…` name) and the binding's `remaining` field —
/// queue position for enqueues, length after the pop for dequeues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QRet {
    /// The element's sequence number (`None`: dequeue of an empty queue).
    pub name: Option<u64>,
    /// The `remaining` companion value the binding reports.
    pub remaining: u64,
}

/// Queue state: the creation counter plus the live elements in order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueueState {
    /// Next sequential-creation number.
    pub next_seq: u64,
    /// Elements present, head first.
    pub items: VecDeque<u64>,
}

/// The sequenced FIFO queue of the ZooKeeper-model binding: sequential
/// creation numbers, pops in element order.
#[derive(Clone, Debug, Default)]
pub struct QueueSpec {
    /// Number of prefilled elements (sequence numbers `0..prefill`).
    pub prefill: u64,
}

impl SeqSpec for QueueSpec {
    type Op = QOp;
    type Ret = QRet;
    type State = QueueState;

    fn initial(&self) -> Self::State {
        QueueState {
            next_seq: self.prefill,
            items: (0..self.prefill).collect(),
        }
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        apply_cloned(self, state, op)
    }

    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Ret {
        match op {
            QOp::Enqueue => {
                let seq = state.next_seq;
                state.next_seq += 1;
                state.items.push_back(seq);
                QRet {
                    name: Some(seq),
                    remaining: seq,
                }
            }
            QOp::Dequeue => {
                let name = state.items.pop_front();
                let remaining = state.items.len() as u64;
                QRet { name, remaining }
            }
        }
    }
}

/// Operations of the revisioned key-value spec (the causal store).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvsOp {
    /// Read a key.
    Get(String),
    /// Write a key; the primary assigns revision `current + 1`.
    Put(String, Vec<u64>),
}

/// The causal store's primary as a sequential object: writes bump a
/// per-key revision, reads return `(rev, items)`.
#[derive(Clone, Debug, Default)]
pub struct KvStoreSpec {
    /// Seeded key → (revision, items).
    pub initial: BTreeMap<String, (u64, Vec<u64>)>,
}

impl SeqSpec for KvStoreSpec {
    type Op = KvsOp;
    type Ret = Option<(u64, Vec<u64>)>;
    type State = BTreeMap<String, (u64, Vec<u64>)>;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        apply_cloned(self, state, op)
    }

    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Ret {
        match op {
            KvsOp::Get(k) => state.get(k).cloned(),
            KvsOp::Put(k, items) => {
                let rev = state.get(k).map(|(r, _)| r + 1).unwrap_or(1);
                state.insert(k.clone(), (rev, items.clone()));
                Some((rev, items.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_reads_follow_writes() {
        let spec = RegisterSpec {
            initial: BTreeMap::from([(1, 10)]),
        };
        let s0 = spec.initial();
        assert_eq!(spec.apply(&s0, &RegOp::Read(1)).1, 10);
        assert_eq!(spec.apply(&s0, &RegOp::Read(9)).1, 0);
        let (s1, r) = spec.apply(&s0, &RegOp::Write(1, 42));
        assert_eq!(r, 42);
        assert_eq!(spec.apply(&s1, &RegOp::Read(1)).1, 42);
    }

    #[test]
    fn queue_matches_binding_semantics() {
        let spec = QueueSpec { prefill: 2 };
        let s0 = spec.initial();
        // Enqueue reports its sequence number as both name and position.
        let (s1, r) = spec.apply(&s0, &QOp::Enqueue);
        assert_eq!(
            r,
            QRet {
                name: Some(2),
                remaining: 2
            }
        );
        // Dequeues pop in order and report the length after the pop.
        let (s2, r) = spec.apply(&s1, &QOp::Dequeue);
        assert_eq!(
            r,
            QRet {
                name: Some(0),
                remaining: 2
            }
        );
        let (s3, _) = spec.apply(&s2, &QOp::Dequeue);
        let (s4, _) = spec.apply(&s3, &QOp::Dequeue);
        let (_, r) = spec.apply(&s4, &QOp::Dequeue);
        assert_eq!(
            r,
            QRet {
                name: None,
                remaining: 0
            }
        );
    }

    #[test]
    fn kv_store_bumps_revisions() {
        let spec = KvStoreSpec {
            initial: BTreeMap::from([("k".to_string(), (1, vec![7]))]),
        };
        let s0 = spec.initial();
        let (s1, r) = spec.apply(&s0, &KvsOp::Put("k".into(), vec![8]));
        assert_eq!(r, Some((2, vec![8])));
        assert_eq!(
            spec.apply(&s1, &KvsOp::Get("k".into())).1,
            Some((2, vec![8]))
        );
        assert_eq!(spec.apply(&s1, &KvsOp::Get("new".into())).1, None);
    }

    #[test]
    fn counters_accumulate() {
        let spec = CounterSpec;
        let s0 = spec.initial();
        let (s1, _) = spec.apply(&s0, &CtrOp::Add(3, 5));
        let (s2, r) = spec.apply(&s1, &CtrOp::Add(3, 2));
        assert_eq!(r, 7);
        assert_eq!(spec.apply(&s2, &CtrOp::Get(3)).1, 7);
    }
}
