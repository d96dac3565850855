//! History recording: the substrate of the consistency oracle.
//!
//! A [`History`] is a concurrent, append-only log of every invocation
//! that flowed through a [`RecordingBinding`]: the operation, the levels
//! requested, and the full client-visible view sequence (per-view level,
//! value, and timestamps) up to the close or error. The `icg-oracle`
//! crate checks recorded histories against the paper's guarantees —
//! view monotonicity, convergence of weak views, and linearizability of
//! strong views — but the recording layer itself is deliberately dumb:
//! it observes, it never interprets.
//!
//! [`RecordingBinding`] wraps any [`Binding`] transparently. It records
//! exactly the stream the client observes (after the [`Upcall`]'s
//! level-filtering and close-once arbitration), so a checker that
//! rejects a recorded history is rejecting what the application really
//! saw, not an internal delivery the library would have suppressed.
//!
//! The recording is implemented as a [`DeliveryObserver`] attached to the
//! caller's own upcall, not as an interposed Correctable: the upcall's
//! cached level filter is evaluated once, accepted views are cloned
//! exactly once (into the history), and views the filter or arbitration
//! drops are never cloned at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::binding::{Binding, DeliveryObserver, Upcall};
use crate::correctable::Correctable;
use crate::error::Error;
use crate::level::{ConsistencyLevel, LevelSet};

/// One recorded delivery of an invocation.
#[derive(Clone, Debug)]
pub enum HistoryEvent<T> {
    /// A view was delivered to the client.
    View {
        /// Global, strictly increasing event sequence number.
        seq: u64,
        /// Virtual time in nanoseconds, if the history has a clock
        /// (0 otherwise).
        at_nanos: u64,
        /// The consistency level of the view.
        level: ConsistencyLevel,
        /// The delivered value.
        value: T,
        /// Whether this view closed the Correctable (final view).
        closing: bool,
    },
    /// The invocation closed exceptionally.
    Failed {
        /// Global event sequence number.
        seq: u64,
        /// Virtual time in nanoseconds (0 without a clock).
        at_nanos: u64,
        /// The closing error.
        error: Error,
    },
}

impl<T> HistoryEvent<T> {
    /// The event's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            HistoryEvent::View { seq, .. } | HistoryEvent::Failed { seq, .. } => *seq,
        }
    }

    /// Whether this event closed the invocation (final view or error).
    pub fn is_closing(&self) -> bool {
        match self {
            HistoryEvent::View { closing, .. } => *closing,
            HistoryEvent::Failed { .. } => true,
        }
    }
}

/// One invocation's complete record.
#[derive(Clone, Debug)]
pub struct Invocation<Op, T> {
    /// Index of this invocation in the history.
    pub id: usize,
    /// The operation submitted.
    pub op: Op,
    /// The levels requested, weakest-first (as passed to `submit`).
    pub levels: Vec<ConsistencyLevel>,
    /// Global sequence number drawn at submission time — the start of
    /// the invocation's interval for concurrency analysis.
    pub submitted: u64,
    /// Virtual submission time in nanoseconds (0 without a clock).
    pub at_nanos: u64,
    /// Everything delivered, in delivery order.
    pub events: Vec<HistoryEvent<T>>,
}

impl<Op, T> Invocation<Op, T> {
    /// The strongest requested level, if any level was requested.
    pub fn strongest(&self) -> Option<ConsistencyLevel> {
        self.levels.iter().max().copied()
    }

    /// The closing event, if the invocation has closed.
    pub fn closing_event(&self) -> Option<&HistoryEvent<T>> {
        self.events.iter().find(|e| e.is_closing())
    }

    /// The final view's value and level, if closed successfully.
    pub fn final_view(&self) -> Option<(&T, ConsistencyLevel)> {
        self.events.iter().find_map(|e| match e {
            HistoryEvent::View {
                closing: true,
                value,
                level,
                ..
            } => Some((value, *level)),
            _ => None,
        })
    }

    /// Sequence number of the closing event, or `u64::MAX` while open
    /// (the invocation's interval end).
    pub fn closed_at(&self) -> u64 {
        self.closing_event().map(|e| e.seq()).unwrap_or(u64::MAX)
    }
}

struct HistoryState<Op, T> {
    invocations: Vec<Invocation<Op, T>>,
    seq: u64,
}

/// A concurrent recording of invocations and their view sequences.
///
/// Cloning is cheap; all clones observe and append to the same log.
pub struct History<Op, T> {
    state: Arc<Mutex<HistoryState<Op, T>>>,
    /// Optional mirror of a simulation clock (nanoseconds), stamped onto
    /// every event (e.g. `SimStore::clock`).
    clock: Option<Arc<AtomicU64>>,
}

impl<Op, T> Clone for History<Op, T> {
    fn clone(&self) -> Self {
        History {
            state: Arc::clone(&self.state),
            clock: self.clock.clone(),
        }
    }
}

impl<Op, T> Default for History<Op, T> {
    fn default() -> Self {
        History::new()
    }
}

impl<Op, T> History<Op, T> {
    /// An empty history with no clock (events are stamped `at_nanos: 0`).
    pub fn new() -> Self {
        History {
            state: Arc::new(Mutex::new(HistoryState {
                invocations: Vec::new(),
                seq: 0,
            })),
            clock: None,
        }
    }

    /// An empty history stamping events from `clock` (virtual
    /// nanoseconds, e.g. a simulation's mirrored gateway clock).
    pub fn with_clock(clock: Arc<AtomicU64>) -> Self {
        History {
            state: Arc::new(Mutex::new(HistoryState {
                invocations: Vec::new(),
                seq: 0,
            })),
            clock: Some(clock),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.clock
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Opens a new invocation record; returns its id.
    pub fn begin(&self, op: Op, levels: Vec<ConsistencyLevel>) -> usize {
        let at_nanos = self.now_nanos();
        let mut g = self.state.lock();
        let seq = g.seq;
        g.seq += 1;
        let id = g.invocations.len();
        g.invocations.push(Invocation {
            id,
            op,
            levels,
            submitted: seq,
            at_nanos,
            events: Vec::new(),
        });
        id
    }

    /// Records a view delivery for invocation `id`.
    pub fn view(&self, id: usize, level: ConsistencyLevel, value: T, closing: bool) {
        let at_nanos = self.now_nanos();
        let mut g = self.state.lock();
        let seq = g.seq;
        g.seq += 1;
        g.invocations[id].events.push(HistoryEvent::View {
            seq,
            at_nanos,
            level,
            value,
            closing,
        });
    }

    /// Records an error close for invocation `id`.
    pub fn failed(&self, id: usize, error: Error) {
        let at_nanos = self.now_nanos();
        let mut g = self.state.lock();
        let seq = g.seq;
        g.seq += 1;
        g.invocations[id].events.push(HistoryEvent::Failed {
            seq,
            at_nanos,
            error,
        });
    }

    /// The current sequence watermark: every event recorded from now on
    /// gets a sequence number `>=` the returned value. Checkers use this
    /// to scope assertions to a suffix (e.g. a quiescent tail).
    pub fn mark(&self) -> u64 {
        self.state.lock().seq
    }

    /// Number of invocations recorded so far.
    pub fn len(&self) -> usize {
        self.state.lock().invocations.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<Op: Clone, T: Clone> History<Op, T> {
    /// A point-in-time copy of every invocation record.
    pub fn snapshot(&self) -> Vec<Invocation<Op, T>> {
        self.state.lock().invocations.clone()
    }
}

impl<Op: Send + 'static, T: Clone + Send + 'static> History<Op, T> {
    /// Records an already-constructed [`Correctable`]'s view stream into
    /// this history (replaying views delivered before the call, then
    /// following live). For streams that do not come out of a binding —
    /// e.g. a scatter/gather merge — this is the recording entry point.
    ///
    /// Returns the invocation id.
    pub fn observe(&self, op: Op, levels: Vec<ConsistencyLevel>, c: &Correctable<T>) -> usize {
        let id = self.begin(op, levels);
        let h = self.clone();
        c.on_update(move |v| h.view(id, v.level, v.value.clone(), false));
        let h = self.clone();
        c.on_close(move |outcome| match outcome {
            Ok(v) => h.view(id, v.level, v.value.clone(), true),
            Err(e) => h.failed(id, e.clone()),
        });
        id
    }
}

/// Records one invocation's accepted deliveries into a [`History`].
struct Recorder<Op, T> {
    history: History<Op, T>,
    id: usize,
}

impl<Op: Send, T: Send> DeliveryObserver<T> for Recorder<Op, T> {
    fn on_view(&self, value: T, level: ConsistencyLevel, closing: bool) {
        self.history.view(self.id, level, value, closing);
    }

    fn on_fail(&self, error: &Error) {
        self.history.failed(self.id, error.clone());
    }
}

/// A transparent [`Binding`] wrapper logging every invocation into a
/// [`History`].
///
/// The wrapper attaches a [`DeliveryObserver`] to the caller's [`Upcall`],
/// so it records the post-filtering, post-arbitration view stream —
/// exactly what the client sees — while the views flow to the caller
/// through the original upcall unchanged.
pub struct RecordingBinding<B: Binding> {
    inner: B,
    history: History<B::Op, B::Val>,
}

impl<B: Binding + Clone> Clone for RecordingBinding<B> {
    fn clone(&self) -> Self {
        RecordingBinding {
            inner: self.inner.clone(),
            history: self.history.clone(),
        }
    }
}

impl<B: Binding> RecordingBinding<B> {
    /// Wraps `inner`, recording into `history`.
    pub fn new(inner: B, history: History<B::Op, B::Val>) -> Self {
        RecordingBinding { inner, history }
    }

    /// The wrapped binding.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The history this binding records into.
    pub fn history(&self) -> &History<B::Op, B::Val> {
        &self.history
    }
}

impl<B> Binding for RecordingBinding<B>
where
    B: Binding,
    B::Op: Clone + Send + 'static,
{
    type Op = B::Op;
    type Val = B::Val;

    fn consistency_levels(&self) -> LevelSet {
        self.inner.consistency_levels()
    }

    fn submit(&self, op: B::Op, levels: &[ConsistencyLevel], upcall: Upcall<B::Val>) {
        let id = self.history.begin(op.clone(), levels.to_vec());
        let recorder = Arc::new(Recorder {
            history: self.history.clone(),
            id,
        });
        self.inner
            .submit(op, levels, upcall.with_observer(recorder));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::correctable::State;
    use crate::level::{ConsistencyLevel, LevelSet};
    const CAUSAL: ConsistencyLevel = ConsistencyLevel::CAUSAL;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    /// Synchronously answers `level.rank()` at every requested level.
    #[derive(Clone)]
    struct RankBinding;

    impl Binding for RankBinding {
        type Op = u8;
        type Val = u8;

        fn consistency_levels(&self) -> LevelSet {
            LevelSet::of(&[WEAK, CAUSAL, STRONG])
        }

        fn submit(&self, _op: u8, levels: &[ConsistencyLevel], upcall: Upcall<u8>) {
            for l in levels {
                upcall.deliver(l.rank(), *l);
            }
        }
    }

    #[test]
    fn records_full_view_sequence_per_invocation() {
        let history = History::new();
        let client = Client::new(RecordingBinding::new(RankBinding, history.clone()));
        let c = client.invoke(7);
        assert_eq!(c.state(), State::Final);
        let invs = history.snapshot();
        assert_eq!(invs.len(), 1);
        let inv = &invs[0];
        assert_eq!(inv.op, 7);
        assert_eq!(inv.levels, vec![WEAK, CAUSAL, STRONG]);
        assert_eq!(inv.events.len(), 3);
        assert!(!inv.events[0].is_closing());
        assert!(!inv.events[1].is_closing());
        assert!(inv.events[2].is_closing());
        assert_eq!(inv.final_view().unwrap().1, STRONG);
        // Sequence numbers strictly ascend and start after the submission.
        assert!(inv.submitted < inv.events[0].seq());
        assert!(inv.events.windows(2).all(|w| w[0].seq() < w[1].seq()));
    }

    #[test]
    fn forwards_views_to_the_client_unchanged() {
        let history = History::new();
        let client = Client::new(RecordingBinding::new(RankBinding, history.clone()));
        let c = client.invoke(1);
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 2);
        assert_eq!(prelims[0].level, WEAK);
        assert_eq!(prelims[1].level, CAUSAL);
        assert_eq!(c.final_view().unwrap().level, STRONG);
        assert_eq!(c.final_view().unwrap().value, STRONG.rank());
    }

    #[test]
    fn records_the_filtered_stream_not_the_raw_one() {
        use crate::level::LevelSelection;
        let history = History::new();
        let client = Client::new(RecordingBinding::new(RankBinding, history.clone()));
        let _c = client.invoke_with(3, &LevelSelection::only(&[WEAK, STRONG]));
        let invs = history.snapshot();
        // CAUSAL was delivered by the binding but never requested: the
        // recorded stream must not contain it.
        assert_eq!(invs[0].events.len(), 2);
        assert_eq!(invs[0].levels, vec![WEAK, STRONG]);
    }

    #[test]
    fn records_errors() {
        #[derive(Clone)]
        struct FailBinding;
        impl Binding for FailBinding {
            type Op = ();
            type Val = u8;
            fn consistency_levels(&self) -> LevelSet {
                LevelSet::of(&[WEAK, STRONG])
            }
            fn submit(&self, _op: (), _levels: &[ConsistencyLevel], upcall: Upcall<u8>) {
                upcall.deliver(1, WEAK);
                upcall.fail(Error::Timeout);
            }
        }
        let history = History::new();
        let client = Client::new(RecordingBinding::new(FailBinding, history.clone()));
        let c = client.invoke(());
        assert_eq!(c.state(), State::Error);
        let invs = history.snapshot();
        assert_eq!(invs[0].events.len(), 2);
        assert!(matches!(
            invs[0].events[1],
            HistoryEvent::Failed {
                error: Error::Timeout,
                ..
            }
        ));
        assert_eq!(invs[0].closed_at(), invs[0].events[1].seq());
    }

    #[test]
    fn observe_replays_and_follows_a_correctable() {
        let history: History<&str, u8> = History::new();
        let (c, h) = Correctable::pending();
        h.update(1, WEAK).unwrap();
        history.observe("gathered", vec![WEAK, STRONG], &c);
        h.close(2, STRONG).unwrap();
        let invs = history.snapshot();
        assert_eq!(invs[0].events.len(), 2);
        assert_eq!(invs[0].op, "gathered");
        assert!(invs[0].events[1].is_closing());
    }

    #[test]
    fn mark_scopes_a_suffix() {
        let history = History::new();
        let client = Client::new(RecordingBinding::new(RankBinding, history.clone()));
        client.invoke(1);
        let mark = history.mark();
        client.invoke(2);
        let tail: Vec<_> = history
            .snapshot()
            .into_iter()
            .filter(|i| i.submitted >= mark)
            .collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].op, 2);
    }
}
