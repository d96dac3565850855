//! A closed-loop load driver running *application code* through the
//! Correctables API inside the simulation.
//!
//! Each virtual user keeps one application-level operation outstanding:
//! when the Correctable returned by the operation factory closes, the
//! completion is recorded and the next operation is issued — from inside
//! the callback, at the correct virtual instant. The whole load loop
//! therefore exercises exactly the code path a real application would:
//! `invoke → speculate → callbacks`.
//!
//! What the *store* showed each invocation — the preliminary→final gap
//! and how often the two views differ, the paper's Figure 5–8 metrics —
//! is not counted here but read off a recorded history afterwards
//! ([`view_stats`]), whichever binding recorded it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::{
    Client, ConsistencyLevel, Correctable, History, HistoryEvent, Invocation, LevelSelection,
    RecordingBinding,
};
use quorumstore::{Key, SimStore, StoreOp, Value, Versioned};
use simnet::{Histogram, SimDuration};
use ycsb::{Op, Workload};

/// Measurement results of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Latency of operations completing inside the window.
    pub latency: Histogram,
    /// Operations completed inside the window.
    pub completed: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Total operations completed (any time).
    pub total: u64,
}

impl LoadStats {
    /// Throughput over the measurement window.
    pub fn throughput(&self, window: SimDuration) -> f64 {
        self.completed as f64 / window.as_secs_f64()
    }
}

struct DriverState {
    clock: Arc<AtomicU64>,
    window_from_ns: u64,
    window_until_ns: u64,
    end_ns: u64,
    stats: Mutex<LoadStats>,
    seq: AtomicU64,
    factory: Box<dyn Fn(u64) -> MeasuredOp + Send + Sync>,
}

/// One issued operation plus whether its latency should be recorded
/// (e.g. the paper's Figure 11 reports the latency of serving ads, while
/// profile updates only contribute load).
pub struct MeasuredOp {
    /// The operation's Correctable (unit-mapped).
    pub op: Correctable<()>,
    /// Whether to record this operation's latency.
    pub measured: bool,
}

impl MeasuredOp {
    /// A measured operation.
    pub fn measured(op: Correctable<()>) -> Self {
        MeasuredOp { op, measured: true }
    }

    /// A background (load-only) operation.
    pub fn background(op: Correctable<()>) -> Self {
        MeasuredOp {
            op,
            measured: false,
        }
    }
}

/// A closed-loop driver over an operation factory.
pub struct LoadDriver {
    state: Arc<DriverState>,
}

impl LoadDriver {
    /// Creates a driver. `clock` mirrors virtual time (from
    /// `SimStore::clock`); `factory(seq)` issues one application
    /// operation; measurements are taken in `[window_from, window_until)`
    /// and no new operations start after `end`.
    pub fn new(
        clock: Arc<AtomicU64>,
        window_from: SimDuration,
        window_until: SimDuration,
        end: SimDuration,
        factory: impl Fn(u64) -> MeasuredOp + Send + Sync + 'static,
    ) -> Self {
        LoadDriver {
            state: Arc::new(DriverState {
                clock,
                window_from_ns: window_from.as_nanos(),
                window_until_ns: window_until.as_nanos(),
                end_ns: end.as_nanos(),
                stats: Mutex::new(LoadStats::default()),
                seq: AtomicU64::new(0),
                factory: Box::new(factory),
            }),
        }
    }

    /// Starts `threads` concurrent virtual users. Call `settle()` on the
    /// underlying store afterwards to run them to completion.
    pub fn start(&self, threads: u32) {
        for _ in 0..threads {
            Self::issue(&self.state);
        }
    }

    fn issue(state: &Arc<DriverState>) {
        let now = state.clock.load(Ordering::Relaxed);
        if now >= state.end_ns {
            return;
        }
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        let MeasuredOp { op, measured } = (state.factory)(seq);
        let st_ok = Arc::clone(state);
        let start = now;
        op.on_final(move |_| {
            let end = st_ok.clock.load(Ordering::Relaxed);
            {
                let mut stats = st_ok.stats.lock();
                stats.total += 1;
                if end >= st_ok.window_from_ns && end < st_ok.window_until_ns {
                    stats.completed += 1;
                    if measured {
                        stats
                            .latency
                            .record(SimDuration::from_nanos(end.saturating_sub(start)));
                    }
                }
            }
            Self::issue(&st_ok);
        });
        let st_err = Arc::clone(state);
        op.on_error(move |_| {
            st_err.stats.lock().failed += 1;
            Self::issue(&st_err);
        });
    }

    /// The collected statistics (call after the simulation settles).
    pub fn stats(&self) -> LoadStats {
        self.state.stats.lock().clone()
    }
}

/// Starts `users` closed-loop YCSB users on `store`'s client and hands
/// back the history that records what they see, stamped by that
/// client's clock. Each user keeps one operation of `workload`
/// outstanding, invoked at `levels`, for as long as the simulation is
/// driven; the first ones enter the network at the current instant.
///
/// Every user is a [`LoadDriver`] of its own with a generator of its
/// own (seeded from `seed` and its index), so a user's operation stream
/// does not depend on how the users' completions interleave.
pub fn start_ycsb_users(
    store: &SimStore,
    workload: &Workload,
    levels: &LevelSelection,
    users: u32,
    seed: u64,
) -> History<StoreOp, Versioned> {
    let history = History::with_clock(store.clock());
    let binding = RecordingBinding::new(store.binding(), history.clone());
    let client = Arc::new(Client::new(binding));
    let record_len = workload.value_size as u32;
    let forever = SimDuration::from_nanos(u64::MAX);
    for user in 0..users {
        let stream = seed.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(user));
        let ops = Mutex::new(workload.generator(stream));
        let (client, levels) = (Arc::clone(&client), levels.clone());
        let issue = move |_| {
            let op = match ops.lock().next_op() {
                Op::Read(key) => StoreOp::Read(Key::plain(key)),
                Op::Update { key, len } => {
                    let field_len = len as u32;
                    let delta = Value::Delta {
                        field_len,
                        record_len,
                    };
                    StoreOp::Write(Key::plain(key), delta)
                }
            };
            MeasuredOp::background(client.invoke_with(op, &levels).map(|_| ()))
        };
        LoadDriver::new(store.clock(), SimDuration::ZERO, forever, forever, issue).start(1);
    }
    store.step(SimDuration::ZERO);
    history
}

/// What a store showed its client, per invocation closed inside a
/// measurement window: the paper's Figure 5–8 quantities.
#[derive(Clone, Debug, Default)]
pub struct ViewStats {
    /// Submission → preliminary view, for reads that got one.
    pub prelim_latency: Histogram,
    /// Submission → final (or only) view of a read.
    pub final_latency: Histogram,
    /// Submission → acknowledgment of a write.
    pub write_latency: Histogram,
    /// Reads closed with a view inside the window.
    pub reads: u64,
    /// Writes closed with a view inside the window.
    pub writes: u64,
    /// Reads among `reads` that had a preliminary view.
    pub icg_reads: u64,
    /// ICG reads whose preliminary version differed from the final one.
    pub divergent: u64,
    /// Invocations that closed with an error inside the window.
    pub failed: u64,
    /// Invocations closed at any time, either way (progress check).
    pub total: u64,
}

impl ViewStats {
    /// Operations (reads + writes) closed with a view inside the window.
    pub fn completed(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of ICG reads whose preliminary diverged from the final.
    pub fn divergence(&self) -> f64 {
        if self.icg_reads == 0 {
            0.0
        } else {
            self.divergent as f64 / self.icg_reads as f64
        }
    }
}

/// One invocation that closed with a view inside a measurement window.
pub struct ClosedView<'a, Op, T> {
    /// The invocation.
    pub inv: &'a Invocation<Op, T>,
    /// Its closing view's value.
    pub last: &'a T,
    /// Submission → closing view.
    pub latency: SimDuration,
    /// Its preliminary — the first `WEAK` view that did not close it —
    /// and submission → that view.
    pub prelim: Option<(&'a T, SimDuration)>,
}

/// How a history's invocations closed, whatever the store: the half of
/// every fold that knows about windows and closing events and nothing
/// about operations or values.
pub struct Closings<'a, Op, T> {
    /// Invocations closed with a view inside the window, in history
    /// order.
    pub views: Vec<ClosedView<'a, Op, T>>,
    /// Invocations that closed with an error inside the window.
    pub failed: u64,
    /// Invocations closed at any time, either way (progress check).
    pub total: u64,
}

/// Sorts a recorded history by how its invocations closed, counting one
/// iff its closing event is stamped inside `[from, until)` of the
/// history's clock. Invocations still open are not counted at all.
pub fn closings<'a, Op, T>(
    history: impl IntoIterator<Item = &'a Invocation<Op, T>>,
    from: SimDuration,
    until: SimDuration,
) -> Closings<'a, Op, T> {
    let mut out = Closings {
        views: Vec::new(),
        failed: 0,
        total: 0,
    };
    for inv in history {
        let Some(closing) = inv.closing_event() else {
            continue;
        };
        out.total += 1;
        let (closed_at, last) = match closing {
            HistoryEvent::View {
                at_nanos, value, ..
            } => (*at_nanos, Some(value)),
            HistoryEvent::Failed { at_nanos, .. } => (*at_nanos, None),
        };
        if closed_at < from.as_nanos() || closed_at >= until.as_nanos() {
            continue;
        }
        let Some(last) = last else {
            out.failed += 1;
            continue;
        };
        let since_submit = |at: u64| SimDuration::from_nanos(at.saturating_sub(inv.at_nanos));
        let prelim = inv.events.iter().find_map(|e| match e {
            HistoryEvent::View {
                at_nanos,
                level,
                value,
                closing: false,
                ..
            } if *level == ConsistencyLevel::WEAK => Some((value, since_submit(*at_nanos))),
            _ => None,
        });
        out.views.push(ClosedView {
            inv,
            last,
            latency: since_submit(closed_at),
            prelim,
        });
    }
    out
}

/// Folds a recorded quorum-store history into [`ViewStats`] over the
/// window `[from, until)` (see [`closings`]).
pub fn view_stats<'a>(
    history: impl IntoIterator<Item = &'a Invocation<StoreOp, Versioned>>,
    from: SimDuration,
    until: SimDuration,
) -> ViewStats {
    let closed = closings(history, from, until);
    let mut stats = ViewStats {
        failed: closed.failed,
        total: closed.total,
        ..ViewStats::default()
    };
    for c in closed.views {
        if matches!(c.inv.op, StoreOp::Write(..)) {
            stats.writes += 1;
            stats.write_latency.record(c.latency);
            continue;
        }
        stats.reads += 1;
        stats.final_latency.record(c.latency);
        if let Some((first, at)) = c.prelim {
            stats.icg_reads += 1;
            stats.prelim_latency.record(at);
            if first.version != c.last.version {
                stats.divergent += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumstore::ReplicaConfig;
    use ycsb::Distribution;

    #[test]
    fn closed_loop_driver_runs_until_end_and_measures_window() {
        let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 5);
        store.preload((0..16).map(|i| (Key::plain(i), Value::Opaque(100))));
        let client = Arc::new(Client::new(store.binding()));
        let driver = LoadDriver::new(
            store.clock(),
            SimDuration::from_millis(200),
            SimDuration::from_millis(1200),
            SimDuration::from_millis(1500),
            move |seq| {
                MeasuredOp::measured(
                    client
                        .invoke_strong(StoreOp::Read(Key::plain(seq % 16)))
                        .map(|_| ()),
                )
            },
        );
        driver.start(2);
        store.settle();
        let stats = driver.stats();
        // A strong read takes ~40 ms; 2 threads over a 1 s window ≈ 50 ops.
        assert!(stats.completed > 30, "completed {}", stats.completed);
        assert!(stats.completed < 80, "completed {}", stats.completed);
        assert!(stats.total >= stats.completed);
        let mean = stats.latency.mean().as_millis_f64();
        assert!((35.0..55.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn closed_loop_client_completes_operations() {
        let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 7);
        store.preload((0..100).map(|i| (Key::plain(i), Value::Opaque(100))));
        let workload = Workload::c(Distribution::Zipfian, 100);
        let weak = LevelSelection::only(&[ConsistencyLevel::WEAK]);
        let history = start_ycsb_users(&store, &workload, &weak, 4, 99);
        store.advance(SimDuration::from_secs(5));
        let (from, until) = (SimDuration::from_secs(1), SimDuration::from_secs(5));
        let m = view_stats(&history.snapshot(), from, until);
        assert!(m.reads > 100, "only {} reads", m.reads);
        assert!(
            m.total > m.reads,
            "warm-up reads count towards progress only"
        );
        // C1 read from IRL to FRK costs ~ the 20ms RTT.
        let mean = m.final_latency.mean().as_millis_f64();
        assert!((18.0..26.0).contains(&mean), "C1 mean {mean}ms");
        assert!(m.prelim_latency.is_empty() && m.icg_reads == 0);
    }

    fn view(
        at_nanos: u64,
        level: ConsistencyLevel,
        ts: u64,
        closing: bool,
    ) -> HistoryEvent<Versioned> {
        let version = quorumstore::Version { ts, writer: 0 };
        let value = Versioned {
            value: Value::Opaque(1),
            version,
        };
        HistoryEvent::View {
            seq: 0,
            at_nanos,
            level,
            value,
            closing,
        }
    }

    fn invocation(
        op: StoreOp,
        at_nanos: u64,
        events: Vec<HistoryEvent<Versioned>>,
    ) -> Invocation<StoreOp, Versioned> {
        Invocation {
            id: 0,
            op,
            levels: vec![ConsistencyLevel::WEAK, ConsistencyLevel::STRONG],
            submitted: 0,
            at_nanos,
            events,
        }
    }

    #[test]
    fn metrics_divergence_math() {
        const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
        const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
        let read = || StoreOp::Read(Key::plain(1));
        let timeout = HistoryEvent::Failed {
            seq: 0,
            at_nanos: 150,
            error: correctables::Error::Timeout,
        };
        let history = vec![
            // Diverged: preliminary at version 1, final at version 2.
            invocation(
                read(),
                100,
                vec![view(120, WEAK, 1, false), view(140, STRONG, 2, true)],
            ),
            // Confirmed: both views at version 2.
            invocation(
                read(),
                100,
                vec![view(130, WEAK, 2, false), view(160, STRONG, 2, true)],
            ),
            // A weak-only read closes at WEAK: no preliminary.
            invocation(read(), 100, vec![view(125, WEAK, 2, true)]),
            invocation(
                StoreOp::Write(Key::plain(1), Value::Opaque(1)),
                100,
                vec![view(170, STRONG, 0, true)],
            ),
            // Failed inside the window; its preliminary stands but counts for nothing.
            invocation(read(), 100, vec![view(120, WEAK, 1, false), timeout]),
            // Closed before the window, closed at its end, still open.
            invocation(read(), 10, vec![view(50, STRONG, 2, true)]),
            invocation(read(), 100, vec![view(200, STRONG, 2, true)]),
            invocation(read(), 100, vec![view(120, WEAK, 1, false)]),
        ];
        let ns = SimDuration::from_nanos;
        let mut m = view_stats(&history, ns(100), ns(200));
        assert_eq!((m.reads, m.writes, m.failed, m.total), (3, 1, 1, 7));
        assert_eq!((m.icg_reads, m.divergent, m.completed()), (2, 1, 4));
        assert!((m.divergence() - 0.5).abs() < 1e-9);
        assert_eq!(m.prelim_latency.max(), ns(30));
        assert_eq!(
            (m.final_latency.min(), m.final_latency.max()),
            (ns(25), ns(60))
        );
        assert_eq!(m.write_latency.p99(), ns(70));
        let empty = view_stats(&[], ns(0), ns(1));
        assert_eq!((empty.divergence(), empty.completed()), (0.0, 0));
    }
}
