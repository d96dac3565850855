//! The two TCP workloads: a closed-loop, callback-driven window issuer
//! against a 3-replica loopback cluster.
//!
//! One generator thread per connection keeps exactly `depth`
//! invocations outstanding: it blocks on a channel, and the program's
//! `on_final`/`on_error` callback (running on a client reactor thread)
//! sends the completion that wakes it. There are no timers and no
//! polling, so with `depth == 1` this is the classic ping-pong client
//! and with `depth == 16` a pipelined one — same code, two regimes.
//!
//! A window of load runs in slices of a quarter second: the generators
//! drain and park between slices while the coordinating thread reads
//! `/proc` and the yardstick, so that every slice comes with the
//! machine's slowness at that moment (`yardstick.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{KvClient, Payload, PlainBinding, TcpCluster};
use crate::gen::{KvOp, KvStream};
use crate::procfs::{usage_between, Snapshot, WindowUsage};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{SpanBuf, SpanKind};
use crate::yardstick::{slowness, Yardstick, NOMINAL_TCP};

/// Keys in the store (YCSB's small configuration).
pub const KEYS: u64 = 10_000;
/// Connections, one generator thread each.
pub const CLIENTS: u64 = 2;
/// Length of the slices a window is cut into.
const SLICE: Duration = Duration::from_millis(250);
/// A completion that has not arrived this long after the client-side
/// op timeout (2 s) is a lost callback: a program bug, reported as a
/// failed operation instead of a hang.
const LOST_AFTER: Duration = if cfg!(test) {
    Duration::from_millis(200)
} else {
    Duration::from_secs(6)
};

/// Span buffer per connection: five spans per invocation, so room for
/// 400 k invocations — a 6 s traced window of the pipelined workload.
/// 64 MB of address space, touched only as far as it fills.
const SPANS_PER_CONNECTION: usize = 2_000_000;

/// Which levels a read requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// `Client::invoke`: weak preliminary, then strong final.
    Icg,
    /// `Client::invoke_weak`.
    Weak,
    /// `Client::invoke_strong`.
    Strong,
}

/// How one invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Final view at the expected level with a valid value.
    Ok,
    /// Final view, but wrong level or a value nobody wrote.
    Wrong,
    /// `Error::Timeout`.
    Timeout,
    /// Any other error (`Unavailable`, …).
    Unavailable,
}

/// A completion as the callback reports it.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    slot: u32,
    at_ns: u64,
    outcome: Outcome,
}

/// State shared between a generator thread and the callbacks of its
/// outstanding invocations.
struct Shared {
    epoch: Instant,
    /// Per window slot: when the preliminary view arrived (0 = not yet).
    prelim_ns: Box<[AtomicU64]>,
    tx: Sender<Done>,
}

/// What an invocation's callbacks call back into. Cloning is one
/// reference-count increment.
#[derive(Clone)]
pub struct Hooks {
    shared: Arc<Shared>,
    slot: u32,
}

impl Hooks {
    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// The preliminary view arrived.
    pub fn prelim(&self) {
        // Relaxed: the generator reads this slot only after receiving
        // the same invocation's `Done` over the channel, and the
        // program delivers an invocation's views from one thread, so
        // the channel's send/recv orders this store before that load.
        self.shared.prelim_ns[self.slot as usize].store(self.now_ns().max(1), Ordering::Relaxed);
    }

    /// The invocation closed.
    pub fn done(&self, outcome: Outcome) {
        // A send can only fail once the generator is gone, i.e. after
        // it gave this invocation up as lost.
        let _ = self.shared.tx.send(Done {
            slot: self.slot,
            at_ns: self.now_ns(),
            outcome,
        });
    }
}

/// Something invocations can be issued against. The program's client
/// implements it in `adapter.rs`; tests implement it with a fake.
pub trait KvTarget: Sync {
    /// Submits `op`; arranges for `hooks.prelim()` to run when a
    /// preliminary view arrives and `hooks.done(..)` exactly once when
    /// the invocation closes. Returns `hooks.now_ns()` taken right
    /// after the program's invoke call returned.
    fn issue(&self, op: KvOp, read_mode: ReadMode, hooks: Hooks) -> u64;
}

/// One completed invocation, 16 bytes.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Completion time, µs since the epoch.
    done_us: u32,
    /// Submit → preliminary view, ns (0 = no preliminary view).
    prelim_ns: u32,
    /// Submit → final view, ns.
    final_ns: u32,
    write: bool,
}

/// What an issuer did, for the accounting identity
/// `issued == ok + wrong + timeouts + unavailable + lost`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Invocations submitted.
    pub issued: u64,
    /// Closed correctly.
    pub ok: u64,
    /// Closed with a wrong view.
    pub wrong: u64,
    /// Failed with a timeout.
    pub timeouts: u64,
    /// Failed otherwise.
    pub unavailable: u64,
    /// Never completed (callback lost).
    pub lost: u64,
    /// Most invocations ever outstanding at once.
    pub max_outstanding: u64,
}

impl Counts {
    /// Invocations that did not close correctly.
    pub fn failed(&self) -> u64 {
        self.wrong + self.timeouts + self.unavailable + self.lost
    }

    fn add(&mut self, o: &Counts) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.timeouts += o.timeouts;
        self.unavailable += o.unavailable;
        self.lost += o.lost;
        self.max_outstanding = self.max_outstanding.max(o.max_outstanding);
    }
}

/// When an issuer stops submitting (it always drains what is
/// outstanding): at `at_ns`, or after `after_ops` submissions.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    /// Nanoseconds since the epoch.
    pub at_ns: u64,
    /// Submission budget.
    pub after_ops: u64,
}

struct Slot {
    seq: u64,
    t0_ns: u64,
    returned_ns: u64,
    write: bool,
}

/// The window issuer of one connection.
pub struct Issuer {
    shared: Arc<Shared>,
    rx: Receiver<Done>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Completed invocations, in completion order.
    pub records: Vec<Record>,
    /// The accounting.
    pub counts: Counts,
    /// Spans, when tracing.
    pub spans: Option<SpanBuf>,
    /// Only invocations submitted at or after this instant leave spans
    /// (the warm-up would otherwise fill the buffer).
    pub spans_from_ns: u64,
}

impl Issuer {
    /// An issuer keeping `depth` invocations outstanding, timing from
    /// `epoch`, with room for `expect_ops` records.
    pub fn new(depth: usize, epoch: Instant, expect_ops: usize, spans: Option<SpanBuf>) -> Issuer {
        let (tx, rx) = mpsc::channel();
        Issuer {
            shared: Arc::new(Shared {
                epoch,
                prelim_ns: (0..depth).map(|_| AtomicU64::new(0)).collect(),
                tx,
            }),
            rx,
            slots: (0..depth).map(|_| None).collect(),
            free: (0..depth as u32).rev().collect(),
            records: Vec::with_capacity(expect_ops),
            counts: Counts::default(),
            spans,
            spans_from_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn outstanding(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    fn submit(&mut self, target: &impl KvTarget, op: KvOp, read_mode: ReadMode) {
        let slot = self
            .free
            .pop()
            .expect("submit is only called with a free slot");
        self.shared.prelim_ns[slot as usize].store(0, Ordering::Relaxed);
        let hooks = Hooks {
            shared: Arc::clone(&self.shared),
            slot,
        };
        let seq = self.counts.issued;
        self.counts.issued += 1;
        let t0_ns = self.now_ns();
        let returned_ns = target.issue(op, read_mode, hooks);
        self.slots[slot as usize] = Some(Slot {
            seq,
            t0_ns,
            returned_ns,
            write: op.write,
        });
        self.counts.max_outstanding = self.counts.max_outstanding.max(self.outstanding());
    }

    fn complete(&mut self, done: Done, woke_ns: u64) {
        let Some(slot) = self.slots[done.slot as usize].take() else {
            return; // a second completion of one invocation: ignore
        };
        self.free.push(done.slot);
        match done.outcome {
            Outcome::Ok => self.counts.ok += 1,
            Outcome::Wrong => self.counts.wrong += 1,
            Outcome::Timeout => self.counts.timeouts += 1,
            Outcome::Unavailable => self.counts.unavailable += 1,
        }
        if done.outcome != Outcome::Ok {
            return;
        }
        let prelim_at = self.shared.prelim_ns[done.slot as usize].load(Ordering::Relaxed);
        let since = |at: u64| at.saturating_sub(slot.t0_ns).min(u64::from(u32::MAX)) as u32;
        self.records.push(Record {
            done_us: (done.at_ns / 1_000).min(u64::from(u32::MAX)) as u32,
            prelim_ns: if prelim_at == 0 {
                0
            } else {
                since(prelim_at).max(1)
            },
            final_ns: since(done.at_ns),
            write: slot.write,
        });
        if let Some(spans) = self
            .spans
            .as_mut()
            .filter(|_| slot.t0_ns >= self.spans_from_ns)
        {
            spans.push(slot.seq, SpanKind::Invoke, slot.t0_ns, woke_ns);
            spans.push(slot.seq, SpanKind::CoreSubmit, slot.t0_ns, slot.returned_ns);
            let mut waited_from = slot.returned_ns;
            if prelim_at != 0 {
                spans.push(slot.seq, SpanKind::NetPrelimWait, waited_from, prelim_at);
                waited_from = prelim_at;
            }
            spans.push(slot.seq, SpanKind::NetFinalWait, waited_from, done.at_ns);
            spans.push(slot.seq, SpanKind::BenchWake, done.at_ns, woke_ns);
        }
    }

    /// Issues operations from `ops` against `target` until `stop`,
    /// keeping the window full, then drains it.
    pub fn run(
        &mut self,
        target: &impl KvTarget,
        ops: &mut impl Iterator<Item = KvOp>,
        read_mode: ReadMode,
        stop: Stop,
    ) {
        let mut open = true;
        loop {
            while open && !self.free.is_empty() {
                open = self.counts.issued < stop.after_ops && self.now_ns() < stop.at_ns;
                if !open {
                    break;
                }
                match ops.next() {
                    Some(op) => self.submit(target, op, read_mode),
                    None => open = false,
                }
            }
            if self.outstanding() == 0 {
                return;
            }
            match self.rx.recv_timeout(LOST_AFTER) {
                Ok(done) => {
                    let woke_ns = self.now_ns();
                    self.complete(done, woke_ns);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    self.counts.lost += self.outstanding();
                    return;
                }
            }
        }
    }
}

/// One TCP workload.
#[derive(Clone, Copy, Debug)]
pub struct TcpSpec {
    /// Outstanding invocations per connection.
    pub depth: usize,
    /// Share of writes (YCSB-A 0.5, YCSB-B 0.05).
    pub write_share: f64,
    /// What writes store.
    pub payload: Payload,
    /// The *CC confirmation optimization.
    pub confirm: bool,
}

/// `tcp_pingpong_b`.
pub const PINGPONG_B: TcpSpec = TcpSpec {
    depth: 1,
    write_share: 0.05,
    payload: Payload::Opaque,
    confirm: false,
};

/// `tcp_pipelined_a_ids`.
pub const PIPELINED_A_IDS: TcpSpec = TcpSpec {
    depth: 16,
    write_share: 0.5,
    payload: Payload::Ids,
    confirm: true,
};

/// A booted cluster with its connections open and its keys written.
pub struct Deployment {
    /// The replicas.
    pub cluster: TcpCluster,
    /// The workload's connections.
    pub clients: Vec<KvClient<PlainBinding>>,
    /// Wall seconds boot + connect + preload took.
    pub setup_s: f64,
}

impl Deployment {
    /// Boots three replicas, opens the workload's connections and
    /// writes every key once through the first (16 writes in flight).
    pub fn up(spec: &TcpSpec) -> Deployment {
        let t = Instant::now();
        let cluster = TcpCluster::boot();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|n| cluster.connect(n, spec.payload, spec.confirm))
            .collect();
        let mut issuer = Issuer::new(16, t, 0, None);
        let mut every_key = (0..KEYS).map(|key| KvOp { write: true, key });
        let unbounded = Stop {
            at_ns: u64::MAX,
            after_ops: u64::MAX,
        };
        issuer.run(&clients[0], &mut every_key, ReadMode::Strong, unbounded);
        assert!(
            issuer.counts.ok == KEYS,
            "preload failed: {:?}",
            issuer.counts
        );
        Deployment {
            cluster,
            clients,
            setup_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Closes the connections and stops the replicas.
    pub fn down(self) {
        for c in &self.clients {
            c.shutdown();
        }
        self.cluster.shutdown();
    }
}

/// One slice of a window: the load ran from `from_ns` to `until_ns`
/// (then drained), with a yardstick reading on either side.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Start, ns since the window's epoch.
    pub from_ns: u64,
    /// End (every invocation of the slice closed), ns since the epoch.
    pub until_ns: u64,
    /// Invocations that closed correctly.
    pub completed: u64,
    /// Submit → preliminary view of ICG reads, p50, µs (`None`: no
    /// such sample in this slice; the slice then does not vote).
    pub prelim_p50_us: Option<f64>,
    /// Submit → final view of ICG reads, p50, µs.
    pub final_p50_us: Option<f64>,
    /// The same, p99.
    pub final_p99_us: Option<f64>,
    /// Submit → acknowledgment of writes, p50, µs.
    pub write_p50_us: Option<f64>,
    /// Preliminary → final view, p50, µs.
    pub gap_p50_us: Option<f64>,
    /// CPU and OS counters over the slice.
    pub usage: WindowUsage,
    /// How slow the machine was around the slice (see `yardstick.rs`).
    pub slowness: f64,
}

impl Slice {
    /// Wall seconds the slice lasted.
    pub fn secs(&self) -> f64 {
        (self.until_ns - self.from_ns) as f64 / 1e9
    }

    fn of(records: &[Record]) -> Slice {
        let (mut prelim, mut fin, mut write, mut gap) = (vec![], vec![], vec![], vec![]);
        for r in records {
            if r.write {
                write.push(f64::from(r.final_ns));
            } else {
                fin.push(f64::from(r.final_ns));
                if r.prelim_ns != 0 {
                    prelim.push(f64::from(r.prelim_ns));
                    gap.push(f64::from(r.final_ns.saturating_sub(r.prelim_ns)));
                }
            }
        }
        Slice {
            completed: records.len() as u64,
            prelim_p50_us: p_us(&mut prelim, 50.0),
            final_p50_us: p_us(&mut fin, 50.0),
            final_p99_us: p_us(&mut fin, 99.0),
            write_p50_us: p_us(&mut write, 50.0),
            gap_p50_us: p_us(&mut gap, 50.0),
            slowness: 1.0,
            ..Slice::default()
        }
    }
}

/// Everything one load window produced.
pub struct Window {
    /// The measured slices (warm-up slices are dropped).
    pub slices: Vec<Slice>,
    /// Summed accounting, warm-up included.
    pub counts: Counts,
    /// Span buffers, one per connection, when traced.
    pub spans: Vec<SpanBuf>,
    /// Final-view latency of every ICG read of the measured slices, ns
    /// — only when the plan asked for the tail.
    pub tail_ns: Vec<f64>,
}

/// What a window is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct WindowPlan {
    /// Input seed.
    pub seed: u64,
    /// Load before the measured part.
    pub warmup: Duration,
    /// The measured part.
    pub measure: Duration,
    /// Record spans.
    pub traced: bool,
    /// Keep every final-view latency for the tail diagnostics (memory
    /// in proportion to the throughput — not for runs that report
    /// `peak_rss_mb`).
    pub keep_tail: bool,
}

/// Runs one generator thread per target through slices of [`SLICE`]
/// until `warmup + measure` have passed. Between slices the load is
/// drained and parked while the calling thread takes a yardstick
/// reading and reads `/proc`.
pub fn run_window<T: KvTarget>(spec: &TcpSpec, targets: &[T], plan: WindowPlan) -> Window {
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let barrier = Barrier::new(targets.len() + 1);
    // When the current slice stops submitting, ns since the epoch;
    // 0 tells the generators to leave.
    let stop_at = AtomicU64::new(0);
    let handed_in: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let warm_ns = plan.warmup.as_nanos() as u64;
    let end_ns = (plan.warmup + plan.measure).as_nanos() as u64;
    let mut yardstick = Yardstick::new();
    let mut window = Window {
        slices: Vec::new(),
        counts: Counts::default(),
        spans: Vec::new(),
        tail_ns: Vec::new(),
    };
    let issuers: Vec<Issuer> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .zip(0u64..)
            .map(|(target, client)| {
                let (barrier, stop_at, handed_in) = (&barrier, &stop_at, &handed_in);
                scope.spawn(move || {
                    let spans = plan
                        .traced
                        .then(|| SpanBuf::with_capacity(SPANS_PER_CONNECTION));
                    // Room for a slice at 160 k completions per second.
                    let mut issuer = Issuer::new(spec.depth, epoch, 40_000, spans);
                    issuer.spans_from_ns = warm_ns;
                    let mut ops = KvStream::new(plan.seed, client, KEYS, spec.write_share);
                    loop {
                        barrier.wait();
                        // Relaxed: the barrier orders the store before.
                        let at_ns = stop_at.load(Ordering::Relaxed);
                        if at_ns == 0 {
                            return issuer;
                        }
                        let stop = Stop {
                            at_ns,
                            after_ops: u64::MAX,
                        };
                        issuer.run(target, &mut ops, ReadMode::Icg, stop);
                        handed_in
                            .lock()
                            .expect("no holder panics")
                            .append(&mut issuer.records);
                        barrier.wait();
                    }
                })
            })
            .collect();
        let mut before = yardstick.read(&NOMINAL_TCP);
        loop {
            let start = Snapshot::take();
            let from_ns = now_ns();
            stop_at.store(from_ns + SLICE.as_nanos() as u64, Ordering::Relaxed);
            barrier.wait();
            barrier.wait();
            let until_ns = now_ns();
            let end = Snapshot::take();
            let after = yardstick.read(&NOMINAL_TCP);
            let mut records = handed_in.lock().expect("no holder panics");
            if from_ns >= warm_ns {
                window.slices.push(Slice {
                    from_ns,
                    until_ns,
                    usage: usage_between(&start, &end),
                    slowness: slowness(&before, &after, &NOMINAL_TCP),
                    ..Slice::of(&records)
                });
                if plan.keep_tail {
                    let reads = records.iter().filter(|r| !r.write);
                    window.tail_ns.extend(reads.map(|r| f64::from(r.final_ns)));
                }
            }
            records.clear();
            drop(records);
            before = after;
            if now_ns() >= end_ns {
                break;
            }
        }
        stop_at.store(0, Ordering::Relaxed);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for issuer in issuers {
        window.counts.add(&issuer.counts);
        window.spans.extend(issuer.spans);
    }
    window
}

/// How a window's slices are summarized: always by the median slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Summary {
    /// End-to-end metrics: each slice's times divided by its slowness,
    /// its rate multiplied by it (see `yardstick.rs`).
    AtQuietSpeed,
    /// Per-layer metrics: as measured.
    AsMeasured,
}

/// A window's slices, summarized.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Completions inside the measured slices.
    pub completed: u64,
    /// Completed invocations per second.
    pub throughput_ops_s: f64,
    /// Process CPU per completed invocation, µs.
    pub cpu_us_per_op: f64,
    /// Submit → preliminary view of ICG reads, p50, µs.
    pub prelim_p50_us: f64,
    /// Submit → final view of ICG reads, p50, µs.
    pub final_p50_us: f64,
    /// The same, p99.
    pub final_p99_us: f64,
    /// Submit → acknowledgment of writes, p50, µs.
    pub write_p50_us: f64,
    /// Preliminary → final view (the speculation window), p50, µs.
    pub gap_p50_us: f64,
    /// Median slowness of the slices.
    pub slowness: f64,
    /// Diagnostics, not gated.
    pub notes: Vec<String>,
}

fn p_us(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile(samples, p).map(|ns| ns / 1e3)
}

impl Window {
    /// CPU and OS counters summed over the measured slices.
    pub fn usage(&self) -> WindowUsage {
        let mut sum = WindowUsage::default();
        for s in &self.slices {
            sum.add(&s.usage);
        }
        sum
    }

    /// Wall seconds of the measured slices.
    pub fn secs(&self) -> f64 {
        self.slices.iter().map(Slice::secs).sum()
    }

    /// Summarizes the slices.
    pub fn stats(&self, how: Summary) -> WindowStats {
        // A slice without samples of some kind (a read-only quarter
        // second, say) simply does not vote on that kind.
        let over = |f: &dyn Fn(&Slice) -> Option<f64>| {
            let mut voted: Vec<f64> = self.slices.iter().filter_map(f).collect();
            median(&mut voted).unwrap_or(0.0)
        };
        let slow = |s: &Slice| match how {
            Summary::AtQuietSpeed => s.slowness,
            Summary::AsMeasured => 1.0,
        };
        let time = |f: &dyn Fn(&Slice) -> Option<f64>| over(&|s| Some(f(s)? / slow(s)));
        let cpu_us =
            |s: &Slice| (s.completed > 0).then(|| s.usage.total_cpu_s() * 1e6 / s.completed as f64);
        let mut slownesses: Vec<f64> = self.slices.iter().map(|s| s.slowness).collect();
        let mut stats = WindowStats {
            completed: self.slices.iter().map(|s| s.completed).sum(),
            throughput_ops_s: over(&|s| Some(s.completed as f64 / s.secs() * slow(s))),
            cpu_us_per_op: time(&cpu_us),
            prelim_p50_us: time(&|s| s.prelim_p50_us),
            final_p50_us: time(&|s| s.final_p50_us),
            final_p99_us: time(&|s| s.final_p99_us),
            write_p50_us: time(&|s| s.write_p50_us),
            gap_p50_us: time(&|s| s.gap_p50_us),
            slowness: median(&mut slownesses).unwrap_or(1.0),
            notes: Vec::new(),
        };
        stats.notes.push(format!(
            "{} slices; slowness min {:.3} median {:.3} max {:.3}; completions per slice \
             min {} max {}",
            self.slices.len(),
            slownesses.first().copied().unwrap_or(1.0),
            stats.slowness,
            slownesses.last().copied().unwrap_or(1.0),
            self.slices.iter().map(|s| s.completed).min().unwrap_or(0),
            self.slices.iter().map(|s| s.completed).max().unwrap_or(0),
        ));
        let mut tail = self.tail_ns.clone();
        tail.sort_by(f64::total_cmp);
        let highest = highest_supported_percentile(tail.len()).map(|(p, _)| p);
        for p in [Some(99.9), highest.filter(|p| *p != 99.9)]
            .into_iter()
            .flatten()
        {
            let beyond = (tail.len() as f64 * (1.0 - p / 100.0)).floor();
            if let Some(v) = percentile(&tail, p) {
                stats.notes.push(format!(
                    "final view p{p} over the whole window: {:.1} us ({} samples, {beyond} beyond)",
                    v / 1e3,
                    tail.len()
                ));
            }
        }
        stats
    }
}

/// A ladder rung: the first `connections` connections, one invocation
/// outstanding each, one kind of operation for `secs` (after a warm-up
/// of a fifth of that); returns the median submit → final view time
/// in µs.
pub fn rung_p50_us(
    deployment: &Deployment,
    connections: usize,
    write: bool,
    read_mode: ReadMode,
    secs: f64,
) -> f64 {
    let epoch = Instant::now();
    let warm_ns = (secs * 0.2 * 1e9) as u64;
    let stop = Stop {
        at_ns: warm_ns + (secs * 1e9) as u64,
        after_ops: u64::MAX,
    };
    let mut lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .clients
            .iter()
            .take(connections)
            .zip(0u64..)
            .map(|(client, n)| {
                scope.spawn(move || {
                    let mut issuer = Issuer::new(1, epoch, 40_000 * (secs as usize + 2), None);
                    // Distinct keys, round-robin: a rung measures hops,
                    // not hot keys.
                    let mut ops = (n * KEYS / 2..).map(|i| KvOp {
                        write,
                        key: i % KEYS,
                    });
                    issuer.run(client, &mut ops, read_mode, stop);
                    issuer.records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rung thread panicked"))
            .filter(|r| u64::from(r.done_us) * 1_000 >= warm_ns)
            .map(|r| f64::from(r.final_ns))
            .collect()
    });
    p_us(&mut lat, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Completes every invocation from a worker thread, after checking
    /// the window bound from the target's side too.
    struct FakeTarget {
        gauge: Arc<Gauge>,
        work: Mutex<Sender<(Hooks, KvOp)>>,
    }

    #[derive(Default)]
    struct Gauge {
        in_flight: AtomicU64,
        peak: AtomicU64,
    }

    impl FakeTarget {
        /// Ops with `key % 7 == 3` time out, `key % 11 == 5` come back
        /// wrong; reads get a preliminary view first. The worker ends
        /// when the target (the only sender) is dropped.
        fn spawn() -> (FakeTarget, std::thread::JoinHandle<()>) {
            let (tx, rx) = mpsc::channel::<(Hooks, KvOp)>();
            let gauge = Arc::new(Gauge::default());
            let g = Arc::clone(&gauge);
            let worker = std::thread::spawn(move || {
                for (hooks, op) in rx {
                    if !op.write {
                        hooks.prelim();
                    }
                    g.in_flight.fetch_sub(1, Ordering::SeqCst);
                    hooks.done(if op.key % 7 == 3 {
                        Outcome::Timeout
                    } else if op.key % 11 == 5 {
                        Outcome::Wrong
                    } else {
                        Outcome::Ok
                    });
                }
            });
            let target = FakeTarget {
                gauge,
                work: Mutex::new(tx),
            };
            (target, worker)
        }
    }

    impl KvTarget for FakeTarget {
        fn issue(&self, op: KvOp, _read_mode: ReadMode, hooks: Hooks) -> u64 {
            let now = self.gauge.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.gauge.peak.fetch_max(now, Ordering::SeqCst);
            let at = hooks.now_ns();
            self.work.lock().unwrap().send((hooks, op)).unwrap();
            at
        }
    }

    #[test]
    fn window_never_exceeds_depth_and_every_op_is_accounted() {
        let (target, worker) = FakeTarget::spawn();
        let mut issuer = Issuer::new(16, Instant::now(), 0, Some(SpanBuf::with_capacity(100_000)));
        let mut ops = KvStream::new(1, 0, 1_000, 0.5);
        let stop = Stop {
            at_ns: u64::MAX,
            after_ops: 5_000,
        };
        issuer.run(&target, &mut ops, ReadMode::Icg, stop);
        let c = issuer.counts;
        assert_eq!(c.issued, 5_000);
        assert_eq!(
            c.issued,
            c.ok + c.wrong + c.timeouts + c.unavailable + c.lost
        );
        assert!(c.timeouts > 0 && c.wrong > 0 && c.lost == 0);
        assert_eq!(c.failed(), c.wrong + c.timeouts);
        assert!(c.max_outstanding <= 16, "issuer saw {}", c.max_outstanding);
        assert!(target.gauge.peak.load(Ordering::SeqCst) <= 16);
        assert_eq!(target.gauge.in_flight.load(Ordering::SeqCst), 0);
        // Only correct completions are recorded; reads carry a
        // preliminary latency no later than their final one.
        assert_eq!(issuer.records.len() as u64, c.ok);
        assert!(issuer
            .records
            .iter()
            .all(|r| r.write == (r.prelim_ns == 0) && r.prelim_ns <= r.final_ns.max(1)));
        // Five spans per read, four per write.
        let spans = issuer.spans.as_ref().unwrap();
        let reads = issuer.records.iter().filter(|r| !r.write).count();
        assert_eq!(spans.spans().len(), 4 * c.ok as usize + reads);
        drop(target);
        drop(issuer);
        worker.join().unwrap();
    }

    #[test]
    fn depth_one_is_ping_pong() {
        let (target, worker) = FakeTarget::spawn();
        let mut issuer = Issuer::new(1, Instant::now(), 0, None);
        let mut ops = (0..200).map(|key| KvOp { write: false, key });
        let stop = Stop {
            at_ns: u64::MAX,
            after_ops: u64::MAX,
        };
        issuer.run(&target, &mut ops, ReadMode::Icg, stop);
        assert_eq!(issuer.counts.issued, 200);
        assert_eq!(issuer.counts.max_outstanding, 1);
        assert_eq!(target.gauge.peak.load(Ordering::SeqCst), 1);
        drop(target);
        drop(issuer);
        worker.join().unwrap();
    }

    #[test]
    fn a_lost_completion_is_a_failure_not_a_hang() {
        struct BlackHole;
        impl KvTarget for BlackHole {
            fn issue(&self, _: KvOp, _: ReadMode, hooks: Hooks) -> u64 {
                hooks.now_ns() // and the hooks are dropped: no completion
            }
        }
        let mut issuer = Issuer::new(2, Instant::now(), 0, None);
        let mut ops = (0..10).map(|key| KvOp { write: true, key });
        let stop = Stop {
            at_ns: u64::MAX,
            after_ops: u64::MAX,
        };
        issuer.run(&BlackHole, &mut ops, ReadMode::Strong, stop);
        assert_eq!(issuer.counts.issued, 2);
        assert_eq!(issuer.counts.lost, 2);
        assert_eq!(issuer.counts.failed(), 2);
    }

    fn slice(completed: u64, lat_us: f64, slowness: f64) -> Slice {
        Slice {
            from_ns: 0,
            until_ns: 250_000_000,
            completed,
            prelim_p50_us: Some(lat_us / 2.0),
            final_p50_us: Some(lat_us),
            final_p99_us: Some(lat_us * 2.0),
            write_p50_us: None,
            gap_p50_us: Some(lat_us / 2.0),
            usage: WindowUsage {
                bench_cpu_s: 0.2,
                ..WindowUsage::default()
            },
            slowness,
        }
    }

    fn window(slices: Vec<Slice>) -> Window {
        Window {
            slices,
            counts: Counts::default(),
            spans: Vec::new(),
            tail_ns: Vec::new(),
        }
    }

    #[test]
    fn slices_are_read_at_quiet_speed_or_as_measured() {
        // Two quiet slices, three slowed by half with the yardstick
        // seeing it: at quiet speed they all agree, as measured the
        // median slice is a slow one.
        let mut slices = vec![slice(1_000, 100.0, 1.0); 2];
        slices.extend(vec![slice(500, 200.0, 2.0); 3]);
        let w = window(slices);
        let quiet = w.stats(Summary::AtQuietSpeed);
        assert_eq!(quiet.completed, 3_500);
        assert_eq!(quiet.throughput_ops_s, 4_000.0);
        assert_eq!(quiet.final_p50_us, 100.0);
        assert_eq!(quiet.prelim_p50_us, 50.0);
        assert_eq!(quiet.cpu_us_per_op, 200.0);
        assert_eq!(quiet.write_p50_us, 0.0); // nobody voted
        assert_eq!(quiet.slowness, 2.0);
        let raw = w.stats(Summary::AsMeasured);
        assert_eq!(raw.throughput_ops_s, 2_000.0);
        assert_eq!(raw.final_p50_us, 200.0);
        assert_eq!(raw.cpu_us_per_op, 400.0);
        // A slowdown the yardstick missed moves the median only once
        // it covers half the slices.
        let mut slices = vec![slice(1_000, 100.0, 1.0); 3];
        slices.extend(vec![slice(500, 200.0, 1.0); 2]);
        let quiet = window(slices).stats(Summary::AtQuietSpeed);
        assert_eq!(quiet.throughput_ops_s, 4_000.0);
        assert_eq!(quiet.final_p50_us, 100.0);
    }

    #[test]
    fn a_window_is_cut_into_slices_and_every_op_is_accounted() {
        let (target, worker) = FakeTarget::spawn();
        let spec = TcpSpec {
            depth: 4,
            ..PINGPONG_B
        };
        let plan = WindowPlan {
            seed: 7,
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(700),
            traced: false,
            keep_tail: true,
        };
        let w = run_window(&spec, std::slice::from_ref(&target), plan);
        // One warm-up slice dropped (the second starts past 300 ms);
        // slices follow each other without overlapping.
        assert!((2..=4).contains(&w.slices.len()), "{}", w.slices.len());
        assert!(w.slices.windows(2).all(|p| p[0].until_ns <= p[1].from_ns));
        assert!(w.slices.iter().all(|s| s.completed > 0 && s.slowness > 0.0));
        let c = w.counts;
        assert_eq!(c.issued, c.ok + c.wrong + c.timeouts + c.unavailable);
        assert!(c.max_outstanding <= 4 && c.lost == 0);
        let measured: u64 = w.slices.iter().map(|s| s.completed).sum();
        assert!(measured < c.ok, "the warm-up slice is not measured");
        assert_eq!(target.gauge.in_flight.load(Ordering::SeqCst), 0);
        drop(target);
        worker.join().unwrap();
    }
}
