//! The two simulated workloads. No socket is opened and no thread is
//! spawned here: all the work is the deterministic simulator, the
//! simulated replicas and gateways, the Correctables core and the
//! applications — what the oracle fleet and the paper's figures pay.
//!
//! Both workloads run *segments*: a fixed amount of work fully
//! determined by a seed, timed on the wall clock. A run repeats
//! segments (segment `i` of run seed `s` uses seed `derive(s, i)`)
//! until its time is up, with a yardstick reading between them, and
//! reports the median of the segments' speeds at quiet speed
//! (`yardstick.rs`): the counts of segment 0 repeat exactly for a seed
//! while the speeds are steadied by however many segments fit.

use std::time::Instant;

use crate::adapter::{
    self, AdsLeg, AdsShape, CacheOp, CrdtOp, CtrOp, EscrowOp, SimCausal, SimClient, SimCrdtStore,
    SimEscrow,
};
use crate::gen::{derive_seed, Rng};
use crate::procfs::thread_cpu_ns;
use crate::trace::{SpanBuf, SpanKind};

// ---------------------------------------------------------------------
// sim_ads_speculation
// ---------------------------------------------------------------------

/// fig11's quick dataset, eight closed-loop users (below the
/// saturation knee of the default replica service times), all of them
/// reading and updating the same two profiles. fig11 draws users
/// uniformly and measures 0 % divergence; one coordinator serves every
/// request, so only reads racing a write to the very same profile can
/// diverge at all — two hot profiles give about 2 %.
pub const ADS_SHAPE: AdsShape = AdsShape {
    profiles: 5_000,
    ads: 10_000,
    hot_profiles: 2,
    threads: 8,
    virtual_secs: 40,
};

/// A baseline leg and a speculative leg over the same seed.
pub struct AdsSegment {
    /// `icg = false`: strong reference read, then the ad fetch.
    pub baseline: AdsLeg,
    /// `icg = true`: the ad fetch speculates on the preliminary view.
    pub spec: AdsLeg,
    /// CPU seconds this thread spent driving both legs.
    pub drive_cpu_s: f64,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

impl AdsSegment {
    /// Runs segment `index` of run seed `seed`.
    pub fn run(seed: u64, index: u64, spans: Option<&mut SpanBuf>, epoch: Instant) -> AdsSegment {
        let seg_seed = derive_seed(seed, index);
        let t0 = epoch.elapsed().as_nanos() as u64;
        let baseline = adapter::run_ads_leg(ADS_SHAPE, false, seg_seed);
        let t1 = epoch.elapsed().as_nanos() as u64;
        let spec = adapter::run_ads_leg(ADS_SHAPE, true, seg_seed);
        let t2 = epoch.elapsed().as_nanos() as u64;
        if let Some(spans) = spans {
            for (leg, (from, until, l)) in [(t0, t1, &baseline), (t1, t2, &spec)].iter().enumerate()
            {
                let trace = index * 2 + leg as u64;
                let setup_end = from + (l.setup_s * 1e9) as u64;
                spans.push(trace, SpanKind::SimLeg, *from, *until);
                spans.push(trace, SpanKind::SimSetup, *from, setup_end);
                spans.push(
                    trace,
                    SpanKind::SimDrive,
                    setup_end,
                    setup_end + (l.drive_s * 1e9) as u64,
                );
            }
        }
        AdsSegment {
            drive_cpu_s: baseline.drive_cpu_s + spec.drive_cpu_s,
            baseline,
            spec,
        }
    }

    /// Application operations both legs completed.
    pub fn completed(&self) -> u64 {
        self.baseline.completed + self.spec.completed
    }

    /// Application operations that failed or returned a wrong result.
    pub fn failed(&self) -> u64 {
        self.baseline.failed + self.baseline.wrong + self.spec.failed + self.spec.wrong
    }

    /// Wall seconds both legs spent under load.
    pub fn drive_s(&self) -> f64 {
        self.baseline.drive_s + self.spec.drive_s
    }

    /// Mean preliminary-view latency of the speculative leg's ICG reads.
    pub fn prelim_mean_ms(&self) -> f64 {
        mean(&self.spec.prelim_ms)
    }

    /// The paper's claims, as a correctness gate: the preliminary view
    /// arrives before the final one, and speculating on it serves ads
    /// sooner than waiting for the strong reference read.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (prelim, fin) = (self.prelim_mean_ms(), mean(&self.spec.icg_final_ms));
        if self.spec.prelim_ms.is_empty() || prelim >= fin {
            out.push(format!(
                "ads: preliminary views ({prelim:.2} ms mean, n={}) do not precede final views \
                 ({fin:.2} ms)",
                self.spec.prelim_ms.len()
            ));
        }
        if self.spec.fetch_mean_ms >= self.baseline.fetch_mean_ms {
            out.push(format!(
                "ads: speculation ({:.2} ms) is not faster than the baseline ({:.2} ms)",
                self.spec.fetch_mean_ms, self.baseline.fetch_mean_ms
            ));
        }
        if self.failed() > 0 {
            out.push(format!("ads: {} operations failed", self.failed()));
        }
        out
    }

    /// Everything about the segment that must repeat bit for bit when
    /// the seed does (virtual-time results and counts; no wall time).
    pub fn fingerprint(&self) -> Vec<(&'static str, f64)> {
        let s = &self.spec;
        let b = &self.baseline;
        vec![
            ("apps.sim_baseline_mean_ms", b.fetch_mean_ms),
            ("apps.sim_final_mean_ms", s.fetch_mean_ms),
            ("apps.sim_prelim_mean_ms", self.prelim_mean_ms()),
            (
                "apps.speculation_gain_share",
                1.0 - s.fetch_mean_ms / b.fetch_mean_ms,
            ),
            ("apps.divergence_share", s.divergence),
            (
                "quorumstore.sim_bytes_per_op",
                s.gateway_bytes as f64 / s.gateway_ops.max(1) as f64,
            ),
            ("completed", self.completed() as f64),
            ("fetches", (b.fetches + s.fetches) as f64),
            ("gateway_ops", (b.gateway_ops + s.gateway_ops) as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// sim_cbcast_mix
// ---------------------------------------------------------------------

/// Rounds per leg; each round submits a small burst, settles it, and
/// lets a few virtual milliseconds pass. The spec store replays its
/// log for every view and is an order of magnitude slower per
/// operation than the other three stacks, so it gets fewer rounds:
/// each leg then takes a comparable share of a segment's time, and a
/// slowdown of any one engine moves the end-to-end throughput.
const ROUNDS: u64 = 3_600;
/// Rounds of the spec-store leg.
const SPEC_ROUNDS: u64 = 150;
/// Every fourth round runs with the FRK↔VRG link cut.
const PARTITION_EVERY: u64 = 4;
/// Keys per store: few enough that operations interact.
const KEYS: u64 = 32;

/// What one leg of a CBCAST segment did.
#[derive(Clone, Debug, Default)]
pub struct CbLeg {
    /// Wall seconds building and seeding the stack.
    pub setup_s: f64,
    /// Wall seconds submitting, settling, healing and reading back.
    pub drive_s: f64,
    /// Wall seconds in the oracle's checkers.
    pub check_s: f64,
    /// Client invocations that closed correctly.
    pub ok: u64,
    /// Client invocations that failed.
    pub failed: u64,
    /// Checker findings (empty when correct).
    pub violations: Vec<String>,
    /// Exact per-seed results: counts and virtual-time latencies.
    pub fingerprint: Vec<(&'static str, f64)>,
    /// Wall ns inside each `Client::invoke*` call (traced runs only).
    pub submit_ns: Vec<f64>,
}

/// The three legs (four stacks) of one segment, plus virtual-time view
/// latencies of the causal store for the end-to-end latency metrics.
pub struct CbSegment {
    /// `causalstore`, `specstore`, `crdt`, `crdt.escrow`, in that order.
    pub legs: Vec<CbLeg>,
    /// Causal (preliminary) view of three-level reads, sorted, ms.
    pub causal_ms: Vec<f64>,
    /// Strong (final) view of three-level reads, sorted, ms.
    pub strong_ms: Vec<f64>,
    /// Strong acknowledgment of writes, sorted, ms.
    pub write_ms: Vec<f64>,
    /// CPU seconds this thread spent in the drive phases.
    pub drive_cpu_s: f64,
}

/// Times the three phases of a leg and records their spans.
struct LegClock<'a> {
    epoch: Instant,
    spans: Option<&'a mut SpanBuf>,
    trace: u64,
    marks: Vec<u64>,
    cpu_marks: Vec<u64>,
}

impl<'a> LegClock<'a> {
    fn start(epoch: Instant, spans: Option<&'a mut SpanBuf>, trace: u64) -> Self {
        let mut c = LegClock {
            epoch,
            spans,
            trace,
            marks: Vec::new(),
            cpu_marks: Vec::new(),
        };
        c.mark();
        c
    }

    /// Ends the current phase (set-up, drive, check — in that order).
    fn mark(&mut self) {
        self.marks.push(self.epoch.elapsed().as_nanos() as u64);
        self.cpu_marks.push(thread_cpu_ns());
    }

    /// Fills the timing fields of `leg`; returns the drive's CPU seconds.
    fn finish(mut self, leg: &mut CbLeg) -> f64 {
        self.mark();
        let m = &self.marks;
        let secs = |a: u64, b: u64| (b - a) as f64 / 1e9;
        leg.setup_s = secs(m[0], m[1]);
        leg.drive_s = secs(m[1], m[2]);
        leg.check_s = secs(m[2], m[3]);
        if let Some(spans) = self.spans {
            spans.push(self.trace, SpanKind::SimLeg, m[0], m[3]);
            spans.push(self.trace, SpanKind::SimSetup, m[0], m[1]);
            spans.push(self.trace, SpanKind::SimDrive, m[1], m[2]);
            spans.push(self.trace, SpanKind::SimCheck, m[2], m[3]);
        }
        self.cpu_marks[2].saturating_sub(self.cpu_marks[1]) as f64 / 1e9
    }
}

fn partitioned(round: u64) -> bool {
    round % PARTITION_EVERY == 1
}

fn causal_leg(seed: u64, timed: bool, mut clock: LegClock<'_>) -> (CbLeg, f64, SimCausal) {
    let store = SimCausal::ec2("VRG", "IRL", seed);
    let keys: Vec<String> = (0..KEYS).map(|k| format!("k{k}")).collect();
    for (i, k) in keys.iter().enumerate() {
        store.seed(k, 1, vec![i as u64]);
    }
    let mut client = SimClient::new(store.binding(), timed);
    let mut rng = Rng::new(seed);
    let mut item = 10_000u64;
    clock.mark();
    for round in 0..ROUNDS {
        // Primary in VRG, client and its backup in IRL: cutting
        // FRK↔VRG starves only the FRK backup of updates.
        store.set_faults(if partitioned(round) {
            adapter::frk_vrg_partition()
        } else {
            adapter::no_faults()
        });
        for _ in 0..1 + rng.below(4) {
            let key = keys[rng.below(KEYS) as usize].clone();
            item += 1;
            match rng.below(10) {
                0..=2 => client.invoke_strong(CacheOp::Put(key, vec![item])),
                3 => store.publish(&key, vec![item]),
                _ => client.invoke(CacheOp::Get(key)),
            }
        }
        store.settle();
        store.advance(adapter::sim_ms(1 + rng.below(40)));
    }
    // Heal, let anti-entropy finish, then one write-through per key so
    // the cache is coherent, and read every key back at all three
    // levels: a quiescent system must answer them identically.
    store.set_faults(adapter::no_faults());
    store.advance(adapter::sim_ms(1_000));
    for k in &keys {
        item += 1;
        client.invoke_strong(CacheOp::Put(k.clone(), vec![item]));
        store.settle();
        store.advance(adapter::sim_ms(600));
    }
    client.harvest(false);
    for k in &keys {
        client.invoke(CacheOp::Get(k.clone()));
        store.settle();
    }
    client.harvest(true);
    clock.mark();
    let mut leg = CbLeg {
        ok: client.ok,
        failed: client.failed,
        submit_ns: client.submit_ns.take().unwrap_or_default(),
        ..CbLeg::default()
    };
    if client.diverged > 0 {
        leg.violations.push(format!(
            "causalstore: {} quiescent reads saw levels disagree",
            client.diverged
        ));
    }
    let cpu = clock.finish(&mut leg);
    (leg, cpu, store)
}

fn spec_leg(seed: u64, timed: bool, mut clock: LegClock<'_>) -> (CbLeg, f64) {
    let store = adapter::spec_counter_store(seed);
    let mut client = SimClient::new(store.binding(), timed);
    let mut rng = Rng::new(seed ^ 0x5bec);
    clock.mark();
    for round in 0..SPEC_ROUNDS {
        let cut = partitioned(round);
        store.set_faults(if cut {
            adapter::frk_vrg_partition()
        } else {
            adapter::no_faults()
        });
        for _ in 0..1 + rng.below(4) {
            let k = rng.below(KEYS);
            let op = match rng.below(10) {
                0..=3 => CtrOp::Add(k, 1 + rng.below(9)),
                _ => CtrOp::Get(k),
            };
            // Submissions rotate over the three replicas. With the
            // link cut, a causal or strong view of an update accepted
            // in FRK or VRG cannot complete, so only wait-free (weak)
            // invocations are issued then; their gossip across the cut
            // is lost and must be retransmitted after the heal.
            if cut || rng.below(10) == 9 {
                client.invoke_weak(op);
            } else {
                client.invoke(op);
            }
        }
        store.settle();
        store.advance(adapter::sim_ms(1 + rng.below(40)));
    }
    store.set_faults(adapter::no_faults());
    store.advance(adapter::sim_ms(2_000));
    client.harvest(false);
    for k in 0..KEYS {
        client.invoke(CtrOp::Get(k));
        store.settle();
    }
    store.advance(adapter::sim_ms(1_000));
    client.harvest(true);
    clock.mark();
    let (applied, mut violations) = adapter::spec_violations(&store);
    if client.diverged > 0 {
        violations.push(format!(
            "specstore: {} quiescent reads saw levels disagree",
            client.diverged
        ));
    }
    let mut leg = CbLeg {
        ok: client.ok,
        failed: client.failed,
        violations,
        fingerprint: vec![("specstore.applied_updates", applied as f64)],
        submit_ns: client.submit_ns.take().unwrap_or_default(),
        ..CbLeg::default()
    };
    let cpu = clock.finish(&mut leg);
    (leg, cpu)
}

fn crdt_leg(seed: u64, timed: bool, mut clock: LegClock<'_>) -> (CbLeg, f64) {
    let store = SimCrdtStore::ec2("IRL", seed);
    let mut client = SimClient::new(store.binding(), timed);
    let mut rng = Rng::new(seed ^ 0xc4d7);
    clock.mark();
    for round in 0..ROUNDS {
        let cut = partitioned(round);
        store.set_faults(if cut {
            adapter::frk_vrg_partition()
        } else {
            adapter::no_faults()
        });
        for _ in 0..1 + rng.below(4) {
            let k = rng.below(KEYS);
            let op = match rng.below(10) {
                0..=2 => CrdtOp::CtrAdd(k, 1 + rng.below(9) as i64),
                3 => CrdtOp::SetAdd(k, rng.below(8)),
                4 => CrdtOp::SetRemove(k, rng.below(8)),
                5 => CrdtOp::MapPut(k, rng.below(4), rng.below(1_000)),
                6..=7 => CrdtOp::CtrGet(k),
                8 => CrdtOp::SetContains(k, rng.below(8)),
                _ => CrdtOp::MapGet(k, rng.below(4)),
            };
            // As in the spec leg: a strong (quiescent) view needs every
            // replica, so the cut rounds issue weak invocations only.
            if cut || (op.is_read() && rng.below(2) == 0) {
                client.invoke_weak(op);
            } else {
                client.invoke(op);
            }
        }
        store.settle();
        store.advance(adapter::sim_ms(1 + rng.below(40)));
    }
    store.set_faults(adapter::no_faults());
    store.advance(adapter::sim_ms(2_000));
    client.harvest(false);
    for k in 0..KEYS {
        client.invoke(CrdtOp::CtrGet(k));
        store.settle();
    }
    store.advance(adapter::sim_ms(2_000));
    client.harvest(true);
    clock.mark();
    let (delivered, mut violations) = adapter::crdt_violations(&store);
    if client.diverged > 0 {
        violations.push(format!(
            "crdt: {} quiescent reads saw levels disagree",
            client.diverged
        ));
    }
    let mut leg = CbLeg {
        ok: client.ok,
        failed: client.failed,
        violations,
        fingerprint: vec![("crdt.delivered_effects", delivered as f64)],
        submit_ns: client.submit_ns.take().unwrap_or_default(),
        ..CbLeg::default()
    };
    let cpu = clock.finish(&mut leg);
    (leg, cpu)
}

fn escrow_leg(seed: u64, timed: bool, mut clock: LegClock<'_>) -> (CbLeg, f64) {
    // Uneven segments, and fewer tickets than buys: one segment runs
    // dry early (transfer rounds), and the sale ends sold out.
    let stock = ROUNDS;
    let (a, b) = (stock / 2, stock / 4);
    let store = SimEscrow::ec2(vec![a, b, stock - a - b], "IRL", seed, false);
    let mut client = SimClient::new(store.binding(), timed);
    let mut rng = Rng::new(seed ^ 0xe5c0);
    clock.mark();
    // Fault-free: a transfer round needs the granting replica, so a cut
    // link would stall sales rather than exercise a repair path.
    for _ in 0..ROUNDS {
        for _ in 0..1 + rng.below(3) {
            match rng.below(10) {
                0..=6 => client.invoke(EscrowOp::Buy),
                7..=8 => client.invoke_weak(EscrowOp::Avail),
                _ => client.invoke_strong(EscrowOp::Avail),
            }
        }
        store.settle();
        store.advance(adapter::sim_ms(1 + rng.below(40)));
    }
    client.invoke_strong(EscrowOp::Avail);
    store.settle();
    store.advance(adapter::sim_ms(2_000));
    client.harvest(false);
    clock.mark();
    let (sold, mut violations) = adapter::escrow_violations(&store);
    if sold > stock {
        violations.push(format!("escrow: sold {sold} of {stock} tickets"));
    }
    let mut leg = CbLeg {
        ok: client.ok,
        failed: client.failed,
        violations,
        fingerprint: vec![("crdt.escrow_sold", sold as f64)],
        submit_ns: client.submit_ns.take().unwrap_or_default(),
        ..CbLeg::default()
    };
    let cpu = clock.finish(&mut leg);
    (leg, cpu)
}

impl CbSegment {
    /// Runs segment `index` of run seed `seed`; `timed` also times
    /// every invoke call (traced runs).
    pub fn run(
        seed: u64,
        index: u64,
        timed: bool,
        mut spans: Option<&mut SpanBuf>,
        epoch: Instant,
    ) -> CbSegment {
        let seg_seed = derive_seed(seed, index);
        let trace = index * 4;
        let clock = LegClock::start(epoch, spans.as_deref_mut(), trace);
        let (mut causal, cpu0, store) = causal_leg(seg_seed, timed, clock);
        let mut t = adapter::causal_timings(&store);
        for v in [&mut t.causal_ms, &mut t.strong_ms, &mut t.write_ms] {
            v.sort_by(f64::total_cmp);
        }
        causal.fingerprint = vec![
            ("causalstore.sim_causal_mean_ms", mean(&t.causal_ms)),
            ("causalstore.sim_strong_mean_ms", mean(&t.strong_ms)),
        ];
        let clock = LegClock::start(epoch, spans.as_deref_mut(), trace + 1);
        let (spec, cpu1) = spec_leg(seg_seed, timed, clock);
        let clock = LegClock::start(epoch, spans.as_deref_mut(), trace + 2);
        let (crdt, cpu2) = crdt_leg(seg_seed, timed, clock);
        let clock = LegClock::start(epoch, spans, trace + 3);
        let (escrow, cpu3) = escrow_leg(seg_seed, timed, clock);
        CbSegment {
            legs: vec![causal, spec, crdt, escrow],
            causal_ms: t.causal_ms,
            strong_ms: t.strong_ms,
            write_ms: t.write_ms,
            drive_cpu_s: cpu0 + cpu1 + cpu2 + cpu3,
        }
    }

    /// Client invocations that closed correctly, all legs.
    pub fn completed(&self) -> u64 {
        self.legs.iter().map(|l| l.ok).sum()
    }

    /// Client invocations that failed, all legs.
    pub fn failed(&self) -> u64 {
        self.legs.iter().map(|l| l.failed).sum()
    }

    /// Wall seconds of all drive phases.
    pub fn drive_s(&self) -> f64 {
        self.legs.iter().map(|l| l.drive_s).sum()
    }

    /// Wall seconds of all set-up phases.
    pub fn setup_s(&self) -> f64 {
        self.legs.iter().map(|l| l.setup_s).sum()
    }

    /// Checker findings of all legs.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .legs
            .iter()
            .flat_map(|l| l.violations.iter().cloned())
            .collect();
        if self.failed() > 0 {
            out.push(format!("cbcast: {} invocations failed", self.failed()));
        }
        out
    }

    /// Everything that must repeat bit for bit when the seed does.
    pub fn fingerprint(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .legs
            .iter()
            .flat_map(|l| l.fingerprint.iter().copied())
            .collect();
        out.push(("completed", self.completed() as f64));
        out
    }
}
