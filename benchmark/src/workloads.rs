//! One run of one workload: set up, measure for the asked time, check
//! the outputs, and hand back the metrics.
//!
//! An untraced run produces the end-to-end metrics and nothing else. A
//! traced run of the same workload spends about the same time on an
//! untraced reference window (which is where the per-thread-group CPU
//! and OS counters come from, at no cost to the program), a traced
//! window (spans), an oracle pass, and the ladder rungs this workload
//! owns.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::KvOp;
use crate::ladder;
use crate::metrics::RunOutput;
use crate::procfs::{confine_to_one_cpu, peak_rss_mib, usage_between, Snapshot, WindowUsage};
use crate::sim::{AdsSegment, CbSegment};
use crate::stats::{median, percentile};
use crate::tcp::{
    run_window, Deployment, Issuer, ReadMode, Stop, Summary, TcpSpec, Window, WindowPlan, CLIENTS,
    KEYS, PINGPONG_B, PIPELINED_A_IDS,
};
use crate::trace::{write_jsonl, SpanBuf, SpanKind};
use crate::yardstick::{slowness, Yardstick, NOMINAL_SIM, NOMINAL_TCP};

/// How often the TCP set-up (boot, connect, preload) is repeated for
/// `setup_s`.
const TCP_SETUPS: usize = 9;
/// Invocations per connection in the recorded (oracle) pass.
const ORACLE_OPS: u64 = 10_000;
/// Keys read back at quiescence for the convergence check.
const ORACLE_TAIL: u64 = 200;

/// Spans per generator thread that go into the span file.
const SPANS_PER_FILE_BUF: usize = 50_000;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Where span files go.
    pub out_dir: String,
}

/// Runs the workload `args` names, on one CPU (see
/// [`confine_to_one_cpu`] for why).
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    match confine_to_one_cpu() {
        Some(cpu) => eprintln!("[{}] confined to cpu {cpu}", args.workload),
        None => eprintln!(
            "[{}] could not set CPU affinity; running unconfined",
            args.workload
        ),
    }
    let tcp = if args.trace { tcp_traced } else { tcp_untraced };
    match args.workload.as_str() {
        "tcp_pingpong_b" => Ok(tcp(&PINGPONG_B, args)),
        "tcp_pipelined_a_ids" => Ok(tcp(&PIPELINED_A_IDS, args)),
        "sim_ads_speculation" => Ok(ads(args)),
        "sim_cbcast_mix" => Ok(cbcast(args)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn med(mut xs: Vec<f64>) -> f64 {
    median(&mut xs).unwrap_or(0.0)
}

fn p_of(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

fn write_spans(args: &RunArgs, bufs: &[SpanBuf], out: &mut RunOutput) {
    let path = Path::new(&args.out_dir).join(format!("trace_{}.jsonl", args.workload));
    let stored: usize = bufs.iter().map(|b| b.spans().len()).sum();
    let dropped: u64 = bufs.iter().map(SpanBuf::dropped).sum();
    match write_jsonl(&path, bufs, SPANS_PER_FILE_BUF) {
        Ok(()) => out.notes.push(format!(
            "{stored} spans recorded ({dropped} more did not fit), the first {SPANS_PER_FILE_BUF} \
             per thread written to {}",
            path.display()
        )),
        Err(e) => {
            out.correct = false;
            out.notes
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

fn account(window: &Window, out: &mut RunOutput) {
    out.attempted += window.counts.issued;
    out.failed += window.counts.failed();
    if window.counts.failed() > 0 {
        out.correct = false;
        out.notes
            .push(format!("operations failed: {:?}", window.counts));
    }
}

fn tcp_untraced(spec: &TcpSpec, args: &RunArgs) -> RunOutput {
    let mut out = RunOutput {
        correct: true,
        ..RunOutput::default()
    };
    // The first boot of a process also pays for one-time work (the
    // client reactor's threads, first-touch page faults); the median
    // of nine leaves it out.
    let mut yardstick = Yardstick::new();
    let mut setups = Vec::new();
    let mut before = yardstick.read(&NOMINAL_TCP);
    let mut deployment = Deployment::up(spec);
    loop {
        let after = yardstick.read(&NOMINAL_TCP);
        setups.push(deployment.setup_s / slowness(&before, &after, &NOMINAL_TCP));
        if setups.len() == TCP_SETUPS {
            break;
        }
        before = after;
        deployment.down();
        deployment = Deployment::up(spec);
    }
    drop(yardstick);

    let window = run_window(
        spec,
        &deployment.clients,
        WindowPlan {
            seed: args.seed,
            warmup: secs((args.seconds / 5.0).min(2.0)),
            measure: secs(args.seconds),
            traced: false,
            keep_tail: false,
        },
    );
    let stats = window.stats(Summary::AtQuietSpeed);
    account(&window, &mut out);
    if stats.completed == 0 {
        out.correct = false;
        out.notes.push("nothing completed inside the window".into());
    }
    out.set("throughput_ops_s", stats.throughput_ops_s);
    out.set("cpu_us_per_op", stats.cpu_us_per_op);
    out.set("prelim_p50_us", stats.prelim_p50_us);
    out.set("final_p50_us", stats.final_p50_us);
    out.set("write_p50_us", stats.write_p50_us);
    out.set("setup_s", med(setups));
    out.notes.push(format!(
        "final view p99 (median of per-slice p99, not gated): {:.1} us",
        stats.final_p99_us
    ));
    out.notes.extend(stats.notes);
    deployment.down();
    out.set("peak_rss_mb", peak_rss_mib());
    out
}

/// The recorded pass: a fixed number of invocations per connection
/// through `RecordingBinding`, then — once the cluster is quiet — a
/// read of some keys whose preliminary and final views must agree.
fn oracle_pass(spec: &TcpSpec, deployment: &Deployment, seed: u64, out: &mut RunOutput) {
    let epoch = Instant::now();
    let forever = |after_ops| Stop {
        at_ns: u64::MAX,
        after_ops,
    };
    for n in 0..CLIENTS {
        let (client, history) =
            deployment
                .cluster
                .connect_recorded(100 + n, spec.payload, spec.confirm);
        let mut issuer = Issuer::new(spec.depth, epoch, ORACLE_OPS as usize, None);
        let mut ops = crate::gen::KvStream::new(seed ^ 0x0fac1e, n, KEYS, spec.write_share);
        issuer.run(&client, &mut ops, ReadMode::Icg, forever(ORACLE_OPS));
        // W = 1 writes are acknowledged before they reach the other
        // replicas; give that background traffic time to land.
        std::thread::sleep(Duration::from_millis(200));
        let tail_mark = history.mark();
        let mut tail = (0..ORACLE_TAIL).map(|key| KvOp { write: false, key });
        issuer.run(&client, &mut tail, ReadMode::Icg, forever(u64::MAX));
        let (checked, violations) = history.check(tail_mark);
        client.shutdown();
        out.attempted += issuer.counts.issued;
        out.failed += issuer.counts.failed();
        out.notes.push(format!(
            "oracle: connection {n}: {checked} recorded invocations, {} violations",
            violations.len()
        ));
        if !violations.is_empty() || issuer.counts.failed() > 0 {
            out.correct = false;
            out.notes.extend(violations.into_iter().take(8));
        }
    }
}

fn tcp_traced(spec: &TcpSpec, args: &RunArgs) -> RunOutput {
    let mut out = RunOutput {
        correct: true,
        ..RunOutput::default()
    };
    let deployment = Deployment::up(spec);
    let warmup = secs((args.seconds / 10.0).min(1.0));
    let measure = secs(args.seconds * 0.3);

    // Untraced reference window: the per-layer CPU and OS counters.
    let mut plan = WindowPlan {
        seed: args.seed,
        warmup,
        measure,
        traced: false,
        keep_tail: true,
    };
    let reference = run_window(spec, &deployment.clients, plan);
    let ref_stats = reference.stats(Summary::AsMeasured);
    account(&reference, &mut out);
    let per_op = 1.0 / ref_stats.completed.max(1) as f64;
    let u = &reference.usage();
    usage_metrics(u, ref_stats.completed, &mut out);
    out.set(
        "net.server.main_busy_share_max",
        u.server_main_max_cpu_s / reference.secs(),
    );
    out.set("client.attempted", reference.counts.issued as f64);
    out.set("client.completed", reference.counts.ok as f64);
    out.set("client.timeouts", reference.counts.timeouts as f64);
    out.set("client.unavailable", reference.counts.unavailable as f64);
    out.set("host.slowness", ref_stats.slowness);
    out.set("net.gap_p50_us", ref_stats.gap_p50_us);
    out.set("final_p99_us", ref_stats.final_p99_us);
    out.notes.push(format!(
        "reference window: {:.0} ops/s, final p50 {:.1} us, cpu {:.2} us/op \
         (server {:.2} + client {:.2} + bench {:.2})",
        ref_stats.throughput_ops_s,
        ref_stats.final_p50_us,
        u.total_cpu_s() * 1e6 * per_op,
        u.server_cpu_s * 1e6 * per_op,
        u.client_cpu_s * 1e6 * per_op,
        u.bench_cpu_s * 1e6 * per_op,
    ));

    // Traced window: the same load with spans recorded around it.
    plan.seed ^= 0x7ace;
    plan.measure = secs(args.seconds * 0.25);
    plan.traced = true;
    let traced = run_window(spec, &deployment.clients, plan);
    let traced_stats = traced.stats(Summary::AsMeasured);
    account(&traced, &mut out);
    let span_p50 = |kind| {
        med(traced
            .spans
            .iter()
            .flat_map(|b| b.durations_ns(kind))
            .collect())
    };
    out.set("core.submit_p50_ns", span_p50(SpanKind::CoreSubmit));
    out.set("bench.wake_p50_us", span_p50(SpanKind::BenchWake) / 1e3);
    out.set(
        "trace.overhead_share",
        1.0 - traced_stats.throughput_ops_s / ref_stats.throughput_ops_s.max(1e-9),
    );
    write_spans(args, &traced.spans, &mut out);

    oracle_pass(spec, &deployment, args.seed, &mut out);

    // The rungs this workload's end-to-end metrics answer to.
    let rung_s = (args.seconds * 0.06).max(0.3);
    if spec.depth == 1 {
        let rungs = ladder::net_rungs(&deployment, rung_s, ref_stats.final_p50_us);
        let unattributed = rungs.last().map_or(0.0, |(_, v)| *v);
        out.notes.push(format!(
            "ladder: unattributed {unattributed:.1} us = {:.1} % of final p50 {:.1} us",
            100.0 * unattributed / ref_stats.final_p50_us.max(1e-9),
            ref_stats.final_p50_us
        ));
        out.extend(rungs);
    } else {
        out.extend(ladder::wire_rungs(secs(rung_s)));
    }
    deployment.down();
    out
}

// ---------------------------------------------------------------------
// Simulated workloads
// ---------------------------------------------------------------------

/// Takes a yardstick reading between simulated segments and keeps each
/// segment's slowness (see `yardstick.rs`).
struct Pace {
    yardstick: Yardstick,
    before: crate::yardstick::Reading,
    /// Slowness per finished segment.
    slowness: Vec<f64>,
}

impl Pace {
    fn start() -> Pace {
        let mut yardstick = Yardstick::new();
        Pace {
            before: yardstick.read(&NOMINAL_SIM),
            yardstick,
            slowness: Vec::new(),
        }
    }

    fn segment_done(&mut self) {
        let after = self.yardstick.read(&NOMINAL_SIM);
        self.slowness
            .push(slowness(&self.before, &after, &NOMINAL_SIM));
        self.before = after;
    }

    /// The median over `segments` of the time `f` at quiet speed: divided
    /// by the segment's slowness.
    fn time_at_quiet_speed<S>(&self, segments: &[S], f: impl Fn(&S) -> f64) -> f64 {
        let at_quiet = segments
            .iter()
            .zip(&self.slowness)
            .map(|(s, slow)| f(s) / slow);
        med(at_quiet.collect())
    }

    fn median_slowness(&self) -> f64 {
        median(&mut self.slowness.clone()).unwrap_or(1.0)
    }

    fn note(&self) -> String {
        let lowest = self.slowness.iter().copied().fold(f64::INFINITY, f64::min);
        let highest = self.slowness.iter().copied().fold(0.0, f64::max);
        format!(
            "slowness of {} segments: min {lowest:.3} median {:.3} max {highest:.3}",
            self.slowness.len(),
            self.median_slowness()
        )
    }
}

/// Compares two fingerprints of the same seed.
fn same_fingerprint(
    what: &str,
    a: &[(&'static str, f64)],
    b: &[(&'static str, f64)],
    out: &mut RunOutput,
) {
    if a != b {
        out.correct = false;
        out.notes.push(format!(
            "{what}: two runs of one seed differ: {a:?} vs {b:?}"
        ));
    }
}

/// CPU by thread group and OS counters of a window, per operation.
fn usage_metrics(u: &WindowUsage, completed: u64, out: &mut RunOutput) {
    let per_op = 1.0 / completed.max(1) as f64;
    out.set("net.server.cpu_us_per_op", u.server_cpu_s * 1e6 * per_op);
    out.set("net.client.cpu_us_per_op", u.client_cpu_s * 1e6 * per_op);
    out.set("bench.cpu_us_per_op", u.bench_cpu_s * 1e6 * per_op);
    out.set("os.ctx_switches_per_op", u.ctx_switches as f64 * per_op);
    out.set("os.sys_cpu_share", u.sys_share());
    out.set("os.lo_packets_per_op", u.lo_packets as f64 * per_op);
    out.set("os.lo_bytes_per_op", u.lo_bytes as f64 * per_op);
}

fn ads(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput {
        correct: true,
        ..RunOutput::default()
    };
    let epoch = Instant::now();
    let start = Snapshot::take();
    let mut spans = args.trace.then(|| SpanBuf::with_capacity(10_000));
    let mut segments = Vec::new();
    // A traced run needs segment 0 twice (same seed, same counts) and
    // spends the rest of its time on the rungs; an untraced run fills
    // its time with segments.
    let budget = secs(if args.trace { 0.0 } else { args.seconds });
    let mut pace = Pace::start();
    while segments.is_empty() || epoch.elapsed() < budget {
        let index = segments.len() as u64;
        segments.push(AdsSegment::run(args.seed, index, spans.as_mut(), epoch));
        pace.segment_done();
    }
    if args.trace {
        let again = AdsSegment::run(args.seed, 0, spans.as_mut(), epoch);
        same_fingerprint(
            "sim_ads_speculation",
            &segments[0].fingerprint(),
            &again.fingerprint(),
            &mut out,
        );
        segments.push(again);
    }
    for seg in &segments {
        out.attempted += seg.completed() + seg.baseline.failed + seg.spec.failed;
        out.failed += seg.failed();
        let violations = seg.violations();
        if !violations.is_empty() {
            out.correct = false;
            out.notes.extend(violations);
        }
    }
    let completed: u64 = segments.iter().map(AdsSegment::completed).sum();
    let over = |f: &dyn Fn(&AdsSegment) -> f64| med(segments.iter().map(f).collect());
    let first = &segments[0];
    out.notes.push(format!(
        "{} segments, {completed} app ops; segment 0: baseline {:.2} ms, speculative {:.2} ms, \
         prelim {:.2} ms, divergence {:.2} %",
        segments.len(),
        first.baseline.fetch_mean_ms,
        first.spec.fetch_mean_ms,
        first.prelim_mean_ms(),
        100.0 * first.spec.divergence
    ));
    if args.trace {
        usage_metrics(
            &usage_between(&start, &Snapshot::take()),
            completed,
            &mut out,
        );
        out.set("client.attempted", out.attempted as f64);
        out.set("client.completed", completed as f64);
        out.set("host.slowness", pace.median_slowness());
        // Names the table does not declare are carried but not printed.
        out.extend(first.fingerprint());
        out.set("final_p99_us", first.spec.fetch_p99_ms * 1e3);
        let rung = secs((args.seconds * 0.1).max(0.2));
        out.extend(ladder::core_rungs(rung));
        out.extend(ladder::sim_rungs(rung, args.seed));
        write_spans(args, spans.as_slice(), &mut out);
    } else {
        out.set(
            "throughput_ops_s",
            1.0 / pace.time_at_quiet_speed(&segments, |s| s.drive_s() / s.completed() as f64),
        );
        out.set(
            "cpu_us_per_op",
            pace.time_at_quiet_speed(&segments, |s| {
                s.drive_cpu_s * 1e6 / s.completed().max(1) as f64
            }),
        );
        // Virtual time on the simulated WAN, not wall time.
        out.set(
            "prelim_p50_us",
            over(&|s| p_of(&s.spec.prelim_ms, 50.0) * 1e3),
        );
        out.set("final_p50_us", over(&|s| s.spec.fetch_p50_ms * 1e3));
        out.set(
            "write_p50_us",
            over(&|s| p_of(&s.spec.write_ms, 50.0) * 1e3),
        );
        out.set(
            "setup_s",
            pace.time_at_quiet_speed(&segments, |s| (s.baseline.setup_s + s.spec.setup_s) / 2.0),
        );
        out.set("peak_rss_mb", peak_rss_mib());
        out.notes.push(pace.note());
    }
    out
}

fn cbcast(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput {
        correct: true,
        ..RunOutput::default()
    };
    let epoch = Instant::now();
    let start = Snapshot::take();
    let mut spans = args.trace.then(|| SpanBuf::with_capacity(10_000));
    let mut segments = Vec::new();
    // Traced: segment 0 twice, then segments for 40 % of the time so
    // the per-engine speeds are medians too.
    let budget = secs(args.seconds * if args.trace { 0.4 } else { 1.0 });
    let mut pace = Pace::start();
    while segments.is_empty() || epoch.elapsed() < budget {
        let index = segments.len() as u64;
        segments.push(CbSegment::run(
            args.seed,
            index,
            args.trace,
            spans.as_mut(),
            epoch,
        ));
        pace.segment_done();
    }
    if args.trace {
        let again = CbSegment::run(args.seed, 0, false, None, epoch);
        same_fingerprint(
            "sim_cbcast_mix",
            &segments[0].fingerprint(),
            &again.fingerprint(),
            &mut out,
        );
    }
    for seg in &segments {
        out.attempted += seg.completed() + seg.failed();
        out.failed += seg.failed();
        let violations = seg.violations();
        if !violations.is_empty() {
            out.correct = false;
            out.notes.extend(violations.into_iter().take(8));
        }
    }
    let completed: u64 = segments.iter().map(CbSegment::completed).sum();
    let over = |f: &dyn Fn(&CbSegment) -> f64| med(segments.iter().map(f).collect());
    out.notes.push(format!(
        "{} segments, {completed} invocations; segment 0: {:?}; drive seconds per leg {:?}",
        segments.len(),
        segments[0].fingerprint(),
        segments[0]
            .legs
            .iter()
            .map(|l| l.drive_s)
            .collect::<Vec<_>>()
    ));
    if args.trace {
        usage_metrics(
            &usage_between(&start, &Snapshot::take()),
            completed,
            &mut out,
        );
        out.set("client.attempted", out.attempted as f64);
        out.set("client.completed", completed as f64);
        out.set("host.slowness", pace.median_slowness());
        for (leg, name) in [
            "causalstore.ops_per_wall_s",
            "specstore.ops_per_wall_s",
            "crdt.ops_per_wall_s",
            "crdt.escrow_ops_per_wall_s",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(name, over(&|s| s.legs[leg].ok as f64 / s.legs[leg].drive_s));
        }
        out.set(
            "sim.check_share",
            over(&|s| {
                let check: f64 = s.legs.iter().map(|l| l.check_s).sum();
                check / (check + s.drive_s() + s.setup_s())
            }),
        );
        out.set(
            "core.submit_p50_ns",
            med(segments
                .iter()
                .flat_map(|s| s.legs.iter().flat_map(|l| l.submit_ns.iter().copied()))
                .collect()),
        );
        out.extend(segments[0].fingerprint());
        out.set("final_p99_us", p_of(&segments[0].strong_ms, 99.0) * 1e3);
        write_spans(args, spans.as_slice(), &mut out);
    } else {
        out.set(
            "throughput_ops_s",
            1.0 / pace.time_at_quiet_speed(&segments, |s| s.drive_s() / s.completed() as f64),
        );
        out.set(
            "cpu_us_per_op",
            pace.time_at_quiet_speed(&segments, |s| {
                s.drive_cpu_s * 1e6 / s.completed().max(1) as f64
            }),
        );
        // Virtual time on the simulated WAN (the causal store's view
        // timings), not wall time.
        out.set("prelim_p50_us", over(&|s| p_of(&s.causal_ms, 50.0) * 1e3));
        out.set("final_p50_us", over(&|s| p_of(&s.strong_ms, 50.0) * 1e3));
        out.set("write_p50_us", over(&|s| p_of(&s.write_ms, 50.0) * 1e3));
        out.set(
            "setup_s",
            pace.time_at_quiet_speed(&segments, CbSegment::setup_s),
        );
        out.set("peak_rss_mb", peak_rss_mib());
        out.notes.push(pace.note());
    }
    out
}
