//! `icg-loadgen` — closed- and open-loop load drivers for a TCP replica
//! set.
//!
//! **Closed loop** (default): `--clients` threads, each with its own
//! binding, one outstanding operation per client, keys chosen
//! YCSB-Zipfian. At the end it prints, **per consistency level**, the
//! p50/p95/p99 view latency — for ICG reads that is two lines, one for
//! the preliminary (weak) view and one for the final (strong) view,
//! which is the incremental-consistency gap the paper measures.
//!
//! **Open loop** (`--open-loop`): `--connections` bindings multiplexed
//! over the reactor's event loops, with operations issued at a fixed
//! aggregate `--rate` for `--duration-secs` regardless of completions —
//! the connection-scaling workload the epoll reactor exists for.
//! Nothing blocks the issuers.
//!
//! ```text
//! icg-loadgen --replicas 127.0.0.1:4701,127.0.0.1:4702,127.0.0.1:4703 \
//!     --clients 4 --ops 2000 --keys 1000 --write-ratio 0.1 \
//!     [--mode icg|weak|strong] [--confirm] [--r 2] [--value-bytes 128]
//! icg-loadgen --replicas ... --open-loop --connections 10000 \
//!     --rate 15000 --duration-secs 20 [--bench-json lines.jsonl]
//! ```
//!
//! **Spec store** (`--levels weak,update,causal,strong`): the same
//! closed loop drives the spec store through `TcpSpecBinding`
//! instead of the quorum store, requesting exactly the named consistency
//! levels on every operation, so the report shows the full refinement
//! staircase — e.g. how much sooner an `update` view lands than the
//! `causal` and `strong` views behind it. Any of the four levels the
//! spec binding serves may be named; any other name is refused before
//! the first operation, by name.
//!
//! Both loops measure the same way: every operation registers one hook
//! that files each view it delivers, preliminary or final, under its
//! level in a `simnet::Histogram` (exact-rank percentiles, nanosecond
//! samples), and counts how the operation closed.
//!
//! `--bench-json FILE` appends per-run records in the perf-gate JSONL
//! schema (`{"suite","benchmark","mean_ns",...}`) so `perf_gate merge`
//! folds socket-level results into the committed `BENCH_*.json`
//! trajectory next to the microbenchmarks. Throughput is recorded as
//! its inverse, ns/op, to keep the gate's lower-is-better comparison.
//!
//! Exit status is nonzero if any operation failed, so scripts can use a
//! plain run as a cluster health check (`--allow-failures N` relaxes
//! that for fault drills). See `OPERATIONS.md` for reading the output.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icg_apps::cli::{die, Flags};
use icg_net::{SpecOp, SpecTcpConfig, TcpBinding, TcpConfig, TcpSpecBinding};

use correctables::spec::RegOp;
use correctables::{Binding, Client, ConsistencyLevel, Correctable, LevelSelection};
use parking_lot::Mutex;
use quorumstore::{Key, StoreOp, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{Histogram, SimDuration};
use ycsb::Zipfian;

const KNOWN: &[&str] = &[
    "replicas",
    "clients",
    "ops",
    "keys",
    "write-ratio",
    "mode",
    "levels",
    "confirm",
    "r",
    "value-bytes",
    "timeout-ms",
    "seed",
    "no-preload",
    "allow-failures",
    "open-loop",
    "connections",
    "rate",
    "duration-secs",
    "bench-json",
    "bench-name",
    "help",
];

const USAGE: &str = "icg-loadgen --replicas ADDR,ADDR,... [--clients 4] [--ops 2000]
    [--keys 1000] [--write-ratio 0.1] [--mode icg|weak|strong] [--confirm]
    [--r 2] [--value-bytes 128] [--timeout-ms 2000] [--seed 42]
    [--no-preload] [--allow-failures N]
    [--open-loop --connections 1000 --rate 5000 --duration-secs 10]
    [--levels weak,update,causal,strong]
    [--bench-json FILE] [--bench-name NAME]

Zipfian load against a TCP replica set; prints p50/p95/p99 per
consistency level. --mode icg (default) requests weak+strong on every
read (preliminary flush + quorum view); weak/strong request a single
level. --open-loop issues at a fixed aggregate --rate across
--connections bindings for --duration-secs, independent of completions.
--levels switches to the spec-store workload: every operation requests
exactly the named levels (any of weak, update, causal, strong: the
levels the spec binding serves) and each view is timed at its own level.";

/// Open-loop issuers stall (instead of queueing unboundedly) past this
/// many uncompleted operations.
const MAX_OUTSTANDING: u64 = 50_000;

/// Closed-loop client ids live past the replica-id space (replicas use
/// `0..n`); open-loop ones past those too.
const CLOSED_ID_BASE: u64 = 1 << 20;
const OPEN_ID_BASE: u64 = 1 << 21;

/// What the loops share besides the binding and the operations.
struct Run {
    clients: u64,
    ops_per_client: u64,
    seed: u64,
    timeout: Duration,
}

/// What every operation's measurement hook files into: each delivered
/// view's latency under its level, and how many operations closed which
/// way.
#[derive(Default)]
struct Tally {
    views: Mutex<BTreeMap<ConsistencyLevel, Histogram>>,
    issued: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Invokes `op` at `levels` and registers its measurement hook.
    fn issue<B: Binding>(
        self: &Arc<Self>,
        client: &Client<B>,
        (op, levels): (B::Op, LevelSelection),
    ) -> Correctable<B::Val> {
        let at = Instant::now();
        let c = client.invoke_with(op, &levels);
        self.issued.fetch_add(1, Ordering::Relaxed);
        let (update, close, error) = (Arc::clone(self), Arc::clone(self), Arc::clone(self));
        c.set_callbacks(
            move |view| update.file(view.level, at),
            move |view| {
                close.file(view.level, at);
                close.completed.fetch_add(1, Ordering::Relaxed);
            },
            move |_| {
                error.failed.fetch_add(1, Ordering::Relaxed);
            },
        )
    }

    fn file(&self, level: ConsistencyLevel, since: Instant) {
        let latency = SimDuration::from_nanos(since.elapsed().as_nanos() as u64);
        self.views.lock().entry(level).or_default().record(latency);
    }

    /// Operations issued and not closed yet.
    fn open(&self) -> u64 {
        let closed = self.completed.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed);
        self.issued.load(Ordering::Relaxed).saturating_sub(closed)
    }

    /// Waits up to `grace` for the open operations to close; returns how
    /// many completed. The rest, failed or still open, count as failed.
    fn settle(&self, grace: Duration) -> u64 {
        let deadline = Instant::now() + grace;
        while self.open() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.completed.load(Ordering::Relaxed)
    }
}

/// Dials with `connect`, retrying for up to 10 s: a freshly booted
/// cluster may still be binding, so scripts can start replicas and
/// loadgen back-to-back.
fn dial<B>(connect: impl Fn() -> std::io::Result<B>) -> B {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match connect() {
            Ok(b) => return b,
            Err(e) if Instant::now() >= deadline => die(&format!("cannot reach any replica: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Appends one perf-gate JSONL record per observed level plus an
/// aggregate ns/op row to `path`.
fn emit_bench_json(
    path: &str,
    name: &str,
    views: &mut BTreeMap<ConsistencyLevel, Histogram>,
    completed: u64,
    elapsed: Duration,
) {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (level, h) in views.iter_mut() {
        let _ = writeln!(
            out,
            "{{\"suite\": \"net\", \"benchmark\": \"{name}/{}-latency\", \
             \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"samples\": {}}}",
            level.name(),
            h.mean().as_nanos() as f64,
            h.percentile(50.0).as_nanos() as f64,
            h.percentile(95.0).as_nanos() as f64,
            h.count(),
        );
    }
    if completed > 0 {
        let ns_per_op = elapsed.as_nanos() as f64 / completed as f64;
        let _ = writeln!(
            out,
            "{{\"suite\": \"net\", \"benchmark\": \"{name}/ns-per-op\", \
             \"mean_ns\": {ns_per_op:.1}, \"median_ns\": {ns_per_op:.1}, \
             \"p95_ns\": {ns_per_op:.1}, \"samples\": {completed}}}",
        );
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| die(&format!("cannot open --bench-json {path}: {e}")));
    f.write_all(out.as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write --bench-json {path}: {e}")));
    eprintln!("bench-json: appended '{name}' records to {path}");
}

fn main() {
    let flags = match Flags::parse(std::env::args().skip(1), KNOWN) {
        Ok(f) => f,
        Err(e) => die(&format!("{e}\n\n{USAGE}")),
    };
    if flags.has("help") {
        println!("{USAGE}");
        return;
    }
    let replicas: Vec<SocketAddr> = flags
        .get_or("replicas", "")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("--replicas: '{s}' is not host:port")))
        })
        .collect();
    if replicas.is_empty() {
        die(&format!("--replicas is required\n\n{USAGE}"));
    }
    let run = Run {
        clients: flags.get_u64("clients", 4).max(1),
        ops_per_client: flags.get_u64("ops", 2000),
        seed: flags.get_u64("seed", 42),
        timeout: Duration::from_millis(flags.get_u64("timeout-ms", 2000)),
    };
    let keys = flags.get_u64("keys", 1000).max(1);
    let write_ratio = flags.get_f64("write-ratio", 0.1).clamp(0.0, 1.0);
    let value_bytes = flags.get_u64("value-bytes", 128) as u32;
    let r_strong = flags.get_u64("r", 2) as u8;
    let confirm = flags.has("confirm");
    let allow_failures = flags.get_u64("allow-failures", 0);
    let strong = LevelSelection::only(&[ConsistencyLevel::STRONG]);
    let mode = flags.get_or("mode", "icg");
    let read_at = match mode.as_str() {
        "icg" => LevelSelection::All,
        "weak" => LevelSelection::only(&[ConsistencyLevel::WEAK]),
        "strong" => strong.clone(),
        other => die(&format!("--mode must be icg|weak|strong, got '{other}'")),
    };
    let open_loop = flags.has("open-loop");
    let bench_json = flags.get_or("bench-json", "");
    // --levels NAMES selects the spec-store workload; each name must be
    // a builtin level, and the spec binding must serve it.
    let spec_levels: Option<Vec<ConsistencyLevel>> = {
        let raw = flags.get_or("levels", "");
        if raw.is_empty() {
            None
        } else {
            let parsed: Vec<ConsistencyLevel> = raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|name| {
                    ConsistencyLevel::lookup(name).unwrap_or_else(|| {
                        die(&format!("--levels: '{name}' is not a builtin level"))
                    })
                })
                .collect();
            if let Err(e) = correctables::LevelSet::try_of(&parsed) {
                die(&format!("--levels: {e}"));
            }
            Some(parsed)
        }
    };
    if spec_levels.is_some() && open_loop {
        die("--levels (spec-store workload) is closed-loop only; drop --open-loop");
    }

    let tally = Arc::new(Tally::default());
    let zipf = Zipfian::new(keys);
    let (elapsed, completed) = if let Some(levels) = &spec_levels {
        let at = LevelSelection::only(levels);
        let next_op = |rng: &mut SmallRng| {
            let key = zipf.next(rng);
            let op = if rng.gen::<f64>() < write_ratio {
                RegOp::Write(key, rng.gen())
            } else {
                RegOp::Read(key)
            };
            (SpecOp::Reg(op), at.clone())
        };
        // Clients fan out round-robin across the replica set — the spec
        // binding speaks to one replica, which gossips on their behalf.
        let connect = |c: u64| {
            let addr = replicas[c as usize % replicas.len()];
            let mut cfg = SpecTcpConfig::new(addr, CLOSED_ID_BASE + c);
            cfg.op_timeout = run.timeout;
            let binding = dial(|| TcpSpecBinding::connect(cfg));
            let served = binding.consistency_levels();
            if let Some(l) = levels.iter().find(|l| !served.contains(**l)) {
                die(&format!(
                    "--levels: the spec store does not serve '{}'",
                    l.name()
                ));
            }
            binding
        };
        let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
        let label = format!("spec store, levels {}", names.join(","));
        closed_loop(&run, &tally, connect, &next_op, &label)
    } else {
        let mut cfg = TcpConfig::new(replicas, 0);
        cfg.r_strong = r_strong;
        cfg.confirm = confirm;
        cfg.op_timeout = run.timeout;
        let connect = |client_id: u64| {
            dial(|| {
                TcpBinding::connect(TcpConfig {
                    client_id,
                    ..cfg.clone()
                })
            })
        };
        // Preload: every key written once so reads return real records.
        // The spec store starts empty by design (unknown keys read 0), so
        // the spec workload skips it.
        if !flags.has("no-preload") {
            let client = Client::new(connect(CLOSED_ID_BASE - 1));
            for k in 0..keys {
                client
                    .invoke_strong(StoreOp::Write(Key::plain(k), Value::Opaque(value_bytes)))
                    .wait_final(Duration::from_secs(10))
                    .unwrap_or_else(|e| die(&format!("preload write of key {k} failed: {e}")));
            }
            eprintln!("preloaded {keys} keys");
        }
        let next_op = |rng: &mut SmallRng| {
            let key = Key::plain(zipf.next(rng));
            if rng.gen::<f64>() < write_ratio {
                (
                    StoreOp::Write(key, Value::Opaque(value_bytes)),
                    strong.clone(),
                )
            } else {
                (StoreOp::Read(key), read_at.clone())
            }
        };
        if open_loop {
            let connect = |c: u64| connect(OPEN_ID_BASE + c);
            run_open_loop(&flags, &run, &tally, connect, &next_op)
        } else {
            let connect = |c: u64| connect(CLOSED_ID_BASE + c);
            let label = format!(
                "mode {mode}, R={r_strong}{}",
                if confirm { ", confirm" } else { "" }
            );
            closed_loop(&run, &tally, connect, &next_op, &label)
        }
    };

    // Report: one line per level, weakest first.
    let mut views = tally.views.lock();
    for (level, h) in views.iter_mut() {
        println!(
            "level {:<7} n={:<6} p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            level.name(),
            h.count(),
            h.percentile(50.0).as_millis_f64(),
            h.percentile(95.0).as_millis_f64(),
            h.p99().as_millis_f64(),
        );
    }
    let failures = tally.issued.load(Ordering::Relaxed) - completed;
    println!(
        "throughput: {:.0} ops/s ({} loop), failed: {}",
        completed as f64 / elapsed.as_secs_f64(),
        if open_loop { "open" } else { "closed" },
        failures,
    );
    if !bench_json.is_empty() {
        let default_name = if open_loop {
            format!("open-{}c", flags.get_u64("connections", 64))
        } else if spec_levels.is_some() {
            format!("spec-{}c", run.clients)
        } else {
            format!("closed-{}c", run.clients)
        };
        let name = flags.get_or("bench-name", &default_name);
        emit_bench_json(&bench_json, &name, &mut views, completed, elapsed);
    }
    if failures > allow_failures {
        std::process::exit(1);
    }
}

/// The closed loop: one thread per client, one outstanding operation
/// each. `connect(c)` builds client `c`'s binding; `next_op` draws each
/// operation with the levels to invoke it at. Returns the measured
/// window and how many operations completed.
fn closed_loop<B: Binding + Send>(
    run: &Run,
    tally: &Arc<Tally>,
    connect: impl Fn(u64) -> B,
    next_op: &(impl Fn(&mut SmallRng) -> (B::Op, LevelSelection) + Sync),
    label: &str,
) -> (Duration, u64) {
    // Connect every client before starting the clock: the initial dial
    // may retry for seconds against a still-booting cluster, and that
    // setup time must not dilute the measured throughput window.
    let bindings: Vec<B> = (0..run.clients).map(connect).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (c, binding) in bindings.into_iter().enumerate() {
            s.spawn(move || {
                let client = Client::new(binding);
                let mut rng =
                    SmallRng::seed_from_u64(run.seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
                for _ in 0..run.ops_per_client {
                    // The hook records the outcome; this only paces the loop.
                    let _ = tally
                        .issue(&client, next_op(&mut rng))
                        .wait_final(run.timeout + Duration::from_secs(1));
                }
            });
        }
    });
    let elapsed = start.elapsed();
    println!(
        "ran {} ops over {} clients in {:.2}s ({label})",
        run.clients * run.ops_per_client,
        run.clients,
        elapsed.as_secs_f64(),
    );
    (elapsed, tally.settle(run.timeout))
}

/// The connection-scaling driver: `--connections` bindings sharing the
/// reactor's event loops, operations issued at a fixed aggregate
/// `--rate` without waiting for completions.
fn run_open_loop<B: Binding + Sync>(
    flags: &Flags,
    run: &Run,
    tally: &Arc<Tally>,
    connect: impl Fn(u64) -> B,
    next_op: &(impl Fn(&mut SmallRng) -> (B::Op, LevelSelection) + Sync),
) -> (Duration, u64) {
    let connections = flags.get_u64("connections", 64).max(1);
    let rate = flags.get_f64("rate", 5000.0);
    if rate <= 0.0 {
        die("--rate must be > 0 in open-loop mode");
    }
    let duration = Duration::from_secs(flags.get_u64("duration-secs", 10).max(1));

    let setup = Instant::now();
    let clients: Vec<Client<B>> = (0..connections).map(|c| Client::new(connect(c))).collect();
    eprintln!(
        "open-loop: {connections} connections established in {:.2}s",
        setup.elapsed().as_secs_f64()
    );

    let stalled = AtomicU64::new(0);
    let threads = (connections as usize).clamp(1, 4);
    let per_thread_rate = rate / threads as f64;
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|s| {
        for t in 0..threads {
            // Each issuer owns the clients with index ≡ t (mod threads).
            let my: Vec<&Client<B>> = clients.iter().skip(t).step_by(threads).collect();
            let stalled = &stalled;
            s.spawn(move || {
                let mut rng =
                    SmallRng::seed_from_u64(run.seed ^ ((t as u64 + 1).wrapping_mul(0xA5A5_A5A5)));
                let mut sent = 0u64;
                let mut rr = 0usize;
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    // Open loop: ops come due on the wall clock, not on
                    // completions. Issue every op due by now, then nap.
                    let due = ((now - start).as_secs_f64() * per_thread_rate) as u64;
                    while sent < due {
                        if tally.open() > MAX_OUTSTANDING {
                            // The cluster is hopelessly behind the target
                            // rate; stalling beats queueing without bound.
                            stalled.fetch_add(due - sent, Ordering::Relaxed);
                            sent = due;
                            break;
                        }
                        // The Correctable handle drops here; the hook
                        // keeps the op's outcome observable.
                        tally.issue(my[rr], next_op(&mut rng));
                        rr = (rr + 1) % my.len();
                        sent += 1;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
    });
    // Drain: give in-flight ops one timeout to settle.
    let completed = tally.settle(run.timeout + Duration::from_secs(2));
    let elapsed = start.elapsed();
    let issued = tally.issued.load(Ordering::Relaxed);
    println!(
        "open loop: {connections} connections, target {rate:.0} ops/s for {:.0}s -> \
         issued {issued}, completed {completed}, failed {}, stalled {}",
        duration.as_secs_f64(),
        issued - completed,
        stalled.into_inner(),
    );
    (elapsed, completed)
}
