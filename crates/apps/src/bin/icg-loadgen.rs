//! `icg-loadgen` — closed- and open-loop load drivers for a TCP replica
//! set.
//!
//! **Closed loop** (default): `--clients` threads, each with its own
//! `TcpBinding` and a YCSB-Zipfian key chooser, one outstanding
//! operation per client. At the end it prints, **per consistency
//! level**, the p50/p95/p99 view latency — for ICG reads that is two
//! lines, one for the preliminary (weak) view and one for the final
//! (strong) view, which is the incremental-consistency gap the paper
//! measures.
//!
//! **Open loop** (`--open-loop`): `--connections` bindings multiplexed
//! over the reactor's event loops, with operations issued at a fixed
//! aggregate `--rate` for `--duration-secs` regardless of completions —
//! the connection-scaling workload the epoll reactor exists for.
//! Completions are recorded by callback; nothing blocks the issuers.
//!
//! ```text
//! icg-loadgen --replicas 127.0.0.1:4701,127.0.0.1:4702,127.0.0.1:4703 \
//!     --clients 4 --ops 2000 --keys 1000 --write-ratio 0.1 \
//!     [--mode icg|weak|strong] [--confirm] [--r 2] [--value-bytes 128]
//! icg-loadgen --replicas ... --open-loop --connections 10000 \
//!     --rate 15000 --duration-secs 20 [--bench-json lines.jsonl]
//! ```
//!
//! **Spec-store loop** (`--levels weak,update,causal,strong`): drives
//! the version-2 spec store through `TcpSpecBinding` instead of the
//! quorum store, requesting exactly the named consistency levels on
//! every operation. Each view is timed at its own level, so the report
//! shows the full refinement staircase — e.g. how much sooner an
//! `update` view lands than the `causal` and `strong` views behind it.
//! Level names resolve through the registry, so a custom level a
//! deployment registered (and the replicas advertise in their handshake
//! directory) works here with no loadgen changes.
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

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icg_apps::cli::{die, Flags};
use icg_net::{SpecOp, SpecTcpConfig, TcpBinding, TcpConfig, TcpSpecBinding};

use correctables::spec::RegOp;
use correctables::{Client, ConsistencyLevel, LevelSelection};
use parking_lot::Mutex;
use quorumstore::{Key, StoreOp, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
exactly the named levels (registry names, so custom levels work) and
each view is timed at its own level.";

/// One recorded view latency, tagged with its consistency level.
struct Sample {
    level: ConsistencyLevel,
    micros: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Icg,
    Weak,
    Strong,
}

/// Open-loop issuers stall (instead of queueing unboundedly) past this
/// many uncompleted operations.
const MAX_OUTSTANDING: u64 = 50_000;

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1000.0
}

/// Appends one perf-gate JSONL record per observed level plus an
/// aggregate ns/op row to `path`.
fn emit_bench_json(path: &str, name: &str, samples: &[Sample], completed: u64, elapsed: Duration) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut levels: Vec<ConsistencyLevel> = Vec::new();
    for s in samples {
        if !levels.contains(&s.level) {
            levels.push(s.level);
        }
    }
    levels.sort();
    for level in levels {
        let mut lat: Vec<u64> = samples
            .iter()
            .filter(|s| s.level == level)
            .map(|s| s.micros)
            .collect();
        lat.sort_unstable();
        let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 * 1000.0;
        let _ = writeln!(
            out,
            "{{\"suite\": \"net\", \"benchmark\": \"{name}/{}-latency\", \
             \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"samples\": {}}}",
            level.name(),
            mean,
            percentile(&lat, 50.0) * 1e6,
            percentile(&lat, 95.0) * 1e6,
            lat.len(),
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
    let clients = flags.get_u64("clients", 4).max(1);
    let ops_per_client = flags.get_u64("ops", 2000);
    let keys = flags.get_u64("keys", 1000).max(1);
    let write_ratio = flags.get_f64("write-ratio", 0.1).clamp(0.0, 1.0);
    let value_bytes = flags.get_u64("value-bytes", 128) as u32;
    let r_strong = flags.get_u64("r", 2) as u8;
    let confirm = flags.has("confirm");
    let timeout = Duration::from_millis(flags.get_u64("timeout-ms", 2000));
    let seed = flags.get_u64("seed", 42);
    let allow_failures = flags.get_u64("allow-failures", 0);
    let mode = match flags.get_or("mode", "icg").as_str() {
        "icg" => Mode::Icg,
        "weak" => Mode::Weak,
        "strong" => Mode::Strong,
        other => die(&format!("--mode must be icg|weak|strong, got '{other}'")),
    };
    let open_loop = flags.has("open-loop");
    let bench_json = flags.get_or("bench-json", "");
    // --levels NAMES selects the spec-store workload; each name must
    // resolve in the level registry (builtins are pre-registered, custom
    // levels come from the deployment's own registration).
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
                        die(&format!("--levels: '{name}' is not a registered level"))
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

    // Client ids live past the replica-id space (replicas use 0..n).
    let client_id_base: u64 = 1 << 20;

    let connect = |client_id: u64| -> TcpBinding {
        let mut cfg = TcpConfig::new(replicas.clone(), client_id);
        cfg.r_strong = r_strong;
        cfg.confirm = confirm;
        cfg.op_timeout = timeout;
        // A freshly booted cluster may still be binding: retry the
        // initial dial for a few seconds before giving up, so scripts
        // can start replicas and loadgen back-to-back.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpBinding::connect(cfg.clone()) {
                Ok(b) => return b,
                Err(e) if Instant::now() >= deadline => {
                    die(&format!("cannot reach any replica: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    };

    // Preload: every key written once so reads return real records.
    // The spec store starts empty by design (unknown keys read 0), so
    // the spec workload skips it.
    if !flags.has("no-preload") && spec_levels.is_none() {
        let binding = connect(client_id_base - 1);
        let client = Client::new(binding.clone());
        for k in 0..keys {
            client
                .invoke_strong(StoreOp::Write(Key::plain(k), Value::Opaque(value_bytes)))
                .wait_final(Duration::from_secs(10))
                .unwrap_or_else(|e| die(&format!("preload write of key {k} failed: {e}")));
        }
        binding.shutdown();
        eprintln!("preloaded {keys} keys");
    }

    let (samples, issued, failures, elapsed) = if let Some(levels) = &spec_levels {
        run_spec_loop(
            &replicas,
            levels,
            clients,
            ops_per_client,
            keys,
            write_ratio,
            seed,
            timeout,
            client_id_base,
        )
    } else if open_loop {
        run_open_loop(
            &flags,
            connect,
            mode,
            keys,
            write_ratio,
            value_bytes,
            seed,
            timeout,
        )
    } else {
        run_closed_loop(
            &flags,
            connect,
            mode,
            clients,
            ops_per_client,
            keys,
            write_ratio,
            value_bytes,
            seed,
            timeout,
            client_id_base,
        )
    };

    // Report: one line per level, weakest first.
    let mut levels: Vec<ConsistencyLevel> = Vec::new();
    for s in samples.iter() {
        if !levels.contains(&s.level) {
            levels.push(s.level);
        }
    }
    levels.sort();
    for level in levels {
        let mut lat: Vec<u64> = samples
            .iter()
            .filter(|s| s.level == level)
            .map(|s| s.micros)
            .collect();
        lat.sort_unstable();
        println!(
            "level {:<7} n={:<6} p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            level.name(),
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
        );
    }
    let total_final = issued - failures;
    println!(
        "throughput: {:.0} ops/s ({} loop), failed: {}",
        total_final as f64 / elapsed.as_secs_f64(),
        if open_loop { "open" } else { "closed" },
        failures,
    );
    if !bench_json.is_empty() {
        let default_name = if open_loop {
            format!("open-{}c", flags.get_u64("connections", 64))
        } else if spec_levels.is_some() {
            format!("spec-{clients}c")
        } else {
            format!("closed-{clients}c")
        };
        let name = flags.get_or("bench-name", &default_name);
        emit_bench_json(&bench_json, &name, &samples, total_final, elapsed);
    }
    if failures > allow_failures {
        std::process::exit(1);
    }
}

/// The original driver: one outstanding op per client thread.
#[allow(clippy::too_many_arguments)]
fn run_closed_loop(
    flags: &Flags,
    connect: impl Fn(u64) -> TcpBinding,
    mode: Mode,
    clients: u64,
    ops_per_client: u64,
    keys: u64,
    write_ratio: f64,
    value_bytes: u32,
    seed: u64,
    timeout: Duration,
    client_id_base: u64,
) -> (Vec<Sample>, u64, u64, Duration) {
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(Mutex::new(0u64));

    // Connect every client before starting the clock: the initial dial
    // may retry for seconds against a still-booting cluster, and that
    // setup time must not dilute the measured throughput window.
    let bindings: Vec<TcpBinding> = (0..clients).map(|c| connect(client_id_base + c)).collect();
    let start = Instant::now();

    let mut joins = Vec::new();
    for (c, binding) in bindings.into_iter().enumerate() {
        let c = c as u64;
        let samples = Arc::clone(&samples);
        let failures = Arc::clone(&failures);
        joins.push(std::thread::spawn(move || {
            let client = Client::new(binding.clone());
            let mut rng = SmallRng::seed_from_u64(seed ^ (c.wrapping_mul(0x9E37_79B9)));
            let zipf = Zipfian::new(keys);
            let mut local: Vec<Sample> = Vec::with_capacity(ops_per_client as usize * 2);
            let mut failed = 0u64;
            for _ in 0..ops_per_client {
                let key = Key::plain(zipf.next(&mut rng));
                let issued = Instant::now();
                let c = if rng.gen::<f64>() < write_ratio {
                    client.invoke_strong(StoreOp::Write(key, Value::Opaque(value_bytes)))
                } else {
                    match mode {
                        Mode::Icg => client.invoke(StoreOp::Read(key)),
                        Mode::Weak => client.invoke_weak(StoreOp::Read(key)),
                        Mode::Strong => client.invoke_strong(StoreOp::Read(key)),
                    }
                };
                // Record every preliminary view's latency at its level.
                let prelim_samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
                {
                    let sink = Arc::clone(&prelim_samples);
                    c.on_update(move |view| {
                        sink.lock().push(Sample {
                            level: view.level,
                            micros: issued.elapsed().as_micros() as u64,
                        });
                    });
                }
                match c.wait_final(timeout + Duration::from_secs(1)) {
                    Ok(view) => {
                        local.append(&mut prelim_samples.lock());
                        local.push(Sample {
                            level: view.level,
                            micros: issued.elapsed().as_micros() as u64,
                        });
                    }
                    Err(_) => failed += 1,
                }
            }
            samples.lock().append(&mut local);
            *failures.lock() += failed;
            binding.shutdown();
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    println!(
        "ran {} ops over {} clients in {:.2}s (mode {}, R={}{})",
        clients * ops_per_client,
        clients,
        elapsed.as_secs_f64(),
        flags.get_or("mode", "icg"),
        flags.get_u64("r", 2),
        if flags.has("confirm") {
            ", confirm"
        } else {
            ""
        },
    );
    let total = clients * ops_per_client;
    let failed = *failures.lock();
    let samples = match Arc::try_unwrap(samples) {
        Ok(m) => m.into_inner(),
        Err(arc) => std::mem::take(&mut *arc.lock()),
    };
    (samples, total, failed, elapsed)
}

/// The spec-store driver: a closed loop over `TcpSpecBinding`, every
/// operation a Register read or write requesting exactly the named
/// levels. Each view is recorded at its own level, so the report shows
/// the whole refinement staircase (e.g. update landing well before
/// causal and strong).
#[allow(clippy::too_many_arguments)]
fn run_spec_loop(
    replicas: &[SocketAddr],
    levels: &[ConsistencyLevel],
    clients: u64,
    ops_per_client: u64,
    keys: u64,
    write_ratio: f64,
    seed: u64,
    timeout: Duration,
    client_id_base: u64,
) -> (Vec<Sample>, u64, u64, Duration) {
    let connect = |client_id: u64, addr: SocketAddr| -> TcpSpecBinding {
        let mut cfg = SpecTcpConfig::new(addr, client_id);
        cfg.op_timeout = timeout;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpSpecBinding::connect(cfg) {
                Ok(b) => return b,
                Err(e) if Instant::now() >= deadline => {
                    die(&format!("cannot reach replica {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    };
    // Clients fan out round-robin across the replica set — the spec
    // binding speaks to one replica, which gossips on their behalf.
    let bindings: Vec<TcpSpecBinding> = (0..clients)
        .map(|c| connect(client_id_base + c, replicas[c as usize % replicas.len()]))
        .collect();

    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(Mutex::new(0u64));
    let selection = LevelSelection::only(levels);
    let start = Instant::now();

    let mut joins = Vec::new();
    for (c, binding) in bindings.into_iter().enumerate() {
        let c = c as u64;
        let samples = Arc::clone(&samples);
        let failures = Arc::clone(&failures);
        let selection = selection.clone();
        joins.push(std::thread::spawn(move || {
            let client = Client::new(binding.clone());
            let mut rng = SmallRng::seed_from_u64(seed ^ (c.wrapping_mul(0x9E37_79B9)));
            let zipf = Zipfian::new(keys);
            let mut local: Vec<Sample> = Vec::with_capacity(ops_per_client as usize * 4);
            let mut failed = 0u64;
            for _ in 0..ops_per_client {
                let key = zipf.next(&mut rng);
                let op = if rng.gen::<f64>() < write_ratio {
                    SpecOp::Reg(RegOp::Write(key, rng.gen()))
                } else {
                    SpecOp::Reg(RegOp::Read(key))
                };
                let issued = Instant::now();
                let corr = client.invoke_with(op, &selection);
                let prelim_samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
                {
                    let sink = Arc::clone(&prelim_samples);
                    corr.on_update(move |view| {
                        sink.lock().push(Sample {
                            level: view.level,
                            micros: issued.elapsed().as_micros() as u64,
                        });
                    });
                }
                match corr.wait_final(timeout + Duration::from_secs(1)) {
                    Ok(view) => {
                        local.append(&mut prelim_samples.lock());
                        local.push(Sample {
                            level: view.level,
                            micros: issued.elapsed().as_micros() as u64,
                        });
                    }
                    Err(_) => failed += 1,
                }
            }
            samples.lock().append(&mut local);
            *failures.lock() += failed;
            binding.shutdown();
        }));
    }
    for j in joins {
        j.join().expect("spec client thread");
    }
    let elapsed = start.elapsed();
    let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
    println!(
        "ran {} spec ops over {} clients in {:.2}s (levels {})",
        clients * ops_per_client,
        clients,
        elapsed.as_secs_f64(),
        names.join(","),
    );
    let total = clients * ops_per_client;
    let failed = *failures.lock();
    let samples = match Arc::try_unwrap(samples) {
        Ok(m) => m.into_inner(),
        Err(arc) => std::mem::take(&mut *arc.lock()),
    };
    (samples, total, failed, elapsed)
}

/// The connection-scaling driver: `--connections` bindings sharing the
/// reactor's event loops, operations issued at a fixed aggregate
/// `--rate` without waiting for completions (recorded by callback).
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    flags: &Flags,
    connect: impl Fn(u64) -> TcpBinding,
    mode: Mode,
    keys: u64,
    write_ratio: f64,
    value_bytes: u32,
    seed: u64,
    timeout: Duration,
) -> (Vec<Sample>, u64, u64, Duration) {
    let connections = flags.get_u64("connections", 64).max(1);
    let rate = flags.get_f64("rate", 5000.0);
    if rate <= 0.0 {
        die("--rate must be > 0 in open-loop mode");
    }
    let duration = Duration::from_secs(flags.get_u64("duration-secs", 10).max(1));
    let client_id_base: u64 = 1 << 21; // past closed-loop ids too

    let setup = Instant::now();
    let bindings: Vec<TcpBinding> = (0..connections)
        .map(|c| connect(client_id_base + c))
        .collect();
    eprintln!(
        "open-loop: {connections} connections established in {:.2}s",
        setup.elapsed().as_secs_f64()
    );

    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let issued = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let stalled = Arc::new(AtomicU64::new(0));

    let threads = (connections as usize).clamp(1, 4);
    let per_thread_rate = rate / threads as f64;
    let start = Instant::now();
    let deadline = start + duration;

    let mut joins = Vec::new();
    for t in 0..threads {
        // Each issuer owns the bindings with index ≡ t (mod threads).
        let my: Vec<Client<TcpBinding>> = bindings
            .iter()
            .skip(t)
            .step_by(threads)
            .map(|b| Client::new(b.clone()))
            .collect();
        let samples = Arc::clone(&samples);
        let issued = Arc::clone(&issued);
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let stalled = Arc::clone(&stalled);
        joins.push(std::thread::spawn(move || {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ ((t as u64 + 1).wrapping_mul(0xA5A5_A5A5)));
            let zipf = Zipfian::new(keys);
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
                    let outstanding = issued.load(Ordering::Relaxed)
                        - completed.load(Ordering::Relaxed)
                        - failed.load(Ordering::Relaxed);
                    if outstanding > MAX_OUTSTANDING {
                        // The cluster is hopelessly behind the target
                        // rate; stalling beats queueing without bound.
                        stalled.fetch_add(due - sent, Ordering::Relaxed);
                        sent = due;
                        break;
                    }
                    let key = Key::plain(zipf.next(&mut rng));
                    let client = &my[rr];
                    rr = (rr + 1) % my.len();
                    let at = Instant::now();
                    let c = if rng.gen::<f64>() < write_ratio {
                        client.invoke_strong(StoreOp::Write(key, Value::Opaque(value_bytes)))
                    } else {
                        match mode {
                            Mode::Icg => client.invoke(StoreOp::Read(key)),
                            Mode::Weak => client.invoke_weak(StoreOp::Read(key)),
                            Mode::Strong => client.invoke_strong(StoreOp::Read(key)),
                        }
                    };
                    issued.fetch_add(1, Ordering::Relaxed);
                    sent += 1;
                    let sink = Arc::clone(&samples);
                    c.on_update(move |view| {
                        // Preliminary views only; the close lands below.
                        if view.level == ConsistencyLevel::WEAK {
                            sink.lock().push(Sample {
                                level: view.level,
                                micros: at.elapsed().as_micros() as u64,
                            });
                        }
                    });
                    let sink = Arc::clone(&samples);
                    let done = Arc::clone(&completed);
                    c.on_final(move |view| {
                        sink.lock().push(Sample {
                            level: view.level,
                            micros: at.elapsed().as_micros() as u64,
                        });
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                    let fails = Arc::clone(&failed);
                    c.on_error(move |_| {
                        fails.fetch_add(1, Ordering::Relaxed);
                    });
                    // The Correctable handle drops here; the callbacks
                    // keep the op's outcome observable.
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }
    for j in joins {
        j.join().expect("issuer thread");
    }
    // Drain: give in-flight ops one timeout to settle.
    let drain_deadline = Instant::now() + timeout + Duration::from_secs(2);
    loop {
        let settled = completed.load(Ordering::Relaxed) + failed.load(Ordering::Relaxed);
        if settled >= issued.load(Ordering::Relaxed) || Instant::now() >= drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = start.elapsed();
    for b in &bindings {
        b.shutdown();
    }

    let issued_n = issued.load(Ordering::Relaxed);
    let completed_n = completed.load(Ordering::Relaxed);
    let failed_n = failed.load(Ordering::Relaxed);
    let stalled_n = stalled.load(Ordering::Relaxed);
    // Ops still unresolved at the drain deadline count as failures.
    let unresolved = issued_n - completed_n - failed_n;
    println!(
        "open loop: {connections} connections, target {rate:.0} ops/s for {:.0}s -> \
         issued {issued_n}, completed {completed_n}, failed {}, stalled {stalled_n}",
        duration.as_secs_f64(),
        failed_n + unresolved,
    );
    let samples = match Arc::try_unwrap(samples) {
        Ok(m) => m.into_inner(),
        Err(arc) => std::mem::take(&mut *arc.lock()),
    };
    (samples, issued_n, failed_n + unresolved, elapsed)
}
