//! The program surface, pinned in one file.
//!
//! Every `icg::` path the benchmark uses is named here and nowhere
//! else (plus `specstore::SimSpecStore`, which the facade forgot to
//! re-export). When a ROADMAP refactor moves or renames something, this is
//! the one file of the benchmark that changes — and a change here is
//! visible in review as "the benchmark was edited", which a
//! performance claim must not do.
//!
//! Only facade constructors and the stable client API are used:
//! `spawn_local_cluster`, `TcpBinding::connect(TcpConfig::new(..))`,
//! `Client`, the `Sim*::ec2` stacks, `AdSystem`/`LoadDriver`, the
//! `Wire`/frame codec, and the oracle's `check_*`. Nothing ROADMAP
//! slates for deletion is touched: no `Transport::Blocking`, no
//! `quorumstore::replica` (the one exception is the `ReplicaConfig`
//! *value* `SimStore::ec2` takes as its first argument).

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icg::apps::{AdSystem, AdsDataset, LoadDriver, MeasuredOp};
use icg::correctables::spec::CounterSpec;
use icg::correctables::{
    Binding, Client, ConsistencyLevel, Correctable, Error, History, LevelSet, RecordingBinding,
    Upcall,
};
use icg::net::frame::{encode_frame, read_frame};
use icg::net::wire::{from_bytes, to_bytes};
use icg::net::{spawn_local_cluster, ReplicaHandle, ServerConfig, TcpBinding, TcpConfig};
use icg::oracle::{
    check_convergence, check_escrow, check_monotonicity, check_sec, check_update_consistency,
};
use icg::quorumstore::{
    Key, Msg, OpId, Phase, ReadKind, ReplicaConfig, SimStore, StoreOp, Value, Version, Versioned,
};
use icg::simnet::{Ctx, Engine, Faults, Node, NodeId, SimDuration, SimTime, SiteId, Topology};

pub use icg::causalstore::{CacheOp, SimCausal};
pub use icg::correctables::spec::CtrOp;
pub use icg::crdt::{CrdtOp, EscrowOp, SimCrdtStore, SimEscrow};
// Not in the facade (see Cargo.toml): named directly.
pub use specstore::SimSpecStore;

use crate::gen::{KvOp, Rng};
use crate::procfs::thread_cpu_ns;
use crate::tcp::{Hooks, KvTarget, Outcome, ReadMode};

// ---------------------------------------------------------------------
// TCP: cluster, connections, key-value operations
// ---------------------------------------------------------------------

/// Replicas use ids `0..n` for peer traffic; clients start well past
/// them (the same convention as `icg-loadgen`).
const CLIENT_ID_BASE: u64 = 1 << 20;

/// Ids per `Value::Ids` payload: 128 × 8 B ≈ 1 KiB of real bytes on
/// the wire. (`Value::Opaque(n)` encodes only its *length*, so it
/// cannot be used to put payload on a socket.)
pub const IDS_PER_VALUE: usize = 128;

/// Declared size of the opaque payload (YCSB's small record).
pub const OPAQUE_BYTES: u32 = 128;

/// What the workload's writes store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// `Value::Opaque(128)`: 4 bytes on the wire.
    Opaque,
    /// `Value::Ids` of 128 ids derived from the key: ≈1 KiB on the wire.
    Ids,
}

/// The id list written to `key` as its `generation`-th version: every
/// element encodes the key, so any read can be validated without
/// knowing which write it observed.
fn ids_for(key: u64, generation: u64) -> Vec<u64> {
    let base = (key << 24) | (generation & 0xFF_FFFF);
    (0..IDS_PER_VALUE as u64)
        .map(|j| base ^ (j << 48))
        .collect()
}

fn value_for(payload: Payload, key: u64, generation: u64) -> Value {
    match payload {
        Payload::Opaque => Value::Opaque(OPAQUE_BYTES),
        Payload::Ids => Value::Ids(ids_for(key, generation)),
    }
}

/// Whether `v` is a value this benchmark could have written to `key`.
fn value_is_valid(payload: Payload, key: u64, v: &Value) -> bool {
    match (payload, v) {
        (Payload::Opaque, Value::Opaque(n)) => *n == OPAQUE_BYTES,
        (Payload::Ids, Value::Ids(ids)) => {
            ids.len() == IDS_PER_VALUE
                && ids.first().is_some_and(|first| first >> 24 == key)
                && ids
                    .iter()
                    .zip(0u64..)
                    .all(|(id, j)| id ^ (j << 48) == ids[0])
        }
        _ => false,
    }
}

/// A quorum-store protocol message.
pub type WireMsg = Msg;

/// The binding of an unrecorded connection.
pub type PlainBinding = TcpBinding;

/// A 3-replica quorum store on loopback, inside this process.
pub struct TcpCluster {
    replicas: Vec<ReplicaHandle>,
}

impl TcpCluster {
    /// Binds three replicas on ephemeral loopback ports and starts them.
    pub fn boot() -> TcpCluster {
        TcpCluster {
            replicas: spawn_local_cluster(3, |id| ServerConfig {
                id,
                ..ServerConfig::default()
            }),
        }
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(ReplicaHandle::addr).collect()
    }

    /// Opens client connection number `n` (replica 0 coordinates, as
    /// for every `icg-loadgen` client), `R = 2`.
    pub fn connect(&self, n: u64, payload: Payload, confirm: bool) -> KvClient<TcpBinding> {
        KvClient::new(self.dial(n, confirm), payload)
    }

    /// Like [`TcpCluster::connect`], with every client-visible view
    /// recorded for the oracle.
    pub fn connect_recorded(
        &self,
        n: u64,
        payload: Payload,
        confirm: bool,
    ) -> (KvClient<RecordingBinding<TcpBinding>>, KvHistory) {
        let history = History::new();
        let binding = RecordingBinding::new(self.dial(n, confirm), history.clone());
        (KvClient::new(binding, payload), KvHistory(history))
    }

    fn dial(&self, n: u64, confirm: bool) -> TcpBinding {
        let mut cfg = TcpConfig::new(self.addrs(), CLIENT_ID_BASE + n);
        cfg.confirm = confirm;
        // The listeners are bound before `boot` returns, so the first
        // dial succeeds; the retry only covers a loaded machine.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpBinding::connect(cfg.clone()) {
                Ok(b) => return b,
                Err(e) if Instant::now() >= deadline => panic!("cannot reach the cluster: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Stops the replicas.
    pub fn shutdown(self) {
        for r in &self.replicas {
            r.shutdown();
        }
    }
}

/// One client connection plus what the workload writes through it.
pub struct KvClient<B: Binding<Op = StoreOp, Val = Versioned>> {
    client: Client<B>,
    payload: Payload,
    writes: AtomicU64,
}

impl<B: Binding<Op = StoreOp, Val = Versioned>> KvClient<B> {
    fn new(binding: B, payload: Payload) -> Self {
        KvClient {
            client: Client::new(binding),
            payload,
            writes: AtomicU64::new(0),
        }
    }
}

impl KvClient<TcpBinding> {
    /// Closes the connection.
    pub fn shutdown(&self) {
        self.client.binding().shutdown();
    }
}

impl KvClient<RecordingBinding<TcpBinding>> {
    /// Closes the connection.
    pub fn shutdown(&self) {
        self.client.binding().inner().shutdown();
    }
}

impl<B: Binding<Op = StoreOp, Val = Versioned> + Sync> KvTarget for KvClient<B> {
    fn issue(&self, op: KvOp, read_mode: ReadMode, hooks: Hooks) -> u64 {
        let key = Key::plain(op.key);
        let c = if op.write {
            // Relaxed: the counter only makes successive payloads differ.
            let generation = self.writes.fetch_add(1, Ordering::Relaxed);
            let value = value_for(self.payload, op.key, generation);
            self.client.invoke_strong(StoreOp::Write(key, value))
        } else {
            match read_mode {
                ReadMode::Icg => self.client.invoke(StoreOp::Read(key)),
                ReadMode::Weak => self.client.invoke_weak(StoreOp::Read(key)),
                ReadMode::Strong => self.client.invoke_strong(StoreOp::Read(key)),
            }
        };
        let returned_ns = hooks.now_ns();
        let expect_final = match (op.write, read_mode) {
            (false, ReadMode::Weak) => ConsistencyLevel::WEAK,
            _ => ConsistencyLevel::STRONG,
        };
        let payload = self.payload;
        let (on_prelim, on_final, on_error) = (hooks.clone(), hooks.clone(), hooks);
        c.on_update(move |_| on_prelim.prelim());
        c.on_final(move |view| {
            let ok = view.level == expect_final
                && (op.write || value_is_valid(payload, op.key, &view.value.value));
            on_final.done(if ok { Outcome::Ok } else { Outcome::Wrong });
        });
        c.on_error(move |e| {
            on_error.done(match e {
                Error::Timeout => Outcome::Timeout,
                _ => Outcome::Unavailable,
            });
        });
        returned_ns
    }
}

/// The recorded client-visible history of one connection.
pub struct KvHistory(History<StoreOp, Versioned>);

impl KvHistory {
    /// Marks "now" in the history (for scoping the convergence check to
    /// the quiescent tail).
    pub fn mark(&self) -> u64 {
        self.0.mark()
    }

    /// Runs the oracle over the recorded history: per-invocation view
    /// monotonicity over everything, convergence (preliminary equals
    /// final) over the invocations submitted after `tail_mark`.
    /// Returns `(invocations checked, violations)`.
    pub fn check(&self, tail_mark: u64) -> (usize, Vec<String>) {
        // The recording observer appends the closing view just *after*
        // the Correctable closes, so a snapshot taken right after the
        // last completion can be one event short; wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let snapshot = loop {
            let snap = self.0.snapshot();
            if snap.iter().all(|i| i.closing_event().is_some()) || Instant::now() >= deadline {
                break snap;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut out: Vec<String> = check_monotonicity(&snapshot, true)
            .iter()
            .map(|v| format!("monotonicity: {v}"))
            .collect();
        out.extend(
            check_convergence(&snapshot, tail_mark)
                .iter()
                .map(|v| format!("convergence: {v}")),
        );
        (snapshot.len(), out)
    }
}

// ---------------------------------------------------------------------
// Ladder: core rungs
// ---------------------------------------------------------------------

/// A binding that answers inside `submit`: weak view, then strong
/// view, no I/O. What remains is exactly the library's own cost per
/// invocation.
struct InlineBinding;

impl Binding for InlineBinding {
    type Op = u64;
    type Val = u64;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: u64, levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
        for level in levels {
            upcall.deliver(op, *level);
        }
    }
}

/// `core.invoke_inline_ns`: `Client::invoke` → weak update → strong
/// close → both callbacks, `iters` times. Returns a checksum the
/// caller must consume.
pub fn core_invoke_inline(iters: u64) -> u64 {
    let client = Client::new(InlineBinding);
    let seen = Arc::new(AtomicU64::new(0));
    for i in 0..iters {
        let c = client.invoke(i);
        let (a, b) = (Arc::clone(&seen), Arc::clone(&seen));
        // Relaxed: a checksum, read after the loop on this thread.
        c.on_update(move |v| {
            a.fetch_add(v.value, Ordering::Relaxed);
        });
        c.on_final(move |v| {
            b.fetch_add(v.value, Ordering::Relaxed);
        });
    }
    seen.load(Ordering::Relaxed)
}

/// `core.speculate_*_ns`: one `speculate` whose preliminary view is
/// confirmed (`diverge == false`) or contradicted by the final view.
pub fn core_speculate(iters: u64, diverge: bool) -> u64 {
    let mut sum = 0u64;
    for i in 0..iters {
        let (c, handle) = Correctable::<u64>::pending();
        let out = c.speculate(|v| v.wrapping_mul(31));
        let _ = handle.update(i, ConsistencyLevel::WEAK);
        let _ = handle.close(i + u64::from(diverge), ConsistencyLevel::STRONG);
        sum = sum.wrapping_add(out.final_view().map_or(0, |v| v.value));
    }
    sum
}

// ---------------------------------------------------------------------
// Ladder: wire and frame rungs
// ---------------------------------------------------------------------

/// The messages one ICG read (`R = 2` of 3, fan-out to both peers)
/// puts on sockets: the client's request, two peer reads, two peer
/// responses, the preliminary reply, and the final reply — a full
/// record, or with `confirm` the 25-byte confirmation.
pub fn icg_read_messages(payload: Payload, confirm: bool) -> Vec<Msg> {
    let op = OpId {
        client: NodeId(CLIENT_ID_BASE as usize),
        seq: 7,
    };
    let key = Key::plain(42);
    let data = Versioned {
        value: value_for(payload, key.id, 3),
        version: Version {
            ts: 1_700_000_000_000_000_000,
            writer: 1,
        },
    };
    let kind = ReadKind::Icg { r: 2, confirm };
    let reply = |phase| Msg::ReadReply {
        op,
        phase,
        data: data.clone(),
    };
    let peer_read = Msg::PeerRead { op, key };
    let peer_resp = Msg::PeerReadResp {
        op,
        data: data.clone(),
    };
    vec![
        Msg::ClientRead { op, key, kind },
        peer_read.clone(),
        peer_read,
        peer_resp.clone(),
        peer_resp,
        reply(Phase::Preliminary),
        if confirm {
            Msg::ReadConfirm {
                op,
                version: data.version,
            }
        } else {
            reply(Phase::Final)
        },
    ]
}

/// Encodes and decodes every message once; returns the encoded bytes
/// (bodies only, no frame header). Panics if a message does not
/// round-trip — that is a correctness failure, not a measurement.
pub fn wire_codec_round(msgs: &[Msg]) -> usize {
    let mut bytes = 0;
    for m in msgs {
        let buf = to_bytes(m);
        bytes += buf.len();
        let back: Msg = from_bytes(&buf).expect("wire round-trip decodes");
        assert!(&back == m, "wire round-trip changed a message");
    }
    bytes
}

/// Bytes the messages occupy on a socket, frame headers included.
pub fn framed_bytes(msgs: &[Msg]) -> usize {
    let mut scratch = Vec::new();
    msgs.iter()
        .map(|m| {
            encode_frame(m, &mut scratch);
            scratch.len()
        })
        .sum()
}

/// `net.frame.roundtrip_ns_*`: `encode_frame` + `read_frame` of one
/// message through reused buffers.
pub fn frame_round(msg: &Msg, frame: &mut Vec<u8>, body: &mut Vec<u8>) -> bool {
    encode_frame(msg, frame);
    let back: Option<Msg> = read_frame(&mut Cursor::new(&frame[..]), body).expect("frame decodes");
    back.as_ref() == Some(msg)
}

// ---------------------------------------------------------------------
// Simulated stacks
// ---------------------------------------------------------------------

/// Virtual milliseconds.
pub fn sim_ms(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// A fault plan cutting the FRK↔VRG link for good. The clients of
/// every simulated stack here sit in IRL, so no client message is ever
/// lost and no operation fails — but replica-to-replica traffic
/// between the two other sites is, which is what makes the
/// retransmission, gap-detection and anti-entropy paths run.
pub fn frk_vrg_partition() -> Faults {
    Faults::none().with_partition(
        SiteId(0),
        SiteId(2),
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(1 << 30),
    )
}

/// No faults.
pub fn no_faults() -> Faults {
    Faults::none()
}

/// The spec store serving a map of counters, client in IRL.
pub fn spec_counter_store(seed: u64) -> SimSpecStore<CounterSpec> {
    SimSpecStore::ec2(CounterSpec, "IRL", seed)
}

/// Update-consistency violations of the spec store's replica logs.
pub fn spec_violations(store: &SimSpecStore<CounterSpec>) -> (usize, Vec<String>) {
    let logs = store.applied_logs();
    let applied = logs.first().map_or(0, Vec::len);
    let out = check_update_consistency(&logs)
        .iter()
        .map(|v| format!("update-consistency: {v}"))
        .collect();
    (applied, out)
}

/// SEC violations of the op-shipping CRDT store; also returns how many
/// effects replica 0 delivered.
pub fn crdt_violations(store: &SimCrdtStore) -> (usize, Vec<String>) {
    let logs = store.sec_logs();
    let delivered = logs.first().map_or(0, Vec::len);
    let out = check_sec(&store.initial_state(), &logs, &store.states())
        .iter()
        .map(|v| format!("sec: {v}"))
        .collect();
    (delivered, out)
}

/// No-oversell and ledger-convergence violations of the escrow store;
/// also returns tickets sold according to the merged ledgers.
pub fn escrow_violations(store: &SimEscrow) -> (u64, Vec<String>) {
    let states = store.states();
    let sold = states.iter().map(|s| s.total_sold()).max().unwrap_or(0);
    let out = check_escrow(&states)
        .iter()
        .map(|v| format!("escrow: {v}"))
        .collect();
    (sold, out)
}

/// Virtual-time view latencies (ms) of the causal store's completed
/// operations, split the way the end-to-end metrics are: causal view
/// and strong view of three-level reads, strong ack of writes.
pub struct CausalTimings {
    /// Causal (preliminary) view of each `invoke(Get)`.
    pub causal_ms: Vec<f64>,
    /// Strong (final) view of each `invoke(Get)`.
    pub strong_ms: Vec<f64>,
    /// Strong acknowledgment of each `Put`.
    pub write_ms: Vec<f64>,
}

/// Splits `store.timings()`. A timing with the single view `strong`
/// is a write (reads here always request all three levels).
pub fn causal_timings(store: &SimCausal) -> CausalTimings {
    let mut t = CausalTimings {
        causal_ms: Vec::new(),
        strong_ms: Vec::new(),
        write_ms: Vec::new(),
    };
    for timing in store.timings() {
        let view = |name: &str| {
            timing
                .views
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, ms)| *ms)
        };
        match (view("causal"), view("strong")) {
            (Some(c), Some(s)) => {
                t.causal_ms.push(c);
                t.strong_ms.push(s);
            }
            (None, Some(s)) if timing.views.len() == 1 => t.write_ms.push(s),
            _ => {}
        }
    }
    t
}

/// What one leg of the ad-serving workload measured. All latencies are
/// *virtual* milliseconds on the simulated FRK/IRL/VRG WAN.
#[derive(Clone, Debug, Default)]
pub struct AdsLeg {
    /// Wall seconds to build the store and preload the dataset.
    pub setup_s: f64,
    /// Wall seconds to run the load to completion.
    pub drive_s: f64,
    /// CPU seconds of the driving thread over the same stretch.
    pub drive_cpu_s: f64,
    /// Application operations completed (fetches + profile updates).
    pub completed: u64,
    /// Application operations failed.
    pub failed: u64,
    /// Fetches whose result had the wrong shape.
    pub wrong: u64,
    /// Measured `fetch_ads_by_user_id` calls.
    pub fetches: u64,
    /// Their mean latency.
    pub fetch_mean_ms: f64,
    /// Their median latency.
    pub fetch_p50_ms: f64,
    /// Their 99th-percentile latency.
    pub fetch_p99_ms: f64,
    /// Preliminary-view latency of every ICG gateway read, sorted.
    pub prelim_ms: Vec<f64>,
    /// Final-view latency of every ICG gateway read, sorted.
    pub icg_final_ms: Vec<f64>,
    /// Final-view latency of every gateway write, sorted.
    pub write_ms: Vec<f64>,
    /// Share of ICG reference reads whose preliminary view diverged.
    pub divergence: f64,
    /// Gateway operations (each fetch fans out into many).
    pub gateway_ops: u64,
    /// Bytes across the client's WAN link.
    pub gateway_bytes: u64,
}

/// Shape of the ad-serving workload (fig11's, scaled to run in about a
/// wall second per leg).
#[derive(Clone, Copy, Debug)]
pub struct AdsShape {
    /// Profiles in the dataset.
    pub profiles: u64,
    /// Ads in the dataset.
    pub ads: u64,
    /// Profiles the load actually touches. fig11 draws uniformly from
    /// all profiles and measures 0 % divergence, so misspeculation
    /// never runs; a small hot set makes reads race the updates.
    pub hot_profiles: u64,
    /// Closed-loop virtual users.
    pub threads: u32,
    /// Virtual seconds of load.
    pub virtual_secs: u64,
}

/// Runs one leg: `icg == false` is the paper's baseline (strong
/// reference read, then fetch), `true` speculates on the preliminary.
pub fn run_ads_leg(shape: AdsShape, icg: bool, seed: u64) -> AdsLeg {
    let t_setup = Instant::now();
    let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, seed);
    let dataset = AdsDataset {
        profiles: shape.profiles,
        ads: shape.ads,
        ad_bytes: 200,
    };
    let sys = Arc::new(AdSystem::new(store, dataset, seed ^ 0x5a5a));
    let setup_s = t_setup.elapsed().as_secs_f64();

    let window = SimDuration::from_secs(shape.virtual_secs);
    let wrong = Arc::new(AtomicU64::new(0));
    // The driver calls the factory from inside completion callbacks,
    // one at a time; the mutex is never contended.
    let rngs = Arc::new(std::sync::Mutex::new((
        Rng::new(seed),
        AdSystem::workload_rng(seed),
    )));
    let driver = {
        let sys = Arc::clone(&sys);
        let wrong = Arc::clone(&wrong);
        LoadDriver::new(
            sys.store().clock(),
            SimDuration::ZERO,
            window,
            window,
            move |_seq| {
                let mut g = rngs.lock().expect("factory never panics");
                let (uid_rng, refs_rng) = &mut *g;
                let uid = uid_rng.below(shape.hot_profiles);
                if uid_rng.f64() < 0.5 {
                    drop(g);
                    let wrong = Arc::clone(&wrong);
                    MeasuredOp::measured(sys.fetch_ads_by_user_id(uid, icg).map(move |ads| {
                        let ok =
                            !ads.is_empty() && ads.iter().all(|a| a.value == Value::Opaque(200));
                        if !ok {
                            // Relaxed: a tally read after the run.
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                    }))
                } else {
                    MeasuredOp::background(sys.update_profile(uid, refs_rng).map(|_| ()))
                }
            },
        )
    };
    let (t_drive, cpu_drive) = (Instant::now(), thread_cpu_ns());
    driver.start(shape.threads);
    sys.store().settle();
    let drive_s = t_drive.elapsed().as_secs_f64();
    let drive_cpu_s = thread_cpu_ns().saturating_sub(cpu_drive) as f64 / 1e9;

    let stats = driver.stats();
    let mut fetch = stats.latency.clone();
    let timings = sys.store().timings();
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let icg_reads = || {
        timings
            .iter()
            .filter(|t| t.is_read && t.prelim_ms.is_some())
    };
    AdsLeg {
        setup_s,
        drive_s,
        drive_cpu_s,
        completed: stats.total,
        failed: stats.failed,
        wrong: wrong.load(Ordering::Relaxed),
        fetches: fetch.count() as u64,
        fetch_mean_ms: fetch.mean().as_millis_f64(),
        fetch_p50_ms: fetch.median().as_millis_f64(),
        fetch_p99_ms: fetch.p99().as_millis_f64(),
        prelim_ms: sorted(icg_reads().filter_map(|t| t.prelim_ms).collect()),
        icg_final_ms: sorted(icg_reads().map(|t| t.final_ms).collect()),
        write_ms: sorted(
            timings
                .iter()
                .filter(|t| !t.is_read)
                .map(|t| t.final_ms)
                .collect(),
        ),
        divergence: sys.counters().divergence(),
        gateway_ops: timings.len() as u64,
        gateway_bytes: sys.store().gateway_link_bytes(),
    }
}

/// `quorumstore.ns_per_sim_op`: `ops` ICG reads, one at a time, through
/// the simulated quorum store. Returns wall seconds.
pub fn quorumstore_sim_ops(ops: u64, seed: u64) -> f64 {
    let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, seed);
    store.preload((0..64).map(|k| (Key::plain(k), Value::Opaque(OPAQUE_BYTES))));
    let client = Client::new(store.binding());
    let t = Instant::now();
    for i in 0..ops {
        let c = client.invoke(StoreOp::Read(Key::plain(i % 64)));
        store.settle();
        assert!(c.final_view().is_some(), "simulated read did not close");
    }
    t.elapsed().as_secs_f64()
}

/// Payload of the bare-engine rung.
#[derive(Debug)]
struct Ball;

impl icg::simnet::Wire for Ball {
    fn wire_size(&self) -> usize {
        64
    }
}

struct Bouncer {
    remaining: u64,
}

impl Node<Ball> for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, from: NodeId, msg: Ball) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, msg);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `simnet.pingpong_ns_per_event`: two nodes bouncing one message
/// across the simulated WAN, no protocol on top. Returns
/// `(events processed, wall seconds)`.
pub fn simnet_pingpong(bounces: u64, seed: u64) -> (u64, f64) {
    let topo = Topology::ec2_frk_irl_vrg();
    let frk = topo.site_named("FRK").expect("FRK is a paper site");
    let irl = topo.site_named("IRL").expect("IRL is a paper site");
    let mut engine = Engine::new(topo, seed);
    let half = bounces / 2;
    let a = engine.add_node(frk, Box::new(Bouncer { remaining: half }));
    let b = engine.add_node(irl, Box::new(Bouncer { remaining: half }));
    engine.schedule_message(a, b, SimDuration::ZERO, Ball);
    let t = Instant::now();
    let events = engine.run_until_idle(bounces + 16);
    (events, t.elapsed().as_secs_f64())
}

/// A client of a simulated stack that keeps the Correctables it
/// issued, so that after the simulation settles every one of them can
/// be checked: closed, not failed, and (on request) converged.
pub struct SimClient<B: Binding> {
    client: Client<B>,
    open: Vec<Correctable<B::Val>>,
    /// Invocations that closed with a final view.
    pub ok: u64,
    /// Invocations that failed or never closed.
    pub failed: u64,
    /// Invocations whose preliminary views differed from the final one
    /// although convergence was required.
    pub diverged: u64,
    /// Wall nanoseconds spent inside each `Client::invoke*` call, when
    /// timing was asked for.
    pub submit_ns: Option<Vec<f64>>,
}

impl<B: Binding> SimClient<B>
where
    B::Val: PartialEq,
{
    /// Wraps `binding`; with `timed`, every invoke call is timed.
    pub fn new(binding: B, timed: bool) -> Self {
        SimClient {
            client: Client::new(binding),
            open: Vec::new(),
            ok: 0,
            failed: 0,
            diverged: 0,
            submit_ns: timed.then(Vec::new),
        }
    }

    fn track(&mut self, call: impl FnOnce(&Client<B>) -> Correctable<B::Val>) {
        let c = match &mut self.submit_ns {
            Some(samples) => {
                let t = Instant::now();
                let c = call(&self.client);
                samples.push(t.elapsed().as_nanos() as f64);
                c
            }
            None => call(&self.client),
        };
        self.open.push(c);
    }

    /// `Client::invoke`: every level the binding offers.
    pub fn invoke(&mut self, op: B::Op) {
        self.track(|c| c.invoke(op));
    }

    /// `Client::invoke_weak`.
    pub fn invoke_weak(&mut self, op: B::Op) {
        self.track(|c| c.invoke_weak(op));
    }

    /// `Client::invoke_strong`.
    pub fn invoke_strong(&mut self, op: B::Op) {
        self.track(|c| c.invoke_strong(op));
    }

    /// Accounts for everything issued since the last harvest; call it
    /// after the stack settled. With `require_converged`, a preliminary
    /// view that differs from the final view counts as diverged (only
    /// meaningful for reads of a quiescent system).
    pub fn harvest(&mut self, require_converged: bool) {
        for c in self.open.drain(..) {
            match c.final_view() {
                Some(fin) => {
                    self.ok += 1;
                    if require_converged
                        && c.preliminary_views().iter().any(|p| p.value != fin.value)
                    {
                        self.diverged += 1;
                    }
                }
                None => self.failed += 1,
            }
        }
    }
}
