//! The seeded fault-schedule explorer.
//!
//! One exploration = one `(stack, seed)` pair. The seed deterministically
//! derives (1) a fault schedule — partitions, node downtime, message
//! loss — via [`Faults::random`], and (2) a concurrent client workload.
//! The stack runs the workload under the schedule, heals, quiesces, and
//! then every checker runs over the recorded history:
//!
//! - view monotonicity over *all* invocations,
//! - convergence over the quiescent tail reads,
//! - linearizability of strong views against the stack's sequential spec
//!   (crashed operations treated as maybe-applied).
//!
//! On failure the schedule is **shrunk** — one-step reductions are
//! re-run and kept while they still fail — and the resulting
//! [`FailureReport`] prints the minimal `(seed, schedule)` pair, which
//! [`replay`] reruns bit-for-bit.

use std::fmt;

use correctables::record::{History, HistoryEvent, Invocation, RecordingBinding};
use correctables::spec::SeqSpec;
use correctables::{Client, ConsistencyLevel, KeyedOp};
use simnet::{DetRng, Faults, GatewayProto, NodeId, SchedulePlan, SimDuration, SimHost, SiteId};

use causalstore::{CacheOp, Item, SimCausal};
use consensusq::{seq_of, QueueOp, QueueView, ServerConfig, SimQueue};
use icg_crdt::{CrdtOp, CrdtVal, EscrowOp, Sale, SimCrdtStore, SimEscrow};
use icg_shard::ShardedBinding;
use quorumstore::{Key, QuorumBinding, ReplicaConfig, SimStore, StoreOp, Value, Versioned};
use specstore::{SimSpecStore, SpecBinding};

use crate::buggy::LaggyMem;
use crate::checkers::{
    check_convergence, check_escrow, check_monotonicity, check_sec, check_update_consistency,
};
use crate::lin::{check_linearizable, LinEntry};
use crate::spec::{
    CounterSpec, CtrOp, KvStoreSpec, KvsOp, QOp, QRet, QueueSpec, RegOp, RegisterSpec,
};

/// Which binding stack an exploration drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    /// The quorum store (CC; *CC when `confirm` is set).
    Store {
        /// Enable the *CC confirmation optimization.
        confirm: bool,
    },
    /// The ZooKeeper-model replicated queue (CZK).
    Queue,
    /// The cached causal store (news-reader stack).
    Causal,
    /// A fleet of quorum stores behind the sharded router.
    ShardedStore {
        /// Number of shards.
        shards: usize,
    },
    /// The spec-generic four-level store (`weak → update → causal →
    /// strong`) over the register spec.
    SpecRegister,
    /// The spec-generic four-level store over the counter spec.
    SpecCounter,
    /// The coordination-free CRDT store, checked against strong
    /// eventual consistency ([`check_sec`]).
    Crdt {
        /// Gossip full states (CvRDT anti-entropy) instead of
        /// causally-delivered downstream effects (CmRDT).
        state_based: bool,
    },
    /// The escrow-segmented ticket store: coordination-free fast sales
    /// from per-replica segments, transfers at exhaustion — checked
    /// against the no-oversell invariant ([`check_escrow`]).
    TicketsEscrow,
    /// The deliberately buggy in-memory binding ([`LaggyMem`]) — the
    /// negative fixture proving the checkers reject real violations.
    BuggyMem,
    /// The deliberately broken spec store: replicas apply updates in
    /// arrival order instead of the agreed total order — the negative
    /// fixture for the update-consistency checker.
    BuggySpec,
    /// The deliberately broken CRDT: "effects" ship origin-side totals
    /// and merge by overwrite — the negative fixture for the SEC
    /// checker.
    BrokenCrdt,
}

impl fmt::Display for StackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackKind::Store { confirm: false } => write!(f, "store"),
            StackKind::Store { confirm: true } => write!(f, "store+confirm"),
            StackKind::Queue => write!(f, "queue"),
            StackKind::Causal => write!(f, "causal"),
            StackKind::ShardedStore { shards } => write!(f, "sharded-store({shards})"),
            StackKind::SpecRegister => write!(f, "spec-register"),
            StackKind::SpecCounter => write!(f, "spec-counter"),
            StackKind::Crdt { state_based: false } => write!(f, "crdt-op"),
            StackKind::Crdt { state_based: true } => write!(f, "crdt-state"),
            StackKind::TicketsEscrow => write!(f, "tickets-escrow"),
            StackKind::BuggyMem => write!(f, "buggy-mem"),
            StackKind::BuggySpec => write!(f, "buggy-spec"),
            StackKind::BrokenCrdt => write!(f, "broken-crdt"),
        }
    }
}

/// Exploration parameters (the defaults keep one run well under a
/// second of real time).
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Approximate number of workload operations in the faulty phase.
    pub ops: usize,
    /// Key-space size (smaller = more write/read interaction).
    pub keys: u64,
    /// Maximum operations submitted concurrently before settling.
    pub max_batch: u64,
    /// Client-side deadline per operation, virtual milliseconds.
    pub client_timeout_ms: u64,
    /// Bounds for fault-schedule generation.
    pub plan: SchedulePlan,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            ops: 48,
            keys: 4,
            max_batch: 6,
            client_timeout_ms: 1_500,
            plan: SchedulePlan::default(),
        }
    }
}

/// What a clean exploration covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSummary {
    /// Invocations recorded (workload + quiescent tail).
    pub invocations: usize,
    /// Operations that closed by error (timeouts under faults).
    pub crashed: usize,
    /// Operations entered into the stack's semantic check —
    /// linearizability entries for the lin-checked stacks, replayed
    /// log entries for the SEC-checked CRDT stacks, confirmed sales
    /// for the escrow stack.
    pub lin_entries: usize,
}

/// A reproducible consistency violation.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The stack that misbehaved.
    pub stack: StackKind,
    /// The seed that (with `schedule`) reproduces the violation.
    pub seed: u64,
    /// The minimal (shrunk) fault schedule that still fails.
    pub schedule: Faults,
    /// The checker findings.
    pub violations: Vec<String>,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "consistency violation on stack `{}` — reproduce with seed={} schedule=[{}]",
            self.stack, self.seed, self.schedule
        )?;
        for v in self.violations.iter().take(8) {
            writeln!(f, "  - {v}")?;
        }
        if self.violations.len() > 8 {
            writeln!(f, "  … and {} more", self.violations.len() - 8)?;
        }
        write!(
            f,
            "replay: icg_oracle::replay(stack, seed, &schedule, &config) reruns this \
             deterministically"
        )
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// The canonical fault targets of the simulated stacks: the three
/// replicas/servers are always the first three nodes of their engine,
/// and the FRK/IRL/VRG topology has three sites (the client gateway
/// shares one of them, so partitions can cut the client off too).
///
/// Schedules are generated *before* the stack exists (the seed must
/// fully determine them), so every driver checks this layout against
/// the stack's own id accessors via [`assert_fault_targets`] — if a
/// constructor ever reorders node registration, the explorer fails
/// loudly instead of silently targeting the wrong node.
fn fault_targets() -> (Vec<SiteId>, Vec<NodeId>) {
    ((0..3).map(SiteId).collect(), (0..3).map(NodeId).collect())
}

fn assert_fault_targets(sites: Vec<SiteId>, nodes: Vec<NodeId>) {
    let (want_sites, want_nodes) = fault_targets();
    assert_eq!(sites, want_sites, "stack site layout changed");
    assert_eq!(nodes, want_nodes, "stack replica layout changed");
}

/// Explores one `(stack, seed)` pair: generates the schedule, runs the
/// workload, checks the history, and on failure shrinks the schedule.
///
/// # Errors
///
/// Returns the shrunk, reproducible [`FailureReport`].
pub fn explore(
    stack: StackKind,
    seed: u64,
    cfg: &ExplorerConfig,
) -> Result<RunSummary, Box<FailureReport>> {
    let (sites, nodes) = fault_targets();
    let mut rng = DetRng::seed_from_u64(seed);
    let schedule = Faults::random(&cfg.plan, &sites, &nodes, &mut rng);
    run_and_report(stack, seed, schedule, cfg, true)
}

/// Reruns a previously reported `(seed, schedule)` pair verbatim (no
/// generation, no shrinking).
///
/// # Errors
///
/// Returns the same violation the original run produced.
pub fn replay(
    stack: StackKind,
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
) -> Result<RunSummary, Box<FailureReport>> {
    run_and_report(stack, seed, schedule.clone(), cfg, false)
}

fn run_and_report(
    stack: StackKind,
    seed: u64,
    schedule: Faults,
    cfg: &ExplorerConfig,
    shrink: bool,
) -> Result<RunSummary, Box<FailureReport>> {
    let (summary, violations) = run_one(stack, seed, &schedule, cfg);
    if violations.is_empty() {
        return Ok(summary);
    }
    let (schedule, violations) = if shrink {
        shrink_schedule(stack, seed, schedule, violations, cfg)
    } else {
        (schedule, violations)
    };
    Err(Box::new(FailureReport {
        stack,
        seed,
        schedule,
        violations,
    }))
}

/// Greedily keeps one-step reductions of the schedule while they still
/// fail; runs are deterministic, so the result is reproducible.
fn shrink_schedule(
    stack: StackKind,
    seed: u64,
    mut schedule: Faults,
    mut violations: Vec<String>,
    cfg: &ExplorerConfig,
) -> (Faults, Vec<String>) {
    loop {
        let mut improved = false;
        for cand in schedule.shrink_candidates() {
            let (_, v) = run_one(stack, seed, &cand, cfg);
            if !v.is_empty() {
                schedule = cand;
                violations = v;
                improved = true;
                break;
            }
        }
        if !improved {
            return (schedule, violations);
        }
    }
}

fn run_one(
    stack: StackKind,
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
) -> (RunSummary, Vec<String>) {
    match stack {
        StackKind::Store { confirm } => run_store(seed, schedule, cfg, confirm),
        StackKind::Queue => run_queue(seed, schedule, cfg),
        StackKind::Causal => run_causal(seed, schedule, cfg),
        StackKind::ShardedStore { shards } => run_sharded(seed, schedule, cfg, shards),
        StackKind::SpecRegister => run_spec_register(seed, schedule, cfg),
        StackKind::SpecCounter => run_spec_counter(seed, schedule, cfg),
        StackKind::Crdt { state_based } => run_crdt(seed, schedule, cfg, state_based),
        StackKind::TicketsEscrow => run_tickets_escrow(seed, schedule, cfg),
        StackKind::BuggyMem => run_buggy(seed, cfg),
        StackKind::BuggySpec => run_buggy_spec(seed, cfg),
        StackKind::BrokenCrdt => run_broken_crdt(seed, cfg),
    }
}

/// Salt separating the workload stream from the schedule stream, so a
/// shrunk schedule never changes which operations the workload issues.
const WORKLOAD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

fn workload_rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(seed ^ WORKLOAD_SALT)
}

fn crashed_count<Op, T>(invs: &[Invocation<Op, T>]) -> usize {
    invs.iter()
        .filter(|i| matches!(i.closing_event(), Some(HistoryEvent::Failed { .. })))
        .count()
}

fn structural_violations<Op: fmt::Debug, T: PartialEq + fmt::Debug>(
    invs: &[Invocation<Op, T>],
    tail_mark: u64,
) -> Vec<String> {
    let mut out: Vec<String> = check_monotonicity(invs, true)
        .into_iter()
        .map(|v| format!("monotonicity: {v}"))
        .collect();
    out.extend(
        check_convergence(invs, tail_mark)
            .into_iter()
            .map(|v| format!("convergence: {v}")),
    );
    out
}

// ---------------------------------------------------------------------
// The skeleton every stack shares
// ---------------------------------------------------------------------

/// The faulty phase of a simulated stack: checks the fault targets, arms
/// the client deadline and the schedule, issues `ops` workload
/// operations in bursts of up to `max_batch` (settling, then idling up
/// to 120 ms, after each burst), heals, and lets every in-flight effect
/// and timeout drain. What follows — the quiescent tail — differs per
/// stack; `issue` submits one workload operation.
fn faulty_phase<P: GatewayProto>(
    host: &SimHost<P>,
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
    ops: usize,
    max_batch: u64,
    mut issue: impl FnMut(&mut DetRng),
) {
    assert_fault_targets(host.site_ids(), host.replica_ids());
    host.set_client_timeout(ms(cfg.client_timeout_ms));
    host.set_faults(schedule.clone());
    let mut wl = workload_rng(seed);
    let mut issued = 0usize;
    while issued < ops {
        let batch = 1 + wl.below(max_batch);
        for _ in 0..batch {
            issue(&mut wl);
            issued += 1;
        }
        host.settle();
        host.advance(ms(wl.range(1, 120)));
    }
    host.set_faults(Faults::none());
    host.advance(ms(cfg.plan.horizon_ms + cfg.client_timeout_ms + 1_000));
}

/// The end of every run: the structural checks over the recorded
/// history plus the stack's own `semantic` check, which returns how many
/// entries it inspected and what it found.
fn report<Op, T>(
    history: &History<Op, T>,
    tail_mark: u64,
    semantic: impl FnOnce(&[Invocation<Op, T>]) -> (usize, Vec<String>),
) -> (RunSummary, Vec<String>)
where
    Op: Clone + fmt::Debug,
    T: Clone + PartialEq + fmt::Debug,
{
    let invs = history.snapshot();
    let mut violations = structural_violations(&invs, tail_mark);
    let (checked, found) = semantic(&invs);
    violations.extend(found);
    (
        RunSummary {
            invocations: invs.len(),
            crashed: crashed_count(&invs),
            lin_entries: checked,
        },
        violations,
    )
}

/// The strong order of a history, in the spec's own vocabulary: strong
/// closes are done entries; a crashed (timed-out) operation that
/// `mutates` may still have landed and stays as maybe-applied; crashed
/// reads and weaker closes don't partake.
fn lin_entries<Op, T, SOp, SRet>(
    invs: &[Invocation<Op, T>],
    spec_op: impl Fn(&Op) -> SOp,
    spec_ret: impl Fn(&T) -> SRet,
    mutates: impl Fn(&Op) -> bool,
) -> Vec<LinEntry<SOp, SRet>> {
    let mut out = Vec::new();
    for inv in invs {
        match inv.closing_event() {
            Some(HistoryEvent::View { level, value, .. })
                if level.at_least(ConsistencyLevel::STRONG) =>
            {
                out.push(LinEntry::done(
                    inv.id,
                    spec_op(&inv.op),
                    spec_ret(value),
                    inv.submitted,
                    inv.closed_at(),
                ));
            }
            Some(HistoryEvent::Failed { .. }) if mutates(&inv.op) => {
                out.push(LinEntry::crashed(inv.id, spec_op(&inv.op), inv.submitted));
            }
            _ => {}
        }
    }
    out
}

fn lin_check<S: SeqSpec>(spec: &S, entries: Vec<LinEntry<S::Op, S::Ret>>) -> (usize, Vec<String>) {
    let found = check_linearizable(spec, &entries).err();
    (
        entries.len(),
        found
            .map(|v| format!("linearizability: {v}"))
            .into_iter()
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Quorum store
// ---------------------------------------------------------------------

fn opaque(v: &Value) -> u64 {
    match v {
        Value::Opaque(n) => u64::from(*n),
        _ => 0,
    }
}

/// A timed-out write may still have landed; a timed-out read has no
/// effect and drops out entirely.
fn store_lin_entries(invs: &[Invocation<StoreOp, Versioned>]) -> Vec<LinEntry<RegOp, u64>> {
    lin_entries(
        invs,
        |op| match op {
            StoreOp::Read(k) => RegOp::Read(k.id),
            StoreOp::Write(k, v) => RegOp::Write(k.id, opaque(v)),
        },
        |v| opaque(&v.value),
        |op| matches!(op, StoreOp::Write(..)),
    )
}

fn store_init_value(key: u64) -> u32 {
    100 + key as u32
}

fn store_spec(keys: u64) -> RegisterSpec {
    RegisterSpec {
        initial: (0..keys)
            .map(|k| (k, u64::from(store_init_value(k))))
            .collect(),
    }
}

fn run_store(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
    confirm: bool,
) -> (RunSummary, Vec<String>) {
    let rc = ReplicaConfig {
        op_timeout: ms(1_000),
        ..ReplicaConfig::default()
    };
    let store = SimStore::ec2(rc, 2, confirm, "IRL", 0, seed);
    store.preload((0..cfg.keys).map(|k| (Key::plain(k), Value::Opaque(store_init_value(k)))));
    let history: History<StoreOp, Versioned> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));

    let mut next_val: u32 = 10_000;
    faulty_phase(&store, seed, schedule, cfg, cfg.ops, cfg.max_batch, |wl| {
        let k = Key::plain(wl.below(cfg.keys));
        match wl.below(10) {
            0..=3 => {
                let v = Value::Opaque(next_val);
                next_val += 1;
                if wl.chance(0.5) {
                    client.invoke_strong(StoreOp::Write(k, v));
                } else {
                    client.invoke(StoreOp::Write(k, v));
                }
            }
            4..=7 => {
                client.invoke(StoreOp::Read(k));
            }
            8 => {
                client.invoke_strong(StoreOp::Read(k));
            }
            _ => {
                client.invoke_weak(StoreOp::Read(k));
            }
        }
    });

    // The quiescent tail: a strong refresh round, then the checked reads.
    for k in 0..cfg.keys {
        client.invoke_strong(StoreOp::Read(Key::plain(k)));
    }
    store.settle();
    store.advance(ms(300));
    let tail_mark = history.mark();
    for k in 0..cfg.keys {
        client.invoke(StoreOp::Read(Key::plain(k)));
    }
    store.settle();

    report(&history, tail_mark, |invs| {
        lin_check(&store_spec(cfg.keys), store_lin_entries(invs))
    })
}

// ---------------------------------------------------------------------
// Replicated queue
// ---------------------------------------------------------------------

fn run_queue(seed: u64, schedule: &Faults, cfg: &ExplorerConfig) -> (RunSummary, Vec<String>) {
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", seed);
    let prefill = cfg.keys;
    q.prefill(prefill, 20);
    let history: History<QueueOp, QueueView> = History::with_clock(q.clock());
    let client = Client::new(RecordingBinding::new(q.binding(), history.clone()));

    // Zab coordination is heavier than a quorum read; halve the load.
    let (ops, max_batch) = (cfg.ops / 2, cfg.max_batch.min(3));
    faulty_phase(&q, seed, schedule, cfg, ops, max_batch, |wl| {
        match wl.below(10) {
            0..=4 => {
                client.invoke(QueueOp::Enqueue { data_len: 20 });
            }
            5..=8 => {
                client.invoke(QueueOp::Dequeue);
            }
            _ => {
                client.invoke_weak(QueueOp::Dequeue);
            }
        }
    });

    let tail_mark = history.mark();
    // Sequential tail with propagation gaps so the connected follower's
    // local simulation (the preliminary) reflects a settled state.
    for i in 0..4u64 {
        if i == 3 {
            client.invoke(QueueOp::Enqueue { data_len: 20 });
        } else {
            client.invoke(QueueOp::Dequeue);
        }
        q.settle();
        q.advance(ms(300));
    }

    report(&history, tail_mark, |invs| {
        // Both queue ops mutate (a timeout leaves them in maybe-applied
        // limbo); weak-only dequeues are pure peeks.
        let entries = lin_entries(
            invs,
            |op| match op {
                QueueOp::Enqueue { .. } => QOp::Enqueue,
                QueueOp::Dequeue => QOp::Dequeue,
                // The recipes' primitives; the workload above issues
                // neither and `QueueSpec` has no operation for them.
                QueueOp::List | QueueOp::Remove { .. } => {
                    unreachable!("not part of the explored workload")
                }
            },
            |v| QRet {
                name: v.name.as_deref().and_then(seq_of),
                remaining: v.remaining,
            },
            |_| true,
        );
        lin_check(&QueueSpec { prefill }, entries)
    })
}

// ---------------------------------------------------------------------
// Cached causal store
// ---------------------------------------------------------------------

fn run_causal(seed: u64, schedule: &Faults, cfg: &ExplorerConfig) -> (RunSummary, Vec<String>) {
    let s = SimCausal::ec2("VRG", "IRL", seed);
    let keys: Vec<String> = (0..cfg.keys).map(|k| format!("k{k}")).collect();
    for (i, k) in keys.iter().enumerate() {
        s.seed(k, 1, vec![i as u64]);
    }
    let history: History<CacheOp, Option<Item>> = History::with_clock(s.clock());
    let client = Client::new(RecordingBinding::new(s.binding(), history.clone()));

    let mut next_item: u64 = 10_000;
    let mut fresh_items = || {
        next_item += 1;
        vec![next_item - 1]
    };
    faulty_phase(&s, seed, schedule, cfg, cfg.ops, cfg.max_batch, |wl| {
        let k = keys[wl.below(cfg.keys) as usize].clone();
        match wl.below(10) {
            0..=2 => {
                client.invoke_strong(CacheOp::Put(k, fresh_items()));
            }
            3..=8 => {
                client.invoke(CacheOp::Get(k));
            }
            _ => {
                client.invoke_weak(CacheOp::Get(k));
            }
        }
    });

    // One fresh write per key: triggers the backups' gap detection (and
    // thus anti-entropy) and settles the cache revision, so the checked
    // tail reads compare three genuinely converged levels.
    for k in &keys {
        client.invoke_strong(CacheOp::Put(k.clone(), fresh_items()));
        s.settle();
        s.advance(ms(600));
    }
    let tail_mark = history.mark();
    for k in &keys {
        client.invoke(CacheOp::Get(k.clone()));
        s.settle();
    }

    report(&history, tail_mark, |invs| {
        let spec = KvStoreSpec {
            initial: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), (1, vec![i as u64])))
                .collect(),
        };
        // Cache-level closes are local peeks; a crashed put may have
        // landed.
        let entries = lin_entries(
            invs,
            |op| match op {
                CacheOp::Get(k) => KvsOp::Get(k.clone()),
                CacheOp::Put(k, items) => KvsOp::Put(k.clone(), items.clone()),
            },
            |v| v.as_ref().map(|i| (i.rev, i.items.to_vec())),
            |op| matches!(op, CacheOp::Put(..)),
        );
        lin_check(&spec, entries)
    })
}

// ---------------------------------------------------------------------
// Sharded quorum-store fleet
// ---------------------------------------------------------------------

/// Drives a fleet to quiescence.
fn settle_fleet(router: &ShardedBinding<QuorumBinding>, stores: &[SimStore]) {
    router.settle(|| {
        for s in stores {
            s.settle();
        }
    });
}

/// The one stack that is several deployments at once, so it drives its
/// own faulty phase: every step of the shared skeleton, per shard.
fn run_sharded(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
    shards: usize,
) -> (RunSummary, Vec<String>) {
    let rc = ReplicaConfig {
        op_timeout: ms(1_000),
        ..ReplicaConfig::default()
    };
    let stores: Vec<SimStore> = (0..shards)
        .map(|i| {
            SimStore::ec2(
                rc,
                2,
                false,
                "IRL",
                0,
                seed.wrapping_add(i as u64).wrapping_mul(WORKLOAD_SALT),
            )
        })
        .collect();
    // Faults apply to every shard: node/site ids are per-engine, and
    // each shard engine lays its nodes out identically.
    for s in &stores {
        assert_fault_targets(s.site_ids(), s.replica_ids());
        s.set_client_timeout(ms(cfg.client_timeout_ms));
        s.set_faults(schedule.clone());
    }
    let keys = cfg.keys * 2; // spread work across shards
    let bindings: Vec<QuorumBinding> = stores.iter().map(|s| s.binding()).collect();
    let router = ShardedBinding::inline(bindings, 32, seed);
    for k in 0..keys {
        let key = Key::plain(k);
        let idx = router.ring().owner_index(StoreOp::Read(key).object_id());
        stores[idx].preload([(key, Value::Opaque(store_init_value(k)))]);
    }

    // Each shard has its own clock, so the merged history is unstamped.
    let history: History<StoreOp, Versioned> = History::new();
    let client = Client::new(RecordingBinding::new(router.clone(), history.clone()));

    let mut wl = workload_rng(seed);
    let mut next_val: u32 = 10_000;
    let mut issued = 0usize;
    while issued < cfg.ops {
        let batch = 1 + wl.below(cfg.max_batch);
        for _ in 0..batch {
            let k = Key::plain(wl.below(keys));
            match wl.below(10) {
                0..=3 => {
                    let v = Value::Opaque(next_val);
                    next_val += 1;
                    client.invoke_strong(StoreOp::Write(k, v));
                }
                4..=8 => {
                    client.invoke(StoreOp::Read(k));
                }
                _ => {
                    client.invoke_weak(StoreOp::Read(k));
                }
            }
            issued += 1;
        }
        settle_fleet(&router, &stores);
        for s in &stores {
            s.advance(ms(wl.range(1, 120)));
        }
    }

    for s in &stores {
        s.set_faults(Faults::none());
        s.advance(ms(cfg.plan.horizon_ms + cfg.client_timeout_ms + 1_000));
    }
    for k in 0..keys {
        client.invoke_strong(StoreOp::Read(Key::plain(k)));
    }
    settle_fleet(&router, &stores);
    let tail_mark = history.mark();
    for k in 0..keys {
        client.invoke(StoreOp::Read(Key::plain(k)));
    }
    settle_fleet(&router, &stores);

    report(&history, tail_mark, |invs| {
        lin_check(&store_spec(keys), store_lin_entries(invs))
    })
}

// ---------------------------------------------------------------------
// Spec-generic four-level store
// ---------------------------------------------------------------------

fn update_consistency_violations<S>(store: &SimSpecStore<S>) -> Vec<String>
where
    S: SeqSpec + Clone + Send + 'static,
{
    check_update_consistency(&store.applied_logs())
        .into_iter()
        .map(|v| format!("update-consistency: {v}"))
        .collect()
}

/// One spec-store run over `spec`. Strong closes partake in the strong
/// order with the spec's own op type — no translation layer, the
/// binding *is* the spec. Crashed writes are maybe-applied; crashed
/// reads drop out. `issue` submits one workload operation on key `k`;
/// `read(k)` is the tail's read of key `k`.
fn run_spec<S>(
    spec: S,
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
    mut issue: impl FnMut(&Client<RecordingBinding<SpecBinding<S>>>, &mut DetRng, u64),
    read: fn(u64) -> S::Op,
    is_read: fn(&S::Op) -> bool,
) -> (RunSummary, Vec<String>)
where
    S: SeqSpec<Ret = u64> + Clone + Send + 'static,
{
    let store = SimSpecStore::ec2(spec.clone(), "IRL", seed);
    let history: History<S::Op, u64> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));

    faulty_phase(&store, seed, schedule, cfg, cfg.ops, cfg.max_batch, |wl| {
        let k = wl.below(cfg.keys);
        issue(&client, wl, k);
    });

    let tail_mark = history.mark();
    for k in 0..cfg.keys {
        client.invoke(read(k));
        store.settle();
    }
    // Let trailing acks and anti-entropy finish before sampling the
    // replicas' logs: update consistency promises convergence *at
    // quiescence*, not mid-gossip.
    store.advance(ms(2_000));

    report(&history, tail_mark, |invs| {
        let mut found = update_consistency_violations(&store);
        let entries = lin_entries(invs, S::Op::clone, |v| *v, |op| !is_read(op));
        let (checked, lin) = lin_check(&spec, entries);
        found.extend(lin);
        (checked, found)
    })
}

fn run_spec_register(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
) -> (RunSummary, Vec<String>) {
    let mut next: u64 = 10_000;
    run_spec(
        RegisterSpec::default(),
        seed,
        schedule,
        cfg,
        |client, wl, k| match wl.below(10) {
            0..=3 => {
                client.invoke(RegOp::Write(k, next));
                next += 1;
            }
            4..=8 => {
                client.invoke(RegOp::Read(k));
            }
            _ => {
                client.invoke_weak(RegOp::Read(k));
            }
        },
        RegOp::Read,
        |op| matches!(op, RegOp::Read(_)),
    )
}

fn run_spec_counter(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
) -> (RunSummary, Vec<String>) {
    run_spec(
        CounterSpec,
        seed,
        schedule,
        cfg,
        |client, wl, k| match wl.below(10) {
            0..=3 => {
                client.invoke(CtrOp::Add(k, 1 + wl.below(9)));
            }
            4..=8 => {
                client.invoke(CtrOp::Get(k));
            }
            _ => {
                client.invoke_weak(CtrOp::Get(k));
            }
        },
        CtrOp::Get,
        |op| matches!(op, CtrOp::Get(_)),
    )
}

// ---------------------------------------------------------------------
// CRDT store and escrow tickets
// ---------------------------------------------------------------------

/// SEC violations of the CRDT store, formatted for the report. Returns
/// the number of entries the checker inspected — replayed log entries
/// in op mode, compared states in state mode.
fn sec_violations(store: &SimCrdtStore, state_based: bool) -> (usize, Vec<String>) {
    // State-based gossip ships merged states, not effects, so the logs
    // hold only locally-originated entries — the visibility and replay
    // clauses don't apply, only state convergence does.
    let logs = if state_based {
        Vec::new()
    } else {
        store.sec_logs()
    };
    let states = store.states();
    let checked = if state_based {
        states.len()
    } else {
        logs.iter().map(Vec::len).sum()
    };
    let out = check_sec(&store.initial_state(), &logs, &states)
        .into_iter()
        .map(|v| format!("sec: {v}"))
        .collect();
    (checked, out)
}

fn run_crdt(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
    state_based: bool,
) -> (RunSummary, Vec<String>) {
    let store = if state_based {
        SimCrdtStore::ec2_state("IRL", seed)
    } else {
        SimCrdtStore::ec2("IRL", seed)
    };
    let history: History<CrdtOp, CrdtVal> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));

    faulty_phase(&store, seed, schedule, cfg, cfg.ops, cfg.max_batch, |wl| {
        let k = wl.below(cfg.keys);
        match wl.below(10) {
            0..=2 => {
                client.invoke(CrdtOp::CtrAdd(k, (1 + wl.below(9)) as i64));
            }
            3 => {
                client.invoke(CrdtOp::SetAdd(k, wl.below(8)));
            }
            4 => {
                client.invoke(CrdtOp::SetRemove(k, wl.below(8)));
            }
            5 => {
                client.invoke(CrdtOp::MapPut(k, wl.below(4), wl.below(1_000)));
            }
            6..=7 => {
                client.invoke(CrdtOp::CtrGet(k));
            }
            8 => {
                client.invoke_weak(CrdtOp::SetContains(k, wl.below(8)));
            }
            _ => {
                client.invoke_weak(CrdtOp::MapGet(k, wl.below(4)));
            }
        }
    });

    let tail_mark = history.mark();
    for k in 0..cfg.keys {
        client.invoke(CrdtOp::CtrGet(k));
        store.settle();
    }
    // Anti-entropy (or effect retransmission) must finish before the
    // SEC checker samples logs and states: SEC promises convergence at
    // quiescence, not mid-gossip.
    store.advance(ms(2_000));

    report(&history, tail_mark, |_| sec_violations(&store, state_based))
}

fn run_tickets_escrow(
    seed: u64,
    schedule: &Faults,
    cfg: &ExplorerConfig,
) -> (RunSummary, Vec<String>) {
    // Size the stock so the workload actually exhausts segments and
    // exercises the transfer path: roughly two buys per ticket, spread
    // unevenly so one segment runs dry early.
    let stock = (cfg.ops as u64) / 2;
    let a = stock / 2;
    let b = stock / 4;
    let store = SimEscrow::ec2(vec![a, b, stock - a - b], "IRL", seed, false);
    let history: History<EscrowOp, Sale> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));

    // Transfer rounds are heavier than quorum reads; cap the bursts.
    let max_batch = cfg.max_batch.min(3);
    faulty_phase(
        &store,
        seed,
        schedule,
        cfg,
        cfg.ops,
        max_batch,
        |wl| match wl.below(10) {
            0..=6 => {
                client.invoke(EscrowOp::Buy);
            }
            7..=8 => {
                client.invoke_weak(EscrowOp::Avail);
            }
            _ => {
                client.invoke_strong(EscrowOp::Avail);
            }
        },
    );

    let tail_mark = history.mark();
    // A weak Avail reads the *local segment* by design, so the quiescent
    // tail closes strong-only: the escrow convergence guarantee is over
    // the ledgers, which check_escrow inspects directly.
    client.invoke_strong(EscrowOp::Avail);
    store.settle();
    store.advance(ms(2_000));

    report(&history, tail_mark, |invs| {
        let states = store.states();
        let mut found: Vec<String> = check_escrow(&states)
            .into_iter()
            .map(|v| format!("escrow: {v}"))
            .collect();
        // Cross-check ledgers against the client's view: every sale the
        // client saw confirmed must be recorded in the merged ledger.
        let confirmed = invs
            .iter()
            .filter(|i| {
                matches!(i.op, EscrowOp::Buy)
                    && matches!(i.final_view(), Some((Sale::Confirmed { .. }, _)))
            })
            .count();
        if let Some(first) = states.first() {
            let mut merged = first.clone();
            for s in &states[1..] {
                merged.merge(s);
            }
            if (merged.total_sold() as usize) < confirmed {
                found.push(format!(
                    "escrow: client saw {confirmed} confirmed sales but the merged ledger \
                     records only {}",
                    merged.total_sold()
                ));
            }
        }
        // Strong closes (sales and global Avail reads) entered the
        // semantic check; the post-heal tail Avail guarantees at least
        // one even when a hostile schedule times out every workload buy.
        let strong_closed = invs
            .iter()
            .filter(|i| {
                i.final_view()
                    .is_some_and(|(_, level)| level.at_least(ConsistencyLevel::STRONG))
            })
            .count();
        (strong_closed, found)
    })
}

// ---------------------------------------------------------------------
// Negative fixtures
// ---------------------------------------------------------------------

/// The burst workload of the two fault-free negative fixtures: `ops`
/// submissions with a settle after about every fourth, so the
/// round-robin origins genuinely race, then quiescence.
fn racing_bursts<P: GatewayProto>(
    host: &SimHost<P>,
    seed: u64,
    cfg: &ExplorerConfig,
    mut issue: impl FnMut(u64, u64),
) {
    assert_fault_targets(host.site_ids(), host.replica_ids());
    let mut wl = workload_rng(seed);
    for i in 0..cfg.ops as u64 {
        issue(i, wl.below(cfg.keys));
        if wl.below(4) == 0 {
            host.settle();
        }
    }
    host.settle();
    host.advance(ms(5_000));
}

/// Like the other negative fixtures, the broken CRDT runs without
/// faults: concurrent bursts from round-robin origins already deliver
/// the overwrite "effects" in different orders at different replicas,
/// and the SEC checker must reject. Distinct deltas keep each origin's
/// shipped totals distinct, so the divergence shows in the values.
fn run_broken_crdt(seed: u64, cfg: &ExplorerConfig) -> (RunSummary, Vec<String>) {
    let store = SimCrdtStore::ec2_broken("IRL", seed);
    let history: History<CrdtOp, CrdtVal> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));
    racing_bursts(&store, seed, cfg, |i, k| {
        client.invoke_weak(CrdtOp::CtrAdd(k, 1 + i as i64));
    });
    report(&history, history.mark(), |_| sec_violations(&store, false))
}

/// The arrival-order fixture runs without faults: even on a clean
/// network, concurrent submissions reach the replicas in different
/// orders, so the per-replica linearizations diverge and the
/// update-consistency checker must reject. (Faults would only mask the
/// signal behind timeouts.)
fn run_buggy_spec(seed: u64, cfg: &ExplorerConfig) -> (RunSummary, Vec<String>) {
    let store = SimSpecStore::ec2_buggy(RegisterSpec::default(), "IRL", seed);
    let history: History<RegOp, u64> = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(
        store.update_binding(),
        history.clone(),
    ));
    racing_bursts(&store, seed, cfg, |i, k| {
        client.invoke(RegOp::Write(k, 10_000 + i));
    });
    report(&history, history.mark(), |_| {
        (0, update_consistency_violations(&store))
    })
}

fn run_buggy(seed: u64, cfg: &ExplorerConfig) -> (RunSummary, Vec<String>) {
    let history: History<CtrOp, u64> = History::new();
    let client = Client::new(RecordingBinding::new(LaggyMem::default(), history.clone()));
    let mut wl = workload_rng(seed);
    // One write per key up front so the stale shadow differs from the
    // fresh state by the time the tail reads run.
    for k in 0..cfg.keys {
        client.invoke_strong(CtrOp::Put(k, 1_000 + k));
    }
    for _ in 0..cfg.ops {
        let k = wl.below(cfg.keys);
        match wl.below(3) {
            0 => {
                client.invoke_strong(CtrOp::Add(k, 1 + wl.below(9)));
            }
            1 => {
                client.invoke_strong(CtrOp::Get(k));
            }
            _ => {
                client.invoke(CtrOp::Get(k));
            }
        }
    }
    let tail_mark = history.mark();
    for k in 0..cfg.keys {
        client.invoke(CtrOp::Get(k));
    }

    report(&history, tail_mark, |invs| {
        let entries = lin_entries(invs, CtrOp::clone, |v| *v, |_| false);
        lin_check(&CounterSpec, entries)
    })
}
