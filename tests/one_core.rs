//! One core, two hosts, one history — for each of the two stores whose
//! protocol is a sans-IO core.
//!
//! `quorumstore::ReplicaCore` and `specstore::SpecCore` run under the
//! simulator (`SimStore`, `SimSpecStore`) and behind real sockets
//! (`icg-net`'s reactor). These tests keep the oracle attached across
//! that boundary: the same seeded, sequential script goes through both
//! hosts under [`RecordingBinding`], and the two recorded histories must
//! agree op for op on everything but time — which levels were
//! delivered, with which value, and which view closed — and each must
//! pass the oracle's checkers.
//!
//! Both scripts are sequential, so nothing they observe depends on how
//! fast replication is. The quorum script goes through one coordinator,
//! which always holds the newest version. The spec script alternates
//! between two of the three replicas, but invokes every operation at
//! all four levels and waits for it to close: a closed strong view means
//! every replica has delivered the update, so the next origin starts
//! from the same log.

use std::time::{Duration, Instant};

use icg::correctables::spec::{CounterSpec, CtrOp};
use icg::correctables::{
    Binding, Client, Correctable, History, HistoryEvent, Invocation, RecordingBinding,
};
use icg::net::{
    spawn_local_cluster, ReplicaHandle, ServerConfig, SpecOp, SpecTcpConfig, TcpBinding, TcpConfig,
    TcpSpecBinding,
};
use icg::oracle::{check_convergence, check_monotonicity};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value, Versioned};
use icg::simnet::{DetRng, SimDuration};
use icg::specstore::SimSpecStore;

const OPS: u64 = 200;
const KEYS: u64 = 6;

/// How an operation is invoked.
#[derive(Clone, Copy)]
enum How {
    Weak,
    Strong,
    Icg,
}

/// The script: writes and ICG reads over a few keys that start out
/// unwritten, with the odd weak-only and strong-only read.
fn script(seed: u64) -> Vec<(StoreOp, How)> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..OPS)
        .map(|i| {
            let key = Key::plain(rng.below(KEYS));
            match rng.below(10) {
                0..=2 => (
                    StoreOp::Write(key, Value::Opaque(1_000 + i as u32)),
                    How::Strong,
                ),
                3..=7 => (StoreOp::Read(key), How::Icg),
                8 => (StoreOp::Read(key), How::Strong),
                _ => (StoreOp::Read(key), How::Weak),
            }
        })
        .collect()
}

/// Runs the script and a quiescent tail of ICG reads, one operation at
/// a time: `close` returns once the operation it is handed has closed,
/// `quiesce` once background replication has had time to land. Returns
/// where the tail starts.
fn drive<B>(
    client: &Client<RecordingBinding<B>>,
    history: &History<StoreOp, Versioned>,
    seed: u64,
    close: impl Fn(Correctable<Versioned>),
    quiesce: impl Fn(),
) -> u64
where
    B: Binding<Op = StoreOp, Val = Versioned>,
{
    for (op, how) in script(seed) {
        close(match how {
            How::Weak => client.invoke_weak(op),
            How::Strong => client.invoke_strong(op),
            How::Icg => client.invoke(op),
        });
    }
    quiesce();
    let mark = history.mark();
    for k in 0..KEYS {
        close(client.invoke(StoreOp::Read(Key::plain(k))));
    }
    mark
}

/// An invocation without its clock: the operation (as `op` shows it),
/// the levels asked for, and every view as `level=value` (as `val`
/// shows it; `!` marks the one that closed).
fn timeless<Op, T>(
    invocations: &[Invocation<Op, T>],
    op: impl Fn(&Op) -> String,
    val: impl Fn(&T) -> String,
) -> Vec<String> {
    invocations
        .iter()
        .map(|inv| {
            let events: Vec<String> = inv
                .events
                .iter()
                .map(|e| match e {
                    HistoryEvent::View {
                        level,
                        value,
                        closing,
                        ..
                    } => format!("{level}={}{}", val(value), if *closing { "!" } else { "" }),
                    HistoryEvent::Failed { error, .. } => format!("failed({error:?})"),
                })
                .collect();
            format!("{} {:?} -> {}", op(&inv.op), inv.levels, events.join(", "))
        })
        .collect()
}

fn check(host: &str, invocations: &[Invocation<StoreOp, Versioned>], mark: u64) {
    assert_eq!(invocations.len() as u64, OPS + KEYS, "{host}");
    let mono = check_monotonicity(invocations, true);
    assert!(mono.is_empty(), "{host}: monotonicity violations: {mono:?}");
    let conv = check_convergence(invocations, mark);
    assert!(conv.is_empty(), "{host}: convergence violations: {conv:?}");
}

fn simulated(confirm: bool, seed: u64) -> Vec<String> {
    let store = SimStore::ec2(ReplicaConfig::default(), 2, confirm, "IRL", 0, seed);
    let history = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));
    let mark = drive(
        &client,
        &history,
        seed,
        |_| store.settle(),
        || store.advance(SimDuration::from_millis(300)),
    );
    let snapshot = history.snapshot();
    check("simnet", &snapshot, mark);
    timeless(
        &snapshot,
        |op| format!("{op:?}"),
        |v| format!("{:?}", v.value),
    )
}

fn cluster() -> Vec<ReplicaHandle> {
    spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    })
}

/// The history once every invocation in it has its closing event: the
/// recorder appends a closing view just after the waiter wakes.
fn settled<Op: Clone, T: Clone>(history: &History<Op, T>) -> Vec<Invocation<Op, T>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snapshot = history.snapshot();
        if snapshot.iter().all(|i| i.closing_event().is_some()) {
            return snapshot;
        }
        assert!(Instant::now() < deadline, "history never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn served(confirm: bool, seed: u64) -> Vec<String> {
    let replicas = cluster();
    let mut cfg = TcpConfig::new(replicas.iter().map(|r| r.addr()).collect(), 1_000);
    cfg.confirm = confirm;
    let tcp = TcpBinding::connect(cfg).expect("connect");
    let history = History::new();
    let client = Client::new(RecordingBinding::new(tcp.clone(), history.clone()));
    let mark = drive(
        &client,
        &history,
        seed,
        |c| drop(c.wait_final(Duration::from_secs(5)).expect("op closes")),
        || std::thread::sleep(Duration::from_millis(150)),
    );
    let snapshot = settled(&history);
    tcp.shutdown();
    for r in &replicas {
        r.shutdown();
    }
    check("tcp", &snapshot, mark);
    timeless(
        &snapshot,
        |op| format!("{op:?}"),
        |v| format!("{:?}", v.value),
    )
}

#[test]
fn simulated_and_served_histories_agree_op_for_op() {
    for confirm in [false, true] {
        let (sim, tcp) = (simulated(confirm, 17), served(confirm, 17));
        for (i, (s, t)) in sim.iter().zip(&tcp).enumerate() {
            assert_eq!(s, t, "confirm={confirm}: op {i} differs (simnet vs tcp)");
        }
        assert_eq!(sim.len(), tcp.len());
    }
}

const SPEC_OPS: u64 = 150;
/// The replicas the spec script submits to, in turn: FRK and IRL. Not
/// VRG — its two peers are equally far away, so their acks reach it
/// within a few milliseconds of each other, and the causal and strong
/// views they release can overtake one another on a simulated link (the
/// late one is then dropped by the gateway), which no TCP connection
/// does.
const SPEC_ORIGINS: usize = 2;

/// The spec script: adds and gets over a few counters.
fn spec_script(seed: u64) -> Vec<CtrOp> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..SPEC_OPS)
        .map(|_| {
            let key = rng.below(4);
            match rng.below(2) {
                0 => CtrOp::Add(key, 1 + rng.below(9)),
                _ => CtrOp::Get(key),
            }
        })
        .collect()
}

fn spec_check<Op: std::fmt::Debug>(host: &str, invocations: &[Invocation<Op, u64>]) {
    assert_eq!(invocations.len() as u64, SPEC_OPS, "{host}");
    let mono = check_monotonicity(invocations, true);
    assert!(mono.is_empty(), "{host}: monotonicity violations: {mono:?}");
}

fn spec_simulated(seed: u64) -> Vec<String> {
    let store = SimSpecStore::ec2(CounterSpec, "IRL", seed);
    let history = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));
    for (i, op) in spec_script(seed).into_iter().enumerate() {
        store.with_proto(|gateway| gateway.pinned = Some(i % SPEC_ORIGINS));
        client.invoke(op);
        store.settle();
    }
    let snapshot = history.snapshot();
    spec_check("simnet", &snapshot);
    timeless(&snapshot, |op| format!("{op:?}"), u64::to_string)
}

fn spec_served(seed: u64) -> Vec<String> {
    let replicas = cluster();
    let history = History::new();
    let bindings: Vec<TcpSpecBinding> = (0..SPEC_ORIGINS)
        .map(|i| {
            TcpSpecBinding::connect(SpecTcpConfig::new(replicas[i].addr(), 100 + i as u64))
                .expect("connect")
        })
        .collect();
    let clients: Vec<_> = bindings
        .iter()
        .map(|b| Client::new(RecordingBinding::new(b.clone(), history.clone())))
        .collect();
    for (i, op) in spec_script(seed).into_iter().enumerate() {
        let c = clients[i % SPEC_ORIGINS].invoke(SpecOp::Ctr(op));
        c.wait_final(Duration::from_secs(5)).expect("op closes");
    }
    let snapshot = settled(&history);
    for b in &bindings {
        b.shutdown();
    }
    for r in &replicas {
        r.shutdown();
    }
    spec_check("tcp", &snapshot);
    let op = |op: &SpecOp| match op {
        SpecOp::Ctr(op) => format!("{op:?}"),
        other => format!("{other:?}"),
    };
    timeless(&snapshot, op, u64::to_string)
}

#[test]
fn simulated_and_served_spec_histories_agree_op_for_op() {
    let (sim, tcp) = (spec_simulated(17), spec_served(17));
    for (i, (s, t)) in sim.iter().zip(&tcp).enumerate() {
        assert_eq!(s, t, "op {i} differs (simnet vs tcp)");
    }
    assert_eq!(sim.len(), tcp.len());
}
