//! One quorum core, two hosts, one history.
//!
//! `quorumstore::ReplicaCore` runs under the simulator (`SimStore`) and
//! behind real sockets (`icg-net`'s reactor). This test keeps the oracle
//! attached across that boundary: the same seeded, sequential script of
//! writes and ICG reads goes through both hosts under
//! [`RecordingBinding`], and the two recorded histories must agree op
//! for op on everything but time — which levels were delivered, with
//! which value, and which view closed — and each must pass the
//! monotonicity and convergence checkers.
//!
//! The script is sequential and every operation goes through one
//! coordinator, so nothing it observes depends on how fast background
//! replication is: the coordinator always holds the newest version.

use std::time::{Duration, Instant};

use icg::correctables::{
    Binding, Client, Correctable, History, HistoryEvent, Invocation, RecordingBinding,
};
use icg::net::{spawn_local_cluster, ServerConfig, TcpBinding, TcpConfig};
use icg::oracle::{check_convergence, check_monotonicity};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value, Versioned};
use icg::simnet::{DetRng, SimDuration};

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

/// An invocation without its clock: the operation, the levels asked
/// for, and every view as `level=value` (`!` marks the one that closed).
fn timeless(invocations: &[Invocation<StoreOp, Versioned>]) -> Vec<String> {
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
                    } => format!(
                        "{level}={:?}{}",
                        value.value,
                        if *closing { "!" } else { "" }
                    ),
                    HistoryEvent::Failed { error, .. } => format!("failed({error:?})"),
                })
                .collect();
            format!("{:?} {:?} -> {}", inv.op, inv.levels, events.join(", "))
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
    timeless(&snapshot)
}

fn served(confirm: bool, seed: u64) -> Vec<String> {
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
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
    // The recorder appends a closing view just after the waiter wakes.
    let deadline = Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let snapshot = history.snapshot();
        if snapshot.iter().all(|i| i.closing_event().is_some()) {
            break snapshot;
        }
        assert!(Instant::now() < deadline, "history never settled");
        std::thread::sleep(Duration::from_millis(5));
    };
    tcp.shutdown();
    for r in &replicas {
        r.shutdown();
    }
    check("tcp", &snapshot, mark);
    timeless(&snapshot)
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
