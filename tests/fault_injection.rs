//! Failure-mode integration tests: partitions, downtime, and message loss
//! against the quorum store, and a partition against the spec store
//! (the paper evaluates fault-free, but a credible substrate must
//! degrade cleanly).
//!
//! Flakiness audit: every duration here is **virtual** (`SimTime` /
//! `SimDuration` on the deterministic engine) — no wall-clock sleeps or
//! timeouts, so host scheduling cannot change outcomes. Randomized
//! fault coverage beyond these fixed scenarios lives in
//! `tests/oracle_fleet.rs`.

use icg::apps::{start_ycsb_users, view_stats, ViewStats};
use icg::correctables::spec::{CounterSpec, CtrOp};
use icg::correctables::{Client, ConsistencyLevel, History, LevelSelection};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value, Versioned};
use icg::simnet::{Faults, Histogram, SimDuration, SimTime, SiteId, Topology};
use icg::specstore::SimSpecStore;
use icg::ycsb::{Distribution, Workload};

fn cfg_fast_timeout() -> ReplicaConfig {
    ReplicaConfig {
        op_timeout: SimDuration::from_millis(500),
        ..ReplicaConfig::default()
    }
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The sites of the paper's deployment, in the order its topology
/// lists them.
const FRK: SiteId = SiteId(0);
const IRL: SiteId = SiteId(1);
const VRG: SiteId = SiteId(2);

/// The paper's deployment with read quorum `r_strong`, its first client
/// at `client_site` coordinated by FRK.
fn build(r_strong: u8, client_site: &str, seed: u64) -> SimStore {
    let store = SimStore::ec2(cfg_fast_timeout(), r_strong, false, client_site, 0, seed);
    store.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
    store
}

fn weak() -> LevelSelection {
    LevelSelection::only(&[ConsistencyLevel::WEAK])
}

fn strong() -> LevelSelection {
    LevelSelection::only(&[ConsistencyLevel::STRONG])
}

type StoreHistory = History<StoreOp, Versioned>;

/// Starts `users` closed-loop YCSB users on `store`'s client, which
/// gives up on an operation after 2 s, and returns what they see.
fn start_users(
    store: &SimStore,
    workload: &Workload,
    levels: LevelSelection,
    users: u32,
    seed: u64,
) -> StoreHistory {
    store.set_client_timeout(SimDuration::from_secs(2));
    start_ycsb_users(store, workload, &levels, users, seed)
}

fn run_until(store: &SimStore, ms: u64) {
    store.advance(at(ms) - store.now());
}

/// What `history` shows for the operations closed in `[from, until)` ms.
fn stats(history: &StoreHistory, from_ms: u64, until_ms: u64) -> ViewStats {
    let ms = SimDuration::from_millis;
    view_stats(&history.snapshot(), ms(from_ms), ms(until_ms))
}

#[test]
fn quorum_reads_fail_cleanly_when_peers_are_partitioned() {
    let store = build(2, "FRK", 11);
    // FRK cannot reach either peer: R=2 reads cannot gather a quorum.
    let faults = Faults::none()
        .with_partition(FRK, IRL, at(0), at(10_000))
        .with_partition(FRK, VRG, at(0), at(10_000));
    store.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let history = start_users(&store, &workload, strong(), 2, 7);
    run_until(&store, 8_000);
    let m = stats(&history, 0, 8_000);
    assert_eq!(m.reads, 0, "no quorum read may succeed under the partition");
    assert!(
        m.failed >= 2,
        "operations must fail by timeout, got {}",
        m.failed
    );
}

#[test]
fn weak_reads_survive_the_same_partition() {
    let store = build(2, "FRK", 12);
    let faults = Faults::none()
        .with_partition(FRK, IRL, at(0), at(10_000))
        .with_partition(FRK, VRG, at(0), at(10_000));
    store.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let history = start_users(&store, &workload, weak(), 2, 7);
    run_until(&store, 8_000);
    let m = stats(&history, 0, 8_000);
    // R=1 reads only involve the coordinator: availability under partition
    // is exactly the weak-consistency selling point.
    assert!(
        m.reads > 100,
        "weak reads should keep flowing, got {}",
        m.reads
    );
    assert_eq!(m.failed, 0);
}

#[test]
fn operations_recover_after_partition_heals() {
    let store = build(2, "FRK", 13);
    let faults = Faults::none()
        .with_partition(FRK, IRL, at(0), at(2_000))
        .with_partition(FRK, VRG, at(0), at(2_000));
    store.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let history = start_users(&store, &workload, LevelSelection::All, 2, 7);
    run_until(&store, 8_000);
    // Measure only after healing.
    let m = stats(&history, 2_500, 8_000);
    assert!(
        m.reads > 50,
        "ICG reads must flow again after the partition heals, got {}",
        m.reads
    );
}

#[test]
fn replica_downtime_fails_quorums_but_not_weak_reads() {
    let strong_client = build(3, "IRL", 14);
    // Both non-coordinator replicas down for the whole run.
    let replicas = strong_client.replica_ids();
    let faults = Faults::none()
        .with_downtime(replicas[1], at(0), at(20_000))
        .with_downtime(replicas[2], at(0), at(20_000));
    strong_client.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let weak_client = strong_client.client_at("IRL", 0);
    let strong_history = start_users(&strong_client, &workload, strong(), 1, 3);
    let weak_history = start_users(&weak_client, &workload, weak(), 1, 4);
    run_until(&strong_client, 6_000);
    let ms = stats(&strong_history, 0, 6_000);
    let mw = stats(&weak_history, 0, 6_000);
    assert_eq!(ms.reads, 0);
    assert!(ms.failed > 0);
    assert!(mw.reads > 50);
}

#[test]
fn random_message_loss_degrades_throughput_but_not_correctness() {
    let store = build(2, "IRL", 15);
    store.set_faults(Faults::none().with_drop_probability(0.05));
    let workload = Workload::a(Distribution::Zipfian, 32);
    let history = start_users(&store, &workload, LevelSelection::All, 4, 9);
    run_until(&store, 12_000);
    let m = stats(&history, 0, 10_000);
    // Some operations time out, the rest complete; nothing hangs forever.
    assert!(
        m.completed() > 100,
        "progress despite loss, got {}",
        m.completed()
    );
    assert!(m.failed > 0, "5% loss must surface some timeouts");
    assert!(store.with_engine(|e| e.dropped_messages()) > 0);
}

/// The widening rule in virtual time — the deterministic twin of
/// `icg-net`'s `tarpit_peer_delays_one_read_by_the_hedge_and_fails_none`.
/// FRK coordinates and is cut from IRL, its nearest peer, for the first
/// 4 s. On a jitter-free copy of the EC2 topology, with one closed-loop
/// reader at FRK, every latency is exact.
#[test]
fn coordinator_cut_from_its_nearest_peer_reads_through_the_other() {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new(0.0, 0.0);
    let frk = topo.add_site("FRK", ms(2));
    let irl = topo.add_site("IRL", ms(2));
    let vrg = topo.add_site("VRG", ms(2));
    topo.set_rtt(frk, irl, ms(20));
    topo.set_rtt(irl, vrg, ms(83));
    topo.set_rtt(frk, vrg, ms(90));
    let cfg = cfg_fast_timeout();
    let store = SimStore::custom(topo, &["FRK", "IRL", "VRG"], cfg, 2, false, "FRK", 0, 16);
    store.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
    store.set_faults(Faults::none().with_partition(frk, irl, at(0), at(4_000)));
    let workload = Workload::c(Distribution::Zipfian, 32);
    let history = start_users(&store, &workload, strong(), 1, 7);

    // What one quorum read costs through a peer `rtt` away: the client's
    // intra-site round trip, the coordinator's and the peer's CPU, and
    // the peer round trip.
    let via = |rtt: u64| ms(2) + cfg.read_service + ms(rtt) + cfg.peer_read_service;
    // Runs to `until_ms` and hands back the latencies of the reads
    // closed since `from_ms`, where the previous phase ended.
    let phase = |from_ms: u64, until_ms: u64| -> Histogram {
        run_until(&store, until_ms);
        let m = stats(&history, from_ms, until_ms);
        assert_eq!(m.failed, 0, "no read may fail while VRG answers");
        m.final_latency
    };

    // Under the cut. The first read asks IRL, hears nothing for a
    // quarter of `op_timeout`, and completes through VRG; IRL is a
    // suspect from then on, so no later read waits for a hedge again —
    // a second hedged read would not fit into the closed loop's 4 s.
    let hedged = via(90) + cfg.op_timeout / 4;
    let cut = phase(0, 4_000);
    assert_eq!((cut.min(), cut.max()), (via(90), hedged));
    let direct = (ms(4_000) - hedged).as_nanos() / via(90).as_nanos();
    assert_eq!(cut.count() as u64, 1 + direct);

    // Healed — but nothing makes IRL speak to FRK in a read-only run, so
    // it stays at the back of the order and reads keep going the long
    // way round. Slower than necessary, never wrong.
    let healed = phase(4_000, 6_000);
    assert_eq!((healed.min(), healed.max()), (via(90), via(90)));

    // One write coordinated by IRL, from a second client: its
    // `PeerWrite` is a message from IRL, FRK has heard from it, and IRL
    // is first choice again.
    let writer = store.client_at("FRK", 1);
    let write = StoreOp::Write(Key::plain(0), Value::Opaque(7));
    let _ack = Client::new(writer.binding()).invoke_weak(write);
    writer.step(SimDuration::ZERO);
    // Let the write land and the read in flight finish before measuring.
    phase(6_000, 6_200);
    let back = phase(6_200, 8_000);
    assert_eq!((back.min(), back.max()), (via(20), via(20)));
}

/// The spec core's retransmission rule at exact virtual times. simnet
/// reports no link events, so nothing tells FRK that its link to VRG is
/// back: the update it gossiped into the cut reaches VRG because FRK
/// gossips it again every 200 ms for as long as VRG has not
/// acknowledged it — and stops once it has.
#[test]
fn spec_update_lost_in_a_cut_is_regossiped_on_silence() {
    let store = SimSpecStore::ec2(CounterSpec, "FRK", 23);
    store.set_faults(Faults::none().with_partition(FRK, VRG, at(0), at(1_000)));
    let run_until = |ms: u64| store.advance(at(ms) - store.now());

    // The gateway's first submission goes to replica 0, in FRK. Nothing
    // follows it: no later traffic can carry the update across.
    let add = Client::new(store.binding()).invoke_weak(CtrOp::Add(1, 5));
    store.settle();
    assert_eq!(add.final_view().map(|v| v.value), Some(5));

    // Just before the heal IRL has the update and VRG does not: the
    // first gossip and the retransmissions at 200, 400, 600 and 800 ms
    // all went into the cut.
    run_until(999);
    let logs = store.applied_logs();
    assert_eq!((logs[0].len(), logs[1].len(), logs[2].len()), (1, 1, 0));
    assert_eq!(store.fully_acked(), [false, true, true]);

    // The retransmission due just after 1 000 ms gets through: one
    // FRK→VRG one-way (~42 ms) later VRG has the update, another one
    // later FRK has its ack.
    run_until(1_250);
    let logs = store.applied_logs();
    assert_eq!(logs[2], logs[0], "VRG caught up by 1.25 s");
    assert_eq!(store.fully_acked(), [true; 3]);

    // And the deadline, fired once more with nothing left to send, has
    // disarmed: the engine is idle.
    assert_eq!(store.with_engine(|e| e.run_until_idle(16)), 0);
}
