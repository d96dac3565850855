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

use icg::correctables::spec::{CounterSpec, CtrOp};
use icg::correctables::Client;
use icg::quorumstore::{
    Cluster, Key, Msg, OpId, ReplicaConfig, SystemConfig, Value, WorkloadClient,
};
use icg::simnet::{EuUsSites, Faults, Histogram, SimDuration, SimTime, SiteId, Topology};
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

fn build(seed: u64) -> (Cluster, EuUsSites) {
    let topo = Topology::ec2_frk_irl_vrg();
    let sites = EuUsSites::resolve(&topo);
    let mut cluster = Cluster::build(topo, &["FRK", "IRL", "VRG"], cfg_fast_timeout(), seed);
    cluster.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
    (cluster, sites)
}

#[test]
fn quorum_reads_fail_cleanly_when_peers_are_partitioned() {
    let (mut cluster, sites) = build(11);
    // FRK cannot reach either peer: R=2 reads cannot gather a quorum.
    let faults = Faults::none()
        .with_partition(sites.frk, sites.irl, at(0), at(10_000))
        .with_partition(sites.frk, sites.vrg, at(0), at(10_000));
    cluster.engine.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let client = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::baseline(2),
        &workload,
        2,
        7,
        at(0),
        at(8_000),
    );
    cluster.add_client(sites.frk, client);
    cluster.engine.run_until(at(8_000));
    let id = cluster.clients[0];
    let m = &cluster.engine.node_as::<WorkloadClient>(id).metrics;
    assert_eq!(m.reads, 0, "no quorum read may succeed under the partition");
    assert!(
        m.failed >= 2,
        "operations must fail by timeout, got {}",
        m.failed
    );
}

#[test]
fn weak_reads_survive_the_same_partition() {
    let (mut cluster, sites) = build(12);
    let faults = Faults::none()
        .with_partition(sites.frk, sites.irl, at(0), at(10_000))
        .with_partition(sites.frk, sites.vrg, at(0), at(10_000));
    cluster.engine.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let client = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::baseline(1),
        &workload,
        2,
        7,
        at(0),
        at(8_000),
    );
    cluster.add_client(sites.frk, client);
    cluster.engine.run_until(at(8_000));
    let id = cluster.clients[0];
    let m = &cluster.engine.node_as::<WorkloadClient>(id).metrics;
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
    let (mut cluster, sites) = build(13);
    let faults = Faults::none()
        .with_partition(sites.frk, sites.irl, at(0), at(2_000))
        .with_partition(sites.frk, sites.vrg, at(0), at(2_000));
    cluster.engine.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let client = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::correctable(2),
        &workload,
        2,
        7,
        at(2_500), // measure only after healing
        at(8_000),
    );
    cluster.add_client(sites.frk, client);
    cluster.engine.run_until(at(8_000));
    let id = cluster.clients[0];
    let m = &cluster.engine.node_as::<WorkloadClient>(id).metrics;
    assert!(
        m.reads > 50,
        "ICG reads must flow again after the partition heals, got {}",
        m.reads
    );
}

#[test]
fn replica_downtime_fails_quorums_but_not_weak_reads() {
    let (mut cluster, sites) = build(14);
    // Both non-coordinator replicas down for the whole run.
    let faults = Faults::none()
        .with_downtime(cluster.replicas[1], at(0), at(20_000))
        .with_downtime(cluster.replicas[2], at(0), at(20_000));
    cluster.engine.set_faults(faults);
    let workload = Workload::c(Distribution::Zipfian, 32);
    let strong = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::baseline(3),
        &workload,
        1,
        3,
        at(0),
        at(6_000),
    );
    cluster.add_client(sites.irl, strong);
    let weak = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::baseline(1),
        &workload,
        1,
        4,
        at(0),
        at(6_000),
    );
    cluster.add_client(sites.irl, weak);
    cluster.engine.run_until(at(6_000));
    let strong_id = cluster.clients[0];
    let weak_id = cluster.clients[1];
    let ms = cluster
        .engine
        .node_as::<WorkloadClient>(strong_id)
        .metrics
        .clone();
    let mw = &cluster.engine.node_as::<WorkloadClient>(weak_id).metrics;
    assert_eq!(ms.reads, 0);
    assert!(ms.failed > 0);
    assert!(mw.reads > 50);
}

#[test]
fn random_message_loss_degrades_throughput_but_not_correctness() {
    let (mut cluster, sites) = build(15);
    cluster
        .engine
        .set_faults(Faults::none().with_drop_probability(0.05));
    let workload = Workload::a(Distribution::Zipfian, 32);
    let client = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::correctable(2),
        &workload,
        4,
        9,
        at(0),
        at(10_000),
    );
    cluster.add_client(sites.irl, client);
    cluster.engine.run_until(at(12_000));
    let id = cluster.clients[0];
    let m = &cluster.engine.node_as::<WorkloadClient>(id).metrics;
    // Some operations time out, the rest complete; nothing hangs forever.
    assert!(
        m.completed() > 100,
        "progress despite loss, got {}",
        m.completed()
    );
    assert!(m.failed > 0, "5% loss must surface some timeouts");
    assert!(cluster.engine.dropped_messages() > 0);
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
    let mut cluster = Cluster::build(topo, &["FRK", "IRL", "VRG"], cfg, 16);
    cluster.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
    cluster
        .engine
        .set_faults(Faults::none().with_partition(frk, irl, at(0), at(4_000)));
    let workload = Workload::c(Distribution::Zipfian, 32);
    let client = WorkloadClient::new(
        cluster.replicas[0],
        SystemConfig::baseline(2),
        &workload,
        1,
        7,
        at(0),
        at(8_000),
    );
    let id = cluster.add_client(frk, client);

    // What one quorum read costs through a peer `rtt` away: the client's
    // intra-site round trip, the coordinator's and the peer's CPU, and
    // the peer round trip.
    let via = |rtt: u64| ms(2) + cfg.read_service + ms(rtt) + cfg.peer_read_service;
    // Runs to `until_ms` and hands back the read latencies of the phase.
    let phase = |cluster: &mut Cluster, until_ms: u64| -> Histogram {
        cluster.engine.run_until(at(until_ms));
        let m = &mut cluster.engine.node_as::<WorkloadClient>(id).metrics;
        assert_eq!(m.failed, 0, "no read may fail while VRG answers");
        std::mem::take(&mut m.final_latency)
    };

    // Under the cut. The first read asks IRL, hears nothing for a
    // quarter of `op_timeout`, and completes through VRG; IRL is a
    // suspect from then on, so no later read waits for a hedge again —
    // a second hedged read would not fit into the closed loop's 4 s.
    let hedged = via(90) + cfg.op_timeout / 4;
    let cut = phase(&mut cluster, 4_000);
    assert_eq!((cut.min(), cut.max()), (via(90), hedged));
    let direct = (ms(4_000) - hedged).as_nanos() / via(90).as_nanos();
    assert_eq!(cut.count() as u64, 1 + direct);

    // Healed — but nothing makes IRL speak to FRK in a read-only run, so
    // it stays at the back of the order and reads keep going the long
    // way round. Slower than necessary, never wrong.
    let healed = phase(&mut cluster, 6_000);
    assert_eq!((healed.min(), healed.max()), (via(90), via(90)));

    // One write coordinated by IRL: its `PeerWrite` is a message from
    // IRL, FRK has heard from it, and IRL is first choice again.
    let write = Msg::ClientWrite {
        op: OpId {
            client: id,
            seq: u64::MAX - 1,
        },
        key: Key::plain(0),
        value: Value::Opaque(7),
        w: 1,
    };
    let irl_replica = cluster.replicas[1];
    cluster
        .engine
        .schedule_message(id, irl_replica, SimDuration::ZERO, write);
    // Let the write land and the read in flight finish before measuring.
    phase(&mut cluster, 6_200);
    let back = phase(&mut cluster, 8_000);
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
    let (frk, vrg) = (SiteId(0), SiteId(2));
    store.set_faults(Faults::none().with_partition(frk, vrg, at(0), at(1_000)));
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
