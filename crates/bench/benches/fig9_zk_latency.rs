//! Figure 9 — latency gaps between preliminary and final views for queue
//! enqueues in (Correctable) ZooKeeper.
//!
//! Setup (§6.2.2): ≤20-byte elements; client in IRL; four placements of
//! the contacted server and the leader:
//!
//! 1. follower FRK, leader IRL;
//! 2. leader IRL (client talks to the leader directly);
//! 3. follower IRL, leader VRG;
//! 4. leader VRG.
//!
//! Paper's shape: the preliminary latency equals the client↔server RTT
//! (2 ms / 20 ms / 83 ms depending on placement); the most striking gap is
//! configuration 3 (local follower, distant leader). The text also reports
//! the enqueue bandwidth growing from ~270 B/op (ZK) to ~400 B/op (CZK).
//!
//! The client is the Correctables library: one closed loop of
//! `invoke_strong(enqueue)` (ZK) or `invoke(enqueue)` (CZK) on a
//! `Client` over the queue binding, every latency read off the history
//! it recorded.

use std::sync::Arc;

use consensusq::{QueueBinding, QueueOp, ServerConfig, SimQueue};
use correctables::{Client, History, RecordingBinding};
use icg_apps::closings;
use icg_bench::{check_history, f1, f2, quick, Table};
use simnet::{Histogram, SimDuration};

struct Cfg {
    name: &'static str,
    connect: &'static str,
    leader: &'static str,
}

/// `left` enqueues one at a time: the next leaves when the last closed.
fn enqueue_in_turn(client: Arc<Client<RecordingBinding<QueueBinding>>>, icg: bool, left: u64) {
    if left == 0 {
        return;
    }
    let op = QueueOp::Enqueue { data_len: 20 };
    let c = if icg {
        client.invoke(op)
    } else {
        client.invoke_strong(op)
    };
    c.on_final(move |_| enqueue_in_turn(client, icg, left - 1));
}

fn run(cfg: &Cfg, icg: bool, ops: u64, seed: u64) -> (Option<(f64, f64)>, (f64, f64), f64) {
    let q = SimQueue::ec2(
        ServerConfig::default(),
        cfg.leader,
        "IRL",
        cfg.connect,
        seed,
    );
    let history = History::with_clock(q.clock());
    let recording = RecordingBinding::new(q.binding(), history.clone());
    enqueue_in_turn(Arc::new(Client::new(recording)), icg, ops);
    q.settle();

    let history = history.snapshot();
    check_history(&history, cfg.name);
    let whole_run = SimDuration::from_nanos(u64::MAX);
    let closed = closings(&history, SimDuration::ZERO, whole_run);
    assert_eq!(closed.views.len() as u64, ops, "all enqueues must complete");
    let (mut prelim, mut fin) = (Histogram::new(), Histogram::new());
    for c in &closed.views {
        fin.record(c.latency);
        if let Some((_, at)) = c.prelim {
            prelim.record(at);
        }
    }
    let avg_p99 = |h: &mut Histogram| (h.mean().as_millis_f64(), h.p99().as_millis_f64());
    let prelim = (!prelim.is_empty()).then(|| avg_p99(&mut prelim));
    let bytes = q.gateway_link_bytes();
    (prelim, avg_p99(&mut fin), bytes as f64 / ops as f64)
}

fn main() {
    let ops: u64 = if quick() { 100 } else { 500 };
    let configs = [
        Cfg {
            name: "follower FRK / leader IRL",
            connect: "FRK",
            leader: "IRL",
        },
        Cfg {
            name: "leader IRL",
            connect: "IRL",
            leader: "IRL",
        },
        Cfg {
            name: "follower IRL / leader VRG",
            connect: "IRL",
            leader: "VRG",
        },
        Cfg {
            name: "leader VRG",
            connect: "VRG",
            leader: "VRG",
        },
    ];
    let mut table = Table::new(
        "Figure 9: enqueue latency, CZK preliminary/final vs ZK (client IRL)",
        &[
            "configuration",
            "system",
            "view",
            "avg_ms",
            "p99_ms",
            "bytes_per_op",
        ],
    );
    for (i, cfg) in configs.iter().enumerate() {
        let (_, zk_fin, zk_bytes) = run(cfg, false, ops, 90 + i as u64);
        table.row(vec![
            cfg.name.into(),
            "ZK".into(),
            "final".into(),
            f2(zk_fin.0),
            f2(zk_fin.1),
            f1(zk_bytes),
        ]);
        let (czk_prelim, czk_fin, czk_bytes) = run(cfg, true, ops, 190 + i as u64);
        let (pa, pp) = czk_prelim.expect("CZK yields preliminaries");
        table.row(vec![
            cfg.name.into(),
            "CZK".into(),
            "preliminary".into(),
            f2(pa),
            f2(pp),
            "-".into(),
        ]);
        table.row(vec![
            cfg.name.into(),
            "CZK".into(),
            "final".into(),
            f2(czk_fin.0),
            f2(czk_fin.1),
            f1(czk_bytes),
        ]);
    }
    table.print();
    table.write_csv("fig9_zk_latency");
    println!(
        "\nExpected shape (paper): preliminary = client-server RTT (20 / 2 / 2 / 83 ms \
         across the four configs); biggest gap with a local follower and the \
         leader in VRG; enqueue cost ~270 B/op (ZK) vs ~400 B/op (CZK)."
    );
}
