//! Figure 10 — bandwidth per dequeue: ZooKeeper's recipe vs CZK.
//!
//! Setup (§6.2.2): queues of 500 and 1000 tickets drained by 1–12
//! contending clients. The vanilla recipe reads the *whole* child list
//! before each delete attempt, so its per-op cost grows with queue length
//! and contention; CZK reads only the constant-size head, making the cost
//! independent of queue length (it still grows with contention, which
//! costs retries).
//!
//! Both recipes are application code (`icg_apps::tickets`) on the
//! Correctables client, run by the same closed retailer loop as
//! Figure 12's; retries are counted in the histories the clients
//! recorded, bytes on their links.

use consensusq::{QueueOp, ServerConfig, SimQueue};
use icg_apps::{open_retailers, purchase_by_recipe, sell_out, Recipe};
use icg_bench::{check_history, f2, quick, Table};
use simnet::SimDuration;

/// kB per dequeue, dequeues, lost deletion races.
fn run(recipe: Recipe, queue_len: u64, clients: usize, seed: u64) -> (f64, u64, u64) {
    // Leader in IRL; retailers colocated with the FRK follower (§6.3.2).
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "FRK", "FRK", seed);
    q.prefill(queue_len, 20);
    let retailers = open_retailers(&q, "FRK", clients, SimDuration::ZERO, |_, client| {
        move || purchase_by_recipe(&client, recipe)
    });
    sell_out(&retailers);
    // Let the last commit reach every server.
    q.advance(SimDuration::from_secs(1));

    let (mut bytes, mut ops, mut retries) = (0, 0, 0);
    for r in &retailers {
        let history = r.history().snapshot();
        check_history(&history, format_args!("{recipe:?}"));
        bytes += r.queue().gateway_link_bytes();
        ops += r.receipts().len() as u64;
        retries += history
            .iter()
            .filter(|inv| matches!(inv.op, QueueOp::Remove { .. }))
            .filter(|inv| inv.final_view().is_some_and(|(v, _)| v.name.is_none()))
            .count() as u64;
    }
    // The queue must be fully drained exactly once.
    assert_eq!(ops, queue_len, "drained {ops} of {queue_len}");
    assert_eq!(q.lengths(), [0, 0, 0]);
    (bytes as f64 / ops as f64 / 1000.0, ops, retries)
}

fn main() {
    let client_counts: Vec<usize> = if quick() {
        vec![1, 4, 12]
    } else {
        vec![1, 2, 4, 6, 8, 12]
    };
    let mut table = Table::new(
        "Figure 10: dequeue bandwidth (kB/op), ZK vs CZK, 500 and 1000 tickets",
        &[
            "queue_len",
            "clients",
            "ZK_kB_op",
            "CZK_kB_op",
            "saving",
            "ZK_retries",
            "CZK_retries",
        ],
    );
    let mut czk_by_clients = Vec::new();
    for queue_len in [500u64, 1000] {
        for (i, clients) in client_counts.iter().enumerate() {
            let (zk, _, zk_r) = run(Recipe::Zk, queue_len, *clients, 300 + i as u64);
            let (czk, _, czk_r) = run(Recipe::Czk, queue_len, *clients, 400 + i as u64);
            // The paper's claim: the head read makes CZK cheaper in
            // every row, and (below) its cost independent of the
            // queue's length.
            assert!(czk < zk, "CZK {czk} kB/op vs ZK {zk} at {clients} clients");
            czk_by_clients.push(czk);
            table.row(vec![
                queue_len.to_string(),
                clients.to_string(),
                f2(zk),
                f2(czk),
                format!("{:.0}%", (1.0 - czk / zk) * 100.0),
                zk_r.to_string(),
                czk_r.to_string(),
            ]);
        }
    }
    table.print();
    table.write_csv("fig10_zk_dequeue_bw");
    let (short, long) = czk_by_clients.split_at(client_counts.len());
    for ((s, l), clients) in short.iter().zip(long).zip(&client_counts) {
        let same = (s / l - 1.0).abs() < 0.01;
        assert!(
            same,
            "CZK kB/op at {clients} clients: {s} (500) vs {l} (1000)"
        );
    }
    println!(
        "\nExpected shape (paper): ZK cost grows with queue length AND contention \
         (whole-queue reads, ~8-14 kB/op); CZK cost is independent of queue \
         length (constant-size head reads), saving 44-81%."
    );
}
