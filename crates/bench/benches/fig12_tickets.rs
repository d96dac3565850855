//! Figure 12 — selling tickets with ZK vs CZK.
//!
//! Setup (§6.3.2): a fixed stock of 500 tickets, four retailers colocated
//! with the FRK follower, leader in IRL. CZK retailers confirm purchases
//! on the preliminary (locally simulated) dequeue while more than 20
//! tickets remain, then switch to waiting for the final (atomic) view.
//!
//! Paper's shape: purchase latency is low and flat until the last 20
//! tickets, which pay the full strong-consistency latency; on average only
//! the last ~2 tickets (max 6) are "revoked" (the final view popped a
//! different element than predicted).
//!
//! The CZK retailers run the paper's own listing,
//! `TicketOffice::purchase_ticket`; the ZK ones the vanilla dequeue
//! recipe; both under the same closed retailer loop
//! (`icg_apps::tickets`). Latencies are the loop's receipts; what the
//! atomic dequeues behind the fast path turned out to be is audited from
//! the histories the retailers' clients recorded.

use std::sync::Arc;

use consensusq::{ServerConfig, SimQueue};
use correctables::Correctable;
use icg_apps::tickets::RecordingClient;
use icg_apps::{
    audit_sales, open_retailers, purchase_by_recipe, sell_out, Purchase, Receipt, Recipe,
    SaleAudit, TicketOffice,
};
use icg_bench::{check_history, f2, quick, Table};
use simnet::SimDuration;

/// Pause between customers at one retailer: purchases pipeline behind the
/// atomic dequeue (the paper's fast path "completes in the background"),
/// bounding how many confirmations can be in flight near sell-out.
const THINK: SimDuration = SimDuration::from_millis(15);

/// Stock level below which a CZK purchase waits for the final view.
const THRESHOLD: u64 = 20;

/// Sells `stock` tickets through four retailers colocated with the FRK
/// follower (leader in IRL). Returns the receipts in global selling
/// order and the audit of the dequeues behind them.
fn run<P>(
    stock: u64,
    seed: u64,
    seller: impl Fn(&SimQueue, Arc<RecordingClient>) -> P,
) -> (Vec<Receipt>, SaleAudit)
where
    P: Fn() -> Correctable<Purchase> + Send + Sync + 'static,
{
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "FRK", "FRK", seed);
    q.prefill(stock, 20);
    let retailers = open_retailers(&q, "FRK", 4, THINK, seller);
    sell_out(&retailers);

    let histories: Vec<_> = retailers.iter().map(|r| r.history().snapshot()).collect();
    for history in &histories {
        check_history(history, "retailer");
    }
    let mut all: Vec<Receipt> = retailers.iter().flat_map(|r| r.receipts()).collect();
    all.sort_by_key(|r| r.confirmed_at);
    (all, audit_sales(histories.iter().flatten(), THRESHOLD))
}

fn mean_latency(receipts: &[Receipt]) -> f64 {
    if receipts.is_empty() {
        return 0.0;
    }
    receipts
        .iter()
        .map(|r| r.latency.as_millis_f64())
        .sum::<f64>()
        / receipts.len() as f64
}

fn main() {
    let stock: u64 = if quick() { 200 } else { 500 };
    let threshold = THRESHOLD as usize;
    let runs: u64 = if quick() { 2 } else { 5 };

    let mut table = Table::new(
        "Figure 12: ticket purchase latency (500 tickets, 4 retailers)",
        &[
            "system",
            "phase",
            "tickets",
            "avg_latency_ms",
            "prelim_confirmed",
            "revoked",
            "prediction_changed",
        ],
    );

    let mut series: Vec<(u64, f64, f64)> = Vec::new(); // (ticket#, czk, zk)
    for run_idx in 0..runs {
        let (czk, audit) = run(stock, 500 + run_idx, |q, client| {
            let mut office = TicketOffice::with_client(q.clone(), client);
            office.threshold = THRESHOLD;
            move || office.purchase_ticket()
        });
        let (zk, _) = run(stock, 600 + run_idx, |_, client| {
            move || purchase_by_recipe(&client, Recipe::Zk)
        });
        // Every ticket is sold exactly once, whichever system sells it.
        assert_eq!(audit.tickets.len() as u64, stock, "CZK run {run_idx}");
        assert_eq!(zk.len() as u64, stock, "ZK run {run_idx}");
        let sold = czk.len() - audit.revoked as usize;
        let (early, late) = czk.split_at(sold.saturating_sub(threshold));
        let via_prelim = |rs: &[Receipt]| rs.iter().filter(|r| r.via_prelim).count();
        table.row(vec![
            "CZK".into(),
            format!("run{} first {}", run_idx, early.len()),
            early.len().to_string(),
            f2(mean_latency(early)),
            via_prelim(early).to_string(),
            audit.revoked.to_string(),
            audit.prediction_changed.to_string(),
        ]);
        table.row(vec![
            "CZK".into(),
            format!("run{} last {}", run_idx, late.len()),
            late.len().to_string(),
            f2(mean_latency(late)),
            via_prelim(late).to_string(),
            "-".into(),
            "-".into(),
        ]);
        table.row(vec![
            "ZK".into(),
            format!("run{} all", run_idx),
            zk.len().to_string(),
            f2(mean_latency(&zk)),
            "0".into(),
            "0".into(),
            "-".into(),
        ]);
        // The paper's shape: the fast path is an order of magnitude
        // below ZK, only the last tickets pay for atomicity, and at most
        // a handful of confirmations are taken back.
        let (first, last, zk_mean) = (mean_latency(early), mean_latency(late), mean_latency(&zk));
        assert!(
            first < 0.1 * zk_mean,
            "CZK first {first} ms vs ZK {zk_mean} ms"
        );
        assert!(last > first, "CZK last {last} ms vs first {first} ms");
        assert!(audit.revoked <= 6, "{} purchases revoked", audit.revoked);
        if run_idx == 0 {
            for (i, r) in czk.iter().enumerate() {
                let z = zk.get(i).map_or(0.0, |r| r.latency.as_millis_f64());
                series.push((i as u64 + 1, r.latency.as_millis_f64(), z));
            }
        }
    }
    table.print();
    table.write_csv("fig12_tickets_summary");

    // The per-ticket series of the figure itself.
    let mut series_table = Table::new(
        "Figure 12 series: per-ticket purchase latency (run 0)",
        &["ticket", "CZK_ms", "ZK_ms"],
    );
    for (t, c, z) in &series {
        series_table.row(vec![t.to_string(), f2(*c), f2(*z)]);
    }
    series_table.write_csv("fig12_tickets_series");
    println!(
        "\nExpected shape (paper): CZK latency low (~prelim RTT) until the last \
         {threshold} tickets, which pay strong-consistency latency like ZK; \
         only ~2 tickets (max 6) revoked on average."
    );
}
