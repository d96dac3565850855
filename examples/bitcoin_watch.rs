//! Blockchain confirmations as incremental views (§4.5 of the paper).
//!
//! A wallet submits a payment and receives six progressively stronger
//! views — one per confirmation depth — through a single `invoke`. This is
//! the paper's showcase for *many* preliminary views: finality takes tens
//! of virtual minutes, and users want a sense of progress throughout.
//!
//! Run with `cargo run --example bitcoin_watch`.

use icg::blockchain::{SimChain, TxStatus, FINAL_DEPTH};
use icg::correctables::{Client, History, HistoryEvent, RecordingBinding};
use icg::simnet::SimDuration;

fn main() {
    // Three mining regions, ~1 block per virtual minute overall.
    let chain = SimChain::ec2(SimDuration::from_secs(60), "IRL", 42);
    // The wallet's client records every view on the chain's virtual clock.
    let history = History::with_clock(chain.clock());
    let client = Client::new(RecordingBinding::new(chain.binding(), history.clone()));
    println!(
        "wallet levels: {:?}\n",
        client
            .consistency_levels()
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
    );

    println!("submitting payment tx#1001 ...");
    let payment = client.invoke(1001u64);
    payment.on_update(|view| {
        let TxStatus { confirmations, .. } = view.value;
        println!(
            "  [{}] {} confirmation{} — {}",
            view.level,
            confirmations,
            if confirmations == 1 { "" } else { "s" },
            match confirmations {
                1 => "in a block; could still be reorged away",
                2..=3 => "getting safer; small purchases OK",
                _ => "deep; large payments can rely on it soon",
            }
        );
    });
    payment.on_final(|view| {
        println!(
            "  [{}] {} confirmations — irreversible for all practical purposes",
            view.level, view.value.confirmations
        );
    });

    // Let the network mine for two virtual hours.
    chain.run_for(SimDuration::from_secs(2 * 3600));

    if let Some(payment) = history.snapshot().first() {
        println!("\nconfirmation timeline (virtual minutes after submission):");
        for e in &payment.events {
            if let HistoryEvent::View {
                at_nanos, value, ..
            } = e
            {
                let min = (at_nanos - payment.at_nanos) as f64 / 60e9;
                println!("  depth {}: {min:>6.1} min", value.confirmations);
            }
        }
    }
    println!(
        "\nchain height {} with {} reorgs along the way — views below conf-{FINAL_DEPTH} \
         are genuinely preliminary.",
        chain.height(),
        chain.total_reorgs()
    );
}
