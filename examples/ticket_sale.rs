//! The ticket-selling case study (Listing 5, §4.3/§6.3.2).
//!
//! Sells a small stock of tickets through `invoke(dequeue)` on the
//! replicated queue: purchases confirm on the fast preliminary while the
//! stock is above the threshold, and wait for the atomic final view for
//! the last few tickets. No overselling, ever.
//!
//! Run with `cargo run --example ticket_sale`.

use std::sync::Arc;

use icg::apps::{Purchase, TicketOffice};
use icg::consensusq::{ServerConfig, SimQueue};
use icg::correctables::{Client, History, HistoryEvent, RecordingBinding};

fn main() {
    // Servers in FRK/IRL/VRG, leader in IRL; the retail client sits in
    // FRK next to its follower — the paper's §6.3.2 placement.
    let queue = SimQueue::ec2(ServerConfig::default(), "IRL", "FRK", "FRK", 99);
    let stock = 40;
    queue.prefill(stock, 20);
    // The office's client records every view on the queue's virtual clock.
    let history = History::with_clock(queue.clock());
    let client = Client::new(RecordingBinding::new(queue.binding(), history.clone()));
    let office = TicketOffice::with_client(queue, Arc::new(client));

    println!(
        "selling {stock} tickets (threshold {}):\n",
        office.threshold
    );
    let mut fast = 0;
    let mut slow = 0;
    for n in 1.. {
        // The purchase's dequeue leaves at this instant: `settle` kicks
        // the client before virtual time moves.
        let t0 = office.queue().now();
        let p = office.purchase_ticket();
        office.queue().settle();
        let dequeue = history.snapshot().pop().expect("the purchase's dequeue");
        match p.final_view().expect("purchase resolves").value {
            Purchase::Confirmed { via_prelim, ticket } => {
                // When the view that decided arrived: the preliminary on
                // the fast path, the final one otherwise.
                let decided_at = dequeue.events.iter().find_map(|e| match e {
                    HistoryEvent::View {
                        at_nanos, closing, ..
                    } if *closing != via_prelim => Some(*at_nanos),
                    _ => None,
                });
                let ms = decided_at.map_or(0.0, |at| (at - t0.as_nanos()) as f64 / 1e6);
                let path = if via_prelim {
                    "fast path (preliminary)"
                } else {
                    "atomic path (final)"
                };
                if via_prelim {
                    fast += 1;
                } else {
                    slow += 1;
                }
                println!(
                    "purchase #{n:>2}: {} in {ms:>6.2} virtual ms  [{}]",
                    ticket.unwrap_or_default(),
                    path
                );
            }
            Purchase::SoldOut => {
                println!("purchase #{n:>2}: Sold out. Sorry!");
                break;
            }
        }
    }
    println!("\n{fast} purchases took the fast path, {slow} waited for atomic dequeues.");
    assert_eq!(
        fast + slow,
        stock as usize,
        "every ticket sold exactly once"
    );
}
