//! The ticket-selling system (§4.3, Listing 5; evaluated in §6.3.2).
//!
//! Tickets are a replicated queue: organizers enqueue, retailers dequeue.
//! Tickets carry no seating, so *which* element is dequeued is irrelevant —
//! the preliminary view (a local simulation of the dequeue) is safe to act
//! on while the stock is comfortably above a threshold; only the last few
//! tickets pay for atomic (final) semantics, avoiding overselling.
//!
//! [`EscrowOffice`] is the segmented-invariant-confluence variant: the
//! stock is split into per-replica escrow segments, each replica sells
//! from its own segment coordination-free (the weak view *is* the
//! confirmation), and only segment exhaustion pays a strong transfer
//! round. Where [`TicketOffice`] thresholds on a global stock estimate,
//! the escrow split makes the fast path *provably* safe: a segment's
//! owner is the only writer of its `sold` row, so a local sale can
//! never violate the global no-oversell invariant.
//!
//! The paper's two baselines are here too, because a ZooKeeper *recipe*
//! is what it is in ZooKeeper: client-side composition of API calls.
//! [`purchase_by_recipe`] buys a ticket the vanilla way ([`Recipe::Zk`]:
//! list the whole queue, race to delete the head) or the way CZK's
//! constant-size head read allows ([`Recipe::Czk`]), and returns the same
//! `Correctable<Purchase>` as [`TicketOffice::purchase_ticket`] — so one
//! closed retailer loop, [`Retailer`], serves all three systems of
//! Figures 10 and 12, and what each cost is read off the history its
//! client recorded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use consensusq::{QueueBinding, QueueOp, QueueView, SimQueue};
use correctables::{Binding, Client, Correctable, History, Invocation, RecordingBinding};
use icg_crdt::{EscrowBinding, EscrowOp, Sale, SimEscrow};
use parking_lot::Mutex;
use simnet::{SimDuration, SimTime};

use crate::driver::closings;

/// The outcome of one purchase attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Purchase {
    /// A ticket was secured.
    Confirmed {
        /// Whether the preliminary view confirmed it (fast path).
        via_prelim: bool,
        /// The ticket's queue element, when known.
        ticket: Option<String>,
    },
    /// No tickets left.
    SoldOut,
}

/// What sells tickets is written against any client of the queue, so a
/// harness can hand it one that records what it sees.
pub trait QueueApi: Binding<Op = QueueOp, Val = QueueView> + Send + Sync + 'static {}

impl<B: Binding<Op = QueueOp, Val = QueueView> + Send + Sync + 'static> QueueApi for B {}

/// The retailer-side application.
pub struct TicketOffice<B: QueueApi = QueueBinding> {
    queue: SimQueue,
    client: Arc<Client<B>>,
    /// Stock level below which purchases wait for the final view.
    pub threshold: u64,
}

impl TicketOffice {
    /// Opens an office over a queue, with the paper's threshold of 20.
    pub fn new(queue: SimQueue) -> Self {
        let client = Arc::new(Client::new(queue.binding()));
        TicketOffice::with_client(queue, client)
    }
}

/// Listing 5's test: plenty of tickets left, buy on the preliminary.
fn plenty_left(weak: &QueueView, threshold: u64) -> bool {
    weak.name.is_some() && weak.remaining > threshold
}

impl<B: QueueApi> TicketOffice<B> {
    /// [`TicketOffice::new`], selling through `client` — one of
    /// `queue`'s.
    pub fn with_client(queue: SimQueue, client: Arc<Client<B>>) -> Self {
        TicketOffice {
            queue,
            client,
            threshold: 20,
        }
    }

    /// The underlying queue (for `settle` and timings).
    pub fn queue(&self) -> &SimQueue {
        &self.queue
    }

    /// Listing 5's `purchaseTicket`, verbatim in Correctables form:
    /// confirm on the preliminary when the stock is high, otherwise wait
    /// for the final (atomic) dequeue.
    pub fn purchase_ticket(&self) -> Correctable<Purchase> {
        let (out, handle) = Correctable::<Purchase>::pending();
        let done = Arc::new(AtomicBool::new(false));
        let threshold = self.threshold;
        let c = self.client.invoke(QueueOp::Dequeue);
        let h_u = handle.clone();
        let done_u = Arc::clone(&done);
        c.on_update(move |weak| {
            // `onUpdate`: many tickets left — buy on the preliminary.
            if plenty_left(&weak.value, threshold) {
                done_u.store(true, Ordering::Relaxed);
                let _ = h_u.close(
                    Purchase::Confirmed {
                        via_prelim: true,
                        ticket: weak.value.name.clone(),
                    },
                    weak.level,
                );
            }
        });
        let h_f = handle.clone();
        let done_f = done;
        c.on_final(move |strong| {
            // `onFinal`: if not already confirmed, the atomic result
            // decides — a ticket, or "Sold out. Sorry!".
            if !done_f.load(Ordering::Relaxed) {
                let outcome = match &strong.value.name {
                    Some(name) => Purchase::Confirmed {
                        via_prelim: false,
                        ticket: Some(name.clone()),
                    },
                    None => Purchase::SoldOut,
                };
                let _ = h_f.close(outcome, strong.level);
            }
        });
        let h_e = handle;
        c.on_error(move |e| {
            let _ = h_e.fail(e.clone());
        });
        out
    }
}

/// The two client-driven dequeue recipes the paper measures CZK's
/// atomic dequeue against (§6.2.2). Both read, then race to delete what
/// they read; they differ in what they read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipe {
    /// Vanilla ZooKeeper: `getChildren` — the whole queue, a reply that
    /// grows with it — then try to delete the candidates in order from
    /// the cached list; list again when it is exhausted.
    Zk,
    /// CZK: a constant-size peek at the head, then delete it; peek
    /// again on a lost race.
    Czk,
}

impl Recipe {
    fn read(self) -> QueueOp {
        match self {
            Recipe::Zk => QueueOp::List,
            Recipe::Czk => QueueOp::Dequeue,
        }
    }

    fn candidates(self, seen: &QueueView) -> VecDeque<String> {
        match self {
            Recipe::Zk => seen.children.iter().cloned().collect(),
            Recipe::Czk => seen.name.iter().cloned().collect(),
        }
    }
}

/// Buys one ticket by `recipe`: a weak read, then strong removals until
/// one of them is ours. Never confirms early — there is no preliminary
/// to confirm on — and sells out on an empty read.
pub fn purchase_by_recipe<B: QueueApi>(
    client: &Arc<Client<B>>,
    recipe: Recipe,
) -> Correctable<Purchase> {
    let client = Arc::clone(client);
    client.invoke_weak(recipe.read()).then(move |seen| {
        let candidates = recipe.candidates(&seen.value);
        if candidates.is_empty() {
            return Correctable::ready_at(Purchase::SoldOut, seen.level);
        }
        remove_first(client, recipe, candidates)
    })
}

fn remove_first<B: QueueApi>(
    client: Arc<Client<B>>,
    recipe: Recipe,
    mut candidates: VecDeque<String>,
) -> Correctable<Purchase> {
    let Some(name) = candidates.pop_front() else {
        return purchase_by_recipe(&client, recipe);
    };
    let removal = client.invoke_strong(QueueOp::Remove { name });
    removal.then(move |removed| match &removed.value.name {
        Some(ticket) => Correctable::ready_at(
            Purchase::Confirmed {
                via_prelim: false,
                ticket: Some(ticket.clone()),
            },
            removed.level,
        ),
        // Lost the race; try the next cached candidate.
        None => remove_first(client, recipe, candidates),
    })
}

/// One confirmed sale, as the customer saw it.
#[derive(Clone, Copy, Debug)]
pub struct Receipt {
    /// When the purchase was confirmed, on the retailer's clock.
    pub confirmed_at: SimTime,
    /// From the customer asking to the confirmation.
    pub latency: SimDuration,
    /// Whether the preliminary view confirmed it (fast path).
    pub via_prelim: bool,
}

/// A retailer's queue client, recording what it is shown.
pub type RecordingClient = Client<RecordingBinding<QueueBinding>>;

struct Shop {
    queue: SimQueue,
    think: SimDuration,
    purchase: Box<dyn Fn() -> Correctable<Purchase> + Send + Sync>,
    receipts: Mutex<Vec<Receipt>>,
    sold_out: AtomicBool,
}

/// One retailer: a closed loop of customers on one client of the queue.
/// A customer's purchase is confirmed (a [`Receipt`]), the retailer
/// thinks, the next customer is served — until a purchase comes back
/// `SoldOut`. Pipelining and gating are the purchase's business, not the
/// loop's: a [`TicketOffice`] purchase closes on the preliminary while
/// the stock is high, so the next customer is served while the atomic
/// dequeue completes in the background, and stays open until the final
/// view when it is low.
pub struct Retailer {
    shop: Arc<Shop>,
    history: History<QueueOp, QueueView>,
}

impl Retailer {
    /// Opens on `queue`'s client and takes the first customer's order,
    /// which enters the network at that client's next kick
    /// ([`sell_out`]). `seller` is handed the retailer's recording
    /// client and says how one purchase is made with it.
    pub fn open<P>(
        queue: SimQueue,
        think: SimDuration,
        seller: impl FnOnce(&SimQueue, Arc<RecordingClient>) -> P,
    ) -> Retailer
    where
        P: Fn() -> Correctable<Purchase> + Send + Sync + 'static,
    {
        // Records and receipts are stamped by *this* client's clock: a
        // gateway's clock moves only when that gateway runs.
        let history = History::with_clock(queue.clock());
        let recording = RecordingBinding::new(queue.binding(), history.clone());
        let purchase = seller(&queue, Arc::new(Client::new(recording)));
        let shop = Arc::new(Shop {
            queue,
            think,
            purchase: Box::new(purchase),
            receipts: Mutex::default(),
            sold_out: AtomicBool::new(false),
        });
        Shop::serve(Arc::clone(&shop));
        Retailer { shop, history }
    }

    /// The retailer's client of the queue.
    pub fn queue(&self) -> &SimQueue {
        &self.shop.queue
    }

    /// What the retailer's client recorded, stamped by its clock.
    pub fn history(&self) -> &History<QueueOp, QueueView> {
        &self.history
    }

    /// The confirmed sales so far, in confirmation order.
    pub fn receipts(&self) -> Vec<Receipt> {
        self.shop.receipts.lock().clone()
    }

    /// Whether a customer has been told "sold out" (the loop stopped).
    pub fn sold_out(&self) -> bool {
        self.shop.sold_out.load(Ordering::Relaxed)
    }
}

impl Shop {
    fn serve(self: Arc<Self>) {
        let clock = self.queue.clock();
        let asked_at = clock.load(Ordering::Relaxed);
        (self.purchase)().on_final(move |outcome| {
            let Purchase::Confirmed { via_prelim, .. } = outcome.value else {
                self.sold_out.store(true, Ordering::Relaxed);
                return;
            };
            let now = clock.load(Ordering::Relaxed);
            self.receipts.lock().push(Receipt {
                confirmed_at: SimTime::from_nanos(now),
                latency: SimDuration::from_nanos(now - asked_at),
                via_prelim,
            });
            if self.think == SimDuration::ZERO {
                self.serve();
            } else {
                let (queue, think) = (self.queue.clone(), self.think);
                queue.after(think, move || self.serve());
            }
        });
    }
}

/// Opens `n` retailers colocated with the server at `site`: the first
/// on `queue`'s own client, the others on clients added to its
/// deployment, in order.
pub fn open_retailers<P>(
    queue: &SimQueue,
    site: &str,
    n: usize,
    think: SimDuration,
    seller: impl Fn(&SimQueue, Arc<RecordingClient>) -> P,
) -> Vec<Retailer>
where
    P: Fn() -> Correctable<Purchase> + Send + Sync + 'static,
{
    (0..n)
        .map(|i| {
            let client = match i {
                0 => queue.clone(),
                _ => queue.client_at(site, site),
            };
            Retailer::open(client, think, &seller)
        })
        .collect()
}

/// Runs a sale to its end: every retailer's first customer enters the
/// network at this instant, in order, and the simulation is driven until
/// every retailer has seen the sell-out and its last atomic dequeue has
/// closed.
///
/// # Panics
///
/// Panics if a retailer stops serving without having sold out (a
/// purchase failed).
pub fn sell_out(retailers: &[Retailer]) {
    for r in retailers {
        r.queue().step(SimDuration::ZERO);
    }
    // `settle` is per client, and a thinking retailer counts as work.
    for r in retailers {
        r.queue().settle();
        assert!(r.sold_out(), "a retailer stopped before the sell-out");
    }
}

/// What the atomic dequeues behind a [`TicketOffice`]'s sales turned out
/// to be (Figure 12's audit), read off its clients' histories.
#[derive(Clone, Debug, Default)]
pub struct SaleAudit {
    /// The elements the dequeues popped: the tickets really sold.
    pub tickets: Vec<String>,
    /// Fast-path confirmations the atomic dequeue took back: the `WEAK`
    /// view passed the threshold test, the `STRONG` view found the queue
    /// empty. These must be compensated.
    pub revoked: u64,
    /// Sales whose `STRONG` view popped another element than the `WEAK`
    /// view predicted (harmless for unordered tickets; counted for
    /// observability).
    pub prediction_changed: u64,
}

/// Audits the closed `invoke(dequeue)`s of `history` against the
/// `threshold` their office confirmed early above.
pub fn audit_sales<'a>(
    history: impl IntoIterator<Item = &'a Invocation<QueueOp, QueueView>>,
    threshold: u64,
) -> SaleAudit {
    let mut audit = SaleAudit::default();
    let whole_run = SimDuration::from_nanos(u64::MAX);
    for c in closings(history, SimDuration::ZERO, whole_run).views {
        let (QueueOp::Dequeue, Some((weak, _))) = (&c.inv.op, c.prelim) else {
            continue;
        };
        let confirmed_early = plenty_left(weak, threshold);
        match &c.last.name {
            Some(ticket) => audit.tickets.push(ticket.clone()),
            None if confirmed_early => audit.revoked += 1,
            // A gated purchase that came back "sold out": no sale.
            None => continue,
        }
        if weak.name != c.last.name {
            audit.prediction_changed += 1;
        }
    }
    audit
}

/// The escrow-segmented retailer: sells from the local replica's
/// segment without coordination, falling back to the strong transfer
/// path only when the segment runs dry.
pub struct EscrowOffice {
    store: SimEscrow,
    client: Arc<Client<EscrowBinding>>,
}

impl EscrowOffice {
    /// Opens an office over an escrow store.
    pub fn new(store: SimEscrow) -> Self {
        let client = Arc::new(Client::new(store.binding()));
        EscrowOffice { store, client }
    }

    /// The underlying store (for `settle` and timings).
    pub fn store(&self) -> &SimEscrow {
        &self.store
    }

    /// Buys one ticket. A sale the local segment covers confirms on the
    /// *weak* view — unlike Listing 5's threshold heuristic, the escrow
    /// split guarantees the preliminary can never be rolled back. A
    /// sale the segment cannot cover waits for the final view of the
    /// transfer round: another segment's surplus, or `SoldOut`.
    pub fn purchase_ticket(&self) -> Correctable<Purchase> {
        let (out, handle) = Correctable::<Purchase>::pending();
        let done = Arc::new(AtomicBool::new(false));
        let c = self.client.invoke(EscrowOp::Buy);
        let h_u = handle.clone();
        let done_u = Arc::clone(&done);
        c.on_update(move |weak| {
            // The weak view only ever reports a *fast* sale, and a fast
            // sale is already durable in the local segment: confirm.
            if let Sale::Confirmed { fast: true } = weak.value {
                done_u.store(true, Ordering::Relaxed);
                let _ = h_u.close(
                    Purchase::Confirmed {
                        via_prelim: true,
                        ticket: None,
                    },
                    weak.level,
                );
            }
        });
        let h_f = handle.clone();
        let done_f = done;
        c.on_final(move |strong| {
            if !done_f.load(Ordering::Relaxed) {
                let outcome = match strong.value {
                    Sale::Confirmed { .. } => Purchase::Confirmed {
                        via_prelim: false,
                        ticket: None,
                    },
                    // Buys never answer with a stock count; treat a
                    // miswired reply as a failed sale.
                    Sale::SoldOut | Sale::Stock(_) => Purchase::SoldOut,
                };
                let _ = h_f.close(outcome, strong.level);
            }
        });
        let h_e = handle;
        c.on_error(move |e| {
            let _ = h_e.fail(e.clone());
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensusq::ServerConfig;

    fn office(stock: u64) -> TicketOffice {
        let q = SimQueue::ec2(ServerConfig::default(), "IRL", "FRK", "FRK", 13);
        q.prefill(stock, 20);
        TicketOffice::new(q)
    }

    #[test]
    fn high_stock_confirms_on_preliminary() {
        let office = office(100);
        let p = office.purchase_ticket();
        office.queue().settle();
        match p.final_view().unwrap().value {
            Purchase::Confirmed { via_prelim, ticket } => {
                assert!(via_prelim, "stock of 100 must use the fast path");
                assert!(ticket.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The fast path closes at the weak level.
        assert_eq!(
            p.final_view().unwrap().level,
            correctables::ConsistencyLevel::WEAK
        );
    }

    #[test]
    fn low_stock_waits_for_final_atomic_view() {
        let office = office(5);
        let p = office.purchase_ticket();
        office.queue().settle();
        match p.final_view().unwrap().value {
            Purchase::Confirmed { via_prelim, ticket } => {
                assert!(!via_prelim, "stock of 5 must wait for the final");
                assert!(ticket.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            p.final_view().unwrap().level,
            correctables::ConsistencyLevel::STRONG
        );
    }

    #[test]
    fn empty_queue_sells_out() {
        let office = office(0);
        let p = office.purchase_ticket();
        office.queue().settle();
        assert_eq!(p.final_view().unwrap().value, Purchase::SoldOut);
    }

    #[test]
    fn draining_the_stock_never_oversells() {
        let office = office(30);
        let mut confirmed = 0;
        let mut sold_out = false;
        for _ in 0..35 {
            let p = office.purchase_ticket();
            office.queue().settle();
            match p.final_view().unwrap().value {
                Purchase::Confirmed { .. } => confirmed += 1,
                Purchase::SoldOut => {
                    sold_out = true;
                    break;
                }
            }
        }
        assert_eq!(confirmed, 30, "exactly the stock is sold");
        assert!(sold_out);
    }

    /// The paper's sale (§6.3.2): leader in IRL, `stock` tickets, four
    /// retailers colocated with the FRK follower, no think time.
    fn sale<P>(
        stock: u64,
        seed: u64,
        seller: impl Fn(&SimQueue, Arc<RecordingClient>) -> P,
    ) -> (SimQueue, Vec<Retailer>)
    where
        P: Fn() -> Correctable<Purchase> + Send + Sync + 'static,
    {
        let q = SimQueue::ec2(ServerConfig::default(), "IRL", "FRK", "FRK", seed);
        q.prefill(stock, 20);
        let retailers = open_retailers(&q, "FRK", 4, SimDuration::ZERO, seller);
        sell_out(&retailers);
        // Every retailer has its answers; let the last commit reach VRG.
        q.advance(SimDuration::from_millis(500));
        (q, retailers)
    }

    fn office_with(threshold: u64) -> impl Fn(&SimQueue, Arc<RecordingClient>) -> BoxedSeller {
        move |q, client| {
            let mut office = TicketOffice::with_client(q.clone(), client);
            office.threshold = threshold;
            Box::new(move || office.purchase_ticket())
        }
    }

    type BoxedSeller = Box<dyn Fn() -> Correctable<Purchase> + Send + Sync>;

    fn audit(retailers: &[Retailer], threshold: u64) -> SaleAudit {
        let merged: Vec<_> = retailers
            .iter()
            .flat_map(|r| r.history().snapshot())
            .collect();
        audit_sales(&merged, threshold)
    }

    #[test]
    fn zk_recipe_drains_queue_under_contention_without_loss() {
        let (q, retailers) = sale(50, 6, |_, client| {
            move || purchase_by_recipe(&client, Recipe::Zk)
        });
        let total: usize = retailers.iter().map(|r| r.receipts().len()).sum();
        assert_eq!(total, 50, "every element dequeued exactly once");
        assert_eq!(q.lengths(), [0, 0, 0]);
        // All four retailers observed the sell-out.
        assert!(retailers.iter().all(Retailer::sold_out));
    }

    #[test]
    fn czk_atomic_never_oversells_and_uses_prelim_when_stock_high() {
        let (q, retailers) = sale(60, 7, office_with(20));
        let receipts: Vec<Receipt> = retailers.iter().flat_map(Retailer::receipts).collect();
        let early = receipts.iter().filter(|r| r.via_prelim).count();
        let (total, revoked) = (receipts.len() as u64, audit(&retailers, 20).revoked);
        // Revoked purchases are not sales; everything else must be backed
        // by a unique element.
        assert_eq!(total - revoked, 60, "sold {total}, revoked {revoked}");
        assert!(early > 20, "prelim confirmations: {early}");
        assert_eq!(q.lengths(), [0, 0, 0]);
    }

    #[test]
    fn a_confirmation_the_atomic_dequeue_takes_back_is_counted_and_nothing_oversells() {
        // Threshold 0 and no think time: every retailer keeps confirming
        // on a follower state that is several commits behind.
        let (q, retailers) = sale(30, 8, office_with(0));
        let confirmed: usize = retailers.iter().map(|r| r.receipts().len()).sum();
        let audit = audit(&retailers, 0);
        assert!(audit.revoked > 0, "no fast-path confirmation was revoked");
        assert_eq!(confirmed as u64 - audit.revoked, 30);
        // Exactly once: thirty tickets popped, every one a different one.
        let distinct: std::collections::BTreeSet<&String> = audit.tickets.iter().collect();
        assert_eq!((audit.tickets.len(), distinct.len()), (30, 30));
        assert_eq!(q.lengths(), [0, 0, 0]);
    }

    #[test]
    fn czk_recipe_peeks_where_the_zk_recipe_lists() {
        for (recipe, lists) in [(Recipe::Zk, true), (Recipe::Czk, false)] {
            let (q, retailers) = sale(12, 9, move |_, client| {
                move || purchase_by_recipe(&client, recipe)
            });
            let total: usize = retailers.iter().map(|r| r.receipts().len()).sum();
            assert_eq!((total, q.lengths()), (12, vec![0, 0, 0]), "{recipe:?}");
            let history: Vec<_> = retailers
                .iter()
                .flat_map(|r| r.history().snapshot())
                .collect();
            let reads = history
                .iter()
                .filter(|i| !matches!(i.op, QueueOp::Remove { .. }));
            for read in reads {
                assert_eq!(matches!(read.op, QueueOp::List), lists, "{recipe:?}");
            }
        }
    }

    fn escrow_office(allocs: Vec<u64>, seed: u64) -> EscrowOffice {
        EscrowOffice::new(SimEscrow::ec2(allocs, "FRK", seed, false))
    }

    #[test]
    fn escrow_covered_sale_confirms_on_the_preliminary() {
        let office = escrow_office(vec![4, 4, 4], 5);
        let p = office.purchase_ticket();
        office.store().settle();
        match p.final_view().unwrap().value {
            Purchase::Confirmed { via_prelim, .. } => {
                assert!(via_prelim, "a covered sale must use the fast path");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            p.final_view().unwrap().level,
            correctables::ConsistencyLevel::WEAK
        );
    }

    #[test]
    fn escrow_exhausted_segment_waits_for_a_transfer() {
        // The client's origin owns nothing: every sale pulls a grant.
        let store = SimEscrow::ec2(vec![0, 5, 5], "FRK", 9, false);
        store.set_local_origin(true);
        let office = EscrowOffice::new(store);
        let p = office.purchase_ticket();
        office.store().settle();
        match p.final_view().unwrap().value {
            Purchase::Confirmed { via_prelim, .. } => {
                assert!(!via_prelim, "an uncovered sale must pay the transfer round");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            p.final_view().unwrap().level,
            correctables::ConsistencyLevel::STRONG
        );
    }

    #[test]
    fn escrow_draining_the_stock_never_oversells() {
        let office = escrow_office(vec![2, 2, 2], 13);
        let mut confirmed = 0;
        let mut sold_out = 0;
        for _ in 0..9 {
            let p = office.purchase_ticket();
            office.store().settle();
            match p.final_view().unwrap().value {
                Purchase::Confirmed { .. } => confirmed += 1,
                Purchase::SoldOut => sold_out += 1,
            }
        }
        assert_eq!(confirmed, 6, "exactly the stock is sold");
        assert_eq!(sold_out, 3);
    }
}
