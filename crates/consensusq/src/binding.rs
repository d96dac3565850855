//! The Correctables binding for replicated queues (the paper's "CZK
//! binding", §5.2).
//!
//! Levels:
//!
//! - `Weak` — the result of *simulating* the operation on the connected
//!   server's local state (§4.3: "a weakly consistent result of an
//!   operation \[is\] the outcome of simulating that operation on the local
//!   state of a single replica");
//! - `Strong` — the result after Zab coordination (atomic semantics).
//!
//! `invoke(dequeue)` therefore yields the quick local prediction followed
//! by the atomically popped element — exactly what Listing 5's ticket
//! seller consumes. As with the quorum-store binding, `submit` enqueues
//! work and [`SimHost::settle`] drives the simulation; nested submissions
//! from callbacks are picked up at the correct virtual instant.
//!
//! Beside the queue's two operations the binding carries the two
//! ZooKeeper API calls a client-side dequeue *recipe* is composed of:
//! [`QueueOp::List`] (`getChildren`, a local read — `Weak` only) and
//! [`QueueOp::Remove`] (`delete`, through Zab). The recipes themselves
//! are application code (`icg_apps::tickets`).

use std::fmt;
use std::ops::Deref;

use correctables::{ConsistencyLevel, Error, Upcall};
use simnet::{
    Ctx, Engine, GatewayProto, NodeId, PendingOps, SimBinding, SimHost, Submission, Topology,
};

use crate::messages::Msg;
use crate::server::{Server, ServerConfig};
use crate::tree::join_path;
use crate::types::{seq_of, OpId, ReadCmd, ReadResult, Txn, TxnResult};

/// The one queue every client of a deployment works on.
const QUEUE: &str = "/q";
const PREFIX: &str = "qn-";

/// Queue operations accepted by the binding.
#[derive(Clone, Debug)]
pub enum QueueOp {
    /// Append an element of the given payload size. Served at `Strong`,
    /// with the predicted name at `Weak` when both are asked for.
    Enqueue {
        /// Payload size in bytes.
        data_len: u32,
    },
    /// Remove the head element. Asked for `Weak` alone it is a peek at
    /// the connected server's head: nothing is removed.
    Dequeue,
    /// Read every element's name from the connected server (ZooKeeper's
    /// `getChildren`). A local read: `Weak` only.
    List,
    /// Delete the named element (ZooKeeper's `delete`). The view names
    /// it iff *this* operation deleted it; `None` means another client
    /// got there first — a result, not an error. Not served at `Weak`
    /// alone.
    Remove {
        /// The element, as [`QueueOp::List`] or a peek named it.
        name: String,
    },
}

/// The application-visible result of a queue operation.
#[derive(Clone, PartialEq, Eq)]
pub struct QueueView {
    /// The element's name (created, dequeued, removed, or the head of a
    /// list); `None` = empty queue, or a lost removal race.
    pub name: Option<String>,
    /// Elements remaining after the operation (dequeues and lists; the
    /// element's queue position for enqueues).
    pub remaining: u64,
    /// Every element's name, in queue order ([`QueueOp::List`] only).
    pub children: Vec<String>,
}

/// `children` is printed only where it says something, so every other
/// operation's views render as they did before lists existed
/// (`tests/determinism.rs` hashes this rendering).
impl fmt::Debug for QueueView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("QueueView");
        out.field("name", &self.name)
            .field("remaining", &self.remaining);
        if !self.children.is_empty() {
            out.field("children", &self.children);
        }
        out.finish()
    }
}

impl QueueView {
    fn of(name: Option<String>, remaining: u64) -> QueueView {
        QueueView {
            name,
            remaining,
            children: Vec::new(),
        }
    }

    /// `removing` is the element a [`QueueOp::Remove`] named: a
    /// `Deleted` result does not carry it.
    fn from_txn(result: TxnResult, removing: &Option<String>) -> QueueView {
        match result {
            TxnResult::Created { name } => {
                let position = seq_of(&name).unwrap_or(0);
                QueueView::of(Some(name), position)
            }
            TxnResult::Popped { name, remaining } => QueueView::of(name, remaining),
            TxnResult::Deleted => QueueView::of(removing.clone(), 0),
            TxnResult::Err(_) => QueueView::of(None, 0),
        }
    }
}

/// What the gateway keeps per outstanding operation.
pub struct GwPending {
    upcall: Upcall<QueueView>,
    /// The element a [`QueueOp::Remove`] is deleting.
    removing: Option<String>,
}

/// The queue's client protocol: every operation goes to the one server
/// the client is connected to — a local read for a peek or a list, a
/// Zab-coordinated transaction (with an optional local prediction)
/// otherwise.
pub struct QueueClient {
    server: NodeId,
}

impl GatewayProto for QueueClient {
    type Msg = Msg;
    type Op = QueueOp;
    type Val = QueueView;
    type Pending = GwPending;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        seq: u64,
        q: Submission<QueueOp, QueueView>,
    ) -> Option<GwPending> {
        let op = OpId {
            client: ctx.id(),
            seq,
        };
        let weak = q.levels.contains(ConsistencyLevel::WEAK);
        let strong = q.levels.contains(ConsistencyLevel::STRONG);
        let parent = QUEUE.to_string();
        let read = |cmd| Msg::Read { op, cmd };
        let submit = |txn| Msg::Submit {
            op,
            txn,
            prelim: weak,
        };
        let mut removing = None;
        let msg = match (q.op, strong) {
            // Weak-only: a pure local read, no coordination at all.
            (QueueOp::Dequeue, false) => read(ReadCmd::GetHead { parent }),
            (QueueOp::List, false) => read(ReadCmd::GetChildren { parent }),
            (QueueOp::Enqueue { data_len }, true) => submit(Txn::CreateSeq {
                parent,
                prefix: PREFIX.to_string(),
                data_len,
            }),
            (QueueOp::Dequeue, true) => submit(Txn::PopMin { parent }),
            (QueueOp::Remove { name }, true) => {
                let path = join_path(&parent, &name);
                removing = Some(name);
                submit(Txn::Delete { path })
            }
            // A transaction has no weak-only form and a local read no
            // strong one: fail rather than answer with some other
            // operation's view.
            (QueueOp::List, true) | (QueueOp::Enqueue { .. } | QueueOp::Remove { .. }, false) => {
                let missing = if strong {
                    ConsistencyLevel::STRONG
                } else {
                    ConsistencyLevel::WEAK
                };
                q.upcall.fail(Error::UnsupportedLevel(missing));
                return None;
            }
        };
        ctx.send(self.server, msg);
        Some(GwPending {
            upcall: q.upcall,
            removing,
        })
    }

    fn on_reply(&mut self, _: &mut Ctx<'_, Msg>, pending: &mut PendingOps<GwPending>, msg: Msg) {
        match msg {
            Msg::PrelimResp { op, result } => {
                if let Some(p) = pending.get_mut(op.seq) {
                    let view = QueueView::from_txn(result, &p.removing);
                    p.upcall.clone().deliver(view, ConsistencyLevel::WEAK);
                }
            }
            Msg::FinalResp { op, result } => {
                if let Some(p) = pending.remove(op.seq) {
                    let view = QueueView::from_txn(result, &p.removing);
                    p.upcall.deliver(view, ConsistencyLevel::STRONG);
                }
            }
            Msg::ReadResp { op, result } => {
                if let Some(p) = pending.remove(op.seq) {
                    let view = match result {
                        ReadResult::Head { name, count } => {
                            QueueView::of(name, count.saturating_sub(1))
                        }
                        ReadResult::Children(children) => QueueView {
                            name: children.first().cloned(),
                            remaining: (children.len() as u64).saturating_sub(1),
                            children,
                        },
                    };
                    p.upcall.deliver(view, ConsistencyLevel::WEAK);
                }
            }
            _ => {}
        }
    }

    fn expire(&mut self, p: GwPending) {
        p.upcall.fail(Error::Timeout);
    }
}

/// A simulated replicated queue with a Correctables binding. Faults,
/// client deadlines, `settle`/`advance` and the clock mirror come from
/// the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimQueue {
    host: SimHost<QueueClient>,
}

impl Deref for SimQueue {
    type Target = SimHost<QueueClient>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimQueue {
    /// Builds the paper's FRK/IRL/VRG ensemble — one server per site,
    /// the (static) leader at `leader_site` — and a client gateway at
    /// `client_site`, connected to the server at `connect_site`.
    ///
    /// # Panics
    ///
    /// Panics if any site name is unknown.
    pub fn ec2(
        cfg: ServerConfig,
        leader_site: &str,
        client_site: &str,
        connect_site: &str,
        seed: u64,
    ) -> SimQueue {
        let topology = Topology::ec2_frk_irl_vrg();
        let site = |name: &str| topology.site_named(name).expect("known site");
        let (leader, client, connect) = (site(leader_site), site(client_site), site(connect_site));
        let (engine, servers) =
            Engine::ec2(seed, |i, ids| Box::new(Server::new(cfg, i, ids, leader.0)));
        let proto = QueueClient {
            server: servers[connect.0],
        };
        SimQueue {
            host: SimHost::new(engine, servers, client, proto),
        }
    }

    /// One more client of this deployment: a gateway of its own at
    /// `client_site`, connected to the server at `connect_site`, behind
    /// a handle of its own (queue, op ids, clock, `settle`).
    ///
    /// # Panics
    ///
    /// Panics if a site name is unknown.
    pub fn client_at(&self, client_site: &str, connect_site: &str) -> SimQueue {
        let site = |name| self.with_engine(|e| e.topology().site_named(name).expect("known site"));
        let proto = QueueClient {
            server: self.replica_ids()[site(connect_site).0],
        };
        SimQueue {
            host: self.host.add_gateway(site(client_site), proto),
        }
    }

    /// The Correctables binding.
    pub fn binding(&self) -> QueueBinding {
        let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
        SimBinding::new(self.host.clone(), &levels)
    }

    /// Pre-fills the queue with `n` elements by applying the same
    /// enqueues directly to every server's tree (a converged state, as
    /// if enqueued before the experiment).
    pub fn prefill(&self, n: u64, data_len: u32) {
        let enqueue = Txn::CreateSeq {
            parent: QUEUE.to_string(),
            prefix: PREFIX.to_string(),
            data_len,
        };
        self.each_replica(|server: &mut Server| {
            for _ in 0..n {
                server.tree.apply(&enqueue);
            }
        });
    }

    /// Elements in the queue at each server, in site-list order.
    pub fn lengths(&self) -> Vec<u64> {
        self.each_replica(|server: &mut Server| server.tree.child_count(QUEUE))
    }
}

/// The weak/strong `Binding` over a [`SimQueue`].
pub type QueueBinding = SimBinding<QueueClient>;

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::{Client, History, HistoryEvent, RecordingBinding, State};
    use simnet::SimDuration;
    use std::sync::Arc;

    type Recorded = Client<RecordingBinding<QueueBinding>>;

    /// Leader in IRL; the client, at `client_site`, talks to the FRK
    /// follower.
    fn paper_queue(client_site: &str, seed: u64) -> SimQueue {
        SimQueue::ec2(ServerConfig::default(), "IRL", client_site, "FRK", seed)
    }

    /// A client of `q` that records what it sees on `q`'s clock.
    fn recorded(q: &SimQueue) -> (Arc<Recorded>, History<QueueOp, QueueView>) {
        let history = History::with_clock(q.clock());
        let binding = RecordingBinding::new(q.binding(), history.clone());
        (Arc::new(Client::new(binding)), history)
    }

    /// Virtual milliseconds from each successfully closed invocation's
    /// submission to its preliminary view (if any) and to its final view.
    fn latencies(history: &History<QueueOp, QueueView>) -> Vec<(Option<f64>, f64)> {
        let ms = |from: u64, to: u64| (to - from) as f64 / 1e6;
        let mut out = Vec::new();
        for inv in history.snapshot() {
            let mut prelim = None;
            for e in &inv.events {
                if let HistoryEvent::View {
                    at_nanos, closing, ..
                } = e
                {
                    let at = ms(inv.at_nanos, *at_nanos);
                    if *closing {
                        out.push((prelim, at));
                    } else {
                        prelim = Some(at);
                    }
                }
            }
        }
        out
    }

    /// `left` enqueues one at a time: the next leaves when the last
    /// closed.
    fn enqueue_in_turn(client: Arc<Recorded>, icg: bool, left: u64) {
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

    fn mean(xs: impl Iterator<Item = f64>) -> f64 {
        let xs: Vec<f64> = xs.collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn enqueues_replicate_to_all_servers() {
        let q = paper_queue("IRL", 3);
        let (client, history) = recorded(&q);
        enqueue_in_turn(client, false, 5);
        q.settle();
        // The client has its answers; let the last commit reach VRG.
        q.advance(SimDuration::from_millis(500));
        assert_eq!(q.lengths(), [5, 5, 5], "replica diverged");
        let applied = q.each_replica(|s: &mut Server| s.applied_count);
        assert_eq!(applied, [5, 5, 5]);
        let timings = latencies(&history);
        assert_eq!(timings.len(), 5);
        // Client in IRL via FRK follower with leader in IRL: the paper's
        // first configuration. Final latency ≈ 55–75 ms.
        let mean = mean(timings.iter().map(|t| t.1));
        assert!((45.0..85.0).contains(&mean), "ZK enqueue mean {mean}ms");
    }

    #[test]
    fn czk_preliminary_beats_final_by_coordination_time() {
        let q = paper_queue("IRL", 4);
        let (client, history) = recorded(&q);
        enqueue_in_turn(client, true, 10);
        q.settle();
        let timings = latencies(&history);
        assert_eq!(timings.len(), 10);
        let prelim = mean(timings.iter().map(|t| t.0.expect("CZK enqueue")));
        let fin = mean(timings.iter().map(|t| t.1));
        // Preliminary ≈ client–server RTT (20 ms); final much later.
        assert!((18.0..26.0).contains(&prelim), "prelim {prelim}ms");
        assert!(fin > prelim + 20.0, "no gap: prelim {prelim} final {fin}");
    }

    #[test]
    fn concurrent_enqueuers_get_unique_names() {
        let frk = paper_queue("FRK", 5);
        let clients = [
            frk.clone(),
            frk.client_at("IRL", "FRK"),
            frk.client_at("VRG", "FRK"),
        ];
        let mut histories = Vec::new();
        for c in &clients {
            let (client, history) = recorded(c);
            enqueue_in_turn(client, false, 20);
            c.step(SimDuration::ZERO);
            histories.push(history);
        }
        for (c, history) in clients.iter().zip(&histories) {
            c.settle();
            assert_eq!(latencies(history).len(), 20);
        }
        assert_eq!(frk.lengths()[0], 60);
    }

    #[test]
    fn an_op_asked_for_a_level_it_does_not_have_fails_instead_of_peeking() {
        let q = queue_with(3);
        let client = Client::new(q.binding());
        let head = || "qn-0000000000".to_string();
        let weak_enqueue = client.invoke_weak(QueueOp::Enqueue { data_len: 20 });
        let weak_remove = client.invoke_weak(QueueOp::Remove { name: head() });
        let strong_list = client.invoke_strong(QueueOp::List);
        let icg_list = client.invoke(QueueOp::List);
        q.settle();
        let weak = Some(Error::UnsupportedLevel(ConsistencyLevel::WEAK));
        let strong = Some(Error::UnsupportedLevel(ConsistencyLevel::STRONG));
        assert_eq!(
            (weak_enqueue.state(), weak_enqueue.error()),
            (State::Error, weak.clone())
        );
        assert_eq!(
            (weak_remove.error(), strong_list.error()),
            (weak, strong.clone())
        );
        assert_eq!(icg_list.error(), strong);
        // Nothing was sent, so nothing was enqueued or removed.
        assert_eq!((q.lengths(), q.gateway_link_bytes()), (vec![3, 3, 3], 0));
    }

    #[test]
    fn list_names_every_element_and_remove_reports_who_won() {
        let q = queue_with(3);
        let client = Client::new(q.binding());
        let listed = client.invoke_weak(QueueOp::List);
        q.settle();
        let view = listed.final_view().unwrap();
        assert_eq!(view.level, ConsistencyLevel::WEAK);
        assert_eq!(view.value.children.len(), 3);
        assert_eq!(
            (view.value.name.as_ref(), view.value.remaining),
            (view.value.children.first(), 2)
        );
        // Two removals of the head race; Zab orders them, one wins.
        let name = view.value.children[0].clone();
        let first = client.invoke_strong(QueueOp::Remove { name: name.clone() });
        let second = client.invoke(QueueOp::Remove { name: name.clone() });
        q.settle();
        assert_eq!(first.final_view().unwrap().value.name, Some(name.clone()));
        // The loser's prediction, made before the winner committed, was
        // wrong; its final view says so.
        assert_eq!(second.preliminary_views()[0].value.name, Some(name));
        assert_eq!(second.final_view().unwrap().value.name, None);
        q.advance(SimDuration::from_millis(500));
        assert_eq!(q.lengths(), [2, 2, 2]);
    }

    #[test]
    fn a_non_list_view_renders_as_it_did_before_lists() {
        let view = QueueView::of(Some("qn-0000000001".into()), 4);
        assert_eq!(
            format!("{view:?}"),
            r#"QueueView { name: Some("qn-0000000001"), remaining: 4 }"#
        );
    }

    fn queue_with(n: u64) -> SimQueue {
        // Client in IRL connected to the FRK follower, leader in IRL.
        let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", 11);
        q.prefill(n, 20);
        q
    }

    #[test]
    fn icg_dequeue_gives_prediction_then_atomic_pop() {
        let q = queue_with(10);
        let (client, history) = recorded(&q);
        let c = client.invoke(QueueOp::Dequeue);
        q.settle();
        assert_eq!(c.state(), State::Final);
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 1);
        assert_eq!(prelims[0].value.name.as_deref(), Some("qn-0000000000"));
        assert_eq!(prelims[0].value.remaining, 9);
        let fin = c.final_view().unwrap();
        assert_eq!(fin.value.name.as_deref(), Some("qn-0000000000"));
        let (prelim, fin) = latencies(&history)[0];
        assert!(prelim.unwrap() < fin - 10.0, "no latency gap");
    }

    #[test]
    fn strong_dequeue_has_no_preliminary() {
        let q = queue_with(3);
        let client = Client::new(q.binding());
        let c = client.invoke_strong(QueueOp::Dequeue);
        q.settle();
        assert!(c.preliminary_views().is_empty());
        assert_eq!(
            c.final_view().unwrap().value.name.as_deref(),
            Some("qn-0000000000")
        );
    }

    #[test]
    fn weak_dequeue_is_a_pure_peek() {
        let q = queue_with(3);
        let client = Client::new(q.binding());
        let c = client.invoke_weak(QueueOp::Dequeue);
        q.settle();
        let v = c.final_view().unwrap();
        assert_eq!(v.level, ConsistencyLevel::WEAK);
        assert_eq!(v.value.name.as_deref(), Some("qn-0000000000"));
        // Nothing was dequeued: a strong dequeue still sees the head.
        let c2 = client.invoke_strong(QueueOp::Dequeue);
        q.settle();
        assert_eq!(
            c2.final_view().unwrap().value.name.as_deref(),
            Some("qn-0000000000")
        );
    }

    #[test]
    fn dequeue_on_empty_returns_none() {
        let q = queue_with(0);
        let client = Client::new(q.binding());
        let c = client.invoke(QueueOp::Dequeue);
        q.settle();
        let fin = c.final_view().unwrap();
        assert_eq!(fin.value.name, None);
        assert_eq!(fin.value.remaining, 0);
    }

    #[test]
    fn enqueue_reports_created_name() {
        let q = queue_with(2);
        let client = Client::new(q.binding());
        let c = client.invoke(QueueOp::Enqueue { data_len: 20 });
        q.settle();
        let fin = c.final_view().unwrap();
        assert_eq!(fin.value.name.as_deref(), Some("qn-0000000002"));
        // The preliminary predicted the same name (no contention).
        assert_eq!(
            c.preliminary_views()[0].value.name.as_deref(),
            Some("qn-0000000002")
        );
    }
}
