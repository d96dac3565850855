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

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use simnet::{Ctx, GatewayProto, NodeId, PendingOps, SimHost, SimTime, Topology};

use crate::cluster::ZkCluster;
use crate::messages::Msg;
use crate::server::ServerConfig;
use crate::types::{OpId, ReadCmd, ReadResult, Txn, TxnResult};

/// Queue operations accepted by the binding.
#[derive(Clone, Debug)]
pub enum QueueOp {
    /// Append an element of the given payload size.
    Enqueue {
        /// Payload size in bytes.
        data_len: u32,
    },
    /// Remove the head element.
    Dequeue,
}

/// The application-visible result of a queue operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueView {
    /// The element's name (created or dequeued); `None` = empty queue.
    pub name: Option<String>,
    /// Elements remaining after the operation (dequeues only; the
    /// element's queue position for enqueues).
    pub remaining: u64,
}

impl QueueView {
    fn from_txn(result: &TxnResult) -> QueueView {
        match result {
            TxnResult::Created { name } => QueueView {
                name: Some(name.clone()),
                remaining: crate::types::seq_of(name).unwrap_or(0),
            },
            TxnResult::Popped { name, remaining } => QueueView {
                name: name.clone(),
                remaining: *remaining,
            },
            TxnResult::Deleted | TxnResult::Err(_) => QueueView {
                name: None,
                remaining: 0,
            },
        }
    }
}

/// One submission: the operation, its upcall, the levels it wants.
pub struct Queued {
    op: QueueOp,
    upcall: Upcall<QueueView>,
    weak: bool,
    strong: bool,
}

/// What the gateway keeps per outstanding operation.
pub struct GwPending {
    upcall: Upcall<QueueView>,
    start: SimTime,
    prelim_at: Option<SimTime>,
}

/// Timing of one completed gateway operation, in virtual milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct QueueTiming {
    /// When the preliminary view arrived.
    pub prelim_ms: Option<f64>,
    /// When the final view arrived.
    pub final_ms: f64,
}

type Timings = Arc<Mutex<Vec<QueueTiming>>>;

/// The queue's client protocol: every operation goes to the one server
/// the client is connected to — a local peek for weak-only requests, a
/// Zab-coordinated transaction (with an optional local prediction)
/// otherwise.
pub struct QueueClient {
    server: NodeId,
    parent: String,
    timings: Timings,
}

impl GatewayProto for QueueClient {
    type Msg = Msg;
    type Queued = Queued;
    type Pending = GwPending;

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64, q: Queued) -> Option<GwPending> {
        let op = OpId {
            client: ctx.id(),
            seq,
        };
        let parent = self.parent.clone();
        let msg = if !q.strong {
            // Weak-only: a pure local peek, no coordination at all.
            Msg::Read {
                op,
                cmd: ReadCmd::GetHead { parent },
            }
        } else {
            let txn = match q.op {
                QueueOp::Enqueue { data_len } => Txn::CreateSeq {
                    parent,
                    prefix: "qn-".to_string(),
                    data_len,
                },
                QueueOp::Dequeue => Txn::PopMin { parent },
            };
            Msg::Submit {
                op,
                txn,
                prelim: q.weak,
            }
        };
        ctx.send(self.server, msg);
        Some(GwPending {
            upcall: q.upcall,
            start: ctx.now(),
            prelim_at: None,
        })
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, pending: &mut PendingOps<GwPending>, msg: Msg) {
        match msg {
            Msg::PrelimResp { op, result } => {
                if let Some(p) = pending.get_mut(op.seq) {
                    p.prelim_at = Some(ctx.now());
                    let up = p.upcall.clone();
                    up.deliver(QueueView::from_txn(&result), ConsistencyLevel::WEAK);
                }
            }
            Msg::FinalResp { op, result } => {
                if let Some(p) = pending.remove(op.seq) {
                    self.timings.lock().push(QueueTiming {
                        prelim_ms: p.prelim_at.map(|t| t.since(p.start).as_millis_f64()),
                        final_ms: ctx.now().since(p.start).as_millis_f64(),
                    });
                    p.upcall
                        .deliver(QueueView::from_txn(&result), ConsistencyLevel::STRONG);
                }
            }
            Msg::ReadResp { op, result } => {
                if let Some(p) = pending.remove(op.seq) {
                    let view = match result {
                        ReadResult::Head { name, count } => QueueView {
                            name,
                            remaining: count.saturating_sub(1),
                        },
                        ReadResult::Children(names) => {
                            let count = names.len() as u64;
                            QueueView {
                                name: names.into_iter().next(),
                                remaining: count.saturating_sub(1),
                            }
                        }
                    };
                    self.timings.lock().push(QueueTiming {
                        prelim_ms: None,
                        final_ms: ctx.now().since(p.start).as_millis_f64(),
                    });
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
    timings: Timings,
}

impl Deref for SimQueue {
    type Target = SimHost<QueueClient>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimQueue {
    /// Builds the paper's FRK/IRL/VRG ensemble with the leader at
    /// `leader_site` and the client gateway at `client_site`, connected to
    /// the server at `connect_site`.
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
        let topo = Topology::ec2_frk_irl_vrg();
        let sites = ["FRK", "IRL", "VRG"];
        let leader_idx = sites
            .iter()
            .position(|s| *s == leader_site)
            .expect("known leader site");
        let connect_idx = sites
            .iter()
            .position(|s| *s == connect_site)
            .expect("known connect site");
        let client_site_id = topo.site_named(client_site).expect("known client site");
        let cluster = ZkCluster::build(topo, &sites, leader_idx, cfg, seed);
        let timings = Timings::default();
        let proto = QueueClient {
            server: cluster.servers[connect_idx],
            parent: "/q".to_string(),
            timings: Arc::clone(&timings),
        };
        SimQueue {
            host: SimHost::new(cluster.engine, cluster.servers, client_site_id, proto),
            timings,
        }
    }

    /// The Correctables binding.
    pub fn binding(&self) -> QueueBinding {
        QueueBinding { q: self.clone() }
    }

    /// Pre-fills the queue on every server (converged state).
    pub fn prefill(&self, n: u64, data_len: u32) {
        self.with_engine(|e| ZkCluster::prefill_into(e, &self.server_ids(), "/q", n, data_len));
    }

    /// The server node ids, in FRK/IRL/VRG (site-list) order.
    pub fn server_ids(&self) -> Vec<NodeId> {
        self.replica_ids()
    }

    /// Timings of completed operations.
    pub fn timings(&self) -> Vec<QueueTiming> {
        self.timings.lock().clone()
    }
}

/// `Binding` implementation over [`SimQueue`].
#[derive(Clone)]
pub struct QueueBinding {
    q: SimQueue,
}

impl Binding for QueueBinding {
    type Op = QueueOp;
    type Val = QueueView;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: QueueOp, levels: &[ConsistencyLevel], upcall: Upcall<QueueView>) {
        let weak = levels.contains(&ConsistencyLevel::WEAK);
        let strong = levels.contains(&ConsistencyLevel::STRONG);
        self.q.enqueue(Queued {
            op,
            upcall,
            weak,
            strong,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::{Client, State};

    fn queue_with(n: u64) -> SimQueue {
        // Client in IRL connected to the FRK follower, leader in IRL.
        let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", 11);
        q.prefill(n, 20);
        q
    }

    #[test]
    fn icg_dequeue_gives_prediction_then_atomic_pop() {
        let q = queue_with(10);
        let client = Client::new(q.binding());
        let c = client.invoke(QueueOp::Dequeue);
        q.settle();
        assert_eq!(c.state(), State::Final);
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 1);
        assert_eq!(prelims[0].value.name.as_deref(), Some("qn-0000000000"));
        assert_eq!(prelims[0].value.remaining, 9);
        let fin = c.final_view().unwrap();
        assert_eq!(fin.value.name.as_deref(), Some("qn-0000000000"));
        let t = q.timings()[0];
        assert!(t.prelim_ms.unwrap() < t.final_ms - 10.0, "no latency gap");
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
