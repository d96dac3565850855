//! The coordination server: Zab-style atomic broadcast plus the CZK fast
//! path.
//!
//! One statically configured leader sequences transactions (zxids);
//! followers acknowledge proposals; the leader commits once a majority
//! (including itself) has acknowledged, and every server applies
//! transactions in zxid order. The server a client is connected to — the
//! *origin* — replies once it has applied the transaction locally, exactly
//! like ZooKeeper.
//!
//! **Correctable ZooKeeper (CZK)**: when a submission requests a
//! preliminary, the origin server first *simulates* the transaction on its
//! local tree and leaks the predicted result to the client before
//! coordination (§5.2). Reads (`GetChildren`, `GetHead`) are always served
//! locally, as in ZooKeeper.
//!
//! We run a single Zab epoch: the evaluated deployments never fail the
//! leader (the paper's do not either). The apply path tolerates reordered
//! proposals and commits, so no FIFO channel assumption is needed.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use simnet::{Ctx, Node, NodeId, SimDuration};

use crate::messages::Msg;
use crate::tree::ZnodeTree;
use crate::types::{OpId, ReadCmd, ReadResult, Txn, Zxid};

/// Tuning knobs of a server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// CPU time to serve a local read.
    pub read_service: SimDuration,
    /// CPU time to log/apply a transaction.
    pub txn_service: SimDuration,
    /// Extra CPU time for the CZK local simulation.
    pub prelim_extra: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_service: SimDuration::from_micros(150),
            txn_service: SimDuration::from_micros(200),
            prelim_extra: SimDuration::from_micros(50),
        }
    }
}

/// A coordination server (leader or follower).
pub struct Server {
    /// The leader's node id.
    leader: NodeId,
    /// All *other* servers (used by the leader for broadcast).
    peers: Vec<NodeId>,
    /// The replicated state.
    pub tree: ZnodeTree,
    cfg: ServerConfig,
    // --- Leader-only state ---
    next_zxid: Zxid,
    acks: HashMap<Zxid, u8>,
    quorum_reached: BTreeSet<Zxid>,
    // --- Apply state (all servers) ---
    proposals: BTreeMap<Zxid, (Txn, NodeId, OpId)>,
    commits_seen: BTreeSet<Zxid>,
    last_applied: Zxid,
    /// Number of transactions this server has applied (observability).
    pub applied_count: u64,
}

impl Server {
    /// Server `index` of the ensemble `ids` (index-aligned node ids),
    /// server `leader` the leader.
    pub fn new(cfg: ServerConfig, index: usize, ids: &[NodeId], leader: usize) -> Self {
        Server {
            leader: ids[leader],
            peers: NodeId::peers_of(ids, index),
            tree: ZnodeTree::new(),
            cfg,
            next_zxid: 1,
            acks: HashMap::new(),
            quorum_reached: BTreeSet::new(),
            proposals: BTreeMap::new(),
            commits_seen: BTreeSet::new(),
            last_applied: 0,
            applied_count: 0,
        }
    }

    fn is_leader(&self, ctx: &Ctx<'_, Msg>) -> bool {
        ctx.id() == self.leader
    }

    fn majority(&self) -> u8 {
        (self.peers.len().div_ceil(2) + 1) as u8
    }

    /// Leader: sequence a transaction and propose it.
    fn propose(&mut self, ctx: &mut Ctx<'_, Msg>, txn: Txn, origin: NodeId, op: OpId) {
        let zxid = self.next_zxid;
        self.next_zxid += 1;
        self.proposals.insert(zxid, (txn.clone(), origin, op));
        // The leader's own (implicit) ack.
        self.acks.insert(zxid, 1);
        for p in self.peers.clone() {
            ctx.send(
                p,
                Msg::Propose {
                    zxid,
                    txn: txn.clone(),
                    origin,
                    op,
                },
            );
        }
        // A single-server "cluster" has an immediate majority.
        self.check_quorum(ctx, zxid);
    }

    fn check_quorum(&mut self, ctx: &mut Ctx<'_, Msg>, zxid: Zxid) {
        let have = self.acks.get(&zxid).copied().unwrap_or(0);
        if have >= self.majority() && !self.quorum_reached.contains(&zxid) {
            self.quorum_reached.insert(zxid);
            self.commits_seen.insert(zxid);
            for p in self.peers.clone() {
                ctx.send(p, Msg::Commit { zxid });
            }
            self.apply_ready(ctx);
        }
    }

    /// Applies every contiguous committed transaction in zxid order.
    fn apply_ready(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let next = self.last_applied + 1;
            if !self.commits_seen.contains(&next) {
                return;
            }
            let Some((txn, origin, op)) = self.proposals.remove(&next) else {
                // Commit arrived before the proposal; wait for it.
                return;
            };
            self.commits_seen.remove(&next);
            self.acks.remove(&next);
            self.quorum_reached.remove(&next);
            let result = self.tree.apply(&txn);
            self.last_applied = next;
            self.applied_count += 1;
            if origin == ctx.id() {
                ctx.send(op.client, Msg::FinalResp { op, result });
            }
        }
    }
}

impl Node<Msg> for Server {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Read { op, cmd } => {
                let result = match cmd {
                    ReadCmd::GetChildren { parent } => {
                        ReadResult::Children(self.tree.children_of(&parent))
                    }
                    ReadCmd::GetHead { parent } => ReadResult::Head {
                        name: self.tree.min_child(&parent),
                        count: self.tree.child_count(&parent),
                    },
                };
                ctx.send(from, Msg::ReadResp { op, result });
            }
            Msg::Submit { op, txn, prelim } => {
                if prelim {
                    // CZK fast path: leak the locally simulated result
                    // before coordinating.
                    let result = self.tree.simulate(&txn);
                    ctx.send(from, Msg::PrelimResp { op, result });
                }
                if self.is_leader(ctx) {
                    let me = ctx.id();
                    self.propose(ctx, txn, me, op);
                } else {
                    let me = ctx.id();
                    ctx.send(
                        self.leader,
                        Msg::Forward {
                            op,
                            origin: me,
                            txn,
                        },
                    );
                }
            }
            Msg::Forward { op, origin, txn } => {
                debug_assert!(self.is_leader(ctx), "only the leader sequences");
                self.propose(ctx, txn, origin, op);
            }
            Msg::Propose {
                zxid,
                txn,
                origin,
                op,
            } => {
                self.proposals.insert(zxid, (txn, origin, op));
                ctx.send(self.leader, Msg::Ack { zxid });
                // A commit for this zxid may already be buffered.
                self.apply_ready(ctx);
            }
            Msg::Ack { zxid } => {
                *self.acks.entry(zxid).or_insert(0) += 1;
                self.check_quorum(ctx, zxid);
            }
            Msg::Commit { zxid } => {
                self.commits_seen.insert(zxid);
                self.apply_ready(ctx);
            }
            // Client-bound messages never land on servers.
            Msg::ReadResp { .. } | Msg::PrelimResp { .. } | Msg::FinalResp { .. } => {
                debug_assert!(false, "server received a client-bound message");
            }
        }
    }

    fn service_cost(&self, msg: &Msg) -> SimDuration {
        match msg {
            Msg::Read { .. } => self.cfg.read_service,
            Msg::Submit { prelim, .. } => {
                if *prelim {
                    self.cfg.txn_service + self.cfg.prelim_extra
                } else {
                    self.cfg.txn_service
                }
            }
            Msg::Forward { .. } | Msg::Propose { .. } | Msg::Commit { .. } => self.cfg.txn_service,
            _ => SimDuration::ZERO,
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
