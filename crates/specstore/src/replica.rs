//! The per-replica protocol node of the spec store.
//!
//! Every client operation is an *update* in the sense of Perrin,
//! Mostéfaoui & Jard: it is stamped `(lamport ts, origin, seq)` at its
//! origin replica, applied locally at once (wait-free), and gossiped to
//! the peers, which merge it into the same totally-ordered log. Three
//! orthogonal mechanisms produce the three non-weak levels:
//!
//! - the **lamport log** — a [`ReplayLog`] kept sorted by `(ts, origin,
//!   seq)`; replaying it through the spec realizes update consistency's
//!   single eventual linearization;
//! - the **CBCAST buffer** — updates carry vector clocks and are
//!   causally delivered in dependency order (`causalstore`'s
//!   [`CausalInbox`]); the causally delivered prefix,
//!   replayed in log order (an order consistent with causality), backs
//!   the causal views;
//! - **ack stability** — each peer acknowledges an update when it
//!   causally delivers it, reporting its own submission count. Once
//!   every peer has acked update `u` and the origin has causally
//!   delivered each peer's reported submissions, no update with a
//!   timestamp below `u.ts` can still arrive anywhere, so `u`'s position
//!   in the total order — and therefore its replayed return value — is
//!   final. That is the strong (linearizable) close, with no primary.
//!
//! Lost gossip and acks are repaired by per-origin anti-entropy: every
//! replica periodically re-broadcasts its own not-fully-acked updates,
//! and re-acks retransmissions of updates it has already delivered.

use std::any::Any;
use std::collections::BTreeMap;

use causalstore::{CausalInbox, Offer};
use correctables::spec::SeqSpec;
use correctables::ConsistencyLevel;
use simnet::{Ctx, NodeId, Reply, RetryTimer, SimDuration, SubmitWire, Timer, Wire};

use crate::replay::{OrderKey, ReplayLog};
pub use crate::replay::{Update, UpdateId};

/// Which levels one submission wants served.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wants {
    /// Deliver a weak view.
    pub weak: bool,
    /// Deliver an update-consistency view.
    pub update: bool,
    /// Deliver a causal view.
    pub causal: bool,
    /// Deliver a strong view.
    pub strong: bool,
}

impl Wants {
    /// The strongest requested level (the one that closes the upcall).
    pub fn strongest(&self) -> ConsistencyLevel {
        if self.strong {
            ConsistencyLevel::STRONG
        } else if self.causal {
            ConsistencyLevel::CAUSAL
        } else if self.update {
            ConsistencyLevel::UPDATE
        } else {
            ConsistencyLevel::WEAK
        }
    }
}

/// Client-operation identity at the gateway (its own sequence space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// Protocol messages of the spec store.
#[derive(Clone, Debug)]
pub enum SpecMsg<S: SeqSpec> {
    /// Gateway → replica: accept `op` as a new update.
    Submit {
        /// Client operation id (scoped to the gateway).
        op: OpId,
        /// The operation.
        client_op: S::Op,
        /// Levels to serve.
        wants: Wants,
    },
    /// Replica → gateway: the wait-free views (weak and/or update),
    /// emitted synchronously at accept time.
    Immediate {
        /// Client operation id.
        op: OpId,
        /// `(level, return value)` in level order.
        views: Vec<(ConsistencyLevel, S::Ret)>,
        /// Whether the strongest requested level is among `views`.
        closing: bool,
    },
    /// Replica → gateway: a causal or strong view that needed peer acks.
    Later {
        /// Client operation id.
        op: OpId,
        /// The level of this view.
        level: ConsistencyLevel,
        /// The replayed return value.
        ret: S::Ret,
        /// Whether this is the strongest requested level.
        closing: bool,
    },
    /// Replica → replica: one update (also used for retransmission).
    Gossip {
        /// The update.
        update: Update<S::Op>,
    },
    /// Replica → origin replica: `acker` causally delivered `of`.
    Ack {
        /// The acknowledged update.
        of: UpdateId,
        /// Index of the acknowledging replica.
        acker: usize,
        /// The acker's own submission count at delivery time; the origin
        /// must causally deliver that many of the acker's updates before
        /// `of` counts as stable.
        acker_seq: u64,
    },
}

impl<S: SeqSpec> Wire for SpecMsg<S> {
    fn wire_size(&self) -> usize {
        // A coarse model: fixed framing plus the causal stamp; op bodies
        // are spec-dependent and modeled as one machine word.
        match self {
            SpecMsg::Submit { .. } => 32,
            SpecMsg::Immediate { views, .. } => 16 + 16 * views.len(),
            SpecMsg::Later { .. } => 32,
            SpecMsg::Gossip { update } => 40 + 8 * update.vc.len(),
            SpecMsg::Ack { .. } => 32,
        }
    }

    fn category(&self) -> &'static str {
        match self {
            SpecMsg::Submit { .. } => "submit",
            SpecMsg::Immediate { .. } | SpecMsg::Later { .. } => "reply",
            SpecMsg::Gossip { .. } => "gossip",
            SpecMsg::Ack { .. } => "ack",
        }
    }
}

impl<S: SeqSpec + 'static> SubmitWire for SpecMsg<S> {
    type Op = S::Op;
    type Wants = Wants;
    type Val = S::Ret;

    fn submit(op: u64, client_op: S::Op, wants: Wants) -> Self {
        SpecMsg::Submit {
            op: OpId(op),
            client_op,
            wants,
        }
    }

    fn into_reply(self) -> Option<Reply<S::Ret>> {
        match self {
            SpecMsg::Immediate { op, views, closing } => Some(Reply {
                op: op.0,
                views,
                closing,
            }),
            SpecMsg::Later {
                op,
                level,
                ret,
                closing,
            } => Some(Reply {
                op: op.0,
                views: vec![(level, ret)],
                closing,
            }),
            _ => None,
        }
    }
}

/// Ack/stability bookkeeping for one locally accepted update.
struct OwnUpdate {
    /// Where the update sits in the log.
    key: OrderKey,
    /// The client op to answer, if this update came through the binding
    /// (anti-entropy applies to every update regardless).
    client: Option<(OpId, NodeId, Wants)>,
    /// Per-peer `acker_seq`, `None` until that peer acks.
    acks: Vec<Option<u64>>,
    causal_sent: bool,
    strong_sent: bool,
}

impl OwnUpdate {
    fn fully_acked(&self, me: usize) -> bool {
        self.acks
            .iter()
            .enumerate()
            .all(|(i, a)| i == me || a.is_some())
    }
}

/// One replica of the spec store.
pub struct SpecReplica<S: SeqSpec> {
    /// This replica's index.
    id: usize,
    /// Replica count.
    n: usize,
    /// Node ids of all replicas, index-aligned; set via
    /// [`SpecReplica::set_peers`] after construction.
    peers: Vec<NodeId>,
    /// Lamport clock.
    lamport: u64,
    /// Own submission count (the next update gets `seq = next_seq + 1`).
    next_seq: u64,
    /// CBCAST state: the causally delivered count per origin, and the
    /// ids of updates received (and logged) but not yet deliverable.
    inbox: CausalInbox<UpdateId>,
    /// Every update received or accepted here, in `(ts, origin, seq)`
    /// order, and the views replayed from it.
    log: ReplayLog<S>,
    /// Ack state of every update accepted here, by seq. Ordered: the
    /// replies and retransmissions sent while walking it draw simulated
    /// latencies in that order.
    own: BTreeMap<u64, OwnUpdate>,
    /// Anti-entropy timer, re-armed on every message receipt.
    retransmit: RetryTimer,
}

impl<S: SeqSpec + Send + 'static> SpecReplica<S> {
    /// A replica with index `id` out of `n`.
    pub fn new(spec: S, id: usize, n: usize) -> Self {
        SpecReplica {
            id,
            n,
            peers: Vec::new(),
            lamport: 0,
            next_seq: 0,
            inbox: CausalInbox::new(n),
            log: ReplayLog::new(spec),
            own: BTreeMap::new(),
            retransmit: RetryTimer::new(SimDuration::from_millis(200)),
        }
    }

    /// Switches this replica to the buggy arrival-order log (the
    /// negative fixture for the update-consistency checker).
    pub fn set_arrival_order(&mut self, buggy: bool) {
        self.log.set_arrival_order(buggy);
    }

    /// Registers the node ids of all replicas (index-aligned).
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        assert_eq!(peers.len(), self.n, "peer list must cover all replicas");
        self.peers = peers;
    }

    /// The log as applied by this replica, in its current order.
    pub fn applied_log(&self) -> Vec<UpdateId> {
        self.log.entries().iter().map(|u| u.id).collect()
    }

    /// Whether every peer has acknowledged every update accepted here.
    pub fn fully_acked(&self) -> bool {
        self.own.values().all(|o| o.fully_acked(self.id))
    }

    /// Keeps the retransmit timer running while any own update still
    /// lacks acks.
    fn arm_timer(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>) {
        let unacked = self.own.values().any(|e| !e.fully_acked(self.id));
        self.retransmit.arm(ctx, unacked && self.n > 1);
    }

    fn accept(
        &mut self,
        ctx: &mut Ctx<'_, SpecMsg<S>>,
        from: NodeId,
        op: OpId,
        client_op: S::Op,
        wants: Wants,
    ) {
        // Weak view: computed against the pre-accept state.
        let weak = wants.weak.then(|| self.log.ret_on_top(&client_op));
        // Stamp and log the update.
        self.lamport += 1;
        self.next_seq += 1;
        self.inbox.bump(self.id);
        let id = UpdateId {
            origin: self.id,
            seq: self.next_seq,
        };
        let update = Update {
            id,
            ts: self.lamport,
            vc: self.inbox.delivered().clone(),
            op: client_op,
        };
        for (i, peer) in self.peers.clone().into_iter().enumerate() {
            if i != self.id {
                ctx.send(
                    peer,
                    SpecMsg::Gossip {
                        update: update.clone(),
                    },
                );
            }
        }
        let key = update.key();
        self.log.insert(update);
        self.own.insert(
            id.seq,
            OwnUpdate {
                key,
                client: Some((op, from, wants)),
                acks: vec![None; self.n],
                causal_sent: false,
                strong_sent: false,
            },
        );
        // Wait-free views go straight back.
        let mut views = Vec::new();
        if let Some(ret) = weak {
            views.push((ConsistencyLevel::WEAK, ret));
        }
        if wants.update {
            let ret = self.log.ret_of(key).expect("own update is logged");
            views.push((ConsistencyLevel::UPDATE, ret));
        }
        let closing = !wants.causal && !wants.strong;
        if !views.is_empty() || closing {
            ctx.send(from, SpecMsg::Immediate { op, views, closing });
        }
        // Single-replica deployments have no peers to wait for.
        self.settle_pending(ctx);
        self.arm_timer(ctx);
    }

    /// Drains the CBCAST buffer, delivering (and acking) every update
    /// whose causal dependencies are satisfied.
    fn deliver_causal(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>) {
        while let Some((origin, _, of)) = self.inbox.pop_ready(|_| true) {
            self.ack(ctx, origin, of);
        }
    }

    fn ack(&self, ctx: &mut Ctx<'_, SpecMsg<S>>, origin: usize, of: UpdateId) {
        ctx.send(
            self.peers[origin],
            SpecMsg::Ack {
                of,
                acker: self.id,
                acker_seq: self.next_seq,
            },
        );
    }

    /// Fires causal/strong replies for own updates whose conditions now
    /// hold, and retires the ones that are served and fully acked.
    fn settle_pending(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>) {
        let me = self.id;
        let solo = self.n == 1;
        let vc = self.inbox.delivered();
        self.own.retain(|_, e| {
            let acked = e.fully_acked(me);
            if let Some((op, gw, wants)) = e.client {
                let any_ack = solo || e.acks.iter().any(|a| a.is_some());
                // Stable: all peers acked, and each peer's reported
                // submissions are causally delivered here — nothing with a
                // smaller timestamp is still in flight.
                let stable = e
                    .acks
                    .iter()
                    .enumerate()
                    .all(|(i, a)| i == me || a.is_some_and(|s| vc.0[i] >= s));
                if wants.causal && !e.causal_sent && any_ack {
                    let ret = self
                        .log
                        .causal_ret_of(e.key, vc)
                        .expect("own update is delivered");
                    ctx.send(
                        gw,
                        SpecMsg::Later {
                            op,
                            level: ConsistencyLevel::CAUSAL,
                            ret,
                            closing: !wants.strong,
                        },
                    );
                    e.causal_sent = true;
                }
                if wants.strong && !e.strong_sent && stable {
                    let ret = self.log.ret_of(e.key).expect("own update is logged");
                    ctx.send(
                        gw,
                        SpecMsg::Later {
                            op,
                            level: ConsistencyLevel::STRONG,
                            ret,
                            closing: true,
                        },
                    );
                    e.strong_sent = true;
                }
                let served = (!wants.causal || e.causal_sent) && (!wants.strong || e.strong_sent);
                if served && acked {
                    e.client = None;
                }
            }
            e.client.is_some() || !acked
        });
    }
}

impl<S: SeqSpec + Send + 'static> simnet::Node<SpecMsg<S>> for SpecReplica<S> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, from: NodeId, msg: SpecMsg<S>) {
        match msg {
            SpecMsg::Submit {
                op,
                client_op,
                wants,
            } => self.accept(ctx, from, op, client_op, wants),
            SpecMsg::Gossip { update } => {
                let origin = update.id.origin;
                match self.inbox.offer(origin, update.vc.clone(), update.id) {
                    // The origin must have lost our ack — re-ack.
                    Offer::AlreadyDelivered => return self.ack(ctx, origin, update.id),
                    Offer::Duplicate => return,
                    Offer::Buffered => {}
                }
                self.lamport = self.lamport.max(update.ts) + 1;
                self.log.insert(update);
                self.deliver_causal(ctx);
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            SpecMsg::Ack {
                of,
                acker,
                acker_seq,
            } => {
                debug_assert_eq!(of.origin, self.id, "ack routed to the wrong origin");
                if let Some(e) = self.own.get_mut(&of.seq) {
                    let slot = &mut e.acks[acker];
                    // Keep the largest report; retransmitted acks carry
                    // fresher submission counts.
                    *slot = Some(slot.unwrap_or(0).max(acker_seq));
                }
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            SpecMsg::Immediate { .. } | SpecMsg::Later { .. } => {
                debug_assert!(false, "replies are addressed to the gateway");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, timer: Timer) {
        if !self.retransmit.is_live(timer) {
            return; // superseded generation
        }
        // Anti-entropy: re-broadcast own updates that some peer has not
        // acked yet (covers lost gossip and lost acks alike).
        for e in self.own.values() {
            let Some(update) = self.log.get(e.key) else {
                continue;
            };
            for i in (0..self.n).filter(|&i| i != self.id && e.acks[i].is_none()) {
                let update = update.clone();
                ctx.send(self.peers[i], SpecMsg::Gossip { update });
            }
        }
        self.arm_timer(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
