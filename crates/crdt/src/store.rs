//! The simulated CRDT deployment and its Correctables binding.
//!
//! [`SimCrdtStore`] places three [`CrdtReplica`]s on the paper's EC2
//! sites (FRK/IRL/VRG) plus a client gateway, round-robining
//! submissions across the replicas so the explorer exercises genuinely
//! concurrent multi-origin histories. Two replication modes share one
//! replica type:
//!
//! - **op-shipping** ([`Repl::Op`], CmRDT): the origin prepares an
//!   effect, applies it locally, and broadcasts it; receivers buffer and
//!   causally deliver (CBCAST, `causalstore`'s [`CausalInbox`]), gated
//!   additionally on the CRDT's own [`Crdt::ready`] precondition.
//!   Anti-entropy re-sends each lagging peer the suffix of this
//!   replica's own effects it has not acknowledged, read off the map of
//!   un-acked own updates the replica keeps for strong closes (each
//!   entry knows its place in the SEC log), so a retry costs that
//!   suffix, not the length of the log.
//! - **state-shipping** ([`Repl::State`], CvRDT): the origin applies
//!   locally and broadcasts its full state; receivers [`Crdt::merge`].
//!   Anti-entropy re-broadcasts state while some peer has not covered
//!   this replica's updates.
//!
//! What a replica ships it shares rather than copies: an effect's
//! [`SecEntry`] is one allocation, held by the origin's SEC log, every
//! `Effect` of the fan-out, every retry and the receivers' inboxes, and
//! a state broadcast copies the state once for all the peers it goes
//! to. A [`CrdtMsg`] is then a few words, small enough that the engine
//! moves its events without a `memcpy` call.
//!
//! Either way the lattice slice is two levels: **weak** is served
//! locally at the origin, wait-free, before any peer communication —
//! this is the coordination-free path CRDT theory licenses — and
//! **strong** closes once every peer acknowledges having incorporated
//! the update (anti-entropy quiescence for this op), re-evaluated
//! against the by-then-converged state.
//!
//! Anti-entropy runs on one retry deadline per replica
//! ([`simnet::Retry`]), pushed 200 ms past every message received while
//! some peer lags: one engine timer per retry, not one per message. The
//! client half — the submit/views envelope, the round-robin gateway and
//! [`CrdtBinding`] — is the one the spec and escrow stores share
//! (`simnet::RoundRobin` under `simnet::SimBinding`).
//!
//! [`SimCrdtStore::ec2_broken`] swaps in the [`crate::BrokenCrdt`] counters —
//! the negative fixture whose non-commutative effects the oracle's SEC
//! checker must reject.

use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::Deref;
use std::sync::Arc;

use causalstore::{AckFrontier, CausalInbox, Offer, VectorClock};
use correctables::ConsistencyLevel;
use simnet::{
    ClientMsg, Ctx, Engine, Node, NodeId, Retry, RoundRobin, SimBinding, SimDuration, SimHost,
    SubmitWire, Timer, Wants, Wire,
};

use crate::object::{CrdtEffect, CrdtOp, CrdtState, CrdtVal};
use crate::types::Crdt;

/// Replication mode of a deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repl {
    /// Op-based: broadcast effects, causally deliver (CmRDT).
    Op,
    /// State-based: broadcast full states, merge (CvRDT).
    State,
}

/// One applied update in a replica's SEC log: identity, causal stamp,
/// and the effect itself. The oracle's SEC checker replays these logs —
/// same entry set in different orders must reach the same state.
#[derive(Clone, Debug)]
pub struct SecEntry {
    /// Index of the origin replica.
    pub origin: usize,
    /// 1-based position in the origin's local submission order.
    pub seq: u64,
    /// Lamport timestamp at the origin.
    pub ts: u64,
    /// Vector clock at the origin at accept time (own entry bumped).
    pub vc: VectorClock,
    /// The prepared downstream effect.
    pub effect: CrdtEffect,
}

impl SecEntry {
    /// Update identity (origin, seq) — unique across the deployment.
    pub fn id(&self) -> (usize, u64) {
        (self.origin, self.seq)
    }
}

/// Protocol messages of the CRDT store.
#[derive(Clone, Debug)]
pub enum CrdtMsg {
    /// Gateway ↔ replica: a submission, its wait-free weak view, or its
    /// post-quiescence strong view.
    Client(ClientMsg<u64, CrdtOp, CrdtVal>),
    /// Replica → replica (op mode): one effect (also retransmission).
    Effect {
        /// The logged entry, shared with the origin's SEC log, every
        /// copy of the fan-out and every retry.
        entry: Arc<SecEntry>,
    },
    /// Replica → replica (state mode): full state anti-entropy.
    SyncState {
        /// Index of the sender.
        from: usize,
        /// The sender's full state, copied once per broadcast and
        /// shared by every peer it goes to.
        state: Arc<CrdtState>,
        /// The sender's incorporated-updates vector.
        seen: VectorClock,
    },
    /// Replica → replica: `from` has incorporated updates up to `seen`.
    Ack {
        /// Index of the acknowledging replica.
        from: usize,
        /// The acker's incorporated-updates vector.
        seen: VectorClock,
    },
}

impl Wire for CrdtMsg {
    fn wire_size(&self) -> usize {
        // A coarse model: fixed framing plus causal stamps; state
        // snapshots are modeled as one word per incorporated update.
        match self {
            CrdtMsg::Client(msg) => msg.wire_size(),
            CrdtMsg::Effect { entry } => 48 + 8 * entry.vc.len(),
            CrdtMsg::SyncState { seen, .. } => {
                16 + 8 * seen.len() + 8 * seen.iter().sum::<u64>() as usize
            }
            CrdtMsg::Ack { seen, .. } => 16 + 8 * seen.len(),
        }
    }

    fn category(&self) -> &'static str {
        match self {
            CrdtMsg::Client(msg) => msg.category(),
            CrdtMsg::Effect { .. } | CrdtMsg::SyncState { .. } => "gossip",
            CrdtMsg::Ack { .. } => "ack",
        }
    }
}

impl SubmitWire for CrdtMsg {
    type Op = CrdtOp;
    type Val = CrdtVal;

    fn client(msg: ClientMsg<u64, CrdtOp, CrdtVal>) -> Self {
        CrdtMsg::Client(msg)
    }

    fn into_client(self) -> Option<ClientMsg<u64, CrdtOp, CrdtVal>> {
        match self {
            CrdtMsg::Client(msg) => Some(msg),
            _ => None,
        }
    }
}

/// One locally accepted update that some peer has not acknowledged.
struct OwnOp {
    /// Its position in the SEC log (what a retry re-sends).
    at: usize,
    /// The client to answer once quiescent (`None` if it wanted no
    /// strong view).
    client: Option<(u64, NodeId, CrdtOp)>,
}

/// One replica of the CRDT store.
pub struct CrdtReplica {
    /// This replica's index.
    id: usize,
    /// Replica count.
    n: usize,
    /// Node ids of all replicas, index-aligned.
    peers: Vec<NodeId>,
    /// Replication mode.
    mode: Repl,
    /// The composite CRDT state.
    state: CrdtState,
    /// The incorporated-updates vector (`delivered()[i]` = how many
    /// of replica `i`'s updates are reflected in `state`) and, in op
    /// mode, the effects received but not yet deliverable. In state
    /// mode nothing is ever buffered and the vector rides the merges.
    inbox: CausalInbox<Arc<SecEntry>>,
    /// Lamport clock.
    lamport: u64,
    /// Own submission count.
    next_seq: u64,
    /// Applied updates, in local application order — the SEC log. Each
    /// entry is the one the effect travelled in.
    log: Vec<Arc<SecEntry>>,
    /// Own updates by seq, from the first one some peer has not
    /// acknowledged (past `frontier.min()`) to the newest.
    own: BTreeMap<u64, OwnOp>,
    /// Strong reads parked on the write frontier they observed, in
    /// submission (so frontier) order: `(frontier_seq, client op,
    /// gateway, op)`.
    reads: Vec<(u64, u64, NodeId, CrdtOp)>,
    /// How many of this replica's updates each peer has acknowledged
    /// incorporating.
    frontier: AckFrontier,
    /// Anti-entropy deadline, pushed back on every message receipt
    /// while some peer lags.
    retransmit: Retry,
}

impl CrdtReplica {
    /// Replica `id` of the replicas `ids` (index-aligned node ids).
    pub fn new(id: usize, ids: &[NodeId], mode: Repl, broken: bool) -> Self {
        let n = ids.len();
        CrdtReplica {
            id,
            n,
            peers: ids.to_vec(),
            mode,
            state: if broken {
                CrdtState::new_broken()
            } else {
                CrdtState::new()
            },
            inbox: CausalInbox::new(n),
            lamport: 0,
            next_seq: 0,
            log: Vec::new(),
            own: BTreeMap::new(),
            reads: Vec::new(),
            frontier: AckFrontier::new(id, n),
            retransmit: Retry::new(SimDuration::from_millis(200)),
        }
    }

    /// The applied-update log in local application order (SEC input).
    pub fn sec_log(&self) -> Vec<SecEntry> {
        self.log.iter().map(|e| SecEntry::clone(e)).collect()
    }

    /// The current composite state.
    pub fn state(&self) -> CrdtState {
        self.state.clone()
    }

    /// Whether `peer` has acknowledged incorporating this replica's
    /// updates through `seq`.
    fn covered(&self, peer: usize, seq: u64) -> bool {
        self.frontier.acked_by(peer) >= seq
    }

    /// Whether every peer has acknowledged incorporating every update
    /// accepted here.
    fn all_covered(&self) -> bool {
        self.next_seq <= self.frontier.min()
    }

    /// Records what an `Ack` or `SyncState` of `peer` says it has seen.
    fn note_seen(&mut self, peer: usize, seen: &VectorClock) {
        self.frontier.ack(peer, seen[self.id], seen[peer]);
    }

    /// Keeps the retransmit timer running while some peer lags.
    fn arm_timer(&mut self, ctx: &mut Ctx<'_, CrdtMsg>) {
        let lagging = !self.all_covered() && self.n > 1;
        self.retransmit.arm(ctx, lagging);
    }

    fn seen(&self) -> &VectorClock {
        self.inbox.delivered()
    }

    /// Tells `peer` (or everyone else) what is incorporated here.
    fn ack(&self, ctx: &mut Ctx<'_, CrdtMsg>, only: Option<usize>) {
        for (i, peer) in self.peers.iter().enumerate() {
            if i != self.id && only.is_none_or(|o| o == i) {
                ctx.send(
                    *peer,
                    CrdtMsg::Ack {
                        from: self.id,
                        seen: self.seen().clone(),
                    },
                );
            }
        }
    }

    /// Sends the full state to every peer `to` picks, in index order:
    /// one copy of it, shared by all of them.
    fn broadcast_state(&self, ctx: &mut Ctx<'_, CrdtMsg>, to: impl Fn(usize) -> bool) {
        let mut state = None;
        for (i, &peer) in self.peers.iter().enumerate() {
            if i == self.id || !to(i) {
                continue;
            }
            let state = state.get_or_insert_with(|| Arc::new(self.state.clone()));
            ctx.send(
                peer,
                CrdtMsg::SyncState {
                    from: self.id,
                    state: Arc::clone(state),
                    seen: self.seen().clone(),
                },
            );
        }
    }

    /// Sends `op`'s wait-free weak view of the local state, if wanted,
    /// closing it unless strong is wanted too.
    fn answer_weak(
        &self,
        ctx: &mut Ctx<'_, CrdtMsg>,
        to: NodeId,
        op: u64,
        client_op: &CrdtOp,
        wants: Wants,
    ) {
        let weak = wants
            .weak
            .then(|| (ConsistencyLevel::WEAK, self.state.eval(client_op)));
        if let Some(msg) = ClientMsg::at_once(op, weak.into_iter().collect(), wants) {
            ctx.send(to, CrdtMsg::Client(msg));
        }
    }

    fn accept(
        &mut self,
        ctx: &mut Ctx<'_, CrdtMsg>,
        from: NodeId,
        op: u64,
        client_op: CrdtOp,
        wants: Wants,
    ) {
        if client_op.is_read() {
            // Reads replicate nothing: the weak view is the local state,
            // the strong view re-reads after quiescence of all *writes*
            // accepted here so far.
            self.answer_weak(ctx, from, op, &client_op, wants);
            if wants.strong {
                // Park on the current write frontier: the strong read
                // fires once every write accepted here so far is
                // incorporated everywhere.
                self.reads.push((self.next_seq, op, from, client_op));
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            return;
        }
        // Write: stamp, prepare at the pre-apply state, apply locally —
        // the coordination-free fast path.
        self.lamport += 1;
        self.next_seq += 1;
        let ctx_eff = crate::types::EffectCtx {
            replica: self.id,
            seq: self.next_seq,
            lamport: self.lamport,
        };
        let effect = self.state.prepare(&client_op, ctx_eff);
        self.state.effect(&effect);
        self.inbox.bump(self.id);
        let entry = Arc::new(SecEntry {
            origin: self.id,
            seq: self.next_seq,
            ts: self.lamport,
            vc: self.seen().clone(),
            effect,
        });
        let at = self.log.len();
        self.log.push(Arc::clone(&entry));
        match self.mode {
            Repl::Op => {
                for (i, &peer) in self.peers.iter().enumerate() {
                    if i != self.id {
                        let entry = Arc::clone(&entry);
                        ctx.send(peer, CrdtMsg::Effect { entry });
                    }
                }
            }
            Repl::State => self.broadcast_state(ctx, |_| true),
        }
        // Weak view: the post-apply local read — read-your-write, no
        // peer communication.
        self.answer_weak(ctx, from, op, &client_op, wants);
        self.own.insert(
            self.next_seq,
            OwnOp {
                at,
                client: wants.strong.then_some((op, from, client_op)),
            },
        );
        // Single-replica deployments have no peers to wait for.
        self.settle_pending(ctx);
        self.arm_timer(ctx);
    }

    /// Op mode: drains the buffer, applying every effect whose causal
    /// dependencies and CRDT precondition are satisfied, then acks the
    /// new incorporated frontier to all peers.
    fn deliver_buffered(&mut self, ctx: &mut Ctx<'_, CrdtMsg>) {
        let mut delivered = false;
        while let Some((_, _, e)) = self.inbox.pop_ready(|e| self.state.ready(&e.effect)) {
            self.state.effect(&e.effect);
            self.log.push(e);
            delivered = true;
        }
        if delivered {
            self.ack(ctx, None);
        }
    }

    /// Fires strong replies for own ops whose quiescence now holds, and
    /// drops them; then for the parked reads that quiescence covers.
    fn settle_pending(&mut self, ctx: &mut Ctx<'_, CrdtMsg>) {
        // Quiescent for seq: every peer has incorporated all our updates
        // through seq (and for reads, seq is the write frontier at
        // submission — all prior writes are stable). Both queues are in
        // seq order, so what closes is a prefix of each.
        let quiescent_through = self.frontier.min();
        let state = &self.state;
        let mut reply = |(op, gw, client_op): (u64, NodeId, CrdtOp)| {
            let view = ClientMsg::view(op, ConsistencyLevel::STRONG, state.eval(&client_op), true);
            ctx.send(gw, CrdtMsg::Client(view));
        };
        while let Some(e) = self.own.first_entry() {
            if *e.key() > quiescent_through {
                break;
            }
            if let Some(client) = e.remove().client {
                reply(client);
            }
        }
        let ready = self.reads.partition_point(|r| r.0 <= quiescent_through);
        for (_, op, gw, client_op) in self.reads.drain(..ready) {
            reply((op, gw, client_op));
        }
    }

    /// What a retry re-sends in op mode: for each peer in index order,
    /// the own updates it has not acknowledged, by seq. They are the
    /// suffix of `own` past its ack, since `own` keeps every own update
    /// past the least ack of all.
    fn unacked(&self) -> impl Iterator<Item = (usize, &Arc<SecEntry>)> + '_ {
        (0..self.n).filter(|&j| j != self.id).flat_map(move |j| {
            let floor = self.frontier.acked_by(j);
            self.own
                .range((Excluded(floor), Unbounded))
                .map(move |(_, o)| (j, &self.log[o.at]))
        })
    }
}

impl Node<CrdtMsg> for CrdtReplica {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CrdtMsg>, from: NodeId, msg: CrdtMsg) {
        match msg {
            CrdtMsg::Client(ClientMsg::Submit {
                op,
                client_op,
                wants,
            }) => self.accept(ctx, from, op, client_op, wants),
            CrdtMsg::Effect { entry } => {
                debug_assert_eq!(self.mode, Repl::Op, "effects only ship in op mode");
                let (origin, ts) = (entry.origin, entry.ts);
                match self.inbox.offer(origin, entry.vc.clone(), entry) {
                    // The origin must have lost our ack — re-ack.
                    Offer::AlreadyDelivered => return self.ack(ctx, Some(origin)),
                    Offer::Duplicate | Offer::Malformed => return,
                    Offer::Buffered => {}
                }
                self.lamport = self.lamport.max(ts) + 1;
                self.deliver_buffered(ctx);
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            CrdtMsg::SyncState {
                from: i,
                state,
                seen,
            } => {
                debug_assert_eq!(self.mode, Repl::State, "states only ship in state mode");
                self.state.merge(&state);
                self.inbox.merge_delivered(&seen);
                // The sender has what it sent; what we just merged is
                // also a lower bound on what an ack from us will report.
                self.note_seen(i, &seen);
                self.ack(ctx, Some(i));
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            CrdtMsg::Ack { from: i, seen } => {
                self.note_seen(i, &seen);
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            CrdtMsg::Client(ClientMsg::Views { .. }) => {
                debug_assert!(false, "replies are addressed to the gateway");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CrdtMsg>, _timer: Timer) {
        if !self.retransmit.fire(ctx) {
            return; // the deadline moved on
        }
        match self.mode {
            Repl::Op => {
                // Anti-entropy: re-send own effects any peer has not
                // acknowledged (covers lost effects and lost acks alike).
                for (j, e) in self.unacked() {
                    let entry = Arc::clone(e);
                    ctx.send(self.peers[j], CrdtMsg::Effect { entry });
                }
            }
            Repl::State => self.broadcast_state(ctx, |j| !self.covered(j, self.next_seq)),
        }
        self.arm_timer(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

/// A simulated CRDT store: three replicas plus a client gateway.
/// Faults, client deadlines, `settle`/`advance` and the clock mirror
/// come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimCrdtStore {
    host: SimHost<RoundRobin<CrdtMsg>>,
    broken: bool,
}

impl Deref for SimCrdtStore {
    type Target = SimHost<RoundRobin<CrdtMsg>>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimCrdtStore {
    /// Builds the op-shipping (CmRDT) deployment: one replica per paper
    /// site, gateway at `client_site`, all driven by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `client_site` is unknown.
    pub fn ec2(client_site: &str, seed: u64) -> Self {
        Self::build(client_site, seed, Repl::Op, false)
    }

    /// The state-shipping (CvRDT) deployment: full-state anti-entropy
    /// with [`Crdt::merge`] instead of effect delivery.
    pub fn ec2_state(client_site: &str, seed: u64) -> Self {
        Self::build(client_site, seed, Repl::State, false)
    }

    /// The deliberately broken deployment: counters replicated by
    /// shipping their new totals ([`crate::types::BrokenCrdt`]), whose
    /// effects do not commute — the fixture the oracle's SEC checker
    /// must reject.
    pub fn ec2_broken(client_site: &str, seed: u64) -> Self {
        Self::build(client_site, seed, Repl::Op, true)
    }

    fn build(client_site: &str, seed: u64, mode: Repl, broken: bool) -> Self {
        let (engine, replicas) = Engine::ec2(seed, |i, ids| {
            Box::new(CrdtReplica::new(i, ids, mode, broken))
        });
        let client = engine
            .topology()
            .site_named(client_site)
            .expect("known client site");
        let proto = RoundRobin::new(replicas.clone());
        SimCrdtStore {
            host: SimHost::new(engine, replicas, client, proto),
            broken,
        }
    }

    /// The two-level (weak/strong) binding.
    pub fn binding(&self) -> CrdtBinding {
        let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
        SimBinding::new(self.host.clone(), &levels)
    }

    /// The state every replica starts from (SEC replay origin).
    pub fn initial_state(&self) -> CrdtState {
        if self.broken {
            CrdtState::new_broken()
        } else {
            CrdtState::new()
        }
    }

    /// Every replica's SEC log, in its local application order — the
    /// input to the oracle's SEC checker (op mode; state mode logs only
    /// contain each replica's own updates).
    pub fn sec_logs(&self) -> Vec<Vec<SecEntry>> {
        self.each_replica(|r: &mut CrdtReplica| r.sec_log())
    }

    /// Every replica's current composite state.
    pub fn states(&self) -> Vec<CrdtState> {
        self.each_replica(|r: &mut CrdtReplica| r.state())
    }
}

/// The two-level (weak/strong) `Binding` over a [`SimCrdtStore`]:
/// weak views are coordination-free local reads, strong views close at
/// anti-entropy quiescence.
pub type CrdtBinding = SimBinding<RoundRobin<CrdtMsg>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_retries, drive, Retrying, Run, Timed};

    impl Retrying for CrdtReplica {
        fn retry(&self) -> &Retry {
            &self.retransmit
        }
    }

    /// Three replicas, each wrapped by `wrap` and watched at its timer,
    /// with the gateway at IRL.
    fn deployment<R: Node<CrdtMsg> + Retrying>(
        seed: u64,
        mode: Repl,
        reference: bool,
        wrap: impl Fn(CrdtReplica) -> R,
    ) -> SimHost<RoundRobin<CrdtMsg>> {
        let (engine, replicas) = Engine::ec2(seed, |i, ids| {
            let replica = CrdtReplica::new(i, ids, mode, false);
            Box::new(Timed::new(wrap(replica), reference))
        });
        let irl = engine.topology().site_named("IRL").expect("IRL");
        SimHost::new(engine, replicas.clone(), irl, RoundRobin::new(replicas))
    }

    fn op(i: u64) -> CrdtOp {
        match i % 4 {
            0 => CrdtOp::CtrAdd(i % 3, 1 + i as i64),
            1 => CrdtOp::SetAdd(i % 3, i % 8),
            2 => CrdtOp::CtrGet(i % 3),
            _ => CrdtOp::SetRemove(i % 3, i % 8),
        }
    }

    fn run(seed: u64, mode: Repl, reference: bool) -> Run {
        let host = deployment(seed, mode, reference, |replica| replica);
        drive(&host, 40, op, |r: &CrdtReplica| format!("{:?}", r.log))
    }

    /// Under the FRK–VRG cut the FRK and VRG replicas lag for good and
    /// push their retry back on every message. Each used to arm a fresh
    /// timer per message and ignore all but the newest; the one deadline
    /// timer retries at the same instants with none of those fires
    /// (seed 1, 120 ops: 135 fires against 408, of which 357 superseded,
    /// in op mode; 86 against 290 in state mode).
    #[test]
    fn anti_entropy_retries_at_the_generation_timers_instants_without_superseded_fires() {
        for mode in [Repl::Op, Repl::State] {
            for seed in [1, 7, 11] {
                let what = format!("{mode:?} seed {seed}");
                assert_same_retries(&what, run(seed, mode, false), run(seed, mode, true));
            }
        }
    }

    /// What one retry re-sends, as `(peer, origin, seq)`.
    type Resends = Vec<(usize, usize, u64)>;

    /// What a retry re-sent before `own` kept each update's place in the
    /// log: for each lagging peer, a walk of the whole SEC log for the
    /// own entries past its ack.
    fn walked(r: &CrdtReplica) -> Resends {
        let mut resends = Vec::new();
        for j in 0..r.n {
            if j == r.id || r.covered(j, r.next_seq) {
                continue;
            }
            let floor = r.frontier.acked_by(j);
            for e in &r.log {
                if e.origin == r.id && e.seq > floor {
                    resends.push((j, e.origin, e.seq));
                }
            }
        }
        resends
    }

    /// A replica that notes, at every due retry, what it re-sends beside
    /// what the log walk would have.
    struct Audited {
        replica: CrdtReplica,
        retries: Vec<(Resends, Resends)>,
    }

    impl Retrying for Audited {
        fn retry(&self) -> &Retry {
            &self.replica.retransmit
        }
    }

    impl Node<CrdtMsg> for Audited {
        fn on_message(&mut self, ctx: &mut Ctx<'_, CrdtMsg>, from: NodeId, msg: CrdtMsg) {
            self.replica.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, CrdtMsg>, timer: Timer) {
            let r = &self.replica;
            if r.retransmit
                .due()
                .is_some_and(|at| at <= ctx.now().as_nanos())
            {
                let index = r.unacked().map(|(j, e)| (j, e.origin, e.seq)).collect();
                self.retries.push((index, walked(r)));
            }
            self.replica.on_timer(ctx, timer);
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Under the FRK–VRG cut, every op-mode retry re-sends from `own`
    /// the `(peer, origin, seq)` sequence the walk of the SEC log found
    /// (each seed: 30 retries over 90-entry logs, re-sending 49–50
    /// effects).
    #[test]
    fn a_retry_resends_from_the_own_index_what_the_log_walk_found() {
        for seed in [1, 7, 11] {
            let host = deployment(seed, Repl::Op, false, |replica| Audited {
                replica,
                retries: Vec::new(),
            });
            drive(&host, 40, op, |_: &Audited| String::new());
            let audits = host.each_replica(|t: &mut Timed<Audited>| t.inner.retries.clone());
            let mut resent = 0;
            for (i, retries) in audits.iter().enumerate() {
                for (k, (index, walk)) in retries.iter().enumerate() {
                    assert_eq!(index, walk, "seed {seed}, replica {i}, retry {k}");
                    resent += index.len();
                }
            }
            assert!(resent > 0, "seed {seed}: no retry re-sent anything");
        }
    }

    /// A CRDT message: 152 B while an `Effect` carried its entry and a
    /// `SyncState` its state inline, 56 B with both shared. The engine
    /// moves an event of that size without calling `memcpy`.
    #[test]
    fn a_crdt_message_stays_a_few_words() {
        let size = std::mem::size_of::<CrdtMsg>();
        assert!(size <= 64, "CrdtMsg grew to {size} B");
    }

    /// A peer that keeps every effect it is sent and never answers, so
    /// the replica under test hears none of its updates acknowledged.
    #[derive(Default)]
    struct Silent {
        effects: Vec<Arc<SecEntry>>,
    }

    impl Node<CrdtMsg> for Silent {
        fn on_message(&mut self, _: &mut Ctx<'_, CrdtMsg>, _: NodeId, msg: CrdtMsg) {
            if let CrdtMsg::Effect { entry } = msg {
                self.effects.push(entry);
            }
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The FRK replica in op mode with two silent peers, after one write
    /// submitted by the IRL peer; the engine has run for `ms`.
    fn one_write_then(ms: u64) -> (Engine<CrdtMsg>, Vec<NodeId>) {
        let (mut engine, ids) = Engine::ec2(1, |i, ids| match i {
            0 => Box::new(CrdtReplica::new(0, ids, Repl::Op, false)),
            _ => Box::<Silent>::default(),
        });
        let submit = ClientMsg::Submit {
            op: 0,
            client_op: CrdtOp::CtrAdd(0, 1),
            wants: Wants::of(&[ConsistencyLevel::WEAK]),
        };
        engine.schedule_message(ids[1], ids[0], SimDuration::ZERO, CrdtMsg::Client(submit));
        engine.run_for(SimDuration::from_millis(ms));
        (engine, ids)
    }

    fn logged(engine: &mut Engine<CrdtMsg>, replica: NodeId) -> Arc<SecEntry> {
        let log = &engine.node_as::<CrdtReplica>(replica).log;
        assert_eq!(log.len(), 1, "one write logged");
        Arc::clone(&log[0])
    }

    /// An op-mode write prepares its entry once: the SEC log and both
    /// `Effect`s of the fan-out hold that one allocation, in flight and
    /// once received.
    #[test]
    fn a_write_and_its_effect_fan_out_share_one_entry() {
        let (mut engine, ids) = one_write_then(1);
        let entry = logged(&mut engine, ids[0]);
        // The log, this handle and the two effects still in flight.
        assert_eq!(Arc::strong_count(&entry), 4, "the fan-out copied the entry");
        engine.run_for(SimDuration::from_millis(100));
        for peer in [ids[1], ids[2]] {
            let effects = &engine.node_as::<Silent>(peer).effects;
            assert_eq!(effects.len(), 1, "one effect per peer before any retry");
            assert!(
                Arc::ptr_eq(&effects[0], &entry),
                "the fan-out copied the entry"
            );
        }
    }

    /// A retry re-sends the entry the log holds, not a copy of it.
    #[test]
    fn a_retry_resends_the_logged_entry() {
        let (mut engine, ids) = one_write_then(500);
        let entry = logged(&mut engine, ids[0]);
        for peer in [ids[1], ids[2]] {
            let effects = &engine.node_as::<Silent>(peer).effects;
            assert!(effects.len() > 1, "precondition: a retry re-sent the write");
            for (k, e) in effects.iter().enumerate() {
                assert!(Arc::ptr_eq(e, &entry), "send {k} copied the entry");
            }
        }
    }

    /// Without peers `frontier.min()` is `u64::MAX`: an update is
    /// quiescent once accepted, so a write and a strong read close strong
    /// from the handler that accepts them and leave nothing to retry.
    #[test]
    fn a_replica_without_peers_closes_writes_and_strong_reads_at_once() {
        use correctables::{Client, State};
        use simnet::{SiteId, Topology};
        for mode in [Repl::Op, Repl::State] {
            let (engine, ids) =
                Engine::with_replicas(Topology::ec2_frk_irl_vrg(), 1, &[SiteId(0)], |i, ids| {
                    Box::new(CrdtReplica::new(i, ids, mode, false))
                });
            let host = SimHost::new(engine, ids.clone(), SiteId(0), RoundRobin::new(ids));
            let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
            let client = Client::new(SimBinding::new(host.clone(), &levels));
            for op in [CrdtOp::CtrAdd(0, 5), CrdtOp::CtrGet(0)] {
                let c = if op.is_read() {
                    client.invoke_strong(op)
                } else {
                    client.invoke(op)
                };
                host.settle();
                assert_eq!(c.state(), State::Final, "{mode:?} {op:?}");
                let last = c.final_view().map(|v| (v.level, v.value));
                let strong = (ConsistencyLevel::STRONG, CrdtVal::Int(5));
                assert_eq!(last, Some(strong), "{mode:?} {op:?}");
            }
            host.each_replica(|r: &mut CrdtReplica| {
                assert!(r.own.is_empty() && r.reads.is_empty(), "{mode:?}");
                assert_eq!(r.retransmit.due(), None, "{mode:?}");
            });
        }
    }
}
