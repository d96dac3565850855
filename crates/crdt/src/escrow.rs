//! Segmented invariant confluence: escrow-style ticket sales.
//!
//! The global invariant — never sell more tickets than exist — is not
//! invariant-confluent under plain merge, so a naive CRDT cannot keep
//! it. Following Whittaker's *segmented* invariant confluence, the
//! stock is partitioned into per-replica **escrow segments**: replica
//! `i` owns `initial[i]` tickets and sells from its own segment with no
//! coordination at all (the weak path). Only when a segment runs dry
//! does the replica run a **transfer round** — ask every peer to grant
//! half its remainder — and that is the only point the strong path's
//! coordination is paid. The numbers in EXPERIMENTS.md quantify the
//! gap; Whittaker reports 10–100× over linearizable replication for
//! exactly this workload shape.
//!
//! Why this never oversells: [`EscrowState`] is a CRDT of single-writer
//! monotone counters — `sold[i]` and the grant row `granted[i][·]` are
//! only ever bumped by replica `i`, so pointwise-max merge is exact for
//! the rows a replica sells against, and *under*-approximates only the
//! incoming grants `granted[·][i]`. A replica's local `remaining(i)` is
//! therefore a lower bound of the truth, and selling against a lower
//! bound is always safe. The oracle's `check_escrow` verifies the
//! invariant over merged final states in every explorer run.
//!
//! The replicas' ledger anti-entropy arms one retry deadline each
//! ([`simnet::Retry`]), like the CRDT store's; the client half is the
//! round-robin stores' shared envelope and binding ([`EscrowBinding`]).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, Range};

use correctables::ConsistencyLevel;
use simnet::{
    ClientMsg, Ctx, Engine, Node, NodeId, Retry, RoundRobin, SimBinding, SimDuration, SimHost,
    SubmitWire, Timer, Wants, Wire,
};

/// The escrow ledger: a join-semilattice of single-writer counters.
///
/// One buffer laid out `initial | sold | granted`: the `n` fixed
/// per-replica segment sizes, the tickets each replica has sold, then
/// the `n × n` grant matrix row by row — `granted[i][j]`, the total
/// replica `i` has granted to `j`, is cell `2n + i·n + j`. `sold[i]`
/// and grant row `i` are written only by replica `i`, and only grow.
/// Copying a ledger into a message is one allocation; `Debug` prints
/// the three parts as separate fields, `granted` as rows.
#[derive(Clone, PartialEq, Eq)]
pub struct EscrowState {
    n: usize,
    cells: Vec<u64>,
}

impl EscrowState {
    /// A fresh ledger with the given segment allocation.
    pub fn new(initial: Vec<u64>) -> EscrowState {
        let n = initial.len();
        let mut cells = initial;
        cells.resize(2 * n + n * n, 0);
        EscrowState { n, cells }
    }

    /// Replica count.
    pub fn n(&self) -> usize {
        self.n
    }

    fn initial(&self) -> &[u64] {
        &self.cells[..self.n]
    }

    fn sold(&self) -> &[u64] {
        &self.cells[self.n..2 * self.n]
    }

    fn sold_mut(&mut self) -> &mut [u64] {
        &mut self.cells[self.n..2 * self.n]
    }

    /// The cells of grant row `i`, `granted[i][..]`.
    fn row(&self, i: usize) -> Range<usize> {
        let at = 2 * self.n + i * self.n;
        at..at + self.n
    }

    /// The monotone counters: `sold`, then `granted`.
    fn counters(&self) -> &[u64] {
        &self.cells[self.n..]
    }

    /// Replica `i`'s current allocation: its segment plus incoming
    /// grants minus outgoing grants.
    pub fn alloc(&self, i: usize) -> u64 {
        let incoming: u64 = (0..self.n).map(|j| self.cells[self.row(j)][i]).sum();
        let outgoing: u64 = self.cells[self.row(i)].iter().sum();
        self.initial()[i]
            .saturating_add(incoming)
            .saturating_sub(outgoing)
    }

    /// Replica `i`'s unsold remainder (a lower bound under merge lag).
    pub fn remaining(&self, i: usize) -> u64 {
        self.alloc(i).saturating_sub(self.sold()[i])
    }

    /// Total stock.
    pub fn total_initial(&self) -> u64 {
        self.initial().iter().sum()
    }

    /// Total sold across all replicas (in this state's view).
    pub fn total_sold(&self) -> u64 {
        self.sold().iter().sum()
    }

    /// Replica `i`'s sold count.
    pub fn sold_of(&self, i: usize) -> u64 {
        self.sold()[i]
    }

    /// Sells one ticket from `i`'s segment if it has remainder.
    pub fn sell(&mut self, i: usize) -> bool {
        if self.remaining(i) > 0 {
            self.sold_mut()[i] += 1;
            true
        } else {
            false
        }
    }

    /// Grants up to `amount` tickets from `from`'s remainder to `to`;
    /// returns what was actually granted.
    pub fn grant(&mut self, from: usize, to: usize, amount: u64) -> u64 {
        let amt = amount.min(self.remaining(from));
        let row = self.row(from);
        self.cells[row][to] += amt;
        amt
    }

    /// Join: pointwise max of all monotone counters. Exact for every
    /// single-writer row, which is what makes local sells safe.
    pub fn merge(&mut self, other: &EscrowState) {
        debug_assert_eq!(self.initial(), other.initial(), "segment layouts differ");
        let n = self.n;
        for (a, b) in self.cells[n..].iter_mut().zip(other.counters()) {
            *a = (*a).max(*b);
        }
    }

    /// Whether this state dominates `other` (merge would be a no-op).
    pub fn covers(&self, other: &EscrowState) -> bool {
        self.counters()
            .iter()
            .zip(other.counters())
            .all(|(a, b)| a >= b)
    }
}

/// Prints what `#[derive(Debug)]` printed when the ledger was three
/// nested vectors (the determinism digests hash it).
impl fmt::Debug for EscrowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<&[u64]> = self.cells[2 * self.n..].chunks(self.n.max(1)).collect();
        f.debug_struct("EscrowState")
            .field("initial", &self.initial())
            .field("sold", &self.sold())
            .field("granted", &rows)
            .finish()
    }
}

/// Ticket-office operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscrowOp {
    /// Buy one ticket.
    Buy,
    /// How many tickets are left?
    Avail,
}

/// Ticket-office results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sale {
    /// A ticket was sold. `fast` marks the coordination-free segment
    /// path (vs. a transfer round).
    Confirmed {
        /// Sold from the local segment without coordination.
        fast: bool,
    },
    /// No tickets anywhere (after a transfer round found none).
    SoldOut,
    /// Remaining-stock answer to [`EscrowOp::Avail`]: local remainder
    /// at weak, global remainder at strong.
    Stock(u64),
}

/// Protocol messages of the escrow store.
#[derive(Clone, Debug)]
pub enum EscrowMsg {
    /// Gateway ↔ replica: a submission, its wait-free weak view, or a
    /// view that needed peer communication.
    Client(ClientMsg<u64, EscrowOp, Sale>),
    /// Replica → replica: ledger anti-entropy.
    Sync {
        /// Sender index.
        from: usize,
        /// Sender's ledger.
        state: EscrowState,
    },
    /// Replica → replica: anti-entropy reply (receiver's ledger).
    SyncAck {
        /// Sender index.
        from: usize,
        /// Sender's ledger.
        state: EscrowState,
    },
    /// Replica → replica: `asker` is out of tickets (or polling);
    /// grant from your remainder.
    TransferReq {
        /// Requesting replica.
        asker: usize,
        /// Round identity (scoped to the asker).
        nonce: u64,
        /// Tickets wanted (0 = state poll only, grant nothing).
        need: u64,
    },
    /// Replica → replica: the grant (carried in the granter's ledger).
    TransferGrant {
        /// Granting replica.
        granter: usize,
        /// Round identity.
        nonce: u64,
        /// The granter's ledger, grant included.
        state: EscrowState,
    },
}

impl Wire for EscrowMsg {
    fn wire_size(&self) -> usize {
        // Ledger snapshots are n sold counters plus an n×n grant matrix.
        let ledger = |s: &EscrowState| 8 * (2 * s.n() + s.n() * s.n());
        match self {
            EscrowMsg::Client(msg) => msg.wire_size(),
            EscrowMsg::Sync { state, .. } | EscrowMsg::SyncAck { state, .. } => 16 + ledger(state),
            EscrowMsg::TransferReq { .. } => 32,
            EscrowMsg::TransferGrant { state, .. } => 24 + ledger(state),
        }
    }

    fn category(&self) -> &'static str {
        match self {
            EscrowMsg::Client(msg) => msg.category(),
            EscrowMsg::Sync { .. } | EscrowMsg::SyncAck { .. } => "gossip",
            EscrowMsg::TransferReq { .. } | EscrowMsg::TransferGrant { .. } => "transfer",
        }
    }
}

impl SubmitWire for EscrowMsg {
    type Op = EscrowOp;
    type Val = Sale;

    fn client(msg: ClientMsg<u64, EscrowOp, Sale>) -> Self {
        EscrowMsg::Client(msg)
    }

    fn into_client(self) -> Option<ClientMsg<u64, EscrowOp, Sale>> {
        match self {
            EscrowMsg::Client(msg) => Some(msg),
            _ => None,
        }
    }
}

/// A transfer round in flight at the asker.
struct Round {
    op: u64,
    gw: NodeId,
    wants: Wants,
    client_op: EscrowOp,
    replies: usize,
}

/// A fast sale waiting for its strong close (sold-stability).
struct PendingStrong {
    /// Our sold count at sale time; stable once every peer's acked
    /// ledger reports at least this much of our column.
    mark: u64,
    op: u64,
    gw: NodeId,
    val: Sale,
}

/// One replica of the escrow store.
pub struct EscrowReplica {
    id: usize,
    n: usize,
    peers: Vec<NodeId>,
    /// Pay a transfer round on *every* buy — the coordination baseline
    /// the weak path is measured against.
    strong_only: bool,
    state: EscrowState,
    /// Last ledger each peer acknowledged holding.
    peer_state: Vec<EscrowState>,
    next_nonce: u64,
    rounds: BTreeMap<u64, Round>,
    pending_strong: Vec<PendingStrong>,
    /// Anti-entropy deadline, pushed back on every message receipt
    /// while some peer lags.
    retransmit: Retry,
}

impl EscrowReplica {
    /// A replica with index `id` out of `allocs.len()`.
    pub fn new(id: usize, allocs: Vec<u64>, strong_only: bool) -> Self {
        let n = allocs.len();
        EscrowReplica {
            id,
            n,
            peers: Vec::new(),
            strong_only,
            state: EscrowState::new(allocs.clone()),
            peer_state: vec![EscrowState::new(allocs); n],
            next_nonce: 0,
            rounds: BTreeMap::new(),
            pending_strong: Vec::new(),
            retransmit: Retry::new(SimDuration::from_millis(200)),
        }
    }

    /// Registers the node ids of all replicas (index-aligned).
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        assert_eq!(peers.len(), self.n, "peer list must cover all replicas");
        self.peers = peers;
    }

    /// The current ledger.
    pub fn state(&self) -> EscrowState {
        self.state.clone()
    }

    fn arm_timer(&mut self, ctx: &mut Ctx<'_, EscrowMsg>) {
        let lagging = (0..self.n).any(|j| j != self.id && !self.peer_state[j].covers(&self.state));
        self.retransmit.arm(ctx, lagging && self.n > 1);
    }

    fn sync_peers(&self, ctx: &mut Ctx<'_, EscrowMsg>, only_lagging: bool) {
        for (j, &peer) in self.peers.iter().enumerate() {
            if j == self.id || (only_lagging && self.peer_state[j].covers(&self.state)) {
                continue;
            }
            ctx.send(
                peer,
                EscrowMsg::Sync {
                    from: self.id,
                    state: self.state.clone(),
                },
            );
        }
    }

    /// Starts a transfer round; the reply to the client fires once all
    /// peers have answered (or the gateway's client timeout fails it).
    fn start_round(
        &mut self,
        ctx: &mut Ctx<'_, EscrowMsg>,
        op: u64,
        gw: NodeId,
        wants: Wants,
        client_op: EscrowOp,
        need: u64,
    ) {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.rounds.insert(
            nonce,
            Round {
                op,
                gw,
                wants,
                client_op,
                replies: 0,
            },
        );
        for (j, &peer) in self.peers.iter().enumerate() {
            if j != self.id {
                ctx.send(
                    peer,
                    EscrowMsg::TransferReq {
                        asker: self.id,
                        nonce,
                        need,
                    },
                );
            }
        }
        if self.n == 1 {
            self.finish_round(ctx, nonce);
        }
    }

    fn finish_round(&mut self, ctx: &mut Ctx<'_, EscrowMsg>, nonce: u64) {
        let Some(r) = self.rounds.remove(&nonce) else {
            return;
        };
        let val = match r.client_op {
            EscrowOp::Buy => {
                if self.state.sell(self.id) {
                    Sale::Confirmed { fast: false }
                } else {
                    Sale::SoldOut
                }
            }
            // After hearing every peer, the merged ledger's global
            // remainder is exact up to sales concurrent with the round.
            EscrowOp::Avail => Sale::Stock(
                self.state
                    .total_initial()
                    .saturating_sub(self.state.total_sold()),
            ),
        };
        let level = if r.wants.strong {
            ConsistencyLevel::STRONG
        } else {
            ConsistencyLevel::WEAK
        };
        let view = ClientMsg::view(r.op, level, val, true);
        ctx.send(r.gw, EscrowMsg::Client(view));
        self.sync_peers(ctx, false);
    }

    fn settle_pending(&mut self, ctx: &mut Ctx<'_, EscrowMsg>) {
        let (me, n, peer_state) = (self.id, self.n, &self.peer_state);
        self.pending_strong.retain(|p| {
            let stable = n == 1 || (0..n).all(|j| j == me || peer_state[j].sold_of(me) >= p.mark);
            if stable {
                // The fast sale is now incorporated everywhere; the
                // strong view confirms the same outcome.
                let view = ClientMsg::view(p.op, ConsistencyLevel::STRONG, p.val, true);
                ctx.send(p.gw, EscrowMsg::Client(view));
            }
            !stable
        });
    }

    fn accept(
        &mut self,
        ctx: &mut Ctx<'_, EscrowMsg>,
        from: NodeId,
        op: u64,
        client_op: EscrowOp,
        wants: Wants,
    ) {
        let answer = |ctx: &mut Ctx<'_, EscrowMsg>, weak: Sale| {
            let views = wants.weak.then_some((ConsistencyLevel::WEAK, weak));
            if let Some(msg) = ClientMsg::at_once(op, views.into_iter().collect(), wants) {
                ctx.send(from, EscrowMsg::Client(msg));
            }
        };
        match client_op {
            EscrowOp::Buy if !self.strong_only && self.state.remaining(self.id) > 0 => {
                // Fast path: sell from the local segment, zero
                // coordination. Safe because `remaining` is a lower
                // bound (module docs).
                self.state.sell(self.id);
                let val = Sale::Confirmed { fast: true };
                answer(ctx, val);
                if wants.strong {
                    self.pending_strong.push(PendingStrong {
                        mark: self.state.sold_of(self.id),
                        op,
                        gw: from,
                        val,
                    });
                }
                self.sync_peers(ctx, false);
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            EscrowOp::Buy => {
                // Segment exhausted (or strong-only baseline): the one
                // place coordination is paid — a transfer round.
                let need = if self.state.remaining(self.id) > 0 {
                    0
                } else {
                    1
                };
                self.start_round(ctx, op, from, wants, client_op, need);
            }
            EscrowOp::Avail => {
                answer(ctx, Sale::Stock(self.state.remaining(self.id)));
                if wants.strong {
                    // Global remainder needs everyone's ledger: a
                    // need-0 transfer round is exactly a state poll.
                    self.start_round(ctx, op, from, wants, client_op, 0);
                }
            }
        }
    }
}

impl Node<EscrowMsg> for EscrowReplica {
    fn on_message(&mut self, ctx: &mut Ctx<'_, EscrowMsg>, from: NodeId, msg: EscrowMsg) {
        match msg {
            EscrowMsg::Client(ClientMsg::Submit {
                op,
                client_op,
                wants,
            }) => self.accept(ctx, from, op, client_op, wants),
            EscrowMsg::Sync { from: i, state } => {
                self.state.merge(&state);
                self.peer_state[i].merge(&state);
                ctx.send(
                    self.peers[i],
                    EscrowMsg::SyncAck {
                        from: self.id,
                        state: self.state.clone(),
                    },
                );
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            EscrowMsg::SyncAck { from: i, state } => {
                self.state.merge(&state);
                self.peer_state[i].merge(&state);
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            EscrowMsg::TransferReq { asker, nonce, need } => {
                if need > 0 {
                    // Grant half the remainder (rounded up): repeated
                    // exhaustion drains peers geometrically, so a run
                    // on one segment costs O(log stock) rounds total.
                    let half = self.state.remaining(self.id).div_ceil(2);
                    self.state.grant(self.id, asker, half.max(need.min(1)));
                }
                ctx.send(
                    self.peers[asker],
                    EscrowMsg::TransferGrant {
                        granter: self.id,
                        nonce,
                        state: self.state.clone(),
                    },
                );
                self.arm_timer(ctx);
            }
            EscrowMsg::TransferGrant {
                granter,
                nonce,
                state,
            } => {
                self.state.merge(&state);
                self.peer_state[granter].merge(&state);
                if let Some(r) = self.rounds.get_mut(&nonce) {
                    r.replies += 1;
                    if r.replies == self.n - 1 {
                        self.finish_round(ctx, nonce);
                    }
                }
                self.settle_pending(ctx);
                self.arm_timer(ctx);
            }
            EscrowMsg::Client(ClientMsg::Views { .. }) => {
                debug_assert!(false, "replies are addressed to the gateway");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, EscrowMsg>, _timer: Timer) {
        if !self.retransmit.fire(ctx) {
            return; // the deadline moved on
        }
        self.sync_peers(ctx, true);
        self.arm_timer(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

/// A simulated escrow ticket store: three replicas plus a gateway.
/// Faults, client deadlines, `settle`/`advance`/`step`, `now` and the
/// clock mirror come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimEscrow {
    host: SimHost<RoundRobin<EscrowMsg>>,
    /// Index of the replica colocated with the client site.
    client_replica: usize,
}

impl Deref for SimEscrow {
    type Target = SimHost<RoundRobin<EscrowMsg>>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimEscrow {
    /// Builds the deployment: one replica per paper site with segment
    /// `allocs[i]`, gateway at `client_site`. With `strong_only`, every
    /// buy pays a transfer round — the coordination baseline.
    ///
    /// # Panics
    ///
    /// Panics if `client_site` is unknown or `allocs` is not one
    /// segment per site.
    pub fn ec2(allocs: Vec<u64>, client_site: &str, seed: u64, strong_only: bool) -> Self {
        let (mut engine, replicas) = Engine::ec2(seed, |i| {
            Box::new(EscrowReplica::new(i, allocs.clone(), strong_only))
        });
        assert_eq!(allocs.len(), replicas.len(), "one segment per site");
        for id in &replicas {
            engine
                .node_as::<EscrowReplica>(*id)
                .set_peers(replicas.clone());
        }
        // Replica `i` lives at `SiteId(i)`.
        let client = engine
            .topology()
            .site_named(client_site)
            .expect("known client site");
        let proto = RoundRobin::new(replicas.clone());
        SimEscrow {
            host: SimHost::new(engine, replicas, client, proto),
            client_replica: client.0,
        }
    }

    /// The two-level (weak/strong) binding.
    pub fn binding(&self) -> EscrowBinding {
        let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
        SimBinding::new(self.host.clone(), &levels)
    }

    /// Pins all submissions to the replica colocated with the client
    /// site (instead of round-robin) — the latency-measurement setup:
    /// weak views then never cross a WAN link.
    pub fn set_local_origin(&self, on: bool) {
        self.with_proto(|p| p.pinned = on.then_some(self.client_replica));
    }

    /// Every replica's current ledger (input to `check_escrow`).
    pub fn states(&self) -> Vec<EscrowState> {
        self.each_replica(|r: &mut EscrowReplica| r.state())
    }
}

/// The two-level (weak/strong) `Binding` over a [`SimEscrow`]: weak
/// buys are coordination-free segment sales, strong views wait for
/// sold-stability (fast path) or a transfer round (slow path).
pub type EscrowBinding = SimBinding<RoundRobin<EscrowMsg>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_retries, drive, Retrying, Run, Timed};

    impl Retrying for EscrowReplica {
        fn retry(&self) -> &Retry {
            &self.retransmit
        }
    }

    fn run(seed: u64, reference: bool) -> Run {
        let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
        let (engine, replicas) = Engine::ec2(seed, |i| {
            let mut replica = EscrowReplica::new(i, vec![60, 30, 30], false);
            replica.set_peers(ids.clone());
            Box::new(Timed::new(replica, reference))
        });
        let irl = engine.topology().site_named("IRL").expect("IRL");
        let host = SimHost::new(engine, replicas.clone(), irl, RoundRobin::new(replicas));
        let op = |i: u64| match i % 5 {
            4 => EscrowOp::Avail,
            _ => EscrowOp::Buy,
        };
        drive(&host, 40, op, |r: &EscrowReplica| format!("{:?}", r.state))
    }

    /// The escrow replicas' ledger anti-entropy under the FRK–VRG cut:
    /// the same retry instants as the generation timers, one timer per
    /// deadline instead of one per message (seed 1, 120 ops: 126 fires
    /// against 505, of which 499 superseded).
    #[test]
    fn ledger_sync_retries_at_the_generation_timers_instants_without_superseded_fires() {
        for seed in [1, 7, 11] {
            let what = format!("seed {seed}");
            assert_same_retries(&what, run(seed, false), run(seed, true));
        }
    }

    /// The ledger before it was one buffer: three nested vectors, the
    /// reference the flat layout is held to.
    mod nested {
        #[derive(Clone, Debug)]
        pub struct EscrowState {
            initial: Vec<u64>,
            sold: Vec<u64>,
            granted: Vec<Vec<u64>>,
        }

        impl EscrowState {
            pub fn new(initial: Vec<u64>) -> EscrowState {
                let n = initial.len();
                EscrowState {
                    initial,
                    sold: vec![0; n],
                    granted: vec![vec![0; n]; n],
                }
            }

            fn n(&self) -> usize {
                self.initial.len()
            }

            fn alloc(&self, i: usize) -> u64 {
                let incoming: u64 = (0..self.n()).map(|j| self.granted[j][i]).sum();
                let outgoing: u64 = self.granted[i].iter().sum();
                self.initial[i]
                    .saturating_add(incoming)
                    .saturating_sub(outgoing)
            }

            pub fn remaining(&self, i: usize) -> u64 {
                self.alloc(i).saturating_sub(self.sold[i])
            }

            pub fn total_sold(&self) -> u64 {
                self.sold.iter().sum()
            }

            pub fn sell(&mut self, i: usize) -> bool {
                if self.remaining(i) > 0 {
                    self.sold[i] += 1;
                    true
                } else {
                    false
                }
            }

            pub fn grant(&mut self, from: usize, to: usize, amount: u64) -> u64 {
                let amt = amount.min(self.remaining(from));
                self.granted[from][to] += amt;
                amt
            }

            pub fn merge(&mut self, other: &EscrowState) {
                for i in 0..self.n() {
                    self.sold[i] = self.sold[i].max(other.sold[i]);
                    for j in 0..self.n() {
                        self.granted[i][j] = self.granted[i][j].max(other.granted[i][j]);
                    }
                }
            }

            pub fn covers(&self, other: &EscrowState) -> bool {
                (0..self.n()).all(|i| {
                    self.sold[i] >= other.sold[i]
                        && (0..self.n()).all(|j| self.granted[i][j] >= other.granted[i][j])
                })
            }
        }
    }

    /// Replicas' ledgers the differential test keeps side by side.
    const COPIES: usize = 3;

    proptest::proptest! {
        /// Random sells, grants and merges among three copies of a
        /// ledger of one to five segments, applied to the flat ledger
        /// and to the nested reference: every answer, every `remaining`,
        /// `covers` and `total_sold`, and the `Debug` string (plain and
        /// pretty) are the same after each step.
        #[test]
        fn the_flat_ledger_answers_what_the_nested_ledger_answered(
            n in 1usize..=5,
            initial in proptest::collection::vec(0u64..12, 5),
            ops in proptest::collection::vec(
                (0u8..3, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>(), 0u64..8),
                0..60,
            ),
        ) {
            let initial = initial[..n].to_vec();
            let mut flat = vec![EscrowState::new(initial.clone()); COPIES];
            let mut nested = vec![nested::EscrowState::new(initial); COPIES];
            for (step, &(kind, a, b, amount)) in ops.iter().enumerate() {
                let (c, i, j) = (a % COPIES, a % n, b % n);
                match kind {
                    0 => proptest::prop_assert_eq!(flat[c].sell(i), nested[c].sell(i), "step {}", step),
                    1 => proptest::prop_assert_eq!(
                        flat[c].grant(i, j, amount),
                        nested[c].grant(i, j, amount),
                        "step {}",
                        step
                    ),
                    _ => {
                        let d = b % COPIES;
                        let (other, other_nested) = (flat[d].clone(), nested[d].clone());
                        flat[c].merge(&other);
                        nested[c].merge(&other_nested);
                    }
                }
                for c in 0..COPIES {
                    proptest::prop_assert_eq!(format!("{:?}", flat[c]), format!("{:?}", nested[c]));
                    proptest::prop_assert_eq!(format!("{:#?}", flat[c]), format!("{:#?}", nested[c]));
                    proptest::prop_assert_eq!(flat[c].total_sold(), nested[c].total_sold());
                    for i in 0..n {
                        proptest::prop_assert_eq!(flat[c].remaining(i), nested[c].remaining(i));
                    }
                    for d in 0..COPIES {
                        proptest::prop_assert_eq!(
                            flat[c].covers(&flat[d]),
                            nested[c].covers(&nested[d]),
                            "step {}: {} covers {}",
                            step,
                            c,
                            d
                        );
                    }
                }
            }
        }
    }
}
