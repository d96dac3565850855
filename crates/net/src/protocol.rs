//! What a replica serves beside the quorum store: the version-2
//! handshake and the spec store.
//!
//! The quorum-store protocol itself is [`quorumstore::ReplicaCore`] —
//! the same sans-IO state machine the simulator hosts, so what the
//! explorer explores is what these sockets serve; the reactor hands it
//! every [`NetMsg::Store`] frame and implements its
//! [`quorumstore::Egress`]. Every other [`NetMsg`] comes here, to
//! [`SpecCore`]: the update/causal/strong spec store riding the same
//! connections. Like the quorum core it never touches a socket — its
//! messages leave through [`NetEgress`], which the reactor implements
//! over its connection table and this module's tests over a `Vec`.

use std::collections::BTreeMap;

use correctables::spec::{apply_cloned, CounterSpec, RegisterSpec, SeqSpec};
use correctables::ConsistencyLevel;
use specstore::{CausalInbox, Offer, OrderKey, ReplayLog, Update, UpdateId, VectorClock};

use crate::wire::{LevelInfo, NetMsg, SpecOp, MAX_LEVELS, WIRE_VERSION};

/// Where the spec store's messages (and the handshake reply) go. The
/// envelope-level sibling of [`quorumstore::Egress`], whose messages
/// the same host wraps into [`NetMsg::Store`].
pub(crate) trait NetEgress {
    /// Sends `msg` on client connection `conn`; a connection that no
    /// longer exists drops it silently.
    fn to_client(&mut self, conn: u64, msg: &NetMsg);

    /// Sends `msg` down every currently-live peer link.
    fn to_peers(&mut self, msg: &NetMsg);
}

/// One replicated spec-store update: the unit of the gossip protocol
/// and of the agreed `(ts, origin, seq)` total order.
type SpecUpdate = Update<SpecOp>;

/// The object the TCP spec store serves: a register map and a counter
/// map side by side, each [`SpecOp`] stepping the one it names.
struct RegCtrSpec {
    reg: RegisterSpec,
    ctr: CounterSpec,
}

impl SeqSpec for RegCtrSpec {
    type Op = SpecOp;
    type Ret = u64;
    type State = (
        <RegisterSpec as SeqSpec>::State,
        <CounterSpec as SeqSpec>::State,
    );

    fn initial(&self) -> Self::State {
        (self.reg.initial(), self.ctr.initial())
    }

    fn apply(&self, state: &Self::State, op: &SpecOp) -> (Self::State, u64) {
        apply_cloned(self, state, op)
    }

    fn apply_mut(&self, state: &mut Self::State, op: &SpecOp) -> u64 {
        match op {
            SpecOp::Reg(op) => self.reg.apply_mut(&mut state.0, op),
            SpecOp::Ctr(op) => self.ctr.apply_mut(&mut state.1, op),
        }
    }
}

fn gossip_of(u: &SpecUpdate) -> NetMsg {
    NetMsg::SpecGossip {
        origin: u.id.origin as u32,
        seq: u.id.seq,
        ts: u.ts,
        vc: u.vc.0.clone(),
        op: u.op.clone(),
    }
}

/// Which of the four served levels a submission asked for.
#[derive(Clone, Copy)]
struct SpecWants {
    weak: bool,
    update: bool,
    causal: bool,
    strong: bool,
}

/// An own update still owed views or acks.
struct SpecPending {
    conn: u64,
    client: u64,
    client_seq: u64,
    key: OrderKey,
    wants: SpecWants,
    /// Per-replica causal-delivery acks (own entry pre-set).
    acked: Vec<bool>,
    /// Per-replica submission counts reported with each ack; a strong
    /// view additionally waits until these are delivered locally.
    acker_seq: Vec<u64>,
    causal_sent: bool,
    strong_sent: bool,
}

impl SpecPending {
    fn fully_acked(&self) -> bool {
        self.acked.iter().all(|a| *a)
    }

    fn served(&self) -> bool {
        (!self.wants.causal || self.causal_sent) && (!self.wants.strong || self.strong_sent)
    }
}

/// The TCP-side spec store: the update-consistency / causal / strong
/// machinery of `specstore::SpecReplica`, ported onto real peer links.
///
/// Every replica keeps a totally-ordered update log (lamport `(ts,
/// origin, seq)` order), a vector clock gating causal delivery (CBCAST
/// buffering), and — for its *own* updates — per-peer delivery acks.
/// The four views a submission can ask for:
///
/// - **weak** — the op applied on top of the local replay, replied
///   before any coordination;
/// - **update** — the op's return in the agreed total order as
///   currently known locally (wait-free; the order is what all
///   replicas converge to);
/// - **causal** — replied once at least one peer confirmed causal
///   delivery (evidence the update propagated with its causal past);
/// - **strong** — replied once *every* replica delivered the update
///   **and** everything those replicas had themselves submitted by
///   their ack is delivered here, so the op's position in the total
///   order can no longer change (stability, not just receipt).
///
/// Anti-entropy is connection-driven rather than timer-driven: peer
/// links re-gossip all not-fully-acked own updates whenever a link
/// comes (back) up, and a replica re-acks retransmissions of updates it
/// already delivered — so a flapping link cannot wedge a strong view
/// open, and no timers race the event loop.
///
/// Replica ids double as vector-clock indexes, so a spec deployment
/// requires ids `0..n` — exactly what [`crate::spawn_local_cluster`]
/// assigns. Gossip from an out-of-range origin is dropped.
pub(crate) struct SpecCore {
    id: u32,
    n: usize,
    lamport: u64,
    /// Own submissions so far (1-based seq of the next own update).
    next_seq: u64,
    /// Deliveries per origin (own entry counts own submissions), and
    /// the updates received but not yet causally deliverable.
    inbox: CausalInbox<SpecUpdate>,
    /// Causally delivered updates, sorted by `(ts, origin, seq)`, and
    /// the views replayed from them.
    log: ReplayLog<RegCtrSpec>,
    /// Own updates awaiting views or acks, by own seq — ordered, so
    /// replies that one ack releases leave in submission order.
    pending: BTreeMap<u64, SpecPending>,
}

impl SpecCore {
    /// The spec store of replica `id` in a set of `n`.
    pub(crate) fn new(id: u32, n: usize) -> SpecCore {
        SpecCore {
            id,
            n,
            lamport: 0,
            next_seq: 0,
            inbox: CausalInbox::new(n),
            log: ReplayLog::new(RegCtrSpec {
                reg: RegisterSpec::default(),
                ctr: CounterSpec,
            }),
            pending: BTreeMap::new(),
        }
    }

    /// Dispatches one inbound envelope from connection `conn` that is
    /// not a [`NetMsg::Store`] frame (those are the quorum core's): the
    /// version-2 handshake and the spec-store messages.
    pub(crate) fn on_net(&mut self, net: &mut impl NetEgress, conn: u64, msg: NetMsg) {
        match msg {
            NetMsg::Hello { .. } => {
                let levels = self.level_directory();
                net.to_client(
                    conn,
                    &NetMsg::HelloAck {
                        version: WIRE_VERSION,
                        levels,
                    },
                );
            }
            NetMsg::SpecSubmit {
                client,
                seq,
                op,
                wants,
            } => self.submit(net, conn, client, seq, op, &wants),
            NetMsg::SpecGossip {
                origin,
                seq,
                ts,
                vc,
                op,
            } => self.on_gossip(
                net,
                Update {
                    id: UpdateId {
                        origin: origin as usize,
                        seq,
                    },
                    ts,
                    vc: VectorClock(vc),
                    op,
                },
            ),
            NetMsg::SpecAck {
                origin,
                seq,
                acker,
                acker_seq,
            } => self.on_ack(net, origin, seq, acker, acker_seq),
            // Store frames are routed to the quorum core, and
            // client-bound replies have no business arriving at a
            // server; drop them (a confused or hostile peer must not
            // crash us).
            NetMsg::Store(_)
            | NetMsg::HelloAck { .. }
            | NetMsg::SpecReply { .. }
            | NetMsg::SpecFailed { .. } => {}
        }
    }

    /// The level directory advertised in the handshake: every level
    /// registered in this process, truncated at the wire bound.
    fn level_directory(&self) -> Vec<LevelInfo> {
        ConsistencyLevel::all_registered()
            .into_iter()
            .take(MAX_LEVELS as usize)
            .map(|l| LevelInfo {
                id: l.wire_id(),
                rank: l.rank(),
                name: l.name().to_string(),
            })
            .collect()
    }

    /// Resolves requested level ids against the four levels this store
    /// implements. `None` means the submission asked for a level the
    /// store cannot honestly serve — the caller replies `SpecFailed`
    /// rather than delivering a weaker guarantee under a stronger name.
    fn resolve_wants(wants: &[u8]) -> Option<SpecWants> {
        let mut w = SpecWants {
            weak: false,
            update: false,
            causal: false,
            strong: false,
        };
        for &id in wants {
            let level = ConsistencyLevel::from_wire_id(id)?;
            if level == ConsistencyLevel::WEAK {
                w.weak = true;
            } else if level == ConsistencyLevel::UPDATE {
                w.update = true;
            } else if level == ConsistencyLevel::CAUSAL {
                w.causal = true;
            } else if level == ConsistencyLevel::STRONG {
                w.strong = true;
            } else {
                return None;
            }
        }
        (w.weak || w.update || w.causal || w.strong).then_some(w)
    }

    fn reply(
        &self,
        net: &mut impl NetEgress,
        p: &SpecPending,
        level: ConsistencyLevel,
        val: u64,
        closing: bool,
    ) {
        net.to_client(
            p.conn,
            &NetMsg::SpecReply {
                client: p.client,
                seq: p.client_seq,
                level: level.wire_id(),
                val,
                closing,
            },
        );
    }

    /// One client submission: weak view immediately, then the update
    /// enters the replicated log and the stronger views follow the
    /// protocol (see the type docs).
    fn submit(
        &mut self,
        net: &mut impl NetEgress,
        conn: u64,
        client: u64,
        client_seq: u64,
        op: SpecOp,
        wants: &[u8],
    ) {
        let Some(w) = Self::resolve_wants(wants) else {
            net.to_client(
                conn,
                &NetMsg::SpecFailed {
                    client,
                    seq: client_seq,
                },
            );
            return;
        };
        // Weak: the op on top of the local log, before any ordering.
        // Even when weak is the *only* requested level the update still
        // enters the replicated log below — only the client's view is
        // weak, never the store's state.
        if w.weak {
            let val = self.log.ret_on_top(&op);
            let closing = !(w.update || w.causal || w.strong);
            net.to_client(
                conn,
                &NetMsg::SpecReply {
                    client,
                    seq: client_seq,
                    level: ConsistencyLevel::WEAK.wire_id(),
                    val,
                    closing,
                },
            );
        }

        // Stamp and deliver locally.
        self.lamport += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        if (self.id as usize) < self.n {
            self.inbox.bump(self.id as usize);
        }
        let u = SpecUpdate {
            id: UpdateId {
                origin: self.id as usize,
                seq,
            },
            ts: self.lamport,
            vc: self.inbox.delivered().clone(),
            op,
        };
        let key = u.key();
        net.to_peers(&gossip_of(&u));
        self.log.insert(u);

        let mut acked = vec![false; self.n];
        let mut acker_seq = vec![0; self.n];
        if let Some(slot) = acked.get_mut(self.id as usize) {
            *slot = true;
        }
        if let Some(slot) = acker_seq.get_mut(self.id as usize) {
            *slot = seq;
        }
        let p = SpecPending {
            conn,
            client,
            client_seq,
            key,
            wants: w,
            acked,
            acker_seq,
            causal_sent: false,
            strong_sent: false,
        };
        if w.update {
            let val = self.log.ret_of(key).unwrap_or(0);
            let closing = !(w.causal || w.strong);
            self.reply(net, &p, ConsistencyLevel::UPDATE, val, closing);
        }
        // Track every own update until fully acked — even one whose
        // client is already served: peers that missed the gossip can
        // only be healed by the retransmit path, and a permanently
        // missing seq would wedge their vector clocks forever.
        self.pending.insert(seq, p);
        self.settle(net);
    }

    /// One gossiped update from a peer: re-ack retransmissions of
    /// already-delivered updates, buffer the rest, deliver causally.
    fn on_gossip(&mut self, net: &mut impl NetEgress, u: SpecUpdate) {
        let UpdateId { origin, seq } = u.id;
        // The wire boundary: the inbox indexes stamps by origin, so only
        // well-formed stamps (one entry per replica, the origin's entry
        // being the update's own seq) from a real peer get that far.
        if origin >= self.n
            || origin == self.id as usize
            || u.vc.len() != self.n
            || u.vc.0.get(origin) != Some(&seq)
        {
            return;
        }
        let ts = u.ts;
        match self.inbox.offer(origin, u.vc.clone(), u) {
            Offer::AlreadyDelivered => {
                // A retransmission of something we already delivered — the
                // origin is missing our ack; repeat the cumulative one.
                self.ack(net, origin as u32, self.delivered(origin));
            }
            Offer::Duplicate => {}
            Offer::Buffered => {
                self.lamport = self.lamport.max(ts);
                self.deliver_causal(net);
            }
        }
    }

    /// How many of `origin`'s updates have been delivered here.
    fn delivered(&self, origin: usize) -> u64 {
        self.inbox.delivered().0.get(origin).copied().unwrap_or(0)
    }

    /// Broadcasts a *cumulative* delivery ack: "I have delivered every
    /// update of `origin` up through `seq`". Cumulative semantics make
    /// acks freely re-sendable — a lost ack is healed by any later one
    /// (or by the peer-up re-broadcast in [`SpecCore::retransmit`]).
    /// Peer links form a full mesh; everyone but the origin ignores it.
    fn ack(&self, net: &mut impl NetEgress, origin: u32, seq: u64) {
        net.to_peers(&NetMsg::SpecAck {
            origin,
            seq,
            acker: self.id,
            acker_seq: self.next_seq,
        });
    }

    /// CBCAST delivery: logs and acks every buffered update whose causal
    /// past has been delivered.
    fn deliver_causal(&mut self, net: &mut impl NetEgress) {
        while let Some((origin, _, u)) = self.inbox.pop_ready(|_| true) {
            let seq = u.id.seq;
            self.log.insert(u);
            self.ack(net, origin as u32, seq);
        }
        self.settle(net);
    }

    /// One cumulative delivery ack for our own updates: marks `acker`
    /// on every pending update with seq at or below the acked one.
    fn on_ack(
        &mut self,
        net: &mut impl NetEgress,
        origin: u32,
        seq: u64,
        acker: u32,
        acker_seq: u64,
    ) {
        if origin != self.id || acker as usize >= self.n {
            return;
        }
        for p in self.pending.range_mut(..=seq).map(|(_, p)| p) {
            if let Some(slot) = p.acked.get_mut(acker as usize) {
                *slot = true;
            }
            if let Some(slot) = p.acker_seq.get_mut(acker as usize) {
                *slot = (*slot).max(acker_seq);
            }
        }
        self.settle(net);
    }

    /// Serves every causal/strong view whose condition now holds and
    /// retires own updates that are fully served and fully acked.
    fn settle(&mut self, net: &mut impl NetEgress) {
        let mut done = Vec::new();
        let seqs: Vec<u64> = self.pending.keys().copied().collect();
        for seq in seqs {
            let Some(p) = self.pending.get(&seq) else {
                continue;
            };
            let others_acked = p
                .acked
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != self.id as usize)
                .filter(|(_, a)| **a)
                .count();
            let causal_ready = self.n == 1 || others_acked > 0;
            let stable = p.fully_acked()
                && p.acker_seq
                    .iter()
                    .enumerate()
                    .all(|(i, &s)| self.delivered(i) >= s);
            let key = p.key;
            let wants = p.wants;

            if wants.causal && !p.causal_sent && causal_ready {
                let val = self.log.ret_of(key).unwrap_or(0);
                let closing = !wants.strong;
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.causal_sent = true;
                }
                if let Some(p) = self.pending.get(&seq) {
                    self.reply(net, p, ConsistencyLevel::CAUSAL, val, closing);
                }
            }
            if wants.strong && stable {
                let strong_sent = self
                    .pending
                    .get(&seq)
                    .map(|p| p.strong_sent)
                    .unwrap_or(true);
                if !strong_sent {
                    let val = self.log.ret_of(key).unwrap_or(0);
                    if let Some(p) = self.pending.get_mut(&seq) {
                        p.strong_sent = true;
                    }
                    if let Some(p) = self.pending.get(&seq) {
                        self.reply(net, p, ConsistencyLevel::STRONG, val, true);
                    }
                }
            }
            if let Some(p) = self.pending.get(&seq) {
                if p.served() && p.fully_acked() {
                    done.push(seq);
                }
            }
        }
        for seq in done {
            self.pending.remove(&seq);
        }
    }

    /// Connection-driven anti-entropy, run whenever a peer link comes
    /// (back) up. Two roles:
    ///
    /// - *origin*: re-gossip every own update still awaiting acks — the
    ///   peer may have been down (or the link not yet established) when
    ///   the gossip first went out;
    /// - *acker*: re-broadcast the cumulative delivery ack for every
    ///   other origin — an ack sent while our own outbound link was
    ///   still down was lost, and the origin's strong views wait on it.
    pub(crate) fn retransmit(&mut self, net: &mut impl NetEgress) {
        for p in self.pending.values() {
            if let Some(u) = self.log.get(p.key) {
                net.to_peers(&gossip_of(u));
            }
        }
        for (j, &delivered) in self.inbox.delivered().0.iter().enumerate() {
            if j != self.id as usize && delivered > 0 {
                self.ack(net, j as u32, delivered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONN: u64 = 7;

    /// Where a message went.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Client(u64, NetMsg),
        Peers(NetMsg),
    }

    /// A [`NetEgress`] that records instead of sending.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<Sent>,
    }

    impl NetEgress for Recorder {
        fn to_client(&mut self, conn: u64, msg: &NetMsg) {
            self.sent.push(Sent::Client(conn, msg.clone()));
        }

        fn to_peers(&mut self, msg: &NetMsg) {
            self.sent.push(Sent::Peers(msg.clone()));
        }
    }

    impl Recorder {
        /// Everything sent since the last call.
        fn take(&mut self) -> Vec<Sent> {
            std::mem::take(&mut self.sent)
        }
    }

    /// Replica 0 of 3.
    fn replica() -> (SpecCore, Recorder) {
        (SpecCore::new(0, 3), Recorder::default())
    }

    #[test]
    fn client_bound_messages_arriving_at_a_server_emit_nothing() {
        let (mut core, mut net) = replica();
        let stray = [
            NetMsg::HelloAck {
                version: WIRE_VERSION,
                levels: Vec::new(),
            },
            NetMsg::SpecReply {
                client: 1,
                seq: 1,
                level: ConsistencyLevel::STRONG.wire_id(),
                val: 1,
                closing: true,
            },
            NetMsg::SpecFailed { client: 1, seq: 1 },
        ];
        for msg in stray {
            core.on_net(&mut net, CONN, msg);
        }
        assert_eq!(net.take(), []);
    }

    /// Two own updates released by one cumulative ack answer their
    /// clients in submission order — every run, not in whatever order a
    /// hash seed puts the pending table in.
    #[test]
    fn spec_replies_released_by_one_ack_leave_in_submit_order() {
        use correctables::spec::CtrOp;

        for _ in 0..20 {
            let (mut core, mut net) = replica();
            for seq in 1..=2 {
                let submit = NetMsg::SpecSubmit {
                    client: 42,
                    seq,
                    op: SpecOp::Ctr(CtrOp::Add(3, 1)),
                    wants: vec![ConsistencyLevel::CAUSAL.wire_id()],
                };
                core.on_net(&mut net, CONN, submit);
            }
            assert!(net.take().iter().all(|s| matches!(s, Sent::Peers(_))));

            let ack = NetMsg::SpecAck {
                origin: 0,
                seq: 2,
                acker: 1,
                acker_seq: 0,
            };
            core.on_net(&mut net, 99, ack);
            let order: Vec<u64> = net
                .take()
                .iter()
                .map(|s| match s {
                    Sent::Client(CONN, NetMsg::SpecReply { seq, .. }) => *seq,
                    other => panic!("want only replies to the client, got {other:?}"),
                })
                .collect();
            assert_eq!(order, [1, 2]);
        }
    }
}
