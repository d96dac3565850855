//! The spec store's replica protocol, independent of any I/O.
//!
//! [`SpecCore`] is the replica's entire protocol brain: the Lamport
//! clock, the causal inbox, the ordered log, the ack frontier and the
//! own updates still owed views or acks. It never touches a socket, a
//! simulator or a clock — messages leave and time arrives through the
//! [`Egress`] its host hands it on every call (simnet's one host
//! contract, which the quorum core is written against too). There is
//! one core and three hosts: [`crate::host`] runs it as a `simnet` node
//! (so the explorer and every `SimSpecStore` exercise exactly the
//! served code), `icg-net`'s reactor serves it over TCP, and this
//! module's tests drive it over a `Vec`, message by message.
//!
//! Every client operation is an *update* (Perrin, Mostéfaoui & Jard):
//! stamped `(lamport ts, origin, seq)` at the replica that accepts it,
//! applied there at once (wait-free) and gossiped to the peers. Three
//! mechanisms produce the three non-weak levels:
//!
//! - the **log** — a [`ReplayLog`] in `(ts, origin, seq)` order holding
//!   exactly the causally delivered updates; replaying it through the
//!   spec realizes update consistency's single eventual linearization.
//!   Every non-weak view is the update's value at its place in that one
//!   log, read at three different moments, so a later level never
//!   reflects less than an earlier one;
//! - the **causal inbox** — updates carry vector clocks; one that
//!   arrives ahead of its causal past waits in a [`CausalInbox`] and
//!   enters the log, and is acknowledged, only at causal delivery. The
//!   causal view closes once some peer has acknowledged the update;
//! - the **ack frontier** — acks are cumulative and carry the acker's
//!   own submission count. Once every peer has acknowledged update `u`
//!   and everything the peers reported submitting is delivered here, no
//!   update ordered before `u` can still arrive: a peer stamps whatever
//!   it submits after delivering `u` above `u.ts`, and what it submitted
//!   before is in the log. `u`'s value is final — the strong view, with
//!   no primary.
//!
//! Loss is repaired from the origin's side only. An ack answers a
//! gossip down the connection it arrived on; an own update some peer
//! has not acknowledged is gossiped again when a peer link comes up
//! ([`SpecCore::on_peer_up`]) and every 200 ms of silence
//! ([`SpecCore::fire_expired`]), and a peer that had delivered it
//! already repeats its ack.

use std::collections::BTreeMap;
use std::ops::Bound;

use causalstore::{AckFrontier, CausalInbox, Offer};
use correctables::spec::SeqSpec;
use correctables::ConsistencyLevel;

use simnet::{ClientMsg, Egress, Wants};

use crate::replay::{OrderKey, ReplayLog, Update, UpdateId};
use crate::replica::SpecMsg;

/// How long an own update waits for every peer's ack before it is
/// gossiped again, in nanoseconds.
const RETRANSMIT_NS: u64 = 200_000_000;

/// An own update still owed views or acks.
struct Own<T> {
    /// Where it sits in the log.
    key: OrderKey,
    /// The client to answer: its connection and its name for the op.
    conn: u64,
    op: T,
    /// The views still owed: `causal` and `strong` are cleared as they
    /// are sent.
    wants: Wants,
}

/// One replica of the spec store (see the module docs).
///
/// Replica ids double as vector-clock indexes, so a deployment's ids
/// are `0..n`; gossip from an origin outside that range is dropped.
pub struct SpecCore<S: SeqSpec, T = u64> {
    id: usize,
    lamport: u64,
    /// Own submissions so far; the next own update gets `next_seq + 1`.
    next_seq: u64,
    /// Deliveries per origin (the own entry counts own submissions),
    /// and the updates received ahead of their causal past.
    inbox: CausalInbox<Update<S::Op>>,
    /// The causally delivered updates in `(ts, origin, seq)` order, and
    /// the views replayed from them.
    log: ReplayLog<S>,
    /// How far each peer has acknowledged the own updates.
    frontier: AckFrontier,
    /// The connection each origin's latest gossip arrived on: where
    /// acks of its updates go.
    reply_path: Vec<u64>,
    /// Own updates not yet served and fully acked, by seq — ordered, so
    /// replies that one ack releases leave in submission order.
    own: BTreeMap<u64, Own<T>>,
    /// When to gossip the not fully acked own updates again.
    retransmit_at: Option<u64>,
}

impl<S: SeqSpec, T: Copy> SpecCore<S, T> {
    /// The spec store of replica `id` in a set of `n`.
    pub fn new(spec: S, id: usize, n: usize) -> Self {
        // An id outside `0..n` is a deployment error; it still gets a
        // clock entry of its own, and its peers drop what it gossips.
        let n = n.max(id.saturating_add(1));
        SpecCore {
            id,
            lamport: 0,
            next_seq: 0,
            inbox: CausalInbox::new(n),
            log: ReplayLog::new(spec),
            frontier: AckFrontier::new(id, n),
            reply_path: vec![0; n],
            own: BTreeMap::new(),
            retransmit_at: None,
        }
    }

    /// Switches the log to arrival order (the negative fixture for the
    /// update-consistency checker). Set it before the first message.
    pub fn set_arrival_order(&mut self, buggy: bool) {
        self.log.set_arrival_order(buggy);
    }

    /// The log as applied by this replica, in its current order.
    pub fn applied_log(&self) -> Vec<UpdateId> {
        self.log.entries().iter().map(|u| u.id).collect()
    }

    /// Whether every peer has acknowledged every update accepted here.
    pub fn fully_acked(&self) -> bool {
        self.next_seq <= self.frontier.min()
    }

    /// When [`SpecCore::fire_expired`] next has work to do, on
    /// [`Egress::now`]'s clock.
    pub fn next_deadline(&self) -> Option<u64> {
        self.retransmit_at
    }

    /// Dispatches one inbound message from connection `conn`.
    /// `from_peer` is the peer's index when `conn` is this replica's own
    /// link to a peer, `None` for every connection it accepted.
    pub fn on_msg(
        &mut self,
        net: &mut impl Egress<SpecMsg<S, T>>,
        conn: u64,
        from_peer: Option<usize>,
        msg: SpecMsg<S, T>,
    ) {
        match msg {
            SpecMsg::Client(ClientMsg::Submit {
                op,
                client_op,
                wants,
            }) => self.submit(net, conn, op, client_op, wants),
            SpecMsg::Gossip { update } => self.on_gossip(net, conn, update),
            // An ack answers gossip down the connection it arrived on,
            // so a genuine one comes in on a link this replica dialed.
            // One from anywhere else is a client fabricating stability.
            SpecMsg::Ack {
                of,
                acker,
                acker_seq,
            } if from_peer.is_some() && of.origin == self.id => {
                // No peer can have delivered more than was submitted.
                let seq = of.seq.min(self.next_seq);
                self.frontier.ack(acker, seq, acker_seq);
                self.settle(net);
            }
            // Misrouted acks, and client-bound views that have no
            // business arriving at a replica: a confused or hostile
            // sender must not crash it.
            SpecMsg::Ack { .. } | SpecMsg::Client(ClientMsg::Views { .. }) => {}
        }
    }

    /// A peer link came (back) up: what that peer may have missed while
    /// it was down is gossiped again at once.
    pub fn on_peer_up(&mut self, net: &mut impl Egress<SpecMsg<S, T>>) {
        self.regossip(net);
    }

    /// Runs the retransmission deadline if it is due: own updates some
    /// peer still has not acknowledged go out again — lost gossip is
    /// redelivered, a lost ack repeated — and the deadline is re-armed
    /// while there are any.
    pub fn fire_expired(&mut self, net: &mut impl Egress<SpecMsg<S, T>>) {
        let now = net.now();
        if self.retransmit_at.is_some_and(|at| at <= now) {
            let short = self.regossip(net);
            self.retransmit_at = short.then_some(now.saturating_add(RETRANSMIT_NS));
        }
    }

    /// Gossips every own update short of full acknowledgement; whether
    /// there was one.
    fn regossip(&self, net: &mut impl Egress<SpecMsg<S, T>>) -> bool {
        let short = (Bound::Excluded(self.frontier.min()), Bound::Unbounded);
        let mut any = false;
        for update in self
            .own
            .range(short)
            .filter_map(|(_, o)| self.log.get(o.key))
        {
            let update = update.clone();
            net.to_peers(SpecMsg::Gossip { update });
            any = true;
        }
        any
    }

    /// One client submission: stamped, logged and gossiped at once, the
    /// wait-free views answered in one batch; the views that need the
    /// peers follow from [`SpecCore::settle`].
    fn submit(
        &mut self,
        net: &mut impl Egress<SpecMsg<S, T>>,
        conn: u64,
        op: T,
        client_op: S::Op,
        wants: Wants,
    ) {
        // Weak: the op on top of the local log, before it is ordered.
        // Even when weak is the only level wanted the update enters the
        // replicated log — only the client's view is weak.
        let weak = wants.weak.then(|| self.log.ret_on_top(&client_op));
        self.lamport += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        self.inbox.bump(self.id);
        let update = Update {
            id: UpdateId {
                origin: self.id,
                seq,
            },
            ts: self.lamport,
            vc: self.inbox.delivered().clone(),
            op: client_op,
        };
        let key = update.key();
        net.to_peers(SpecMsg::Gossip {
            update: update.clone(),
        });
        self.log.insert(update);

        let mut views = Vec::new();
        views.extend(weak.map(|ret| (ConsistencyLevel::WEAK, ret)));
        if wants.update {
            views.extend(
                self.log
                    .ret_of(key)
                    .map(|ret| (ConsistencyLevel::UPDATE, ret)),
            );
        }
        if let Some(msg) = ClientMsg::at_once(op, views, wants) {
            net.to_client(conn, SpecMsg::Client(msg));
        }
        // Tracked until fully acked even when its client is served: a
        // peer that missed the gossip is healed only by retransmission,
        // and a missing seq would wedge its delivery of this origin.
        let own = Own {
            key,
            conn,
            op,
            wants,
        };
        self.own.insert(seq, own);
        if seq > self.frontier.min() && self.retransmit_at.is_none() {
            self.retransmit_at = Some(net.now().saturating_add(RETRANSMIT_NS));
        }
        // A replica without peers has nobody to wait for.
        self.settle(net);
    }

    /// One gossiped update: a retransmission of a delivered one is
    /// re-acked, a new one buffered, and whatever became causally
    /// deliverable is logged and acked.
    fn on_gossip(
        &mut self,
        net: &mut impl Egress<SpecMsg<S, T>>,
        conn: u64,
        update: Update<S::Op>,
    ) {
        let UpdateId { origin, seq } = update.id;
        // The wire boundary: another replica's update whose stamp names
        // its own seq. The inbox judges the stamp's width and the
        // origin's range (`Malformed`).
        if origin == self.id || update.vc.get(origin) != Some(&seq) {
            return;
        }
        let ts = update.ts;
        let offer = self.inbox.offer(origin, update.vc.clone(), update);
        if offer == Offer::Malformed {
            return;
        }
        // Only a well-formed update may say where its origin's acks go.
        if let Some(path) = self.reply_path.get_mut(origin) {
            *path = conn;
        }
        match offer {
            // Delivered before: the origin is missing our ack.
            Offer::AlreadyDelivered => {
                let delivered = self.inbox.delivered().get(origin);
                self.ack(net, origin, delivered.copied().unwrap_or(0));
            }
            Offer::Duplicate | Offer::Malformed => {}
            Offer::Buffered => {
                // The accept path increments before it stamps, so this
                // is a valid Lamport clock.
                self.lamport = self.lamport.max(ts);
                while let Some((origin, _, update)) = self.inbox.pop_ready(|_| true) {
                    let seq = update.id.seq;
                    self.log.insert(update);
                    self.ack(net, origin, seq);
                }
                self.settle(net);
            }
        }
    }

    /// Tells `origin` that its updates through `seq` are delivered here.
    /// Acks are cumulative, so a lost one is healed by any later one.
    fn ack(&self, net: &mut impl Egress<SpecMsg<S, T>>, origin: usize, seq: u64) {
        if let Some(conn) = self.reply_path.get(origin) {
            let ack = SpecMsg::Ack {
                of: UpdateId { origin, seq },
                acker: self.id,
                acker_seq: self.next_seq,
            };
            net.to_client(*conn, ack);
        }
    }

    /// Serves every causal and strong view whose condition now holds
    /// and retires the own updates that are served and fully acked.
    fn settle(&mut self, net: &mut impl Egress<SpecMsg<S, T>>) {
        let (some, every) = (self.frontier.max(), self.frontier.min());
        let stable = if self.frontier.caught_up(self.inbox.delivered()) {
            every
        } else {
            0
        };
        let log = &mut self.log;
        let mut reply = |own: &Own<T>, level, closing| {
            if let Some(ret) = log.ret_of(own.key) {
                let view = ClientMsg::view(own.op, level, ret, closing);
                net.to_client(own.conn, SpecMsg::Client(view));
            }
        };
        self.own.retain(|&seq, own| {
            if own.wants.causal && seq <= some {
                reply(own, ConsistencyLevel::CAUSAL, !own.wants.strong);
                own.wants.causal = false;
            }
            if own.wants.strong && seq <= stable {
                reply(own, ConsistencyLevel::STRONG, true);
                own.wants.strong = false;
            }
            own.wants.causal || own.wants.strong || seq > every
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causalstore::VectorClock;
    use correctables::spec::{CounterSpec, CtrOp};

    type Msg = SpecMsg<CounterSpec, u64>;

    /// The client's connection; replica `j`'s gossip arrives on `20 + j`.
    const CLIENT: u64 = 7;
    const MS: u64 = 1_000_000;
    const ALL: Wants = Wants {
        weak: true,
        update: true,
        causal: true,
        strong: true,
    };
    const NOTHING: [&str; 0] = [];

    /// Where a message went.
    #[derive(Debug)]
    enum Sent {
        Client(u64, Msg),
        Peers(Msg),
        Peer(usize, Msg),
    }

    /// An [`Egress`] that records instead of sending, with a clock the
    /// test sets.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<Sent>,
        now: u64,
    }

    impl Egress<Msg> for Recorder {
        fn to_client(&mut self, conn: u64, msg: Msg) {
            self.sent.push(Sent::Client(conn, msg));
        }

        fn to_peers(&mut self, msg: Msg) {
            self.sent.push(Sent::Peers(msg));
        }

        fn to_peer(&mut self, peer: usize, msg: Msg) -> bool {
            self.sent.push(Sent::Peer(peer, msg));
            true
        }

        fn now(&self) -> u64 {
            self.now
        }
    }

    impl Recorder {
        /// Everything sent since the last call.
        fn take(&mut self) -> Vec<Sent> {
            std::mem::take(&mut self.sent)
        }

        /// The same, one line per message: `to <conn>: …` / `peers: …` /
        /// `peer <index>: …`, views as `level=value` with `!` on a
        /// closing one, gossip as `origin:seq@ts`, acks as
        /// `origin:seq by acker (acker_seq)`.
        fn lines(&mut self) -> Vec<String> {
            let bang = |closing: &bool| if *closing { "!" } else { "" };
            let brief = |msg: &Msg| match msg {
                SpecMsg::Client(ClientMsg::Submit { op, .. }) => format!("submit {op}"),
                SpecMsg::Client(ClientMsg::Views { op, views, closing }) => {
                    let views: Vec<String> =
                        views.iter().map(|(l, r)| format!("{l}={r}")).collect();
                    format!("op {op} {}{}", views.join(" "), bang(closing))
                }
                SpecMsg::Gossip { update } => {
                    format!(
                        "gossip {}:{}@{}",
                        update.id.origin, update.id.seq, update.ts
                    )
                }
                SpecMsg::Ack {
                    of,
                    acker,
                    acker_seq,
                } => format!("ack {}:{} by {acker} ({acker_seq})", of.origin, of.seq),
            };
            self.take()
                .iter()
                .map(|s| match s {
                    Sent::Client(conn, msg) => format!("to {conn}: {}", brief(msg)),
                    Sent::Peers(msg) => format!("peers: {}", brief(msg)),
                    Sent::Peer(peer, msg) => format!("peer {peer}: {}", brief(msg)),
                })
                .collect()
        }
    }

    /// Replica 0 of `n`.
    fn replica(n: usize) -> (SpecCore<CounterSpec, u64>, Recorder) {
        (SpecCore::new(CounterSpec, 0, n), Recorder::default())
    }

    /// A client's `Add(3, 1)` as its operation `op`.
    fn submit(op: u64, wants: Wants) -> Msg {
        SpecMsg::Client(ClientMsg::Submit {
            op,
            client_op: CtrOp::Add(3, 1),
            wants,
        })
    }

    /// Replica `origin`'s `seq`-th update, an `Add(3, 1)` stamped `vc`.
    fn gossip(origin: usize, seq: u64, ts: u64, vc: &[u64]) -> Msg {
        SpecMsg::Gossip {
            update: Update {
                id: UpdateId { origin, seq },
                ts,
                vc: VectorClock::from(vc.to_vec()),
                op: CtrOp::Add(3, 1),
            },
        }
    }

    /// `acker` has delivered replica 0's updates through `seq`.
    fn ack(seq: u64, acker: usize, acker_seq: u64) -> Msg {
        SpecMsg::Ack {
            of: UpdateId { origin: 0, seq },
            acker,
            acker_seq,
        }
    }

    #[test]
    fn a_submission_refines_through_all_four_levels() {
        let (mut core, mut net) = replica(3);
        // Replica 1's first update is delivered (and acked down the
        // connection it came in on) before the submission.
        core.on_msg(&mut net, 21, None, gossip(1, 1, 5, &[0, 1, 0]));
        assert_eq!(net.lines(), ["to 21: ack 1:1 by 0 (0)"]);

        // One gossip to the peers, the wait-free views as one batch.
        core.on_msg(&mut net, CLIENT, None, submit(1, ALL));
        assert_eq!(
            net.lines(),
            ["peers: gossip 0:1@6", "to 7: op 1 weak=2 update=2"]
        );

        // The first peer's ack closes the causal view.
        core.on_msg(&mut net, 11, Some(0), ack(1, 1, 1));
        assert_eq!(net.lines(), ["to 7: op 1 causal=2"]);

        // The second completes the acks, but that peer had submitted an
        // update of its own by then, which is not delivered here: the
        // update's place in the order is not final yet.
        core.on_msg(&mut net, 12, Some(1), ack(1, 2, 1));
        assert_eq!(net.lines(), NOTHING);

        // It arrives, concurrent and stamped earlier: it sorts first,
        // and the strong view — only now — reflects it.
        core.on_msg(&mut net, 22, None, gossip(2, 1, 2, &[0, 0, 1]));
        assert_eq!(
            net.lines(),
            ["to 22: ack 2:1 by 0 (1)", "to 7: op 1 strong=3!"]
        );
        assert!(core.fully_acked());
    }

    /// Two own updates released by one cumulative ack answer their
    /// clients in submission order — every run, not in whatever order a
    /// hash seed puts the pending table in.
    #[test]
    fn spec_replies_released_by_one_ack_leave_in_submit_order() {
        let causal = Wants {
            causal: true,
            ..Wants::default()
        };
        for _ in 0..20 {
            let (mut core, mut net) = replica(3);
            for seq in 1..=2 {
                core.on_msg(&mut net, CLIENT, None, submit(seq, causal));
            }
            assert!(net.take().iter().all(|s| matches!(s, Sent::Peers(_))));

            core.on_msg(&mut net, 99, Some(0), ack(2, 1, 0));
            let order: Vec<u64> = net
                .take()
                .iter()
                .map(|s| match s {
                    Sent::Client(CLIENT, SpecMsg::Client(ClientMsg::Views { op, .. })) => *op,
                    other => panic!("want only replies to the client, got {other:?}"),
                })
                .collect();
            assert_eq!(order, [1, 2]);
        }
    }

    /// The satellite-1 bug: acks were counted whatever connection they
    /// came in on, so a client could declare its own update stable.
    #[test]
    fn acks_from_client_connections_release_nothing() {
        let strong = Wants {
            strong: true,
            ..Wants::default()
        };
        let (mut core, mut net) = replica(3);
        core.on_msg(&mut net, CLIENT, None, submit(1, strong));
        assert_eq!(net.lines(), ["peers: gossip 0:1@1"]);

        for acker in [1, 2] {
            core.on_msg(&mut net, CLIENT, None, ack(u64::MAX, acker, 0));
        }
        assert_eq!(net.lines(), NOTHING);
        assert!(!core.fully_acked());

        // The same two acks on the links to those peers are the real
        // thing.
        for acker in [1, 2] {
            core.on_msg(
                &mut net,
                10 + acker as u64,
                Some(acker - 1),
                ack(1, acker, 0),
            );
        }
        assert_eq!(net.lines(), ["to 7: op 1 strong=1!"]);
    }

    #[test]
    fn retransmissions_are_re_acked_and_duplicates_dropped() {
        let (mut core, mut net) = replica(3);
        core.on_msg(&mut net, 21, None, gossip(1, 1, 1, &[0, 1, 0]));
        assert_eq!(net.lines(), ["to 21: ack 1:1 by 0 (0)"]);

        // Again, on another connection (the origin redialed): our ack
        // was lost. It is repeated where this one came from.
        core.on_msg(&mut net, 31, None, gossip(1, 1, 1, &[0, 1, 0]));
        assert_eq!(net.lines(), ["to 31: ack 1:1 by 0 (0)"]);

        // Ahead of a gap: buffered, not acked; its duplicate is dropped.
        for _ in 0..2 {
            core.on_msg(&mut net, 31, None, gossip(1, 3, 3, &[0, 3, 0]));
            assert_eq!(net.lines(), NOTHING);
        }
        assert_eq!(core.applied_log().len(), 1);

        // The gap closes: both are delivered, logged and acked.
        core.on_msg(&mut net, 31, None, gossip(1, 2, 2, &[0, 2, 0]));
        assert_eq!(
            net.lines(),
            ["to 31: ack 1:2 by 0 (0)", "to 31: ack 1:3 by 0 (0)"]
        );
        assert_eq!(core.applied_log().len(), 3);
    }

    #[test]
    fn unacked_own_updates_are_gossiped_again_every_200_ms() {
        let weak = Wants {
            weak: true,
            ..Wants::default()
        };
        let fire_at = |core: &mut SpecCore<CounterSpec, u64>, net: &mut Recorder, ms: u64| {
            net.now = ms * MS;
            core.fire_expired(net);
            net.lines()
        };
        let (mut core, mut net) = replica(3);
        assert_eq!(core.next_deadline(), None);

        // Armed by the first own update, not moved by the second.
        net.now = 5 * MS;
        core.on_msg(&mut net, CLIENT, None, submit(1, weak));
        assert_eq!(core.next_deadline(), Some(205 * MS));
        net.now = 50 * MS;
        core.on_msg(&mut net, CLIENT, None, submit(2, weak));
        assert_eq!(core.next_deadline(), Some(205 * MS));
        // Both peers have the first, neither the second.
        core.on_msg(&mut net, 11, Some(0), ack(1, 1, 0));
        core.on_msg(&mut net, 12, Some(1), ack(1, 2, 0));
        net.take();

        assert_eq!(fire_at(&mut core, &mut net, 204), NOTHING);
        assert_eq!(fire_at(&mut core, &mut net, 205), ["peers: gossip 0:2@2"]);
        assert_eq!(core.next_deadline(), Some(405 * MS));

        // One peer short is still short.
        core.on_msg(&mut net, 11, Some(0), ack(2, 1, 0));
        assert_eq!(fire_at(&mut core, &mut net, 404), NOTHING);
        assert_eq!(fire_at(&mut core, &mut net, 405), ["peers: gossip 0:2@2"]);
        assert_eq!(core.next_deadline(), Some(605 * MS));

        // Covered by every peer: the next firing finds nothing to send
        // and disarms.
        core.on_msg(&mut net, 12, Some(1), ack(2, 2, 0));
        assert!(core.fully_acked());
        assert_eq!(fire_at(&mut core, &mut net, 605), NOTHING);
        assert_eq!(core.next_deadline(), None);

        // A link coming up gossips at once, deadline or not.
        core.on_msg(&mut net, CLIENT, None, submit(3, weak));
        net.take();
        core.on_peer_up(&mut net);
        assert_eq!(net.lines(), ["peers: gossip 0:3@3"]);
    }

    /// A gossip the inbox calls `Malformed` moves nothing: sent on a
    /// client connection, it does not redirect the acks owed to its
    /// origin, which keep going down the origin's own link.
    #[test]
    fn a_malformed_gossip_leaves_the_origins_acks_on_its_own_link() {
        let (mut core, mut net) = replica(3);
        // Replica 1's first update, ahead of replica 2's: buffered.
        core.on_msg(&mut net, 21, None, gossip(1, 1, 2, &[0, 1, 1]));
        assert_eq!(net.lines(), NOTHING);

        // A client's copy of it, its stamp one entry short.
        core.on_msg(&mut net, CLIENT, None, gossip(1, 1, 2, &[0, 1]));
        assert_eq!(net.lines(), NOTHING);

        // Replica 2's update releases replica 1's, whose ack goes where
        // replica 1's gossip came from.
        core.on_msg(&mut net, 22, None, gossip(2, 1, 1, &[0, 0, 1]));
        assert_eq!(
            net.lines(),
            ["to 22: ack 2:1 by 0 (0)", "to 21: ack 1:1 by 0 (0)"]
        );
    }

    #[test]
    fn malformed_gossip_and_acks_emit_nothing() {
        let (mut core, mut net) = replica(3);
        core.on_msg(&mut net, CLIENT, None, submit(1, ALL));
        net.take();
        let foreign_ack = SpecMsg::Ack {
            of: UpdateId { origin: 1, seq: 1 },
            acker: 2,
            acker_seq: 0,
        };
        let stray_view = SpecMsg::Client(ClientMsg::view(1, ConsistencyLevel::STRONG, 1, true));
        let bad = [
            gossip(3, 1, 1, &[0, 0, 0]), // origin out of range
            gossip(usize::MAX, 1, 1, &[0, 0, 0]),
            gossip(0, 1, 1, &[1, 0, 0]),    // our own origin
            gossip(1, 1, 1, &[0, 1]),       // stamp too narrow
            gossip(1, 1, 1, &[0, 1, 0, 0]), // stamp too wide
            gossip(1, 2, 1, &[0, 1, 0]),    // stamp disagrees with seq
            ack(1, 3, 0),                   // acker out of range
            ack(1, usize::MAX, 0),
            ack(1, 0, 0), // acked by ourselves
            foreign_ack,  // somebody else's update
            stray_view,   // client-bound
        ];
        for msg in bad {
            core.on_msg(&mut net, 21, Some(0), msg);
            assert_eq!(net.lines(), NOTHING);
        }
        assert!(core.applied_log().len() == 1 && !core.fully_acked());

        // A replica whose id lies outside its set is a deployment
        // error, not a panic.
        let mut lost = SpecCore::<CounterSpec, u64>::new(CounterSpec, 5, 3);
        lost.on_msg(&mut net, CLIENT, None, submit(1, ALL));
        lost.on_msg(&mut net, 21, None, gossip(1, 1, 1, &[0, 1, 0]));
        assert_eq!(
            net.lines(),
            ["peers: gossip 5:1@1", "to 7: op 1 weak=1 update=1"]
        );
    }

    #[test]
    fn a_replica_without_peers_closes_every_level_at_submit() {
        let (mut core, mut net) = replica(1);
        core.on_msg(&mut net, CLIENT, None, submit(1, ALL));
        assert_eq!(
            net.lines(),
            [
                "peers: gossip 0:1@1",
                "to 7: op 1 weak=1 update=1",
                "to 7: op 1 causal=1",
                "to 7: op 1 strong=1!"
            ]
        );
        assert!(core.fully_acked());
        assert_eq!(core.next_deadline(), None);
    }
}
