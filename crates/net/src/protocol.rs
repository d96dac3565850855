//! The quorum-store replica protocol, independent of any I/O.
//!
//! [`ReplicaCore`] is the replica's entire protocol brain: the storage
//! map, the pending read/write tables, internal op-id minting, and the
//! operation-deadline heap. It never touches a socket — every outbound
//! message goes through the [`Egress`] trait, which the reactor
//! implements over its event-loop connection table and this module's
//! tests implement over a `Vec`, so the protocol is checked message by
//! message with no socket in sight.
//!
//! The protocol itself is documented in [`crate::server`]: simulated
//! [`quorumstore::Replica`] semantics (preliminary flush, confirmation,
//! LWW adoption), peer reads included — a quorum read asks exactly the
//! `R-1` peers it needs, and asks further peers only on evidence that
//! one of those will not answer (see [`ReplicaCore::on_peer_down`],
//! [`ReplicaCore::on_peer_up`] and [`ReplicaCore::fire_expired`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use correctables::spec::{apply_cloned, CounterSpec, RegisterSpec, SeqSpec};
use correctables::ConsistencyLevel;
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::storage::LocalStore;
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::NodeId;
use specstore::{CausalInbox, Offer, OrderKey, ReplayLog, Update, UpdateId, VectorClock};

use crate::pump::{Deadlines, IdMap};
use crate::wire::{LevelInfo, NetMsg, SpecOp, MAX_LEVELS, WIRE_VERSION};

/// Where a replica's outbound messages go. The core never sees sockets;
/// its host maps these three calls onto its own connection plumbing.
pub(crate) trait Egress {
    /// Sends `msg` on client connection `conn`. A connection that no
    /// longer exists drops the message silently (the client is gone;
    /// its ops die by timeout on the client side).
    fn to_client(&mut self, conn: u64, msg: &NetMsg);

    /// Sends `msg` down every currently-live peer link.
    fn to_peers(&mut self, msg: &NetMsg);

    /// Sends `msg` down the link to peer `peer` (its index in the
    /// configured peer list). `false` means that link is down and
    /// nothing was sent.
    fn to_peer(&mut self, peer: usize, msg: &NetMsg) -> bool;

    /// Convenience: wraps a version-1 store message for `to_client`.
    fn store_to_client(&mut self, conn: u64, msg: Msg) {
        self.to_client(conn, &NetMsg::Store(msg));
    }

    /// Convenience: wraps a version-1 store message for `to_peers`.
    fn store_to_peers(&mut self, msg: Msg) {
        self.to_peers(&NetMsg::Store(msg));
    }
}

/// One bit per peer index. Peer sets are `u64` masks: the wire bounds a
/// replica set at [`crate::wire::MAX_REPLICAS`] = 64, and a peer past
/// that (no bit) is simply never asked to serve a read.
fn bit(peer: usize) -> u64 {
    u32::try_from(peer)
        .ok()
        .and_then(|p| 1u64.checked_shl(p))
        .unwrap_or(0)
}

struct ReadSt {
    client_conn: u64,
    client_op: OpId,
    kind: ReadKind,
    key: Key,
    best: Versioned,
    responses: u8,
    needed: u8,
    prelim: Option<Version>,
    /// Peers holding a `PeerRead` of this op on a link that is still up.
    asked: u64,
    /// The subset of `asked` whose answer has been counted.
    answered: u64,
    /// The deadline already fired once and widened the fan-out; the
    /// next firing fails the op.
    hedged: bool,
}

impl ReadSt {
    /// How many more peers must be asked before the answers still
    /// expected can complete the quorum.
    fn short_by(&self) -> u32 {
        let missing = u32::from(self.needed.saturating_sub(self.responses));
        missing.saturating_sub((self.asked & !self.answered).count_ones())
    }
}

/// What the core knows about its peer links, and the order in which
/// reads ask them.
struct PeerLinks {
    /// Configured peers — *configured*, not currently live: quorum
    /// arithmetic must not shrink when a link flaps.
    n: usize,
    /// Links currently up.
    up: u64,
    /// Peers that left a read waiting until its hedge point and have
    /// not been heard from since: asked after everyone else.
    suspect: u64,
    /// Where the next choice starts, so consecutive reads spread over
    /// the peers.
    next: usize,
}

impl PeerLinks {
    /// Sends the `PeerRead` of `op` to up to `want` live peers `st` has
    /// not asked yet — trusted peers first, in rotation order, suspects
    /// after — and records who was asked.
    fn ask(&mut self, net: &mut impl Egress, op: OpId, st: &mut ReadSt, want: u32) {
        let msg = NetMsg::Store(Msg::PeerRead { op, key: st.key });
        let mut left = want;
        let start = self.next;
        for tier in [self.up & !self.suspect, self.up & self.suspect] {
            for i in 0..self.n {
                if left == 0 {
                    return;
                }
                let peer = (start + i) % self.n;
                if tier & !st.asked & bit(peer) != 0 && net.to_peer(peer, &msg) {
                    st.asked |= bit(peer);
                    left -= 1;
                    self.next = peer + 1;
                }
            }
        }
    }
}

struct WriteSt {
    client_conn: u64,
    client_op: OpId,
    acks_left: u8,
}

/// I/O-agnostic replica protocol state. One instance per replica,
/// owned by exactly one event-loop thread.
pub(crate) struct ReplicaCore {
    /// This replica's id (LWW writer tiebreak + internal op-id client).
    id: u32,
    /// Deadline for gathering quorums before failing an op. A read
    /// still pending a quarter of the way there asks every peer it has
    /// not asked yet (the hedge point).
    op_timeout: Duration,
    links: PeerLinks,
    store: LocalStore,
    reads: IdMap<ReadSt>,
    writes: IdMap<WriteSt>,
    /// Monotone source of internal op ids.
    next_internal: u64,
    /// Operation deadlines, soonest first.
    deadlines: Deadlines<u64>,
    /// The update/causal/strong spec store riding the same connections.
    spec: SpecCore,
}

impl ReplicaCore {
    pub(crate) fn new(id: u32, op_timeout: Duration, n_peers: usize) -> ReplicaCore {
        ReplicaCore {
            id,
            op_timeout,
            links: PeerLinks {
                n: n_peers,
                up: 0,
                suspect: 0,
                next: 0,
            },
            store: LocalStore::new(),
            reads: IdMap::default(),
            writes: IdMap::default(),
            next_internal: 0,
            deadlines: Deadlines::new(),
            spec: SpecCore::new(id, n_peers + 1),
        }
    }

    /// Dispatches one inbound envelope from connection `conn` — the
    /// version-1 store subset into [`ReplicaCore::on_msg`], the
    /// version-2 handshake and spec-store messages into [`SpecCore`].
    /// `from_peer` is the peer index when `conn` is this replica's own
    /// link to a peer (where that peer's answers arrive), `None` for
    /// every accepted connection.
    pub(crate) fn on_net(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        from_peer: Option<usize>,
        msg: NetMsg,
    ) {
        if let Some(peer) = from_peer {
            // Whatever it said, it is answering again.
            self.links.suspect &= !bit(peer);
        }
        match msg {
            NetMsg::Store(m) => self.on_msg(net, conn, from_peer, m),
            NetMsg::Hello { .. } => {
                let levels = self.spec.level_directory();
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
            } => self.spec.submit(net, conn, client, seq, op, &wants),
            NetMsg::SpecGossip {
                origin,
                seq,
                ts,
                vc,
                op,
            } => self.spec.on_gossip(
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
            } => self.spec.on_ack(net, origin, seq, acker, acker_seq),
            // Client-bound replies have no business arriving at a
            // server; drop them (a confused or hostile peer must not
            // crash us).
            NetMsg::HelloAck { .. } | NetMsg::SpecReply { .. } | NetMsg::SpecFailed { .. } => {}
        }
    }

    /// The link to `peer` (re)connected. Every pending read that could
    /// not find enough live peers to ask — one that arrived before the
    /// mesh was up, or lost the peers it asked — asks the newcomer; the
    /// spec store retransmits what the peer may have missed while down.
    pub(crate) fn on_peer_up(&mut self, net: &mut impl Egress, peer: usize) {
        self.links.up |= bit(peer);
        self.links.suspect &= !bit(peer);
        let short = self.reads.iter().filter(|(_, st)| st.short_by() > 0);
        self.top_up(net, short.map(|(internal, _)| *internal).collect());
        self.spec.retransmit(net);
    }

    /// The link to `peer` closed, and the requests on it died with it:
    /// every pending read still waiting for that peer's answer asks one
    /// live peer it has not asked yet (if there is none, the next
    /// [`ReplicaCore::on_peer_up`] finds the read short).
    pub(crate) fn on_peer_down(&mut self, net: &mut impl Egress, peer: usize) {
        let lost = bit(peer);
        self.links.up &= !lost;
        let mut orphaned = Vec::new();
        for (internal, st) in self.reads.iter_mut() {
            if st.asked & !st.answered & lost != 0 {
                st.asked &= !lost;
                orphaned.push(*internal);
            }
        }
        self.top_up(net, orphaned);
    }

    /// Has each of the pending reads `internals` ask as many more live
    /// peers as it is short by, oldest read first.
    fn top_up(&mut self, net: &mut impl Egress, mut internals: Vec<u64>) {
        internals.sort_unstable();
        for internal in internals {
            let op = self.peer_op(internal);
            if let Some(st) = self.reads.get_mut(&internal) {
                let want = st.short_by();
                self.links.ask(net, op, st, want);
            }
        }
    }

    /// The soonest live operation deadline, for the event loop's wait.
    pub(crate) fn next_deadline(&mut self) -> Option<Instant> {
        let reads = &self.reads;
        let writes = &self.writes;
        self.deadlines
            .next_live(|internal| reads.contains_key(internal) || writes.contains_key(internal))
    }

    /// Handles every operation deadline at or before `now`. A read's
    /// deadline fires twice: first at its hedge point, a quarter of
    /// `op_timeout` in — the peers it asked are taking too long, so it
    /// asks every live peer it has not asked yet, the silent ones go to
    /// the back of the asking order, and the same deadline is re-armed
    /// for the remainder — then at the full timeout, where it fails
    /// like a write does at its only firing.
    pub(crate) fn fire_expired(&mut self, net: &mut impl Egress, now: Instant) {
        let mut due = Vec::new();
        self.deadlines
            .fire_expired(now, |internal| due.push(internal));
        for internal in due {
            let op = self.peer_op(internal);
            if let Some(st) = self.reads.get_mut(&internal) {
                if !st.hedged {
                    st.hedged = true;
                    self.links.suspect |= st.asked & !st.answered;
                    self.links.ask(net, op, st, u32::MAX);
                    self.deadlines
                        .arm(now + (self.op_timeout - self.op_timeout / 4), internal);
                    continue;
                }
            }
            let hit = self
                .reads
                .remove(&internal)
                .map(|st| (st.client_conn, st.client_op))
                .or_else(|| {
                    self.writes
                        .remove(&internal)
                        .map(|st| (st.client_conn, st.client_op))
                });
            if let Some((conn, op)) = hit {
                net.store_to_client(
                    conn,
                    Msg::OpFailed {
                        op,
                        reason: FailReason::Timeout,
                    },
                );
            }
        }
    }

    fn now_version(&self) -> Version {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Version {
            ts,
            writer: self.id,
        }
    }

    fn mint_internal(&mut self) -> (u64, OpId) {
        let internal = self.next_internal;
        self.next_internal += 1;
        (internal, self.peer_op(internal))
    }

    /// Peer traffic op ids: this replica's id in the client slot, the
    /// internal counter in the sequence slot. Unique per coordinator,
    /// and coordinators' ids are unique per deployment.
    fn peer_op(&self, internal: u64) -> OpId {
        OpId {
            client: NodeId(self.id as usize),
            seq: internal,
        }
    }

    /// Dispatches one inbound message from connection `conn` (see
    /// [`ReplicaCore::on_net`] for `from_peer`).
    pub(crate) fn on_msg(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        from_peer: Option<usize>,
        msg: Msg,
    ) {
        match msg {
            Msg::ClientRead { op, key, kind } => self.client_read(net, conn, op, key, kind),
            Msg::ClientWrite { op, key, value, w } => {
                self.client_write(net, conn, op, key, value, w)
            }
            Msg::PeerRead { op, key } => {
                let data = self.store.get(key);
                net.store_to_client(conn, Msg::PeerReadResp { op, data });
            }
            Msg::PeerReadResp { op, data } => {
                if let Some(peer) = from_peer {
                    self.peer_read_resp(net, peer, op, data);
                }
            }
            Msg::PeerWrite { key, data, ack_op } => {
                self.store.apply(key, data);
                if let Some(op) = ack_op {
                    net.store_to_client(conn, Msg::PeerWriteAck { op });
                }
            }
            Msg::PeerWriteAck { op } => self.peer_write_ack(net, op),
            // Client-bound replies have no business arriving at a server;
            // drop them (a confused or hostile peer must not crash us).
            Msg::ReadReply { .. }
            | Msg::ReadConfirm { .. }
            | Msg::WriteReply { .. }
            | Msg::OpFailed { .. } => {}
        }
    }

    fn client_read(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        client_op: OpId,
        key: Key,
        kind: ReadKind,
    ) {
        let local = self.store.get(key);
        let n_replicas = (self.links.n + 1) as u8;
        let needed = kind.quorum().clamp(1, n_replicas);

        let mut prelim = None;
        if kind.is_icg() {
            // Preliminary flush: leak local state before coordinating.
            prelim = Some(local.version);
            net.store_to_client(
                conn,
                Msg::ReadReply {
                    op: client_op,
                    phase: Phase::Preliminary,
                    data: local.clone(),
                },
            );
        }

        if needed <= 1 {
            self.reply_read_final(net, conn, client_op, kind, prelim, local);
            return;
        }

        let (internal, peer_op) = self.mint_internal();
        let mut st = ReadSt {
            client_conn: conn,
            client_op,
            kind,
            key,
            best: local,
            responses: 1,
            needed,
            prelim,
            asked: 0,
            answered: 0,
            hedged: false,
        };
        // Ask exactly the R-1 peers the quorum needs. With too few links
        // up the op stays pending all the same: the next link to come up
        // is asked then, and the deadline fails the op otherwise.
        let want = st.short_by();
        self.links.ask(net, peer_op, &mut st, want);
        self.reads.insert(internal, st);
        self.deadlines
            .arm(Instant::now() + self.op_timeout / 4, internal);
    }

    fn reply_read_final(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        op: OpId,
        kind: ReadKind,
        prelim: Option<Version>,
        best: Versioned,
    ) {
        let msg = match kind {
            ReadKind::Icg { confirm: true, .. } if prelim == Some(best.version) => {
                Msg::ReadConfirm {
                    op,
                    version: best.version,
                }
            }
            ReadKind::Icg { .. } => Msg::ReadReply {
                op,
                phase: Phase::Final,
                data: best,
            },
            ReadKind::Single { .. } => Msg::ReadReply {
                op,
                phase: Phase::Single,
                data: best,
            },
        };
        net.store_to_client(conn, msg);
    }

    fn peer_read_resp(
        &mut self,
        net: &mut impl Egress,
        peer: usize,
        peer_op: OpId,
        data: Versioned,
    ) {
        // Only answers to our own requests are meaningful.
        if peer_op.client != NodeId(self.id as usize) {
            return;
        }
        let internal = peer_op.seq;
        let Some(st) = self.reads.get_mut(&internal) else {
            return; // late response after completion or timeout
        };
        // One answer per peer asked: a duplicate, or an answer nobody
        // asked this peer for, must not stand in for a quorum member.
        if st.asked & !st.answered & bit(peer) == 0 {
            return;
        }
        st.answered |= bit(peer);
        st.responses += 1;
        if data.version > st.best.version {
            st.best = data;
        }
        if st.responses < st.needed {
            return;
        }
        let Some(st) = self.reads.remove(&internal) else {
            return;
        };
        // Adopt the winning version locally: later preliminary
        // flushes serve it, and convergence after quiescence holds
        // even if this coordinator missed the original write.
        if st.best.version > self.store.version_of(st.key) {
            self.store.apply(st.key, st.best.clone());
        }
        self.reply_read_final(
            net,
            st.client_conn,
            st.client_op,
            st.kind,
            st.prelim,
            st.best,
        );
    }

    fn client_write(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        client_op: OpId,
        key: Key,
        value: Value,
        w: u8,
    ) {
        let data = Versioned {
            value,
            version: self.now_version(),
        };
        self.store.apply(key, data.clone());
        let acks_needed = w.saturating_sub(1).min(self.links.n as u8);
        if acks_needed == 0 {
            // W = 1 (the paper's setting): acknowledge immediately,
            // propagate in the background.
            net.store_to_peers(Msg::PeerWrite {
                key,
                data,
                ack_op: None,
            });
            net.store_to_client(conn, Msg::WriteReply { op: client_op });
            return;
        }
        let (internal, peer_op) = self.mint_internal();
        net.store_to_peers(Msg::PeerWrite {
            key,
            data,
            ack_op: Some(peer_op),
        });
        self.writes.insert(
            internal,
            WriteSt {
                client_conn: conn,
                client_op,
                acks_left: acks_needed,
            },
        );
        self.deadlines
            .arm(Instant::now() + self.op_timeout, internal);
    }

    fn peer_write_ack(&mut self, net: &mut impl Egress, peer_op: OpId) {
        if peer_op.client != NodeId(self.id as usize) {
            return;
        }
        let internal = peer_op.seq;
        let finished = match self.writes.get_mut(&internal) {
            Some(st) => {
                st.acks_left = st.acks_left.saturating_sub(1);
                st.acks_left == 0
            }
            None => false,
        };
        if finished {
            if let Some(st) = self.writes.remove(&internal) {
                net.store_to_client(st.client_conn, Msg::WriteReply { op: st.client_op });
            }
        }
    }
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
    fn new(id: u32, n: usize) -> SpecCore {
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
        net: &mut impl Egress,
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
        net: &mut impl Egress,
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
    fn on_gossip(&mut self, net: &mut impl Egress, u: SpecUpdate) {
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
    fn ack(&self, net: &mut impl Egress, origin: u32, seq: u64) {
        net.to_peers(&NetMsg::SpecAck {
            origin,
            seq,
            acker: self.id,
            acker_seq: self.next_seq,
        });
    }

    /// CBCAST delivery: logs and acks every buffered update whose causal
    /// past has been delivered.
    fn deliver_causal(&mut self, net: &mut impl Egress) {
        while let Some((origin, _, u)) = self.inbox.pop_ready(|_| true) {
            let seq = u.id.seq;
            self.log.insert(u);
            self.ack(net, origin as u32, seq);
        }
        self.settle(net);
    }

    /// One cumulative delivery ack for our own updates: marks `acker`
    /// on every pending update with seq at or below the acked one.
    fn on_ack(&mut self, net: &mut impl Egress, origin: u32, seq: u64, acker: u32, acker_seq: u64) {
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
    fn settle(&mut self, net: &mut impl Egress) {
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
    fn retransmit(&mut self, net: &mut impl Egress) {
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
    /// The peer-facing op id of the `n`-th quorum op replica 0 mints.
    const fn minted(n: u64) -> OpId {
        OpId {
            client: NodeId(0),
            seq: n,
        }
    }

    fn key() -> Key {
        Key::plain(1)
    }

    /// Where a message went.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Client(u64, NetMsg),
        Peers(NetMsg),
        Peer(usize, NetMsg),
    }

    /// An [`Egress`] that records instead of sending.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<Sent>,
        /// Peers whose link this host cannot send on.
        dead: u64,
    }

    impl Egress for Recorder {
        fn to_client(&mut self, conn: u64, msg: &NetMsg) {
            self.sent.push(Sent::Client(conn, msg.clone()));
        }

        fn to_peers(&mut self, msg: &NetMsg) {
            self.sent.push(Sent::Peers(msg.clone()));
        }

        fn to_peer(&mut self, peer: usize, msg: &NetMsg) -> bool {
            if self.dead & bit(peer) != 0 {
                return false;
            }
            self.sent.push(Sent::Peer(peer, msg.clone()));
            true
        }
    }

    impl Recorder {
        /// Everything sent since the last call.
        fn take(&mut self) -> Vec<Sent> {
            std::mem::take(&mut self.sent)
        }
    }

    const ICG: ReadKind = ReadKind::Icg {
        r: 2,
        confirm: false,
    };

    /// Replica 0 of 3 with no peer link up yet.
    fn unmeshed(op_timeout: Duration) -> (ReplicaCore, Recorder) {
        (ReplicaCore::new(0, op_timeout, 2), Recorder::default())
    }

    /// Replica 0 of 3 with both peer links up.
    fn replica(op_timeout: Duration) -> (ReplicaCore, Recorder) {
        let (mut core, mut net) = unmeshed(op_timeout);
        core.on_peer_up(&mut net, 0);
        core.on_peer_up(&mut net, 1);
        assert_eq!(
            net.take(),
            [],
            "an idle core has nothing to tell a new link"
        );
        (core, net)
    }

    fn client_op(seq: u64) -> OpId {
        OpId {
            client: NodeId(900),
            seq,
        }
    }

    fn to_client(msg: Msg) -> Sent {
        Sent::Client(CONN, NetMsg::Store(msg))
    }

    fn peer_read(peer: usize, op: OpId) -> Sent {
        Sent::Peer(peer, NetMsg::Store(Msg::PeerRead { op, key: key() }))
    }

    fn final_reply(seq: u64, data: Versioned) -> Sent {
        to_client(Msg::ReadReply {
            op: client_op(seq),
            phase: Phase::Final,
            data,
        })
    }

    fn record(ts: u64) -> Versioned {
        Versioned {
            value: Value::Opaque(8),
            version: Version { ts, writer: 1 },
        }
    }

    /// Submits client read `seq` of `key()` and returns what it emitted.
    fn read(core: &mut ReplicaCore, net: &mut Recorder, seq: u64, kind: ReadKind) -> Vec<Sent> {
        let read = Msg::ClientRead {
            op: client_op(seq),
            key: key(),
            kind,
        };
        core.on_net(net, CONN, None, NetMsg::Store(read));
        net.take()
    }

    /// Submits ICG read `seq` as the core's `n`-th quorum op, checks it
    /// emitted the preliminary flush and exactly one `PeerRead`, and
    /// returns the peer that was asked.
    fn start_icg_read(core: &mut ReplicaCore, net: &mut Recorder, seq: u64, n: u64) -> usize {
        let sent = read(core, net, seq, ICG);
        let [prelim, Sent::Peer(peer, asked)] = sent.as_slice() else {
            panic!("want one preliminary reply and one peer asked, got {sent:?}");
        };
        assert_eq!(
            *asked,
            NetMsg::Store(Msg::PeerRead {
                op: minted(n),
                key: key()
            })
        );
        assert_eq!(
            *prelim,
            to_client(Msg::ReadReply {
                op: client_op(seq),
                phase: Phase::Preliminary,
                data: Versioned::absent(),
            })
        );
        *peer
    }

    /// A `PeerReadResp` arriving on this replica's link to `peer`.
    fn peer_resp(
        core: &mut ReplicaCore,
        net: &mut Recorder,
        peer: usize,
        op: OpId,
        data: Versioned,
    ) -> Vec<Sent> {
        let resp = Msg::PeerReadResp { op, data };
        core.on_net(net, 99, Some(peer), NetMsg::Store(resp));
        net.take()
    }

    /// The fault-free message budget: client request in, preliminary and
    /// one `PeerRead` out, that peer's answer in, final out — 5 frames.
    #[test]
    fn icg_read_flushes_asks_one_peer_and_closes_at_its_response() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let asked = start_icg_read(&mut core, &mut net, 1, 0);

        assert_eq!(
            peer_resp(&mut core, &mut net, asked, minted(0), Versioned::absent()),
            [final_reply(1, Versioned::absent())]
        );
        assert_eq!(core.next_deadline(), None);
    }

    #[test]
    fn consecutive_reads_spread_evenly_over_the_peers() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let mut asked = [0u32; 2];
        for n in 0..64 {
            let peer = start_icg_read(&mut core, &mut net, n, n);
            asked[peer] += 1;
            peer_resp(&mut core, &mut net, peer, minted(n), Versioned::absent());
        }
        assert_eq!(asked, [32, 32]);
    }

    #[test]
    fn a_quorum_of_three_asks_both_peers_at_once_and_waits_for_both() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let sent = read(&mut core, &mut net, 1, ReadKind::Single { r: 3 });
        assert_eq!(sent, [peer_read(0, minted(0)), peer_read(1, minted(0))]);

        assert_eq!(peer_resp(&mut core, &mut net, 1, minted(0), record(5)), []);
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), Versioned::absent()),
            [to_client(Msg::ReadReply {
                op: client_op(1),
                phase: Phase::Single,
                data: record(5),
            })]
        );
    }

    #[test]
    fn confirm_answers_read_confirm_on_equal_version_and_final_on_newer() {
        let confirming = ReadKind::Icg {
            r: 2,
            confirm: true,
        };
        let (mut core, mut net) = replica(Duration::from_secs(5));
        read(&mut core, &mut net, 1, confirming);
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), Versioned::absent()),
            [to_client(Msg::ReadConfirm {
                op: client_op(1),
                version: Version::ZERO,
            })]
        );

        // A replica whose peer holds something newer than the flush.
        let (mut core, mut net) = replica(Duration::from_secs(5));
        read(&mut core, &mut net, 1, confirming);
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [final_reply(1, record(5))]
        );
    }

    /// The late-mesh regression: a quorum read that arrives before any
    /// peer link is up used to be fanned out to nobody and time out.
    #[test]
    fn read_before_the_mesh_is_up_asks_the_first_link_to_come_up() {
        let (mut core, mut net) = unmeshed(Duration::from_secs(5));
        let sent = read(&mut core, &mut net, 1, ICG);
        assert!(
            matches!(sent.as_slice(), [Sent::Client(CONN, _)]),
            "only the preliminary can leave, got {sent:?}"
        );

        core.on_peer_up(&mut net, 0);
        assert_eq!(net.take(), [peer_read(0, minted(0))]);
        // The read has whom it needs: a second link changes nothing.
        core.on_peer_up(&mut net, 1);
        assert_eq!(net.take(), []);

        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [final_reply(1, record(5))]
        );
    }

    #[test]
    fn losing_the_asked_peer_reasks_the_other_once_losing_another_does_nothing() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let asked = start_icg_read(&mut core, &mut net, 1, 0);
        let other = 1 - asked;

        core.on_peer_down(&mut net, asked);
        assert_eq!(net.take(), [peer_read(other, minted(0))]);
        // Nobody is left to ask; the read waits for a link or its deadline.
        core.on_peer_down(&mut net, other);
        assert_eq!(net.take(), []);
        core.on_peer_up(&mut net, other);
        assert_eq!(net.take(), [peer_read(other, minted(0))]);
        assert_eq!(
            peer_resp(&mut core, &mut net, other, minted(0), Versioned::absent()),
            [final_reply(1, Versioned::absent())]
        );

        // A read that never asked the lost peer is not disturbed by it.
        let asked = start_icg_read(&mut core, &mut net, 2, 1);
        assert_eq!(asked, other, "the only live peer");
        core.on_peer_up(&mut net, 1 - other);
        core.on_peer_down(&mut net, 1 - other);
        assert_eq!(net.take(), []);
    }

    #[test]
    fn a_link_the_host_cannot_send_on_is_not_counted_as_asked() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        net.dead = bit(0);
        assert_eq!(start_icg_read(&mut core, &mut net, 1, 0), 1);
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [],
            "peer 0 was never asked"
        );
    }

    /// One deadline entry, two firings: the hedge point widens the
    /// fan-out and fails nothing, the full timeout fails the op once.
    #[test]
    fn hedge_point_asks_the_rest_and_the_full_timeout_fails_once() {
        let timeout = Duration::from_millis(400);
        let (mut core, mut net) = replica(timeout);
        let before = Instant::now();
        let asked = start_icg_read(&mut core, &mut net, 1, 0);
        let after = Instant::now();

        core.fire_expired(&mut net, before + timeout / 4 - Duration::from_millis(1));
        assert_eq!(net.take(), [], "not yet a quarter of the way");
        let hedge = after + timeout / 4;
        core.fire_expired(&mut net, hedge);
        assert_eq!(net.take(), [peer_read(1 - asked, minted(0))]);

        core.fire_expired(&mut net, hedge + Duration::from_millis(299));
        assert_eq!(net.take(), [], "the remainder has not passed");
        core.fire_expired(&mut net, hedge + Duration::from_millis(300));
        assert_eq!(
            net.take(),
            [to_client(Msg::OpFailed {
                op: client_op(1),
                reason: FailReason::Timeout,
            })]
        );
        core.fire_expired(&mut net, hedge + timeout);
        assert_eq!(
            peer_resp(&mut core, &mut net, asked, minted(0), record(5)),
            [],
            "a response after the failure is dropped"
        );
        assert_eq!(core.next_deadline(), None);
    }

    #[test]
    fn a_peer_that_forced_a_hedge_is_asked_last_until_it_answers_again() {
        let (mut core, mut net) = replica(Duration::ZERO);
        let silent = start_icg_read(&mut core, &mut net, 1, 0);
        let other = 1 - silent;
        core.fire_expired(&mut net, Instant::now());
        assert_eq!(net.take(), [peer_read(other, minted(0))]);
        assert_eq!(
            peer_resp(&mut core, &mut net, other, minted(0), Versioned::absent()),
            [final_reply(1, Versioned::absent())]
        );

        // Rotation alone would alternate; suspicion keeps reads off it.
        for n in 1..5 {
            assert_eq!(start_icg_read(&mut core, &mut net, 1 + n, n), other);
            peer_resp(&mut core, &mut net, other, minted(n), Versioned::absent());
        }
        // It is still asked when the quorum needs everyone.
        let sent = read(&mut core, &mut net, 9, ReadKind::Single { r: 3 });
        assert_eq!(
            sent,
            [peer_read(other, minted(5)), peer_read(silent, minted(5))]
        );

        // Its late answer to the first read counts for nothing there,
        // but it is an answer: the peer is first choice again.
        assert_eq!(
            peer_resp(&mut core, &mut net, silent, minted(0), record(5)),
            []
        );
        let mut asked = [0u32; 2];
        for n in 6..10 {
            let peer = start_icg_read(&mut core, &mut net, 10 + n, n);
            asked[peer] += 1;
            peer_resp(&mut core, &mut net, peer, minted(n), Versioned::absent());
        }
        assert_eq!(asked, [2, 2]);
    }

    #[test]
    fn duplicate_late_and_unsolicited_responses_never_count_toward_the_quorum() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        read(&mut core, &mut net, 1, ReadKind::Single { r: 3 });
        let foreign = OpId {
            client: NodeId(1),
            seq: 0,
        };
        // Another coordinator's op id, an op this core never minted, a
        // response on a client connection: all dropped.
        assert_eq!(peer_resp(&mut core, &mut net, 0, foreign, record(9)), []);
        assert_eq!(peer_resp(&mut core, &mut net, 0, minted(77), record(9)), []);
        let stray = Msg::PeerReadResp {
            op: minted(0),
            data: record(9),
        };
        core.on_net(&mut net, CONN, None, NetMsg::Store(stray));
        assert_eq!(net.take(), []);
        // A peer index the core was never configured with.
        assert_eq!(peer_resp(&mut core, &mut net, 64, minted(0), record(9)), []);

        // Peer 0 answers twice: one response, not the quorum of three.
        assert_eq!(peer_resp(&mut core, &mut net, 0, minted(0), record(5)), []);
        assert_eq!(peer_resp(&mut core, &mut net, 0, minted(0), record(6)), []);
        assert_eq!(
            peer_resp(&mut core, &mut net, 1, minted(0), Versioned::absent()),
            [to_client(Msg::ReadReply {
                op: client_op(1),
                phase: Phase::Single,
                data: record(5),
            })]
        );

        // R = 2 asks one peer; the other's unsolicited answer is not it.
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let asked = start_icg_read(&mut core, &mut net, 2, 0);
        assert_eq!(
            peer_resp(&mut core, &mut net, 1 - asked, minted(0), record(9)),
            []
        );
        assert_eq!(
            peer_resp(&mut core, &mut net, asked, minted(0), record(5)),
            [final_reply(2, record(5))]
        );
        // ...and a late duplicate of the real one finds nothing pending.
        assert_eq!(
            peer_resp(&mut core, &mut net, asked, minted(0), record(5)),
            []
        );
    }

    #[test]
    fn client_bound_messages_arriving_at_a_server_emit_nothing() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
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
            NetMsg::Store(Msg::ReadReply {
                op: client_op(1),
                phase: Phase::Final,
                data: record(5),
            }),
        ];
        for msg in stray {
            core.on_net(&mut net, CONN, None, msg);
        }
        assert_eq!(net.take(), []);
        assert_eq!(core.next_deadline(), None);
    }

    /// Two own updates released by one cumulative ack answer their
    /// clients in submission order — every run, not in whatever order a
    /// hash seed puts the pending table in.
    #[test]
    fn spec_replies_released_by_one_ack_leave_in_submit_order() {
        use correctables::spec::CtrOp;

        for _ in 0..20 {
            let (mut core, mut net) = replica(Duration::from_secs(5));
            for seq in 1..=2 {
                let submit = NetMsg::SpecSubmit {
                    client: 42,
                    seq,
                    op: SpecOp::Ctr(CtrOp::Add(3, 1)),
                    wants: vec![ConsistencyLevel::CAUSAL.wire_id()],
                };
                core.on_net(&mut net, CONN, None, submit);
            }
            assert!(net.take().iter().all(|s| matches!(s, Sent::Peers(_))));

            let ack = NetMsg::SpecAck {
                origin: 0,
                seq: 2,
                acker: 1,
                acker_seq: 0,
            };
            core.on_net(&mut net, 99, None, ack);
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
