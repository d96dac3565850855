//! The quorum-store replica protocol, independent of any I/O.
//!
//! [`ReplicaCore`] is the replica's entire protocol brain: the storage
//! map, the pending read/write tables, internal op-id minting, and the
//! operation-deadline heap. It never touches a socket, a simulator or a
//! clock — messages leave and time arrives through the [`Egress`] its
//! host hands it on every call (simnet's one host contract, which the
//! spec core is written against too). There is one core and three
//! hosts: the epoll reactor of `icg-net` serves it over TCP,
//! [`crate::host`] runs it as a `simnet` node (so the explorer, the
//! figures and every `SimStore` exercise exactly the served code), and
//! this module's tests drive it over a `Vec`, message by message.
//!
//! Every replica can coordinate (as in Cassandra, where the contacted
//! node coordinates the request). Reads gather a quorum of `R` replies —
//! the coordinator's own state counts as one — return the newest
//! version and adopt it locally. Writes stamp a last-writer-wins
//! version, apply locally, and propagate to all peers; with `W = 1`
//! (the paper's setting) the client is acknowledged immediately and
//! propagation continues in the background, which is precisely the
//! staleness window that ICG preliminaries expose.
//!
//! **Correctable Cassandra (CC)**: for ICG reads the coordinator
//! performs a *preliminary flush* — it replies with its local state
//! before gathering the quorum (§5.2, Figure 4). ***CC***: when the
//! final view equals the preliminary, a small confirmation message
//! replaces the full reply.
//!
//! A quorum read asks exactly the `R-1` peers it needs — the nearest
//! ones, rotating among equally near — and asks further peers only on
//! evidence that one of those will not answer (see
//! [`ReplicaCore::on_peer_down`], [`ReplicaCore::on_peer_up`] and
//! [`ReplicaCore::fire_expired`]).

use std::time::Duration;

use simnet::{Egress, NodeId};

use crate::deadlines::{Deadlines, IdMap};
use crate::messages::{FailReason, Msg, Phase};
use crate::storage::LocalStore;
use crate::types::{Key, OpId, ReadKind, Value, Version, Versioned};

/// One bit per peer index. Peer sets are `u64` masks: the wire bounds a
/// replica set at 64 (`icg-net`'s `MAX_REPLICAS`), and a peer past that
/// (no bit) is simply never asked to serve a read.
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
    /// The version the coordinator held when the read began: read
    /// repair has nothing to do unless `best` is newer.
    local: Version,
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
    /// How far away each configured peer is, in whatever unit the host
    /// measures — *configured*, not currently live: quorum arithmetic
    /// must not shrink when a link flaps.
    distance: Vec<u64>,
    /// Links currently up.
    up: u64,
    /// Peers that left a read waiting until its hedge point and have
    /// not been heard from since: asked after everyone else.
    suspect: u64,
    /// Where the next choice among equally good peers starts, so
    /// consecutive reads spread over them.
    next: usize,
}

impl PeerLinks {
    /// Sends the `PeerRead` of `op` to up to `want` live peers `st` has
    /// not asked yet and records who was asked. Trusted peers go before
    /// suspects, nearer before farther, and equals in rotation order.
    fn ask(&mut self, net: &mut impl Egress<Msg>, op: OpId, st: &mut ReadSt, want: u32) {
        let n = self.distance.len();
        let start = self.next;
        // Links the host turned out unable to send on.
        let mut refused = 0u64;
        let mut left = want;
        while left > 0 {
            let open = self.up & !st.asked & !refused;
            let peers = self.distance.iter().enumerate();
            let rank = |&(peer, dist): &(usize, &u64)| {
                (self.suspect & bit(peer) != 0, *dist, (peer + n - start) % n)
            };
            let best = peers
                .filter(|(peer, _)| open & bit(*peer) != 0)
                .min_by_key(rank);
            let Some((peer, _)) = best else {
                return;
            };
            if net.to_peer(peer, Msg::PeerRead { op, key: st.key }) {
                st.asked |= bit(peer);
                left -= 1;
                self.next = peer + 1;
            } else {
                refused |= bit(peer);
            }
        }
    }
}

struct WriteSt {
    client_conn: u64,
    client_op: OpId,
    acks_left: u8,
    /// Peers whose ack has been counted.
    acked: u64,
}

/// I/O-agnostic replica protocol state. One instance per replica,
/// owned by exactly one thread (an event loop, or the simulator's).
pub struct ReplicaCore {
    /// This replica's id (LWW writer tiebreak + internal op-id client).
    id: u32,
    /// Deadline for gathering quorums before failing an op, in
    /// nanoseconds. A read still pending a quarter of the way there
    /// asks every peer it has not asked yet (the hedge point).
    op_timeout: u64,
    links: PeerLinks,
    store: LocalStore,
    reads: IdMap<ReadSt>,
    writes: IdMap<WriteSt>,
    /// Monotone source of internal op ids.
    next_internal: u64,
    /// Operation deadlines on [`Egress::now`]'s clock, soonest first.
    deadlines: Deadlines<u64, u64>,
}

impl ReplicaCore {
    /// The core of replica `id`, one entry of `peer_distance` per
    /// configured peer, every link down until the host reports it up.
    /// Distances only order peers — reads prefer nearer ones — so a
    /// host that knows nothing passes equal ones and gets rotation.
    pub fn new(id: u32, op_timeout: Duration, peer_distance: Vec<u64>) -> ReplicaCore {
        ReplicaCore {
            id,
            op_timeout: u64::try_from(op_timeout.as_nanos()).unwrap_or(u64::MAX),
            links: PeerLinks {
                distance: peer_distance,
                up: 0,
                suspect: 0,
                next: 0,
            },
            store: LocalStore::new(),
            reads: IdMap::default(),
            writes: IdMap::default(),
            next_internal: 0,
            deadlines: Deadlines::default(),
        }
    }

    /// The local storage map (preloading, post-run inspection).
    pub fn store_mut(&mut self) -> &mut LocalStore {
        &mut self.store
    }

    /// The link to `peer` (re)connected. Every pending read that could
    /// not find enough live peers to ask — one that arrived before the
    /// mesh was up, or lost the peers it asked — asks the newcomer.
    #[expect(
        clippy::disallowed_methods,
        reason = "top_up sorts the ids it is given"
    )]
    pub fn on_peer_up(&mut self, net: &mut impl Egress<Msg>, peer: usize) {
        self.links.up |= bit(peer);
        self.links.suspect &= !bit(peer);
        let short = self.reads.iter().filter(|(_, st)| st.short_by() > 0);
        self.top_up(net, short.map(|(internal, _)| *internal).collect());
    }

    /// The link to `peer` closed, and the requests on it died with it:
    /// every pending read still waiting for that peer's answer asks one
    /// live peer it has not asked yet (if there is none, the next
    /// [`ReplicaCore::on_peer_up`] finds the read short).
    #[expect(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        reason = "top_up sorts the ids it is given"
    )]
    pub fn on_peer_down(&mut self, net: &mut impl Egress<Msg>, peer: usize) {
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
    fn top_up(&mut self, net: &mut impl Egress<Msg>, mut internals: Vec<u64>) {
        internals.sort_unstable();
        for internal in internals {
            let op = self.peer_op(internal);
            if let Some(st) = self.reads.get_mut(&internal) {
                let want = st.short_by();
                self.links.ask(net, op, st, want);
            }
        }
    }

    /// The soonest live operation deadline, for the host's wait.
    pub fn next_deadline(&mut self) -> Option<u64> {
        let reads = &self.reads;
        let writes = &self.writes;
        self.deadlines
            .next_live(|internal| reads.contains_key(internal) || writes.contains_key(internal))
    }

    /// Handles every operation deadline at or before [`Egress::now`].
    /// A read's deadline fires twice: first at its hedge point, a
    /// quarter of `op_timeout` in — the peers it asked are taking too
    /// long, so it asks every live peer it has not asked yet, the
    /// silent ones go to the back of the asking order, and the same
    /// deadline is re-armed for the remainder — then at the full
    /// timeout, where it fails like a write does at its only firing.
    pub fn fire_expired(&mut self, net: &mut impl Egress<Msg>) {
        let now = net.now();
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
                    let rest = self.op_timeout - self.op_timeout / 4;
                    self.deadlines.arm(now.saturating_add(rest), internal);
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
                net.to_client(
                    conn,
                    Msg::OpFailed {
                        op,
                        reason: FailReason::Timeout,
                    },
                );
            }
        }
    }

    fn mint_internal(&mut self) -> (u64, OpId) {
        let internal = self.next_internal;
        self.next_internal += 1;
        (internal, self.peer_op(internal))
    }

    /// Peer traffic op ids: this replica's id in the client slot, the
    /// internal counter in the sequence slot. Unique per coordinator,
    /// and coordinators' ids are unique per deployment — so concurrent
    /// clients can never collide in the pending tables, whatever op ids
    /// they choose.
    fn peer_op(&self, internal: u64) -> OpId {
        OpId {
            client: NodeId(self.id as usize),
            seq: internal,
        }
    }

    /// Dispatches one inbound message from connection `conn`.
    /// `from_peer` is the peer's index when the host knows the message
    /// came from that peer (over TCP: on this replica's own link to it,
    /// where its answers arrive), `None` for everything else — client
    /// connections above all.
    pub fn on_msg(
        &mut self,
        net: &mut impl Egress<Msg>,
        conn: u64,
        from_peer: Option<usize>,
        msg: Msg,
    ) {
        if let Some(peer) = from_peer {
            // Whatever it said, it is answering again.
            self.links.suspect &= !bit(peer);
        }
        match msg {
            Msg::ClientRead { op, key, kind } => self.client_read(net, conn, op, key, kind),
            Msg::ClientWrite { op, key, value, w } => {
                self.client_write(net, conn, op, key, value, w)
            }
            Msg::PeerRead { op, key } => {
                let data = self.store.get(key);
                net.to_client(conn, Msg::PeerReadResp { op, data });
            }
            Msg::PeerReadResp { op, data } => {
                if let Some(peer) = from_peer {
                    self.peer_read_resp(net, peer, op, data);
                }
            }
            Msg::PeerWrite { key, data, ack_op } => {
                self.store.apply(key, data);
                if let Some(op) = ack_op {
                    net.to_client(conn, Msg::PeerWriteAck { op });
                }
            }
            Msg::PeerWriteAck { op } => {
                if let Some(peer) = from_peer {
                    self.peer_write_ack(net, peer, op);
                }
            }
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
        net: &mut impl Egress<Msg>,
        conn: u64,
        client_op: OpId,
        key: Key,
        kind: ReadKind,
    ) {
        let local = self.store.get(key);
        let n_replicas = (self.links.distance.len() + 1) as u8;
        let needed = kind.quorum().clamp(1, n_replicas);

        let mut prelim = None;
        if kind.is_icg() {
            // Preliminary flush: leak local state before coordinating.
            prelim = Some(local.version);
            net.to_client(
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
            local: local.version,
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
            .arm(net.now().saturating_add(self.op_timeout / 4), internal);
    }

    fn reply_read_final(
        &mut self,
        net: &mut impl Egress<Msg>,
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
        net.to_client(conn, msg);
    }

    fn peer_read_resp(
        &mut self,
        net: &mut impl Egress<Msg>,
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
        self.store.adopt(st.key, &st.best, st.local);
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
        net: &mut impl Egress<Msg>,
        conn: u64,
        client_op: OpId,
        key: Key,
        value: Value,
        w: u8,
    ) {
        let version = Version {
            ts: net.stamp(),
            writer: self.id,
        };
        let data = Versioned { value, version };
        self.store.apply(key, data.clone());
        let acks_needed = w.saturating_sub(1).min(self.links.distance.len() as u8);
        let pending = (acks_needed > 0).then(|| self.mint_internal());
        net.to_peers(Msg::PeerWrite {
            key,
            data,
            ack_op: pending.map(|(_, peer_op)| peer_op),
        });
        let Some((internal, _)) = pending else {
            // W = 1 (the paper's setting): acknowledge immediately,
            // propagation continues in the background.
            net.to_client(conn, Msg::WriteReply { op: client_op });
            return;
        };
        self.writes.insert(
            internal,
            WriteSt {
                client_conn: conn,
                client_op,
                acks_left: acks_needed,
                acked: 0,
            },
        );
        self.deadlines
            .arm(net.now().saturating_add(self.op_timeout), internal);
    }

    fn peer_write_ack(&mut self, net: &mut impl Egress<Msg>, peer: usize, peer_op: OpId) {
        if peer_op.client != NodeId(self.id as usize) {
            return;
        }
        let internal = peer_op.seq;
        let Some(st) = self.writes.get_mut(&internal) else {
            return; // late ack after completion or timeout
        };
        // One ack per peer: a duplicate must not stand in for a replica
        // that never stored the write.
        let fresh = bit(peer) & !st.acked;
        if fresh == 0 {
            return;
        }
        st.acked |= fresh;
        st.acks_left = st.acks_left.saturating_sub(1);
        if st.acks_left > 0 {
            return;
        }
        if let Some(st) = self.writes.remove(&internal) {
            net.to_client(st.client_conn, Msg::WriteReply { op: st.client_op });
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
        Client(u64, Msg),
        Peers(Msg),
        Peer(usize, Msg),
    }

    /// An [`Egress`] that records instead of sending.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<Sent>,
        /// Peers whose link this host cannot send on.
        dead: u64,
        /// What the host's clock reads.
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
            if self.dead & bit(peer) != 0 {
                return false;
            }
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
    }

    const ICG: ReadKind = ReadKind::Icg {
        r: 2,
        confirm: false,
    };

    /// Replica 0 of 3 with no peer link up yet, its peers equally far.
    fn unmeshed(op_timeout: Duration) -> (ReplicaCore, Recorder) {
        let core = ReplicaCore::new(0, op_timeout, vec![0, 0]);
        (core, Recorder::default())
    }

    /// Replica 0 of 3 with both peer links up, its peers equally far.
    fn replica(op_timeout: Duration) -> (ReplicaCore, Recorder) {
        meshed(unmeshed(op_timeout))
    }

    fn meshed((mut core, mut net): (ReplicaCore, Recorder)) -> (ReplicaCore, Recorder) {
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
        Sent::Client(CONN, msg)
    }

    fn peer_read(peer: usize, op: OpId) -> Sent {
        Sent::Peer(peer, Msg::PeerRead { op, key: key() })
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
        core.on_msg(net, CONN, None, read);
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
            Msg::PeerRead {
                op: minted(n),
                key: key()
            }
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
        core.on_msg(net, 99, Some(peer), resp);
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

    /// Read repair: a peer newer than the coordinator's copy is adopted,
    /// so the next preliminary flush serves it.
    #[test]
    fn a_read_whose_peer_was_newer_adopts_that_version() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        core.store_mut().apply(key(), record(3));
        let sent = read(&mut core, &mut net, 1, ICG);
        assert_eq!(sent[1], peer_read(0, minted(0)), "a fresh core asks peer 0");
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [final_reply(1, record(5))]
        );
        assert_eq!(core.store_mut().get(key()), record(5));
    }

    /// A read the coordinator's copy won — when it began, or because a
    /// newer write landed while it waited — leaves the table as it is.
    #[test]
    fn a_read_the_local_copy_won_leaves_the_table_untouched() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        core.store_mut().apply(key(), record(9));
        read(&mut core, &mut net, 1, ICG);
        let before = core.store_mut().clone();
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [final_reply(1, record(9))]
        );
        assert_eq!(*core.store_mut(), before);

        // The peer is newer than the copy the read began with, but a
        // write newer still arrives before the answer does.
        let (mut core, mut net) = replica(Duration::from_secs(5));
        core.store_mut().apply(key(), record(3));
        read(&mut core, &mut net, 1, ICG);
        let write = Msg::PeerWrite {
            key: key(),
            data: record(9),
            ack_op: None,
        };
        core.on_msg(&mut net, 99, Some(1), write);
        let before = core.store_mut().clone();
        assert_eq!(
            peer_resp(&mut core, &mut net, 0, minted(0), record(5)),
            [final_reply(1, record(5))]
        );
        assert_eq!(*core.store_mut(), before);
        assert_eq!(core.store_mut().get(key()), record(9));
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

    /// Moves the host's clock to `at` and fires what is due.
    fn fire_at(core: &mut ReplicaCore, net: &mut Recorder, at: Duration) -> Vec<Sent> {
        net.now = at.as_nanos() as u64;
        core.fire_expired(net);
        net.take()
    }

    /// One deadline entry, two firings: the hedge point widens the
    /// fan-out and fails nothing, the full timeout fails the op once.
    #[test]
    fn hedge_point_asks_the_rest_and_the_full_timeout_fails_once() {
        let timeout = Duration::from_millis(400);
        let (mut core, mut net) = replica(timeout);
        let start = Duration::from_secs(3);
        net.now = start.as_nanos() as u64;
        let asked = start_icg_read(&mut core, &mut net, 1, 0);

        let hedge = start + timeout / 4;
        assert_eq!(core.next_deadline(), Some(hedge.as_nanos() as u64));
        assert_eq!(
            fire_at(&mut core, &mut net, hedge - Duration::from_nanos(1)),
            [],
            "not yet a quarter of the way"
        );
        assert_eq!(
            fire_at(&mut core, &mut net, hedge),
            [peer_read(1 - asked, minted(0))]
        );

        let full = start + timeout;
        assert_eq!(core.next_deadline(), Some(full.as_nanos() as u64));
        assert_eq!(
            fire_at(&mut core, &mut net, full - Duration::from_nanos(1)),
            [],
            "the remainder has not passed"
        );
        assert_eq!(
            fire_at(&mut core, &mut net, full),
            [to_client(Msg::OpFailed {
                op: client_op(1),
                reason: FailReason::Timeout,
            })]
        );
        assert_eq!(fire_at(&mut core, &mut net, full + timeout), []);
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
        core.fire_expired(&mut net);
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
        core.on_msg(&mut net, CONN, None, stray);
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

    /// With unequal distances there is no rotation to speak of: the
    /// near peer serves every read, the far one only covers for it.
    #[test]
    fn reads_ask_the_nearest_peer_and_the_far_one_only_on_evidence() {
        let timeout = Duration::from_millis(400);
        let (near, far) = (1, 0);
        let core = ReplicaCore::new(0, timeout, vec![90, 20]);
        let (mut core, mut net) = meshed((core, Recorder::default()));
        for n in 0..64 {
            assert_eq!(start_icg_read(&mut core, &mut net, n, n), near);
            peer_resp(&mut core, &mut net, near, minted(n), Versioned::absent());
        }
        // A quorum of three asks both, nearest first.
        let sent = read(&mut core, &mut net, 64, ReadKind::Single { r: 3 });
        assert_eq!(
            sent,
            [peer_read(near, minted(64)), peer_read(far, minted(64))]
        );
        peer_resp(&mut core, &mut net, near, minted(64), Versioned::absent());
        peer_resp(&mut core, &mut net, far, minted(64), Versioned::absent());

        // The near peer goes silent: the hedge asks the far one...
        assert_eq!(start_icg_read(&mut core, &mut net, 65, 65), near);
        assert_eq!(
            fire_at(&mut core, &mut net, timeout / 4),
            [peer_read(far, minted(65))]
        );
        peer_resp(&mut core, &mut net, far, minted(65), Versioned::absent());
        // ...and while it is a suspect, distance does not save it.
        for n in 66..70 {
            assert_eq!(start_icg_read(&mut core, &mut net, n, n), far);
            peer_resp(&mut core, &mut net, far, minted(n), Versioned::absent());
        }
        // Heard from again — about anything — it is first choice again.
        let write = Msg::PeerWrite {
            key: key(),
            data: record(5),
            ack_op: None,
        };
        core.on_msg(&mut net, 99, Some(near), write);
        assert_eq!(net.take(), []);
        let sent = read(&mut core, &mut net, 70, ICG);
        assert!(
            matches!(sent.as_slice(), [_, Sent::Peer(peer, _)] if *peer == near),
            "want the near peer asked, got {sent:?}"
        );
    }

    /// The write-side twin of the duplicate/unsolicited `PeerReadResp`
    /// rule: a `W = 3` write is acknowledged by two *different* peers.
    #[test]
    fn a_write_quorum_counts_one_ack_per_peer_link() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let write = Msg::ClientWrite {
            op: client_op(1),
            key: key(),
            value: Value::Opaque(8),
            w: 3,
        };
        core.on_msg(&mut net, CONN, None, write);
        let sent = net.take();
        assert!(
            matches!(
                sent.as_slice(),
                [Sent::Peers(Msg::PeerWrite { ack_op: Some(op), .. })] if *op == minted(0)
            ),
            "want one acked broadcast and no reply yet, got {sent:?}"
        );

        let mut ack = |from_peer| {
            core.on_msg(&mut net, 99, from_peer, Msg::PeerWriteAck { op: minted(0) });
            net.take()
        };
        // The same peer twice is one replica, not two.
        assert_eq!(ack(Some(0)), []);
        assert_eq!(ack(Some(0)), []);
        // A client connection that guessed the op id is no replica at all.
        assert_eq!(ack(None), []);
        assert_eq!(
            ack(Some(1)),
            [to_client(Msg::WriteReply { op: client_op(1) })]
        );
        assert_eq!(ack(Some(1)), [], "the write is done");
        assert_eq!(core.next_deadline(), None);
    }

    #[test]
    fn client_bound_messages_arriving_at_a_server_emit_nothing() {
        let (mut core, mut net) = replica(Duration::from_secs(5));
        let stray = [
            Msg::ReadReply {
                op: client_op(1),
                phase: Phase::Final,
                data: record(5),
            },
            Msg::ReadConfirm {
                op: client_op(1),
                version: Version::ZERO,
            },
            Msg::WriteReply { op: client_op(1) },
            Msg::OpFailed {
                op: client_op(1),
                reason: FailReason::Timeout,
            },
        ];
        for msg in stray {
            core.on_msg(&mut net, CONN, None, msg);
        }
        assert_eq!(net.take(), []);
        assert_eq!(core.next_deadline(), None);
    }
}
