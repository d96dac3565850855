//! What a replica serves beside the quorum store: the spec store's
//! wire.
//!
//! Neither protocol lives in this crate. The quorum store's is
//! [`quorumstore::ReplicaCore`] and the spec store's is
//! [`specstore::SpecCore`] — the same sans-IO state machines the
//! simulator hosts, so what the explorer explores is what these sockets
//! serve. The reactor implements their one host contract,
//! [`simnet::Egress`], once, for [`NetMsg`]; both cores reach it
//! through [`Wired`], which sends each core message as the frames that
//! carry it. The reactor hands every [`NetMsg::Store`] frame to the
//! quorum core; every other [`NetMsg`] comes here, to [`on_net`], which
//! translates the `Spec*` frames to the spec core's messages. What is
//! this module's own is what is the wire's: the object served
//! ([`RegCtrSpec`]), the level ids of a submission, and the frame ↔
//! message mapping. It keeps no state.

use correctables::spec::{apply_cloned, CounterSpec, RegisterSpec, SeqSpec};
use correctables::ConsistencyLevel;
use simnet::Egress;
use specstore::{ClientMsg, SpecCore, SpecMsg, Update, UpdateId, VectorClock, Wants};

use crate::wire::{NetMsg, SpecOp};

/// The object the TCP spec store serves: a register map and a counter
/// map side by side, each [`SpecOp`] stepping the one it names.
#[derive(Default)]
pub(crate) struct RegCtrSpec {
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

/// A TCP client's name for its operation, echoed in every reply: its
/// `(client, seq)`.
type ClientOp = (u64, u64);

/// The spec core's messages as this replica speaks them.
type CoreMsg = SpecMsg<RegCtrSpec, ClientOp>;

/// The spec store a replica serves. Replica ids double as vector-clock
/// indexes, so a spec deployment requires ids `0..n` — exactly what
/// [`crate::spawn_local_cluster`] assigns.
pub(crate) type SpecStore = SpecCore<RegCtrSpec, ClientOp>;

/// A core's egress over the host's [`NetMsg`] egress: each core
/// message leaves as the frames that carry it ([`Framed`]), and the
/// clocks are the host's.
pub(crate) struct Wired<N>(pub(crate) N);

/// A core message as the frames that carry it.
pub(crate) trait Framed {
    /// Hands `send` the frames that carry `self`, in order.
    fn frames(self, send: impl FnMut(NetMsg));
}

/// A quorum-store message is one [`NetMsg::Store`] frame, wrapped by
/// move.
impl Framed for quorumstore::Msg {
    fn frames(self, mut send: impl FnMut(NetMsg)) {
        send(NetMsg::Store(self));
    }
}

/// A spec-store message is one frame per view (the last one closing, if
/// the batch is), one for everything else.
impl Framed for CoreMsg {
    fn frames(self, mut send: impl FnMut(NetMsg)) {
        let reply =
            |(client, seq): ClientOp, level: ConsistencyLevel, val, closing| NetMsg::SpecReply {
                client,
                seq,
                level: level.wire_id(),
                val,
                closing,
            };
        match self {
            SpecMsg::Client(ClientMsg::Views { op, views, closing }) => {
                let last = views.len().saturating_sub(1);
                for (i, (level, val)) in views.into_iter().enumerate() {
                    send(reply(op, level, val, closing && i == last));
                }
            }
            SpecMsg::Gossip { update } => send(NetMsg::SpecGossip {
                origin: update.id.origin as u32,
                seq: update.id.seq,
                ts: update.ts,
                vc: update.vc.to_vec(),
                op: update.op,
            }),
            SpecMsg::Ack {
                of,
                acker,
                acker_seq,
            } => send(NetMsg::SpecAck {
                origin: of.origin as u32,
                seq: of.seq,
                acker: acker as u32,
                acker_seq,
            }),
            // Client-bound only; the core never sends one.
            SpecMsg::Client(ClientMsg::Submit { .. }) => {}
        }
    }
}

impl<M: Framed, N: Egress<NetMsg>> Egress<M> for Wired<N> {
    fn to_client(&mut self, conn: u64, msg: M) {
        msg.frames(|frame| self.0.to_client(conn, frame));
    }

    fn to_peers(&mut self, msg: M) {
        msg.frames(|frame| self.0.to_peers(frame));
    }

    fn to_peer(&mut self, peer: usize, msg: M) -> bool {
        let mut sent = true;
        msg.frames(|frame| sent &= self.0.to_peer(peer, frame));
        sent
    }

    fn now(&self) -> u64 {
        self.0.now()
    }

    fn stamp(&self) -> u64 {
        self.0.stamp()
    }
}

/// Dispatches one inbound envelope from connection `conn` that is not a
/// [`NetMsg::Store`] frame (those are the quorum core's): a spec-store
/// frame goes to `spec` as the message it carries. `from_peer` is the
/// peer's index when `conn` is this replica's own link to a peer.
pub(crate) fn on_net(
    spec: &mut SpecStore,
    net: &mut Wired<impl Egress<NetMsg>>,
    conn: u64,
    from_peer: Option<usize>,
    msg: NetMsg,
) {
    let msg = match msg {
        NetMsg::SpecSubmit {
            client,
            seq,
            op,
            wants,
        } => match resolve_wants(&wants) {
            Some(wants) => SpecMsg::Client(ClientMsg::Submit {
                op: (client, seq),
                client_op: op,
                wants,
            }),
            None => return net.0.to_client(conn, NetMsg::SpecFailed { client, seq }),
        },
        NetMsg::SpecGossip {
            origin,
            seq,
            ts,
            vc,
            op,
        } => SpecMsg::Gossip {
            update: Update {
                id: UpdateId {
                    origin: origin as usize,
                    seq,
                },
                ts,
                vc: VectorClock::from(vc),
                op,
            },
        },
        NetMsg::SpecAck {
            origin,
            seq,
            acker,
            acker_seq,
        } => SpecMsg::Ack {
            of: UpdateId {
                origin: origin as usize,
                seq,
            },
            acker: acker as usize,
            acker_seq,
        },
        // Store frames are routed to the quorum core, and client-bound
        // replies have no business arriving at a server; drop them (a
        // confused or hostile peer must not crash us).
        NetMsg::Store(_) | NetMsg::SpecReply { .. } | NetMsg::SpecFailed { .. } => return,
    };
    spec.on_msg(net, conn, from_peer, msg);
}

/// Resolves requested level ids against the four levels the spec store
/// implements. `None` means the submission asked for a level the store
/// cannot honestly serve — the caller replies `SpecFailed` rather than
/// delivering a weaker guarantee under a stronger name.
fn resolve_wants(wants: &[u8]) -> Option<Wants> {
    let levels = wants
        .iter()
        .map(|&id| ConsistencyLevel::from_wire_id(id).filter(|l| Wants::LEVELS.contains(l)))
        .collect::<Option<Vec<_>>>()?;
    (!levels.is_empty()).then(|| Wants::of(&levels))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONN: u64 = 7;

    /// Where a frame went.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Client(u64, NetMsg),
        Peers(NetMsg),
        Peer(usize, NetMsg),
    }

    /// A host's [`NetMsg`] egress that records instead of sending, with
    /// a stamp clock that is not its deadline clock.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<Sent>,
        /// A peer whose link this host cannot send on.
        down: Option<usize>,
    }

    impl Egress<NetMsg> for Recorder {
        fn to_client(&mut self, conn: u64, msg: NetMsg) {
            self.sent.push(Sent::Client(conn, msg));
        }

        fn to_peers(&mut self, msg: NetMsg) {
            self.sent.push(Sent::Peers(msg));
        }

        fn to_peer(&mut self, peer: usize, msg: NetMsg) -> bool {
            if self.down == Some(peer) {
                return false;
            }
            self.sent.push(Sent::Peer(peer, msg));
            true
        }

        fn now(&self) -> u64 {
            1
        }

        fn stamp(&self) -> u64 {
            2
        }
    }

    /// Replica 0 of 3.
    fn replica() -> (SpecStore, Wired<Recorder>) {
        (
            SpecCore::new(RegCtrSpec::default(), 0, 3),
            Wired(Recorder::default()),
        )
    }

    /// The adapter both cores send through: a quorum message leaves as
    /// exactly one store frame whichever way it goes, a down link's
    /// `false` comes back, and both clocks are the host's own.
    #[test]
    fn a_quorum_message_is_one_store_frame_and_the_clocks_are_the_hosts() {
        use quorumstore::{Key, Msg, OpId};

        let msg = Msg::PeerRead {
            op: OpId {
                client: simnet::NodeId(4),
                seq: 9,
            },
            key: Key::plain(1),
        };
        let mut net = Wired(Recorder {
            down: Some(1),
            ..Recorder::default()
        });
        net.to_client(CONN, msg.clone());
        net.to_peers(msg.clone());
        assert!(net.to_peer(0, msg.clone()));
        assert!(!net.to_peer(1, msg.clone()));
        let frame = NetMsg::Store(msg);
        assert_eq!(
            net.0.sent,
            [
                Sent::Client(CONN, frame.clone()),
                Sent::Peers(frame.clone()),
                Sent::Peer(0, frame),
            ]
        );
        assert_eq!(
            (Egress::<Msg>::now(&net), Egress::<Msg>::stamp(&net)),
            (1, 2)
        );
    }

    #[test]
    fn client_bound_messages_arriving_at_a_server_emit_nothing() {
        let (mut spec, mut net) = replica();
        let stray = [
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
            on_net(&mut spec, &mut net, CONN, None, msg);
        }
        assert_eq!(net.0.sent, []);
    }

    /// The adapter end to end: a four-level submission leaves as one
    /// gossip frame and one reply frame per wait-free view in level
    /// order, a peer's ack frame as the causal reply, and a submission
    /// at a level the store does not serve is refused, not downgraded.
    #[test]
    fn frames_translate_to_core_messages_and_back() {
        use correctables::spec::CtrOp;

        let (mut spec, mut net) = replica();
        let submit = NetMsg::SpecSubmit {
            client: 42,
            seq: 5,
            op: SpecOp::Ctr(CtrOp::Add(3, 2)),
            wants: Wants::LEVELS.iter().map(|l| l.wire_id()).collect(),
        };
        on_net(&mut spec, &mut net, CONN, None, submit);
        let reply = |level: ConsistencyLevel, closing| {
            Sent::Client(
                CONN,
                NetMsg::SpecReply {
                    client: 42,
                    seq: 5,
                    level: level.wire_id(),
                    val: 2,
                    closing,
                },
            )
        };
        let gossip = Sent::Peers(NetMsg::SpecGossip {
            origin: 0,
            seq: 1,
            ts: 1,
            vc: vec![1, 0, 0],
            op: SpecOp::Ctr(CtrOp::Add(3, 2)),
        });
        assert_eq!(
            std::mem::take(&mut net.0.sent),
            [
                gossip,
                reply(ConsistencyLevel::WEAK, false),
                reply(ConsistencyLevel::UPDATE, false)
            ]
        );

        let ack = NetMsg::SpecAck {
            origin: 0,
            seq: 1,
            acker: 1,
            acker_seq: 0,
        };
        on_net(&mut spec, &mut net, 99, Some(0), ack);
        assert_eq!(
            std::mem::take(&mut net.0.sent),
            [reply(ConsistencyLevel::CAUSAL, false)]
        );

        let unserved = NetMsg::SpecSubmit {
            client: 42,
            seq: 6,
            op: SpecOp::Ctr(CtrOp::Get(3)),
            wants: vec![u8::MAX],
        };
        on_net(&mut spec, &mut net, CONN, None, unserved);
        let refused = NetMsg::SpecFailed { client: 42, seq: 6 };
        assert_eq!(net.0.sent, [Sent::Client(CONN, refused)]);
    }
}
