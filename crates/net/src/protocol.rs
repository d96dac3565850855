//! What a replica serves beside the quorum store: the version
//! handshake and the spec store's wire.
//!
//! Neither protocol lives in this crate. The quorum store's is
//! [`quorumstore::ReplicaCore`] and the spec store's is
//! [`specstore::SpecCore`] — the same sans-IO state machines the
//! simulator hosts, so what the explorer explores is what these sockets
//! serve. The reactor hands every [`NetMsg::Store`] frame to the former
//! and implements its [`quorumstore::Egress`]; every other [`NetMsg`]
//! comes here, to [`on_net`], which answers the handshake itself and
//! translates the `Spec*` frames to and from the spec core's messages.
//! What is this module's own is what is the wire's: the object served
//! ([`RegCtrSpec`]), the level ids of a submission, and the frame ↔
//! message mapping. It keeps no state.

use correctables::spec::{apply_cloned, CounterSpec, RegisterSpec, SeqSpec};
use correctables::ConsistencyLevel;
use specstore::{ClientMsg, Egress, SpecCore, SpecMsg, Update, UpdateId, VectorClock, Wants};

use crate::wire::{NetMsg, SpecOp, WIRE_VERSION};

/// Where this module's frames go, and the time the spec core's
/// retransmission deadline is measured on. The envelope-level sibling
/// of [`quorumstore::Egress`], whose messages the same host wraps into
/// [`NetMsg::Store`].
pub(crate) trait NetEgress {
    /// Sends `msg` on connection `conn`; a connection that no longer
    /// exists drops it silently.
    fn to_client(&mut self, conn: u64, msg: &NetMsg);

    /// Sends `msg` down every currently-live peer link.
    fn to_peers(&mut self, msg: &NetMsg);

    /// Monotonic nanoseconds since an epoch of the host's choosing.
    fn now(&self) -> u64;
}

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

/// The spec core's egress over a [`NetEgress`]: each core message
/// leaves as the frames that carry it.
pub(crate) struct Wired<'a, N>(pub(crate) &'a mut N);

impl<N: NetEgress> Egress<CoreMsg> for Wired<'_, N> {
    fn to_client(&mut self, conn: u64, msg: CoreMsg) {
        frames_of(msg, |frame| self.0.to_client(conn, frame));
    }

    fn to_peers(&mut self, msg: CoreMsg) {
        frames_of(msg, |frame| self.0.to_peers(frame));
    }

    fn now(&self) -> u64 {
        self.0.now()
    }
}

/// Hands `send` the frames that carry `msg`: one per view (the last one
/// closing, if the batch is), one for everything else.
fn frames_of(msg: CoreMsg, mut send: impl FnMut(&NetMsg)) {
    let reply =
        |(client, seq): ClientOp, level: ConsistencyLevel, val, closing| NetMsg::SpecReply {
            client,
            seq,
            level: level.wire_id(),
            val,
            closing,
        };
    match msg {
        SpecMsg::Client(ClientMsg::Views { op, views, closing }) => {
            let last = views.len().saturating_sub(1);
            for (i, (level, val)) in views.into_iter().enumerate() {
                send(&reply(op, level, val, closing && i == last));
            }
        }
        SpecMsg::Gossip { update } => send(&NetMsg::SpecGossip {
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
        } => send(&NetMsg::SpecAck {
            origin: of.origin as u32,
            seq: of.seq,
            acker: acker as u32,
            acker_seq,
        }),
        // Client-bound only; the core never sends one.
        SpecMsg::Client(ClientMsg::Submit { .. }) => {}
    }
}

/// Dispatches one inbound envelope from connection `conn` that is not a
/// [`NetMsg::Store`] frame (those are the quorum core's): the version-2
/// handshake is answered here, a spec-store frame goes to `spec` as the
/// message it carries. `from_peer` is the peer's index when `conn` is
/// this replica's own link to a peer.
pub(crate) fn on_net(
    spec: &mut SpecStore,
    net: &mut impl NetEgress,
    conn: u64,
    from_peer: Option<usize>,
    msg: NetMsg,
) {
    let msg = match msg {
        NetMsg::Hello { .. } => {
            let ack = NetMsg::HelloAck {
                version: WIRE_VERSION,
            };
            return net.to_client(conn, &ack);
        }
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
            None => return net.to_client(conn, &NetMsg::SpecFailed { client, seq }),
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
        NetMsg::Store(_)
        | NetMsg::HelloAck { .. }
        | NetMsg::SpecReply { .. }
        | NetMsg::SpecFailed { .. } => return,
    };
    spec.on_msg(&mut Wired(net), conn, from_peer, msg);
}

/// Resolves requested level ids against the four levels the spec store
/// implements. `None` means the submission asked for a level the store
/// cannot honestly serve — the caller replies `SpecFailed` rather than
/// delivering a weaker guarantee under a stronger name.
fn resolve_wants(wants: &[u8]) -> Option<Wants> {
    let served = [
        ConsistencyLevel::WEAK,
        ConsistencyLevel::UPDATE,
        ConsistencyLevel::CAUSAL,
        ConsistencyLevel::STRONG,
    ];
    let levels = wants
        .iter()
        .map(|&id| ConsistencyLevel::from_wire_id(id).filter(|l| served.contains(l)))
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

        fn now(&self) -> u64 {
            0
        }
    }

    /// Replica 0 of 3.
    fn replica() -> (SpecStore, Recorder) {
        (
            SpecCore::new(RegCtrSpec::default(), 0, 3),
            Recorder::default(),
        )
    }

    #[test]
    fn client_bound_messages_arriving_at_a_server_emit_nothing() {
        let (mut spec, mut net) = replica();
        let stray = [
            NetMsg::HelloAck {
                version: WIRE_VERSION,
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
            on_net(&mut spec, &mut net, CONN, None, msg);
        }
        assert_eq!(net.sent, []);
    }

    /// The adapter end to end: a four-level submission leaves as one
    /// gossip frame and one reply frame per wait-free view in level
    /// order, a peer's ack frame as the causal reply, and a submission
    /// at a level the store does not serve is refused, not downgraded.
    #[test]
    fn frames_translate_to_core_messages_and_back() {
        use correctables::spec::CtrOp;

        let (mut spec, mut net) = replica();
        let levels = [
            ConsistencyLevel::WEAK,
            ConsistencyLevel::UPDATE,
            ConsistencyLevel::CAUSAL,
            ConsistencyLevel::STRONG,
        ];
        let submit = NetMsg::SpecSubmit {
            client: 42,
            seq: 5,
            op: SpecOp::Ctr(CtrOp::Add(3, 2)),
            wants: levels.iter().map(|l| l.wire_id()).collect(),
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
            std::mem::take(&mut net.sent),
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
            std::mem::take(&mut net.sent),
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
        assert_eq!(net.sent, [Sent::Client(CONN, refused)]);
    }
}
