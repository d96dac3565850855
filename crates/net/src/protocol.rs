//! What a replica serves beside the quorum store: the spec store's
//! object, and the one adapter both cores send through.
//!
//! Neither protocol lives in this crate. The quorum store's is
//! [`quorumstore::ReplicaCore`] and the spec store's is
//! [`specstore::SpecCore`] — the same sans-IO state machines the
//! simulator hosts, so what the explorer explores is what these sockets
//! serve. Each speaks its own message set on both hosts: a core message
//! is one frame, [`NetMsg::Store`] or [`NetMsg::Spec`], as it is one
//! message under the simulator. The reactor implements their one host
//! contract, [`simnet::Egress`], once, for [`NetMsg`]; both cores reach
//! it through [`Wired`], which wraps each message in its envelope, and
//! the reactor hands each decoded frame's message straight to its core.
//! What is this module's own is the object served ([`RegCtrSpec`]). It
//! keeps no state.

use correctables::spec::{apply_cloned, CounterSpec, RegisterSpec, SeqSpec};
use simnet::Egress;
use specstore::SpecCore;

use crate::wire::{NetMsg, SpecOp, SpecOpId};

/// The object the TCP spec store serves: a register map and a counter
/// map side by side, each [`SpecOp`] stepping the one it names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegCtrSpec {
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

/// The spec store a replica serves. Replica ids double as vector-clock
/// indexes, so a spec deployment requires ids `0..n` — exactly what
/// [`crate::spawn_local_cluster`] assigns.
pub(crate) type SpecStore = SpecCore<RegCtrSpec, SpecOpId>;

/// A core's egress over the host's [`NetMsg`] egress: each core
/// message leaves as the one frame that wraps it, and the clocks are
/// the host's.
pub(crate) struct Wired<N>(pub(crate) N);

impl<M: Into<NetMsg>, N: Egress<NetMsg>> Egress<M> for Wired<N> {
    fn to_client(&mut self, conn: u64, msg: M) {
        self.0.to_client(conn, msg.into());
    }

    fn to_peers(&mut self, msg: M) {
        self.0.to_peers(msg.into());
    }

    fn to_peer(&mut self, peer: usize, msg: M) -> bool {
        self.0.to_peer(peer, msg.into())
    }

    fn now(&self) -> u64 {
        self.0.now()
    }

    fn stamp(&self) -> u64 {
        self.0.stamp()
    }
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

    /// A spec-core message is one `Spec` frame too: a four-level
    /// submission leaves as one gossip frame and one client frame that
    /// carries both wait-free views, weak then update — as the core
    /// sends them under the simulator.
    #[test]
    fn a_spec_message_is_one_spec_frame() {
        use correctables::spec::CtrOp;
        use correctables::ConsistencyLevel;
        use specstore::{ClientMsg, SpecMsg, Wants};

        let mut spec: SpecStore = SpecCore::new(RegCtrSpec::default(), 0, 3);
        let mut net = Wired(Recorder::default());
        let op = SpecOp::Ctr(CtrOp::Add(3, 2));
        let submit = ClientMsg::Submit {
            op: (42, 5),
            client_op: op.clone(),
            wants: Wants::of(&Wants::LEVELS),
        };
        spec.on_msg(&mut net, CONN, None, SpecMsg::Client(submit));
        let [Sent::Peers(NetMsg::Spec(SpecMsg::Gossip { update })), Sent::Client(CONN, views)] =
            &net.0.sent[..]
        else {
            panic!(
                "want one gossip frame and one client frame, sent {:?}",
                net.0.sent
            );
        };
        assert_eq!(update.op, op);
        let views_at_once = ClientMsg::Views {
            op: (42, 5),
            views: vec![(ConsistencyLevel::WEAK, 2), (ConsistencyLevel::UPDATE, 2)],
            closing: false,
        };
        assert_eq!(*views, NetMsg::Spec(SpecMsg::Client(views_at_once)));
    }
}
