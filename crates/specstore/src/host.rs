//! The simulated replica: a `simnet` node that hosts [`SpecCore`].
//!
//! No protocol lives here. The node hands every message to the core and
//! supplies what a host owes it through the bridge it shares with the
//! quorum store's node ([`CoreHost`]), whose [`SimNet`](simnet::SimNet)
//! is simnet's one impl of the cores' [`Egress`](simnet::Egress), the
//! quorum core's too: sends become `Ctx::send`, the clock is the
//! simulator's virtual time, a connection is the sender's node id — so
//! an ack "down the connection the gossip arrived on" goes to the
//! origin's node and reaches it from a peer — and the core's
//! retransmission deadline is kept armed as one engine timer. simnet
//! reports no link events, and the core needs none: its deadline is
//! what repairs a cut.

use std::any::Any;

use correctables::spec::SeqSpec;
use simnet::{CoreHost, Ctx, Node, NodeId, Timer};

use crate::core::SpecCore;
use crate::replica::SpecMsg;

/// A spec-store replica under simulation.
pub struct SpecHost<S: SeqSpec> {
    /// The hosted protocol core.
    pub(crate) core: SpecCore<S>,
    /// Links and the deadline timer; its peers are the other replicas.
    pub(crate) host: CoreHost,
}

impl<S: SeqSpec + Clone + Send + 'static> Node<SpecMsg<S>> for SpecHost<S> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, from: NodeId, msg: SpecMsg<S>) {
        let from_peer = self.host.peer_index(from);
        let mut net = self.host.net(ctx);
        self.core.on_msg(&mut net, from.0 as u64, from_peer, msg);
        self.host.rearm(ctx, self.core.next_deadline());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, _timer: Timer) {
        self.core.fire_expired(&mut self.host.net(ctx));
        self.host.rearm(ctx, self.core.next_deadline());
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
