//! The replica side of a simulated deployment: what a node keeps when
//! the protocol it runs is a sans-IO core that also serves real sockets
//! (`quorumstore::ReplicaCore`, `specstore::SpecCore`).
//!
//! Such a core never sees the simulator. It sends through an egress
//! trait of its own crate and asks for time through the same trait; its
//! node implements that trait over [`SimNet`] and keeps a [`CoreHost`],
//! which supplies the rest of what a host owes a core: a connection is
//! the sender's node id, a peer is its index in the peer list, a core
//! that tracks its links hears of each one coming up once, before the
//! first message (simnet has no link events — partitions and downtime
//! show only as silence), and the core's soonest deadline is kept armed
//! as one engine timer.

use std::ops::Range;

use crate::bandwidth::Wire;
use crate::engine::{Ctx, NodeId, Timer};
use crate::time::SimDuration;

/// A hosted core's window onto the simulator during one handler call:
/// what its crate's egress trait is implemented over. A message "to
/// connection `c`" goes to `NodeId(c)`, one "to the peers" to each of
/// `peers` in order, and the time is [`Ctx::now`] in nanoseconds.
pub struct SimNet<'a, 'e, M> {
    /// The handler's engine context.
    pub ctx: &'a mut Ctx<'e, M>,
    /// The other replicas, in the order the core indexes them.
    pub peers: &'a [NodeId],
}

/// What a node hosting a sans-IO core keeps besides the core.
pub struct CoreHost {
    /// The other replicas, in the order the core indexes them.
    peers: Vec<NodeId>,
    /// Whether the links have been reported up.
    linked: bool,
    /// When the engine timer set for the core's deadlines is due: the
    /// earliest one, if several are pending. In the past it is spent —
    /// fired, or dropped by the engine because this node was down.
    armed: Option<u64>,
}

impl CoreHost {
    /// The host state of a replica whose peers are `peers`.
    pub fn new(peers: Vec<NodeId>) -> Self {
        CoreHost {
            peers,
            linked: false,
            armed: None,
        }
    }

    /// The core's egress for one handler call.
    pub fn net<'a, 'e, M>(&'a self, ctx: &'a mut Ctx<'e, M>) -> SimNet<'a, 'e, M> {
        SimNet {
            ctx,
            peers: &self.peers,
        }
    }

    /// The peer links to report up before the message at hand is
    /// handed over: all of them the first time, none after. For cores
    /// that track their links; one that does not never asks.
    pub fn first_contact(&mut self) -> Range<usize> {
        if std::mem::replace(&mut self.linked, true) {
            0..0
        } else {
            0..self.peers.len()
        }
    }

    /// `from` as a peer index — so a core that tracks who it has heard
    /// from counts *any* message from a peer's node.
    pub fn peer_index(&self, from: NodeId) -> Option<usize> {
        self.peers.iter().position(|p| *p == from)
    }

    /// Makes sure an engine timer is pending for `next_deadline`, the
    /// core's soonest (nanoseconds of virtual time). Call it after
    /// every handler: an armed timer that came due while this node was
    /// down never fired.
    pub fn rearm<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>, next_deadline: Option<u64>) {
        let Some(due) = next_deadline else {
            return;
        };
        let now = ctx.now().as_nanos();
        if self.armed.is_none_or(|at| at <= now || due < at) {
            ctx.set_timer(SimDuration::from_nanos(due.saturating_sub(now)), Timer(0));
            self.armed = Some(due);
        }
    }
}
