//! The replica side of a simulated deployment: the one deadline rule
//! every replica that retries arms through, and what a node keeps when
//! the protocol it runs is a sans-IO core that also serves real sockets
//! (`quorumstore::ReplicaCore`, `specstore::SpecCore`).
//!
//! A replica keeps at most one engine timer, for its soonest deadline
//! (`Deadline`). A deadline that moves later leaves the timer alone —
//! the timer fires early, finds nothing due and is set again for the
//! deadline — so a replica that pushes its retry back on every message
//! schedules one timer per retry, not one per message. The engine drops
//! a timer that comes due while its node is down; such a timer is spent,
//! and the next handler that arms sets a fresh one. [`Retry`] is that
//! rule with the deadline kept beside it: the anti-entropy of the CRDT,
//! escrow and causal replicas.
//!
//! A core never sees the simulator. It sends through [`Egress`] and
//! asks for time through the same trait — the one host contract both
//! cores are written against, which the reactor of `icg-net` implements
//! too. Its node hands it a [`SimNet`] and keeps a [`CoreHost`], which
//! supplies the rest of what a host owes a core: a connection is the
//! sender's node id, a peer is its index in the peer list, a core that
//! tracks its links hears of each one coming up once, before the first
//! message (simnet has no link events — partitions and downtime show
//! only as silence), and the core's own `next_deadline()` is kept armed
//! by the same rule.

// Fail soft (DESIGN.md §11): outside tests, nothing here may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::ops::Range;

use crate::bandwidth::Wire;
use crate::engine::{Ctx, NodeId, Timer};
use crate::time::SimDuration;

/// The one engine timer a node keeps for its soonest deadline
/// (nanoseconds of virtual time; see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Deadline {
    /// When the engine timer set for the deadline is due: the earliest
    /// one, if several are pending. In the past it is spent — fired, or
    /// dropped by the engine because this node was down.
    armed: Option<u64>,
}

impl Deadline {
    /// Makes sure an engine timer is pending for `due`. Call it after
    /// every handler that may have moved the deadline: an armed timer
    /// that came due while this node was down never fired.
    pub(crate) fn rearm<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>, due: Option<u64>) {
        let Some(due) = due else {
            return;
        };
        let now = ctx.now().as_nanos();
        if self.armed.is_none_or(|at| at <= now || due < at) {
            ctx.set_timer(SimDuration::from_nanos(due.saturating_sub(now)), Timer(0));
            self.armed = Some(due);
        }
    }
}

/// A replica's retry deadline, kept armed by the one deadline rule (see
/// the module docs): due one period after it was last armed.
#[derive(Debug)]
pub struct Retry {
    every: SimDuration,
    due: Option<u64>,
    timer: Deadline,
}

impl Retry {
    /// A retry with period `every`, not armed.
    pub fn new(every: SimDuration) -> Self {
        Retry {
            every,
            due: None,
            timer: Deadline::default(),
        }
    }

    /// Sets the deadline one period from now while there is `work` left
    /// to retry, and clears it otherwise.
    pub fn arm<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>, work: bool) {
        self.due = work.then(|| ctx.now().as_nanos().saturating_add(self.every.as_nanos()));
        self.timer.rearm(ctx, self.due);
    }

    /// Whether the deadline is still ahead (or due at this very instant,
    /// its timer not yet run).
    pub fn is_armed<M: Wire>(&self, ctx: &Ctx<'_, M>) -> bool {
        self.due.is_some_and(|at| at >= ctx.now().as_nanos())
    }

    /// A timer fired. Returns whether the deadline is due, clearing it;
    /// the caller retries and arms again. If it is not due, the timer
    /// is set for it again.
    pub fn fire<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>) -> bool {
        if self.due.is_some_and(|at| at <= ctx.now().as_nanos()) {
            self.due = None;
            return true;
        }
        self.timer.rearm(ctx, self.due);
        false
    }

    /// The deadline, if armed.
    pub fn due(&self) -> Option<u64> {
        self.due
    }

    /// When the timer last set for the deadline is due.
    pub fn armed(&self) -> Option<u64> {
        self.timer.armed
    }
}

/// What a host supplies to a sans-IO core: where its messages of type
/// `M` go, and what time it is. The core never sees sockets, simulator
/// contexts or clocks; its host maps these calls onto its own plumbing.
/// Times are nanoseconds since an epoch of the host's choosing and are
/// read only where the protocol needs one.
pub trait Egress<M> {
    /// Sends `msg` on connection `conn` — a client's, or the one a
    /// peer's message arrived on. A connection that no longer exists
    /// drops the message silently (the client is gone; its ops die by
    /// timeout on the client side).
    fn to_client(&mut self, conn: u64, msg: M);

    /// Sends `msg` down every currently-live peer link, in peer order.
    fn to_peers(&mut self, msg: M);

    /// Sends `msg` down the link to peer `peer` (its index in the
    /// configured peer list). `false` means that link is down and
    /// nothing was sent.
    fn to_peer(&mut self, peer: usize, msg: M) -> bool;

    /// The time deadlines are measured on; it never goes back.
    fn now(&self) -> u64;

    /// The time writes are stamped with. Last-writer-wins compares
    /// stamps of different coordinators, so every replica of one
    /// deployment must read (roughly) the same clock here — a host
    /// whose replicas do not share [`Egress::now`]'s clock overrides it.
    fn stamp(&self) -> u64 {
        self.now()
    }
}

/// A hosted core's window onto the simulator during one handler call.
/// A message "to connection `c`" goes to `NodeId(c)`, one "to the
/// peers" to each of `peers` in order, and the time is [`Ctx::now`] in
/// nanoseconds.
pub struct SimNet<'a, 'e, M> {
    /// The handler's engine context.
    pub ctx: &'a mut Ctx<'e, M>,
    /// The other replicas, in the order the core indexes them.
    pub peers: &'a [NodeId],
}

impl<M: Wire + Clone> Egress<M> for SimNet<'_, '_, M> {
    fn to_client(&mut self, conn: u64, msg: M) {
        self.ctx.send(NodeId(conn as usize), msg);
    }

    fn to_peers(&mut self, msg: M) {
        for peer in self.peers {
            self.ctx.send(*peer, msg.clone());
        }
    }

    fn to_peer(&mut self, peer: usize, msg: M) -> bool {
        let node = self.peers.get(peer);
        node.map(|node| self.ctx.send(*node, msg)).is_some()
    }

    fn now(&self) -> u64 {
        self.ctx.now().as_nanos()
    }
}

/// What a node hosting a sans-IO core keeps besides the core.
pub struct CoreHost {
    /// The other replicas, in the order the core indexes them.
    peers: Vec<NodeId>,
    /// Whether the links have been reported up.
    linked: bool,
    /// The timer kept for the core's soonest deadline.
    deadline: Deadline,
}

impl CoreHost {
    /// The host state of a replica whose peers are `peers`.
    pub fn new(peers: Vec<NodeId>) -> Self {
        CoreHost {
            peers,
            linked: false,
            deadline: Deadline::default(),
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

    /// Keeps the core's soonest deadline, `next_deadline`, armed. Call
    /// it after every handler: an armed timer that came due while this
    /// node was down never fired.
    pub fn rearm<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>, next_deadline: Option<u64>) {
        self.deadline.rearm(ctx, next_deadline);
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;
    use crate::engine::{Engine, Node};
    use crate::faults::Faults;
    use crate::time::SimTime;
    use crate::topology::{SiteId, Topology};

    #[derive(Debug)]
    struct Poke;

    impl Wire for Poke {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Pushes its 200 ms retry back on every poke; records the
    /// milliseconds it retried at and counts its timer fires.
    struct Retrier {
        retry: Retry,
        retried_ms: Vec<u64>,
        fires: u64,
    }

    impl Node<Poke> for Retrier {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Poke>, _from: NodeId, _msg: Poke) {
            self.retry.arm(ctx, true);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Poke>, _timer: Timer) {
            self.fires += 1;
            if self.retry.fire(ctx) {
                self.retried_ms.push(ctx.now().as_nanos() / 1_000_000);
            }
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Pokes the retrier at each of `pokes_ms` under `faults`; returns
    /// when it retried and how many of its timers fired.
    fn poke(pokes_ms: &[u64], faults: Faults) -> (Vec<u64>, u64) {
        let mut engine = Engine::new(Topology::single_site(), 1);
        let node = engine.add_node(
            SiteId(0),
            Box::new(Retrier {
                retry: Retry::new(SimDuration::from_millis(200)),
                retried_ms: Vec::new(),
                fires: 0,
            }),
        );
        engine.set_faults(faults);
        for &at in pokes_ms {
            engine.schedule_message(node, node, SimDuration::from_millis(at), Poke);
        }
        engine.run_until_idle(100);
        let r = engine.node_as::<Retrier>(node);
        (r.retried_ms.clone(), r.fires)
    }

    #[test]
    fn a_retry_pushed_back_fires_one_timer_per_deadline() {
        // The deadline ends at 320 ms. The one timer, set for 200 ms,
        // fires early there and is set again for 320 ms: two fires for
        // three arms, one retry.
        assert_eq!(poke(&[0, 50, 120], Faults::none()), (vec![320], 2));
    }

    #[test]
    fn a_timer_dropped_while_down_is_spent_and_the_next_arm_sets_one() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let down = Faults::none().with_downtime(NodeId(0), t(150), t(250));
        // The timer for 200 ms comes due while the node is down and is
        // dropped; the poke at 300 ms arms a fresh one.
        assert_eq!(poke(&[0, 300], down), (vec![500], 1));
    }
}
