//! The simulated replica: a `simnet` node that hosts [`ReplicaCore`].
//!
//! No protocol lives here. The node hands every message to the core
//! and supplies what a host owes it through the bridge it shares with
//! the spec store's node ([`CoreHost`]), whose
//! [`SimNet`](simnet::SimNet) is simnet's one impl of the cores'
//! [`Egress`](simnet::Egress): sends become `Ctx::send`, the one clock
//! is the simulator's virtual time, a connection is the sender's node
//! id, and the core's soonest deadline is kept armed as an engine
//! timer. What is the simulator's own is the
//! CPU model — the per-message service times of [`ReplicaConfig`],
//! which give a host finite capacity (Figure 6) and charge the
//! preliminary flush its extra coordinator time (the paper observes a
//! ~6% throughput drop).
//!
//! Links: simnet reports no link events, so every link is reported up
//! once, before the first message, and stays up; partitions and
//! downtime show only as silence, which the core meets with its
//! ¼-`op_timeout` hedge. A peer counts as heard from again whenever
//! *any* message from its node arrives.

use std::any::Any;
use std::time::Duration;

use simnet::{CoreHost, Ctx, Node, NodeId, SimDuration, Timer};

use crate::messages::Msg;
use crate::protocol::ReplicaCore;
use crate::storage::LocalStore;

/// Tuning knobs of a simulated replica.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// Coordinator CPU time per client read.
    pub read_service: SimDuration,
    /// Coordinator CPU time per client write.
    pub write_service: SimDuration,
    /// CPU time to serve a peer read.
    pub peer_read_service: SimDuration,
    /// CPU time to apply a peer write.
    pub peer_write_service: SimDuration,
    /// Extra coordinator CPU time for the preliminary flush of ICG reads.
    pub prelim_flush_extra: SimDuration,
    /// Deadline for gathering quorums before failing the operation.
    pub op_timeout: SimDuration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            read_service: SimDuration::from_micros(500),
            write_service: SimDuration::from_micros(500),
            peer_read_service: SimDuration::from_micros(300),
            peer_write_service: SimDuration::from_micros(250),
            prelim_flush_extra: SimDuration::from_micros(30),
            op_timeout: SimDuration::from_secs(5),
        }
    }
}

/// A quorum-store replica (and coordinator) under simulation.
pub struct SimReplica {
    core: ReplicaCore,
    cfg: ReplicaConfig,
    /// Links and the deadline timer; its peers are all other replicas
    /// of the (single, fully replicated) keyspace.
    host: CoreHost,
}

impl SimReplica {
    /// The replica that will run as node `id`, with `peers` the other
    /// replicas and `peer_distance` how far each is (reads ask the
    /// nearest first).
    pub fn new(
        cfg: ReplicaConfig,
        id: NodeId,
        peers: Vec<NodeId>,
        peer_distance: Vec<SimDuration>,
    ) -> Self {
        let distance = peer_distance.iter().map(|d| d.as_nanos()).collect();
        let op_timeout = Duration::from_nanos(cfg.op_timeout.as_nanos());
        SimReplica {
            core: ReplicaCore::new(id.0 as u32, op_timeout, distance),
            cfg,
            host: CoreHost::new(peers),
        }
    }

    /// Local storage (preloading, post-run inspection).
    pub fn store(&mut self) -> &mut LocalStore {
        self.core.store_mut()
    }
}

impl Node<Msg> for SimReplica {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let (up, from_peer) = (self.host.first_contact(), self.host.peer_index(from));
        let mut net = self.host.net(ctx);
        for peer in up {
            self.core.on_peer_up(&mut net, peer);
        }
        self.core.on_msg(&mut net, from.0 as u64, from_peer, msg);
        self.host.rearm(ctx, self.core.next_deadline());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _timer: Timer) {
        self.core.fire_expired(&mut self.host.net(ctx));
        self.host.rearm(ctx, self.core.next_deadline());
    }

    fn service_cost(&self, msg: &Msg) -> SimDuration {
        match msg {
            Msg::ClientRead { kind, .. } => {
                if kind.is_icg() {
                    self.cfg.read_service + self.cfg.prelim_flush_extra
                } else {
                    self.cfg.read_service
                }
            }
            Msg::ClientWrite { .. } => self.cfg.write_service,
            Msg::PeerRead { .. } => self.cfg.peer_read_service,
            Msg::PeerWrite { .. } => self.cfg.peer_write_service,
            _ => SimDuration::ZERO,
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
