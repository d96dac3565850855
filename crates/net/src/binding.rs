//! The client half: a [`Binding`] over TCP.
//!
//! [`TcpBinding`] plays the role the in-simulation `Gateway` plays for
//! `quorumstore::SimStore`: it owns the connection to a coordinator
//! replica, assigns op ids, matches replies back to pending invocations,
//! and routes each reply into the right [`Upcall`] transition —
//! preliminary flush → `Weak` view, final/single reply → closing view,
//! confirmation → promote the held preliminary (failing the op if the
//! preliminary never arrived, the same fabrication guard the simulated
//! gateway grew in PR 3).
//!
//! Because it implements [`Binding`], an unmodified
//! [`Client`](correctables::Client) — and everything layered on clients:
//! speculation, combinators, the recording layer, the oracle — runs
//! against remote replicas with no code changes.
//!
//! A binding is a handle onto the epoll reactor: thousands of them
//! share the event loops of a process-wide [`ClientReactor`], where
//! each binding's connection and pending-op table live
//! ([`crate::reactor::client`]). This module holds the handle and the
//! reply-matching state machine (`handle_reply`) the loops run.
//!
//! ## Failover
//!
//! The binding takes the full replica address list. When the connection
//! to the current coordinator dies, every in-flight operation fails with
//! [`Error::Unavailable`] (their replies are gone with the socket — the
//! paper's model is failure-aware, not failure-masking), and the next
//! submission dials the next address in the list. Operations submitted
//! after the reconnect run against the new coordinator; any replica of
//! the set can coordinate, so the client keeps operating as long as one
//! replica is reachable.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use quorumstore::messages::{Msg, Phase};
use quorumstore::types::{OpId, ReadKind, Versioned};
use quorumstore::{IdMap, StoreOp};
use simnet::NodeId;

use crate::reactor::client::{ClientEv, ClientReactor, ReactorBinding};

/// Configuration of a [`TcpBinding`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// The replica set, preferred coordinator first. Failover walks this
    /// list round-robin.
    pub replicas: Vec<SocketAddr>,
    /// This client's id — the client half of every op id it issues.
    /// Must be unique among concurrently connected clients (replica ids
    /// occupy the same space; loadgen offsets client ids past them).
    pub client_id: u64,
    /// Read quorum for strong/final views (the paper's experiments use
    /// `R = 2` of 3).
    pub r_strong: u8,
    /// Enable the *CC confirmation optimization: a final view equal to
    /// the preliminary arrives as a 25-byte confirmation instead of a
    /// full record.
    pub confirm: bool,
    /// Client-side deadline per operation; a lost reply fails the
    /// Correctable with [`Error::Timeout`] instead of wedging it open.
    pub op_timeout: Duration,
    /// Per-address dial timeout during connect and failover.
    pub connect_timeout: Duration,
}

impl TcpConfig {
    /// A config for `replicas` with the defaults the tests and demo use:
    /// `R = 2`, no confirmation, 2 s op timeout, 1 s connect timeout.
    pub fn new(replicas: Vec<SocketAddr>, client_id: u64) -> TcpConfig {
        TcpConfig {
            replicas,
            client_id,
            r_strong: 2,
            confirm: false,
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// One in-flight operation awaiting its reply, with the views already
/// received that a final reply may fall back to.
pub(crate) struct PendingOp {
    pub(crate) upcall: Upcall<Versioned>,
    pub(crate) close_level: ConsistencyLevel,
    pub(crate) prelim: Option<Versioned>,
    pub(crate) written: Option<Versioned>,
}

/// Closes invocation `seq` with `data` (or, absent data, the held
/// preliminary for reads / the written record for writes) — the same
/// resolution order as the simulated gateway. A final reply with *no*
/// view to deliver — no data, no preliminary, no written record — fails
/// the op instead: fabricating an absent view would tell the caller
/// "the key does not exist" with strong confidence the binding never
/// actually obtained (the PR 3 *CC bug class, on a different path).
fn finish(pending: &mut IdMap<PendingOp>, seq: u64, data: Option<Versioned>) {
    let Some(p) = pending.remove(&seq) else {
        return;
    };
    match data.or(p.prelim).or(p.written) {
        Some(value) => p.upcall.deliver(value, p.close_level),
        None => p.upcall.fail(Error::Unavailable(
            "final reply carried no view and none was held".into(),
        )),
    }
}

/// Routes one server reply into the pending-op table: the reply-matching
/// half of the client state machine.
pub(crate) fn handle_reply(pending: &mut IdMap<PendingOp>, client_id: u64, msg: Msg) {
    let own = |op: OpId| op.client == NodeId(client_id as usize);
    match msg {
        Msg::ReadReply {
            op,
            phase: Phase::Preliminary,
            data,
        } if own(op) => {
            if let Some(p) = pending.get_mut(&op.seq) {
                p.prelim = Some(data.clone());
                let up = p.upcall.clone();
                up.deliver(data, ConsistencyLevel::WEAK);
            }
        }
        Msg::ReadReply { op, data, .. } if own(op) => {
            finish(pending, op.seq, Some(data));
        }
        Msg::ReadConfirm { op, version } if own(op) => {
            // *CC: confirm only against the preliminary we actually
            // hold — never fabricate a strong view from nothing.
            let Some(p) = pending.remove(&op.seq) else {
                return;
            };
            match p.prelim.filter(|prelim| prelim.version == version) {
                Some(prelim) => p.upcall.deliver(prelim, p.close_level),
                None => p.upcall.fail(Error::Unavailable(
                    "read confirmation without matching preliminary view".into(),
                )),
            }
        }
        Msg::WriteReply { op } if own(op) => finish(pending, op.seq, None),
        Msg::OpFailed { op, .. } if own(op) => {
            if let Some(p) = pending.remove(&op.seq) {
                p.upcall.fail(Error::Timeout);
            }
        }
        // Anything else: not ours, or not client-bound. Drop.
        _ => {}
    }
}

/// Fails every pending operation with `err`.
pub(crate) fn fail_all_pending(pending: &mut IdMap<PendingOp>, err: impl Fn() -> Error) {
    for (_, p) in pending.drain() {
        p.upcall.fail(err());
    }
}

/// A [`Binding`] whose storage stack lives across a TCP connection.
/// Cloning shares the connection and the op-id space.
#[derive(Clone)]
pub struct TcpBinding {
    r_strong: u8,
    confirm: bool,
    /// The address of the coordinator currently (or most recently)
    /// connected, for observability.
    coordinator: Arc<Mutex<SocketAddr>>,
    rb: ReactorBinding,
}

impl TcpBinding {
    /// Creates the binding on the process-wide [`ClientReactor`] and
    /// dials the first reachable replica.
    ///
    /// Fails only if *no* replica in the list accepts a connection; a
    /// partially available set connects to the first live address.
    pub fn connect(cfg: TcpConfig) -> io::Result<TcpBinding> {
        Self::connect_on(cfg, ClientReactor::global()?)
    }

    /// Creates the binding on a specific [`ClientReactor`] (loadgen
    /// uses a dedicated reactor sized for its run).
    pub fn connect_on(cfg: TcpConfig, reactor: &ClientReactor) -> io::Result<TcpBinding> {
        // lint: allow(panic_path) — constructor API-misuse check, pre-serving
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        let (r_strong, confirm) = (cfg.r_strong, cfg.confirm);
        reactor.register(cfg).map(|(coordinator, rb)| TcpBinding {
            r_strong,
            confirm,
            coordinator,
            rb,
        })
    }

    /// The replica this binding is currently coordinated by (the most
    /// recently dialed address after failover).
    pub fn coordinator(&self) -> SocketAddr {
        *self.coordinator.lock()
    }

    /// Disconnects and stops serving this binding. Pending operations
    /// fail with [`Error::Unavailable`]. Idempotent; dropping the last
    /// clone has the same effect.
    pub fn shutdown(&self) {
        self.rb.shutdown();
    }
}

impl Binding for TcpBinding {
    type Op = StoreOp;
    type Val = Versioned;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: StoreOp, levels: &[ConsistencyLevel], upcall: Upcall<Versioned>) {
        // The same level→ReadKind mapping as the simulated QuorumBinding:
        // both ends requested → server-side ICG read; strong only → one
        // quorum read; weak only → one R=1 read.
        let weak = levels.contains(&ConsistencyLevel::WEAK);
        let strong = levels.contains(&ConsistencyLevel::STRONG);
        let kind = match (weak, strong) {
            (true, true) => ReadKind::Icg {
                r: self.r_strong,
                confirm: self.confirm,
            },
            (false, _) => ReadKind::Single { r: self.r_strong },
            (true, false) => ReadKind::Single { r: 1 },
        };
        let close_level = upcall.strongest();
        self.rb.submit(ClientEv::Submit {
            binding: self.rb.id(),
            op,
            kind,
            upcall,
            close_level,
        });
    }
}
