//! The client half: a [`Binding`] over TCP.
//!
//! [`TcpBinding`] plays the role the in-simulation gateway plays for
//! `quorumstore::SimStore`: it owns the connection to a coordinator
//! replica, assigns op ids and matches replies back to pending
//! invocations. What a reply *means* — preliminary flush → `Weak` view,
//! final/single reply → closing view, confirmation → promote the held
//! preliminary or fail — is [`quorumstore::client`]'s, the one client
//! protocol both hosts run.
//!
//! Because it implements [`Binding`], an unmodified
//! [`Client`](correctables::Client) — and everything layered on clients:
//! speculation, combinators, the recording layer, the oracle — runs
//! against remote replicas with no code changes.
//!
//! A binding is a handle onto the epoll reactor: thousands of them
//! share the event loops of a process-wide [`ClientReactor`], where
//! each binding's connection and pending-op table live
//! ([`crate::reactor::client`]). This module holds the handle.
//!
//! ## Failover
//!
//! The binding takes the full replica address list. When the connection
//! to the current coordinator dies, every in-flight operation fails with
//! [`correctables::Error::Unavailable`] (their replies are gone with the socket — the
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

use correctables::{Binding, ConsistencyLevel, LevelSet, Upcall};
use quorumstore::types::Versioned;
use quorumstore::{read_kind, StoreOp};

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
    /// Correctable with [`correctables::Error::Timeout`] instead of wedging it open.
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
    /// fail with [`correctables::Error::Unavailable`]. Idempotent; dropping the last
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
        let kind = read_kind(levels, self.r_strong, self.confirm);
        self.rb.submit(ClientEv::Submit {
            binding: self.rb.id(),
            op,
            kind,
            upcall,
        });
    }
}
