//! A quorum-store replica served over real TCP sockets.
//!
//! [`ReplicaServer`] serves [`quorumstore::ReplicaCore`] — the very
//! state machine the simulator hosts, not a port of it: the same
//! [`quorumstore::Msg`] set, the same coordinator roles, the same
//! preliminary-flush and confirmation behaviour — over the wire codec of
//! this crate, so an unmodified Correctables client drives it through
//! [`crate::TcpBinding`].
//!
//! Peer reads included: a quorum read goes to exactly the `R-1` peers it
//! needs. This host tells the core nothing about how far its peers are,
//! so consecutive reads rotate over the links that are up (the simulator
//! passes its topology and gets the nearest). What keeps an `R = 2` read
//! available when one of three replicas is down — the whole point of
//! running a quorum system on sockets — is that the read asks a further
//! peer as soon as there is evidence one it asked will not answer: that
//! peer's link closes, a link the read was missing comes up, or a
//! quarter of [`ServerConfig::op_timeout`] passes in silence (DESIGN.md
//! §3).
//!
//! Beside it the same replica serves the spec store,
//! `specstore::SpecCore` — again the state machine the simulator hosts —
//! to [`crate::TcpSpecBinding`] on the same connections.
//!
//! The epoll reactor ([`crate::reactor`]) is the cores' host here: it
//! supplies the links, the clocks and the egress. This module is the
//! public surface: configuration, bind-then-start, the running
//! replica's handle.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Tuning knobs of a TCP replica.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// This replica's id: the writer tiebreak in LWW versions and the
    /// client half of the op ids it mints for peer traffic. Must be
    /// unique across the replica set.
    pub id: u32,
    /// Deadline for gathering quorums before failing an operation back
    /// to the client. A quorum read still waiting a quarter of the way
    /// in stops trusting the peers it asked and asks the rest.
    pub op_timeout: Duration,
    /// Base delay between reconnection attempts to an unreachable peer;
    /// doubles per consecutive failure up to [`ServerConfig::peer_retry_cap`].
    pub peer_retry: Duration,
    /// Ceiling on the peer-reconnect backoff.
    pub peer_retry_cap: Duration,
    /// Reactor event loops for client traffic. One loop suffices below
    /// ~10k connections per replica; more loops spread the epoll and
    /// parse work across cores.
    pub loops: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            id: 0,
            op_timeout: Duration::from_secs(5),
            peer_retry: Duration::from_millis(200),
            peer_retry_cap: Duration::from_secs(5),
            loops: 1,
        }
    }
}

/// A bound-but-not-yet-serving replica. Binding first and starting
/// second lets a deployment bind every listener (learning the ephemeral
/// ports), then start each replica with the full peer address list.
pub struct ReplicaServer {
    listener: TcpListener,
    cfg: ServerConfig,
}

impl ReplicaServer {
    /// Binds the listening socket. `127.0.0.1:0` picks an ephemeral port;
    /// read it back with [`ReplicaServer::local_addr`].
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<ReplicaServer> {
        Ok(ReplicaServer {
            listener: TcpListener::bind(addr)?,
            cfg,
        })
    }

    /// The address the replica is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            // lint: allow(panic_path) — setup API, called before serving starts
            .expect("bound socket has an addr")
    }

    /// Starts serving. `peers` lists the *other* replicas.
    pub fn start(self, peers: Vec<SocketAddr>) -> ReplicaHandle {
        crate::reactor::server::start(self.listener, self.cfg, peers)
    }
}

/// A running replica. Dropping the handle does **not** stop the server;
/// call [`ReplicaHandle::shutdown`] (the failover tests use it as the
/// crash switch).
pub struct ReplicaHandle {
    pub(crate) addr: SocketAddr,
    /// Stops the peer dialers and shuts every event loop down.
    pub(crate) shutdown: Box<dyn Fn() + Send + Sync>,
}

impl ReplicaHandle {
    /// The address this replica serves on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the replica abruptly: the listener stops accepting, every
    /// open connection is closed, the event loops exit. In-flight
    /// operations are lost without replies — to a client this is
    /// indistinguishable from a crash, which is exactly what the
    /// failover tests need it to be.
    pub fn shutdown(&self) {
        (self.shutdown)();
    }
}

/// Binds and starts a full replica set on loopback ephemeral ports:
/// binds all listeners first (so every replica learns every address),
/// then starts each one with the other replicas as peers. Returns the
/// handles in id order.
pub fn spawn_local_cluster(n: usize, cfg_of: impl Fn(u32) -> ServerConfig) -> Vec<ReplicaHandle> {
    let servers: Vec<ReplicaServer> = (0..n)
        // lint: allow(panic_path) — cluster bootstrap helper, pre-serving
        .map(|i| ReplicaServer::bind("127.0.0.1:0", cfg_of(i as u32)).expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    servers
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let peers: Vec<SocketAddr> = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| *a)
                .collect();
            s.start(peers)
        })
        .collect()
}
