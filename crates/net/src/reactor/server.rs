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
//! [`SpecCore`] — again the state machine the simulator hosts — to
//! [`crate::TcpSpecBinding`] on the same connections.
//!
//! Topology: one event loop, the *protocol loop*. It owns the listener,
//! the peer links, every client connection and both protocol cores
//! ([`ReplicaCore`] for the quorum store, [`SpecCore`] beside it — both
//! hosted here, written elsewhere). A connection's loop id is the key
//! the cores address it by. The links this replica dialed carry only its
//! peers' answers, and the loop dispatches them ahead of the rest of
//! each batch ([`Handler::answers`]): a final view they complete is
//! queued before its client's connection is read, and leaves in one
//! `write` with the replies to that client's new requests.
//!
//! Peer links are dialed by one auxiliary thread per peer (connecting
//! is the one operation that blocks), with jittered exponential
//! backoff so a downed replica costs its peers a couple of wakeups per
//! cap-interval instead of a spinning core; an established stream is
//! handed to the loop and the dialer parks until the loop reports the
//! link down. The quorum core hears of both events with the peer's
//! index (`on_peer_up`, `on_peer_down`): which pending reads ask whom
//! is its decision, not the reactor's. The spec core hears of a link
//! coming up and gossips again what that peer may have missed; both
//! cores' deadlines share the loop's one timer.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use quorumstore::ReplicaCore;
use simnet::Egress;
use specstore::SpecCore;

use crate::frame::encode_frame;
use crate::protocol::{RegCtrSpec, SpecStore, Wired};
use crate::wire::{NetMsg, Reader};

use super::backoff::Backoff;
use super::conn::CloseReason;
use super::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};

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
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            id: 0,
            op_timeout: Duration::from_secs(5),
            peer_retry: Duration::from_millis(200),
            peer_retry_cap: Duration::from_secs(5),
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
    #[expect(
        clippy::expect_used,
        reason = "setup API, called before serving starts"
    )]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound socket has an addr")
    }

    /// Starts serving. `peers` lists the *other* replicas.
    pub fn start(self, peers: Vec<SocketAddr>) -> ReplicaHandle {
        let addr = self.local_addr();
        let cfg = self.cfg;
        let id = cfg.id;
        let (down_txs, down_rxs): (Vec<Sender<()>>, Vec<Receiver<()>>) =
            (0..peers.len()).map(|_| mpsc::channel::<()>()).unzip();

        let handler = ReplicaHandler {
            // Equal distances: reads rotate over the links that are up.
            core: ReplicaCore::new(id, cfg.op_timeout, vec![0; peers.len()]),
            spec: SpecCore::new(RegCtrSpec::default(), id as usize, peers.len() + 1),
            epoch: Instant::now(),
            peer_conns: vec![None; peers.len()],
            peer_down: down_txs,
            scratch: Vec::new(),
        };
        #[expect(clippy::expect_used, reason = "startup, nothing is serving yet")]
        let (inj, _join) = spawn_loop(
            &format!("icg-reactor-{id}-main"),
            handler,
            Some(self.listener),
            DEFAULT_WRITE_CAP,
        )
        .expect("spawn protocol loop");

        // Peer dialers: one thread per peer, parked while its link is up.
        let stop = Arc::new(AtomicBool::new(false));
        for ((peer, peer_addr), down_rx) in peers.into_iter().enumerate().zip(down_rxs) {
            let inj = inj.clone();
            let stop = Arc::clone(&stop);
            #[expect(clippy::expect_used, reason = "startup, nothing is serving yet")]
            std::thread::Builder::new()
                .name(format!("icg-reactor-{id}-dial-{peer}"))
                .spawn(move || dial_peer_loop(cfg, peer, peer_addr, inj, down_rx, stop))
                .expect("spawn dialer thread");
        }

        ReplicaHandle { addr, stop, inj }
    }
}

/// A running replica. Dropping the handle does **not** stop the server;
/// call [`ReplicaHandle::shutdown`] (the failover tests use it as the
/// crash switch).
pub struct ReplicaHandle {
    addr: SocketAddr,
    /// Tells the peer dialers to stop redialing.
    stop: Arc<AtomicBool>,
    inj: Injector<PeerUp>,
}

impl ReplicaHandle {
    /// The address this replica serves on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the replica abruptly: the listener stops accepting, every
    /// open connection is closed, the event loop exits. In-flight
    /// operations are lost without replies — to a client this is
    /// indistinguishable from a crash, which is exactly what the
    /// failover tests need it to be.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.inj.send(Cmd::Shutdown);
    }
}

/// Binds and starts a full replica set on loopback ephemeral ports:
/// binds all listeners first (so every replica learns every address),
/// then starts each one with the other replicas as peers. Returns the
/// handles in id order.
#[expect(
    clippy::expect_used,
    reason = "cluster bootstrap helper, before anything serves"
)]
pub fn spawn_local_cluster(n: usize, cfg_of: impl Fn(u32) -> ServerConfig) -> Vec<ReplicaHandle> {
    let servers: Vec<ReplicaServer> = (0..n)
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

/// Connection tag for client connections.
const TAG_CLIENT: u64 = 0;
/// Peer link tags: `TAG_PEER_BASE + peer_idx`.
const TAG_PEER_BASE: u64 = 1;

/// What a dialer hands the protocol loop: it (re)established the stream
/// to peer `peer`.
pub(crate) struct PeerUp {
    peer: usize,
    stream: TcpStream,
}

/// One peer dialer: connect (blocking, with backoff), hand the stream
/// to the protocol loop, park until the loop signals the link down,
/// repeat.
fn dial_peer_loop(
    cfg: ServerConfig,
    peer: usize,
    peer_addr: SocketAddr,
    inj: Injector<PeerUp>,
    down_rx: Receiver<()>,
    stop: Arc<AtomicBool>,
) {
    let seed = ((cfg.id as u64) << 32) ^ (peer as u64) ^ 0x5EED;
    let mut backoff = Backoff::new(cfg.peer_retry, cfg.peer_retry_cap, seed);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match TcpStream::connect_timeout(&peer_addr, Duration::from_millis(500)) {
            Ok(stream) => {
                backoff.reset();
                inj.send(Cmd::Ev(PeerUp { peer, stream }));
                // Park until the loop reports the link down (an Err means
                // the loop itself is gone — exit).
                if down_rx.recv().is_err() {
                    return;
                }
            }
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

/// The protocol loop: the listener, the peer links, the client
/// connections and the protocol cores.
struct ReplicaHandler {
    core: ReplicaCore,
    /// The update/causal/strong spec store riding the same connections.
    spec: SpecStore,
    /// What the cores' deadline clock counts from.
    epoch: Instant,
    /// Conn id of each live peer link.
    peer_conns: Vec<Option<u64>>,
    /// Signals the matching dialer to re-dial when its link dies.
    peer_down: Vec<Sender<()>>,
    /// Frame-encode scratch for peer fan-out.
    scratch: Vec<u8>,
}

/// The protocol cores' window onto the reactor: every send is encoded
/// onto its connection by `ctl`. Both cores reach it through
/// [`Wired`], which wraps each of their messages in its envelope.
struct ReactorNet<'a> {
    ctl: &'a mut Ctl,
    peer_conns: &'a [Option<u64>],
    scratch: &'a mut Vec<u8>,
    epoch: Instant,
}

impl Egress<NetMsg> for ReactorNet<'_> {
    fn to_client(&mut self, conn: u64, msg: NetMsg) {
        self.ctl.send(conn, &msg);
    }

    fn to_peers(&mut self, msg: NetMsg) {
        // Encode once, copy the same bytes onto every live link.
        encode_frame(&msg, self.scratch);
        for conn in self.peer_conns.iter().flatten() {
            self.ctl.send_frame(*conn, self.scratch);
        }
    }

    fn to_peer(&mut self, peer: usize, msg: NetMsg) -> bool {
        let Some(conn) = self.peer_conns.get(peer).copied().flatten() else {
            return false;
        };
        self.ctl.send(conn, &msg);
        true
    }

    /// Monotonic nanoseconds since the replica started.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wall-clock nanoseconds since the Unix epoch, so coordinators in
    /// different processes stamp comparably.
    fn stamp(&self) -> u64 {
        let wall = SystemTime::now().duration_since(UNIX_EPOCH);
        wall.map_or(0, |d| d.as_nanos() as u64)
    }
}

impl ReplicaHandler {
    fn net<'a>(
        ctl: &'a mut Ctl,
        this: &'a mut Self,
    ) -> (
        Wired<ReactorNet<'a>>,
        &'a mut ReplicaCore,
        &'a mut SpecStore,
    ) {
        (
            Wired(ReactorNet {
                ctl,
                peer_conns: &this.peer_conns,
                scratch: &mut this.scratch,
                epoch: this.epoch,
            }),
            &mut this.core,
            &mut this.spec,
        )
    }
}

impl Handler for ReplicaHandler {
    type Ev = PeerUp;

    fn on_accept(&mut self, ctl: &mut Ctl, stream: TcpStream) {
        ctl.adopt(stream, TAG_CLIENT);
    }

    /// Routes one decoded envelope's message to its core: a store frame
    /// to the quorum core, a spec frame to the spec store. On this
    /// replica's own link to a peer (where that peer's answers and acks
    /// arrive) the cores are told the peer's index; every accepted
    /// connection is a client.
    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        let Ok(msg) = Reader::new(body).finish::<NetMsg>() else {
            return ctl.close_with(conn, CloseReason::Garbage, true);
        };
        // Peer links are tagged with the peer's index.
        let from_peer = ctl
            .tag_of(conn)
            .and_then(|tag| tag.checked_sub(TAG_PEER_BASE))
            .map(|peer| peer as usize);
        let (mut net, core, spec) = ReplicaHandler::net(ctl, self);
        match msg {
            NetMsg::Store(m) => core.on_msg(&mut net, conn, from_peer, m),
            NetMsg::Spec(m) => spec.on_msg(&mut net, conn, from_peer, m),
        }
    }

    fn on_close(&mut self, ctl: &mut Ctl, conn: u64, tag: u64, _reason: CloseReason) {
        if tag >= TAG_PEER_BASE {
            let peer = (tag - TAG_PEER_BASE) as usize;
            // Only the *current* link counts: a stale close from a link
            // already replaced by the dialer must not tear down its
            // successor or double-signal the dialer.
            if self.peer_conns.get(peer).copied().flatten() == Some(conn) {
                if let Some(slot) = self.peer_conns.get_mut(peer) {
                    *slot = None;
                }
                if let Some(tx) = self.peer_down.get(peer) {
                    let _ = tx.send(());
                }
                let (mut net, core, _) = ReplicaHandler::net(ctl, self);
                core.on_peer_down(&mut net, peer);
            }
        }
    }

    fn on_event(&mut self, ctl: &mut Ctl, PeerUp { peer, stream }: PeerUp) {
        let tag = TAG_PEER_BASE + peer as u64;
        let Some(conn) = ctl.adopt(stream, tag) else {
            // Registration failed: tell the dialer to retry.
            if let Some(tx) = self.peer_down.get(peer) {
                let _ = tx.send(());
            }
            return;
        };
        // A link the dialer replaced is closed quietly; what the core
        // had asked on it is lost all the same.
        let old = self.peer_conns.get(peer).copied().flatten();
        if let Some(old) = old {
            ctl.close(old);
        }
        if let Some(slot) = self.peer_conns.get_mut(peer) {
            *slot = Some(conn);
        }
        let (mut net, core, spec) = ReplicaHandler::net(ctl, self);
        if old.is_some() {
            core.on_peer_down(&mut net, peer);
        }
        core.on_peer_up(&mut net, peer);
        spec.on_peer_up(&mut net);
    }

    fn on_tick(&mut self, ctl: &mut Ctl) {
        let (mut net, core, spec) = ReplicaHandler::net(ctl, self);
        core.fire_expired(&mut net);
        spec.fire_expired(&mut net);
    }

    /// The links this replica dialed carry its peers' answers to its
    /// own `PeerRead`s and `PeerWrite`s: dispatched first, a final view
    /// they complete leaves in its client's next `write`, beside the
    /// replies to that client's new requests.
    fn answers(&self, tag: u64) -> bool {
        tag >= TAG_PEER_BASE
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let dues = [self.core.next_deadline(), self.spec.next_deadline()];
        let due = dues.into_iter().flatten().min()?;
        Some(self.epoch + Duration::from_nanos(due))
    }
}
