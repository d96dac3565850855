//! The quorum-store replica served by the epoll reactor.
//!
//! Topology: `cfg.loops` event loops. Loop 0 is the *protocol loop* —
//! it owns the listener, the peer links, the protocol cores
//! ([`ReplicaCore`] for the quorum store, [`SpecCore`] for the spec
//! store beside it — both hosted here, written elsewhere), and its
//! share of the client connections. Loops
//! `1..N` are *forwarding loops*: they own the remaining client
//! connections, decode inbound frames on their own thread, and inject
//! the decoded messages into loop 0; replies travel back as
//! pre-encoded frames through the forwarding loop's injector. Accepted
//! connections round-robin across all loops, so with `loops = 1`
//! (the default) everything runs on one thread with zero cross-loop
//! hops.
//!
//! Connections are addressed by a 64-bit key: the owning loop's index
//! in the top 16 bits, the loop-local connection id in the low 48. The
//! cores never know the difference — their egress routes by key.
//!
//! Peer links are dialed by one auxiliary thread per peer (connecting
//! is the one operation that blocks), with jittered exponential
//! backoff so a downed replica costs its peers a couple of wakeups per
//! cap-interval instead of a spinning core; an established stream is
//! handed to loop 0 and the dialer parks until the loop reports the
//! link down. The quorum core hears of both events with the peer's
//! index (`on_peer_up`, `on_peer_down`): which pending reads ask whom
//! is its decision, not the reactor's. The spec core hears of a link
//! coming up and gossips again what that peer may have missed; both
//! cores' deadlines share the loop's one timer.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use quorumstore::{Egress, Msg, ReplicaCore};

use crate::frame::encode_frame;
use specstore::SpecCore;

use crate::protocol::{self, NetEgress, RegCtrSpec, SpecStore, Wired};
use crate::server::{ReplicaHandle, ServerConfig};
use crate::wire::{NetMsg, Reader};

use super::backoff::{Backoff, Sleeper, ThreadSleeper};
use super::conn::CloseReason;
use super::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};

/// Loop index lives in the key's top bits, local conn id in the rest.
const LOOP_SHIFT: u32 = 48;
const CONN_MASK: u64 = (1 << LOOP_SHIFT) - 1;

/// Connection tag for client connections.
const TAG_CLIENT: u64 = 0;
/// Peer link tags: `TAG_PEER_BASE + peer_idx`.
const TAG_PEER_BASE: u64 = 1;

fn key_of(loop_idx: usize, conn: u64) -> u64 {
    ((loop_idx as u64) << LOOP_SHIFT) | (conn & CONN_MASK)
}

/// Events other threads inject into the protocol loop.
pub(crate) enum ServerEv {
    /// A dialer (re)established the stream to peer `peer`.
    PeerUp { peer: usize, stream: TcpStream },
    /// A forwarding loop decoded `msg` on connection `key`.
    Remote { key: u64, msg: NetMsg },
}

/// Starts a replica.
pub(crate) fn start(
    listener: TcpListener,
    cfg: ServerConfig,
    peers: Vec<SocketAddr>,
) -> ReplicaHandle {
    let addr = listener
        .local_addr()
        // lint: allow(panic_path) — startup, nothing is serving yet
        .expect("bound socket has an addr");
    let n_loops = cfg.loops.max(1);
    let id = cfg.id;

    // Forwarding loops first (the protocol loop needs their injectors).
    // Each gets a shared slot for the protocol loop's injector, filled
    // once that loop exists; frames arriving in the gap are parked by
    // the kernel in the socket buffers, not lost.
    let mut remotes: Vec<Injector<()>> = Vec::new();
    let mut main_slots: Vec<MainSlot> = Vec::new();
    for i in 1..n_loops {
        let slot: MainSlot = Arc::new(PlMutex::new(None));
        let fh = ForwardHandler {
            idx: i,
            main: Arc::clone(&slot),
        };
        let (inj, _join) = spawn_loop(
            &format!("icg-reactor-{id}-fwd{i}"),
            fh,
            None,
            DEFAULT_WRITE_CAP,
        )
        // lint: allow(panic_path) — startup, nothing is serving yet
        .expect("spawn forwarding loop");
        remotes.push(inj);
        main_slots.push(slot);
    }

    let (down_txs, down_rxs): (Vec<Sender<()>>, Vec<Receiver<()>>) =
        (0..peers.len()).map(|_| mpsc::channel::<()>()).unzip();

    let handler = MainHandler {
        // Equal distances: reads rotate over the links that are up.
        core: ReplicaCore::new(cfg.id, cfg.op_timeout, vec![0; peers.len()]),
        spec: SpecCore::new(RegCtrSpec::default(), cfg.id as usize, peers.len() + 1),
        epoch: Instant::now(),
        remotes: remotes.clone(),
        peer_conns: vec![None; peers.len()],
        peer_down: down_txs,
        rr: 0,
        scratch: Vec::new(),
    };
    let (main_inj, _join) = spawn_loop(
        &format!("icg-reactor-{id}-main"),
        handler,
        Some(listener),
        DEFAULT_WRITE_CAP,
    )
    // lint: allow(panic_path) — startup, nothing is serving yet
    .expect("spawn protocol loop");

    // Hand the protocol loop's injector to every forwarding handler.
    for slot in &main_slots {
        *slot.lock() = Some(main_inj.clone());
    }

    // Peer dialers: one thread per peer, parked while its link is up.
    let stop = Arc::new(AtomicBool::new(false));
    for ((peer_idx, peer_addr), down_rx) in peers.iter().copied().enumerate().zip(down_rxs) {
        let inj = main_inj.clone();
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("icg-reactor-{id}-dial-{peer_idx}"))
            .spawn(move || {
                dial_peer_loop(cfg, peer_idx, peer_addr, inj, down_rx, stop, &ThreadSleeper)
            })
            // lint: allow(panic_path) — startup, nothing is serving yet
            .expect("spawn dialer thread");
    }

    ReplicaHandle {
        addr,
        shutdown: Box::new(move || {
            stop.store(true, Ordering::Release);
            main_inj.send(Cmd::Shutdown);
            for r in &remotes {
                r.send(Cmd::Shutdown);
            }
        }),
    }
}

/// A forwarding handler's view of the protocol loop's injector, which
/// does not exist until after the forwarding loops are spawned.
type MainSlot = Arc<PlMutex<Option<Injector<ServerEv>>>>;
use parking_lot::Mutex as PlMutex;

/// One peer dialer: connect (blocking, with backoff), hand the stream
/// to the protocol loop, park until the loop signals the link down,
/// repeat.
fn dial_peer_loop(
    cfg: ServerConfig,
    peer_idx: usize,
    peer_addr: SocketAddr,
    inj: Injector<ServerEv>,
    down_rx: Receiver<()>,
    stop: Arc<AtomicBool>,
    sleeper: &impl Sleeper,
) {
    let seed = ((cfg.id as u64) << 32) ^ (peer_idx as u64) ^ 0x5EED;
    let mut backoff = Backoff::new(cfg.peer_retry, cfg.peer_retry_cap, seed);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match TcpStream::connect_timeout(&peer_addr, Duration::from_millis(500)) {
            Ok(stream) => {
                backoff.reset();
                inj.send(Cmd::Ev(ServerEv::PeerUp {
                    peer: peer_idx,
                    stream,
                }));
                // Park until the loop reports the link down (an Err means
                // the loop itself is gone — exit).
                if down_rx.recv().is_err() {
                    return;
                }
            }
            Err(_) => sleeper.sleep(backoff.next_delay()),
        }
    }
}

/// Loop 0: the listener, the peer links, and the protocol cores.
struct MainHandler {
    core: ReplicaCore,
    /// The update/causal/strong spec store riding the same connections.
    spec: SpecStore,
    /// What the cores' deadline clock counts from.
    epoch: Instant,
    /// Injectors of loops `1..N`, indexed by `loop_idx - 1`.
    remotes: Vec<Injector<()>>,
    /// Loop-0 conn id of each live peer link.
    peer_conns: Vec<Option<u64>>,
    /// Signals the matching dialer to re-dial when its link dies.
    peer_down: Vec<Sender<()>>,
    /// Accept round-robin cursor across all loops.
    rr: usize,
    /// Frame-encode scratch for peer fan-out.
    scratch: Vec<u8>,
}

/// The protocol cores' window onto the reactor: loop-0 sends are
/// encoded onto the connection by `ctl`, cross-loop sends are encoded
/// here and the bytes handed to the owning loop.
struct ReactorNet<'a> {
    ctl: &'a mut Ctl,
    remotes: &'a [Injector<()>],
    peer_conns: &'a [Option<u64>],
    scratch: &'a mut Vec<u8>,
    epoch: Instant,
}

/// The quorum core speaks bare store messages; on the wire each is a
/// [`NetMsg::Store`] frame, wrapped by move.
impl Egress for ReactorNet<'_> {
    fn to_client(&mut self, key: u64, msg: Msg) {
        NetEgress::to_client(self, key, &NetMsg::Store(msg));
    }

    fn to_peers(&mut self, msg: Msg) {
        NetEgress::to_peers(self, &NetMsg::Store(msg));
    }

    fn to_peer(&mut self, peer: usize, msg: Msg) -> bool {
        let Some(conn) = self.peer_conns.get(peer).copied().flatten() else {
            return false;
        };
        self.ctl.send(conn, &NetMsg::Store(msg));
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

impl NetEgress for ReactorNet<'_> {
    fn to_client(&mut self, key: u64, msg: &NetMsg) {
        let loop_idx = (key >> LOOP_SHIFT) as usize;
        if loop_idx == 0 {
            self.ctl.send(key, msg);
        } else if let Some(inj) = self.remotes.get(loop_idx - 1) {
            let mut frame = Vec::new();
            encode_frame(msg, &mut frame);
            inj.send(Cmd::Send {
                conn: key & CONN_MASK,
                frame,
            });
        }
    }

    fn to_peers(&mut self, msg: &NetMsg) {
        // Encode once, copy the same bytes onto every live link.
        encode_frame(msg, self.scratch);
        for conn in self.peer_conns.iter().flatten() {
            self.ctl.send_frame(*conn, self.scratch);
        }
    }

    fn now(&self) -> u64 {
        Egress::now(self)
    }
}

impl MainHandler {
    fn net<'a>(
        ctl: &'a mut Ctl,
        this: &'a mut Self,
    ) -> (ReactorNet<'a>, &'a mut ReplicaCore, &'a mut SpecStore) {
        (
            ReactorNet {
                ctl,
                remotes: &this.remotes,
                peer_conns: &this.peer_conns,
                scratch: &mut this.scratch,
                epoch: this.epoch,
            },
            &mut this.core,
            &mut this.spec,
        )
    }

    /// Routes one decoded envelope from connection `key`: store frames
    /// to the quorum core, everything else to the spec store.
    /// `from_peer` is the peer index when `key` is this replica's own
    /// link to a peer (where that peer's answers and acks arrive),
    /// `None` for every accepted connection.
    fn dispatch(&mut self, ctl: &mut Ctl, key: u64, from_peer: Option<usize>, msg: NetMsg) {
        let (mut net, core, spec) = MainHandler::net(ctl, self);
        match msg {
            NetMsg::Store(m) => core.on_msg(&mut net, key, from_peer, m),
            other => protocol::on_net(spec, &mut net, key, from_peer, other),
        }
    }
}

impl Handler for MainHandler {
    type Ev = ServerEv;

    fn on_open(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64) {}

    fn on_accept(&mut self, ctl: &mut Ctl, stream: TcpStream) {
        let n = self.remotes.len() + 1;
        let target = self.rr % n;
        self.rr = self.rr.wrapping_add(1);
        if target == 0 {
            ctl.adopt(stream, TAG_CLIENT);
        } else if let Some(inj) = self.remotes.get(target - 1) {
            inj.send(Cmd::Adopt {
                stream,
                tag: TAG_CLIENT,
            });
        }
    }

    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        match Reader::new(body).finish::<NetMsg>() {
            Ok(msg) => {
                // Peer links are tagged with the peer's index.
                let from_peer = ctl
                    .tag_of(conn)
                    .and_then(|tag| tag.checked_sub(TAG_PEER_BASE))
                    .map(|peer| peer as usize);
                self.dispatch(ctl, key_of(0, conn), from_peer, msg);
            }
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, true),
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
                let (mut net, core, _) = MainHandler::net(ctl, self);
                core.on_peer_down(&mut net, peer);
            }
        }
    }

    fn on_event(&mut self, ctl: &mut Ctl, ev: ServerEv) {
        match ev {
            ServerEv::PeerUp { peer, stream } => {
                let tag = TAG_PEER_BASE + peer as u64;
                match ctl.adopt(stream, tag) {
                    Some(conn) => {
                        // A link the dialer replaced is closed quietly;
                        // what the core had asked on it is lost all the
                        // same.
                        let old = self.peer_conns.get(peer).copied().flatten();
                        if let Some(old) = old {
                            ctl.close(old);
                        }
                        if let Some(slot) = self.peer_conns.get_mut(peer) {
                            *slot = Some(conn);
                        }
                        let (mut net, core, spec) = MainHandler::net(ctl, self);
                        if old.is_some() {
                            core.on_peer_down(&mut net, peer);
                        }
                        core.on_peer_up(&mut net, peer);
                        spec.on_peer_up(&mut Wired(&mut net));
                    }
                    None => {
                        // Registration failed: tell the dialer to retry.
                        if let Some(tx) = self.peer_down.get(peer) {
                            let _ = tx.send(());
                        }
                    }
                }
            }
            ServerEv::Remote { key, msg } => {
                // Forwarding loops carry client connections only.
                self.dispatch(ctl, key, None, msg);
            }
        }
    }

    fn on_tick(&mut self, ctl: &mut Ctl) {
        let (mut net, core, spec) = MainHandler::net(ctl, self);
        core.fire_expired(&mut net);
        spec.fire_expired(&mut Wired(&mut net));
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let dues = [self.core.next_deadline(), self.spec.next_deadline()];
        let due = dues.into_iter().flatten().min()?;
        Some(self.epoch + Duration::from_nanos(due))
    }
}

/// Loops 1..N: decode inbound frames off this loop's connections and
/// inject the messages into the protocol loop; outbound frames arrive
/// pre-encoded via [`Cmd::Send`].
struct ForwardHandler {
    idx: usize,
    main: MainSlot,
}

impl Handler for ForwardHandler {
    type Ev = ();

    fn on_open(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64) {}

    fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {
        // Forwarding loops have no listener.
    }

    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        match Reader::new(body).finish::<NetMsg>() {
            Ok(msg) => {
                // Clone the injector out of the slot so the slot lock is
                // not held across the send (which takes the queue lock
                // and writes the wake fd).
                let slot = self.main.lock();
                let main = slot.clone();
                drop(slot);
                if let Some(main) = main {
                    main.send(Cmd::Ev(ServerEv::Remote {
                        key: key_of(self.idx, conn),
                        msg,
                    }));
                }
            }
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, false),
        }
    }

    fn on_close(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64, _reason: CloseReason) {
        // Replies routed to a gone connection drop silently in
        // `Ctl::send_frame`; nothing to tell the protocol loop.
    }

    fn on_event(&mut self, _ctl: &mut Ctl, _ev: ()) {}

    fn on_tick(&mut self, _ctl: &mut Ctl) {}

    fn next_deadline(&mut self) -> Option<Instant> {
        None
    }
}
