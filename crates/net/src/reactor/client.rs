//! Client bindings multiplexed onto shared reactor loops.
//!
//! A [`ClientReactor`] hosts thousands of bindings on a fixed set of
//! event loops (bindings are assigned round-robin at creation) plus one
//! dialer thread for the reconnects that must block — a binding costs a
//! socket, never a thread. Each binding's state — its pending-op table,
//! its connection, its failover cursor — lives on its loop thread; the
//! [`crate::TcpBinding`] and [`crate::TcpSpecBinding`] handles only
//! inject commands. The two kinds share a loop's binding table,
//! connection tags and deadline heap; the spec binding's state machine
//! itself is in [`crate::spec_binding`].
//!
//! Failover of a quorum binding: a dead coordinator fails every
//! in-flight op `Unavailable`, and the next submission triggers a dial
//! of the next address. The loop dials *asynchronously* (it must keep
//! serving its other bindings), so ops submitted during the dial are
//! queued and sent on success instead of blocking the caller.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use correctables::{Error, Upcall};
use quorumstore::client::on_reply;
use quorumstore::messages::Msg;
use quorumstore::types::{ReadKind, Versioned};
use quorumstore::{encode_submit, ClientOp, Deadlines, IdMap, StoreOp};
use simnet::NodeId;

use crate::binding::TcpConfig;
use crate::spec_binding::SpecState;
use crate::wire::{Reader, SpecOp};

use super::conn::CloseReason;
use super::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};

/// Events injected into a client loop.
pub(crate) enum ClientEv {
    /// A freshly created binding arrives with its already-dialed stream.
    Register {
        binding: u64,
        cfg: TcpConfig,
        stream: TcpStream,
        addr_idx: usize,
        coordinator: Arc<Mutex<SocketAddr>>,
    },
    /// One operation submitted through the binding.
    Submit {
        binding: u64,
        op: StoreOp,
        kind: ReadKind,
        upcall: Upcall<Versioned>,
    },
    /// The dialer re-established a connection for `binding`.
    DialOk {
        binding: u64,
        stream: TcpStream,
        addr_idx: usize,
    },
    /// The dialer found no replica reachable for `binding`.
    DialFailed { binding: u64 },
    /// The binding's last handle is gone (or `shutdown` was called).
    Deregister { binding: u64 },
    /// A freshly created spec binding arrives with its stream, the
    /// handshake already done on it. The state is boxed so this rare
    /// event does not set the size of every queued command (nor the
    /// rarer kind of binding the size of every table slot).
    RegisterSpec {
        binding: u64,
        state: Box<SpecState>,
        stream: TcpStream,
    },
    /// One operation submitted through a spec binding; `wants` holds
    /// the requested levels under this process's wire ids.
    SubmitSpec {
        binding: u64,
        op: SpecOp,
        wants: Vec<u8>,
        upcall: Upcall<u64>,
    },
}

impl ClientEv {
    /// Fails the caller waiting on this event, if it is a submission:
    /// its loop has exited and will never serve it.
    pub(crate) fn fail_unserved(self) {
        let err = Error::Unavailable("client reactor shut down".into());
        match self {
            ClientEv::Submit { upcall, .. } => upcall.fail(err),
            ClientEv::SubmitSpec { upcall, .. } => upcall.fail(err),
            _ => {}
        }
    }
}

/// One async reconnect job for the dialer thread.
struct DialReq {
    binding: u64,
    loop_idx: usize,
    replicas: Vec<SocketAddr>,
    start_idx: usize,
    connect_timeout: Duration,
}

/// The process-wide home of reactor client bindings: `loops` event-loop
/// threads plus one dialer thread. [`crate::TcpBinding::connect`] uses
/// a lazily created global instance sized to the machine; create your
/// own (and pass it to [`crate::TcpBinding::connect_on`]) to isolate a
/// workload — the load generator runs its many-connection mode on a
/// dedicated reactor.
pub struct ClientReactor {
    loops: Vec<Injector<ClientEv>>,
    next_binding: AtomicU64,
}

impl ClientReactor {
    /// Spawns a reactor with `loops` event loops (clamped to at least
    /// one).
    pub fn new(loops: usize) -> io::Result<ClientReactor> {
        let n = loops.max(1);
        let (dial_tx, dial_rx) = mpsc::channel::<DialReq>();
        let mut injs = Vec::with_capacity(n);
        for i in 0..n {
            let handler = ClientHandler {
                loop_idx: i,
                dial_tx: dial_tx.clone(),
                bindings: IdMap::default(),
                deadlines: Deadlines::default(),
            };
            let (inj, _join) = spawn_loop(
                &format!("icg-client-loop{i}"),
                handler,
                None,
                DEFAULT_WRITE_CAP,
            )?;
            injs.push(inj);
        }
        {
            let loops = injs.clone();
            std::thread::Builder::new()
                .name("icg-client-dialer".to_string())
                .spawn(move || dialer_loop(dial_rx, loops))?;
        }
        Ok(ClientReactor {
            loops: injs,
            next_binding: AtomicU64::new(0),
        })
    }

    /// The shared process-wide reactor behind [`crate::TcpBinding::connect`]
    /// and [`crate::TcpSpecBinding::connect`], created on first use
    /// with one loop per core (capped at four — client work is
    /// parse-and-match, not compute).
    pub(crate) fn global() -> io::Result<&'static ClientReactor> {
        static GLOBAL: OnceLock<io::Result<ClientReactor>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let loops = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .clamp(1, 4);
                ClientReactor::new(loops)
            })
            .as_ref()
            .map_err(|e| io::Error::new(e.kind(), e.to_string()))
    }

    /// Mints a binding id, picks its loop round-robin and delivers the
    /// registration event `ev_of(id)` there. Fails if that loop has
    /// exited — the binding could never be served.
    fn enroll(&self, ev_of: impl FnOnce(u64) -> ClientEv) -> io::Result<ReactorBinding> {
        let binding = self.next_binding.fetch_add(1, Ordering::Relaxed);
        let loop_idx = (binding as usize) % self.loops.len().max(1);
        let Some(inj) = self.loops.get(loop_idx) else {
            return Err(io::Error::other("client reactor has no loops"));
        };
        if inj.try_send(Cmd::Ev(ev_of(binding))).is_err() {
            return Err(io::Error::other("client reactor loop has exited"));
        }
        Ok(ReactorBinding {
            binding,
            inj: inj.clone(),
            _deregister_on_last_drop: Arc::new(DeregisterGuard {
                binding,
                inj: inj.clone(),
            }),
        })
    }

    /// Registers a spec binding whose `stream` already carried the
    /// handshake.
    pub(crate) fn register_spec(
        &self,
        state: SpecState,
        stream: TcpStream,
    ) -> io::Result<ReactorBinding> {
        self.enroll(|binding| ClientEv::RegisterSpec {
            binding,
            state: Box::new(state),
            stream,
        })
    }

    /// Dials the first reachable replica (the constructor's synchronous
    /// contract: a dead deployment surfaces here) and registers the
    /// binding with one of the loops.
    pub(crate) fn register(
        &self,
        cfg: TcpConfig,
    ) -> io::Result<(Arc<Mutex<SocketAddr>>, ReactorBinding)> {
        let mut dialed = None;
        for (idx, addr) in cfg.replicas.iter().enumerate() {
            if let Ok(stream) = TcpStream::connect_timeout(addr, cfg.connect_timeout) {
                dialed = Some((idx, *addr, stream));
                break;
            }
        }
        let Some((addr_idx, addr, stream)) = dialed else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no replica in the list accepted a connection",
            ));
        };
        let coordinator = Arc::new(Mutex::new(addr));
        let rb = self.enroll(|binding| ClientEv::Register {
            binding,
            cfg,
            stream,
            addr_idx,
            coordinator: Arc::clone(&coordinator),
        })?;
        Ok((coordinator, rb))
    }
}

impl Drop for ClientReactor {
    /// Stops the loops. Each fails its bindings' in-flight operations
    /// `Unavailable` on the way out, and bindings still alive afterwards
    /// fail every later operation the same way.
    fn drop(&mut self) {
        for inj in &self.loops {
            inj.send(Cmd::Shutdown);
        }
    }
}

/// The binding half living inside [`crate::TcpBinding`] and
/// [`crate::TcpSpecBinding`]: an injector plus the binding's id on its
/// loop.
#[derive(Clone)]
pub(crate) struct ReactorBinding {
    binding: u64,
    inj: Injector<ClientEv>,
    _deregister_on_last_drop: Arc<DeregisterGuard>,
}

impl ReactorBinding {
    pub(crate) fn id(&self) -> u64 {
        self.binding
    }

    /// Hands a submission to the binding's loop, or fails it right here
    /// if that loop has exited.
    pub(crate) fn submit(&self, ev: ClientEv) {
        if let Err(Cmd::Ev(ev)) = self.inj.try_send(Cmd::Ev(ev)) {
            ev.fail_unserved();
        }
    }

    pub(crate) fn shutdown(&self) {
        self.inj.send(Cmd::Ev(ClientEv::Deregister {
            binding: self.binding,
        }));
    }
}

/// Deregisters the binding when the last clone of its handle is
/// dropped, failing its pending ops and closing its socket.
struct DeregisterGuard {
    binding: u64,
    inj: Injector<ClientEv>,
}

impl Drop for DeregisterGuard {
    fn drop(&mut self) {
        self.inj.send(Cmd::Ev(ClientEv::Deregister {
            binding: self.binding,
        }));
    }
}

/// The dialer thread: walks a binding's replica list one round per
/// request (connecting is the one blocking operation the loops must
/// not perform) and injects the outcome back into the binding's loop.
fn dialer_loop(rx: Receiver<DialReq>, loops: Vec<Injector<ClientEv>>) {
    while let Ok(req) = rx.recv() {
        let n = req.replicas.len();
        let mut dialed = None;
        for attempt in 0..n {
            let idx = (req.start_idx + attempt) % n;
            let Some(addr) = req.replicas.get(idx) else {
                continue;
            };
            if let Ok(stream) = TcpStream::connect_timeout(addr, req.connect_timeout) {
                dialed = Some((idx, stream));
                break;
            }
        }
        let Some(inj) = loops.get(req.loop_idx) else {
            continue;
        };
        match dialed {
            Some((addr_idx, stream)) => inj.send(Cmd::Ev(ClientEv::DialOk {
                binding: req.binding,
                stream,
                addr_idx,
            })),
            None => inj.send(Cmd::Ev(ClientEv::DialFailed {
                binding: req.binding,
            })),
        }
    }
}

/// Per-binding state on its loop thread.
struct BState {
    cfg: TcpConfig,
    coordinator: Arc<Mutex<SocketAddr>>,
    pending: IdMap<ClientOp>,
    next_seq: u64,
    /// The loop-local connection id of the live coordinator link.
    conn: Option<u64>,
    /// Failover cursor into `cfg.replicas`.
    addr_idx: usize,
    /// An async dial is in flight; submissions queue on `unsent`.
    dialing: bool,
    /// After a failed dial round, fail submissions fast until here.
    retry_after: Option<Instant>,
    /// Ops submitted while dialing, sent in order on `DialOk`.
    unsent: Vec<(u64, Msg)>,
}

impl BState {
    fn fail_all(&mut self, err: impl Fn() -> Error) {
        for (_, p) in self.pending.drain() {
            p.fail(err());
        }
        self.unsent.clear();
    }
}

/// One entry of a loop's binding table.
enum Slot {
    /// A [`crate::TcpBinding`]: the quorum store, with failover.
    Quorum(BState),
    /// A [`crate::TcpSpecBinding`]: the spec store, one connection.
    Spec(Box<SpecState>),
}

impl Slot {
    fn fail_all(&mut self, err: impl Fn() -> Error) {
        match self {
            Slot::Quorum(st) => st.fail_all(err),
            Slot::Spec(sp) => sp.fail_all(err),
        }
    }

    fn conn(&self) -> Option<u64> {
        match self {
            Slot::Quorum(st) => st.conn,
            Slot::Spec(sp) => sp.conn,
        }
    }

    fn is_pending(&self, seq: u64) -> bool {
        match self {
            Slot::Quorum(st) => st.pending.contains_key(&seq),
            Slot::Spec(sp) => sp.pending.contains_key(&seq),
        }
    }

    /// Fails op `seq` with `Timeout` if it is still pending.
    fn expire(&mut self, seq: u64) {
        match self {
            Slot::Quorum(st) => {
                if let Some(p) = st.pending.remove(&seq) {
                    p.fail(Error::Timeout);
                }
            }
            Slot::Spec(sp) => {
                if let Some(upcall) = sp.pending.remove(&seq) {
                    upcall.fail(Error::Timeout);
                }
            }
        }
    }
}

/// One client event loop: many bindings, one deadline heap.
struct ClientHandler {
    loop_idx: usize,
    dial_tx: Sender<DialReq>,
    /// Keyed by binding id — which is also the tag of every connection
    /// this loop owns, so frames route to their binding via the tag.
    bindings: IdMap<Slot>,
    /// All bindings' op deadlines, keyed `(binding, seq)`.
    deadlines: Deadlines<Instant, (u64, u64)>,
}

impl ClientHandler {
    fn submit(
        &mut self,
        ctl: &mut Ctl,
        binding: u64,
        op: StoreOp,
        kind: ReadKind,
        upcall: Upcall<Versioned>,
    ) {
        let Some(Slot::Quorum(st)) = self.bindings.get_mut(&binding) else {
            upcall.fail(Error::Unavailable("client connection closed".into()));
            return;
        };
        if st.conn.is_none() && !st.dialing {
            if st.retry_after.is_some_and(|at| Instant::now() < at) {
                // A dial round just found nothing reachable; fail fast
                // instead of re-dialing per queued submission.
                upcall.fail(Error::Unavailable("no replica reachable".into()));
                return;
            }
            st.dialing = true;
            let sent = self
                .dial_tx
                .send(DialReq {
                    binding,
                    loop_idx: self.loop_idx,
                    replicas: st.cfg.replicas.clone(),
                    start_idx: st.addr_idx,
                    connect_timeout: st.cfg.connect_timeout,
                })
                .is_ok();
            if !sent {
                st.dialing = false;
                upcall.fail(Error::Unavailable("no replica reachable".into()));
                return;
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let client = NodeId(st.cfg.client_id as usize);
        let (msg, entry) = encode_submit(client, seq, op, kind, upcall);
        st.pending.insert(seq, entry);
        self.deadlines
            .arm(Instant::now() + st.cfg.op_timeout, (binding, seq));
        match st.conn {
            Some(conn) => ctl.send(conn, &msg),
            // Dial in flight: deliver on DialOk, fail on DialFailed.
            None => st.unsent.push((seq, msg)),
        }
    }
}

impl Handler for ClientHandler {
    type Ev = ClientEv;

    fn on_open(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64) {}

    fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {
        // Client loops have no listener.
    }

    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        let Some(binding) = ctl.tag_of(conn) else {
            return;
        };
        let st = match self.bindings.get_mut(&binding) {
            Some(Slot::Quorum(st)) => st,
            Some(Slot::Spec(sp)) => return sp.on_frame(ctl, conn, body),
            None => return,
        };
        match Reader::new(body).finish::<Msg>() {
            Ok(msg) => {
                let me = NodeId(st.cfg.client_id as usize);
                let pending = &mut st.pending;
                if let Some((seq, step)) = on_reply(me, msg, |seq| pending.get_mut(&seq)) {
                    if step.finished() {
                        pending.remove(&seq);
                    }
                }
            }
            // An unparseable reply means the stream is corrupt: kill the
            // connection (on_close fails the binding's pending ops) —
            // never guess at what the reply might have been.
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, true),
        }
    }

    fn on_close(&mut self, _ctl: &mut Ctl, conn: u64, tag: u64, _reason: CloseReason) {
        let st = match self.bindings.get_mut(&tag) {
            Some(Slot::Quorum(st)) => st,
            Some(Slot::Spec(sp)) => return sp.on_close(conn),
            None => return,
        };
        if st.conn != Some(conn) {
            return; // stale close of an already-replaced connection
        }
        st.conn = None;
        st.fail_all(|| Error::Unavailable("coordinator connection lost".into()));
        // Prefer a different replica on the next dial.
        let n = st.cfg.replicas.len().max(1);
        st.addr_idx = (st.addr_idx + 1) % n;
    }

    fn on_event(&mut self, ctl: &mut Ctl, ev: ClientEv) {
        match ev {
            ClientEv::Register {
                binding,
                cfg,
                stream,
                addr_idx,
                coordinator,
            } => {
                let conn = ctl.adopt(stream, binding);
                self.bindings.insert(
                    binding,
                    Slot::Quorum(BState {
                        cfg,
                        coordinator,
                        pending: IdMap::default(),
                        next_seq: 0,
                        conn,
                        addr_idx,
                        dialing: false,
                        retry_after: None,
                        unsent: Vec::new(),
                    }),
                );
            }
            ClientEv::Submit {
                binding,
                op,
                kind,
                upcall,
            } => self.submit(ctl, binding, op, kind, upcall),
            ClientEv::DialOk {
                binding,
                stream,
                addr_idx,
            } => {
                let Some(Slot::Quorum(st)) = self.bindings.get_mut(&binding) else {
                    return; // deregistered while the dial was in flight
                };
                st.dialing = false;
                match ctl.adopt(stream, binding) {
                    Some(conn) => {
                        st.conn = Some(conn);
                        st.addr_idx = addr_idx;
                        st.retry_after = None;
                        if let Some(addr) = st.cfg.replicas.get(addr_idx) {
                            *st.coordinator.lock() = *addr;
                        }
                        for (_, msg) in st.unsent.drain(..) {
                            ctl.send(conn, &msg);
                        }
                    }
                    None => {
                        st.fail_all(|| Error::Unavailable("coordinator connection lost".into()));
                    }
                }
            }
            ClientEv::DialFailed { binding } => {
                let Some(Slot::Quorum(st)) = self.bindings.get_mut(&binding) else {
                    return;
                };
                st.dialing = false;
                st.retry_after = Some(Instant::now() + st.cfg.connect_timeout);
                let n = st.cfg.replicas.len().max(1);
                st.addr_idx = (st.addr_idx + 1) % n;
                st.fail_all(|| Error::Unavailable("no replica reachable".into()));
            }
            ClientEv::Deregister { binding } => {
                let Some(mut slot) = self.bindings.remove(&binding) else {
                    return;
                };
                slot.fail_all(|| Error::Unavailable("client shut down".into()));
                if let Some(conn) = slot.conn() {
                    ctl.close(conn);
                }
            }
            ClientEv::RegisterSpec {
                binding,
                mut state,
                stream,
            } => {
                state.conn = ctl.adopt(stream, binding);
                self.bindings.insert(binding, Slot::Spec(state));
            }
            ClientEv::SubmitSpec {
                binding,
                op,
                wants,
                upcall,
            } => {
                let Some(Slot::Spec(sp)) = self.bindings.get_mut(&binding) else {
                    upcall.fail(Error::Unavailable("spec client shut down".into()));
                    return;
                };
                if let Some((at, seq)) = sp.submit(ctl, op, &wants, upcall) {
                    self.deadlines.arm(at, (binding, seq));
                }
            }
        }
    }

    fn on_tick(&mut self, _ctl: &mut Ctl) {
        let bindings = &mut self.bindings;
        self.deadlines
            .fire_expired(Instant::now(), |(binding, seq)| {
                if let Some(slot) = bindings.get_mut(&binding) {
                    slot.expire(seq);
                }
            });
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let bindings = &self.bindings;
        self.deadlines.next_live(|&(binding, seq)| {
            bindings
                .get(&binding)
                .is_some_and(|slot| slot.is_pending(seq))
        })
    }

    fn on_shutdown(&mut self) {
        for (_, mut slot) in self.bindings.drain() {
            slot.fail_all(|| Error::Unavailable("client reactor shut down".into()));
        }
    }
}
