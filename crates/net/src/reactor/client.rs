//! Client bindings multiplexed onto shared reactor loops.
//!
//! A [`ClientReactor`] hosts thousands of bindings on a fixed set of
//! event loops (bindings are assigned round-robin at creation) plus one
//! dialer thread for the reconnects that must block — a binding costs a
//! socket, never a thread. Each binding's state — its pending-op table,
//! its connection, its failover cursor — lives on its loop thread; the
//! [`crate::TcpSpecBinding`] handle only injects commands, and so does
//! [`crate::TcpBinding`]'s except on an idle link (below). The two kinds
//! share a loop's binding table, connection tags and deadline heap; the
//! spec binding's state machine itself is in [`crate::spec_binding`].
//!
//! ## What a quorum binding shares with its loop
//!
//! One `Lane`: the op-sequence counter, the count of operations in
//! flight, the live link's write half, the coordinator's address (and
//! one hint bit, below). With the count at zero the loop has nothing to
//! do for this binding until a reply arrives, so the submitting thread
//! writes the request itself ([`crate::TcpBinding`]'s `submit`) and
//! tells the loop with a *quiet* `ClientEv::Written` — no eventfd, no
//! wake-up. Two orders hold it together:
//!
//! - **entry before frame**: the event is queued before the first byte
//!   is written, and the loop drains its queue after it reads a socket
//!   and before it dispatches what it read, so no reply reaches the
//!   handler ahead of the entry it answers — and an entry whose link
//!   died under it finds `conn == None` when the loop drains before
//!   parking, and fails `Unavailable` on the spot;
//! - **count before closing view**: the loop lowers the count when an
//!   operation leaves `pending`, before it delivers the view or error
//!   that closes it, so a caller woken by that view — or resubmitting
//!   from inside it — already sees an idle link.
//!
//! The loop is not woken for such an operation, so it learns of the
//! deadline late — but never too late: a loop with quorum bindings
//! parks for at most the shortest `op_timeout` among them (a standing
//! tick, `ClientHandler::park`), so an operation submitted after the
//! loop parked is drained before its own deadline, which the caller
//! stamped at submit.
//!
//! Idle is not quite enough: a caller that submits in lock-step bursts
//! finds the link idle at the head of every burst, and a direct write
//! there splits the burst the loop would have sent as one `write`
//! (EXPERIMENTS.md "Direct submit": the benchmark's preload, 16 writes
//! in flight, took 20 % longer). So the loop measures, from its own
//! table alone, what the last busy spell of the link looked like — did
//! the operation that found it idle get company before its first reply
//! — and publishes the answer as `Lane::bursty` when the table empties;
//! an idle submission is written directly only after a spell whose head
//! stayed alone.
//!
//! Failover of a quorum binding: a dead coordinator fails every
//! in-flight op `Unavailable`, and the next submission triggers a dial
//! of the next address. The loop dials *asynchronously* (it must keep
//! serving its other bindings), so ops submitted during the dial are
//! queued and sent on success instead of blocking the caller.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use correctables::{Error, Upcall};
use quorumstore::client::{closes_op, on_reply};
use quorumstore::messages::Msg;
use quorumstore::types::{ReadKind, Versioned};
use quorumstore::{encode_submit, ClientOp, Deadlines, IdMap, StoreOp};
use simnet::NodeId;

use crate::binding::TcpConfig;
use crate::spec_binding::SpecState;
use crate::wire::{Reader, SpecOp};

use super::conn::{CloseReason, WriteHalf};
use super::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};

/// Events injected into a client loop.
pub(crate) enum ClientEv {
    /// A freshly created binding arrives with its already-dialed stream.
    Register {
        binding: u64,
        cfg: TcpConfig,
        stream: TcpStream,
        addr_idx: usize,
        lane: Arc<Lane>,
    },
    /// One operation submitted through the binding, for the loop to
    /// number, encode and send.
    Submit {
        binding: u64,
        op: StoreOp,
        kind: ReadKind,
        upcall: Upcall<Versioned>,
    },
    /// Operation `seq`, whose request the submitting thread is writing
    /// to the binding's idle link itself; pushed quietly, *before* the
    /// frame. Boxed: a [`ClientOp`] inline would set the size of every
    /// queued command.
    Written {
        binding: u64,
        seq: u64,
        /// Submit time plus the binding's `op_timeout`.
        deadline: Instant,
        op: Box<ClientOp>,
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
            ClientEv::Written { op, .. } => op.fail(err),
            ClientEv::SubmitSpec { upcall, .. } => upcall.fail(err),
            _ => {}
        }
    }
}

/// What the handles of one [`crate::TcpBinding`] share with its loop.
/// Everything else about the binding is the loop's alone.
pub(crate) struct Lane {
    /// Both submit paths number their operations from here, so ids stay
    /// unique across them.
    pub(crate) next_seq: AtomicU64,
    /// Operations submitted and still in the loop's `pending` table (or
    /// on their way to it). Raised by the caller at submit, lowered by
    /// the loop. Zero means the link is idle: no reply is about to wake
    /// the loop, and nothing of this binding sits in its write buffer.
    pub(crate) in_flight: AtomicUsize,
    /// In the link's last busy spell (pending table non-empty) the
    /// operation that opened it had company before its first reply:
    /// submissions arrive in bursts here, the loop is woken for the rest
    /// of each burst anyway and sends it as one `write`, and a direct
    /// write only splits that batch in two. Idle submissions are queued
    /// while this is up. Not a mode anybody sets: the loop re-derives it
    /// from its table at the end of every spell, before it lowers
    /// `in_flight` to zero — so whoever finds the link idle reads the
    /// verdict on the spell that just ended.
    pub(crate) bursty: AtomicBool,
    /// The live coordinator link's write half.
    pub(crate) half: Arc<WriteHalf>,
    /// The coordinator currently (or most recently) connected.
    pub(crate) coordinator: Mutex<SocketAddr>,
    /// Which way submissions went, for the tests that prove it.
    #[cfg(test)]
    pub(crate) paths: PathCounts,
}

/// Submissions by path.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct PathCounts {
    /// Written by the submitting thread.
    pub(crate) direct: AtomicU64,
    /// Handed to the loop with a wake-up.
    pub(crate) queued: AtomicU64,
    /// Written directly onto a link that died before the loop saw the
    /// entry, and failed `Unavailable` by the loop for it.
    pub(crate) orphaned: AtomicU64,
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
                park: None,
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
    pub(crate) fn register(&self, cfg: TcpConfig) -> io::Result<(Arc<Lane>, ReactorBinding)> {
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
        let lane = Arc::new(Lane {
            next_seq: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            bursty: AtomicBool::new(false),
            half: Arc::default(),
            coordinator: Mutex::new(addr),
            #[cfg(test)]
            paths: PathCounts::default(),
        });
        let rb = self.enroll(|binding| ClientEv::Register {
            binding,
            cfg,
            stream,
            addr_idx,
            lane: Arc::clone(&lane),
        })?;
        Ok((lane, rb))
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

    /// [`ReactorBinding::submit`] without waking the loop, for a caller
    /// about to write the frame whose reply will. `false` if the loop
    /// has exited and the submission failed right here.
    pub(crate) fn submit_quiet(&self, ev: ClientEv) -> bool {
        match self.inj.try_send_quiet(Cmd::Ev(ev)) {
            Ok(()) => true,
            Err(Cmd::Ev(ev)) => {
                ev.fail_unserved();
                false
            }
            Err(_) => false,
        }
    }

    /// Eventfd writes into this binding's loop so far.
    #[cfg(test)]
    pub(crate) fn loop_wakes(&self) -> u64 {
        self.inj.wakes()
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
    lane: Arc<Lane>,
    pending: IdMap<ClientOp>,
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
    /// The operation that opened the current busy spell (it found the
    /// table empty), until its first reply.
    head: Option<u64>,
    /// Another operation arrived while `head` was still unanswered.
    crowded: bool,
}

impl BState {
    /// Puts operation `seq` in the table.
    fn admit(&mut self, seq: u64, op: ClientOp) {
        if self.pending.is_empty() {
            self.head = Some(seq);
            self.crowded = false;
        } else if self.head.is_some() {
            self.crowded = true;
        }
        self.pending.insert(seq, op);
    }

    /// Takes operation `seq` out of the table, lowering the in-flight
    /// count — after the verdict on a busy spell this ends — *before*
    /// the caller delivers whatever closes it.
    fn take(&mut self, seq: u64) -> Option<ClientOp> {
        let op = self.pending.remove(&seq)?;
        if self.pending.is_empty() {
            self.lane.bursty.store(self.crowded, Ordering::Relaxed);
        }
        self.lane.in_flight.fetch_sub(1, Ordering::SeqCst);
        Some(op)
    }

    fn fail_all(&mut self, err: impl Fn() -> Error) {
        self.head = None;
        self.lane.bursty.store(false, Ordering::Relaxed);
        self.lane
            .in_flight
            .fetch_sub(self.pending.len(), Ordering::SeqCst);
        for (_, p) in self.pending.drain() {
            p.fail(err());
        }
        self.unsent.clear();
    }

    /// The link is gone (or the binding is): direct writers lose the
    /// socket first — a callback of `fail_all` may submit — then every
    /// operation in flight fails.
    fn drop_link(&mut self, err: impl Fn() -> Error) {
        self.conn = None;
        self.lane.half.withdraw();
        self.fail_all(err);
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
    /// Fails everything in flight on a binding that is going away.
    fn shut(&mut self, err: impl Fn() -> Error) -> Option<u64> {
        match self {
            Slot::Quorum(st) => {
                let conn = st.conn;
                st.drop_link(err);
                conn
            }
            Slot::Spec(sp) => {
                sp.fail_all(err);
                sp.conn
            }
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
                if let Some(p) = st.take(seq) {
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
    /// The longest this loop may sleep, and the standing tick that
    /// enforces it: the shortest `op_timeout` among the quorum bindings
    /// it hosts (`None`: it hosts none, and sleeps as long as it
    /// likes). An operation written directly does not wake the loop, so
    /// the loop must come round by itself before that operation's
    /// deadline — one idle wake-up per `op_timeout`, nothing on the
    /// data path.
    park: Option<(Duration, Instant)>,
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
        // Fails a submission that never reached `pending`.
        let refuse = |st: &BState, upcall: Upcall<Versioned>| {
            st.lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            upcall.fail(Error::Unavailable("no replica reachable".into()));
        };
        if st.conn.is_none() && !st.dialing {
            if st.retry_after.is_some_and(|at| Instant::now() < at) {
                // A dial round just found nothing reachable; fail fast
                // instead of re-dialing per queued submission.
                return refuse(st, upcall);
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
                return refuse(st, upcall);
            }
        }
        let seq = st.lane.next_seq.fetch_add(1, Ordering::Relaxed);
        let client = NodeId(st.cfg.client_id as usize);
        let (msg, entry) = encode_submit(client, seq, op, kind, upcall);
        st.admit(seq, entry);
        self.deadlines
            .arm(Instant::now() + st.cfg.op_timeout, (binding, seq));
        match st.conn {
            Some(conn) => ctl.send(conn, &msg),
            // Dial in flight: deliver on DialOk, fail on DialFailed.
            None => st.unsent.push((seq, msg)),
        }
    }

    /// Operation `seq` of `binding` is on the wire already (or about to
    /// be): the submitting thread wrote it to the link that was live
    /// when it pushed this entry. The queue is FIFO and the loop
    /// withdraws a dead link's socket before it runs anything queued
    /// later, so `conn` here is still that link — or `None`: the link
    /// died under the frame, and the reply with it.
    fn written(&mut self, binding: u64, seq: u64, deadline: Instant, op: ClientOp) {
        let st = match self.bindings.get_mut(&binding) {
            Some(Slot::Quorum(st)) => st,
            _ => return op.fail(Error::Unavailable("client connection closed".into())),
        };
        if st.conn.is_none() {
            #[cfg(test)]
            st.lane.paths.orphaned.fetch_add(1, Ordering::Relaxed);
            st.lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            return op.fail(Error::Unavailable("coordinator connection lost".into()));
        }
        st.admit(seq, op);
        self.deadlines.arm(deadline, (binding, seq));
    }

    /// Re-derives the park cap from the quorum bindings hosted now. Run
    /// when one comes or goes — bindings are few, the data path never
    /// scans them. A standing tick is only ever pulled in, never pushed
    /// out, so what the bindings that stay were promised still holds.
    fn repark(&mut self) {
        let timeouts = self.bindings.values().filter_map(|slot| match slot {
            Slot::Quorum(st) => Some(st.cfg.op_timeout),
            Slot::Spec(_) => None,
        });
        let tick = self.park.map(|(_, at)| at);
        self.park = timeouts.min().map(|cap| {
            let fresh = Instant::now() + cap;
            (cap, tick.map_or(fresh, |at| at.min(fresh)))
        });
    }
}

impl Handler for ClientHandler {
    type Ev = ClientEv;

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
                // A message that closes its operation is lent the entry
                // already out of the table, the count already lowered:
                // the view's callbacks run against an idle link.
                let closes = closes_op(&msg);
                let mut closed = None;
                let step = on_reply(me, msg, |seq| {
                    if st.head == Some(seq) {
                        st.head = None;
                    }
                    if closes {
                        closed = st.take(seq);
                        closed.as_mut()
                    } else {
                        st.pending.get_mut(&seq)
                    }
                });
                debug_assert!(
                    step.is_none_or(|(_, step)| step.finished() == closes),
                    "closes_op and on_reply disagree: {closes} before, {step:?} after"
                );
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
        st.drop_link(|| Error::Unavailable("coordinator connection lost".into()));
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
                lane,
            } => {
                let conn = ctl.adopt_shared(stream, binding, &lane.half);
                self.bindings.insert(
                    binding,
                    Slot::Quorum(BState {
                        cfg,
                        lane,
                        pending: IdMap::default(),
                        conn,
                        addr_idx,
                        dialing: false,
                        retry_after: None,
                        unsent: Vec::new(),
                        head: None,
                        crowded: false,
                    }),
                );
                self.repark();
            }
            ClientEv::Submit {
                binding,
                op,
                kind,
                upcall,
            } => self.submit(ctl, binding, op, kind, upcall),
            ClientEv::Written {
                binding,
                seq,
                deadline,
                op,
            } => self.written(binding, seq, deadline, *op),
            ClientEv::DialOk {
                binding,
                stream,
                addr_idx,
            } => {
                let Some(Slot::Quorum(st)) = self.bindings.get_mut(&binding) else {
                    return; // deregistered while the dial was in flight
                };
                st.dialing = false;
                match ctl.adopt_shared(stream, binding, &st.lane.half) {
                    Some(conn) => {
                        st.conn = Some(conn);
                        st.addr_idx = addr_idx;
                        st.retry_after = None;
                        if let Some(addr) = st.cfg.replicas.get(addr_idx) {
                            *st.lane.coordinator.lock() = *addr;
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
                if let Some(conn) = slot.shut(|| Error::Unavailable("client shut down".into())) {
                    ctl.close(conn);
                }
                self.repark();
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
                if let Some((at, seq)) = sp.submit(ctl, op, wants, upcall) {
                    self.deadlines.arm(at, (binding, seq));
                }
            }
        }
    }

    fn on_tick(&mut self, _ctl: &mut Ctl) {
        let now = Instant::now();
        let bindings = &mut self.bindings;
        self.deadlines.fire_expired(now, |(binding, seq)| {
            if let Some(slot) = bindings.get_mut(&binding) {
                slot.expire(seq);
            }
        });
        if let Some((cap, tick)) = &mut self.park {
            if *tick <= now {
                *tick = now + *cap;
            }
        }
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let bindings = &self.bindings;
        let op = self.deadlines.next_live(|&(binding, seq)| {
            bindings
                .get(&binding)
                .is_some_and(|slot| slot.is_pending(seq))
        });
        let tick = self.park.map(|(_, at)| at);
        op.into_iter().chain(tick).min()
    }

    fn on_shutdown(&mut self) {
        for (_, mut slot) in self.bindings.drain() {
            slot.shut(|| Error::Unavailable("client reactor shut down".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued command is as big as the biggest event: PR 15
    /// measured 264 bytes against 160 at 0.8 % of the pipelined
    /// workload. A [`ClientOp`] is 184 bytes, hence the box in
    /// [`ClientEv::Written`].
    fn quorum_slot(op_timeout: Duration) -> Slot {
        let addr = SocketAddr::from(([127, 0, 0, 1], 1));
        let mut cfg = TcpConfig::new(vec![addr], 1);
        cfg.op_timeout = op_timeout;
        Slot::Quorum(BState {
            cfg,
            lane: Arc::new(Lane {
                next_seq: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
                bursty: AtomicBool::new(false),
                half: Arc::default(),
                coordinator: Mutex::new(addr),
                paths: PathCounts::default(),
            }),
            pending: IdMap::default(),
            conn: None,
            addr_idx: 0,
            dialing: false,
            retry_after: None,
            unsent: Vec::new(),
            head: None,
            crowded: false,
        })
    }

    /// The cap is the shortest `op_timeout` among the bindings hosted
    /// *now*: a hasty binding's idle wake-ups leave with it.
    #[test]
    fn park_cap_follows_the_bindings_hosted() {
        let (dial_tx, _dial_rx) = mpsc::channel();
        let mut h = ClientHandler {
            loop_idx: 0,
            dial_tx,
            bindings: IdMap::default(),
            deadlines: Deadlines::default(),
            park: None,
        };
        let cap = |h: &ClientHandler| h.park.map(|(cap, _)| cap);
        let (slow, hasty) = (Duration::from_secs(2), Duration::from_millis(10));
        h.bindings.insert(0, quorum_slot(slow));
        h.repark();
        assert_eq!(cap(&h), Some(slow));
        let first_tick = h.next_deadline().expect("a standing tick");

        h.bindings.insert(1, quorum_slot(hasty));
        h.repark();
        assert_eq!(cap(&h), Some(hasty));
        let tick = h.next_deadline().expect("a standing tick");
        assert!(tick < first_tick, "the tick was not pulled in");

        h.bindings.remove(&1);
        h.repark();
        assert_eq!(cap(&h), Some(slow));
        assert_eq!(h.next_deadline(), Some(tick), "a tick is never pushed out");

        h.bindings.remove(&0);
        h.repark();
        assert_eq!(h.park, None);
        assert_eq!(h.next_deadline(), None, "no binding, no idle wake-up");
    }

    #[test]
    fn client_events_stay_small() {
        assert!(
            std::mem::size_of::<ClientEv>() <= 160,
            "ClientEv grew to {} bytes",
            std::mem::size_of::<ClientEv>()
        );
    }
}
