//! Client bindings multiplexed onto shared reactor loops.
//!
//! A [`ClientReactor`] hosts thousands of bindings on a fixed set of
//! event loops (bindings are assigned round-robin at creation) plus one
//! dialer thread for the reconnects that must block — a binding costs a
//! socket, never a thread. Each binding's link — its connection, its
//! pending-op table, its failover cursor — lives on its loop thread as
//! one `Link`, the same for [`crate::TcpBinding`] and
//! [`crate::TcpSpecBinding`]. They differ in what an entry of the table
//! is (`Entry`: the quorum client core's `ClientOp`, or a spec
//! operation's upcall), in the request a submission builds, and in the
//! redial list: a spec link's is empty, so once its connection is lost
//! the binding stays down. Every reply frame decodes as one [`NetMsg`]
//! and is routed by its type.
//!
//! ## What a binding shares with its loop
//!
//! One `Lane`: the op-sequence counter, the count of operations in
//! flight, the live link's write half, the connected replica's address
//! (and one hint bit, below). Both handles submit through one function,
//! `ReactorBinding::submit`: the calling thread numbers the operation
//! and builds its request and its entry. With the count at zero the
//! loop has nothing to do for this binding until a reply arrives, so
//! the submitting thread writes the request itself and hands the loop
//! the entry *quietly* — no eventfd, no wake-up. Otherwise it queues
//! the request with the entry, and wakes the loop. Two orders hold it
//! together:
//!
//! - **entry before frame**: the entry is queued before the first byte
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
//! deadline late — but never too late: a loop with bindings parks for
//! at most the shortest `op_timeout` among them (a standing tick,
//! `ClientHandler::park`), so an operation submitted after the loop
//! parked is drained before its own deadline, which the caller stamped
//! at submit.
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
use quorumstore::{ClientOp, Deadlines, IdMap};
use simnet::{ClientMsg, NodeId};
use specstore::SpecMsg;

use crate::binding::TcpConfig;
use crate::frame::append_frame;
use crate::wire::{NetMsg, Reader};

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
    /// One operation submitted through a binding. Boxed: a
    /// [`Submission`] inline would set the size of every queued command.
    Submit(Box<Submission>),
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
}

impl ClientEv {
    /// Fails the caller waiting on this event, if it is a submission:
    /// its loop has exited and will never serve it.
    pub(crate) fn fail_unserved(self) {
        if let ClientEv::Submit(sub) = self {
            sub.entry
                .fail(Error::Unavailable("client reactor shut down".into()));
        }
    }
}

/// One operation, numbered and built by the submitting thread.
pub(crate) struct Submission {
    binding: u64,
    seq: u64,
    /// Submit time plus the binding's `op_timeout`.
    deadline: Instant,
    /// The request for the loop to send; `None` if the submitting thread
    /// is writing it to the binding's idle link itself, this pushed
    /// quietly *before* the frame.
    msg: Option<NetMsg>,
    entry: Entry,
}

/// An operation in flight, as its store's replies will find it.
pub(crate) enum Entry {
    /// A quorum-store operation: [`quorumstore::client`] reads its
    /// replies.
    Store(ClientOp),
    /// A spec-store operation: each `Views` message carries views of it.
    Spec(Upcall<u64>),
}

impl Entry {
    fn fail(self, err: Error) {
        match self {
            Entry::Store(op) => op.fail(err),
            Entry::Spec(upcall) => upcall.fail(err),
        }
    }

    fn is_spec(&self) -> bool {
        matches!(self, Entry::Spec(_))
    }
}

/// What the handles of one binding share with its loop. Everything
/// else about the binding is the loop's alone.
pub(crate) struct Lane {
    /// Operations are numbered from here.
    next_seq: AtomicU64,
    /// Operations submitted and still in the loop's `pending` table (or
    /// on their way to it). Raised by the caller at submit, lowered by
    /// the loop. Zero means the link is idle: no reply is about to wake
    /// the loop, and nothing of this binding sits in its write buffer.
    in_flight: AtomicUsize,
    /// In the link's last busy spell (pending table non-empty) the
    /// operation that opened it had company before its first reply:
    /// submissions arrive in bursts here, the loop is woken for the rest
    /// of each burst anyway and sends it as one `write`, and a direct
    /// write only splits that batch in two. Idle submissions are queued
    /// while this is up. Not a mode anybody sets: the loop re-derives it
    /// from its table at the end of every spell, before it lowers
    /// `in_flight` to zero — so whoever finds the link idle reads the
    /// verdict on the spell that just ended.
    bursty: AtomicBool,
    /// The live link's write half.
    half: Arc<WriteHalf>,
    /// The replica currently (or most recently) connected.
    pub(crate) coordinator: Mutex<SocketAddr>,
    /// Which way submissions went, for the tests that prove it.
    #[cfg(test)]
    paths: PathCounts,
}

impl Lane {
    fn new(addr: SocketAddr) -> Lane {
        Lane {
            next_seq: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            bursty: AtomicBool::new(false),
            half: Arc::default(),
            coordinator: Mutex::new(addr),
            #[cfg(test)]
            paths: PathCounts::default(),
        }
    }
}

/// Submissions by path.
#[cfg(test)]
#[derive(Default)]
struct PathCounts {
    /// Written by the submitting thread.
    direct: AtomicU64,
    /// Handed to the loop with a wake-up.
    queued: AtomicU64,
    /// Written directly onto a link that died before the loop saw the
    /// entry, and failed `Unavailable` by the loop for it.
    orphaned: AtomicU64,
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
                links: IdMap::default(),
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

    /// Dials the first reachable replica (the constructor's synchronous
    /// contract: a dead deployment surfaces here) and registers the
    /// binding with one of the loops.
    pub(crate) fn register(&self, cfg: TcpConfig) -> io::Result<ReactorBinding> {
        let dialed = cfg.replicas.iter().enumerate().find_map(|(idx, addr)| {
            let stream = TcpStream::connect_timeout(addr, cfg.connect_timeout).ok()?;
            Some((idx, *addr, stream))
        });
        let Some((addr_idx, addr, stream)) = dialed else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no replica in the list accepted a connection",
            ));
        };
        self.enroll(cfg, stream, addr, addr_idx)
    }

    /// Registers a binding whose `stream` to `addr` — entry `addr_idx`
    /// of `cfg.replicas`, the redial list, if it is not empty — is
    /// connected already: mints its id, picks its loop round-robin and
    /// hands the link to it. Fails if that loop has exited — the binding
    /// could never be served.
    pub(crate) fn enroll(
        &self,
        cfg: TcpConfig,
        stream: TcpStream,
        addr: SocketAddr,
        addr_idx: usize,
    ) -> io::Result<ReactorBinding> {
        let binding = self.next_binding.fetch_add(1, Ordering::Relaxed);
        let loop_idx = (binding as usize) % self.loops.len().max(1);
        let Some(inj) = self.loops.get(loop_idx) else {
            return Err(io::Error::other("client reactor has no loops"));
        };
        let lane = Arc::new(Lane::new(addr));
        let op_timeout = cfg.op_timeout;
        let register = ClientEv::Register {
            binding,
            cfg,
            stream,
            addr_idx,
            lane: Arc::clone(&lane),
        };
        if inj.try_send(Cmd::Ev(register)).is_err() {
            return Err(io::Error::other("client reactor loop has exited"));
        }
        Ok(ReactorBinding {
            binding,
            inj: inj.clone(),
            lane,
            op_timeout,
            _deregister_on_last_drop: Arc::new(DeregisterGuard {
                binding,
                inj: inj.clone(),
            }),
        })
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
/// [`crate::TcpSpecBinding`]: an injector, the binding's id on its loop
/// and what it shares with that loop.
#[derive(Clone)]
pub(crate) struct ReactorBinding {
    binding: u64,
    inj: Injector<ClientEv>,
    pub(crate) lane: Arc<Lane>,
    op_timeout: Duration,
    _deregister_on_last_drop: Arc<DeregisterGuard>,
}

impl ReactorBinding {
    /// The one submit path of both bindings: numbers the operation,
    /// has `build` make its request and its entry here, on the calling
    /// thread, and either writes the request to the idle link itself or
    /// queues it for the loop (module docs).
    pub(crate) fn submit(&self, build: impl FnOnce(u64) -> (NetMsg, Entry)) {
        let lane = &*self.lane;
        // Raised here, lowered by the loop when the operation leaves its
        // pending table. Zero with the last spell's head left alone: the
        // loop has nothing to do for this link until a reply arrives.
        let idle = lane.in_flight.fetch_add(1, Ordering::SeqCst) == 0
            && !lane.bursty.load(Ordering::Relaxed);
        let direct = idle.then(|| lane.half.lock_idle()).flatten();
        let seq = lane.next_seq.fetch_add(1, Ordering::Relaxed);
        let (msg, entry) = build(seq);
        let submission = |msg| {
            let deadline = Instant::now() + self.op_timeout;
            let sub = Submission {
                binding: self.binding,
                seq,
                deadline,
                msg,
                entry,
            };
            Cmd::Ev(ClientEv::Submit(Box::new(sub)))
        };
        let Some(mut link) = direct else {
            #[cfg(test)]
            lane.paths.queued.fetch_add(1, Ordering::Relaxed);
            if let Err(Cmd::Ev(ev)) = self.inj.try_send(submission(Some(msg))) {
                ev.fail_unserved();
            }
            return;
        };
        append_frame(&msg, link.frame());
        // Entry before frame: the reply cannot reach the loop ahead of
        // the entry it answers.
        match self.inj.try_send_quiet(submission(None)) {
            Ok(()) => {
                #[cfg(test)]
                lane.paths.direct.fetch_add(1, Ordering::Relaxed);
                link.write();
            }
            Err(Cmd::Ev(ev)) => ev.fail_unserved(),
            Err(_) => {}
        }
    }

    /// Submissions so far: written directly, queued, and written
    /// directly onto a link that had died.
    #[cfg(test)]
    pub(crate) fn paths(&self) -> (u64, u64, u64) {
        let p = &self.lane.paths;
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (read(&p.direct), read(&p.queued), read(&p.orphaned))
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

/// A binding's link on its loop thread, the same for both kinds.
struct Link {
    /// `replicas` is the redial list: empty for a spec binding, which
    /// stays down once its connection is lost.
    cfg: TcpConfig,
    lane: Arc<Lane>,
    pending: IdMap<Entry>,
    /// The loop-local connection id of the live link.
    conn: Option<u64>,
    /// Failover cursor into `cfg.replicas`.
    addr_idx: usize,
    /// An async dial is in flight; submissions queue on `unsent`.
    dialing: bool,
    /// After a failed dial round, fail submissions fast until here.
    retry_after: Option<Instant>,
    /// Requests submitted while dialing, sent in order on `DialOk`.
    unsent: Vec<NetMsg>,
    /// The operation that opened the current busy spell (it found the
    /// table empty), until its first reply.
    head: Option<u64>,
    /// Another operation arrived while `head` was still unanswered.
    crowded: bool,
}

impl Link {
    fn new(cfg: TcpConfig, lane: Arc<Lane>, conn: Option<u64>, addr_idx: usize) -> Link {
        Link {
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
        }
    }

    /// Puts operation `seq` in the table.
    fn admit(&mut self, seq: u64, entry: Entry) {
        if self.pending.is_empty() {
            self.head = Some(seq);
            self.crowded = false;
        } else if self.head.is_some() {
            self.crowded = true;
        }
        self.pending.insert(seq, entry);
    }

    /// A reply to operation `seq` arrived: if it opened the spell, the
    /// spell's head is answered.
    fn heard(&mut self, seq: u64) {
        if self.head == Some(seq) {
            self.head = None;
        }
    }

    /// Takes operation `seq` out of the table, lowering the in-flight
    /// count — after the verdict on a busy spell this ends — *before*
    /// the caller delivers whatever closes it.
    fn take(&mut self, seq: u64) -> Option<Entry> {
        let entry = self.pending.remove(&seq)?;
        if self.pending.is_empty() {
            self.lane.bursty.store(self.crowded, Ordering::Relaxed);
        }
        self.lane.in_flight.fetch_sub(1, Ordering::SeqCst);
        Some(entry)
    }

    fn fail_all(&mut self, err: impl Fn() -> Error) {
        self.head = None;
        self.lane.bursty.store(false, Ordering::Relaxed);
        self.lane
            .in_flight
            .fetch_sub(self.pending.len(), Ordering::SeqCst);
        for (_, entry) in self.pending.drain() {
            entry.fail(err());
        }
        self.unsent.clear();
    }

    /// The link is gone (or the binding is): direct writers lose the
    /// socket first — a callback of `fail_all` may submit — then every
    /// operation in flight fails. Returns the connection it was.
    fn drop_link(&mut self, err: impl Fn() -> Error) -> Option<u64> {
        let conn = self.conn.take();
        self.lane.half.withdraw();
        self.fail_all(err);
        conn
    }

    /// Asks the dialer for a new link on behalf of a submission that
    /// found none, or says why it must fail instead.
    fn redial(
        &mut self,
        binding: u64,
        loop_idx: usize,
        dial_tx: &Sender<DialReq>,
    ) -> Result<(), &'static str> {
        if self.cfg.replicas.is_empty() {
            return Err("connection lost");
        }
        if self.retry_after.is_some_and(|at| Instant::now() < at) {
            // A dial round just found nothing reachable; fail fast
            // instead of re-dialing per queued submission.
            return Err("no replica reachable");
        }
        let req = DialReq {
            binding,
            loop_idx,
            replicas: self.cfg.replicas.clone(),
            start_idx: self.addr_idx,
            connect_timeout: self.cfg.connect_timeout,
        };
        dial_tx.send(req).map_err(|_| "no replica reachable")?;
        self.dialing = true;
        Ok(())
    }

    /// Routes one reply to the operation it answers. A reply that closes
    /// its operation finds the entry out of the table already, the count
    /// lowered: the view's callbacks run against an idle link. One that
    /// answers nothing open here — another client's, a finished
    /// operation's, another store's, or not a reply at all — is dropped.
    #[expect(
        clippy::disallowed_macros,
        reason = "the one assert is a debug_assert!, compiled out of release builds"
    )]
    fn route(&mut self, msg: NetMsg) {
        let me = self.cfg.client_id;
        match msg {
            NetMsg::Store(msg) => {
                let closes = closes_op(&msg);
                let mut closed = None;
                let step = on_reply(NodeId(me as usize), msg, |seq| {
                    self.heard(seq);
                    if self.pending.get(&seq).is_none_or(Entry::is_spec) {
                        return None;
                    }
                    let entry = if closes {
                        closed = self.take(seq);
                        closed.as_mut()
                    } else {
                        self.pending.get_mut(&seq)
                    };
                    match entry {
                        Some(Entry::Store(op)) => Some(op),
                        _ => None,
                    }
                });
                debug_assert!(
                    step.is_none_or(|(_, step)| step.finished() == closes),
                    "closes_op and on_reply disagree: {closes} before, {step:?} after"
                );
            }
            // Each view of the batch in level order, as the simulator's
            // round-robin gateway delivers them.
            NetMsg::Spec(SpecMsg::Client(ClientMsg::Views {
                op: (client, seq),
                views,
                closing,
            })) if client == me && self.pending.get(&seq).is_some_and(Entry::is_spec) => {
                self.heard(seq);
                let closed = if closing { self.take(seq) } else { None };
                if let Some(Entry::Spec(upcall)) = closed.as_ref().or(self.pending.get(&seq)) {
                    for (level, val) in views {
                        upcall.deliver(val, level);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One client event loop: many bindings, one deadline heap.
struct ClientHandler {
    loop_idx: usize,
    dial_tx: Sender<DialReq>,
    /// Keyed by binding id — which is also the tag of every connection
    /// this loop owns, so frames route to their binding via the tag.
    links: IdMap<Link>,
    /// All bindings' op deadlines, keyed `(binding, seq)`.
    deadlines: Deadlines<Instant, (u64, u64)>,
    /// The longest this loop may sleep, and the standing tick that
    /// enforces it: the shortest `op_timeout` among the bindings it
    /// hosts (`None`: it hosts none, and sleeps as long as it likes). An
    /// operation written directly does not wake the loop, so the loop
    /// must come round by itself before that operation's deadline — one
    /// idle wake-up per `op_timeout`, nothing on the data path.
    park: Option<(Duration, Instant)>,
}

impl ClientHandler {
    /// The one admission path: puts a submission's entry in its
    /// binding's table and arms its deadline, and sends its request if
    /// the submitting thread did not. A request written directly went
    /// to the link that was live when its entry was pushed: the queue
    /// is FIFO and the loop withdraws a dead link's socket before it
    /// runs anything queued later, so `conn == None` here means the
    /// link died under the frame, and the reply with it.
    fn admit(&mut self, ctl: &mut Ctl, sub: Submission) {
        let Submission {
            binding,
            seq,
            deadline,
            msg,
            entry,
        } = sub;
        let Some(link) = self.links.get_mut(&binding) else {
            return entry.fail(Error::Unavailable("client connection closed".into()));
        };
        if link.conn.is_none() {
            let refused = match msg {
                None => Err("connection lost"),
                Some(_) if link.dialing => Ok(()),
                Some(_) => link.redial(binding, self.loop_idx, &self.dial_tx),
            };
            if let Err(why) = refused {
                #[cfg(test)]
                if msg.is_none() {
                    link.lane.paths.orphaned.fetch_add(1, Ordering::Relaxed);
                }
                link.lane.in_flight.fetch_sub(1, Ordering::SeqCst);
                return entry.fail(Error::Unavailable(why.into()));
            }
        }
        link.admit(seq, entry);
        self.deadlines.arm(deadline, (binding, seq));
        match (msg, link.conn) {
            (Some(msg), Some(conn)) => ctl.send(conn, &msg),
            // Dial in flight: sent on DialOk, failed on DialFailed.
            (Some(msg), None) => link.unsent.push(msg),
            (None, _) => {}
        }
    }

    /// Re-derives the park cap from the bindings hosted now. Run when
    /// one comes or goes — bindings are few, the data path never scans
    /// them. A standing tick is only ever pulled in, never pushed out,
    /// so what the bindings that stay were promised still holds.
    fn repark(&mut self) {
        let cap = self.links.values().map(|link| link.cfg.op_timeout).min();
        let tick = self.park.map(|(_, at)| at);
        self.park = cap.map(|cap| {
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
        let Some(link) = ctl.tag_of(conn).and_then(|b| self.links.get_mut(&b)) else {
            return;
        };
        match Reader::new(body).finish::<NetMsg>() {
            Ok(msg) => link.route(msg),
            // An unparseable reply means the stream is corrupt: kill the
            // connection (on_close fails the binding's pending ops) —
            // never guess at what the reply might have been.
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, true),
        }
    }

    fn on_close(&mut self, _ctl: &mut Ctl, conn: u64, tag: u64, _reason: CloseReason) {
        let Some(link) = self.links.get_mut(&tag) else {
            return;
        };
        if link.conn != Some(conn) {
            return; // stale close of an already-replaced connection
        }
        link.drop_link(|| Error::Unavailable("connection lost".into()));
        // Prefer a different replica on the next dial.
        link.addr_idx = (link.addr_idx + 1) % link.cfg.replicas.len().max(1);
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
                self.links
                    .insert(binding, Link::new(cfg, lane, conn, addr_idx));
                self.repark();
            }
            ClientEv::Submit(sub) => self.admit(ctl, *sub),
            ClientEv::DialOk {
                binding,
                stream,
                addr_idx,
            } => {
                let Some(link) = self.links.get_mut(&binding) else {
                    return; // deregistered while the dial was in flight
                };
                link.dialing = false;
                match ctl.adopt_shared(stream, binding, &link.lane.half) {
                    Some(conn) => {
                        link.conn = Some(conn);
                        link.addr_idx = addr_idx;
                        link.retry_after = None;
                        if let Some(addr) = link.cfg.replicas.get(addr_idx) {
                            *link.lane.coordinator.lock() = *addr;
                        }
                        for msg in link.unsent.drain(..) {
                            ctl.send(conn, &msg);
                        }
                    }
                    None => link.fail_all(|| Error::Unavailable("connection lost".into())),
                }
            }
            ClientEv::DialFailed { binding } => {
                let Some(link) = self.links.get_mut(&binding) else {
                    return;
                };
                link.dialing = false;
                link.retry_after = Some(Instant::now() + link.cfg.connect_timeout);
                link.addr_idx = (link.addr_idx + 1) % link.cfg.replicas.len().max(1);
                link.fail_all(|| Error::Unavailable("no replica reachable".into()));
            }
            ClientEv::Deregister { binding } => {
                let Some(mut link) = self.links.remove(&binding) else {
                    return;
                };
                if let Some(conn) = link.drop_link(|| Error::Unavailable("client shut down".into()))
                {
                    ctl.close(conn);
                }
                self.repark();
            }
        }
    }

    fn on_tick(&mut self, _ctl: &mut Ctl) {
        let now = Instant::now();
        let links = &mut self.links;
        self.deadlines.fire_expired(now, |(binding, seq)| {
            if let Some(entry) = links.get_mut(&binding).and_then(|link| link.take(seq)) {
                entry.fail(Error::Timeout);
            }
        });
        if let Some((cap, tick)) = &mut self.park {
            if *tick <= now {
                *tick = now + *cap;
            }
        }
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let links = &self.links;
        let op = self.deadlines.next_live(|&(binding, seq)| {
            links
                .get(&binding)
                .is_some_and(|link| link.pending.contains_key(&seq))
        });
        let tick = self.park.map(|(_, at)| at);
        op.into_iter().chain(tick).min()
    }

    fn on_shutdown(&mut self) {
        for (_, mut link) in self.links.drain() {
            link.drop_link(|| Error::Unavailable("client reactor shut down".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link with no connection whose binding has `op_timeout`.
    fn link(op_timeout: Duration) -> Link {
        let addr = SocketAddr::from(([127, 0, 0, 1], 1));
        let mut cfg = TcpConfig::new(vec![addr], 1);
        cfg.op_timeout = op_timeout;
        Link::new(cfg, Arc::new(Lane::new(addr)), None, 0)
    }

    /// The cap is the shortest `op_timeout` among the bindings hosted
    /// *now*: a hasty binding's idle wake-ups leave with it.
    #[test]
    fn park_cap_follows_the_bindings_hosted() {
        let (dial_tx, _dial_rx) = mpsc::channel();
        let mut h = ClientHandler {
            loop_idx: 0,
            dial_tx,
            links: IdMap::default(),
            deadlines: Deadlines::default(),
            park: None,
        };
        let cap = |h: &ClientHandler| h.park.map(|(cap, _)| cap);
        let (slow, hasty) = (Duration::from_secs(2), Duration::from_millis(10));
        h.links.insert(0, link(slow));
        h.repark();
        assert_eq!(cap(&h), Some(slow));
        let first_tick = h.next_deadline().expect("a standing tick");

        h.links.insert(1, link(hasty));
        h.repark();
        assert_eq!(cap(&h), Some(hasty));
        let tick = h.next_deadline().expect("a standing tick");
        assert!(tick < first_tick, "the tick was not pulled in");

        h.links.remove(&1);
        h.repark();
        assert_eq!(cap(&h), Some(slow));
        assert_eq!(h.next_deadline(), Some(tick), "a tick is never pushed out");

        h.links.remove(&0);
        h.repark();
        assert_eq!(h.park, None);
        assert_eq!(h.next_deadline(), None, "no binding, no idle wake-up");
    }

    /// Every queued command is as big as the biggest event: 264 bytes
    /// against 160 measured at 0.8 % of the pipelined workload. A
    /// [`ClientOp`] is 184 bytes, hence the box in [`ClientEv::Submit`].
    #[test]
    fn client_events_stay_small() {
        assert!(
            std::mem::size_of::<ClientEv>() <= 160,
            "ClientEv grew to {} bytes",
            std::mem::size_of::<ClientEv>()
        );
    }
}
