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
//! Two I/O engines can carry a binding ([`Transport`]): the epoll
//! reactor (default), where thousands of bindings share the event loops
//! of a process-wide [`ClientReactor`], and the legacy blocking engine,
//! which spends an event-loop thread plus a reader/writer thread pair
//! per binding. The reply-matching state machine
//! (`handle_reply`) is shared verbatim between them.
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
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use quorumstore::messages::{Msg, Phase};
use quorumstore::types::{OpId, ReadKind, Version, Versioned};
use quorumstore::StoreOp;
use simnet::NodeId;

use crate::pump::{recv_step, Deadlines, IdMap, Step};
use crate::reactor::client::{ClientEv, ClientReactor, ReactorBinding};
use crate::transport::{spawn_reader, Outbound, Transport};

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
    /// Which I/O engine carries this binding.
    pub transport: Transport,
}

impl TcpConfig {
    /// A config for `replicas` with the defaults the tests and demo use:
    /// `R = 2`, no confirmation, 2 s op timeout, 1 s connect timeout,
    /// reactor transport.
    pub fn new(replicas: Vec<SocketAddr>, client_id: u64) -> TcpConfig {
        TcpConfig {
            replicas,
            client_id,
            r_strong: 2,
            confirm: false,
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            transport: Transport::default(),
        }
    }
}

pub(crate) enum Event {
    Submit {
        op: StoreOp,
        kind: ReadKind,
        upcall: Upcall<Versioned>,
        close_level: ConsistencyLevel,
    },
    Reply(Msg),
    /// The connection of generation `gen` died.
    Disconnected {
        gen: u64,
    },
    Shutdown,
}

/// One in-flight operation awaiting its reply, with the views already
/// received that a final reply may fall back to.
pub(crate) struct PendingOp {
    pub(crate) upcall: Upcall<Versioned>,
    pub(crate) close_level: ConsistencyLevel,
    pub(crate) prelim: Option<Versioned>,
    pub(crate) written: Option<Versioned>,
}

/// Builds the wire message for a submitted operation, plus the locally
/// written record a write's final view falls back to.
pub(crate) fn encode_submit(
    client_id: u64,
    seq: u64,
    op: StoreOp,
    kind: ReadKind,
) -> (Msg, Option<Versioned>) {
    let id = OpId {
        client: NodeId(client_id as usize),
        seq,
    };
    match op {
        StoreOp::Read(key) => (Msg::ClientRead { op: id, key, kind }, None),
        StoreOp::Write(key, value) => {
            let written = Versioned {
                value: value.clone(),
                version: Version::ZERO,
            };
            (
                Msg::ClientWrite {
                    op: id,
                    key,
                    value,
                    w: 1,
                },
                Some(written),
            )
        }
    }
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
/// half of the client state machine, shared by both transports.
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

/// Stops the blocking client loop when the last [`TcpBinding`] clone is
/// dropped. The loop itself holds `Sender<Event>` clones (it hands them
/// to every reader thread), so channel disconnection alone would never
/// fire — this explicit shutdown-on-last-drop is what keeps an
/// un-`shutdown` binding from leaking its threads and socket.
struct DropGuard {
    tx: Sender<Event>,
}

impl Drop for DropGuard {
    fn drop(&mut self) {
        let _ = self.tx.send(Event::Shutdown);
    }
}

#[derive(Clone)]
enum BindingInner {
    Blocking {
        tx: Sender<Event>,
        _shutdown_on_last_drop: Arc<DropGuard>,
    },
    Reactor(ReactorBinding),
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
    inner: BindingInner,
}

impl TcpBinding {
    /// Creates the binding and dials the first reachable replica, on
    /// the transport `cfg` selects (reactor bindings share the
    /// process-wide [`ClientReactor`]).
    ///
    /// Fails only if *no* replica in the list accepts a connection; a
    /// partially available set connects to the first live address.
    pub fn connect(cfg: TcpConfig) -> io::Result<TcpBinding> {
        match cfg.transport {
            Transport::Reactor => Self::connect_on(cfg, ClientReactor::global()?),
            Transport::Blocking => Self::connect_blocking(cfg),
        }
    }

    /// Creates a reactor binding on a specific [`ClientReactor`]
    /// (loadgen uses a dedicated reactor sized for its run).
    pub fn connect_on(cfg: TcpConfig, reactor: &ClientReactor) -> io::Result<TcpBinding> {
        // lint: allow(panic_path) — constructor API-misuse check, pre-serving
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        reactor.register(cfg).map(|(coordinator, rb)| TcpBinding {
            r_strong: rb.r_strong,
            confirm: rb.confirm,
            coordinator,
            inner: BindingInner::Reactor(rb),
        })
    }

    fn connect_blocking(cfg: TcpConfig) -> io::Result<TcpBinding> {
        // lint: allow(panic_path) — constructor API-misuse check, pre-serving
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        let (tx, rx) = mpsc::channel::<Event>();
        // lint: allow(panic_path) — non-empty asserted above
        let coordinator = Arc::new(Mutex::new(cfg.replicas[0]));
        let mut state = ClientLoop {
            cfg: cfg.clone(),
            tx: tx.clone(),
            conn: None,
            gen: 0,
            addr_idx: 0,
            next_seq: 0,
            pending: IdMap::default(),
            deadlines: Deadlines::new(),
            coordinator: Arc::clone(&coordinator),
            retry_after: None,
        };
        // Dial eagerly so construction surfaces a dead deployment.
        state.ensure_connected().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no replica in the list accepted a connection",
            )
        })?;
        let client_id = cfg.client_id;
        std::thread::Builder::new()
            .name(format!("icg-client-{client_id}"))
            .spawn(move || state.run(rx))
            // lint: allow(panic_path) — startup, nothing is serving yet
            .expect("spawn client loop");
        Ok(TcpBinding {
            r_strong: cfg.r_strong,
            confirm: cfg.confirm,
            coordinator,
            inner: BindingInner::Blocking {
                tx: tx.clone(),
                _shutdown_on_last_drop: Arc::new(DropGuard { tx }),
            },
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
        match &self.inner {
            BindingInner::Blocking { tx, .. } => {
                let _ = tx.send(Event::Shutdown);
            }
            BindingInner::Reactor(rb) => rb.shutdown(),
        }
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
        match &self.inner {
            BindingInner::Blocking { tx, .. } => {
                if tx
                    .send(Event::Submit {
                        op,
                        kind,
                        upcall: upcall.clone(),
                        close_level,
                    })
                    .is_err()
                {
                    // The client loop is gone (shutdown raced the submit).
                    upcall.fail(Error::Unavailable("client connection closed".into()));
                }
            }
            BindingInner::Reactor(rb) => rb.submit(ClientEv::Submit {
                binding: rb.id(),
                op,
                kind,
                upcall,
                close_level,
            }),
        }
    }
}

struct ClientLoop {
    cfg: TcpConfig,
    tx: Sender<Event>,
    conn: Option<Outbound>,
    /// Connection generation: stale `Disconnected` events from an
    /// already-replaced connection are ignored.
    gen: u64,
    addr_idx: usize,
    next_seq: u64,
    pending: IdMap<PendingOp>,
    deadlines: Deadlines<u64>,
    coordinator: Arc<Mutex<SocketAddr>>,
    /// After a dial round finds no replica reachable, don't dial again
    /// until this instant: a burst of queued submits must fail fast
    /// (one `Unavailable` each) instead of each serially paying a full
    /// `replicas × connect_timeout` round on the loop thread.
    retry_after: Option<Instant>,
}

impl ClientLoop {
    /// Returns a live connection, dialing through the replica list (one
    /// full round) if there is none.
    ///
    /// Replacing a dead connection fails every in-flight operation
    /// first: their replies died with the old socket, and a `Submit` can
    /// reach this point before the reader thread's `Disconnected` event
    /// does — waiting for the op deadline instead would stall a closed
    /// loop for the whole timeout.
    fn ensure_connected(&mut self) -> Option<&Outbound> {
        if self.conn.as_ref().is_some_and(|c| !c.is_dead()) {
            // Borrow dance: re-borrow immutably for the return.
            return self.conn.as_ref();
        }
        if self.conn.take().is_some() || !self.pending.is_empty() {
            self.fail_all(|| Error::Unavailable("coordinator connection lost".into()));
        }
        if self.retry_after.is_some_and(|at| Instant::now() < at) {
            return None;
        }
        let n = self.cfg.replicas.len();
        for attempt in 0..n {
            let idx = (self.addr_idx + attempt) % n;
            let Some(addr) = self.cfg.replicas.get(idx).copied() else {
                continue; // n == 0: nothing to dial
            };
            let Ok(stream) = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) else {
                continue;
            };
            self.gen += 1;
            let gen = self.gen;
            let label = format!("cl{}g{}", self.cfg.client_id, gen);
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            let Ok(out) = Outbound::spawn(stream, &label) else {
                continue;
            };
            let reply_tx = self.tx.clone();
            let close_tx = self.tx.clone();
            let spawned = spawn_reader::<Msg, _, _>(
                read_half,
                &label,
                move |msg| {
                    let _ = reply_tx.send(Event::Reply(msg));
                },
                move |_reason| {
                    let _ = close_tx.send(Event::Disconnected { gen });
                },
            );
            if spawned.is_err() {
                out.kill();
                continue; // no reader: replies could never arrive
            }
            self.addr_idx = idx;
            self.retry_after = None;
            *self.coordinator.lock() = addr;
            self.conn = Some(out);
            return self.conn.as_ref();
        }
        // Nothing reachable; start the next round at a different replica,
        // and not before the backoff window passes.
        self.addr_idx = (self.addr_idx + 1) % n;
        self.retry_after = Some(Instant::now() + self.cfg.connect_timeout);
        None
    }

    fn run(mut self, rx: Receiver<Event>) {
        loop {
            let pending = &self.pending;
            let next = self.deadlines.next_live(|seq| pending.contains_key(seq));
            let event = match recv_step(&rx, next) {
                Step::Event(e) => e,
                Step::Expired => {
                    self.fire_expired();
                    continue;
                }
                Step::Closed => break,
            };
            match event {
                Event::Submit {
                    op,
                    kind,
                    upcall,
                    close_level,
                } => self.submit(op, kind, upcall, close_level),
                Event::Reply(msg) => {
                    handle_reply(&mut self.pending, self.cfg.client_id, msg);
                }
                Event::Disconnected { gen } => {
                    if gen == self.gen {
                        self.conn = None;
                        self.fail_all(|| Error::Unavailable("coordinator connection lost".into()));
                        // Prefer a different replica on the next dial.
                        self.addr_idx = (self.addr_idx + 1) % self.cfg.replicas.len();
                    }
                }
                Event::Shutdown => break,
            }
        }
        if let Some(conn) = self.conn.take() {
            conn.kill();
        }
        self.fail_all(|| Error::Unavailable("client shut down".into()));
    }

    fn fire_expired(&mut self) {
        let pending = &mut self.pending;
        self.deadlines.fire_expired(Instant::now(), |seq| {
            if let Some(p) = pending.remove(&seq) {
                p.upcall.fail(Error::Timeout);
            }
        });
    }

    fn fail_all(&mut self, err: impl Fn() -> Error) {
        fail_all_pending(&mut self.pending, err);
        self.deadlines.clear();
    }

    fn submit(
        &mut self,
        op: StoreOp,
        kind: ReadKind,
        upcall: Upcall<Versioned>,
        close_level: ConsistencyLevel,
    ) {
        if self.ensure_connected().is_none() {
            upcall.fail(Error::Unavailable("no replica reachable".into()));
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let (msg, written) = encode_submit(self.cfg.client_id, seq, op, kind);
        self.pending.insert(
            seq,
            PendingOp {
                upcall,
                close_level,
                prelim: None,
                written,
            },
        );
        self.deadlines
            .arm(Instant::now() + self.cfg.op_timeout, seq);
        let sent = self.conn.as_ref().is_some_and(|c| c.send(&msg));
        if !sent {
            if let Some(p) = self.pending.remove(&seq) {
                p.upcall
                    .fail(Error::Unavailable("coordinator connection lost".into()));
            }
        }
    }
}
