//! The simulated deployment shell: a client gateway node and a host
//! handle under every simulated store (one of each per client — most
//! deployments have one, see [`SimHost::add_gateway`]).
//!
//! The simulator is single-threaded, so a binding's `submit` can only
//! *enqueue* an operation; something inside the simulation has to pick
//! it up, talk to the replicas, and feed the replies to the operation's
//! upcall. That something is the [`SimGateway`] node. It owns everything
//! that is the same for every store:
//!
//! - the **op queue** and the **kick**: the gateway drains the queue
//!   after every reply and timer of its own, so an operation submitted
//!   from inside a callback (a speculative prefetch) enters the network
//!   at the very instant the callback ran. A submission from anywhere
//!   else — the harness between two `settle`s, another client's callback
//!   — waits for a *kick*: a zero-delay timer that [`SimHost::settle`]
//!   and [`SimHost::step`] schedule when they find the queue non-empty.
//!   `settle` looks when it is called and, once somebody else has queued
//!   something, at the next point of its 5 ms grid; a kick that would
//!   find nothing to drain is not scheduled at all;
//! - the **work flag**: whether anything is pending, armed or queued,
//!   in an atomic shared with the [`SimHost`], so `settle` runs the
//!   engine straight to the event after which nothing is, instead of
//!   stopping every 5 ms to downcast the node and ask;
//! - **op ids** (one `u64` per drained submission) and the **pending
//!   table** keyed by them;
//! - the **per-op client deadline**: with [`SimHost::set_client_timeout`]
//!   every pending operation arms a timer whose token *is* its op id, so
//!   closing the operation retires the deadline with it — a late fire
//!   finds nothing and no side table outlives the operation;
//! - the **virtual-clock mirror** ([`SimHost::clock`]), readable from
//!   callbacks while the engine runs, e.g. by
//!   `correctables::History::with_clock`;
//! - **wake-ups** ([`SimHost::after`]): application code that runs on
//!   the client after a delay of virtual time — a retailer's think time
//!   between two customers.
//!
//! A store's client half is nothing but its [`GatewayProto`]: how a
//! [`Submission`] (operation, requested [`LevelSet`], upcall) becomes
//! sends, how a reply becomes upcall deliveries, how a deadline fails
//! the upcall. The proto decodes the levels itself in `start`, and keeps
//! whatever the store records per client (timings, a cache) as plain
//! fields, read through [`SimHost::with_proto`]. Every store has the
//! same binding, [`SimBinding`], which differs per store only in the
//! levels it advertises. The stores whose replicas all accept
//! submissions (spec, CRDT, escrow) also share their proto: one
//! envelope, [`ClientMsg`] (a submission with its [`Wants`], or views in
//! level order), embedded in each store's message enum, and one
//! protocol, [`RoundRobin`].

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use parking_lot::Mutex;

use crate::bandwidth::Wire;
use crate::engine::{Ctx, Engine, Node, NodeId, Timer};
use crate::faults::Faults;
use crate::time::{SimDuration, SimTime};
use crate::topology::SiteId;

/// Timer token of the queue-drain kick. Deadline and wake-up tokens are
/// op ids, which count up from zero and never get here.
const KICK: u64 = u64::MAX - 1;

/// The grid [`SimHost::settle`] returns on, counted from the instant it
/// was called: it runs to the end of the slice in which the gateway went
/// idle and no further — coordinator timeouts armed seconds out must not
/// drag the clock forward once all work is done, and anti-entropy timers
/// keep the event queue busy for as long as gossip is being lost. A
/// submission somebody else left on the inbox is drained at the next
/// grid point.
const SETTLE_SLICE: SimDuration = SimDuration::from_millis(5);

/// Virtual time after which [`SimHost::settle`] gives up on a deployment
/// that stays busy without closing anything.
const SETTLE_HORIZON: SimDuration = SimDuration::from_secs(10_000);

/// What a gateway has open, published in a flag it shares with its
/// [`SimHost`] as it shares the clock mirror, so `settle` need not stop
/// the engine to ask. Every store happens under the inbox lock (which is
/// what orders it; the flag itself publishes nothing): the gateway's as
/// its drain finds the inbox empty, the handle's as it fills it.
///
/// Nothing pending, nothing armed, nothing queued.
const IDLE: u8 = 0;
/// Operations or wake-ups open and the inbox empty: only an event that
/// is already scheduled can change anything.
const WAITING: u8 = 1;
/// The inbox holds something for the next drain.
const QUEUED: u8 = 2;

/// The operations a gateway has in flight, by op id.
///
/// Op ids are minted in sequence and operations close roughly in that
/// order, so the table is a window over the id space — a deque of slots
/// starting at the oldest open operation — rather than a tree: a lookup
/// is an index, iteration is in op order, and the entries (an upcall
/// plus whatever views the protocol has collected) never move. The
/// price is one empty slot per closed operation younger than the oldest
/// open one.
pub struct PendingOps<E> {
    /// Op id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<E>>,
    open: usize,
}

impl<E> PendingOps<E> {
    fn new() -> Self {
        PendingOps {
            base: 0,
            slots: VecDeque::new(),
            open: 0,
        }
    }

    /// Opens `op`, which must be above every id opened before.
    fn insert(&mut self, op: u64, entry: E) {
        if self.slots.is_empty() {
            self.base = op;
        }
        let at = (op - self.base) as usize;
        debug_assert!(at >= self.slots.len(), "op ids are minted in sequence");
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(entry));
        self.open += 1;
    }

    fn slot(&self, op: u64) -> Option<usize> {
        op.checked_sub(self.base).map(|at| at as usize)
    }

    /// The entry of `op`, if it is still open.
    pub fn get(&self, op: u64) -> Option<&E> {
        self.slots.get(self.slot(op)?)?.as_ref()
    }

    /// The entry of `op`, if it is still open.
    pub fn get_mut(&mut self, op: u64) -> Option<&mut E> {
        let at = self.slot(op)?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Closes `op`, handing its entry back.
    pub fn remove(&mut self, op: u64) -> Option<E> {
        let at = self.slot(op)?;
        let entry = self.slots.get_mut(at)?.take()?;
        self.open -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(entry)
    }

    /// The open operations, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut E)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(at, slot)| Some((base + at as u64, slot.as_mut()?)))
    }

    /// Number of open operations.
    pub fn len(&self) -> usize {
        self.open
    }

    /// Whether no operation is open.
    pub fn is_empty(&self) -> bool {
        self.open == 0
    }
}

/// One submission as a binding hands it to its gateway: the operation,
/// the levels requested of it (inline up to six, so no allocation on a
/// submit), and the upcall its views go to.
pub struct Submission<O, V> {
    /// The operation.
    pub op: O,
    /// The requested levels, weakest first.
    pub levels: LevelSet,
    /// Where the operation's views go.
    pub upcall: Upcall<V>,
}

/// The store-specific client half of a simulated deployment.
pub trait GatewayProto: Send + 'static {
    /// The deployment's message type.
    type Msg: Wire + Send + 'static;
    /// The client operation.
    type Op: Send + 'static;
    /// The view value.
    type Val: Clone + Send + 'static;
    /// What the gateway keeps per operation until it closes (at least
    /// the upcall).
    type Pending: Send + 'static;

    /// Turns submission number `op` into sends, decoding from its levels
    /// what the store needs to know. Returns the entry to keep while
    /// replies are outstanding, or `None` if the operation was answered
    /// on the spot.
    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        op: u64,
        sub: Submission<Self::Op, Self::Val>,
    ) -> Option<Self::Pending>;

    /// Turns one message addressed to the gateway into upcall
    /// deliveries, removing the operation from `pending` when it closes.
    fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        pending: &mut PendingOps<Self::Pending>,
        msg: Self::Msg,
    );

    /// The operation's client deadline passed: fail its upcall. Views
    /// already delivered stand (the paper's exceptional close).
    fn expire(&mut self, entry: Self::Pending);
}

type Wake = Box<dyn FnOnce() + Send>;

/// What a client's handles have left for its gateway's next drain, under
/// one lock: submissions, and wake-ups to arm.
struct Inbox<P: GatewayProto> {
    ops: VecDeque<Submission<P::Op, P::Val>>,
    wakes: Vec<(SimDuration, Wake)>,
}

type Queue<P> = Arc<Mutex<Inbox<P>>>;

/// The in-simulation client node (see the module docs).
pub struct SimGateway<P: GatewayProto> {
    proto: P,
    queue: Queue<P>,
    clock: Arc<AtomicU64>,
    work: Arc<AtomicU8>,
    next_op: u64,
    pending: PendingOps<P::Pending>,
    /// Armed wake-ups, by the op id minted for their timer token.
    wakes: PendingOps<Wake>,
    /// `None` (the default) waits forever; fault-injected runs set it
    /// so a lost reply fails the operation instead of wedging `settle`.
    client_timeout: Option<SimDuration>,
    /// Timer events this gateway has handled: kicks, wake-ups, deadlines.
    #[cfg(test)]
    timer_fires: u64,
}

impl<P: GatewayProto> SimGateway<P> {
    fn drain(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        loop {
            let mut inbox = self.queue.lock();
            let Some(sub) = inbox.ops.pop_front() else {
                let wakes = std::mem::take(&mut inbox.wakes);
                let idle = self.pending.is_empty() && self.wakes.is_empty() && wakes.is_empty();
                self.work
                    .store(if idle { IDLE } else { WAITING }, Ordering::Relaxed);
                drop(inbox);
                for (delay, wake) in wakes {
                    let token = self.mint();
                    self.wakes.insert(token, wake);
                    ctx.set_timer(delay, Timer(token));
                }
                return;
            };
            // `start` may run callbacks, which may enqueue.
            drop(inbox);
            let op = self.mint();
            if let Some(entry) = self.proto.start(ctx, op, sub) {
                self.pending.insert(op, entry);
                if let Some(d) = self.client_timeout {
                    ctx.set_timer(d, Timer(op));
                }
            }
        }
    }

    fn mint(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }
}

impl<P: GatewayProto> Node<P::Msg> for SimGateway<P> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, P::Msg>, _from: NodeId, msg: P::Msg) {
        self.clock.store(ctx.now().as_nanos(), Ordering::Relaxed);
        self.proto.on_reply(ctx, &mut self.pending, msg);
        // The upcalls above may have enqueued nested operations; pick
        // them up at this exact simulation instant.
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P::Msg>, timer: Timer) {
        #[cfg(test)]
        {
            self.timer_fires += 1;
        }
        self.clock.store(ctx.now().as_nanos(), Ordering::Relaxed);
        if timer.0 != KICK {
            if let Some(wake) = self.wakes.remove(timer.0) {
                wake();
            } else if let Some(entry) = self.pending.remove(timer.0) {
                self.proto.expire(entry);
            }
        }
        self.drain(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated deployment — engine, replicas and client gateway —
/// behind a cloneable, synchronously driveable handle. The `Sim*` store
/// types dereference to this.
pub struct SimHost<P: GatewayProto> {
    engine: Arc<Mutex<Engine<P::Msg>>>,
    gateway: NodeId,
    replicas: Arc<[NodeId]>,
    queue: Queue<P>,
    clock: Arc<AtomicU64>,
    work: Arc<AtomicU8>,
}

impl<P: GatewayProto> Clone for SimHost<P> {
    fn clone(&self) -> Self {
        SimHost {
            engine: Arc::clone(&self.engine),
            gateway: self.gateway,
            replicas: Arc::clone(&self.replicas),
            queue: Arc::clone(&self.queue),
            clock: Arc::clone(&self.clock),
            work: Arc::clone(&self.work),
        }
    }
}

impl<P: GatewayProto> SimHost<P> {
    /// Takes over `engine`, whose `replicas` are already wired, and adds
    /// the client gateway at `client_site` speaking `proto`.
    pub fn new(
        engine: Engine<P::Msg>,
        replicas: Vec<NodeId>,
        client_site: SiteId,
        proto: P,
    ) -> Self {
        Self::attach(
            Arc::new(Mutex::new(engine)),
            replicas.into(),
            client_site,
            proto,
        )
    }

    /// Adds one more client to the deployment: a further gateway node at
    /// `client_site` speaking `proto`, behind a handle of its own. The
    /// handles share the engine and the replicas; queue, op ids, client
    /// deadline, clock mirror and `settle` ("until *this* client's
    /// operations closed") are per client. Only [`SimHost::settle`] and
    /// [`SimHost::step`] kick a gateway, and only their own.
    pub fn add_gateway(&self, client_site: SiteId, proto: P) -> Self {
        Self::attach(
            Arc::clone(&self.engine),
            Arc::clone(&self.replicas),
            client_site,
            proto,
        )
    }

    fn attach(
        engine: Arc<Mutex<Engine<P::Msg>>>,
        replicas: Arc<[NodeId]>,
        client_site: SiteId,
        proto: P,
    ) -> Self {
        let queue: Queue<P> = Arc::new(Mutex::new(Inbox {
            ops: VecDeque::new(),
            wakes: Vec::new(),
        }));
        let clock = Arc::new(AtomicU64::new(0));
        let work = Arc::new(AtomicU8::new(IDLE));
        let gateway = engine.lock().add_node(
            client_site,
            Box::new(SimGateway {
                proto,
                queue: Arc::clone(&queue),
                clock: Arc::clone(&clock),
                work: Arc::clone(&work),
                next_op: 0,
                pending: PendingOps::new(),
                wakes: PendingOps::new(),
                client_timeout: None,
                #[cfg(test)]
                timer_fires: 0,
            }),
        );
        SimHost {
            engine,
            gateway,
            replicas,
            queue,
            clock,
            work,
        }
    }

    /// Queues one submission for the gateway's next drain (what
    /// [`SimBinding::submit`] does).
    fn enqueue(&self, sub: Submission<P::Op, P::Val>) {
        let mut inbox = self.queue.lock();
        inbox.ops.push_back(sub);
        self.work.store(QUEUED, Ordering::Relaxed);
    }

    /// Runs `f` on this client's gateway `delay` of virtual time from
    /// now — client think time. Callable from inside a callback, so like
    /// a submission it only leaves `f` for the gateway's next
    /// drain to arm (from a callback that is this very instant); when
    /// it fires, the clock mirror shows the wake-up's instant and what
    /// `f` submits is drained there. [`SimHost::settle`] counts a
    /// pending wake-up as outstanding work.
    pub fn after(&self, delay: SimDuration, f: impl FnOnce() + Send + 'static) {
        let mut inbox = self.queue.lock();
        inbox.wakes.push((delay, Box::new(f)));
        self.work.store(QUEUED, Ordering::Relaxed);
    }

    /// A handle mirroring the virtual time (nanoseconds) at which the
    /// gateway last ran, readable from inside Correctable callbacks
    /// while the simulation runs — e.g. for `History::with_clock`.
    pub fn clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.clock)
    }

    /// Installs a fault plan (message drops, downtime windows, site
    /// partitions). Combine with [`SimHost::set_client_timeout`] so lost
    /// replies fail operations instead of wedging [`SimHost::settle`].
    pub fn set_faults(&self, faults: Faults) {
        self.engine.lock().set_faults(faults);
    }

    /// Sets a client-side deadline for every subsequently submitted
    /// operation: if it has not closed within `d` of virtual time it
    /// fails with [`Error::Timeout`]; views already delivered stand.
    pub fn set_client_timeout(&self, d: SimDuration) {
        self.with_gateway(|gw| gw.client_timeout = Some(d));
    }

    /// The replica node ids, in site-list (FRK/IRL/VRG) order — fault
    /// schedules target these.
    pub fn replica_ids(&self) -> Vec<NodeId> {
        self.replicas.to_vec()
    }

    /// All site ids of the deployment's topology.
    pub fn site_ids(&self) -> Vec<SiteId> {
        (0..self.engine.lock().topology().len())
            .map(SiteId)
            .collect()
    }

    /// The gateway's node id.
    pub fn gateway_id(&self) -> NodeId {
        self.gateway
    }

    /// Total bytes that crossed this client's link so far.
    pub fn gateway_link_bytes(&self) -> u64 {
        self.engine.lock().bandwidth().link_bytes(self.gateway)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.lock().now()
    }

    /// Drives the simulation until every submitted operation (including
    /// operations issued from inside callbacks) has closed — by a final
    /// view or, when faults lost it, by the client deadline — and every
    /// wake-up has fired, then on to the end of the 5 ms slice, counted
    /// from the call, in which that happened.
    ///
    /// # Panics
    ///
    /// Panics if operations cannot close: at once when nothing is
    /// scheduled that could close them (replies lost to faults without a
    /// client timeout, or a protocol bug), after a very large horizon of
    /// virtual time when the deployment stays busy regardless.
    pub fn settle(&self) {
        let work = || self.work.load(Ordering::Relaxed);
        let mut engine = self.engine.lock();
        // A grid point: everything due by it has run.
        let mut at = engine.now();
        let horizon = at + SETTLE_HORIZON;
        while at < horizon {
            self.kick(&mut engine);
            // A gateway that only waits has nothing to do at a grid
            // point: run straight to the event that ends the wait.
            engine.run_while(horizon, || work() == WAITING);
            if work() == WAITING {
                break;
            }
            // Finish the slice that event fell in (the kick's own, if it
            // was the kick that left nothing open).
            let into = engine.now().since(at).as_nanos();
            at += SETTLE_SLICE * into.div_ceil(SETTLE_SLICE.as_nanos()).max(1);
            engine.run_until(at);
            if work() == IDLE {
                return;
            }
        }
        panic!(
            "operations cannot settle, {} (lost replies without a client timeout? \
             see SimHost::set_client_timeout)",
            match engine.next_event_at() {
                None => "nothing is scheduled that could close them",
                Some(_) => "the deployment stayed busy to the horizon",
            }
        );
    }

    /// Runs the simulation for `d` without kicking the gateway (client
    /// think time; lets replication and anti-entropy progress).
    pub fn advance(&self, d: SimDuration) {
        self.engine.lock().run_for(d);
    }

    /// Kicks the gateway once, then runs the simulation for `d`: for
    /// callers that measure how much virtual time passes before an
    /// individual operation closes, or whose deployment never goes idle.
    pub fn step(&self, d: SimDuration) {
        let mut engine = self.engine.lock();
        self.kick(&mut engine);
        engine.run_for(d);
    }

    /// The kick: has the gateway drain its inbox at this instant, after
    /// everything else due at it. An empty inbox leaves a kick nothing to
    /// do but show this instant on the clock mirror, which takes no event.
    fn kick(&self, engine: &mut Engine<P::Msg>) {
        if self.work.load(Ordering::Relaxed) == QUEUED {
            engine.schedule_timer(self.gateway, SimDuration::ZERO, Timer(KICK));
        } else {
            self.clock.store(engine.now().as_nanos(), Ordering::Relaxed);
        }
    }

    /// Direct access to the engine (seeding replicas, reading counters).
    /// Must not be called from inside a callback: the engine is locked
    /// while it runs.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine<P::Msg>) -> R) -> R {
        f(&mut self.engine.lock())
    }

    /// Runs `f` on every replica, downcast to `T`, in replica order.
    pub fn each_replica<T: 'static, R>(&self, mut f: impl FnMut(&mut T) -> R) -> Vec<R> {
        let mut engine = self.engine.lock();
        self.replicas
            .iter()
            .map(|id| f(engine.node_as::<T>(*id)))
            .collect()
    }

    /// Direct access to the gateway's protocol state — where a store
    /// keeps its per-client records. Must not be called from inside a
    /// callback: the engine is locked while it runs.
    pub fn with_proto<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        self.with_gateway(|gw| f(&mut gw.proto))
    }

    fn with_gateway<R>(&self, f: impl FnOnce(&mut SimGateway<P>) -> R) -> R {
        f(self.engine.lock().node_as::<SimGateway<P>>(self.gateway))
    }
}

// ---------------------------------------------------------------------
// The round-robin client half: one envelope, one protocol
// ---------------------------------------------------------------------

/// Which levels one submission wants served, of the four a round-robin
/// store can serve; a store leaves the levels it does not offer unset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wants {
    /// Deliver a weak view.
    pub weak: bool,
    /// Deliver an update-consistency view.
    pub update: bool,
    /// Deliver a causal view.
    pub causal: bool,
    /// Deliver a strong view.
    pub strong: bool,
}

impl Wants {
    /// The four levels a round-robin store can serve, weakest first:
    /// one per flag, in field order.
    pub const LEVELS: [ConsistencyLevel; 4] = [
        ConsistencyLevel::WEAK,
        ConsistencyLevel::UPDATE,
        ConsistencyLevel::CAUSAL,
        ConsistencyLevel::STRONG,
    ];

    /// The flags of the requested `levels`.
    pub fn of(levels: &[ConsistencyLevel]) -> Wants {
        let [weak, update, causal, strong] = Wants::LEVELS.map(|level| levels.contains(&level));
        Wants {
            weak,
            update,
            causal,
            strong,
        }
    }
}

/// What a client and a replica of a round-robin store say to each
/// other; each store's message enum embeds it. `T` is the client's name
/// for its operation — the gateway's op id under simnet.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg<T, O, V> {
    /// Client → replica: accept `client_op` as operation `op`.
    Submit {
        /// The client's name for the operation.
        op: T,
        /// The operation.
        client_op: O,
        /// Levels to serve.
        wants: Wants,
    },
    /// Replica → client: views of `op`, in level order.
    Views {
        /// The client's name for the operation.
        op: T,
        /// `(level, value)` in delivery order.
        views: Vec<(ConsistencyLevel, V)>,
        /// Whether the strongest requested level is among `views`.
        closing: bool,
    },
}

impl<T, O, V> ClientMsg<T, O, V> {
    /// One view of `op`.
    pub fn view(op: T, level: ConsistencyLevel, val: V, closing: bool) -> Self {
        ClientMsg::Views {
            op,
            views: vec![(level, val)],
            closing,
        }
    }

    /// The wait-free views of a submission, closing it unless `wants`
    /// owes a view that needs the peers (causal or strong); `None` when
    /// there is nothing to say yet.
    pub fn at_once(op: T, views: Vec<(ConsistencyLevel, V)>, wants: Wants) -> Option<Self> {
        let closing = !wants.causal && !wants.strong;
        (closing || !views.is_empty()).then_some(ClientMsg::Views { op, views, closing })
    }
}

impl<T, O, V> Wire for ClientMsg<T, O, V> {
    fn wire_size(&self) -> usize {
        match self {
            ClientMsg::Submit { .. } => 32,
            ClientMsg::Views { views, .. } => 16 + 16 * views.len(),
        }
    }

    fn category(&self) -> &'static str {
        match self {
            ClientMsg::Submit { .. } => "submit",
            ClientMsg::Views { .. } => "reply",
        }
    }
}

/// A message enum that embeds [`ClientMsg`]: what [`RoundRobin`] needs
/// of it.
pub trait SubmitWire: Wire + Send + Sized + 'static {
    /// The client operation.
    type Op: Send + 'static;
    /// The view value.
    type Val: Clone + Send + 'static;

    /// Wraps the client half, as the gateway names operations (op ids).
    fn client(msg: ClientMsg<u64, Self::Op, Self::Val>) -> Self;

    /// The client half this message carries; `None` for replica-to-
    /// replica traffic.
    fn into_client(self) -> Option<ClientMsg<u64, Self::Op, Self::Val>>;
}

/// The gateway protocol of stores where *every* replica accepts
/// submissions: each one goes to the next replica in turn (so a
/// workload exercises genuinely concurrent multi-origin histories), the
/// replica answers with the wait-free views at once and the views that
/// needed its peers later.
pub struct RoundRobin<M: SubmitWire> {
    replicas: Vec<NodeId>,
    rr: usize,
    /// When set, every submission goes to this replica instead.
    pub pinned: Option<usize>,
    _msg: PhantomData<fn(M)>,
}

impl<M: SubmitWire> RoundRobin<M> {
    /// Round-robin over `replicas`, starting at the first.
    pub fn new(replicas: Vec<NodeId>) -> Self {
        RoundRobin {
            replicas,
            rr: 0,
            pinned: None,
            _msg: PhantomData,
        }
    }
}

impl<M: SubmitWire> GatewayProto for RoundRobin<M> {
    type Msg = M;
    type Op = M::Op;
    type Val = M::Val;
    type Pending = Upcall<M::Val>;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        op: u64,
        sub: Submission<M::Op, M::Val>,
    ) -> Option<Upcall<M::Val>> {
        let idx = self.pinned.unwrap_or_else(|| {
            let next = self.rr % self.replicas.len();
            self.rr += 1;
            next
        });
        let submit = ClientMsg::Submit {
            op,
            client_op: sub.op,
            wants: Wants::of(sub.levels.as_slice()),
        };
        ctx.send(self.replicas[idx], M::client(submit));
        Some(sub.upcall)
    }

    fn on_reply(
        &mut self,
        _ctx: &mut Ctx<'_, M>,
        pending: &mut PendingOps<Upcall<M::Val>>,
        msg: M,
    ) {
        let Some(ClientMsg::Views { op, views, closing }) = msg.into_client() else {
            debug_assert!(false, "protocol messages are addressed to replicas");
            return;
        };
        if let Some(upcall) = pending.get(op) {
            for (level, val) in views {
                upcall.deliver(val, level);
            }
            if closing {
                pending.remove(op);
            }
        }
    }

    fn expire(&mut self, upcall: Upcall<M::Val>) {
        upcall.fail(Error::Timeout);
    }
}

// ---------------------------------------------------------------------
// The one binding
// ---------------------------------------------------------------------

/// The Correctables binding of every simulated store: it advertises the
/// `levels` the store serves and hands each submission, levels and all,
/// to the gateway speaking `P`, whose `start` decodes what it needs.
pub struct SimBinding<P: GatewayProto> {
    host: SimHost<P>,
    levels: LevelSet,
}

impl<P: GatewayProto> SimBinding<P> {
    /// A binding over `host` advertising `levels`.
    pub fn new(host: SimHost<P>, levels: &[ConsistencyLevel]) -> Self {
        SimBinding {
            host,
            levels: LevelSet::of(levels),
        }
    }
}

impl<P: GatewayProto> Clone for SimBinding<P> {
    fn clone(&self) -> Self {
        SimBinding {
            host: self.host.clone(),
            levels: self.levels.clone(),
        }
    }
}

impl<P: GatewayProto> Binding for SimBinding<P> {
    type Op = P::Op;
    type Val = P::Val;

    fn consistency_levels(&self) -> LevelSet {
        self.levels.clone()
    }

    fn submit(&self, op: P::Op, levels: &[ConsistencyLevel], upcall: Upcall<P::Val>) {
        self.host.enqueue(Submission {
            op,
            levels: LevelSet::of(levels),
            upcall,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::topology::Topology;
    use correctables::{Client, State};

    /// Toy protocol: the gateway sends `Ping(op)` to the one echo node,
    /// which answers `Pong(op)`; the pong closes the operation at WEAK.
    #[derive(Debug)]
    enum Toy {
        Ping(u64),
        Pong(u64),
    }

    impl Wire for Toy {
        fn wire_size(&self) -> usize {
            16
        }
    }

    struct Echo;

    impl Node<Toy> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Toy>, from: NodeId, msg: Toy) {
            if let Toy::Ping(op) = msg {
                ctx.send(from, Toy::Pong(op));
            }
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct ToyProto {
        echo: NodeId,
    }

    impl GatewayProto for ToyProto {
        type Msg = Toy;
        type Op = ();
        type Val = u64;
        type Pending = Upcall<u64>;

        fn start(
            &mut self,
            ctx: &mut Ctx<'_, Toy>,
            op: u64,
            sub: Submission<(), u64>,
        ) -> Option<Upcall<u64>> {
            ctx.send(self.echo, Toy::Ping(op));
            Some(sub.upcall)
        }

        fn on_reply(
            &mut self,
            _ctx: &mut Ctx<'_, Toy>,
            pending: &mut PendingOps<Upcall<u64>>,
            msg: Toy,
        ) {
            if let Toy::Pong(op) = msg {
                if let Some(up) = pending.remove(op) {
                    up.deliver(op, ConsistencyLevel::WEAK);
                }
            }
        }

        fn expire(&mut self, up: Upcall<u64>) {
            up.fail(Error::Timeout);
        }
    }

    type ToyBinding = SimBinding<ToyProto>;

    /// The toy's binding: WEAK only.
    fn bind(host: &SimHost<ToyProto>) -> ToyBinding {
        SimBinding::new(host.clone(), &[ConsistencyLevel::WEAK])
    }

    /// Gateway and echo node 10 ms apart (one way), no jitter.
    fn toy() -> (SimHost<ToyProto>, Client<ToyBinding>) {
        toy_over(SimDuration::from_millis(20), 0.0, 1)
    }

    /// Gateway at site A, echo node at site B, `rtt` apart with `wobble`
    /// of jitter; 1 ms one way within a site.
    fn toy_over(
        rtt: SimDuration,
        wobble: f64,
        seed: u64,
    ) -> (SimHost<ToyProto>, Client<ToyBinding>) {
        let mut topo = Topology::new(wobble, 0.0);
        let a = topo.add_site("A", SimDuration::from_millis(2));
        let b = topo.add_site("B", SimDuration::from_millis(2));
        topo.set_rtt(a, b, rtt);
        let mut engine = Engine::new(topo, seed);
        let echo = engine.add_node(b, Box::new(Echo));
        let host = SimHost::new(engine, vec![echo], a, ToyProto { echo });
        let client = Client::new(bind(&host));
        (host, client)
    }

    /// `settle` and `step` as they were while `settle` polled: a kick
    /// event whatever the inbox holds, and between two slices a look into
    /// the gateway to ask whether it is idle. The reference the event-
    /// driven loop is held to, instant for instant.
    fn settle_sliced(host: &SimHost<ToyProto>) {
        let mut engine = host.engine.lock();
        for _ in 0..100_000 {
            engine.schedule_timer(host.gateway, SimDuration::ZERO, Timer(KICK));
            engine.run_for(SETTLE_SLICE);
            let gw = engine.node_as::<SimGateway<ToyProto>>(host.gateway);
            let inbox = gw.queue.lock();
            if gw.pending.is_empty()
                && gw.wakes.is_empty()
                && inbox.ops.is_empty()
                && inbox.wakes.is_empty()
            {
                return;
            }
        }
        panic!("the sliced reference ran out of slices");
    }

    fn step_sliced(host: &SimHost<ToyProto>, d: SimDuration) {
        let mut engine = host.engine.lock();
        engine.schedule_timer(host.gateway, SimDuration::ZERO, Timer(KICK));
        engine.run_for(d);
    }

    /// One of the two loops.
    #[derive(Clone, Copy)]
    struct Drive {
        settle: fn(&SimHost<ToyProto>),
        step: fn(&SimHost<ToyProto>, SimDuration),
    }

    const EVENT_DRIVEN: Drive = Drive {
        settle: SimHost::settle,
        step: SimHost::step,
    };
    const SLICED: Drive = Drive {
        settle: settle_sliced,
        step: step_sliced,
    };

    fn timer_fires(host: &SimHost<ToyProto>) -> u64 {
        host.with_gateway(|gw| gw.timer_fires)
    }

    fn tables(host: &SimHost<ToyProto>) -> (usize, usize) {
        (
            host.with_gateway(|gw| gw.pending.len()),
            host.queue.lock().ops.len(),
        )
    }

    fn lose_everything_from_echo(host: &SimHost<ToyProto>) {
        let echo = host.replica_ids()[0];
        let forever = SimTime::ZERO + SimDuration::from_secs(1 << 30);
        host.set_faults(Faults::none().with_downtime(echo, SimTime::ZERO, forever));
    }

    #[test]
    fn pending_window_follows_the_oldest_open_op() {
        let mut pending = PendingOps::new();
        // Op 1 was answered on the spot and never opened: a hole.
        for op in [0, 2, 3] {
            pending.insert(op, op * 10);
        }
        assert_eq!((pending.len(), pending.get(1)), (3, None));
        assert_eq!(pending.get_mut(2).map(|e| *e), Some(20));
        // Closing out of order leaves a slot; closing the oldest drops
        // every closed slot behind it.
        assert_eq!(pending.remove(2), Some(20));
        assert_eq!((pending.remove(2), pending.slots.len()), (None, 4));
        assert_eq!(pending.remove(0), Some(0));
        assert_eq!((pending.base, pending.slots.len()), (3, 1));
        let open: Vec<_> = pending.iter_mut().map(|(op, e)| (op, *e)).collect();
        assert_eq!(open, vec![(3, 30)]);
        // Ids below the window, far above it, and the kick token miss.
        assert_eq!(pending.remove(1), None);
        assert_eq!(pending.get(u64::MAX), None);
        assert_eq!(pending.remove(3), Some(30));
        assert!(pending.is_empty() && pending.slots.is_empty());
        pending.insert(9, 90);
        assert_eq!((pending.base, pending.get(9)), (9, Some(&90)));
    }

    /// What the spec, CRDT and escrow stores each charged for their own
    /// `Submit`, `Immediate` and `Later` variants: the bandwidth model
    /// does not move with the envelope.
    #[test]
    fn client_envelope_costs_what_the_per_store_variants_cost() {
        type Msg = ClientMsg<u64, (), u64>;
        let submit: Msg = ClientMsg::Submit {
            op: 1,
            client_op: (),
            wants: Wants::of(&[ConsistencyLevel::WEAK]),
        };
        assert_eq!((submit.wire_size(), submit.category()), (32, "submit"));
        // One view is what a `Later` was.
        let later: Msg = ClientMsg::view(1, ConsistencyLevel::STRONG, 7, true);
        assert_eq!((later.wire_size(), later.category()), (32, "reply"));
        for n in 0..5 {
            let views = vec![(ConsistencyLevel::WEAK, 7); n];
            let reply: Msg = ClientMsg::Views {
                op: 1,
                views,
                closing: n > 0,
            };
            assert_eq!(
                (reply.wire_size(), reply.category()),
                (16 + 16 * n, "reply")
            );
        }
    }

    #[test]
    fn wants_are_the_requested_levels_and_decide_what_is_said_at_once() {
        let weak_strong = Wants::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG]);
        let expected = Wants {
            weak: true,
            strong: true,
            ..Wants::default()
        };
        assert_eq!(weak_strong, expected);
        let weak = vec![(ConsistencyLevel::WEAK, 3)];
        // Views owed later: the wait-free ones do not close, and with
        // none there is nothing to send yet.
        let at_once = |views, wants| ClientMsg::<u64, (), u64>::at_once(9, views, wants);
        let Some(ClientMsg::Views { closing, .. }) = at_once(weak.clone(), weak_strong) else {
            panic!("the weak view goes out at once");
        };
        assert!(!closing);
        assert!(at_once(Vec::new(), weak_strong).is_none());
        // Nothing owed later: the wait-free views close.
        let update = Wants::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::UPDATE]);
        assert!(update.update && !update.causal && !update.strong);
        let Some(ClientMsg::Views { closing, views, .. }) = at_once(weak, update) else {
            panic!("the weak view goes out at once");
        };
        assert!(closing && views.len() == 1);
    }

    #[test]
    fn submission_from_an_upcall_is_drained_at_the_same_instant() {
        let (host, client) = toy();
        let clock = host.clock();
        let nested_at = Arc::new(AtomicU64::new(0));
        let inner = Arc::new(Mutex::new(None));
        let outer = client.invoke_weak(());
        {
            let binding = bind(&host);
            let (clock, inner, nested_at) = (clock.clone(), inner.clone(), nested_at.clone());
            outer.on_final(move |_| {
                nested_at.store(clock.load(Ordering::Relaxed), Ordering::Relaxed);
                *inner.lock() = Some(Client::new(binding).invoke_weak(()));
            });
        }
        host.settle();
        let inner = inner.lock().take().expect("callback ran");
        assert_eq!(
            inner.state(),
            State::Final,
            "nested op closed in the same settle"
        );
        // The outer pong arrived at 20 ms; the nested ping left at that
        // instant, so its pong is back at 40 ms — not one settle slice
        // (or one extra kick) later.
        assert_eq!(nested_at.load(Ordering::Relaxed), 20_000_000);
        assert_eq!(clock.load(Ordering::Relaxed), 40_000_000);
        assert_eq!(tables(&host), (0, 0));
    }

    #[test]
    fn tables_are_empty_after_settle_with_and_without_a_deadline() {
        for deadline in [None, Some(SimDuration::from_millis(500))] {
            let (host, client) = toy();
            if let Some(d) = deadline {
                host.set_client_timeout(d);
            }
            let ops: Vec<_> = (0..5).map(|_| client.invoke_weak(())).collect();
            host.settle();
            assert!(ops.iter().all(|c| c.state() == State::Final));
            // Closing an op retires its deadline with it: no table is
            // left holding anything for `client_timeout` to clean up.
            assert_eq!(tables(&host), (0, 0), "deadline {deadline:?}");
            // The deadline timers still fire, later, and find nothing.
            host.advance(SimDuration::from_secs(1));
            assert!(ops.iter().all(|c| c.state() == State::Final));
        }
    }

    #[test]
    fn lost_reply_with_a_deadline_fails_the_close_with_timeout() {
        let (host, client) = toy();
        host.set_client_timeout(SimDuration::from_millis(300));
        let kept = client.invoke_weak(());
        host.settle();
        lose_everything_from_echo(&host);
        let lost = client.invoke_weak(());
        host.settle();
        assert_eq!(
            kept.final_view().map(|v| v.value),
            Some(0),
            "delivered views stand"
        );
        assert_eq!(lost.state(), State::Error);
        assert!(matches!(lost.error(), Some(Error::Timeout)));
        assert_eq!(tables(&host), (0, 0));
    }

    fn settle_panic(host: &SimHost<ToyProto>) -> String {
        let settle = std::panic::AssertUnwindSafe(|| host.settle());
        let panic = std::panic::catch_unwind(settle).expect_err("settle returned");
        *panic.downcast::<String>().expect("a formatted panic")
    }

    #[test]
    fn lost_reply_without_a_deadline_panics_instead_of_spinning() {
        let (host, client) = toy();
        lose_everything_from_echo(&host);
        let _lost = client.invoke_weak(());
        let msg = settle_panic(&host);
        assert!(msg.contains("nothing is scheduled"), "{msg}");
        assert!(msg.contains("lost replies without a client timeout"));
        // The ping was lost as the kick sent it, which left the event
        // queue empty: the clock stands at the end of the kick's slice,
        // not 10 000 s on.
        assert_eq!(host.now(), SimTime::ZERO + SETTLE_SLICE);
        assert_eq!(timer_fires(&host), 1);
    }

    #[test]
    fn lost_reply_in_a_deployment_that_stays_busy_panics_at_the_horizon() {
        /// Anti-entropy that never goes quiet: a timer every second.
        struct Ticker;
        impl Node<Toy> for Ticker {
            fn on_message(&mut self, _: &mut Ctx<'_, Toy>, _: NodeId, _: Toy) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Toy>, timer: Timer) {
                ctx.set_timer(SimDuration::from_secs(1), timer);
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (host, client) = toy();
        lose_everything_from_echo(&host);
        host.with_engine(|e| {
            let ticker = e.add_node(SiteId(0), Box::new(Ticker));
            e.schedule_timer(ticker, SimDuration::ZERO, Timer(0));
        });
        let _lost = client.invoke_weak(());
        let msg = settle_panic(&host);
        assert!(msg.contains("stayed busy to the horizon"), "{msg}");
        assert_eq!(host.now(), SimTime::ZERO + SETTLE_HORIZON);
        assert_eq!(timer_fires(&host), 1);
    }

    #[test]
    fn step_kicks_exactly_once() {
        let (host, client) = toy();
        let first = client.invoke_weak(());
        // One kick at t = 0 drains the queue; the pong is back at 20 ms.
        host.step(SimDuration::from_millis(15));
        assert_eq!(first.state(), State::Updating);
        assert_eq!(tables(&host), (1, 0));
        host.advance(SimDuration::from_millis(10));
        assert_eq!(first.state(), State::Final);
        // That was the only kick: with no reply traffic left to ride on,
        // a fresh submission stays queued however long the engine runs.
        let second = client.invoke_weak(());
        host.advance(SimDuration::from_secs(1));
        assert_eq!(second.state(), State::Updating);
        assert_eq!(tables(&host), (0, 1));
        host.step(SimDuration::from_millis(25));
        assert_eq!(second.state(), State::Final);
    }

    #[test]
    fn wake_up_from_a_callback_fires_after_exactly_its_delay() {
        let ms = SimDuration::from_millis;
        let (a, client_a) = toy();
        let echo = a.replica_ids()[0];
        let b = a.add_gateway(a.site_ids()[0], ToyProto { echo });
        let clock_ms = |h: &SimHost<ToyProto>| h.clock().load(Ordering::Relaxed) / 1_000_000;
        let woke_at = Arc::new(AtomicU64::new(0));
        {
            let (host, clock, woke_at) = (a.clone(), a.clock(), woke_at.clone());
            client_a.invoke_weak(()).on_final(move |_| {
                host.after(ms(15), move || {
                    woke_at.store(clock.load(Ordering::Relaxed), Ordering::Relaxed);
                });
            });
        }
        // B's op is back at 20 ms like A's; B neither waits for A's
        // wake-up nor runs it.
        let y = Client::new(bind(&b)).invoke_weak(());
        a.step(SimDuration::ZERO);
        b.settle();
        assert_eq!((y.state(), clock_ms(&b)), (State::Final, 20));
        assert_eq!(woke_at.load(Ordering::Relaxed), 0);
        // A's tables are empty but its wake-up is not due: `settle`
        // runs on to it. The pong arrived at 20 ms, so it fires at 35.
        assert_eq!(tables(&a), (0, 0));
        a.settle();
        assert_eq!(woke_at.load(Ordering::Relaxed), 35_000_000);
        assert_eq!((clock_ms(&a), clock_ms(&b)), (35, 20));
    }

    #[test]
    fn two_gateways_share_the_engine_and_nothing_else() {
        let ms = SimDuration::from_millis;
        let (a, client_a) = toy();
        let echo = a.replica_ids()[0];
        let b = a.add_gateway(a.site_ids()[0], ToyProto { echo });
        let client_b = Client::new(bind(&b));
        let clock_ms = |h: &SimHost<ToyProto>| h.clock().load(Ordering::Relaxed) / 1_000_000;

        // Both clients' first op is their op 0, in flight at once, B's
        // 10 ms behind A's. Settling A runs the shared engine only until
        // A's own op closed; A's pong closed nothing of B's.
        let (x, y) = (client_a.invoke_weak(()), client_b.invoke_weak(()));
        a.step(ms(10));
        b.step(SimDuration::ZERO);
        a.settle();
        assert_eq!((x.state(), y.state()), (State::Final, State::Updating));
        b.settle();
        assert_eq!(
            (y.state(), clock_ms(&a), clock_ms(&b)),
            (State::Final, 20, 30)
        );

        // Each client's completion submits to the *other* client. A
        // submission waits in that client's queue until its own settle
        // (or step) kicks its gateway: nobody else's reply drains it.
        let second = Arc::new(Mutex::new(None));
        let third = Arc::new(Mutex::new(None));
        let first = client_a.invoke_weak(());
        {
            let (second, third) = (second.clone(), third.clone());
            let (to_a, to_b) = (bind(&a), bind(&b));
            first.on_final(move |_| {
                let on_b = Client::new(to_b).invoke_weak(());
                on_b.on_final(move |_| *third.lock() = Some(Client::new(to_a).invoke_weak(())));
                *second.lock() = Some(on_b);
            });
        }
        a.settle();
        assert_eq!((tables(&a), tables(&b)), ((0, 0), (0, 1)));
        b.settle();
        assert_eq!((tables(&a), tables(&b)), ((0, 1), (0, 0)));
        a.settle();
        assert_eq!((tables(&a), tables(&b)), ((0, 0), (0, 0)));
        let value = |c: &Arc<Mutex<Option<correctables::Correctable<u64>>>>| {
            let c = c.lock().take().expect("callback ran");
            c.final_view().map(|v| v.value)
        };
        // Op ids are per gateway: A's ops 1 and 2, B's op 1.
        assert_eq!(first.final_view().map(|v| v.value), Some(1));
        assert_eq!((value(&second), value(&third)), (Some(1), Some(2)));
    }

    #[test]
    fn a_settled_op_costs_one_kick_not_one_per_slice() {
        let ms = SimDuration::from_millis;
        // The toy's round trip, a strong quorum read's and the causal
        // store's strong view: one op, settle, think — the shape of the
        // round-by-round harnesses.
        for (rtt, per_op_sliced) in [(20, 4), (40, 8), (86, 18)] {
            let fires = |drive: Drive| {
                let (host, client) = toy_over(ms(rtt), 0.0, 1);
                let mut downcasts = 0;
                for round in 0..50 {
                    let op = client.invoke_weak(());
                    let before = host.engine.lock().downcasts;
                    (drive.settle)(&host);
                    downcasts += host.engine.lock().downcasts - before;
                    assert_eq!(op.state(), State::Final);
                    host.advance(ms(1 + round % 40));
                }
                (timer_fires(&host), downcasts)
            };
            // A kick per slice the op spans and a look into the gateway
            // after each; now the one kick that drains the submission.
            assert_eq!(fires(SLICED), (50 * per_op_sliced, 50 * per_op_sliced));
            assert_eq!(fires(EVENT_DRIVEN), (50, 0), "rtt {rtt} ms");
        }
    }

    #[test]
    fn submission_from_another_client_is_drained_at_the_next_grid_point() {
        let ms = SimDuration::from_millis;
        let run = |drive: Drive| {
            let (a, _) = toy();
            let echo = a.replica_ids()[0];
            let b = a.add_gateway(a.site_ids()[0], ToyProto { echo });
            let closed_at = Arc::new(AtomicU64::new(0));
            // B's op leaves at 0 and is back at 20 ms, when its upcall
            // submits to A. A settles from 2 ms on — grid points 2, 7,
            // … 22 — and is kept busy by a wake-up until 52 ms.
            {
                let (to_a, clock, closed_at) = (a.clone(), a.clock(), closed_at.clone());
                let first = Client::new(bind(&b)).invoke_weak(());
                first.on_final(move |_| {
                    let second = Client::new(bind(&to_a)).invoke_weak(());
                    second.on_final(move |_| {
                        closed_at.store(clock.load(Ordering::Relaxed), Ordering::Relaxed)
                    });
                });
            }
            (drive.step)(&b, ms(2));
            a.after(ms(50), || {});
            (drive.settle)(&a);
            let at_return = (a.now(), a.clock().load(Ordering::Relaxed));
            assert_eq!(at_return, (SimTime::ZERO + ms(52), 52_000_000));
            (closed_at.load(Ordering::Relaxed), timer_fires(&a))
        };
        // Nobody's reply drains A's inbox at 20 ms and A's next kick is
        // at 22: the ping leaves then and is back 20 ms later. Of the ten
        // slices' kicks two had something to drain; the third fire is the
        // wake-up.
        assert_eq!(run(SLICED), (42_000_000, 11));
        assert_eq!(run(EVENT_DRIVEN), (42_000_000, 3));
    }

    /// One thing a toy client does — submit an operation or arm a
    /// wake-up, on either client — and what follows when that closes or
    /// fires, from inside the upcall.
    #[derive(Clone, Debug)]
    struct Act {
        id: u32,
        on: usize,
        /// `Some`: a wake-up this far out; `None`: an operation.
        wake_ms: Option<u64>,
        then: Vec<Act>,
    }

    fn acts(rng: &mut DetRng, depth: u64, next_id: &mut u32) -> Vec<Act> {
        let n = match depth {
            0 => 1 + rng.below(3),
            _ => rng.below(4 - depth),
        };
        (0..n)
            .map(|_| {
                *next_id += 1;
                Act {
                    id: *next_id,
                    on: rng.below(2) as usize,
                    wake_ms: rng
                        .chance(0.3)
                        .then(|| [0, 0, 1, 5, 12, 40][rng.below(6) as usize]),
                    then: acts(rng, depth + 1, next_id),
                }
            })
            .collect()
    }

    struct World {
        hosts: [SimHost<ToyProto>; 2],
        /// `(act, how it ended, its client's clock mirror then)` in the
        /// order the upcalls ran.
        log: Mutex<Vec<(u32, &'static str, u64)>>,
    }

    fn perform(world: &Arc<World>, act: &Act) {
        let host = &world.hosts[act.on];
        let (w, me) = (Arc::clone(world), act.clone());
        let done = move |how| {
            let at = w.hosts[me.on].clock.load(Ordering::Relaxed);
            w.log.lock().push((me.id, how, at));
            me.then.iter().for_each(|next| perform(&w, next));
        };
        match act.wake_ms {
            Some(delay) => host.after(SimDuration::from_millis(delay), move || done("woke")),
            None => {
                let failed = done.clone();
                Client::new(bind(host))
                    .invoke_weak(())
                    .on_final(move |_| done("final"))
                    .on_error(move |_| failed("failed"));
            }
        }
    }

    /// What a loop can move: the upcall log, and after every `settle` the
    /// instant it returned at with both clock mirrors.
    type Played = (Vec<(u32, &'static str, u64)>, Vec<(SimTime, u64, u64)>);

    /// Plays the script `seed` stands for under one of the two loops.
    fn play(seed: u64, drive: Drive) -> Played {
        let ms = SimDuration::from_millis;
        let mut rng = DetRng::seed_from_u64(seed);
        // 1 µs to 120 ms one way (a topology has no zero-latency link).
        let rtt = SimDuration::from_micros(2 + 2 * rng.below(120_000));
        let (a, _) = toy_over(rtt, 0.05, seed);
        let echo = a.replica_ids()[0];
        // The second client sits with the first or with the echo node.
        let b = a.add_gateway(a.site_ids()[rng.below(2) as usize], ToyProto { echo });
        if rng.chance(0.5) {
            let deadline = ms(30 + rng.below(400));
            a.set_client_timeout(deadline);
            b.set_client_timeout(deadline);
            // Without the deadline a dropped message wedges the run.
            if rng.chance(0.5) {
                a.set_faults(Faults::none().with_drop_probability(0.2));
            }
        }
        let world = Arc::new(World {
            hosts: [a, b],
            log: Mutex::new(Vec::new()),
        });
        let mut returns = Vec::new();
        let mut settle = |host: &SimHost<ToyProto>| {
            (drive.settle)(host);
            let [a, b] = &world.hosts;
            let mirror = |h: &SimHost<ToyProto>| h.clock.load(Ordering::Relaxed);
            returns.push((host.now(), mirror(a), mirror(b)));
        };
        let mut next_id = 0;
        for _ in 0..1 + rng.below(4) {
            for act in acts(&mut rng, 0, &mut next_id) {
                perform(&world, &act);
            }
            // A client whose operations enter the network without its
            // settling has its upcalls run by the other client's settle.
            for host in &world.hosts {
                if rng.chance(0.4) {
                    (drive.step)(host, ms(rng.below(8)));
                }
            }
            for _ in 0..rng.below(3) {
                settle(&world.hosts[rng.below(2) as usize]);
            }
            world.hosts[0].advance(ms(rng.below(41)));
        }
        // Follow-ups hop between the clients at most three times.
        for _ in 0..3 {
            world.hosts.iter().for_each(&mut settle);
        }
        for host in &world.hosts {
            assert_eq!(tables(host), (0, 0), "script {seed} closed everything");
        }
        let log = std::mem::take(&mut *world.log.lock());
        (log, returns)
    }

    proptest::proptest! {
        /// 96 cases of three scripts each.
        #[test]
        fn event_driven_settle_is_the_sliced_loop_instant_for_instant(
            seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 3),
        ) {
            for seed in seeds {
                proptest::prop_assert_eq!(
                    play(seed, EVENT_DRIVEN),
                    play(seed, SLICED),
                    "script {}",
                    seed
                );
            }
        }
    }
}
