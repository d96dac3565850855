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
//! - the **op queue** and the **kick**: [`SimHost::settle`] (and
//!   [`SimHost::step`]) schedule a zero-delay kick timer, the gateway
//!   drains the queue when it fires — and again after every reply, so
//!   an operation submitted from inside a callback (a speculative
//!   prefetch) enters the network at the very instant the callback ran;
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
//! A store supplies a [`GatewayProto`]: how a queued submission becomes
//! sends, how a reply becomes upcall deliveries, how a deadline fails
//! the upcall. Stores whose replicas all accept submissions and answer
//! with immediate/later view messages share one such protocol,
//! [`RoundRobin`].

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use correctables::{ConsistencyLevel, Error, Upcall};
use parking_lot::Mutex;

use crate::bandwidth::Wire;
use crate::engine::{Ctx, Engine, Node, NodeId, Timer};
use crate::faults::Faults;
use crate::time::{SimDuration, SimTime};
use crate::topology::SiteId;

/// Timer token of the queue-drain kick. Deadline and wake-up tokens are
/// op ids, which count up from zero and never get here.
const KICK: u64 = u64::MAX - 1;

/// Virtual time [`SimHost::settle`] runs between two checks for
/// completion. Bounded slices rather than "until idle": coordinator
/// timeouts armed seconds out must not drag the clock forward once all
/// work is done, and anti-entropy timers keep the event queue busy for
/// as long as gossip is being lost.
const SETTLE_SLICE: SimDuration = SimDuration::from_millis(5);

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

/// The store-specific client half of a simulated deployment.
pub trait GatewayProto: Send + 'static {
    /// The deployment's message type.
    type Msg: Wire + Send + 'static;
    /// One submission as the binding enqueues it (operation, levels,
    /// upcall).
    type Queued: Send + 'static;
    /// What the gateway keeps per operation until it closes (at least
    /// the upcall).
    type Pending: Send + 'static;

    /// Turns submission number `op` into sends. Returns the entry to
    /// keep while replies are outstanding, or `None` if the operation
    /// was answered on the spot.
    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        op: u64,
        queued: Self::Queued,
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
struct Inbox<Q> {
    ops: VecDeque<Q>,
    wakes: Vec<(SimDuration, Wake)>,
}

impl<Q> Inbox<Q> {
    fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.wakes.is_empty()
    }
}

type Queue<Q> = Arc<Mutex<Inbox<Q>>>;

/// The in-simulation client node (see the module docs).
pub struct SimGateway<P: GatewayProto> {
    proto: P,
    queue: Queue<P::Queued>,
    clock: Arc<AtomicU64>,
    next_op: u64,
    pending: PendingOps<P::Pending>,
    /// Armed wake-ups, by the op id minted for their timer token.
    wakes: PendingOps<Wake>,
    /// `None` (the default) waits forever; fault-injected runs set it
    /// so a lost reply fails the operation instead of wedging `settle`.
    client_timeout: Option<SimDuration>,
}

impl<P: GatewayProto> SimGateway<P> {
    fn drain(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        loop {
            let mut inbox = self.queue.lock();
            let Some(queued) = inbox.ops.pop_front() else {
                if !inbox.wakes.is_empty() {
                    let wakes = std::mem::take(&mut inbox.wakes);
                    drop(inbox);
                    for (delay, wake) in wakes {
                        let token = self.mint();
                        self.wakes.insert(token, wake);
                        ctx.set_timer(delay, Timer(token));
                    }
                }
                return;
            };
            // `start` may run callbacks, which may enqueue.
            drop(inbox);
            let op = self.mint();
            if let Some(entry) = self.proto.start(ctx, op, queued) {
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

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.wakes.is_empty() && self.queue.lock().is_empty()
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
    queue: Queue<P::Queued>,
    clock: Arc<AtomicU64>,
}

impl<P: GatewayProto> Clone for SimHost<P> {
    fn clone(&self) -> Self {
        SimHost {
            engine: Arc::clone(&self.engine),
            gateway: self.gateway,
            replicas: Arc::clone(&self.replicas),
            queue: Arc::clone(&self.queue),
            clock: Arc::clone(&self.clock),
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
        let queue: Queue<P::Queued> = Arc::new(Mutex::new(Inbox {
            ops: VecDeque::new(),
            wakes: Vec::new(),
        }));
        let clock = Arc::new(AtomicU64::new(0));
        let gateway = engine.lock().add_node(
            client_site,
            Box::new(SimGateway {
                proto,
                queue: Arc::clone(&queue),
                clock: Arc::clone(&clock),
                next_op: 0,
                pending: PendingOps::new(),
                wakes: PendingOps::new(),
                client_timeout: None,
            }),
        );
        SimHost {
            engine,
            gateway,
            replicas,
            queue,
            clock,
        }
    }

    /// Queues one submission for the gateway's next drain (what a
    /// binding's `submit` does).
    pub fn enqueue(&self, queued: P::Queued) {
        self.queue.lock().ops.push_back(queued);
    }

    /// Runs `f` on this client's gateway `delay` of virtual time from
    /// now — client think time. Callable from inside a callback, so like
    /// [`SimHost::enqueue`] it only leaves `f` for the gateway's next
    /// drain to arm (from a callback that is this very instant); when
    /// it fires, the clock mirror shows the wake-up's instant and what
    /// `f` submits is drained there. [`SimHost::settle`] counts a
    /// pending wake-up as outstanding work.
    pub fn after(&self, delay: SimDuration, f: impl FnOnce() + Send + 'static) {
        self.queue.lock().wakes.push((delay, Box::new(f)));
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.lock().now()
    }

    /// Drives the simulation until every submitted operation (including
    /// operations issued from inside callbacks) has closed — by a final
    /// view or, when faults lost it, by the client deadline — and every
    /// wake-up has fired.
    ///
    /// # Panics
    ///
    /// Panics if operations cannot close within a very large horizon:
    /// replies lost to faults without a client timeout, or a protocol
    /// bug.
    pub fn settle(&self) {
        let mut engine = self.engine.lock();
        for _ in 0..2_000_000 {
            engine.schedule_timer(self.gateway, SimDuration::ZERO, Timer(KICK));
            engine.run_for(SETTLE_SLICE);
            if engine.node_as::<SimGateway<P>>(self.gateway).idle() {
                return;
            }
        }
        panic!(
            "operations cannot settle (lost replies without a client timeout? \
             see SimHost::set_client_timeout)"
        );
    }

    /// Runs the simulation for `d` without kicking the gateway (client
    /// think time; lets replication and anti-entropy progress).
    pub fn advance(&self, d: SimDuration) {
        self.engine.lock().run_for(d);
    }

    /// Kicks the gateway once, then runs the simulation for `d`: one
    /// slice of [`SimHost::settle`], for callers that measure how much
    /// virtual time passes before an individual operation closes, or
    /// whose deployment never goes idle.
    pub fn step(&self, d: SimDuration) {
        let mut engine = self.engine.lock();
        engine.schedule_timer(self.gateway, SimDuration::ZERO, Timer(KICK));
        engine.run_for(d);
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

    /// Direct access to the gateway's protocol state.
    pub fn with_proto<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        self.with_gateway(|gw| f(&mut gw.proto))
    }

    fn with_gateway<R>(&self, f: impl FnOnce(&mut SimGateway<P>) -> R) -> R {
        f(self.engine.lock().node_as::<SimGateway<P>>(self.gateway))
    }
}

// ---------------------------------------------------------------------
// The round-robin submit / immediate / later protocol
// ---------------------------------------------------------------------

/// One replica → gateway view message, decoded.
pub struct Reply<V> {
    /// The op id the gateway minted for the submission.
    pub op: u64,
    /// `(level, value)` in delivery order.
    pub views: Vec<(ConsistencyLevel, V)>,
    /// Whether the strongest requested level is among `views`.
    pub closing: bool,
}

/// What a message enum offers the shared [`RoundRobin`] gateway: a
/// submit message it can build and view messages it can take apart.
pub trait SubmitWire: Wire + Send + Sized + 'static {
    /// The client operation.
    type Op: Send + 'static;
    /// Which levels a submission wants served.
    type Wants: Send + 'static;
    /// The view value.
    type Val: Clone + Send + 'static;

    /// Gateway → replica: accept `client_op` as submission `op`.
    fn submit(op: u64, client_op: Self::Op, wants: Self::Wants) -> Self;

    /// Replica → gateway: the views this message carries; `None` for
    /// replica-to-replica traffic.
    fn into_reply(self) -> Option<Reply<Self::Val>>;
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
    type Queued = (M::Op, M::Wants, Upcall<M::Val>);
    type Pending = Upcall<M::Val>;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        op: u64,
        (client_op, wants, upcall): Self::Queued,
    ) -> Option<Upcall<M::Val>> {
        let idx = self.pinned.unwrap_or_else(|| {
            let next = self.rr % self.replicas.len();
            self.rr += 1;
            next
        });
        ctx.send(self.replicas[idx], M::submit(op, client_op, wants));
        Some(upcall)
    }

    fn on_reply(
        &mut self,
        _ctx: &mut Ctx<'_, M>,
        pending: &mut PendingOps<Upcall<M::Val>>,
        msg: M,
    ) {
        let Some(reply) = msg.into_reply() else {
            debug_assert!(false, "protocol messages are addressed to replicas");
            return;
        };
        if let Some(upcall) = pending.get(reply.op) {
            for (level, val) in reply.views {
                upcall.deliver(val, level);
            }
            if reply.closing {
                pending.remove(reply.op);
            }
        }
    }

    fn expire(&mut self, upcall: Upcall<M::Val>) {
        upcall.fail(Error::Timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use correctables::{Binding, Client, LevelSet, State};

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
        type Queued = Upcall<u64>;
        type Pending = Upcall<u64>;

        fn start(
            &mut self,
            ctx: &mut Ctx<'_, Toy>,
            op: u64,
            up: Upcall<u64>,
        ) -> Option<Upcall<u64>> {
            ctx.send(self.echo, Toy::Ping(op));
            Some(up)
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

    #[derive(Clone)]
    struct ToyBinding(SimHost<ToyProto>);

    impl Binding for ToyBinding {
        type Op = ();
        type Val = u64;

        fn consistency_levels(&self) -> LevelSet {
            LevelSet::of(&[ConsistencyLevel::WEAK])
        }

        fn submit(&self, _op: (), _levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
            self.0.enqueue(upcall);
        }
    }

    /// Gateway and echo node 10 ms apart (one way), no jitter.
    fn toy() -> (SimHost<ToyProto>, Client<ToyBinding>) {
        let mut topo = Topology::new(0.0, 0.0);
        let a = topo.add_site("A", SimDuration::from_millis(2));
        let b = topo.add_site("B", SimDuration::from_millis(2));
        topo.set_rtt(a, b, SimDuration::from_millis(20));
        let mut engine = Engine::new(topo, 1);
        let echo = engine.add_node(b, Box::new(Echo));
        let host = SimHost::new(engine, vec![echo], a, ToyProto { echo });
        let client = Client::new(ToyBinding(host.clone()));
        (host, client)
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

    #[test]
    fn submission_from_an_upcall_is_drained_at_the_same_instant() {
        let (host, client) = toy();
        let clock = host.clock();
        let nested_at = Arc::new(AtomicU64::new(0));
        let inner = Arc::new(Mutex::new(None));
        let outer = client.invoke_weak(());
        {
            let binding = ToyBinding(host.clone());
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

    #[test]
    #[should_panic(expected = "lost replies without a client timeout")]
    fn lost_reply_without_a_deadline_panics_instead_of_spinning() {
        let (host, client) = toy();
        lose_everything_from_echo(&host);
        let _lost = client.invoke_weak(());
        host.settle();
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
        let y = Client::new(ToyBinding(b.clone())).invoke_weak(());
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
        let client_b = Client::new(ToyBinding(b.clone()));
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
            let (to_a, to_b) = (ToyBinding(a.clone()), ToyBinding(b.clone()));
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
}
