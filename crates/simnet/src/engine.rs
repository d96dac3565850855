//! The discrete-event engine: nodes, messages, timers, and the event loop.
//!
//! A simulation is a set of [`Node`]s placed at [`SiteId`]s of a
//! [`Topology`]. Nodes communicate exclusively through messages; the engine
//! delivers each message after a sampled WAN latency, then charges the
//! receiving host a service cost ([`Node::service_cost`]) on a single-server
//! FIFO queue. The queue is what gives hosts finite capacity: as offered
//! load approaches the service rate, queueing delay grows and throughput
//! saturates — exactly the latency/throughput behaviour of Figure 6 in the
//! paper.
//!
//! Everything is deterministic: one seeded [`DetRng`] drives latency jitter
//! and fault draws, and ties between simultaneous events break by insertion
//! sequence number.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bandwidth::{BandwidthMeter, Wire};
use crate::faults::Faults;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{SiteId, Topology};

/// Identifier of a node within an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl NodeId {
    /// All of `nodes` but the `i`-th: the peers of replica `i`.
    pub fn peers_of(nodes: &[NodeId], i: usize) -> Vec<NodeId> {
        let mut peers = nodes.to_vec();
        peers.remove(i);
        peers
    }
}

/// An opaque timer token; nodes choose the values and interpret them in
/// [`Node::on_timer`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Timer(pub u64);

/// Behaviour of a simulated host.
///
/// Handlers receive a [`Ctx`] for reading the clock, sending messages, and
/// arming timers. Handlers run to completion; there is no preemption.
/// Nodes must be `Send` so whole engines can be moved across threads or
/// shared behind a mutex by higher-level bindings.
pub trait Node<M>: Send + 'static {
    /// Called when a message addressed to this node has been delivered and
    /// has cleared the host's service queue.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
        let _ = (ctx, timer);
    }

    /// Host CPU time consumed to process `msg`; this models finite host
    /// capacity. The default of zero gives an infinitely fast host.
    fn service_cost(&self, msg: &M) -> SimDuration {
        let _ = msg;
        SimDuration::ZERO
    }

    /// Downcasting access for inspecting node state after a run.
    fn as_any(&mut self) -> &mut dyn Any;
}

#[cfg_attr(test, derive(Debug, PartialEq))]
enum Kind<M> {
    /// Message reached the destination NIC; next it queues for service.
    Arrive { from: NodeId, to: NodeId, msg: M },
    /// Message cleared the service queue; invoke the handler.
    Exec { from: NodeId, to: NodeId, msg: M },
    /// A timer fires.
    Fire { node: NodeId, timer: Timer },
}

/// A scheduled event's heap entry: 32 bytes whatever `M` is. The key packs
/// `(time, insertion sequence)` into one `u128` — `time` in the high 64
/// bits, the tie-breaking sequence number in the low 64 — so a sift
/// comparison is a single integer compare; the event itself waits in
/// `Core::slots[slot]`, so a sift moves the entry and never the message.
struct Ev {
    key: u128,
    slot: u32,
}

fn ev_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

fn key_at(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.key.cmp(&self.key)
    }
}

/// The slot a pending event takes when none is free: the next index of a
/// table holding `len` slots. Panics rather than wrap the entry's `u32`.
fn fresh_slot(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(slot) if slot < u32::MAX => slot,
        _ => panic!("more than u32::MAX simulation events pending"),
    }
}

struct NodeMeta {
    site: SiteId,
    /// Completion time of the last piece of work on this host's CPU.
    busy_until: SimTime,
}

/// Engine internals shared with handlers through [`Ctx`].
struct Core<M> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Ev>,
    /// Pending events by slot; `None` where `free` lists the slot.
    slots: Vec<Option<Kind<M>>>,
    free: Vec<u32>,
    meta: Vec<NodeMeta>,
    topology: Topology,
    rng: DetRng,
    bandwidth: BandwidthMeter,
    faults: Faults,
    /// Cached `faults.is_fault_free()`, so the per-message send path skips
    /// the fault plan entirely on the (common) fault-free runs.
    fault_free: bool,
    dropped_messages: u64,
}

impl<M> Core<M> {
    /// Queues `kind` at `at`, after everything already queued for `at`.
    ///
    /// Inlined into its five callers, which build `kind` in place: left
    /// out of line, each event was built on the caller's stack and copied
    /// into its slot, +15–34 % per event on a ping-pong (EXPERIMENTS.md,
    /// "Event heap entries").
    #[inline(always)]
    fn push(&mut self, at: SimTime, kind: Kind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = fresh_slot(self.slots.len());
                self.slots.push(Some(kind));
                slot
            }
        };
        self.heap.push(Ev {
            key: ev_key(at, seq),
            slot,
        });
    }

    /// Takes the earliest event off the queue.
    fn pop(&mut self) -> Option<(SimTime, Kind<M>)> {
        let ev = self.heap.pop()?;
        let kind = self.slots[ev.slot as usize]
            .take()
            .expect("a queued entry's slot holds its event");
        self.free.push(ev.slot);
        Some((key_at(ev.key), kind))
    }

    /// When the earliest queued event is due.
    fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| key_at(ev.key))
    }
}

impl<M: Wire> Core<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let from_site = self.meta[from.0].site;
        let to_site = self.meta[to.0].site;
        if !self.fault_free
            && self
                .faults
                .drops(from, from_site, to, to_site, self.now, &mut self.rng)
        {
            self.dropped_messages += 1;
            return;
        }
        self.bandwidth
            .record(from, to, msg.category(), msg.wire_size());
        let latency = self
            .topology
            .sample_one_way(from_site, to_site, &mut self.rng);
        self.push(self.now + latency, Kind::Arrive { from, to, msg });
    }
}

/// Handler-side view of the engine.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    id: NodeId,
}

impl<'a, M: Wire> Ctx<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `msg` to `to`; it arrives after a sampled one-way latency
    /// unless the fault plan drops it.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.send(self.id, to, msg);
    }

    /// Arms a timer that fires on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: Timer) {
        let at = self.core.now + delay;
        self.core.push(
            at,
            Kind::Fire {
                node: self.id,
                timer,
            },
        );
    }

    /// Deterministic randomness for protocol decisions.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.core.rng
    }
}

/// A deterministic discrete-event simulation.
pub struct Engine<M> {
    core: Core<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    /// [`Engine::node_as`] calls so far.
    #[cfg(test)]
    pub(crate) downcasts: u64,
}

impl<M: Wire + 'static> Engine<M> {
    /// Creates an engine over `topology`, seeded with `seed`.
    ///
    /// The event heap, its slot table and the free list are pre-sized for
    /// 1024 pending events (`sim_ads_speculation` peaks near 300), so a run
    /// reaches its working set without reallocating and copying them in
    /// the hot loop.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Engine {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::with_capacity(1024),
                slots: Vec::with_capacity(1024),
                free: Vec::with_capacity(1024),
                meta: Vec::with_capacity(16),
                topology,
                rng: DetRng::seed_from_u64(seed),
                bandwidth: BandwidthMeter::new(),
                faults: Faults::none(),
                fault_free: true,
                dropped_messages: 0,
            },
            nodes: Vec::with_capacity(16),
            #[cfg(test)]
            downcasts: 0,
        }
    }

    /// The paper's deployment: an engine over
    /// [`Topology::ec2_frk_irl_vrg`] with one replica per site, in site
    /// (FRK/IRL/VRG) order — `replica(i)` builds the one at `SiteId(i)`.
    /// Returns the engine and the replicas' node ids, which are the
    /// first ones it hands out.
    pub fn ec2(
        seed: u64,
        mut replica: impl FnMut(usize) -> Box<dyn Node<M>>,
    ) -> (Self, Vec<NodeId>) {
        let mut engine = Engine::new(Topology::ec2_frk_irl_vrg(), seed);
        let replicas = (0..engine.topology().len())
            .map(|i| engine.add_node(SiteId(i), replica(i)))
            .collect();
        (engine, replicas)
    }

    /// Installs a fault plan.
    pub fn set_faults(&mut self, faults: Faults) {
        self.core.fault_free = faults.is_fault_free();
        self.core.faults = faults;
    }

    /// Adds a node at `site` and returns its id.
    pub fn add_node(&mut self, site: SiteId, node: Box<dyn Node<M>>) -> NodeId {
        assert!(site.0 < self.core.topology.len(), "unknown site {site:?}");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.core.meta.push(NodeMeta {
            site,
            busy_until: SimTime::ZERO,
        });
        id
    }

    /// Schedules a message from outside the simulation (e.g. a harness
    /// kicking off a client); it is delivered after `delay` with no
    /// network latency added.
    pub fn schedule_message(&mut self, from: NodeId, to: NodeId, delay: SimDuration, msg: M) {
        let at = self.core.now + delay;
        self.core.push(at, Kind::Arrive { from, to, msg });
    }

    /// Schedules a timer on `node` after `delay`.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, timer: Timer) {
        let at = self.core.now + delay;
        self.core.push(at, Kind::Fire { node, timer });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Read access to bandwidth accounting.
    pub fn bandwidth(&self) -> &BandwidthMeter {
        &self.core.bandwidth
    }

    /// Mutable access to bandwidth accounting (e.g. to reset after warm-up).
    pub fn bandwidth_mut(&mut self) -> &mut BandwidthMeter {
        &mut self.core.bandwidth
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// The site of a node.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.core.meta[node.0].site
    }

    /// Number of messages lost to fault injection so far.
    pub fn dropped_messages(&self) -> u64 {
        self.core.dropped_messages
    }

    /// Mutable access to a node, for post-run inspection via
    /// [`Node::as_any`].
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly for a node currently executing.
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node<M> {
        self.nodes[id.0]
            .as_deref_mut()
            .expect("node is currently executing")
    }

    /// Downcasts a node to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn node_as<T: 'static>(&mut self, id: NodeId) -> &mut T {
        #[cfg(test)]
        {
            self.downcasts += 1;
        }
        self.node_mut(id)
            .as_any()
            .downcast_mut::<T>()
            .expect("node has unexpected concrete type")
    }

    /// Runs until the event queue is empty or virtual time would exceed
    /// `limit`. Returns the number of events processed.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        let mut processed = 0;
        while self.core.peek_at().is_some_and(|at| at <= limit) {
            let (at, kind) = self.core.pop().expect("peeked event exists");
            self.dispatch(at, kind);
            processed += 1;
        }
        self.core.now = self.core.now.max(limit);
        processed
    }

    /// Runs the events due by `limit` for as long as `more()` holds,
    /// asking before each one. Unlike [`Engine::run_until`] it leaves the
    /// clock at the last event it ran: the caller reads off [`Engine::now`]
    /// the instant of the event that turned `more` false.
    pub fn run_while(&mut self, limit: SimTime, mut more: impl FnMut() -> bool) {
        while more() && self.core.peek_at().is_some_and(|at| at <= limit) {
            let (at, kind) = self.core.pop().expect("peeked event exists");
            self.dispatch(at, kind);
        }
    }

    /// When the earliest scheduled event is due; `None` with nothing
    /// scheduled.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.core.peek_at()
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let limit = self.core.now + d;
        self.run_until(limit)
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics after processing `max_events` events, which indicates a
    /// livelock (e.g. two nodes ping-ponging forever).
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while let Some((at, kind)) = self.core.pop() {
            self.dispatch(at, kind);
            processed += 1;
            assert!(
                processed <= max_events,
                "simulation exceeded {max_events} events; livelock?"
            );
        }
        processed
    }

    /// Runs `to`'s message handler for `msg` (the `Exec` phase).
    fn exec(&mut self, from: NodeId, to: NodeId, msg: M) {
        let mut node = self.nodes[to.0].take().expect("re-entrant node execution");
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                id: to,
            };
            node.on_message(&mut ctx, from, msg);
        }
        self.nodes[to.0] = Some(node);
    }

    /// Runs the event popped for `at`, with the clock moved to `at`.
    fn dispatch(&mut self, at: SimTime, kind: Kind<M>) {
        self.core.now = at;
        match kind {
            Kind::Arrive { from, to, msg } => {
                // A message for a down node is silently lost at the NIC.
                if !self.core.fault_free && self.core.faults.node_down(to, at) {
                    self.core.dropped_messages += 1;
                    return;
                }
                let cost = self.nodes[to.0]
                    .as_deref()
                    .map(|n| n.service_cost(&msg))
                    .unwrap_or(SimDuration::ZERO);
                let start = at.max(self.core.meta[to.0].busy_until);
                let done = start + cost;
                self.core.meta[to.0].busy_until = done;
                // Fast path: the host is idle and the message costs nothing
                // to service, so execution is due *now*. If no other event
                // shares this instant, the `Exec` event would be popped
                // next anyway (it would receive a larger tie-break sequence
                // than everything already queued), so the heap round trip
                // is pure overhead — run the handler inline instead. When
                // another event ties on the timestamp, fall back to the
                // queue to keep the execution order bit-identical to the
                // two-phase schedule.
                if done == at && self.core.peek_at().is_none_or(|next| next > at) {
                    self.exec(from, to, msg);
                } else {
                    self.core.push(done, Kind::Exec { from, to, msg });
                }
            }
            Kind::Exec { from, to, msg } => {
                self.exec(from, to, msg);
            }
            Kind::Fire { node: id, timer } => {
                if !self.core.fault_free && self.core.faults.node_down(id, at) {
                    return;
                }
                let mut node = self.nodes[id.0].take().expect("re-entrant node execution");
                {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        id,
                    };
                    node.on_timer(&mut ctx, timer);
                }
                self.nodes[id.0] = Some(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial message carrying a counter.
    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    impl Wire for Ping {
        fn wire_size(&self) -> usize {
            64
        }
        fn category(&self) -> &'static str {
            "ping"
        }
    }

    /// Echoes pings back `bounces` times, recording arrival times.
    struct Echo {
        peer: Option<NodeId>,
        bounces: u32,
        arrivals: Vec<SimTime>,
        service: SimDuration,
    }

    impl Echo {
        fn new(service: SimDuration) -> Self {
            Echo {
                peer: None,
                bounces: 0,
                arrivals: Vec::new(),
                service,
            }
        }
    }

    impl Node<Ping> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
            self.arrivals.push(ctx.now());
            self.peer = Some(from);
            if msg.0 < self.bounces {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }

        fn service_cost(&self, _msg: &Ping) -> SimDuration {
            self.service
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_engine(service: SimDuration) -> (Engine<Ping>, NodeId, NodeId) {
        let mut topo = Topology::new(0.0, 0.0);
        let a = topo.add_site("A", SimDuration::from_millis(2));
        let b = topo.add_site("B", SimDuration::from_millis(2));
        topo.set_rtt(a, b, SimDuration::from_millis(20));
        let mut eng = Engine::new(topo, 1);
        let na = eng.add_node(a, Box::new(Echo::new(service)));
        let nb = eng.add_node(b, Box::new(Echo::new(service)));
        (eng, na, nb)
    }

    #[test]
    fn message_arrives_after_one_way_latency() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        eng.schedule_message(na, na, SimDuration::ZERO, Ping(0));
        // Node A sends nothing by itself; drive A -> B manually.
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        eng.run_until_idle(100);
        let b = eng.node_as::<Echo>(nb);
        // External scheduling has no latency; the arrival is at t=0.
        assert_eq!(b.arrivals, vec![SimTime::ZERO]);
    }

    #[test]
    fn ping_pong_round_trip_takes_rtt() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        // B replies once: set bounces on A's message count.
        eng.node_as::<Echo>(nb).bounces = 1;
        // Inject a ping at B as if sent by A externally at t=0; B replies.
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        eng.run_until_idle(100);
        let a = eng.node_as::<Echo>(na);
        assert_eq!(a.arrivals.len(), 1);
        // One way back from B is RTT/2 = 10ms with zero jitter.
        assert_eq!(a.arrivals[0], SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn service_queue_serializes_arrivals() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::from_millis(5));
        // Three messages arrive simultaneously; with 5ms service each they
        // must execute at 5, 10, 15ms.
        for _ in 0..3 {
            eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        }
        eng.run_until_idle(100);
        let b = eng.node_as::<Echo>(nb);
        let expected: Vec<SimTime> = [5u64, 10, 15]
            .iter()
            .map(|&ms| SimTime::ZERO + SimDuration::from_millis(ms))
            .collect();
        assert_eq!(b.arrivals, expected);
    }

    #[test]
    fn run_until_respects_limit_and_resumes() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        eng.node_as::<Echo>(nb).bounces = 10;
        eng.node_as::<Echo>(na).bounces = 10;
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        let before = eng.run_until(SimTime::ZERO + SimDuration::from_millis(25));
        assert!(before >= 1);
        assert_eq!(eng.now(), SimTime::ZERO + SimDuration::from_millis(25));
        let after = eng.run_until_idle(1000);
        assert!(after > 0, "events must continue after the limit");
    }

    #[test]
    fn bandwidth_is_accounted_per_category() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        eng.node_as::<Echo>(nb).bounces = 3;
        eng.node_as::<Echo>(na).bounces = 3;
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        eng.run_until_idle(100);
        // Externally scheduled messages are not metered; the three bounced
        // replies are 64 bytes each.
        let t = eng.bandwidth().category("ping");
        assert_eq!(t.msgs, 3);
        assert_eq!(t.bytes, 3 * 64);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node<Ping> for Timed {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping>, _from: NodeId, _msg: Ping) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, timer: Timer) {
                self.fired.push((timer.0, ctx.now()));
                if timer.0 == 1 {
                    ctx.set_timer(SimDuration::from_millis(5), Timer(99));
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let topo = Topology::single_site();
        let mut eng = Engine::new(topo, 7);
        let n = eng.add_node(SiteId(0), Box::new(Timed { fired: vec![] }));
        eng.schedule_timer(n, SimDuration::from_millis(10), Timer(2));
        eng.schedule_timer(n, SimDuration::from_millis(1), Timer(1));
        eng.run_until_idle(10);
        let node = eng.node_as::<Timed>(n);
        let order: Vec<u64> = node.fired.iter().map(|f| f.0).collect();
        assert_eq!(order, vec![1, 99, 2]);
        assert_eq!(node.fired[1].1, SimTime::ZERO + SimDuration::from_millis(6));
    }

    #[test]
    fn down_node_loses_messages() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        let plan = Faults::none().with_downtime(
            nb,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(100),
        );
        eng.set_faults(plan);
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        eng.run_until_idle(10);
        assert_eq!(eng.node_as::<Echo>(nb).arrivals.len(), 0);
        assert_eq!(eng.dropped_messages(), 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed: u64| -> Vec<SimTime> {
            let mut topo = Topology::new(0.05, 0.05);
            let a = topo.add_site("A", SimDuration::from_millis(2));
            let b = topo.add_site("B", SimDuration::from_millis(2));
            topo.set_rtt(a, b, SimDuration::from_millis(20));
            let mut eng = Engine::new(topo, seed);
            let na = eng.add_node(a, Box::new(Echo::new(SimDuration::ZERO)));
            let nb = eng.add_node(b, Box::new(Echo::new(SimDuration::ZERO)));
            eng.node_as::<Echo>(na).bounces = 20;
            eng.node_as::<Echo>(nb).bounces = 20;
            eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
            eng.run_until_idle(1000);
            eng.node_as::<Echo>(nb).arrivals.clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_guard_trips() {
        let (mut eng, na, nb) = two_node_engine(SimDuration::ZERO);
        eng.node_as::<Echo>(na).bounces = u32::MAX;
        eng.node_as::<Echo>(nb).bounces = u32::MAX;
        eng.schedule_message(na, nb, SimDuration::ZERO, Ping(0));
        eng.run_until_idle(50);
    }

    /// The queue before PR 25, kept as the reference: every entry carries
    /// its whole event, so the heap sifts messages.
    struct InlineEv<M> {
        key: u128,
        kind: Kind<M>,
    }

    impl<M> PartialEq for InlineEv<M> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<M> Eq for InlineEv<M> {}
    impl<M> PartialOrd for InlineEv<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for InlineEv<M> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }

    struct InlineQueue<M> {
        seq: u64,
        heap: BinaryHeap<InlineEv<M>>,
    }

    impl<M> InlineQueue<M> {
        fn push(&mut self, at: SimTime, kind: Kind<M>) {
            let key = ev_key(at, self.seq);
            self.seq += 1;
            self.heap.push(InlineEv { key, kind });
        }

        fn pop(&mut self) -> Option<(SimTime, Kind<M>)> {
            self.heap.pop().map(|ev| (key_at(ev.key), ev.kind))
        }
    }

    type PopLog = Vec<(SimTime, Kind<Ping>)>;

    /// One random interleaving of pushes and pops, run through the slot
    /// queue and the inline reference: one to four bursts, each filling
    /// the queue toward 0–500 pending events and then emptying it. Every
    /// pushed event carries its push index, which is its sequence number,
    /// so equal pop logs mean equal `(time, seq, kind)` sequences. Returns
    /// both logs, the most events ever pending and the slot table's length.
    fn interleave(seed: u64) -> (PopLog, PopLog, usize, usize) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut core = Engine::<Ping>::new(Topology::single_site(), 0).core;
        let mut reference = InlineQueue {
            seq: 0,
            heap: BinaryHeap::new(),
        };
        let (mut log, mut reference_log) = (Vec::new(), Vec::new());
        let (mut now, mut pushed, mut peak) = (SimTime::ZERO, 0u32, 0);
        for _ in 0..rng.range(1, 5) {
            let target = rng.below(501) as usize;
            for filling in [true, false] {
                let push_chance = if filling { 0.75 } else { 0.2 };
                let more = |pending: usize| {
                    if filling {
                        pending < target
                    } else {
                        pending > 0
                    }
                };
                while more(core.heap.len()) {
                    if rng.chance(push_chance) {
                        // Times from now on; a third at `now` itself and a
                        // third on a 1 ms grid, so instants are shared.
                        let at = now
                            + match rng.below(3) {
                                0 => SimDuration::ZERO,
                                1 => SimDuration::from_millis(rng.below(5)),
                                _ => SimDuration::from_nanos(rng.below(50_000_000)),
                            };
                        let (from, to) =
                            (NodeId(rng.below(3) as usize), NodeId(rng.below(3) as usize));
                        let variant = rng.below(3);
                        let kind = || match variant {
                            0 => Kind::Arrive {
                                from,
                                to,
                                msg: Ping(pushed),
                            },
                            1 => Kind::Exec {
                                from,
                                to,
                                msg: Ping(pushed),
                            },
                            _ => Kind::Fire {
                                node: from,
                                timer: Timer(u64::from(pushed)),
                            },
                        };
                        core.push(at, kind());
                        reference.push(at, kind());
                        pushed += 1;
                        peak = peak.max(core.heap.len());
                    } else if let Some(ev) = core.pop() {
                        now = ev.0;
                        log.push(ev);
                        reference_log.extend(reference.pop());
                    }
                }
            }
        }
        assert_eq!(core.peek_at(), None);
        (log, reference_log, peak, core.slots.len())
    }

    proptest::proptest! {
        /// 96 cases of three interleavings each.
        #[test]
        fn slot_queue_pops_what_the_inline_heap_pops(
            seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 3),
        ) {
            for seed in seeds {
                let (log, reference_log, peak, slots) = interleave(seed);
                let differs = log.iter().zip(&reference_log).position(|(a, b)| a != b);
                proptest::prop_assert!(
                    log == reference_log,
                    "interleaving {}: pop {:?} of {} differs",
                    seed,
                    differs,
                    log.len()
                );
                proptest::prop_assert_eq!(slots, peak, "interleaving {}", seed);
            }
        }
    }

    #[test]
    fn interleavings_reach_five_hundred_pending_and_share_instants() {
        let (mut peaks, mut ties) = (0, 0);
        for seed in 0..32 {
            let (log, _, peak, _) = interleave(seed);
            peaks = peaks.max(peak);
            ties += log.windows(2).filter(|w| w[0].0 == w[1].0).count();
        }
        assert!(peaks >= 450, "largest queue {peaks}");
        assert!(ties > 1_000, "{ties} same-instant pops");
    }

    #[test]
    fn slot_table_is_as_long_as_the_most_events_ever_pending() {
        let mut core = Engine::<Ping>::new(Topology::single_site(), 0).core;
        let mut rng = DetRng::seed_from_u64(25);
        for i in 0..1_000_000u32 {
            if core.heap.len() == 16 || rng.chance(0.3) {
                core.pop();
            }
            let at = core.now + SimDuration::from_micros(rng.below(100));
            core.push(
                at,
                Kind::Fire {
                    node: NodeId(0),
                    timer: Timer(u64::from(i)),
                },
            );
        }
        while core.pop().is_some() {}
        assert_eq!(core.slots.len(), 16);
        assert_eq!(core.free.len(), 16);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX simulation events pending")]
    fn a_slot_index_past_u32_panics_instead_of_wrapping() {
        assert_eq!(fresh_slot(u32::MAX as usize - 1), u32::MAX - 1);
        fresh_slot(u32::MAX as usize);
    }
}
