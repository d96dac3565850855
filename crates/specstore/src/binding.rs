//! The simulated deployment and its Correctables bindings.
//!
//! [`SimSpecStore`] places three [`SpecReplica`]s on the paper's EC2
//! sites (FRK/IRL/VRG) plus a client gateway, and round-robins
//! submissions across the replicas — each replica is one "process" in
//! update consistency's sense, so the explorer exercises genuinely
//! concurrent multi-origin histories.
//!
//! Three bindings expose the same deployment at different slices of the
//! lattice:
//!
//! - [`SpecBinding`] — the full `weak → update → causal → strong`
//!   refinement;
//! - [`UpdateBinding`] — the wait-free slice (`weak`, `update`): every
//!   view returns without waiting for any other replica;
//! - [`CausalSpec`] — the `causalstore`-shaped slice (`weak`, `causal`,
//!   `strong`) for any spec'd object.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::spec::SeqSpec;
use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use simnet::{Ctx, Engine, Faults, Node, NodeId, SimDuration, SiteId, Timer, Topology};

use crate::replica::{OpId, SpecMsg, SpecReplica, UpdateId, Wants};

/// The four-level lattice slice of the full binding.
fn full_levels() -> LevelSet {
    LevelSet::of(&[
        ConsistencyLevel::WEAK,
        ConsistencyLevel::UPDATE,
        ConsistencyLevel::CAUSAL,
        ConsistencyLevel::STRONG,
    ])
}

struct Queued<S: SeqSpec> {
    op: S::Op,
    wants: Wants,
    upcall: Upcall<S::Ret>,
}

type OpQueue<S> = Arc<Mutex<VecDeque<Queued<S>>>>;

const KICK: u64 = u64::MAX - 1;

struct GwPending<S: SeqSpec> {
    upcall: Upcall<S::Ret>,
}

struct Gateway<S: SeqSpec> {
    replicas: Vec<NodeId>,
    /// Round-robin cursor over the replicas — each submission originates
    /// at the next replica, modeling independent client processes.
    rr: usize,
    queue: OpQueue<S>,
    next_seq: u64,
    pending: BTreeMap<OpId, GwPending<S>>,
    client_timeout: Option<SimDuration>,
    timer_ops: BTreeMap<u64, OpId>,
    next_timer: u64,
    /// Mirror of the virtual time (ns) at which the gateway last ran.
    clock: Arc<AtomicU64>,
}

impl<S> Gateway<S>
where
    S: SeqSpec + Send + 'static,
    S::Op: Send,
    S::Ret: Send,
{
    fn drain(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>) {
        loop {
            let Some(q) = self.queue.lock().pop_front() else {
                return;
            };
            let op = OpId(self.next_seq);
            self.next_seq += 1;
            let target = self.replicas[self.rr % self.replicas.len()];
            self.rr += 1;
            ctx.send(
                target,
                SpecMsg::Submit {
                    op,
                    client_op: q.op,
                    wants: q.wants,
                },
            );
            self.pending.insert(op, GwPending { upcall: q.upcall });
            if let Some(d) = self.client_timeout {
                let token = self.next_timer;
                self.next_timer += 1;
                self.timer_ops.insert(token, op);
                ctx.set_timer(d, Timer(token));
            }
        }
    }
}

impl<S> Node<SpecMsg<S>> for Gateway<S>
where
    S: SeqSpec + Send + 'static,
    S::Op: Send,
    S::Ret: Send,
{
    fn on_message(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, _from: NodeId, msg: SpecMsg<S>) {
        self.clock.store(ctx.now().as_nanos(), Ordering::Relaxed);
        match msg {
            SpecMsg::Immediate { op, views, closing } => {
                if let Some(p) = self.pending.get(&op) {
                    for (level, ret) in views {
                        p.upcall.deliver(ret, level);
                    }
                    if closing {
                        self.pending.remove(&op);
                    }
                }
            }
            SpecMsg::Later {
                op,
                level,
                ret,
                closing,
            } => {
                if let Some(p) = self.pending.get(&op) {
                    p.upcall.deliver(ret, level);
                    if closing {
                        self.pending.remove(&op);
                    }
                }
            }
            _ => debug_assert!(false, "protocol messages are addressed to replicas"),
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SpecMsg<S>>, timer: Timer) {
        self.clock.store(ctx.now().as_nanos(), Ordering::Relaxed);
        if timer.0 == KICK {
            self.drain(ctx);
        } else if let Some(op) = self.timer_ops.remove(&timer.0) {
            // A view was lost to faults: fail the close. Views already
            // delivered stand (the paper's exceptional close).
            if let Some(p) = self.pending.remove(&op) {
                p.upcall.fail(Error::Timeout);
            }
            self.drain(ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct NState<S: SeqSpec> {
    engine: Engine<SpecMsg<S>>,
    gateway: NodeId,
    replicas: Vec<NodeId>,
}

/// A simulated spec store: three replicas plus a client gateway.
pub struct SimSpecStore<S: SeqSpec> {
    state: Arc<Mutex<NState<S>>>,
    queue: OpQueue<S>,
    spec: S,
    clock: Arc<AtomicU64>,
}

impl<S: SeqSpec + Clone> Clone for SimSpecStore<S> {
    fn clone(&self) -> Self {
        SimSpecStore {
            state: Arc::clone(&self.state),
            queue: Arc::clone(&self.queue),
            spec: self.spec.clone(),
            clock: Arc::clone(&self.clock),
        }
    }
}

impl<S> SimSpecStore<S>
where
    S: SeqSpec + Clone + Send + 'static,
    S::Op: Send,
    S::Ret: Send,
{
    /// Builds the deployment: one replica per paper site, gateway at
    /// `client_site`, all driven by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `client_site` is unknown.
    pub fn ec2(spec: S, client_site: &str, seed: u64) -> Self {
        Self::build(spec, client_site, seed, false)
    }

    /// The deliberately broken deployment: replicas apply updates in
    /// arrival order instead of the lamport total order, so their
    /// linearizations diverge — the fixture the update-consistency
    /// checker must catch.
    pub fn ec2_buggy(spec: S, client_site: &str, seed: u64) -> Self {
        Self::build(spec, client_site, seed, true)
    }

    fn build(spec: S, client_site: &str, seed: u64, buggy: bool) -> Self {
        let topo = Topology::ec2_frk_irl_vrg();
        let sites = ["FRK", "IRL", "VRG"];
        let client_site_id = topo.site_named(client_site).expect("known client site");
        let mut engine = Engine::new(topo, seed);
        let n = sites.len();
        let replicas: Vec<NodeId> = sites
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let site = engine.topology().site_named(s).expect("site");
                let mut r = SpecReplica::new(spec.clone(), i, n);
                r.set_arrival_order(buggy);
                engine.add_node(site, Box::new(r))
            })
            .collect();
        for id in &replicas {
            engine
                .node_as::<SpecReplica<S>>(*id)
                .set_peers(replicas.clone());
        }
        let queue: OpQueue<S> = Arc::new(Mutex::new(VecDeque::new()));
        let clock = Arc::new(AtomicU64::new(0));
        let gateway = engine.add_node(
            client_site_id,
            Box::new(Gateway::<S> {
                replicas: replicas.clone(),
                rr: 0,
                queue: Arc::clone(&queue),
                next_seq: 0,
                pending: BTreeMap::new(),
                client_timeout: None,
                timer_ops: BTreeMap::new(),
                next_timer: 0,
                clock: Arc::clone(&clock),
            }),
        );
        SimSpecStore {
            state: Arc::new(Mutex::new(NState {
                engine,
                gateway,
                replicas,
            })),
            queue,
            spec,
            clock,
        }
    }

    /// The full four-level binding.
    pub fn binding(&self) -> SpecBinding<S> {
        SpecBinding {
            store: self.clone(),
            levels: full_levels(),
        }
    }

    /// The wait-free slice: weak and update views only.
    pub fn update_binding(&self) -> UpdateBinding<S> {
        UpdateBinding(SpecBinding {
            store: self.clone(),
            levels: LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::UPDATE]),
        })
    }

    /// The `causalstore`-shaped slice: weak, causal, and strong views.
    pub fn causal_binding(&self) -> CausalSpec<S> {
        CausalSpec(SpecBinding {
            store: self.clone(),
            levels: LevelSet::of(&[
                ConsistencyLevel::WEAK,
                ConsistencyLevel::CAUSAL,
                ConsistencyLevel::STRONG,
            ]),
        })
    }

    /// A handle mirroring the current virtual time (nanoseconds), for
    /// stamping recorded histories (`History::with_clock`).
    pub fn clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.clock)
    }

    /// Installs a fault plan.
    pub fn set_faults(&self, faults: Faults) {
        self.state.lock().engine.set_faults(faults);
    }

    /// Sets a client-side deadline per operation (fails the close with
    /// `Error::Timeout`; already delivered views stand).
    pub fn set_client_timeout(&self, d: SimDuration) {
        let mut st = self.state.lock();
        let gw = st.gateway;
        st.engine.node_as::<Gateway<S>>(gw).client_timeout = Some(d);
    }

    /// The replica node ids (FRK/IRL/VRG order).
    pub fn replica_ids(&self) -> Vec<NodeId> {
        self.state.lock().replicas.clone()
    }

    /// All site ids of the deployment's topology.
    pub fn site_ids(&self) -> Vec<SiteId> {
        let st = self.state.lock();
        (0..st.engine.topology().len()).map(SiteId).collect()
    }

    /// Every replica's applied update log, in its current order — the
    /// input to the oracle's update-consistency checker.
    pub fn applied_logs(&self) -> Vec<Vec<UpdateId>> {
        let mut st = self.state.lock();
        let ids = st.replicas.clone();
        ids.into_iter()
            .map(|id| st.engine.node_as::<SpecReplica<S>>(id).applied_log())
            .collect()
    }

    /// Drives the simulation until every submitted operation resolves.
    ///
    /// Runs in bounded virtual-time slices: the replicas'
    /// anti-entropy timers keep the event queue busy while gossip is
    /// lost (e.g. under an active partition), so "no events left" is
    /// not a usable stop condition.
    ///
    /// # Panics
    ///
    /// Panics if operations cannot resolve within a very large horizon
    /// (faults active without a client timeout, or a protocol bug).
    pub fn settle(&self) {
        let mut st = self.state.lock();
        let slice = SimDuration::from_millis(5);
        for _ in 0..2_000_000 {
            let gw = st.gateway;
            st.engine.schedule_timer(gw, SimDuration::ZERO, Timer(KICK));
            let limit = st.engine.now() + slice;
            st.engine.run_until(limit);
            let pending_empty = st.engine.node_as::<Gateway<S>>(gw).pending.is_empty();
            if pending_empty && self.queue.lock().is_empty() {
                return;
            }
        }
        panic!(
            "spec-store operations cannot settle (lost replies without a \
             client timeout? see SimSpecStore::set_client_timeout)"
        );
    }

    /// Runs the simulation for `d` without submitting anything (lets
    /// gossip and anti-entropy progress).
    pub fn advance(&self, d: SimDuration) {
        let mut st = self.state.lock();
        let until = st.engine.now() + d;
        st.engine.run_until(until);
    }
}

/// The full four-level `Binding` over a [`SimSpecStore`].
pub struct SpecBinding<S: SeqSpec> {
    store: SimSpecStore<S>,
    levels: LevelSet,
}

impl<S: SeqSpec + Clone> Clone for SpecBinding<S> {
    fn clone(&self) -> Self {
        SpecBinding {
            store: self.store.clone(),
            levels: self.levels.clone(),
        }
    }
}

impl<S> Binding for SpecBinding<S>
where
    S: SeqSpec + Clone + Send + 'static,
    S::Op: Send + 'static,
    S::Ret: Send + 'static,
{
    type Op = S::Op;
    type Val = S::Ret;

    fn consistency_levels(&self) -> LevelSet {
        self.levels.clone()
    }

    fn submit(&self, op: S::Op, levels: &[ConsistencyLevel], upcall: Upcall<S::Ret>) {
        let wants = Wants {
            weak: levels.contains(&ConsistencyLevel::WEAK),
            update: levels.contains(&ConsistencyLevel::UPDATE),
            causal: levels.contains(&ConsistencyLevel::CAUSAL),
            strong: levels.contains(&ConsistencyLevel::STRONG),
        };
        self.store
            .queue
            .lock()
            .push_back(Queued { op, wants, upcall });
    }
}

/// The wait-free slice of a [`SimSpecStore`]: weak and update only.
pub struct UpdateBinding<S: SeqSpec>(SpecBinding<S>);

impl<S: SeqSpec + Clone> Clone for UpdateBinding<S> {
    fn clone(&self) -> Self {
        UpdateBinding(self.0.clone())
    }
}

impl<S> Binding for UpdateBinding<S>
where
    S: SeqSpec + Clone + Send + 'static,
    S::Op: Send + 'static,
    S::Ret: Send + 'static,
{
    type Op = S::Op;
    type Val = S::Ret;

    fn consistency_levels(&self) -> LevelSet {
        self.0.levels.clone()
    }

    fn submit(&self, op: S::Op, levels: &[ConsistencyLevel], upcall: Upcall<S::Ret>) {
        self.0.submit(op, levels, upcall);
    }
}

/// The causal slice of a [`SimSpecStore`] — `causalstore`'s shape
/// (weak/causal/strong) for any spec'd object.
pub struct CausalSpec<S: SeqSpec>(SpecBinding<S>);

impl<S: SeqSpec + Clone> Clone for CausalSpec<S> {
    fn clone(&self) -> Self {
        CausalSpec(self.0.clone())
    }
}

impl<S> Binding for CausalSpec<S>
where
    S: SeqSpec + Clone + Send + 'static,
    S::Op: Send + 'static,
    S::Ret: Send + 'static,
{
    type Op = S::Op;
    type Val = S::Ret;

    fn consistency_levels(&self) -> LevelSet {
        self.0.levels.clone()
    }

    fn submit(&self, op: S::Op, levels: &[ConsistencyLevel], upcall: Upcall<S::Ret>) {
        self.0.submit(op, levels, upcall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::spec::{CounterSpec, CtrOp, RegOp, RegisterSpec};
    use correctables::{Client, State};

    #[test]
    fn register_refines_through_all_four_levels() {
        let store = SimSpecStore::ec2(RegisterSpec::default(), "IRL", 7);
        let client = Client::new(store.binding());
        let w = client.invoke(RegOp::Write(1, 42));
        store.settle();
        assert_eq!(w.state(), State::Final);
        let c = client.invoke(RegOp::Read(1));
        store.settle();
        assert_eq!(c.state(), State::Final);
        let seen: Vec<ConsistencyLevel> = c
            .preliminary_views()
            .iter()
            .map(|v| v.level)
            .chain(c.final_view().map(|v| v.level))
            .collect();
        assert_eq!(
            seen,
            vec![
                ConsistencyLevel::WEAK,
                ConsistencyLevel::UPDATE,
                ConsistencyLevel::CAUSAL,
                ConsistencyLevel::STRONG
            ]
        );
        assert_eq!(c.final_view().unwrap().value, 42);
    }

    #[test]
    fn counter_refines_through_all_four_levels() {
        let store = SimSpecStore::ec2(CounterSpec, "FRK", 9);
        let client = Client::new(store.binding());
        for _ in 0..3 {
            client.invoke(CtrOp::Add(5, 10));
            store.settle();
        }
        let c = client.invoke(CtrOp::Get(5));
        store.settle();
        assert_eq!(c.preliminary_views().len(), 3);
        assert_eq!(c.final_view().unwrap().value, 30);
        assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::STRONG);
    }

    #[test]
    fn update_binding_is_wait_free_and_converges() {
        let store = SimSpecStore::ec2(CounterSpec, "IRL", 3);
        let client = Client::new(store.update_binding());
        // Wait-free: both views arrive without settling the simulation
        // past the submit round-trip.
        let c = client.invoke(CtrOp::Add(1, 5));
        store.settle();
        assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::UPDATE);
        // All replicas converge to one linearization.
        store.advance(SimDuration::from_secs(5));
        let logs = store.applied_logs();
        assert!(
            logs.windows(2).all(|w| w[0] == w[1]),
            "logs diverged: {logs:?}"
        );
    }

    #[test]
    fn causal_binding_serves_causalstore_shape() {
        let store = SimSpecStore::ec2(RegisterSpec::default(), "VRG", 5);
        let client = Client::new(store.causal_binding());
        assert_eq!(
            client.consistency_levels().to_vec(),
            vec![
                ConsistencyLevel::WEAK,
                ConsistencyLevel::CAUSAL,
                ConsistencyLevel::STRONG
            ]
        );
        let c = client.invoke(RegOp::Write(9, 1));
        store.settle();
        assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::STRONG);
    }

    #[test]
    fn concurrent_origins_converge_to_one_linearization() {
        let store = SimSpecStore::ec2(RegisterSpec::default(), "IRL", 21);
        let client = Client::new(store.binding());
        // Round-robin spreads these across all three origins; the writes
        // race, but the logs must still agree everywhere.
        let mut ops = Vec::new();
        for i in 0..9u64 {
            ops.push(client.invoke(RegOp::Write(1, 100 + i)));
        }
        store.settle();
        store.advance(SimDuration::from_secs(10));
        for c in &ops {
            assert_eq!(c.state(), State::Final);
        }
        let logs = store.applied_logs();
        assert_eq!(logs[0].len(), 9);
        assert!(
            logs.windows(2).all(|w| w[0] == w[1]),
            "logs diverged: {logs:?}"
        );
        // Quiescent read: all four levels agree on the winner.
        let r = client.invoke(RegOp::Read(1));
        store.settle();
        let fin = r.final_view().unwrap();
        for v in r.preliminary_views() {
            assert_eq!(v.value, fin.value, "level {} diverged", v.level);
        }
    }

    #[test]
    fn buggy_arrival_order_diverges() {
        let store = SimSpecStore::ec2_buggy(RegisterSpec::default(), "IRL", 21);
        let client = Client::new(store.update_binding());
        for i in 0..9u64 {
            client.invoke(RegOp::Write(1, 100 + i));
        }
        store.settle();
        store.advance(SimDuration::from_secs(10));
        let logs = store.applied_logs();
        assert!(
            logs.windows(2).any(|w| w[0] != w[1]),
            "arrival-order fixture unexpectedly produced identical logs: {logs:?}"
        );
    }
}
