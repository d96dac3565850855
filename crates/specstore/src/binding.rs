//! The simulated deployment and its Correctables bindings.
//!
//! [`SimSpecStore`] places three replicas — [`SpecHost`] nodes, each
//! running a [`SpecCore`] — on the paper's EC2 sites (FRK/IRL/VRG) plus
//! a client gateway, and round-robins submissions across the replicas —
//! each replica is one "process" in update consistency's sense, so the
//! explorer exercises genuinely concurrent multi-origin histories.
//!
//! The client half is the one every round-robin store shares
//! (`simnet::RoundRobin` and its binding); a [`SpecBinding`] is that
//! binding over this deployment, at one of three slices of the lattice:
//!
//! - [`SimSpecStore::binding`] — the full `weak → update → causal →
//!   strong` refinement;
//! - [`SimSpecStore::update_binding`] ([`UpdateBinding`]) — the
//!   wait-free slice (`weak`, `update`): every view returns without
//!   waiting for any other replica;
//! - [`SimSpecStore::causal_binding`] ([`CausalSpec`]) — the
//!   `causalstore`-shaped slice (`weak`, `causal`, `strong`) for any
//!   spec'd object.

use std::ops::Deref;

use correctables::spec::SeqSpec;
use correctables::ConsistencyLevel;
use simnet::{CoreHost, Engine, NodeId, RoundRobin, SimBinding, SimHost, Wants};

use crate::core::SpecCore;
use crate::host::SpecHost;
use crate::replica::{SpecMsg, UpdateId};

/// A simulated spec store: three replicas plus a client gateway.
/// Faults, client deadlines, `settle`/`advance` and the clock mirror
/// come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimSpecStore<S: SeqSpec + 'static> {
    host: SimHost<RoundRobin<SpecMsg<S>>>,
}

impl<S: SeqSpec + 'static> Deref for SimSpecStore<S> {
    type Target = SimHost<RoundRobin<SpecMsg<S>>>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl<S: SeqSpec + Clone + Send + 'static> SimSpecStore<S> {
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

    #[expect(clippy::expect_used, reason = "setup API: panics as documented")]
    fn build(spec: S, client_site: &str, seed: u64, buggy: bool) -> Self {
        let (engine, replicas) = Engine::ec2(seed, |i, ids| {
            let mut core = SpecCore::new(spec.clone(), i, ids.len());
            core.set_arrival_order(buggy);
            let host = CoreHost::new(NodeId::peers_of(ids, i));
            Box::new(SpecHost { core, host })
        });
        let client = engine
            .topology()
            .site_named(client_site)
            .expect("known client site");
        let proto = RoundRobin::new(replicas.clone());
        SimSpecStore {
            host: SimHost::new(engine, replicas, client, proto),
        }
    }

    /// The full four-level binding.
    pub fn binding(&self) -> SpecBinding<S> {
        self.slice(&Wants::LEVELS)
    }

    /// The wait-free slice: weak and update views only.
    pub fn update_binding(&self) -> UpdateBinding<S> {
        self.slice(&[ConsistencyLevel::WEAK, ConsistencyLevel::UPDATE])
    }

    /// The `causalstore`-shaped slice: weak, causal, and strong views.
    pub fn causal_binding(&self) -> CausalSpec<S> {
        self.slice(&[
            ConsistencyLevel::WEAK,
            ConsistencyLevel::CAUSAL,
            ConsistencyLevel::STRONG,
        ])
    }

    fn slice(&self, levels: &[ConsistencyLevel]) -> SpecBinding<S> {
        SimBinding::new(self.host.clone(), levels)
    }

    /// Every replica's applied update log, in its current order — the
    /// input to the oracle's update-consistency checker.
    pub fn applied_logs(&self) -> Vec<Vec<UpdateId>> {
        self.each_replica(|r: &mut SpecHost<S>| r.core.applied_log())
    }

    /// Per replica, whether every peer has acknowledged every update it
    /// accepted — nothing is left for it to retransmit.
    pub fn fully_acked(&self) -> Vec<bool> {
        self.each_replica(|r: &mut SpecHost<S>| r.core.fully_acked())
    }
}

/// A `Binding` over a [`SimSpecStore`], serving the slice of the four
/// levels its constructor chose.
pub type SpecBinding<S> = SimBinding<RoundRobin<SpecMsg<S>>>;

/// The wait-free slice of a [`SimSpecStore`]: weak and update only.
pub type UpdateBinding<S> = SpecBinding<S>;

/// The causal slice of a [`SimSpecStore`] — `causalstore`'s shape
/// (weak/causal/strong) for any spec'd object.
pub type CausalSpec<S> = SpecBinding<S>;

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::spec::{CounterSpec, CtrOp, RegOp, RegisterSpec};
    use correctables::{Client, State};
    use simnet::SimDuration;

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
