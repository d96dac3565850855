//! The multi-view Correctables binding over the blockchain (§4.5).
//!
//! Consistency levels are *confirmation depths*: `conf-1` (in the tip
//! block, weak — reorgs can still drop it) through `conf-6` (irreversible
//! with overwhelming probability — "strongly consistent"). One
//! `invoke(pay(...))` therefore delivers up to six incremental views, each
//! strictly stronger than the last — the paper's prime example of an
//! application wanting *many* preliminary views for user feedback, since
//! finality takes tens of (virtual) minutes.

use correctables::{ConsistencyLevel, Error, Upcall};
use simnet::{
    Ctx, Engine, GatewayProto, NodeId, PendingOps, SimBinding, SimDuration, SimHost, SimTime,
    Submission, Timer,
};

use crate::chain::TxId;
use crate::network::{Miner, Msg};

/// The confirmation depth treated as final ("strongly consistent with
/// high probability" — Bitcoin's conventional six).
pub const FINAL_DEPTH: u64 = 6;

/// The consistency level of a given confirmation depth. Depths register
/// lazily in the process-wide level lattice (idempotent — the same
/// name/rank pair always yields the same level), ranked between CACHE
/// and WEAK: even six confirmations are probabilistic, not a quorum.
/// Depth `d` is ranked `d`.
pub fn conf_level(depth: u64) -> ConsistencyLevel {
    const NAMES: [&str; 6] = ["conf-1", "conf-2", "conf-3", "conf-4", "conf-5", "conf-6"];
    let d = depth.clamp(1, FINAL_DEPTH);
    ConsistencyLevel::register(NAMES[(d - 1) as usize], d as u8)
        .expect("confirmation-depth levels are well-formed")
}

/// A submitted payment, as seen by the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxStatus {
    /// The transaction.
    pub tx: TxId,
    /// Current confirmation depth.
    pub confirmations: u64,
}

/// What the wallet keeps per watched transaction.
pub struct WatchPending {
    tx: TxId,
    upcall: Upcall<TxStatus>,
    /// The strongest requested depth: the notice that closes the watch.
    close_at: u64,
    submitted: SimTime,
    confirmed_at: Vec<(u64, f64)>,
}

/// Per-transaction confirmation timeline (virtual milliseconds).
#[derive(Clone, Debug)]
pub struct TxTimeline {
    /// The transaction.
    pub tx: TxId,
    /// (depth, ms after submission) per delivered view.
    pub confirmations_ms: Vec<(u64, f64)>,
}

/// The wallet's client protocol: submit the transaction to one miner,
/// then turn that miner's confirmation notices into views until the
/// strongest requested depth closes the watch, which leaves a
/// [`TxTimeline`].
pub struct Wallet {
    node: NodeId,
    timelines: Vec<TxTimeline>,
}

impl GatewayProto for Wallet {
    type Msg = Msg;
    type Op = TxId;
    type Val = TxStatus;
    type Pending = WatchPending;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        _op: u64,
        sub: Submission<TxId, TxStatus>,
    ) -> Option<WatchPending> {
        let tx = sub.op;
        ctx.send(self.node, Msg::SubmitTx { tx });
        let strongest = sub
            .levels
            .strongest()
            .map_or(FINAL_DEPTH as u8, |l| l.rank());
        Some(WatchPending {
            tx,
            upcall: sub.upcall,
            close_at: u64::from(strongest),
            submitted: ctx.now(),
            confirmed_at: Vec::new(),
        })
    }

    fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pending: &mut PendingOps<WatchPending>,
        msg: Msg,
    ) {
        let Msg::Confirmation { tx, depth } = msg else {
            return;
        };
        // Notices carry the transaction, not the op id: find the watch.
        let Some((op, p)) = pending.iter_mut().find(|(_, p)| p.tx == tx) else {
            return;
        };
        let ms = ctx.now().since(p.submitted).as_millis_f64();
        p.confirmed_at.push((depth, ms));
        p.upcall.deliver(
            TxStatus {
                tx,
                confirmations: depth,
            },
            conf_level(depth),
        );
        if depth >= p.close_at {
            let p = pending.remove(op).expect("present");
            self.timelines.push(TxTimeline {
                tx,
                confirmations_ms: p.confirmed_at,
            });
        }
    }

    fn expire(&mut self, p: WatchPending) {
        p.upcall.fail(Error::Timeout);
    }
}

/// A simulated blockchain network with a wallet binding.
#[derive(Clone)]
pub struct SimChain {
    host: SimHost<Wallet>,
}

impl SimChain {
    /// Builds a network with one miner per paper site plus a wallet in
    /// `client_site`, with the given *global* mean block interval.
    ///
    /// # Panics
    ///
    /// Panics if the site name is unknown.
    pub fn ec2(block_interval: SimDuration, client_site: &str, seed: u64) -> SimChain {
        // Three miners, one per paper site, share the *global* interval.
        let per_miner = block_interval * 3;
        let (mut engine, miners) = Engine::ec2(seed, |i| Box::new(Miner::new(i as u32, per_miner)));
        let client_site_id = engine
            .topology()
            .site_named(client_site)
            .expect("known site");
        for (i, id) in miners.iter().enumerate() {
            let peers = NodeId::peers_of(&miners, i);
            engine.node_as::<Miner>(*id).set_peers(peers);
            // Kick off mining.
            engine.schedule_timer(*id, SimDuration::ZERO, Timer(u64::MAX));
        }
        let wallet = Wallet {
            node: miners[0],
            timelines: Vec::new(),
        };
        SimChain {
            host: SimHost::new(engine, miners, client_site_id, wallet),
        }
    }

    /// The Correctables binding (six confirmation levels).
    pub fn binding(&self) -> ChainBinding {
        let levels: Vec<_> = (1..=FINAL_DEPTH).map(conf_level).collect();
        SimBinding::new(self.host.clone(), &levels)
    }

    /// Runs the network for `d` of virtual time (mining never goes idle,
    /// so the blockchain is driven by explicit time budgets).
    pub fn run_for(&self, d: SimDuration) {
        self.host.step(d);
    }

    /// Confirmation timelines of closed watches. Must not be called from
    /// inside a callback: the engine is locked while it runs.
    pub fn timelines(&self) -> Vec<TxTimeline> {
        self.host.with_proto(|w| w.timelines.clone())
    }

    /// Total reorganizations observed across all miners.
    pub fn total_reorgs(&self) -> u64 {
        let reorgs = self.host.each_replica(|m: &mut Miner| m.chain.reorgs);
        reorgs.into_iter().sum()
    }

    /// The main-chain height at the wallet's node.
    pub fn height(&self) -> u64 {
        self.host.each_replica(|m: &mut Miner| m.chain.height())[0]
    }
}

/// The six-confirmation-level `Binding` over a [`SimChain`].
pub type ChainBinding = SimBinding<Wallet>;

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::{Client, State};

    fn network(seed: u64) -> SimChain {
        // 30-second virtual blocks keep tests fast while preserving
        // plenty of propagation-induced forks.
        SimChain::ec2(SimDuration::from_secs(30), "IRL", seed)
    }

    #[test]
    fn payment_accumulates_six_incremental_views() {
        let chain = network(3);
        let client = Client::new(chain.binding());
        assert_eq!(client.consistency_levels().len(), 6);
        let c = client.invoke(4242);
        chain.run_for(SimDuration::from_secs(3600));
        assert_eq!(c.state(), State::Final, "six confirmations within an hour");
        let prelims = c.preliminary_views();
        // Monotone depths, closing at 6.
        let mut last = 0;
        for v in &prelims {
            assert!(v.value.confirmations > last);
            last = v.value.confirmations;
        }
        let fin = c.final_view().unwrap();
        assert_eq!(fin.value.confirmations, FINAL_DEPTH);
        assert_eq!(fin.level, conf_level(FINAL_DEPTH));
    }

    #[test]
    fn confirmation_levels_are_strictly_ordered() {
        for d in 1..FINAL_DEPTH {
            assert!(conf_level(d) < conf_level(d + 1));
        }
        assert!(conf_level(1) > ConsistencyLevel::CACHE);
    }

    #[test]
    fn chain_grows_and_forks_resolve() {
        let chain = network(9);
        chain.run_for(SimDuration::from_secs(3600));
        // Expected ~120 blocks/hour at 30 s intervals.
        let h = chain.height();
        assert!((60..240).contains(&h), "height {h}");
    }

    #[test]
    fn timelines_record_increasing_depths() {
        let chain = network(11);
        let client = Client::new(chain.binding());
        let _c = client.invoke(7);
        chain.run_for(SimDuration::from_secs(3600));
        let t = chain.timelines();
        assert_eq!(t.len(), 1);
        let depths: Vec<u64> = t[0].confirmations_ms.iter().map(|(d, _)| *d).collect();
        assert!(depths.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*depths.last().unwrap(), FINAL_DEPTH);
        // Later confirmations take longer.
        let times: Vec<f64> = t[0].confirmations_ms.iter().map(|(_, ms)| *ms).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_watch_closes_at_the_strongest_requested_depth() {
        let chain = network(11);
        let client = Client::new(chain.binding());
        let c = client.invoke_at(7, conf_level(2));
        chain.run_for(SimDuration::from_secs(3600));
        assert_eq!(c.final_view().map(|v| v.value.confirmations), Some(2));
        // The watch, and with it the gateway entry, closed with the
        // Correctable: its timeline ends at depth 2, not 6.
        let t = chain.timelines();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].confirmations_ms.last().map(|(d, _)| *d), Some(2));
    }
}
