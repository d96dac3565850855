//! The multi-view Correctables binding over the blockchain (§4.5).
//!
//! Consistency levels are *confirmation depths*: `conf-1` (in the tip
//! block, weak — reorgs can still drop it) through `conf-6` (irreversible
//! with overwhelming probability — "strongly consistent"). One
//! `invoke(pay(...))` therefore delivers up to six incremental views, each
//! strictly stronger than the last — the paper's prime example of an
//! application wanting *many* preliminary views for user feedback, since
//! finality takes tens of (virtual) minutes.

use std::ops::Deref;

use correctables::{ConsistencyLevel, Error, Upcall};
use simnet::{
    Ctx, Engine, GatewayProto, NodeId, PendingOps, SimBinding, SimDuration, SimHost, Submission,
    Timer,
};

use crate::chain::TxId;
use crate::network::{Miner, Msg};

/// The confirmation depth treated as final ("strongly consistent with
/// high probability" — Bitcoin's conventional six).
pub const FINAL_DEPTH: u64 = 6;

/// The confirmation-depth levels `conf-1` … `conf-6`, ranked between
/// CACHE and WEAK: even six confirmations are probabilistic, not a
/// quorum. Depth `d` is ranked `d`.
const CONF_LEVELS: [ConsistencyLevel; FINAL_DEPTH as usize] = [
    ConsistencyLevel::new("conf-1", 1),
    ConsistencyLevel::new("conf-2", 2),
    ConsistencyLevel::new("conf-3", 3),
    ConsistencyLevel::new("conf-4", 4),
    ConsistencyLevel::new("conf-5", 5),
    ConsistencyLevel::new("conf-6", 6),
];

/// The consistency level of a given confirmation depth (clamped to
/// `1..=FINAL_DEPTH`).
pub fn conf_level(depth: u64) -> ConsistencyLevel {
    CONF_LEVELS[(depth.clamp(1, FINAL_DEPTH) - 1) as usize]
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
}

/// The wallet's client protocol: submit the transaction to one miner,
/// then turn that miner's confirmation notices into views until the
/// strongest requested depth closes the watch.
pub struct Wallet {
    node: NodeId,
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
        })
    }

    fn on_reply(
        &mut self,
        _ctx: &mut Ctx<'_, Msg>,
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
        p.upcall.deliver(
            TxStatus {
                tx,
                confirmations: depth,
            },
            conf_level(depth),
        );
        if depth >= p.close_at {
            pending.remove(op);
        }
    }

    fn expire(&mut self, p: WatchPending) {
        p.upcall.fail(Error::Timeout);
    }
}

/// A simulated blockchain network with a wallet binding. The clock
/// mirror and `settle` come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimChain {
    host: SimHost<Wallet>,
}

impl Deref for SimChain {
    type Target = SimHost<Wallet>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
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
        let (mut engine, miners) =
            Engine::ec2(seed, |i, ids| Box::new(Miner::new(i, ids, per_miner)));
        let client_site_id = engine
            .topology()
            .site_named(client_site)
            .expect("known site");
        // Kick off mining.
        for &id in &miners {
            engine.schedule_timer(id, SimDuration::ZERO, Timer(u64::MAX));
        }
        let wallet = Wallet { node: miners[0] };
        SimChain {
            host: SimHost::new(engine, miners, client_site_id, wallet),
        }
    }

    /// The Correctables binding (six confirmation levels).
    pub fn binding(&self) -> ChainBinding {
        SimBinding::new(self.host.clone(), &CONF_LEVELS)
    }

    /// Runs the network for `d` of virtual time (mining never goes idle,
    /// so the blockchain is driven by explicit time budgets).
    pub fn run_for(&self, d: SimDuration) {
        self.host.step(d);
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
    use correctables::{Client, History, HistoryEvent, Invocation, RecordingBinding, State};

    fn network(seed: u64) -> SimChain {
        // 30-second virtual blocks keep tests fast while preserving
        // plenty of propagation-induced forks.
        SimChain::ec2(SimDuration::from_secs(30), "IRL", seed)
    }

    /// A client on `chain` recording every view on its virtual clock.
    fn recorded(
        chain: &SimChain,
    ) -> (
        Client<RecordingBinding<ChainBinding>>,
        History<TxId, TxStatus>,
    ) {
        let history = History::with_clock(chain.clock());
        let binding = RecordingBinding::new(chain.binding(), history.clone());
        (Client::new(binding), history)
    }

    /// A recorded watch's views as (depth, virtual ms after submission).
    fn confirmations_ms(watch: &Invocation<TxId, TxStatus>) -> Vec<(u64, f64)> {
        let views = watch.events.iter().filter_map(|e| match e {
            HistoryEvent::View {
                at_nanos, value, ..
            } => Some((
                value.confirmations,
                (at_nanos - watch.at_nanos) as f64 / 1e6,
            )),
            HistoryEvent::Failed { .. } => None,
        });
        views.collect()
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
        let (client, history) = recorded(&chain);
        let _c = client.invoke(7);
        chain.run_for(SimDuration::from_secs(3600));
        let t = history.snapshot();
        assert_eq!(t.len(), 1);
        let timeline = confirmations_ms(&t[0]);
        let depths: Vec<u64> = timeline.iter().map(|(d, _)| *d).collect();
        assert!(depths.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*depths.last().unwrap(), FINAL_DEPTH);
        // Later confirmations take longer.
        let times: Vec<f64> = timeline.iter().map(|(_, ms)| *ms).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_watch_closes_at_the_strongest_requested_depth() {
        let chain = network(11);
        let (client, history) = recorded(&chain);
        let c = client.invoke_at(7, conf_level(2));
        for _ in 0..60 {
            if c.state() == State::Final {
                break;
            }
            chain.run_for(SimDuration::from_secs(60));
        }
        assert_eq!(c.final_view().map(|v| v.value.confirmations), Some(2));
        // The watch, and with it the gateway entry, closed with the
        // Correctable: with no entry open, `settle` returns within its
        // 5 ms slice instead of waiting for depth 6.
        let closed = chain.now();
        chain.settle();
        assert!(chain.now().since(closed) < SimDuration::from_secs(1));
        let t = history.snapshot();
        assert_eq!(t.len(), 1);
        assert_eq!(confirmations_ms(&t[0]).last().map(|(d, _)| *d), Some(2));
    }

    /// Every miner sends its confirmation notices in one fixed order, so
    /// each send draws its latency from the seeded RNG at the same point
    /// and a seed replays view for view. (A `HashMap` of watchers sent
    /// them in its per-instance hash order.)
    #[test]
    fn sixteen_watches_replay_identically_from_one_seed() {
        let run = |seed| {
            let chain = SimChain::ec2(SimDuration::from_secs(20), "IRL", seed);
            let (client, history) = recorded(&chain);
            let _watches: Vec<_> = (0..16).map(|i| client.invoke(1000 + i)).collect();
            chain.run_for(SimDuration::from_secs(3600));
            format!("{:?}", history.snapshot())
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed} diverged");
        }
    }
}
