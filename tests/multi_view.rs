//! Integration tests of the multi-view (3+ levels) bindings: the news
//! reader's three levels and the blockchain's six confirmation depths
//! (§4.5 — "Correctables, however, support arbitrarily many views. …
//! this does not add any complexity to the interface").
//!
//! Flakiness audit: all timing below is virtual (`SimDuration` on the
//! deterministic engine); the latency assertions compare virtual
//! timestamps and are reproducible bit-for-bit per seed.

use std::fmt::Debug;

use icg::blockchain::{conf_level, SimChain, FINAL_DEPTH};
use icg::causalstore::{CacheOp, SimCausal};
use icg::consensusq::{QueueOp, ServerConfig, SimQueue};
use icg::correctables::spec::{RegOp, RegisterSpec};
use icg::correctables::{
    Binding, Client, ConsistencyLevel, History, HistoryEvent, LevelSelection, RecordingBinding,
    State,
};
use icg::crdt::{CrdtOp, EscrowOp, SimCrdtStore, SimEscrow};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp};
use icg::simnet::{GatewayProto, NodeId, SimDuration, SimHost, SiteId};
use icg::specstore::SimSpecStore;

const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;

/// `binding` advertises exactly `levels`, and `invoke_weak` and
/// `invoke_strong` of `op` each close, once `drive` has run, with one
/// view at the weakest and the strongest of them and no preliminary.
fn assert_level_contract<B: Binding>(
    store: &str,
    binding: B,
    levels: &[ConsistencyLevel],
    op: impl Fn() -> B::Op,
    drive: impl FnOnce(),
) where
    B::Val: Debug,
{
    assert_eq!(binding.consistency_levels().as_slice(), levels, "{store}");
    let client = Client::new(binding);
    let weak = client.invoke_weak(op());
    let strong = client.invoke_strong(op());
    drive();
    for (c, level) in [(weak, levels[0]), (strong, levels[levels.len() - 1])] {
        assert_eq!(c.state(), State::Final, "{store} at {level}");
        assert!(c.preliminary_views().is_empty(), "{store} at {level}");
        assert_eq!(c.final_view().map(|v| v.level), Some(level), "{store}");
    }
}

/// The one layout of every simulated deployment: replica `i` is
/// `NodeId(i)` at `SiteId(i)`.
fn assert_layout<P: GatewayProto>(store: &str, host: &SimHost<P>) {
    let ids = host.replica_ids();
    let sites: Vec<SiteId> = host.with_engine(|e| ids.iter().map(|&id| e.site_of(id)).collect());
    assert_eq!(ids, (0..3).map(NodeId).collect::<Vec<_>>(), "{store}");
    assert_eq!(sites, (0..3).map(SiteId).collect::<Vec<_>>(), "{store}");
}

/// What each simulated store's binding advertises, and that a
/// single-level invoke is served at that level alone: the levels a
/// submission asks for reach its gateway intact. Every store is laid
/// out alike.
#[test]
fn every_simulated_store_serves_one_view_at_a_single_requested_level() {
    let quorum = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 1);
    assert_layout("quorum", &quorum);
    let read = || StoreOp::Read(Key::plain(1));
    assert_level_contract("quorum", quorum.binding(), &[WEAK, STRONG], read, || {
        quorum.settle()
    });

    let causal = SimCausal::ec2("VRG", "IRL", 2);
    assert_layout("causal", &causal);
    causal.seed("k", 1, vec![1]);
    let levels = [ConsistencyLevel::CACHE, ConsistencyLevel::CAUSAL, STRONG];
    let get = || CacheOp::Get("k".into());
    assert_level_contract("causal", causal.binding(), &levels, get, || causal.settle());

    let queue = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", 3);
    assert_layout("queue", &queue);
    queue.prefill(2, 20);
    let dequeue = || QueueOp::Dequeue;
    assert_level_contract("queue", queue.binding(), &[WEAK, STRONG], dequeue, || {
        queue.settle()
    });

    let chain = SimChain::ec2(SimDuration::from_secs(20), "IRL", 4);
    assert_layout("chain", &chain);
    let depths: Vec<_> = (1..=FINAL_DEPTH).map(conf_level).collect();
    assert_level_contract(
        "chain",
        chain.binding(),
        &depths,
        || 99,
        || chain.run_for(SimDuration::from_secs(3600)),
    );

    let spec = SimSpecStore::ec2(RegisterSpec::default(), "IRL", 5);
    assert_layout("spec", &spec);
    let levels = [
        WEAK,
        ConsistencyLevel::UPDATE,
        ConsistencyLevel::CAUSAL,
        STRONG,
    ];
    let reg_read = || RegOp::Read(1);
    assert_level_contract("spec", spec.binding(), &levels, reg_read, || spec.settle());

    let crdt = SimCrdtStore::ec2("IRL", 6);
    assert_layout("crdt", &crdt);
    let ctr_get = || CrdtOp::CtrGet(0);
    assert_level_contract("crdt", crdt.binding(), &[WEAK, STRONG], ctr_get, || {
        crdt.settle()
    });

    let escrow = SimEscrow::ec2(vec![10, 10, 10], "IRL", 7, false);
    assert_layout("escrow", &escrow);
    let avail = || EscrowOp::Avail;
    assert_level_contract("escrow", escrow.binding(), &[WEAK, STRONG], avail, || {
        escrow.settle()
    });
}

#[test]
fn six_confirmation_views_arrive_in_strictly_increasing_strength() {
    let chain = SimChain::ec2(SimDuration::from_secs(20), "IRL", 17);
    let client = Client::new(chain.binding());
    let c = client.invoke(777u64);
    chain.run_for(SimDuration::from_secs(3600));
    assert_eq!(c.state(), State::Final);
    let mut levels: Vec<ConsistencyLevel> = c.preliminary_views().iter().map(|v| v.level).collect();
    levels.push(c.final_view().unwrap().level);
    for w in levels.windows(2) {
        assert!(
            w[0] < w[1],
            "levels must strengthen monotonically: {levels:?}"
        );
    }
    assert_eq!(*levels.last().unwrap(), conf_level(FINAL_DEPTH));
}

#[test]
fn subset_selection_works_on_multi_level_bindings() {
    // Ask the blockchain binding for only {conf-2, conf-6}: one
    // preliminary, one final, nothing else.
    let chain = SimChain::ec2(SimDuration::from_secs(20), "IRL", 18);
    let client = Client::new(chain.binding());
    let c = client.invoke_with(
        888u64,
        &LevelSelection::only(&[conf_level(2), conf_level(FINAL_DEPTH)]),
    );
    chain.run_for(SimDuration::from_secs(3600));
    assert_eq!(c.state(), State::Final);
    // The binding delivers every depth, but the upcall closes at the
    // strongest requested level; intermediate deliveries below conf-6
    // surface as updates. What matters: the final is conf-6.
    assert_eq!(c.final_view().unwrap().level, conf_level(FINAL_DEPTH));
}

#[test]
fn blockchain_weak_views_are_genuinely_revocable() {
    // Run two independent network seeds; confirmation *times* differ but
    // the view structure is identical — and a depth-1 view always
    // precedes depth-6 by several blocks' worth of virtual time.
    for seed in [3u64, 4] {
        let chain = SimChain::ec2(SimDuration::from_secs(20), "IRL", seed);
        let history = History::with_clock(chain.clock());
        let client = Client::new(RecordingBinding::new(chain.binding(), history.clone()));
        let _c = client.invoke(1_000 + seed);
        chain.run_for(SimDuration::from_secs(3600));
        let t = &history.snapshot()[0];
        let ms: Vec<f64> = t
            .events
            .iter()
            .filter_map(|e| match e {
                HistoryEvent::View { at_nanos, .. } => Some((at_nanos - t.at_nanos) as f64 / 1e6),
                HistoryEvent::Failed { .. } => None,
            })
            .collect();
        let first = *ms.first().unwrap();
        let last = *ms.last().unwrap();
        assert!(
            last - first > 30_000.0,
            "finality must lag the first view by minutes: {first} .. {last}"
        );
    }
}

#[test]
fn news_reader_views_strictly_refine_freshness() {
    let store = SimCausal::ec2("VRG", "IRL", 21);
    store.seed("news:latest", 1, vec![1]);
    // Two publications land at the primary; the nearer backup will have
    // caught up with the first but not the second.
    store.publish("news:latest", vec![1, 2]);
    store.advance(SimDuration::from_millis(30));
    store.publish("news:latest", vec![1, 2, 3]);
    store.advance(SimDuration::from_millis(5));
    let client = Client::new(store.binding());
    let c = client.invoke(CacheOp::Get("news:latest".into()));
    store.settle();
    let views = c.preliminary_views();
    let revs: Vec<u64> = views
        .iter()
        .map(|v| v.value.as_ref().map(|i| i.rev).unwrap_or(0))
        .chain(c.final_view().map(|v| v.value.unwrap().rev))
        .collect();
    // cache rev 1 (seeded) ≤ causal rev 2 (first publication) ≤ strong
    // rev 3 (both publications).
    assert_eq!(revs.len(), 3);
    assert!(revs.windows(2).all(|w| w[0] <= w[1]), "revs {revs:?}");
    assert_eq!(revs[2], 3, "the final view must be the freshest");
}
