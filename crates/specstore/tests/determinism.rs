//! A simulated spec store is a function of `(seed, fault plan,
//! workload)` and of nothing else — in particular not of the hasher
//! seed an unordered map would pick up, which differs between two maps
//! in one process.

use correctables::spec::{CounterSpec, CtrOp};
use correctables::{Client, History, RecordingBinding};
use simnet::{Faults, SimDuration, SimTime, SiteId};
use specstore::SimSpecStore;

/// Cuts FRK↔VRG, lets every replica accept several updates its far peer
/// cannot ack, heals, and submits four-level operations into the
/// anti-entropy that follows: each retransmit timer then re-gossips
/// several own updates in one go, and several views come due in one
/// `settle_pending`. The order of those sends is the order of the
/// simulator's latency draws, so it shows in every later time stamp.
fn run(seed: u64) -> Vec<String> {
    let store = SimSpecStore::ec2(CounterSpec, "IRL", seed);
    let history = History::with_clock(store.clock());
    let client = Client::new(RecordingBinding::new(store.binding(), history.clone()));

    store.set_faults(Faults::none().with_partition(
        SiteId(0),
        SiteId(2),
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(1 << 30),
    ));
    for i in 0..18u64 {
        client.invoke_weak(CtrOp::Add(i % 4, 1 + i));
    }
    store.settle();
    store.advance(SimDuration::from_millis(50));

    store.set_faults(Faults::none());
    for round in 0..4u64 {
        for i in 0..6u64 {
            client.invoke(CtrOp::Add(i % 4, 10 * round + i));
        }
        store.settle();
        store.advance(SimDuration::from_millis(120));
    }
    store.advance(SimDuration::from_secs(2));
    for k in 0..4u64 {
        client.invoke(CtrOp::Get(k));
        store.settle();
    }
    history
        .snapshot()
        .iter()
        .map(|inv| format!("{inv:?}"))
        .collect()
}

#[test]
fn same_seed_same_history_event_for_event() {
    for seed in [3, 11, 42] {
        let (a, b) = (run(seed), run(seed));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "seed {seed}: histories diverge");
        }
    }
}
