//! Cross-crate integration tests: the ICG semantics of the paper, end to
//! end through the public Correctables API over each storage substrate.

use std::time::Duration;

use icg::causalstore::{CacheOp, SimCausal};
use icg::consensusq::{QueueOp, ServerConfig, SimQueue};
use icg::correctables::{Client, ConsistencyLevel, Correctable, State};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value};

fn quorum_store(confirm: bool, seed: u64) -> SimStore {
    let s = SimStore::ec2(ReplicaConfig::default(), 2, confirm, "IRL", 0, seed);
    s.preload((0..64).map(|i| (Key::plain(i), Value::Opaque(256))));
    s
}

#[test]
fn views_arrive_weakest_to_strongest_on_every_binding() {
    // Quorum store: weak then strong.
    let qs = quorum_store(false, 1);
    let client = Client::new(qs.binding());
    let c = client.invoke(StoreOp::Read(Key::plain(1)));
    qs.settle();
    let levels: Vec<ConsistencyLevel> = c
        .preliminary_views()
        .iter()
        .map(|v| v.level)
        .chain(c.final_view().map(|v| v.level))
        .collect();
    assert_eq!(
        levels,
        vec![ConsistencyLevel::WEAK, ConsistencyLevel::STRONG]
    );

    // Queue: weak (simulation) then strong (atomic).
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", 2);
    q.prefill(4, 20);
    let qc = Client::new(q.binding());
    let d = qc.invoke(QueueOp::Dequeue);
    q.settle();
    assert_eq!(d.preliminary_views()[0].level, ConsistencyLevel::WEAK);
    assert_eq!(d.final_view().unwrap().level, ConsistencyLevel::STRONG);

    // Cached causal store: cache, causal, strong.
    let n = SimCausal::ec2("VRG", "IRL", 3);
    n.seed("k", 1, vec![9]);
    let nc = Client::new(n.binding());
    let g = nc.invoke(CacheOp::Get("k".into()));
    n.settle();
    let levels: Vec<ConsistencyLevel> = g.preliminary_views().iter().map(|v| v.level).collect();
    assert_eq!(
        levels,
        vec![ConsistencyLevel::CACHE, ConsistencyLevel::CAUSAL]
    );
    assert_eq!(g.final_view().unwrap().level, ConsistencyLevel::STRONG);
}

#[test]
fn icg_exposes_staleness_that_strong_reads_never_see() {
    let qs = quorum_store(false, 4);
    let client = Client::new(qs.binding());
    // Write through the FRK coordinator, then immediately ICG-read via a
    // second write racing the async propagation window.
    let w = client.invoke_strong(StoreOp::Write(Key::plain(7), Value::Opaque(512)));
    qs.settle();
    assert_eq!(w.state(), State::Final);
    let r = client.invoke(StoreOp::Read(Key::plain(7)));
    qs.settle();
    // The coordinator itself applied the write, so even the preliminary
    // sees it; the final view must never be older than the preliminary.
    let prelim = &r.preliminary_views()[0];
    let fin = r.final_view().unwrap();
    assert!(fin.value.version >= prelim.value.version);
    assert_eq!(fin.value.value, Value::Opaque(512));
}

#[test]
fn final_view_is_never_weaker_than_preliminary_under_update_storms() {
    let qs = quorum_store(true, 5);
    let client = Client::new(qs.binding());
    for round in 0..30u32 {
        let k = Key::plain(u64::from(round % 8));
        client.invoke_strong(StoreOp::Write(k, Value::Opaque(round + 1)));
        let r = client.invoke(StoreOp::Read(k));
        qs.settle();
        let fin = r.final_view().expect("resolved");
        for p in r.preliminary_views() {
            assert!(
                fin.value.version >= p.value.version,
                "final view went backwards at round {round}"
            );
        }
    }
}

#[test]
fn speculation_chain_combines_prefetch_with_confirmation() {
    let qs = quorum_store(false, 6);
    // Key 100 references key 2 (pointer chase, §4.2's pattern).
    qs.preload([(Key::plain(100), Value::Ids(vec![2]))]);
    let client = Client::new(qs.binding());
    let binding = qs.binding();
    let out = client
        .invoke(StoreOp::Read(Key::plain(100)))
        .speculate_async(
            move |refs| {
                let targets = refs.value.ids().unwrap_or(&[]).to_vec();
                let fetches: Vec<Correctable<_>> = targets
                    .iter()
                    .map(|t| {
                        Client::new(binding.clone()).invoke_strong(StoreOp::Read(Key::plain(*t)))
                    })
                    .collect();
                Correctable::join_all(fetches)
            },
            |_| {},
        );
    qs.settle();
    let ads = out.final_view().expect("speculation resolved").value;
    assert_eq!(ads.len(), 1);
    assert_eq!(ads[0].value, Value::Opaque(256));
    // Timing: the chain must finish before a sequential strong+strong
    // (2 × 40 ms) would, because the prefetch overlapped the quorum wait.
    let t = qs.timings();
    let outer = t.iter().find(|x| x.prelim_ms.is_some()).expect("icg op");
    let total = t.iter().map(|x| x.final_ms).fold(0.0f64, f64::max);
    assert!(outer.prelim_ms.unwrap() < 30.0);
    assert!(
        total < 75.0,
        "chain took {total}ms; speculation did not overlap"
    );
}

#[test]
fn wait_final_interops_with_simulated_bindings() {
    // `wait_final` must not deadlock when the value is already resolved.
    let qs = quorum_store(false, 8);
    let client = Client::new(qs.binding());
    let c = client.invoke_strong(StoreOp::Read(Key::plain(3)));
    qs.settle();
    // Settle resolves everything, so this returns immediately; the bound
    // is deliberately generous — it only matters if settle ever regresses,
    // and then a clear timeout beats a flaky one.
    let v = c.wait_final(Duration::from_secs(5)).expect("already final");
    assert_eq!(v.level, ConsistencyLevel::STRONG);
}

#[test]
fn level_subset_requests_skip_extraneous_work() {
    use icg::correctables::LevelSelection;
    let qs = quorum_store(false, 9);
    let client = Client::new(qs.binding());
    // Requesting only Strong must not produce a preliminary view.
    let c = client.invoke_with(
        StoreOp::Read(Key::plain(2)),
        &LevelSelection::only(&[ConsistencyLevel::STRONG]),
    );
    qs.settle();
    assert!(c.preliminary_views().is_empty());
    assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::STRONG);
}
