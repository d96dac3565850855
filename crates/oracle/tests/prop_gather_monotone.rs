//! Property tests: `ShardedBinding`'s scatter/gather merge emits view
//! sequences that are themselves monotone — the merged level floor
//! never descends across emissions and the merge closes exactly once —
//! verified with the oracle's own monotonicity checker, for arbitrary
//! per-part level subsets and arbitrary interleavings of part
//! deliveries; and the same merge over CRDT-backed shards of arbitrary
//! *freshness* (each shard's weak views lag its fresh state by a
//! different depth) stays monotone, with the strong merged reads seeing
//! every prior write.

use proptest::prelude::*;

use correctables::record::History;
use correctables::ConsistencyLevel;
const CACHE: ConsistencyLevel = ConsistencyLevel::CACHE;
const CAUSAL: ConsistencyLevel = ConsistencyLevel::CAUSAL;
const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
use correctables::Correctable;
use icg_crdt::{CrdtOp, CrdtVal, LocalCrdt};
use icg_oracle::check_monotonicity;
use icg_shard::ShardedBinding;
use simnet::DetRng;

const PRELIMS: [ConsistencyLevel; 3] = [CACHE, WEAK, CAUSAL];

proptest! {
    /// Each part delivers an ascending subset of {CACHE, WEAK, CAUSAL}
    /// then closes at STRONG; parts are interleaved randomly. The
    /// merged Correctable's recorded history must satisfy the
    /// monotonicity checker (levels strictly ascend, close exactly
    /// once, nothing after the close) and close at STRONG.
    #[test]
    fn merged_views_are_monotone_under_any_interleaving(
        masks in proptest::collection::vec(0u8..8, 1..5),
        seed in any::<u64>(),
    ) {
        let n = masks.len();
        let parts: Vec<(Correctable<u64>, correctables::Handle<u64>)> =
            (0..n).map(|_| Correctable::pending()).collect();
        let merged = Correctable::gather(parts.iter().map(|(c, _)| c.clone()).collect());

        let history: History<&'static str, Vec<u64>> = History::new();
        let id = history.observe(
            "scatter",
            vec![CACHE, WEAK, CAUSAL, STRONG],
            &merged,
        );

        // Per-part delivery plans: the selected prelim levels in
        // ascending order, then the STRONG close.
        let mut plans: Vec<Vec<(ConsistencyLevel, bool)>> = masks
            .iter()
            .map(|mask| {
                let mut plan: Vec<(ConsistencyLevel, bool)> = PRELIMS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, l)| (*l, false))
                    .collect();
                plan.push((STRONG, true));
                plan
            })
            .collect();

        // Random riffle: pick a part with deliveries left, pop its head.
        let mut rng = DetRng::seed_from_u64(seed);
        let mut step = 0u64;
        while plans.iter().any(|p| !p.is_empty()) {
            let live: Vec<usize> = (0..n).filter(|&i| !plans[i].is_empty()).collect();
            let part = live[rng.below(live.len() as u64) as usize];
            let (level, closing) = plans[part].remove(0);
            let value = (part as u64) * 1_000 + step;
            step += 1;
            let h = &parts[part].1;
            if closing {
                h.close(value, level).unwrap();
            } else {
                h.update(value, level).unwrap();
            }
        }

        let invs = history.snapshot();
        let violations = check_monotonicity(&invs, true);
        prop_assert!(violations.is_empty(), "merged stream not monotone: {violations:?}");
        let inv = invs.iter().find(|i| i.id == id).unwrap();
        let (_, close_level) = inv.final_view().expect("merge must close");
        prop_assert_eq!(close_level, STRONG);
        // Every emission carries one value per part.
        for e in &inv.events {
            if let correctables::record::HistoryEvent::View { value, .. } = e {
                prop_assert_eq!(value.len(), n);
            }
        }
    }

    /// Scatter over CRDT-backed shards whose weak views lag their fresh
    /// state by *different* depths: the merged stream must still be
    /// monotone (weakest-common floor, single close at STRONG), and the
    /// strong merged reads must see every previously scattered write no
    /// matter how stale each shard's weak shadow is.
    #[test]
    fn scatter_over_crdt_shards_is_monotone_at_any_freshness(
        lags in proptest::collection::vec(0usize..5, 1..4),
        words in proptest::collection::vec(any::<u64>(), 1..16),
        ring_seed in any::<u64>(),
    ) {
        const KEYS: u64 = 6;
        let shards: Vec<LocalCrdt> = lags.iter().map(|&l| LocalCrdt::new(l)).collect();
        let router = ShardedBinding::inline(shards, 16, ring_seed);
        let history: History<&'static str, Vec<CrdtVal>> = History::new();

        // Round 1: counter bumps decoded from the words (key routes the
        // op to its owning shard; same key, same shard).
        let delta = |w: u64| ((w >> 3) % 50) as i64;
        let writes: Vec<CrdtOp> = words
            .iter()
            .map(|&w| CrdtOp::CtrAdd(w % KEYS, delta(w)))
            .collect();
        let w = router.scatter(writes);
        history.observe("scatter-writes", vec![WEAK, STRONG], &w);

        // Round 2: read every key back through the merge.
        let reads: Vec<CrdtOp> = (0..KEYS).map(CrdtOp::CtrGet).collect();
        let r = router.scatter(reads);
        let read_id = history.observe("scatter-reads", vec![WEAK, STRONG], &r);

        let invs = history.snapshot();
        let violations = check_monotonicity(&invs, true);
        prop_assert!(violations.is_empty(), "merged stream not monotone: {violations:?}");

        let inv = invs.iter().find(|i| i.id == read_id).unwrap();
        let (vals, close_level) = inv.final_view().expect("merged read must close");
        prop_assert_eq!(close_level, STRONG);
        prop_assert_eq!(vals.len(), KEYS as usize);
        // Freshness doesn't bend the strong path: each key's final read
        // is the full sum of its bumps, even on shards whose weak
        // shadow still lags behind.
        for (k, v) in vals.iter().enumerate() {
            let expected: i64 = words
                .iter()
                .filter(|&&w| w % KEYS == k as u64)
                .map(|&w| delta(w))
                .sum();
            prop_assert_eq!(v, &CrdtVal::Int(expected), "key {}", k);
        }
    }
}
