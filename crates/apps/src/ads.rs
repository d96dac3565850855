//! The ad-serving system (§4.2, Listing 4; evaluated in §6.3.1).
//!
//! `fetch_ads_by_user_id` reads the user's personalized ad references and
//! then fetches the referenced ads. With ICG, the reference list's
//! preliminary view triggers a *speculative prefetch* of the ads; when the
//! final view confirms the references (the overwhelmingly common case),
//! the already-prefetched ads are delivered immediately — hiding the
//! latency of the strongly consistent reference read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use correctables::{Client, Correctable};
use quorumstore::{QuorumBinding, SimStore, StoreOp, Versioned};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dataset::{ad_key, profile_key, AdsDataset};

/// Counts speculation outcomes across operations.
#[derive(Debug, Default)]
pub struct SpecCounters {
    /// ICG reads whose preliminary and final reference lists matched.
    pub confirmed: AtomicU64,
    /// ICG reads that diverged (speculation redone on the final view).
    pub diverged: AtomicU64,
}

impl SpecCounters {
    /// Fraction of ICG reads that diverged.
    pub fn divergence(&self) -> f64 {
        let c = self.confirmed.load(Ordering::Relaxed);
        let d = self.diverged.load(Ordering::Relaxed);
        if c + d == 0 {
            0.0
        } else {
            d as f64 / (c + d) as f64
        }
    }
}

/// The ad-serving application over a Correctables client.
pub struct AdSystem {
    store: SimStore,
    client: Arc<Client<QuorumBinding>>,
    dataset: AdsDataset,
    counters: Arc<SpecCounters>,
}

impl AdSystem {
    /// Builds the application over a simulated store and preloads the
    /// dataset.
    pub fn new(store: SimStore, dataset: AdsDataset, seed: u64) -> Self {
        store.preload(dataset.records(seed));
        let client = Arc::new(Client::new(store.binding()));
        AdSystem {
            store,
            client,
            dataset,
            counters: Arc::new(SpecCounters::default()),
        }
    }

    /// Speculation outcome counters.
    pub fn counters(&self) -> &SpecCounters {
        &self.counters
    }

    /// The underlying store (for `settle`, clock, bandwidth).
    pub fn store(&self) -> &SimStore {
        &self.store
    }

    /// The dataset parameters.
    pub fn dataset(&self) -> &AdsDataset {
        &self.dataset
    }

    /// Listing 4: fetch the ads personalized for `uid`.
    ///
    /// With `icg`, the reference read uses `invoke` and the ad fetch runs
    /// speculatively on the preliminary references; otherwise the
    /// reference read is a plain strong read and the fetch starts only
    /// after it completes (the paper's baseline).
    pub fn fetch_ads_by_user_id(&self, uid: u64, icg: bool) -> Correctable<Vec<Versioned>> {
        let refs = if icg {
            self.client.invoke(StoreOp::Read(profile_key(uid)))
        } else {
            self.client.invoke_strong(StoreOp::Read(profile_key(uid)))
        };
        if icg {
            // Track how often the preliminary reference list is confirmed
            // by the final one (the paper reports <1% divergence).
            let counters = Arc::clone(&self.counters);
            let prelim = Arc::new(parking_lot::Mutex::new(None::<Versioned>));
            let p2 = Arc::clone(&prelim);
            refs.on_update(move |v| {
                *p2.lock() = Some(v.value.clone());
            });
            refs.on_final(move |v| match prelim.lock().as_ref() {
                Some(p) if *p == v.value => {
                    counters.confirmed.fetch_add(1, Ordering::Relaxed);
                }
                Some(_) => {
                    counters.diverged.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            });
        }
        let client = Arc::clone(&self.client);
        refs.speculate_async(
            move |profile: &Versioned| {
                // `getAds`: fetch every referenced ad (R = 2 reads), then
                // post-process; modelled as a join over parallel reads.
                let ids = profile.value.ids().unwrap_or(&[]).to_vec();
                let fetches: Vec<Correctable<Versioned>> = ids
                    .iter()
                    .map(|id| client.invoke_strong(StoreOp::Read(ad_key(*id))))
                    .collect();
                Correctable::join_all(fetches)
            },
            |_| {},
        )
    }

    /// Reassigns a user's personalized ad references (the update half of
    /// the YCSB-style workload).
    pub fn update_profile(&self, uid: u64, rng: &mut SmallRng) -> Correctable<Versioned> {
        let refs = self.dataset.draw_refs(rng);
        self.client.invoke_strong(StoreOp::Write(
            profile_key(uid),
            quorumstore::Value::Ids(refs),
        ))
    }

    /// A deterministic RNG for workload generation.
    pub fn workload_rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::State;
    use quorumstore::ReplicaConfig;

    fn system() -> AdSystem {
        let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 21);
        AdSystem::new(store, AdsDataset::small(), 42)
    }

    #[test]
    fn fetch_returns_all_referenced_ads() {
        let sys = system();
        let c = sys.fetch_ads_by_user_id(3, true);
        sys.store().settle();
        assert_eq!(c.state(), State::Final);
        let ads = c.final_view().unwrap().value;
        assert!(!ads.is_empty());
        assert!(ads.len() <= 40);
        // Every fetched ad is a real ad object.
        for ad in &ads {
            assert_eq!(ad.value, quorumstore::Value::Opaque(200));
        }
    }

    #[test]
    fn icg_fetch_is_faster_than_baseline() {
        // Two identical systems; one speculates, one does not.
        let icg_sys = system();
        let base_sys = system();
        let c1 = icg_sys.fetch_ads_by_user_id(7, true);
        icg_sys.store().settle();
        let t_icg = icg_sys.store().now_ms();
        let c2 = base_sys.fetch_ads_by_user_id(7, false);
        base_sys.store().settle();
        let t_base = base_sys.store().now_ms();
        assert_eq!(
            c1.final_view().unwrap().value.len(),
            c2.final_view().unwrap().value.len()
        );
        // Speculation hides the reference read's quorum latency: the ICG
        // run finishes a full FRK–IRL RTT earlier (~60 vs ~80 ms).
        assert!(
            t_icg + 10.0 < t_base,
            "icg {t_icg}ms vs baseline {t_base}ms"
        );
    }

    #[test]
    fn update_then_fetch_sees_new_refs() {
        let sys = system();
        let mut rng = AdSystem::workload_rng(5);
        let w = sys.update_profile(9, &mut rng);
        sys.store().settle();
        assert_eq!(w.state(), State::Final);
        let c = sys.fetch_ads_by_user_id(9, true);
        sys.store().settle();
        assert_eq!(c.state(), State::Final);
    }
}
