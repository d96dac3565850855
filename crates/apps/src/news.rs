//! The smartphone news reader (§4.4, Listing 6).
//!
//! One logical `invoke(getLatestNews())` yields three progressively
//! fresher views — local cache, nearest backup (causal), distant primary
//! (strong) — and the display refreshes on each.

use std::sync::Arc;

use causalstore::{CacheOp, Item, SimCausal};
use correctables::{Client, ConsistencyLevel, Correctable};
use parking_lot::Mutex;

/// One display refresh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refresh {
    /// The consistency level of the view that triggered the refresh.
    pub level: ConsistencyLevel,
    /// The news-item ids shown.
    pub items: Vec<u64>,
}

/// The news reader application.
pub struct NewsReader {
    store: SimCausal,
    client: Client<causalstore::CausalBinding>,
    /// Every display refresh, in order (the "screen").
    pub display: Arc<Mutex<Vec<Refresh>>>,
}

/// The well-known key holding the latest news item ids.
pub const LATEST: &str = "news:latest";

impl NewsReader {
    /// Opens a reader over a cached causal store.
    pub fn new(store: SimCausal) -> Self {
        let client = Client::new(store.binding());
        NewsReader {
            store,
            client,
            display: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &SimCausal {
        &self.store
    }

    /// Listing 6: fetch the latest news, refreshing the display with every
    /// incremental view.
    pub fn get_latest_news(&self) -> Correctable<Option<Item>> {
        let c = self.client.invoke(CacheOp::Get(LATEST.into()));
        let disp_u = Arc::clone(&self.display);
        c.on_update(move |view| {
            disp_u.lock().push(Refresh {
                level: view.level,
                items: view
                    .value
                    .as_ref()
                    .map(|i| i.items.to_vec())
                    .unwrap_or_default(),
            });
        });
        let disp_f = Arc::clone(&self.display);
        c.on_final(move |view| {
            disp_f.lock().push(Refresh {
                level: view.level,
                items: view
                    .value
                    .as_ref()
                    .map(|i| i.items.to_vec())
                    .unwrap_or_default(),
            });
        });
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    #[test]
    fn display_refreshes_three_times_in_freshness_order() {
        let store = SimCausal::ec2("VRG", "IRL", 31);
        store.seed(LATEST, 1, vec![1, 2]);
        let reader = NewsReader::new(store);
        reader.get_latest_news();
        reader.store().settle();
        let refreshes = reader.display.lock().clone();
        assert_eq!(refreshes.len(), 3);
        assert_eq!(refreshes[0].level, ConsistencyLevel::CACHE);
        assert_eq!(refreshes[1].level, ConsistencyLevel::CAUSAL);
        assert_eq!(refreshes[2].level, ConsistencyLevel::STRONG);
    }

    #[test]
    fn fresh_publication_reaches_the_final_view_first() {
        let store = SimCausal::ec2("VRG", "IRL", 32);
        store.seed(LATEST, 1, vec![1]);
        // Breaking news published at the primary moments ago.
        store.publish(LATEST, vec![1, 99]);
        store.advance(SimDuration::from_millis(2));
        let reader = NewsReader::new(store);
        reader.get_latest_news();
        reader.store().settle();
        let refreshes = reader.display.lock().clone();
        // Cache still shows the old items; the strong view has the scoop.
        assert_eq!(refreshes[0].items, vec![1]);
        assert_eq!(refreshes.last().unwrap().items, vec![1, 99]);
    }
}
