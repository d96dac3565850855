//! The Twissandra-style microblogging service (§6.3.1).
//!
//! The paper instruments Twissandra's central `get_timeline` operation:
//! (1) fetch the timeline (tweet ids), then (2) fetch each tweet by id.
//! With ICG the preliminary timeline view speculatively prefetches the
//! tweets; the final view confirms (or redoes) the prefetch.

use std::sync::Arc;

use correctables::{Client, Correctable};
use quorumstore::{QuorumBinding, SimStore, StoreOp, Value, Versioned};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::dataset::{timeline_key, tweet_key, TwissandraDataset};

/// The microblogging application over a Correctables client.
pub struct Twissandra {
    store: SimStore,
    client: Arc<Client<QuorumBinding>>,
    dataset: TwissandraDataset,
    next_tweet_id: std::sync::atomic::AtomicU64,
}

impl Twissandra {
    /// Builds the application over a simulated store and preloads the
    /// corpus.
    pub fn new(store: SimStore, dataset: TwissandraDataset, seed: u64) -> Self {
        store.preload(dataset.records(seed));
        let client = Arc::new(Client::new(store.binding()));
        let next = dataset.tweets;
        Twissandra {
            store,
            client,
            dataset,
            next_tweet_id: std::sync::atomic::AtomicU64::new(next),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &SimStore {
        &self.store
    }

    /// The dataset parameters.
    pub fn dataset(&self) -> &TwissandraDataset {
        &self.dataset
    }

    /// `get_timeline`: the two-step timeline read, optionally speculating
    /// on the preliminary timeline view (§6.3.1).
    pub fn get_timeline(&self, uid: u64, icg: bool) -> Correctable<Vec<Versioned>> {
        let timeline = if icg {
            self.client.invoke(StoreOp::Read(timeline_key(uid)))
        } else {
            self.client.invoke_strong(StoreOp::Read(timeline_key(uid)))
        };
        let client = Arc::clone(&self.client);
        timeline.speculate_async(
            move |tl: &Versioned| {
                // Prefetch the most recent tweets on the timeline (the UI
                // page: up to 20).
                let ids = tl.value.ids().unwrap_or(&[]);
                let page: Vec<u64> = ids.iter().rev().take(20).copied().collect();
                let fetches: Vec<Correctable<Versioned>> = page
                    .iter()
                    .map(|id| client.invoke_strong(StoreOp::Read(tweet_key(*id))))
                    .collect();
                Correctable::join_all(fetches)
            },
            |_| {},
        )
    }

    /// Posts a tweet: write the tweet body, then append it to the author's
    /// timeline (read-modify-write on the id list).
    pub fn post_tweet(&self, uid: u64, rng: &mut SmallRng) -> Correctable<Versioned> {
        let tweet_id = self
            .next_tweet_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let body_len = self.dataset.tweet_bytes;
        let _ = rng.gen::<u64>();
        let client = Arc::clone(&self.client);
        let tl_key = timeline_key(uid);
        let write_body = self
            .client
            .invoke_strong(StoreOp::Write(tweet_key(tweet_id), Value::Opaque(body_len)));
        // After the body is durable, read-modify-write the timeline.
        write_body.then(move |_| {
            let client2 = Arc::clone(&client);
            client2
                .invoke_strong(StoreOp::Read(tl_key))
                .then(move |tl| {
                    let mut ids = tl.value.value.ids().map(|i| i.to_vec()).unwrap_or_default();
                    ids.push(tweet_id);
                    client.invoke_strong(StoreOp::Write(tl_key, Value::Ids(ids)))
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::State;
    use quorumstore::ReplicaConfig;
    use rand::SeedableRng;
    use simnet::Topology;

    fn app() -> Twissandra {
        // The paper's Twissandra deployment: replicas in VRG/NCAL/ORE,
        // client in IRL, coordinator VRG.
        let store = SimStore::custom(
            Topology::ec2_us_wide(),
            &["VRG", "NCAL", "ORE"],
            ReplicaConfig::default(),
            2,
            false,
            "IRL",
            0,
            77,
        );
        Twissandra::new(store, TwissandraDataset::small(), 3)
    }

    #[test]
    fn get_timeline_fetches_page_of_tweets() {
        let a = app();
        let c = a.get_timeline(5, true);
        a.store().settle();
        assert_eq!(c.state(), State::Final);
        let tweets = c.final_view().unwrap().value;
        assert!(tweets.len() <= 20);
        for t in &tweets {
            assert_eq!(t.value, Value::Opaque(140));
        }
    }

    #[test]
    fn post_then_read_timeline_contains_tweet() {
        let a = app();
        let mut rng = SmallRng::seed_from_u64(8);
        let post = a.post_tweet(5, &mut rng);
        a.store().settle();
        assert_eq!(post.state(), State::Final);
        // The timeline now ends with the fresh tweet id.
        let read = a.store().binding();
        let client = Client::new(read);
        let c = client.invoke_strong(StoreOp::Read(timeline_key(5)));
        a.store().settle();
        let ids = c.final_view().unwrap().value.value.ids().unwrap().to_vec();
        assert_eq!(*ids.last().unwrap(), a.dataset().tweets);
    }

    #[test]
    fn icg_timeline_read_is_faster() {
        let icg = app();
        let c1 = icg.get_timeline(2, true);
        icg.store().settle();
        let t_icg = icg.store().now_ms();
        let base = app();
        let c2 = base.get_timeline(2, false);
        base.store().settle();
        let t_base = base.store().now_ms();
        assert_eq!(c1.state(), State::Final);
        assert_eq!(c2.state(), State::Final);
        assert!(t_icg < t_base, "icg {t_icg} vs base {t_base}");
    }
}
