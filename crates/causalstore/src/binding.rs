//! The three-level binding: client cache / causal backup / primary.
//!
//! This is the binding of §4.4's smartphone news reader (Listing 6): one
//! logical `invoke(get(...))` fans out into (1) an instant answer from the
//! client-side cache, (2) a fresher causally consistent view from the
//! closest backup, and (3) the most up-to-date view from the (distant)
//! primary. The binding also keeps the cache write-through coherent, so
//! `invoke_weak`/`invoke_strong` subsume the manual cache handling the
//! paper criticizes in Reddit's code (Listings 1–2).
//!
//! An operation's key and list are converted to shared form once, where
//! they enter the gateway ([`CacheOp`], [`SimCausal::seed`],
//! [`SimCausal::publish`]); the cache, the messages and the views then
//! share them.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use correctables::{ConsistencyLevel, Error, KeyedOp, ObjectId, Upcall};
use simnet::{
    Ctx, Engine, GatewayProto, NodeId, PendingOps, SimBinding, SimDuration, SimHost, SimTime,
    Submission, Topology,
};

use crate::store::{CausalReplica, Item, Msg, OpId};

/// Operations of the cached causal store.
#[derive(Clone, Debug)]
pub enum CacheOp {
    /// Read a key.
    Get(String),
    /// Write a key (write-through, serialized at the primary).
    Put(String, Vec<u64>),
}

impl KeyedOp for CacheOp {
    fn object_id(&self) -> ObjectId {
        match self {
            CacheOp::Get(key) | CacheOp::Put(key, _) => ObjectId::from_bytes(key.as_bytes()),
        }
    }
}

/// Timing of one completed operation, per level, in virtual milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelTiming {
    /// (level name, milliseconds after submission) per delivered view.
    pub views: Views,
}

/// The views of one operation: at most one per level of three, kept
/// inline. Reads as a slice, and prints as the `Vec` it replaced.
#[derive(Clone, Copy, Default)]
pub struct Views {
    len: u8,
    slots: [(&'static str, f64); 3],
}

impl Views {
    /// Appends a view. The binding delivers at most one per level, so
    /// there is no fourth; one would be dropped.
    fn push(&mut self, view: (&'static str, f64)) {
        if let Some(slot) = self.slots.get_mut(usize::from(self.len)) {
            *slot = view;
            self.len += 1;
        }
    }
}

impl Deref for Views {
    type Target = [(&'static str, f64)];

    fn deref(&self) -> &Self::Target {
        self.slots.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl fmt::Debug for Views {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// What the gateway keeps per outstanding operation.
pub struct GwPending {
    upcall: Upcall<Option<Item>>,
    key: Arc<str>,
    want_causal: bool,
    want_strong: bool,
    start: SimTime,
    timing: LevelTiming,
    items_written: Option<Arc<[u64]>>,
}

/// The cached store's client protocol: the cache answers at once,
/// causal reads go to the nearest backup, strong reads and writes to
/// the primary; every reply refreshes the cache. The client keeps the
/// cache and a [`LevelTiming`] per closed operation.
pub struct CacheClient {
    backup: NodeId,
    primary: NodeId,
    cache: HashMap<Arc<str>, Item>,
    timings: Vec<LevelTiming>,
}

impl CacheClient {
    fn refresh_cache(&mut self, key: &Arc<str>, data: &Option<Item>) {
        if let Some(item) = data {
            let fresher = self.cache.get(key).map(|cur| item.rev > cur.rev);
            if fresher.unwrap_or(true) {
                self.cache.insert(Arc::clone(key), item.clone());
            }
        }
    }
}

impl GatewayProto for CacheClient {
    type Msg = Msg;
    type Op = CacheOp;
    type Val = Option<Item>;
    type Pending = GwPending;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        seq: u64,
        q: Submission<CacheOp, Option<Item>>,
    ) -> Option<GwPending> {
        let op = OpId {
            client: ctx.id(),
            seq,
        };
        let has = |l| q.levels.contains(l);
        match q.op {
            CacheOp::Get(key) => {
                let key = Arc::<str>::from(key);
                let mut timing = LevelTiming::default();
                if has(ConsistencyLevel::CACHE) {
                    let hit = self.cache.get(&key).cloned();
                    timing.views.push(("cache", 0.0));
                    q.upcall.deliver(hit, ConsistencyLevel::CACHE);
                }
                let want_causal = has(ConsistencyLevel::CAUSAL);
                let want_strong = has(ConsistencyLevel::STRONG);
                if !want_causal && !want_strong {
                    self.timings.push(timing);
                    return None;
                }
                for (wanted, replica) in [(want_causal, self.backup), (want_strong, self.primary)] {
                    if wanted {
                        ctx.send(
                            replica,
                            Msg::Read {
                                op,
                                key: Arc::clone(&key),
                            },
                        );
                    }
                }
                Some(GwPending {
                    upcall: q.upcall,
                    key,
                    want_causal,
                    want_strong,
                    start: ctx.now(),
                    timing,
                    items_written: None,
                })
            }
            CacheOp::Put(key, items) => {
                let (key, items) = (Arc::<str>::from(key), Arc::<[u64]>::from(items));
                // Write-through: the cache adopts the value at once
                // (revision settles when the ack arrives).
                let rev = self.cache.get(&key).map(|i| i.rev + 1).unwrap_or(1);
                let item = Item {
                    rev,
                    items: Arc::clone(&items),
                };
                self.cache.insert(Arc::clone(&key), item);
                ctx.send(
                    self.primary,
                    Msg::Write {
                        op,
                        key: Arc::clone(&key),
                        items: Arc::clone(&items),
                    },
                );
                Some(GwPending {
                    upcall: q.upcall,
                    key,
                    want_causal: false,
                    want_strong: true,
                    start: ctx.now(),
                    timing: LevelTiming::default(),
                    items_written: Some(items),
                })
            }
        }
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, pending: &mut PendingOps<GwPending>, msg: Msg) {
        match msg {
            Msg::ReadResp {
                op,
                data,
                from_primary,
            } => {
                let Some(p) = pending.get_mut(op.seq) else {
                    return;
                };
                let level = if from_primary {
                    p.want_strong = false;
                    ConsistencyLevel::STRONG
                } else {
                    p.want_causal = false;
                    ConsistencyLevel::CAUSAL
                };
                let ms = ctx.now().since(p.start).as_millis_f64();
                p.timing.views.push((level.name(), ms));
                self.refresh_cache(&p.key, &data);
                p.upcall.deliver(data, level);
                if !p.want_strong && !p.want_causal {
                    if let Some(p) = pending.remove(op.seq) {
                        self.timings.push(p.timing);
                    }
                }
            }
            Msg::WriteAck { op, rev } => {
                if let Some(mut p) = pending.remove(op.seq) {
                    let ms = ctx.now().since(p.start).as_millis_f64();
                    p.timing.views.push(("strong", ms));
                    // Settle the cache revision to the primary's.
                    let items = p.items_written.unwrap_or_default();
                    let item = Item { rev, items };
                    self.cache.insert(p.key, item.clone());
                    p.upcall.deliver(Some(item), ConsistencyLevel::STRONG);
                    self.timings.push(p.timing);
                }
            }
            _ => {}
        }
    }

    /// A reply was lost: fail the operation. Views already delivered
    /// (cache, causal) stand; the close is exceptional.
    fn expire(&mut self, p: GwPending) {
        self.timings.push(p.timing);
        p.upcall.fail(Error::Timeout);
    }
}

/// A simulated cached causal store (primary + backups + client cache).
/// Faults, client deadlines, `settle`/`advance` and the clock mirror
/// come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimCausal {
    host: SimHost<CacheClient>,
    primary: NodeId,
}

impl Deref for SimCausal {
    type Target = SimHost<CacheClient>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimCausal {
    /// Builds the news-reader deployment: primary at `primary_site`,
    /// backups at the remaining paper sites, client (and cache) at
    /// `client_site` reading causally from the nearest backup.
    ///
    /// # Panics
    ///
    /// Panics if a site name is unknown.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "setup API: panics as documented"
    )]
    pub fn ec2(primary_site: &str, client_site: &str, seed: u64) -> SimCausal {
        // Replica `i` lives at `SiteId(i)`.
        let primary_idx = Topology::ec2_frk_irl_vrg()
            .site_named(primary_site)
            .expect("known primary site")
            .0;
        let (engine, replicas) = Engine::ec2(seed, |i, ids| {
            Box::new(CausalReplica::new(i, ids, primary_idx))
        });
        let client_site_id = engine
            .topology()
            .site_named(client_site)
            .expect("known client site");
        // The causal backup is the non-primary replica closest to the client.
        let backup = replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != primary_idx)
            .min_by_key(|(_, id)| {
                engine
                    .topology()
                    .base_one_way(client_site_id, engine.site_of(**id))
            })
            .map(|(_, id)| *id)
            .expect("at least one backup");
        let primary = replicas[primary_idx];
        let proto = CacheClient {
            backup,
            primary,
            cache: HashMap::new(),
            timings: Vec::new(),
        };
        SimCausal {
            host: SimHost::new(engine, replicas, client_site_id, proto),
            primary,
        }
    }

    /// The Correctables binding.
    pub fn binding(&self) -> CausalBinding {
        let levels = [
            ConsistencyLevel::CACHE,
            ConsistencyLevel::CAUSAL,
            ConsistencyLevel::STRONG,
        ];
        SimBinding::new(self.host.clone(), &levels)
    }

    /// Seeds a key on every replica and in the cache.
    pub fn seed(&self, key: &str, rev: u64, items: Vec<u64>) {
        let (key, item) = self.seed_replicas(key, rev, items);
        self.with_proto(|p| p.cache.insert(key, item));
    }

    /// Seeds a key only on the replicas (cold cache).
    pub fn seed_remote_only(&self, key: &str, rev: u64, items: Vec<u64>) {
        self.seed_replicas(key, rev, items);
    }

    /// Converts a seeded key and list to shared form, once, and seeds
    /// every replica with them.
    fn seed_replicas(&self, key: &str, rev: u64, items: Vec<u64>) -> (Arc<str>, Item) {
        let key = Arc::<str>::from(key);
        let item = Item {
            rev,
            items: items.into(),
        };
        self.each_replica(|r: &mut CausalReplica| r.seed(Arc::clone(&key), item.clone()));
        (key, item)
    }

    /// Writes directly at the primary, bypassing the client (models other
    /// users publishing news); backups receive it causally.
    pub fn publish(&self, key: &str, items: Vec<u64>) {
        let gw = self.gateway_id();
        let write = Msg::Write {
            op: OpId {
                client: gw,
                seq: u64::MAX,
            },
            key: key.into(),
            items: items.into(),
        };
        self.with_engine(|e| e.schedule_message(gw, self.primary, SimDuration::ZERO, write));
    }

    /// Timings of completed operations. Must not be called from inside
    /// a callback: the engine is locked while it runs.
    pub fn timings(&self) -> Vec<LevelTiming> {
        self.with_proto(|p| p.timings.clone())
    }

    /// Direct cache inspection (tests). Must not be called from inside
    /// a callback, as [`SimCausal::timings`].
    pub fn cached(&self, key: &str) -> Option<Item> {
        self.with_proto(|p| p.cache.get(key).cloned())
    }
}

/// The three-level (cache/causal/strong) `Binding` over a [`SimCausal`].
pub type CausalBinding = SimBinding<CacheClient>;

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::Client;

    #[test]
    fn three_views_arrive_in_level_order() {
        let s = SimCausal::ec2("VRG", "IRL", 3);
        s.seed("news", 1, vec![100]);
        let client = Client::new(s.binding());
        let c = client.invoke(CacheOp::Get("news".into()));
        s.settle();
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 2);
        assert_eq!(prelims[0].level, ConsistencyLevel::CACHE);
        assert_eq!(prelims[1].level, ConsistencyLevel::CAUSAL);
        assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::STRONG);
        // Cache is instant; causal ~RTT(IRL, FRK); strong ~RTT(IRL, VRG).
        let t = &s.timings()[0];
        assert_eq!(t.views[0], ("cache", 0.0));
        assert!(t.views[1].1 < 30.0, "causal {:?}", t.views);
        assert!(t.views[2].1 > 70.0, "strong {:?}", t.views);
    }

    #[test]
    fn cache_miss_reads_none_then_refreshes() {
        let s = SimCausal::ec2("VRG", "IRL", 4);
        s.seed_remote_only("news", 3, vec![1, 2]);
        let client = Client::new(s.binding());
        let c = client.invoke(CacheOp::Get("news".into()));
        s.settle();
        assert_eq!(c.preliminary_views()[0].value, None, "cold cache");
        assert!(c.final_view().unwrap().value.is_some());
        // The read refreshed the cache.
        assert_eq!(s.cached("news").map(|i| i.rev), Some(3));
    }

    #[test]
    fn write_through_updates_cache_and_primary() {
        let s = SimCausal::ec2("VRG", "IRL", 5);
        let client = Client::new(s.binding());
        let w = client.invoke_strong(CacheOp::Put("news".into(), vec![9]));
        s.settle();
        assert_eq!(w.final_view().unwrap().value.map(|i| i.rev), Some(1));
        assert_eq!(s.cached("news").map(|i| i.items.to_vec()), Some(vec![9]));
        // Strong read sees it immediately.
        let r = client.invoke_strong(CacheOp::Get("news".into()));
        s.settle();
        assert_eq!(
            r.final_view().unwrap().value.map(|i| i.items.to_vec()),
            Some(vec![9])
        );
    }

    #[test]
    fn stale_cache_diverges_from_primary_until_propagation() {
        let s = SimCausal::ec2("VRG", "IRL", 6);
        s.seed("news", 1, vec![1]);
        // Someone else publishes fresher news directly at the primary.
        s.publish("news", vec![1, 2]);
        s.advance(SimDuration::from_millis(1));
        let client = Client::new(s.binding());
        let c = client.invoke(CacheOp::Get("news".into()));
        s.settle();
        let views = c.preliminary_views();
        // Cache still shows the old revision; the final shows the new one.
        assert_eq!(
            views[0].value.as_ref().map(|i| i.items.to_vec()),
            Some(vec![1])
        );
        assert_eq!(
            c.final_view().unwrap().value.map(|i| i.items.to_vec()),
            Some(vec![1, 2])
        );
    }

    #[test]
    fn invoke_weak_is_cache_only_and_instant() {
        let s = SimCausal::ec2("VRG", "IRL", 7);
        s.seed("k", 2, vec![5]);
        let client = Client::new(s.binding());
        let c = client.invoke_weak(CacheOp::Get("k".into()));
        s.settle();
        let v = c.final_view().unwrap();
        assert_eq!(v.level, ConsistencyLevel::CACHE);
        assert_eq!(v.value.map(|i| i.items.to_vec()), Some(vec![5]));
    }

    /// A put converts its list once: the cache, the acknowledged view,
    /// the primary's entry and the backups' share it.
    #[test]
    fn a_put_shares_its_list_with_the_cache_and_the_write() {
        let s = SimCausal::ec2("VRG", "IRL", 8);
        let client = Client::new(s.binding());
        let w = client.invoke_strong(CacheOp::Put("news".into(), vec![9, 10]));
        s.settle();
        s.advance(SimDuration::from_millis(500));
        let acked = w.final_view().unwrap().value.unwrap();
        assert_eq!(*acked.items, [9, 10]);
        let cached = s.cached("news").unwrap();
        assert!(
            Arc::ptr_eq(&cached.items, &acked.items),
            "the cache copied the list"
        );
        let shared = s
            .each_replica(|r: &mut CausalReplica| Arc::ptr_eq(&r.data["news"].items, &acked.items));
        assert_eq!(shared, [true; 3], "a replica copied the list");
    }

    /// The timing list the inline views replaced.
    mod old {
        #[derive(Debug)]
        pub struct LevelTiming {
            pub views: Vec<(&'static str, f64)>,
        }
    }

    #[test]
    fn inline_timings_print_and_read_as_the_vec_they_replace() {
        let all = [("cache", 0.0), ("causal", 12.5), ("strong", 83.25)];
        for n in 0..=all.len() {
            let mut timing = LevelTiming::default();
            for &view in &all[..n] {
                timing.views.push(view);
            }
            let old = old::LevelTiming {
                views: all[..n].to_vec(),
            };
            assert_eq!(&*timing.views, &old.views[..]);
            assert_eq!(format!("{:?}", timing.views), format!("{:?}", old.views));
            assert_eq!(format!("{timing:?}"), format!("{old:?}"));
            assert_eq!(format!("{timing:#?}"), format!("{old:#?}"));
        }
    }
}
