//! The Correctables binding for the quorum store (the paper's "CC binding").
//!
//! [`SimStore`] wraps a simulated cluster plus a **gateway** client node and
//! exposes a [`QuorumBinding`] whose levels are `Weak` (R = 1) and `Strong`
//! (R = `r_strong`):
//!
//! - `invoke_weak`  → a single `R = 1` read (baseline C1);
//! - `invoke_strong` → a single quorum read (baseline C2/C3);
//! - `invoke` → a server-side ICG read: preliminary flush + final quorum
//!   view (CC), with the confirmation optimization if enabled (*CC).
//!
//! Because the simulator is single-threaded, `submit` only *enqueues*
//! operations; [`SimHost::settle`] drives the engine until every
//! outstanding Correctable resolves. Operations issued from inside
//! callbacks (speculative prefetches!) are picked up by the gateway at the
//! very simulation instant the callback runs, so chained latencies are
//! measured exactly as a real asynchronous client would experience them.
//! That shell — queue, kick, client deadline, `settle`, the binding
//! itself — is [`simnet`]'s; this file only says what a quorum-store
//! client sends and how it reads the replies ([`QuorumClient`]).

use std::ops::Deref;

use correctables::{ConsistencyLevel, Error};
use simnet::{
    Ctx, Engine, GatewayProto, NodeId, PendingOps, SimBinding, SimHost, SimTime, Submission,
    Topology,
};

use crate::client::{encode_submit, on_reply, read_kind, ClientOp, Step, StoreOp};
use crate::host::{ReplicaConfig, SimReplica};
use crate::messages::Msg;
use crate::types::{Key, Value, Version, Versioned};

/// Timing of one completed gateway operation, in virtual milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// When the preliminary view arrived (ICG reads only).
    pub prelim_ms: Option<f64>,
    /// When the final view arrived.
    pub final_ms: f64,
    /// Whether this was a read.
    pub is_read: bool,
}

/// What the gateway keeps per outstanding operation: the client core's
/// entry, and when things happened.
pub struct GwPending {
    op: ClientOp,
    start: SimTime,
    prelim_at: Option<SimTime>,
    is_read: bool,
}

/// The simulated host of the quorum store's client protocol
/// ([`crate::client`]): every operation goes to one coordinator
/// replica, reads at the quorum the requested levels name, and every
/// closed one leaves an [`OpTiming`].
pub struct QuorumClient {
    coordinator: NodeId,
    r_strong: u8,
    confirm: bool,
    timings: Vec<OpTiming>,
}

impl GatewayProto for QuorumClient {
    type Msg = Msg;
    type Op = StoreOp;
    type Val = Versioned;
    type Pending = GwPending;

    fn start(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        seq: u64,
        sub: Submission<StoreOp, Versioned>,
    ) -> Option<GwPending> {
        let is_read = matches!(sub.op, StoreOp::Read(_));
        let kind = read_kind(sub.levels.as_slice(), self.r_strong, self.confirm);
        let (msg, op) = encode_submit(ctx.id(), seq, sub.op, kind, sub.upcall);
        ctx.send(self.coordinator, msg);
        Some(GwPending {
            op,
            start: ctx.now(),
            prelim_at: None,
            is_read,
        })
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, pending: &mut PendingOps<GwPending>, msg: Msg) {
        let held = on_reply(ctx.id(), msg, |seq| pending.get_mut(seq).map(|p| &mut p.op));
        let Some((seq, step)) = held else {
            return;
        };
        let now = ctx.now();
        if step == Step::Preliminary {
            if let Some(p) = pending.get_mut(seq) {
                p.prelim_at = Some(now);
            }
            return;
        }
        let Some(p) = pending.remove(seq) else {
            return;
        };
        if step == Step::Closed {
            self.timings.push(OpTiming {
                prelim_ms: p.prelim_at.map(|t| t.since(p.start).as_millis_f64()),
                final_ms: now.since(p.start).as_millis_f64(),
                is_read: p.is_read,
            });
        }
    }

    /// A reply was lost (downtime, partition, drop) — fail the
    /// Correctable so callers observe the outage.
    fn expire(&mut self, p: GwPending) {
        p.op.fail(Error::Timeout);
    }
}

/// A simulated quorum store with a synchronously driveable binding.
/// Faults, client deadlines, `settle`/`advance` and the clock mirror
/// come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimStore {
    host: SimHost<QuorumClient>,
}

impl Deref for SimStore {
    type Target = SimHost<QuorumClient>;

    fn deref(&self) -> &Self::Target {
        &self.host
    }
}

impl SimStore {
    /// Builds the paper's FRK/IRL/VRG deployment with the client gateway at
    /// `client_site` (by name) connected to `coordinator_idx` (index into
    /// the replica list, FRK/IRL/VRG order).
    ///
    /// # Panics
    ///
    /// Panics if the site name is unknown.
    pub fn ec2(
        cfg: ReplicaConfig,
        r_strong: u8,
        confirm: bool,
        client_site: &str,
        coordinator_idx: usize,
        seed: u64,
    ) -> SimStore {
        SimStore::custom(
            Topology::ec2_frk_irl_vrg(),
            &["FRK", "IRL", "VRG"],
            cfg,
            r_strong,
            confirm,
            client_site,
            coordinator_idx,
            seed,
        )
    }

    /// Builds a deployment over an arbitrary topology (e.g. the Twissandra
    /// US-wide deployment of §6.3.1).
    ///
    /// # Panics
    ///
    /// Panics if a site name is unknown or `coordinator_idx` is out of
    /// range.
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::panic,
        clippy::indexing_slicing,
        reason = "setup API: panics as documented"
    )]
    pub fn custom(
        topology: Topology,
        replica_sites: &[&str],
        cfg: ReplicaConfig,
        r_strong: u8,
        confirm: bool,
        client_site: &str,
        coordinator_idx: usize,
        seed: u64,
    ) -> SimStore {
        let site_named = |name: &str| {
            let site = topology.site_named(name);
            site.unwrap_or_else(|| panic!("unknown site {name}"))
        };
        let client_site = site_named(client_site);
        let sites: Vec<_> = replica_sites.iter().map(|n| site_named(n)).collect();
        // How far each replica's peers are, in `NodeId::peers_of` order.
        let mut distances: Vec<Vec<_>> = (0..sites.len())
            .map(|i| {
                let peer = |j: usize| topology.base_one_way(sites[i], sites[j]);
                (0..sites.len()).filter(|&j| j != i).map(peer).collect()
            })
            .collect();
        let (engine, replicas) = Engine::with_replicas(topology, seed, &sites, |i, ids| {
            let distance = std::mem::take(&mut distances[i]);
            let replica = SimReplica::new(cfg, ids[i], NodeId::peers_of(ids, i), distance);
            Box::new(replica)
        });
        let proto = QuorumClient {
            coordinator: replicas[coordinator_idx],
            r_strong,
            confirm,
            timings: Vec::new(),
        };
        SimStore {
            host: SimHost::new(engine, replicas, client_site, proto),
        }
    }

    /// One more client of the same deployment: a gateway at
    /// `client_site` connected to `coordinator_idx`, with its own op
    /// ids, client deadline, clock, `settle` and [`SimStore::timings`].
    ///
    /// # Panics
    ///
    /// Panics if the site name is unknown or `coordinator_idx` is out of
    /// range.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "setup API: panics as documented"
    )]
    pub fn client_at(&self, client_site: &str, coordinator_idx: usize) -> SimStore {
        let site = self.with_engine(|e| e.topology().site_named(client_site));
        let coordinator = self.replica_ids()[coordinator_idx];
        let proto = self.with_proto(|p| QuorumClient {
            coordinator,
            timings: Vec::new(),
            ..*p
        });
        SimStore {
            host: self.host.add_gateway(site.expect("known site"), proto),
        }
    }

    /// The Correctables binding over this store.
    pub fn binding(&self) -> QuorumBinding {
        let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
        SimBinding::new(self.host.clone(), &levels)
    }

    /// Seeds every replica with the same records (version 1), modelling a
    /// converged preloaded dataset as YCSB's load phase produces. A
    /// replica already holding a newer version of a key keeps it.
    ///
    /// Each replica's table is sized for the records before they go in,
    /// so seeding never rehashes; every replica but the last gets
    /// clones, and the last gets the records themselves.
    pub fn preload<I>(&self, records: I)
    where
        I: IntoIterator<Item = (Key, Value)>,
    {
        let version = Version { ts: 1, writer: 0 };
        let mut seeded: Vec<(Key, Versioned)> = records
            .into_iter()
            .map(|(k, value)| (k, Versioned { value, version }))
            .collect();
        let mut left = self.replica_ids().len();
        self.each_replica(|r: &mut SimReplica| {
            let store = r.store();
            store.reserve(seeded.len());
            left -= 1;
            if left > 0 {
                for (k, v) in &seeded {
                    store.apply(*k, v.clone());
                }
            } else {
                for (k, v) in seeded.drain(..) {
                    store.apply(k, v);
                }
            }
        });
    }

    /// Timings of all completed operations so far. Must not be called
    /// from inside a callback: the engine is locked while it runs.
    pub fn timings(&self) -> Vec<OpTiming> {
        self.with_proto(|p| p.timings.clone())
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now().as_millis_f64()
    }
}

/// The weak/strong `Binding` over a [`SimStore`].
pub type QuorumBinding = SimBinding<QuorumClient>;

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::{Client, State};

    fn store(confirm: bool) -> SimStore {
        // Client in IRL, coordinator in FRK — the paper's §6.1 setup.
        let s = SimStore::ec2(ReplicaConfig::default(), 2, confirm, "IRL", 0, 42);
        s.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
        s
    }

    #[test]
    fn preload_seeds_each_of_the_three_replicas() {
        let s = store(false);
        assert_eq!(s.replica_ids().len(), 3);
        let seeded = s.each_replica(|r: &mut SimReplica| {
            (r.store().len(), r.store().get(Key::plain(3)).version.ts)
        });
        assert_eq!(seeded, [(32, 1); 3]);
    }

    /// The last replica is seeded by move, the others by clone: all three
    /// end with the same table, a key given twice included.
    #[test]
    fn the_replica_seeded_by_move_equals_the_ones_seeded_by_clone() {
        let s = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 42);
        let ids = |i: u64| Value::Ids((0..i % 40).collect());
        let records = (0..500).map(|i| (Key { ns: 1, id: i % 450 }, ids(i)));
        s.preload(records);
        let tables = s.each_replica(|r: &mut SimReplica| r.store().clone());
        assert_eq!(tables[0].len(), 450);
        assert_eq!(tables[0].get(Key { ns: 1, id: 7 }).value, ids(7));
        assert!(tables[1] == tables[0] && tables[2] == tables[0]);
    }

    /// Preloading is last-writer-wins like any write: a replica already
    /// holding a newer version of a key keeps it, whether it is seeded
    /// by clone or by move.
    #[test]
    fn preload_keeps_a_newer_version_a_replica_already_holds() {
        let s = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 42);
        let newer = Versioned {
            value: Value::Opaque(7),
            version: Version { ts: 2, writer: 1 },
        };
        s.each_replica(|r: &mut SimReplica| r.store().apply(Key::plain(3), newer.clone()));
        s.preload((0..32).map(|i| (Key::plain(i), Value::Opaque(100))));
        let held = s.each_replica(|r: &mut SimReplica| {
            (
                r.store().len(),
                r.store().get(Key::plain(3)),
                r.store().get(Key::plain(4)).version.ts,
            )
        });
        assert_eq!(held, vec![(32, newer, 1); 3]);
    }

    #[test]
    fn invoke_weak_closes_with_single_view() {
        let s = store(false);
        let client = Client::new(s.binding());
        let c = client.invoke_weak(StoreOp::Read(Key::plain(1)));
        assert_eq!(c.state(), State::Updating);
        s.settle();
        let v = c.final_view().expect("settled");
        assert_eq!(v.level, ConsistencyLevel::WEAK);
        assert_eq!(v.value.value, Value::Opaque(100));
        assert!(c.preliminary_views().is_empty());
    }

    #[test]
    fn invoke_gives_preliminary_then_final() {
        let s = store(false);
        let client = Client::new(s.binding());
        let c = client.invoke(StoreOp::Read(Key::plain(1)));
        s.settle();
        assert_eq!(c.preliminary_views().len(), 1);
        assert_eq!(c.final_view().unwrap().level, ConsistencyLevel::STRONG);
        // Preliminary (local flush) must beat final (quorum of 2) by ~ the
        // FRK–IRL RTT.
        let t = s.timings();
        assert_eq!(t.len(), 1);
        let gap = t[0].final_ms - t[0].prelim_ms.unwrap();
        assert!((15.0..30.0).contains(&gap), "gap {gap}ms");
    }

    #[test]
    fn preliminary_latency_tracks_client_coordinator_rtt() {
        let s = store(false);
        let client = Client::new(s.binding());
        let _c = client.invoke(StoreOp::Read(Key::plain(3)));
        s.settle();
        let t = s.timings()[0];
        let p = t.prelim_ms.unwrap();
        assert!((18.0..26.0).contains(&p), "prelim {p}ms");
    }

    #[test]
    fn write_then_strong_read_sees_value() {
        let s = store(false);
        let client = Client::new(s.binding());
        let w = client.invoke_strong(StoreOp::Write(Key::plain(5), Value::Opaque(77)));
        s.settle();
        assert_eq!(w.state(), State::Final);
        let r = client.invoke_strong(StoreOp::Read(Key::plain(5)));
        s.settle();
        assert_eq!(r.final_view().unwrap().value.value, Value::Opaque(77));
    }

    #[test]
    fn confirmation_mode_still_delivers_final_value() {
        let s = store(true);
        let client = Client::new(s.binding());
        let c = client.invoke(StoreOp::Read(Key::plain(2)));
        s.settle();
        // No write raced, so the final equals the preliminary and arrived
        // as a confirmation — the value must still be the real record.
        let v = c.final_view().unwrap();
        assert_eq!(v.value.value, Value::Opaque(100));
        assert_eq!(v.level, ConsistencyLevel::STRONG);
    }

    #[test]
    fn nested_invoke_from_callback_resolves_in_same_settle() {
        let s = store(false);
        let client = Client::new(s.binding());
        let binding = s.binding();
        // Speculatively chase a pointer: read key 1, then read key 2.
        let out = client.invoke(StoreOp::Read(Key::plain(1))).speculate_async(
            move |_v: &Versioned| {
                Client::new(binding.clone()).invoke_strong(StoreOp::Read(Key::plain(2)))
            },
            |_| {},
        );
        s.settle();
        assert_eq!(out.state(), State::Final);
        // Speculation started at the preliminary (~20ms) and took a strong
        // read (~40ms): total ~60ms, well before prelim+final+strong (~80).
        let ts = s.timings();
        assert_eq!(ts.len(), 2, "outer read + nested read");
    }

    #[test]
    fn stray_write_ack_fails_a_read_instead_of_fabricating_absent() {
        let s = store(false);
        s.set_client_timeout(simnet::SimDuration::from_secs(1));
        let client = Client::new(s.binding());
        let c = client.invoke_strong(StoreOp::Read(Key::plain(1)));
        // A confused (or hostile) coordinator acknowledges the read as
        // if it were a write; it lands before the real reply.
        let (gw, frk) = (s.gateway_id(), s.replica_ids()[0]);
        let ack = Msg::WriteReply {
            op: crate::types::OpId { client: gw, seq: 0 },
        };
        let soon = simnet::SimDuration::from_millis(1);
        s.with_engine(|e| e.schedule_message(frk, gw, soon, ack));
        s.settle();
        // Not "the key does not exist", at STRONG.
        assert!(c.final_view().is_none());
        assert!(matches!(c.error(), Some(Error::Unavailable(_))));
        assert!(s.timings().is_empty(), "a failed op leaves no timing");
    }

    #[test]
    fn two_clients_of_one_deployment_keep_their_own_books() {
        let irl = store(false);
        irl.set_client_timeout(simnet::SimDuration::from_secs(1));
        let frk = irl.client_at("FRK", 2);
        let near = Client::new(irl.binding()).invoke(StoreOp::Read(Key::plain(1)));
        let far = Client::new(frk.binding()).invoke_weak(StoreOp::Read(Key::plain(2)));
        // Settling one client drives the shared engine but kicks only
        // that client's gateway.
        irl.settle();
        assert_eq!((near.state(), far.state()), (State::Final, State::Updating));
        frk.settle();
        assert_eq!(far.state(), State::Final);
        // Both ops are seq 0 of their client: neither closed the other's.
        assert_eq!((irl.timings().len(), frk.timings().len()), (1, 1));
        assert!(irl.timings()[0].prelim_ms.is_some() && frk.timings()[0].prelim_ms.is_none());
        assert!(frk.gateway_link_bytes() > 0 && irl.gateway_id() != frk.gateway_id());
    }
}
