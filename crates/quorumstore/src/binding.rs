//! The Correctables binding for the quorum store (the paper's "CC binding").
//!
//! [`SimStore`] wraps a simulated cluster plus a **gateway** client node and
//! exposes a [`Binding`] whose levels are `Weak` (R = 1) and `Strong`
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
//! That shell — queue, kick, client deadline, `settle` — is
//! [`simnet::SimHost`]'s; this file only says what a quorum-store client
//! sends and how it reads the replies ([`QuorumClient`]).

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::{Binding, ConsistencyLevel, Error, KeyedOp, LevelSet, ObjectId, Upcall};
use simnet::{Ctx, GatewayProto, NodeId, PendingOps, SimHost, SimTime, Topology};

use crate::cluster::Cluster;
use crate::host::ReplicaConfig;
use crate::messages::{Msg, Phase};
use crate::types::{Key, OpId, ReadKind, Value, Version, Versioned};

/// Operations accepted by the binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Read a key.
    Read(Key),
    /// Write a key (always `W = 1`, as in the paper's evaluation).
    Write(Key, Value),
}

impl KeyedOp for StoreOp {
    fn object_id(&self) -> ObjectId {
        let key = match self {
            StoreOp::Read(k) => k,
            StoreOp::Write(k, _) => k,
        };
        // Spread the namespace across all bits so (ns, id) pairs rarely
        // collide; the ring re-hashes this anyway.
        ObjectId(key.id ^ u64::from(key.ns).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Builds the message that submits `op` as operation `seq` of `client`,
/// plus the locally written record a write's final view falls back to.
/// Every client of the store — the simulated gateway here, `icg-net`'s
/// TCP binding — submits through this.
pub fn encode_submit(
    client: NodeId,
    seq: u64,
    op: StoreOp,
    kind: ReadKind,
) -> (Msg, Option<Versioned>) {
    let id = OpId { client, seq };
    match op {
        StoreOp::Read(key) => (Msg::ClientRead { op: id, key, kind }, None),
        StoreOp::Write(key, value) => {
            let written = Versioned {
                value: value.clone(),
                version: Version::ZERO,
            };
            (
                Msg::ClientWrite {
                    op: id,
                    key,
                    value,
                    w: 1,
                },
                Some(written),
            )
        }
    }
}

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

/// One submission: the operation, its upcall, and how to read.
pub struct QueuedOp {
    op: StoreOp,
    upcall: Upcall<Versioned>,
    kind: ReadKind,
    close_level: ConsistencyLevel,
}

type Timings = Arc<Mutex<Vec<OpTiming>>>;

/// What the gateway keeps per outstanding operation.
pub struct GwPending {
    upcall: Upcall<Versioned>,
    close_level: ConsistencyLevel,
    start: SimTime,
    prelim: Option<Versioned>,
    prelim_at: Option<SimTime>,
    is_read: bool,
    written: Option<Versioned>,
}

/// The quorum store's client protocol: every operation goes to one
/// coordinator replica, which answers with a preliminary and/or final
/// reply (or a confirmation of the preliminary, under *CC).
pub struct QuorumClient {
    coordinator: NodeId,
    timings: Timings,
}

impl QuorumClient {
    fn finish(
        &self,
        ctx: &Ctx<'_, Msg>,
        pending: &mut PendingOps<GwPending>,
        id: OpId,
        data: Option<Versioned>,
    ) {
        let Some(p) = pending.remove(id.seq) else {
            return;
        };
        let now = ctx.now();
        self.timings.lock().push(OpTiming {
            prelim_ms: p.prelim_at.map(|t| t.since(p.start).as_millis_f64()),
            final_ms: now.since(p.start).as_millis_f64(),
            is_read: p.is_read,
        });
        let value = data
            .or(p.prelim)
            .or(p.written)
            .unwrap_or_else(Versioned::absent);
        p.upcall.deliver(value, p.close_level);
    }
}

impl GatewayProto for QuorumClient {
    type Msg = Msg;
    type Queued = QueuedOp;
    type Pending = GwPending;

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64, q: QueuedOp) -> Option<GwPending> {
        let (msg, written) = encode_submit(ctx.id(), seq, q.op, q.kind);
        ctx.send(self.coordinator, msg);
        Some(GwPending {
            upcall: q.upcall,
            close_level: q.close_level,
            start: ctx.now(),
            prelim: None,
            prelim_at: None,
            is_read: written.is_none(),
            written,
        })
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, pending: &mut PendingOps<GwPending>, msg: Msg) {
        match msg {
            Msg::ReadReply {
                op,
                phase: Phase::Preliminary,
                data,
            } => {
                if let Some(p) = pending.get_mut(op.seq) {
                    p.prelim = Some(data.clone());
                    p.prelim_at = Some(ctx.now());
                    let up = p.upcall.clone();
                    up.deliver(data, ConsistencyLevel::WEAK);
                }
            }
            Msg::ReadReply { op, data, .. } => {
                self.finish(ctx, pending, op, Some(data));
            }
            Msg::ReadConfirm { op, version } => {
                // *CC: the final view equals the preliminary. Confirm only
                // against the preliminary we actually hold: if it was lost
                // in transit (or somehow mismatches), promoting a missing
                // record to a strong view would fabricate a wrong result —
                // fail the operation instead and let the client retry.
                let confirmed = pending
                    .get(op.seq)
                    .and_then(|p| p.prelim.clone())
                    .filter(|prelim| prelim.version == version);
                match confirmed {
                    Some(prelim) => self.finish(ctx, pending, op, Some(prelim)),
                    None => {
                        if let Some(p) = pending.remove(op.seq) {
                            p.upcall.fail(Error::Unavailable(
                                "read confirmation without matching preliminary view".into(),
                            ));
                        }
                    }
                }
            }
            Msg::WriteReply { op } => {
                self.finish(ctx, pending, op, None);
            }
            Msg::OpFailed { op, .. } => {
                if let Some(p) = pending.remove(op.seq) {
                    p.upcall.fail(Error::Timeout);
                }
            }
            _ => {}
        }
    }

    /// A reply was lost (downtime, partition, drop) — fail the
    /// Correctable so callers observe the outage.
    fn expire(&mut self, p: GwPending) {
        p.upcall.fail(Error::Timeout);
    }
}

/// A simulated quorum store with a synchronously driveable binding.
/// Faults, client deadlines, `settle`/`advance` and the clock mirror
/// come from the [`SimHost`] it dereferences to.
#[derive(Clone)]
pub struct SimStore {
    host: SimHost<QuorumClient>,
    timings: Timings,
    r_strong: u8,
    confirm: bool,
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
        let site = topology.site_named(client_site).expect("known site");
        let cluster = Cluster::build(topology, replica_sites, cfg, seed);
        let timings = Timings::default();
        let proto = QuorumClient {
            coordinator: cluster.replicas[coordinator_idx],
            timings: Arc::clone(&timings),
        };
        SimStore {
            host: SimHost::new(cluster.engine, cluster.replicas, site, proto),
            timings,
            r_strong,
            confirm,
        }
    }

    /// Total bytes that crossed the gateway's client link so far.
    pub fn gateway_link_bytes(&self) -> u64 {
        self.with_engine(|e| e.bandwidth().link_bytes(self.gateway_id()))
    }

    /// The Correctables binding over this store.
    pub fn binding(&self) -> QuorumBinding {
        QuorumBinding {
            store: self.clone(),
        }
    }

    /// Seeds records on every replica (converged dataset).
    pub fn preload<I>(&self, records: I)
    where
        I: IntoIterator<Item = (Key, Value)>,
    {
        self.with_engine(|e| Cluster::preload_into(e, &self.replica_ids(), records));
    }

    /// Timings of all completed operations so far.
    pub fn timings(&self) -> Vec<OpTiming> {
        self.timings.lock().clone()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now().as_millis_f64()
    }
}

/// `Binding` implementation over [`SimStore`].
#[derive(Clone)]
pub struct QuorumBinding {
    store: SimStore,
}

impl Binding for QuorumBinding {
    type Op = StoreOp;
    type Val = Versioned;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: StoreOp, levels: &[ConsistencyLevel], upcall: Upcall<Versioned>) {
        let weak = levels.contains(&ConsistencyLevel::WEAK);
        let strong = levels.contains(&ConsistencyLevel::STRONG);
        let kind = match (weak, strong) {
            (true, true) => ReadKind::Icg {
                r: self.store.r_strong,
                confirm: self.store.confirm,
            },
            (false, _) => ReadKind::Single {
                r: self.store.r_strong,
            },
            (true, false) => ReadKind::Single { r: 1 },
        };
        let close_level = upcall.strongest();
        self.store.enqueue(QueuedOp {
            op,
            upcall,
            kind,
            close_level,
        });
    }
}

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
                Client::new(binding.clone())
                    .invoke_strong(StoreOp::Read(Key::plain(2)))
                    .map(|v| v.clone())
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
}
