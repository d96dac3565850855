//! Causally consistent replicated store: replicas, messages, and the
//! causal broadcast.
//!
//! Writes are serialized at a primary replica (which therefore holds the
//! freshest state and serves the `Strong` level); updates propagate to
//! backups through a causal broadcast (CBCAST-style buffering on vector
//! clocks), so backups are causally consistent but may lag — they serve
//! the `Causal` level.
//!
//! A state transfer ([`Msg::SyncResp`]) shares the primary's map instead
//! of copying it: the replica's data sits behind an [`Arc`] that each
//! snapshot clones, and a write made while a snapshot is still in
//! flight copies the map once before it changes it (copy on write). A
//! backup that adopts a snapshot clones only the entries fresher than
//! its own.
//!
//! Keys ([`Arc<str>`]) and item lists ([`Arc<[u64]>`](Item::items)) are
//! shared the same way: a write stores its key and list once, and every
//! `Repl`, read answer and adopted entry clones reference counts, not
//! the data.

use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use simnet::{Ctx, Node, NodeId, Retry, SimDuration, Timer, Wire};

use crate::vc::{CausalInbox, Offer, VectorClock};

/// How often a gapped backup re-requests a state transfer (the first
/// request goes out immediately when the gap is detected).
const SYNC_RETRY_EVERY: SimDuration = SimDuration::from_millis(200);

/// Minimum spacing of read-triggered anti-entropy probes. Gap-triggered
/// sync only fires when a causally *later* update arrives, so a lost
/// **final** update would otherwise leave a backup stale forever; every
/// causal read therefore also probes the primary, rate-limited to this
/// interval. (Reads drive it, so idle engines still quiesce — no
/// periodic timer.)
const READ_SYNC_EVERY: SimDuration = SimDuration::from_millis(500);

/// One update as it waits in the inbox until its dependencies arrive
/// (or a state transfer covers it).
struct BufferedUpdate {
    from: NodeId,
    key: Arc<str>,
    item: Item,
}

/// A stored value: a revision counter plus a list of item ids (the news
/// reader's items) — revisions make freshness comparisons trivial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// Monotonic per-key revision assigned by the primary.
    pub rev: u64,
    /// Application payload (e.g. news-item ids), shared by every copy
    /// of this revision.
    pub items: Arc<[u64]>,
}

/// One operation id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpId {
    /// Issuing client node.
    pub client: NodeId,
    /// Per-client sequence.
    pub seq: u64,
}

/// Protocol messages.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → replica: read `key`.
    Read {
        /// Operation id.
        op: OpId,
        /// Key.
        key: Arc<str>,
    },
    /// Replica → client: read result.
    ReadResp {
        /// Operation id.
        op: OpId,
        /// The value, if present.
        data: Option<Item>,
        /// Whether this replica is the primary (strong view).
        from_primary: bool,
    },
    /// Client → primary: write.
    Write {
        /// Operation id.
        op: OpId,
        /// Key.
        key: Arc<str>,
        /// New payload.
        items: Arc<[u64]>,
    },
    /// Primary → client: write acknowledged.
    WriteAck {
        /// Operation id.
        op: OpId,
        /// The revision assigned.
        rev: u64,
    },
    /// Primary → backups: causal update.
    Repl {
        /// Index of the sending replica.
        sender: usize,
        /// Key.
        key: Arc<str>,
        /// Value.
        data: Item,
        /// The update's vector clock stamp.
        stamp: VectorClock,
    },
    /// Backup → update sender: a causal gap was detected (an update
    /// arrived that is not yet deliverable), please state-transfer. The
    /// oracle surfaced why this is needed: without it a single dropped
    /// `Repl` leaves a backup stale *forever* — weak views then never
    /// converge to the strong view, breaking the ICG promise.
    SyncReq,
    /// Reply to [`Msg::SyncReq`]: a causally closed state snapshot.
    SyncResp {
        /// Every key's item at the responder when it answered: its map,
        /// shared, which its later writes copy before changing.
        state: Arc<BTreeMap<Arc<str>, Item>>,
        /// The responder's clock at snapshot time.
        clock: VectorClock,
    },
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        60 + match self {
            Msg::Read { key, .. } => key.len() + 13,
            Msg::ReadResp { data, .. } => {
                13 + data.as_ref().map(|d| d.items.len() * 8 + 12).unwrap_or(1)
            }
            Msg::Write { key, items, .. } => key.len() + items.len() * 8 + 13,
            Msg::WriteAck { .. } => 21,
            Msg::Repl {
                key, data, stamp, ..
            } => key.len() + data.items.len() * 8 + 12 + stamp.len() * 8,
            Msg::SyncReq => 1,
            Msg::SyncResp { state, clock } => {
                state
                    .iter()
                    .map(|(k, item)| k.len() + item.items.len() * 8 + 12)
                    .sum::<usize>()
                    + clock.len() * 8
            }
        }
    }

    fn category(&self) -> &'static str {
        match self {
            Msg::Read { .. } => "c-read",
            Msg::ReadResp { .. } => "c-read-resp",
            Msg::Write { .. } => "c-write",
            Msg::WriteAck { .. } => "c-write-ack",
            Msg::Repl { .. } => "c-repl",
            Msg::SyncReq => "c-sync-req",
            Msg::SyncResp { .. } => "c-sync-resp",
        }
    }
}

/// A causal-store replica.
pub struct CausalReplica {
    /// This replica's index.
    pub index: usize,
    /// Whether this replica is the primary (serializes writes).
    pub is_primary: bool,
    peers: Vec<NodeId>,
    /// Local state, shared with the `SyncResp` snapshots still in
    /// flight; write it through [`Arc::make_mut`]. Ordered map: a
    /// snapshot is read by iterating it, and message payloads must not
    /// depend on a per-process hasher seed or (seed, schedule) replay
    /// diverges.
    pub data: Arc<BTreeMap<Arc<str>, Item>>,
    /// This replica's causal clock, and the updates waiting for their
    /// causal dependencies.
    inbox: CausalInbox<BufferedUpdate>,
    /// The state-transfer retry, armed while updates are buffered
    /// behind a causal gap.
    sync_retry: Retry,
    /// The primary's node id: backups probe it from the read path.
    primary_node: NodeId,
    /// When this backup last probed the primary from its read path.
    last_read_sync: Option<simnet::SimTime>,
    /// State transfers served (observability for tests).
    pub syncs_served: u64,
    read_service: SimDuration,
    write_service: SimDuration,
}

impl CausalReplica {
    /// Replica `index` of the replicas `ids` (index-aligned node ids),
    /// replica `primary` the primary.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `primary` is out of range.
    #[expect(clippy::indexing_slicing, reason = "setup API: panics as documented")]
    pub fn new(index: usize, ids: &[NodeId], primary: usize) -> Self {
        CausalReplica {
            index,
            is_primary: index == primary,
            peers: NodeId::peers_of(ids, index),
            data: Arc::default(),
            inbox: CausalInbox::new(ids.len()),
            sync_retry: Retry::new(SYNC_RETRY_EVERY),
            primary_node: ids[primary],
            last_read_sync: None,
            syncs_served: 0,
            read_service: SimDuration::from_micros(100),
            write_service: SimDuration::from_micros(200),
        }
    }

    /// Seeds a key directly (converged test/bootstrap state).
    pub fn seed(&mut self, key: Arc<str>, item: Item) {
        Arc::make_mut(&mut self.data).insert(key, item);
    }

    /// This replica's causal clock.
    pub fn clock(&self) -> &VectorClock {
        self.inbox.delivered()
    }

    fn apply_buffered(&mut self) {
        while let Some((_, _, b)) = self.inbox.pop_ready(|_| true) {
            self.adopt(b.key, b.item);
        }
    }

    /// Whether `item` is fresher than what is stored under `key`.
    fn is_fresher(&self, key: &str, item: &Item) -> bool {
        self.data.get(key).is_none_or(|cur| item.rev > cur.rev)
    }

    /// Keeps `item` if it is fresher than what is stored under `key`.
    fn adopt(&mut self, key: Arc<str>, item: Item) {
        if self.is_fresher(&key, &item) {
            Arc::make_mut(&mut self.data).insert(key, item);
        }
    }

    /// Adopts a causally closed snapshot: its fresher entries, shared,
    /// plus the responder's clock (which also purges the buffered
    /// updates the snapshot covers), then drains whatever the buffer
    /// still holds beyond the snapshot.
    fn adopt_snapshot(&mut self, state: &BTreeMap<Arc<str>, Item>, clock: &VectorClock) {
        for (key, item) in state {
            if self.is_fresher(key, item) {
                Arc::make_mut(&mut self.data).insert(Arc::clone(key), item.clone());
            }
        }
        self.inbox.merge_delivered(clock);
        self.apply_buffered();
    }
}

impl Node<Msg> for CausalReplica {
    #[expect(
        clippy::disallowed_macros,
        reason = "the two asserts are debug_assert!s, compiled out of release builds"
    )]
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Read { op, key } => {
                let data = self.data.get(&*key).cloned();
                ctx.send(
                    from,
                    Msg::ReadResp {
                        op,
                        data,
                        from_primary: self.is_primary,
                    },
                );
                // Read-triggered anti-entropy: a lost *final* update never
                // produces a detectable gap, so backups probe the primary
                // from the read path (rate-limited). The answer can only
                // freshen state, so this read's reply is untouched and the
                // *next* read converges.
                if !self.is_primary {
                    let due = self
                        .last_read_sync
                        .map(|t| ctx.now().since(t) >= READ_SYNC_EVERY)
                        .unwrap_or(true);
                    if due {
                        self.last_read_sync = Some(ctx.now());
                        ctx.send(self.primary_node, Msg::SyncReq);
                    }
                }
            }
            Msg::Write { op, key, items } => {
                debug_assert!(self.is_primary, "writes must go to the primary");
                // One probe; the `Repl`s carry the key the map holds.
                let (key, item) = match Arc::make_mut(&mut self.data).entry(key) {
                    Entry::Occupied(mut stored) => {
                        let rev = stored.get().rev + 1;
                        stored.insert(Item { rev, items });
                        (Arc::clone(stored.key()), stored.get().clone())
                    }
                    Entry::Vacant(slot) => {
                        let key = Arc::clone(slot.key());
                        (key, slot.insert(Item { rev: 1, items }).clone())
                    }
                };
                let rev = item.rev;
                self.inbox.bump(self.index);
                let stamp = self.clock().clone();
                for &p in &self.peers {
                    ctx.send(
                        p,
                        Msg::Repl {
                            sender: self.index,
                            key: Arc::clone(&key),
                            data: item.clone(),
                            stamp: stamp.clone(),
                        },
                    );
                }
                ctx.send(from, Msg::WriteAck { op, rev });
            }
            Msg::Repl {
                sender,
                key,
                data,
                stamp,
            } => {
                let parked = self.inbox.len();
                let update = BufferedUpdate {
                    from,
                    key,
                    item: data,
                };
                // An old duplicate already covered by the clock, or a
                // stamp that is not this group's.
                let offer = self.inbox.offer(sender, stamp, update);
                if matches!(offer, Offer::AlreadyDelivered | Offer::Malformed) {
                    return;
                }
                self.apply_buffered();
                if self.inbox.len() > parked {
                    // Still parked — a gap: at least one earlier update
                    // never arrived (lost, or still in flight). Ask the
                    // sender for a state transfer; retry on a timer until
                    // the gap closes (the request itself may be lost too).
                    // A retry whose timer came due while this node was
                    // down is spent, and is armed afresh here.
                    ctx.send(from, Msg::SyncReq);
                    if !self.sync_retry.is_armed(ctx) {
                        self.sync_retry.arm(ctx, true);
                    }
                }
            }
            Msg::SyncReq => {
                self.syncs_served += 1;
                ctx.send(
                    from,
                    Msg::SyncResp {
                        state: Arc::clone(&self.data),
                        clock: self.clock().clone(),
                    },
                );
            }
            Msg::SyncResp { state, clock } => self.adopt_snapshot(&state, &clock),
            Msg::ReadResp { .. } | Msg::WriteAck { .. } => {
                debug_assert!(false, "replica received a client-bound message");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _timer: Timer) {
        if !self.sync_retry.fire(ctx) {
            return;
        }
        if let Some(first) = self.inbox.first() {
            ctx.send(first.from, Msg::SyncReq);
            self.sync_retry.arm(ctx, true);
        }
    }

    fn service_cost(&self, msg: &Msg) -> SimDuration {
        match msg {
            Msg::Read { .. } | Msg::SyncReq => self.read_service,
            Msg::Write { .. } | Msg::Repl { .. } | Msg::SyncResp { .. } => self.write_service,
            _ => SimDuration::ZERO,
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Engine, SimDuration as D, SiteId, Topology};

    /// A client that absorbs acknowledgments.
    struct Sink;
    impl Node<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The EC2 deployment, primary in FRK, and a sink beside it.
    fn build() -> (Engine<Msg>, Vec<NodeId>, NodeId) {
        let (mut eng, ids) = Engine::ec2(9, |i, ids| Box::new(CausalReplica::new(i, ids, 0)));
        let sink = eng.add_node(eng.site_of(ids[0]), Box::new(Sink));
        (eng, ids, sink)
    }

    #[test]
    fn writes_converge_to_all_backups() {
        let (mut eng, ids, sink) = build();
        // Drive three writes at the primary via external scheduling.
        for seq in 0..3u64 {
            eng.schedule_message(
                sink,
                ids[0],
                D::from_millis(seq),
                Msg::Write {
                    op: OpId { client: sink, seq },
                    key: "k".into(),
                    items: vec![seq].into(),
                },
            );
        }
        eng.run_until_idle(10_000);
        for id in &ids {
            let r = eng.node_as::<CausalReplica>(*id);
            assert_eq!(r.data.get("k").map(|d| d.rev), Some(3));
            assert_eq!(r.data.get("k").map(|d| d.items.to_vec()), Some(vec![2]));
        }
    }

    #[test]
    fn causal_order_is_respected_despite_jitter() {
        let (mut eng, ids, sink) = build();
        // 20 causally ordered writes; the network may reorder Repl
        // messages, the buffer must restore order.
        for seq in 0..20u64 {
            eng.schedule_message(
                sink,
                ids[0],
                D::from_micros(seq * 50),
                Msg::Write {
                    op: OpId { client: sink, seq },
                    key: format!("k{}", seq % 3).into(),
                    items: vec![seq].into(),
                },
            );
        }
        eng.run_until_idle(100_000);
        for id in &ids {
            let r = eng.node_as::<CausalReplica>(*id);
            // Every replica ends with the final value of each key
            // (the last seq hitting k1 is 19, k0 is 18, k2 is 17).
            assert_eq!(*r.data.get("k1").unwrap().items, [19]);
            assert_eq!(*r.data.get("k0").unwrap().items, [18]);
            assert_eq!(*r.data.get("k2").unwrap().items, [17]);
            assert_eq!(r.clock()[0], 20);
            assert!(r.inbox.is_empty(), "nothing left buffered");
        }
    }

    #[test]
    fn lost_repl_heals_via_state_transfer() {
        use simnet::{Faults, SimTime};
        let (mut eng, ids, sink) = build();
        // The VRG backup is down while the first write replicates: its
        // Repl is lost for good (the primary does not retransmit).
        eng.set_faults(Faults::none().with_downtime(
            ids[2],
            SimTime::ZERO,
            SimTime::ZERO + D::from_millis(60),
        ));
        for (seq, delay_ms) in [(0u64, 0u64), (1, 80)] {
            eng.schedule_message(
                sink,
                ids[0],
                D::from_millis(delay_ms),
                Msg::Write {
                    op: OpId { client: sink, seq },
                    key: "k".into(),
                    items: vec![seq].into(),
                },
            );
        }
        eng.run_until_idle(100_000);
        // The second write's Repl arrived with a causal gap; without the
        // SyncReq/SyncResp state transfer the backup would be stuck at
        // rev 0 (nothing applied) forever — the convergence bug the
        // oracle surfaced.
        let served = eng.node_as::<CausalReplica>(ids[0]).syncs_served;
        assert!(served > 0, "no state transfer happened");
        let backup = eng.node_as::<CausalReplica>(ids[2]);
        assert_eq!(backup.data.get("k").map(|d| d.rev), Some(2));
        assert!(backup.inbox.is_empty());
    }

    #[test]
    fn lost_final_repl_heals_on_subsequent_read() {
        use simnet::{Faults, SimTime};
        let (mut eng, ids, sink) = build();
        // The *last* write's Repl to the VRG backup is lost and nothing
        // is written afterwards: no causal gap ever becomes detectable,
        // so only the read-triggered probe can heal this.
        eng.set_faults(Faults::none().with_downtime(
            ids[2],
            SimTime::ZERO,
            SimTime::ZERO + D::from_millis(60),
        ));
        eng.schedule_message(
            sink,
            ids[0],
            D::ZERO,
            Msg::Write {
                op: OpId {
                    client: sink,
                    seq: 0,
                },
                key: "k".into(),
                items: vec![7].into(),
            },
        );
        eng.run_until_idle(10_000);
        assert!(
            !eng.node_as::<CausalReplica>(ids[2]).data.contains_key("k"),
            "precondition: the backup must actually have missed the write"
        );
        // A causal read at the stale backup serves the stale answer but
        // probes the primary; once the state transfer lands, the backup
        // has converged.
        eng.schedule_message(
            sink,
            ids[2],
            D::from_millis(100),
            Msg::Read {
                op: OpId {
                    client: sink,
                    seq: 1,
                },
                key: "k".into(),
            },
        );
        eng.run_until_idle(10_000);
        let backup = eng.node_as::<CausalReplica>(ids[2]);
        assert_eq!(backup.data.get("k").map(|d| d.rev), Some(1));
    }

    /// The retry of a backup that is down at its retry instant is not
    /// wedged: the engine dropped that timer, and the next gap arms a
    /// fresh one. FRK is the backup, VRG the primary, no jitter (the FRK
    /// ↔ VRG link is 45 ms one way). The FRK–VRG cut loses the first
    /// write's `Repl`; the second's arrives inside the next cut, so its
    /// `SyncReq` is lost, and FRK is down across the retry at 255 ms.
    /// A third `Repl` arrives in a third cut, its `SyncReq` lost too.
    /// Then the cut heals and nothing more is written: only the retry
    /// can close the gap. With a flag that only a fired timer cleared,
    /// it never did.
    #[test]
    fn a_retry_dropped_while_down_does_not_wedge_the_gap() {
        use simnet::{Faults, SimTime};
        let t = |ms| SimTime::ZERO + D::from_millis(ms);
        let mut topo = Topology::new(0.0, 0.0);
        let sites: Vec<_> = ["FRK", "IRL", "VRG"]
            .iter()
            .map(|name| topo.add_site(name, D::from_millis(2)))
            .collect();
        topo.set_rtt(sites[0], sites[1], D::from_millis(20));
        topo.set_rtt(sites[1], sites[2], D::from_millis(83));
        topo.set_rtt(sites[0], sites[2], D::from_millis(90));
        let (mut eng, ids) = Engine::with_replicas(topo, 9, &sites, |i, ids| {
            Box::new(CausalReplica::new(i, ids, 2))
        });
        let sink = eng.add_node(sites[2], Box::new(Sink));
        let (frk, vrg) = (sites[0], sites[2]);
        eng.set_faults(
            Faults::none()
                .with_partition(frk, vrg, t(0), t(5))
                .with_partition(frk, vrg, t(20), t(265))
                .with_partition(frk, vrg, t(270), t(1_000))
                .with_downtime(ids[0], t(250), t(262)),
        );
        // Writes at 0, 10 and 266 ms: `Repl`s leave at +0.2 ms.
        for (seq, at) in [(0u64, 0u64), (1, 10), (2, 266)] {
            eng.schedule_message(
                sink,
                ids[2],
                D::from_millis(at),
                Msg::Write {
                    op: OpId { client: sink, seq },
                    key: "k".into(),
                    items: vec![seq].into(),
                },
            );
        }
        eng.run_until(t(999));
        let backup = eng.node_as::<CausalReplica>(ids[0]);
        assert!(
            !backup.data.contains_key("k") && backup.inbox.len() == 2,
            "precondition: both later writes parked behind the lost first"
        );
        eng.run_until_idle(10_000);
        let backup = eng.node_as::<CausalReplica>(ids[0]);
        assert_eq!(backup.data.get("k").map(|d| d.rev), Some(3));
        assert!(backup.inbox.is_empty());
    }

    #[test]
    fn backup_lags_primary_within_propagation_window() {
        let (mut eng, ids, sink) = build();
        eng.schedule_message(
            sink,
            ids[0],
            D::ZERO,
            Msg::Write {
                op: OpId {
                    client: sink,
                    seq: 0,
                },
                key: "k".into(),
                items: vec![7].into(),
            },
        );
        // Run only 1 ms: the write applied at the primary but cannot have
        // reached VRG (41.5 ms away).
        eng.run_until(simnet::SimTime::ZERO + D::from_millis(1));
        assert!(eng.node_as::<CausalReplica>(ids[0]).data.contains_key("k"));
        assert!(!eng.node_as::<CausalReplica>(ids[2]).data.contains_key("k"));
        eng.run_until_idle(1_000);
        assert!(eng.node_as::<CausalReplica>(ids[2]).data.contains_key("k"));
    }

    /// A node that asks for state transfers and reads, and keeps what
    /// comes back.
    #[derive(Default)]
    struct Probe {
        snapshots: Vec<Arc<BTreeMap<Arc<str>, Item>>>,
        reads: Vec<Option<Item>>,
        repls: Vec<(Arc<str>, Item)>,
    }

    impl Node<Msg> for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::SyncResp { state, .. } => self.snapshots.push(state),
                Msg::ReadResp { data, .. } => self.reads.push(data),
                Msg::Repl { key, data, .. } => self.repls.push((key, data)),
                _ => {}
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A snapshot shares the primary's map until the primary writes: the
    /// `SyncResp` answered before a write is still in flight, 41.5 ms
    /// to VRG, when the write lands, and it delivers the pre-write
    /// revision while the primary serves the post-write one.
    #[test]
    fn a_snapshot_taken_before_a_write_delivers_the_pre_write_rev() {
        let (mut eng, ids, sink) = build();
        let vrg = eng.site_of(ids[2]);
        let probe = eng.add_node(vrg, Box::<Probe>::default());
        let rev = |rev| Item {
            rev,
            items: vec![rev].into(),
        };
        eng.node_as::<CausalReplica>(ids[0])
            .seed("k".into(), rev(1));
        eng.schedule_message(probe, ids[0], D::ZERO, Msg::SyncReq);
        let write = Msg::Write {
            op: OpId {
                client: sink,
                seq: 0,
            },
            key: "k".into(),
            items: vec![2].into(),
        };
        eng.schedule_message(sink, ids[0], D::from_millis(1), write);
        let read = Msg::Read {
            op: OpId {
                client: probe,
                seq: 1,
            },
            key: "k".into(),
        };
        eng.schedule_message(probe, ids[0], D::from_millis(2), read);
        eng.run_until(simnet::SimTime::ZERO + D::from_millis(20));
        assert!(
            eng.node_as::<Probe>(probe).snapshots.is_empty(),
            "precondition: the snapshot is still in flight"
        );
        assert_eq!(eng.node_as::<CausalReplica>(ids[0]).data["k"], rev(2));
        eng.run_until_idle(1_000);
        let primary = Arc::clone(&eng.node_as::<CausalReplica>(ids[0]).data);
        let probe = eng.node_as::<Probe>(probe);
        assert_eq!(probe.snapshots.len(), 1);
        assert_eq!(probe.snapshots[0]["k"], rev(1));
        assert_eq!(probe.reads, vec![Some(rev(2))]);
        assert!(!Arc::ptr_eq(&probe.snapshots[0], &primary));
        assert_eq!(primary["k"], rev(2));
    }

    /// A write stores its key and list once: the primary's entry, every
    /// `Repl` it fans out (the probe is a third peer) and the entry each
    /// backup adopts share them. A second write to the key keeps the
    /// stored key, and its `Repl`s carry that key, not the write's.
    #[test]
    fn a_write_and_its_repl_fan_out_share_one_key_and_one_list() {
        // The probe is built as a fourth replica, at IRL, so the primary
        // counts it among its peers.
        let sites = [SiteId(0), SiteId(1), SiteId(2), SiteId(1)];
        let topo = Topology::ec2_frk_irl_vrg();
        let (mut eng, ids) = Engine::with_replicas(topo, 9, &sites, |i, ids| match i {
            3 => Box::<Probe>::default(),
            _ => Box::new(CausalReplica::new(i, ids, 0)),
        });
        let (probe, sink) = (ids[3], eng.add_node(sites[0], Box::new(Sink)));
        for seq in 0..2u64 {
            let write = Msg::Write {
                op: OpId { client: sink, seq },
                key: "k".into(),
                items: vec![seq, 7].into(),
            };
            eng.schedule_message(sink, ids[0], D::from_millis(seq * 100), write);
            eng.run_until_idle(1_000);
            let (key, item) = {
                let primary = &eng.node_as::<CausalReplica>(ids[0]).data;
                let (key, item) = primary.get_key_value("k").unwrap();
                (Arc::clone(key), item.clone())
            };
            assert_eq!(item.rev, seq + 1);
            let repls = &eng.node_as::<Probe>(probe).repls;
            assert_eq!(repls.len() as u64, seq + 1);
            let (sent_key, sent) = repls.last().unwrap();
            assert!(Arc::ptr_eq(sent_key, &key), "the Repl copied the key");
            assert!(
                Arc::ptr_eq(&sent.items, &item.items),
                "the Repl copied the list"
            );
            for backup in [ids[1], ids[2]] {
                let data = &eng.node_as::<CausalReplica>(backup).data;
                let (adopted_key, adopted) = data.get_key_value("k").unwrap();
                assert_eq!(adopted, &item);
                assert!(Arc::ptr_eq(adopted_key, &key), "the backup copied the key");
                assert!(
                    Arc::ptr_eq(&adopted.items, &item.items),
                    "the backup copied the list"
                );
            }
        }
    }

    /// The snapshot a `SyncResp` carried before it shared the map: a
    /// copy of every entry, key and list included.
    fn copied(data: &BTreeMap<Arc<str>, Item>) -> Vec<(Arc<str>, Item)> {
        data.iter()
            .map(|(k, v)| {
                let item = Item {
                    rev: v.rev,
                    items: Arc::from(&*v.items),
                };
                (Arc::from(&**k), item)
            })
            .collect()
    }

    /// How a backup adopted that copy, and then its buffered updates.
    fn adopt_copied(r: &mut CausalReplica, state: Vec<(Arc<str>, Item)>, clock: &VectorClock) {
        let adopt = |data: &mut BTreeMap<Arc<str>, Item>, key: Arc<str>, item: Item| {
            if data.get(&key).is_none_or(|cur| item.rev > cur.rev) {
                data.insert(key, item);
            }
        };
        let mut data = (*r.data).clone();
        for (key, item) in state {
            adopt(&mut data, key, item);
        }
        r.inbox.merge_delivered(clock);
        while let Some((_, _, b)) = r.inbox.pop_ready(|_| true) {
            adopt(&mut data, b.key, b.item);
        }
        r.data = Arc::new(data);
    }

    /// A replica entry as `(key, rev)`; the key is one of eight.
    fn entries() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..8, 1u64..10), 0..8)
    }

    /// The map of `entries`, each item's payload marked with `whose`
    /// (so a backup's item and a snapshot's of the same rev differ).
    fn map_of(entries: &[(u8, u64)], whose: u64) -> BTreeMap<Arc<str>, Item> {
        entries
            .iter()
            .map(|&(k, rev)| {
                let item = Item {
                    rev,
                    items: vec![whose, rev].into(),
                };
                (format!("k{k}").into(), item)
            })
            .collect()
    }

    proptest::proptest! {
        /// Adopting a random state transfer from the shared map leaves a
        /// backup — holding random items, a random clock and updates
        /// parked behind a gap — with the data and clock that adopting
        /// the per-key copy left, and leaves the snapshot untouched.
        #[test]
        fn adopting_the_shared_snapshot_is_adopting_the_copy(
            primary in entries(),
            backup in entries(),
            snapshot_clock in proptest::collection::vec(0u64..6, 3),
            backup_clock in proptest::collection::vec(0u64..6, 3),
            parked in proptest::collection::vec((1u64..10, 0u8..8, 1u64..10), 0..6),
        ) {
            let snapshot = Arc::new(map_of(&primary, 0));
            let clock = VectorClock::from(snapshot_clock);
            let backup_at = || {
                let mut r = CausalReplica::new(1, &[NodeId(0), NodeId(1), NodeId(2)], 0);
                r.data = Arc::new(map_of(&backup, 1));
                r.inbox.merge_delivered(&VectorClock::from(backup_clock.clone()));
                for &(seq, k, rev) in &parked {
                    let update = BufferedUpdate {
                        from: NodeId(0),
                        key: format!("k{k}").into(),
                        item: Item { rev, items: vec![seq].into() },
                    };
                    r.inbox.offer(0, VectorClock::from(vec![seq, 0, 0]), update);
                }
                r
            };
            let mut shared = backup_at();
            shared.adopt_snapshot(&snapshot, &clock);
            let mut reference = backup_at();
            adopt_copied(&mut reference, copied(&snapshot), &clock);
            proptest::prop_assert_eq!(&shared.data, &reference.data);
            proptest::prop_assert_eq!(shared.clock(), reference.clock());
            proptest::prop_assert_eq!(shared.inbox.len(), reference.inbox.len());
            proptest::prop_assert_eq!(&*snapshot, &map_of(&primary, 0));
        }
    }
}
