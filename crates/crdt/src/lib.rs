//! # icg-crdt — coordination-free CRDT bindings
//!
//! Grounds the weak end of the Correctables lattice in CRDT theory:
//! weak views become *coordination-free by construction* instead of
//! cheap-by-accident, and their convergence obligations are checked
//! mechanically (the oracle's SEC checker) rather than asserted.
//!
//! The crate has four layers:
//!
//! - [`types`] — hand-rolled CRDTs behind one [`Crdt`] trait that is
//!   both state-based (join-semilattice [`Crdt::merge`]) and op-based
//!   ([`Crdt::prepare`]/[`Crdt::effect`] with a [`Crdt::ready`]
//!   delivery precondition): [`GCounter`]/[`PnCounter`], add-wins
//!   [`OrSet`], [`LwwMap`] — plus [`BrokenCrdt`], the deliberately
//!   non-commutative negative fixture;
//! - [`object`] — [`CrdtState`], the composite keyed store ([`CrdtOp`]
//!   is a `KeyedOp`, so it routes through `ShardedBinding` too);
//! - [`store`] — [`SimCrdtStore`], the simulated three-site deployment
//!   replicating [`CrdtState`] by op-shipping (CBCAST causal delivery)
//!   or state-shipping (full-state merge), with [`CrdtBinding`] serving
//!   weak locally pre-merge and strong at anti-entropy quiescence (the
//!   binding, like [`EscrowBinding`], is every simulated store's one
//!   `simnet::SimBinding`, over the round-robin gateway);
//!   [`local`] is the synchronous single-process variant with a
//!   freshness-lagged weak view for shard-router tests;
//! - [`escrow`] — segmented invariant confluence: [`SimEscrow`] sells
//!   tickets from per-replica escrow segments coordination-free and
//!   pays a transfer round only at segment exhaustion, keeping the
//!   global no-oversell invariant that plain merge cannot.
//!
//! Correctness story (test-first): `tests/prop_crdt.rs` proves the
//! semilattice laws and op-commutativity; the oracle drives both
//! deployments through the seeded fault-schedule explorer and checks
//! strong eventual consistency — eventual visibility, commutativity of
//! concurrent deliveries, convergence of merged states — shrinking any
//! violation to a minimal `(seed, schedule)` repro.

#![warn(missing_docs)]
// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod escrow;
pub mod local;
pub mod object;
pub mod store;
pub mod types;

pub use escrow::{EscrowBinding, EscrowOp, EscrowReplica, EscrowState, Sale, SimEscrow};
pub use local::LocalCrdt;
pub use object::{CrdtEffect, CrdtOp, CrdtState, CrdtVal};
pub use store::{CrdtBinding, CrdtMsg, CrdtReplica, Repl, SecEntry, SimCrdtStore};
pub use types::{
    BrokenCrdt, Crdt, EffectCtx, GCounter, LwwMap, MapOp, OrSet, PnCounter, SetOp, Stamp, Tag,
};

#[cfg(test)]
mod reference {
    //! The anti-entropy timer the CRDT and escrow replicas armed before
    //! they kept a `simnet::Retry`, kept as the reference their retry
    //! instants are held to: every arm set a fresh timer in a new
    //! generation, superseding all pending ones, and a fire acted only
    //! for the newest generation.

    use std::any::Any;
    use std::fmt::Debug;

    use correctables::{Client, ConsistencyLevel, History, RecordingBinding};
    use simnet::{
        Ctx, Faults, Node, NodeId, Retry, RoundRobin, SimBinding, SimDuration, SimHost, SimTime,
        SiteId, SubmitWire, Timer, Wire,
    };

    /// A replica that retries through a [`Retry`].
    pub(crate) trait Retrying {
        fn retry(&self) -> &Retry;
    }

    /// A replica observed at its timer, retrying through its own
    /// [`Retry`] or through the reference's generations.
    pub(crate) struct Timed<R> {
        pub(crate) inner: R,
        /// The reference's newest generation; `None` runs the replica's
        /// own [`Retry`].
        generation: Option<u64>,
        /// Timer events that reached the replica (in the reference, the
        /// generations' only: the replica's own timers are inert there).
        pub(crate) fires: u64,
        /// Of those, the fires of a timer that a later arm replaced.
        pub(crate) superseded: u64,
        /// The instants the replica retried at.
        pub(crate) retried_at: Vec<u64>,
    }

    impl<R> Timed<R> {
        pub(crate) fn new(inner: R, reference: bool) -> Self {
            Timed {
                inner,
                generation: reference.then_some(0),
                fires: 0,
                superseded: 0,
                retried_at: Vec::new(),
            }
        }
    }

    impl<R: Retrying> Timed<R> {
        /// In the reference, a handler that armed the retry (the
        /// deadline moved) starts a new generation.
        fn arm<M: Wire>(&mut self, ctx: &mut Ctx<'_, M>, before: Option<u64>) {
            let due = self.inner.retry().due();
            if let (Some(generation), Some(at)) = (&mut self.generation, due) {
                if due != before {
                    *generation += 1;
                    let delay = SimDuration::from_nanos(at - ctx.now().as_nanos());
                    ctx.set_timer(delay, Timer(*generation));
                }
            }
        }
    }

    impl<M: Wire + 'static, R: Node<M> + Retrying> Node<M> for Timed<R> {
        fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
            let before = self.inner.retry().due();
            self.inner.on_message(ctx, from, msg);
            self.arm(ctx, before);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
            let now = ctx.now().as_nanos();
            let replaced = match self.generation {
                Some(_) if timer.0 == 0 => return,
                Some(newest) => timer.0 != newest,
                None => self.inner.retry().armed() != Some(now),
            };
            self.fires += 1;
            if replaced {
                self.superseded += 1;
                if self.generation.is_some() {
                    return;
                }
            }
            let before = self.inner.retry().due();
            if before.is_some_and(|at| at <= now) {
                self.retried_at.push(now);
            }
            self.inner.on_timer(ctx, timer);
            self.arm(ctx, before);
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What one run leaves: the stamped history, and per replica what
    /// `inspect` reports of it, its retry instants, its fires and its
    /// superseded fires.
    pub(crate) type Run = (Vec<String>, Vec<(String, Vec<u64>, u64, u64)>);

    /// Drives `rounds` rounds of three invocations through a client at
    /// IRL with FRK↔VRG cut every fourth round (weak views only then),
    /// a settle and up to 40 ms of think time each, then heals and runs
    /// 2 s of anti-entropy.
    pub(crate) fn drive<M, R>(
        host: &SimHost<RoundRobin<M>>,
        rounds: u64,
        op: impl Fn(u64) -> M::Op,
        inspect: impl Fn(&R) -> String,
    ) -> Run
    where
        M: SubmitWire,
        M::Op: Clone + Debug,
        M::Val: Debug,
        R: 'static,
    {
        let ms = SimDuration::from_millis;
        let history = History::with_clock(host.clock());
        let levels = [ConsistencyLevel::WEAK, ConsistencyLevel::STRONG];
        let binding = SimBinding::new(host.clone(), &levels);
        let client = Client::new(RecordingBinding::new(binding, history.clone()));
        let forever = SimTime::ZERO + SimDuration::from_secs(1 << 30);
        let cut = Faults::none().with_partition(SiteId(0), SiteId(2), SimTime::ZERO, forever);
        host.set_client_timeout(ms(400));
        for round in 0..rounds {
            let cut_now = round % 4 == 1;
            host.set_faults(if cut_now { cut.clone() } else { Faults::none() });
            for i in 0..3 {
                let o = op(3 * round + i);
                if cut_now {
                    drop(client.invoke_weak(o));
                } else {
                    drop(client.invoke(o));
                }
            }
            host.settle();
            host.advance(ms(1 + round * 13 % 40));
        }
        host.set_faults(Faults::none());
        host.advance(ms(2_000));
        let lines = history
            .snapshot()
            .iter()
            .map(|i| format!("{i:?}"))
            .collect();
        let replicas = host.each_replica(|t: &mut Timed<R>| {
            let seen = inspect(&t.inner);
            (seen, t.retried_at.clone(), t.fires, t.superseded)
        });
        (lines, replicas)
    }

    /// Holds a run of the replicas' own retry to the reference's run:
    /// the same history, per replica the same state and retry instants,
    /// no superseded fire where the reference's were most of its fires,
    /// and fewer than half its fires.
    pub(crate) fn assert_same_retries(what: &str, (history, new): Run, (reference, old): Run) {
        assert_eq!(history, reference, "{what}");
        let retries = |r: &[(String, Vec<u64>, u64, u64)]| -> Vec<_> {
            r.iter()
                .map(|(seen, at, ..)| (seen.clone(), at.clone()))
                .collect()
        };
        assert_eq!(retries(&new), retries(&old), "{what}");
        assert!(
            new.iter().any(|(_, at, ..)| !at.is_empty()),
            "{what}: nothing retried"
        );
        let fires = |r: &[(String, Vec<u64>, u64, u64)]| {
            r.iter().fold((0, 0), |(f, s), (_, _, fires, superseded)| {
                (f + fires, s + superseded)
            })
        };
        let ((fired, superseded), (fired_before, superseded_before)) = (fires(&new), fires(&old));
        let counts = format!(
            "{what}: {fired} fires ({superseded} superseded), \
             {fired_before} ({superseded_before}) with generations"
        );
        assert_eq!(superseded, 0, "{counts}");
        assert!(superseded_before > fired_before / 2, "{counts}");
        assert!(2 * fired < fired_before, "{counts}");
    }
}
