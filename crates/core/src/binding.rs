//! The binding API (§5.1 of the paper): the boundary between the
//! consistency-based Correctables interface and storage-specific protocols.
//!
//! A binding encapsulates (1) the configuration of a storage stack, (2) the
//! consistency levels it offers, and (3) every storage-specific protocol.
//! The paper's API is two functions — `consistencyLevels()` and
//! `submitOperation(op, consLevels, callback)` — mirrored here as
//! [`Binding::consistency_levels`] and [`Binding::submit`]. The callback
//! is an [`Upcall`]: the binding calls [`Upcall::deliver`] once per
//! requested level, and the library routes each delivery into the right
//! Correctable transition (update for intermediate levels, close for the
//! strongest requested one).

use std::sync::Arc;

use crate::correctable::Handle;
use crate::error::Error;
use crate::level::{ConsistencyLevel, LevelSet};

/// Identifies one replicated object within a multi-object store.
///
/// Single-object bindings (one counter, one queue, one register) never
/// need this; a multi-object router (e.g. the `icg-shard` crate) uses it
/// to place each operation on the shard owning the object.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Derives an id from arbitrary bytes (FNV-1a), for string-keyed ops.
    pub fn from_bytes(bytes: &[u8]) -> ObjectId {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(PRIME);
        }
        ObjectId(hash)
    }
}

/// Operations that address one replicated object by key.
///
/// This is the adapter between a single-object [`Binding`] and a
/// multi-object routing layer: any binding whose op type reports which
/// object it touches can be scaled out horizontally by a router that
/// maps [`ObjectId`]s to shards.
pub trait KeyedOp {
    /// The object this operation touches.
    fn object_id(&self) -> ObjectId;
}

/// Storage-side interface implemented once per storage stack.
pub trait Binding {
    /// The operation type this storage accepts (reads, writes, queue ops…).
    type Op;
    /// The result type of operations.
    type Val: Clone + Send + 'static;

    /// The consistency levels this binding offers, as a validated,
    /// totally-ordered [`LevelSet`] (weakest first).
    fn consistency_levels(&self) -> LevelSet;

    /// Executes `op`, delivering one result per level in `levels`
    /// (weakest-first) through `upcall`.
    ///
    /// Implementations must eventually either deliver the strongest
    /// requested level or fail the upcall; they should skip levels not in
    /// `levels` to save work (§3.2's optimization argument).
    fn submit(&self, op: Self::Op, levels: &[ConsistencyLevel], upcall: Upcall<Self::Val>);
}

/// A set of consistency levels represented as a bitmask over ranks —
/// copyable and allocation-free, sized for the full `u8` rank space.
#[derive(Clone, Copy, Debug)]
struct RankMask([u64; 4]);

impl RankMask {
    const ALL: RankMask = RankMask([u64::MAX; 4]);

    fn of(levels: &[ConsistencyLevel]) -> RankMask {
        let mut mask = [0u64; 4];
        for l in levels {
            let r = l.rank();
            mask[usize::from(r >> 6)] |= 1u64 << (r & 63);
        }
        RankMask(mask)
    }

    fn contains(&self, level: ConsistencyLevel) -> bool {
        let r = level.rank();
        self.0[usize::from(r >> 6)] & (1u64 << (r & 63)) != 0
    }
}

/// Observes the deliveries an [`Upcall`] *accepts* — after level filtering
/// and close-once arbitration — without interposing another Correctable.
///
/// This is the hook the recording layer ([`crate::record::RecordingBinding`])
/// attaches: the observer sees exactly the client-visible stream, and
/// deliveries the upcall drops (non-requested levels, post-close stragglers)
/// are never cloned for it.
///
/// Ordering contract: the observer is notified *after* the state machine
/// accepts a delivery, outside its internal lock. When a binding delivers
/// on one invocation from a single thread (every binding in this
/// workspace does), observer notifications arrive in accepted order; a
/// binding delivering concurrently from several threads must serialize
/// its deliveries per invocation if it needs the recorded order to match
/// the accepted order.
pub trait DeliveryObserver<T>: Send + Sync {
    /// An accepted view delivery; `closing` marks the final view.
    fn on_view(&self, value: T, level: ConsistencyLevel, closing: bool);

    /// An accepted exceptional close.
    fn on_fail(&self, error: &Error);
}

/// Fans one accepted delivery out to two observers (nested recording).
struct PairObserver<T>(Arc<dyn DeliveryObserver<T>>, Arc<dyn DeliveryObserver<T>>);

impl<T: Clone> DeliveryObserver<T> for PairObserver<T> {
    fn on_view(&self, value: T, level: ConsistencyLevel, closing: bool) {
        self.0.on_view(value.clone(), level, closing);
        self.1.on_view(value, level, closing);
    }

    fn on_fail(&self, error: &Error) {
        self.0.on_fail(error);
        self.1.on_fail(error);
    }
}

/// The callback surface handed to a binding for one operation.
pub struct Upcall<T> {
    handle: Handle<T>,
    strongest: ConsistencyLevel,
    /// Ranks of the requested levels, cached once at construction.
    /// Deliveries below `strongest` at a rank outside this set are dropped
    /// instead of surfacing as spurious preliminary views (§3.2's
    /// level-skipping contract).
    requested: RankMask,
    /// Optional observer of accepted deliveries (the recording layer).
    observer: Option<Arc<dyn DeliveryObserver<T>>>,
}

impl<T: Clone + Send + 'static> Upcall<T> {
    /// Creates an upcall that closes its Correctable at `strongest` and
    /// accepts preliminary views at every weaker level.
    pub fn new(handle: Handle<T>, strongest: ConsistencyLevel) -> Self {
        Upcall {
            handle,
            strongest,
            requested: RankMask::ALL,
            observer: None,
        }
    }

    /// Creates an upcall restricted to `levels` (weakest-first, as passed
    /// to [`Binding::submit`]): it closes at the strongest of `levels` and
    /// drops deliveries at weaker levels whose rank is not in the set, so
    /// a binding that over-delivers cannot produce spurious `on_update`s.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn for_levels(handle: Handle<T>, levels: &[ConsistencyLevel]) -> Self {
        let strongest = *levels
            .iter()
            .max()
            .expect("upcall needs at least one level");
        Upcall {
            handle,
            strongest,
            requested: RankMask::of(levels),
            observer: None,
        }
    }

    /// Attaches an observer of accepted deliveries. If an observer is
    /// already attached (nested recording layers), both are notified.
    pub fn with_observer(mut self, observer: Arc<dyn DeliveryObserver<T>>) -> Self {
        self.observer = Some(match self.observer.take() {
            None => observer,
            Some(prev) => Arc::new(PairObserver(prev, observer)),
        });
        self
    }

    /// Delivers one view. A view at (or above) the strongest requested
    /// level closes the Correctable; weaker views are preliminary updates.
    ///
    /// Deliveries after the close are ignored (e.g. a slow weak response
    /// racing a fast strong one), matching the paper's state machine.
    /// When the upcall was built with [`Upcall::for_levels`], preliminary
    /// deliveries at non-requested levels are ignored as well. Dropped
    /// deliveries never reach the observer and are never cloned for it.
    pub fn deliver(&self, value: T, level: ConsistencyLevel) {
        let closing = level.at_least(self.strongest);
        if !closing && !self.requested.contains(level) {
            return;
        }
        match &self.observer {
            None => {
                if closing {
                    let _ = self.handle.close(value, level);
                } else {
                    let _ = self.handle.update(value, level);
                }
            }
            Some(obs) => {
                // One clone, skipped for level-filtered deliveries; the
                // observer records it iff the state machine accepts.
                let copy = value.clone();
                let accepted = if closing {
                    self.handle.close(value, level).is_ok()
                } else {
                    self.handle.update(value, level).is_ok()
                };
                if accepted {
                    obs.on_view(copy, level, closing);
                }
            }
        }
    }

    /// Fails the operation; ignored if already closed.
    pub fn fail(&self, err: Error) {
        match &self.observer {
            None => {
                let _ = self.handle.fail(err);
            }
            Some(obs) => {
                if self.handle.fail(err.clone()).is_ok() {
                    obs.on_fail(&err);
                }
            }
        }
    }

    /// The strongest level this upcall was configured with.
    pub fn strongest(&self) -> ConsistencyLevel {
        self.strongest
    }
}

impl<T> Clone for Upcall<T> {
    fn clone(&self) -> Self {
        Upcall {
            handle: self.handle.clone(),
            strongest: self.strongest,
            requested: self.requested,
            observer: self.observer.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctable::{Correctable, State};
    use crate::level::ConsistencyLevel;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    #[test]
    fn deliver_routes_update_vs_close() {
        let (c, h) = Correctable::<i32>::pending();
        let up = Upcall::new(h, STRONG);
        up.deliver(1, WEAK);
        assert_eq!(c.state(), State::Updating);
        up.deliver(2, STRONG);
        assert_eq!(c.state(), State::Final);
        assert_eq!(c.final_view().unwrap().value, 2);
    }

    #[test]
    fn weak_only_invocation_closes_on_weak() {
        let (c, h) = Correctable::<i32>::pending();
        let up = Upcall::new(h, WEAK);
        up.deliver(1, WEAK);
        assert_eq!(c.state(), State::Final);
        assert_eq!(c.final_view().unwrap().level, WEAK);
    }

    #[test]
    fn late_deliveries_are_ignored() {
        let (c, h) = Correctable::<i32>::pending();
        let up = Upcall::new(h, WEAK);
        up.deliver(1, WEAK);
        up.deliver(2, STRONG);
        up.fail(Error::Timeout);
        assert_eq!(c.final_view().unwrap().value, 1);
    }

    #[test]
    fn fail_closes_exceptionally() {
        let (c, h) = Correctable::<i32>::pending();
        let up = Upcall::new(h, STRONG);
        up.fail(Error::Unavailable("no quorum".into()));
        assert_eq!(c.state(), State::Error);
    }

    #[test]
    fn non_requested_level_is_skipped() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        let (c, h) = Correctable::<i32>::pending();
        let updates = StdArc::new(AtomicUsize::new(0));
        let n = StdArc::clone(&updates);
        c.on_update(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        let up = Upcall::for_levels(h, &[WEAK, STRONG]);
        // A binding over-delivering at a level the client never asked for
        // must not surface a spurious preliminary view.
        up.deliver(1, ConsistencyLevel::CAUSAL);
        assert_eq!(c.state(), State::Updating);
        assert_eq!(updates.load(Ordering::SeqCst), 0);
        assert!(c.preliminary_views().is_empty());
        // Requested levels still flow through normally.
        up.deliver(2, WEAK);
        assert_eq!(updates.load(Ordering::SeqCst), 1);
        up.deliver(3, STRONG);
        assert_eq!(c.final_view().unwrap().value, 3);
    }

    #[test]
    fn at_or_above_strongest_closes_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;

        let (c, h) = Correctable::<i32>::pending();
        let finals = StdArc::new(AtomicUsize::new(0));
        let n = StdArc::clone(&finals);
        c.on_final(move |_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        let up = Upcall::for_levels(h, &[WEAK, STRONG]);
        let above = ConsistencyLevel::new("stronger-than-asked", 99);
        // A level above the strongest requested closes; later deliveries
        // at or above strongest are late and ignored.
        up.deliver(1, above);
        up.deliver(2, STRONG);
        up.deliver(3, above);
        assert_eq!(c.state(), State::Final);
        assert_eq!(finals.load(Ordering::SeqCst), 1);
        assert_eq!(c.final_view().unwrap().value, 1);
        assert!(c.preliminary_views().is_empty());
    }

    #[test]
    fn object_id_from_bytes_is_stable() {
        let a = ObjectId::from_bytes(b"user:42");
        let b = ObjectId::from_bytes(b"user:42");
        let c = ObjectId::from_bytes(b"user:43");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
