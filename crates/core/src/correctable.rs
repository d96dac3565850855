//! The `Correctable` abstraction itself: a multi-view generalization of
//! Promises (Figure 3 of the paper).
//!
//! A `Correctable` starts in the **updating** state. Each preliminary view
//! triggers an *updating → updating* transition and the `on_update`
//! callbacks; the final view closes it (*updating → final*, `on_final`);
//! an error closes it exceptionally (*updating → error*, `on_error`).
//! Once closed, the state never changes again.
//!
//! The consumer side is [`Correctable`]; the producer side (the library /
//! binding) drives it through a [`Handle`]. Both are cheaply cloneable and
//! thread-safe; callbacks never run while internal locks are held, so they
//! may freely create, update, or wait on other Correctables.
//!
//! ## Performance model
//!
//! The state machine is built to make the callback-driven fast path
//! allocation-lean and syscall-free:
//!
//! - views and callbacks live in lists that keep their first two
//!   elements inline (most invocations request two levels), so an
//!   invocation allocates one `Arc` (its shared state) plus one `Box` per
//!   registration;
//! - `on_final` and `on_error` push onto one close list, so a combinator
//!   that needs both outcomes of an input (`map`, `then`, `join_all`,
//!   `first_final`, `speculate`) registers once per input: one `Box`, one
//!   lock;
//! - the closing state is one field, the outcome (`None` while
//!   updating, then the final view or the error), so closing writes one
//!   field and every probe reads one; a Correctable made closed
//!   ([`Correctable::ready`], [`Correctable::failed`]) is built with its
//!   outcome in place;
//! - a packed atomic **state word** mirrors the closing state and whether
//!   any thread ever blocked in [`Correctable::wait_final`] /
//!   [`Correctable::wait_any`]; producers consult it after releasing the
//!   lock and only touch the condvar on the parked slow path, so
//!   callback-only consumers (the common case in the simulators and
//!   benchmarks) never pay for wakeups;
//! - `state()` / `is_closed()` / `outcome()`-style probes read the state
//!   word without locking.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{ClosedError, Error};
use crate::level::ConsistencyLevel;
use crate::list::List;
use crate::view::View;

/// Observable state of a [`Correctable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Still expecting stronger views.
    Updating,
    /// Closed with a final (strongest requested) view.
    Final,
    /// Closed with an error.
    Error,
}

// Layout of `Inner::word`: low two bits carry the `State`, bit 2 records
// that some thread has parked on the condvar (sticky, set under the lock).
const ST_MASK: u32 = 0b11;
const ST_UPDATING: u32 = 0;
const ST_FINAL: u32 = 1;
const ST_ERROR: u32 = 2;
const HAS_WAITERS: u32 = 0b100;

fn decode(word: u32) -> State {
    match word & ST_MASK {
        ST_FINAL => State::Final,
        ST_ERROR => State::Error,
        _ => State::Updating,
    }
}

type UpdateFn<T> = Box<dyn FnMut(&View<T>) + Send>;
/// Runs once, when the Correctable closes, with its outcome.
type CloseFn<T> = Box<dyn FnOnce(Result<&View<T>, &Error>) + Send>;

struct UpdateEntry<T> {
    /// A no-op stands in while the callback runs (see `running`).
    f: UpdateFn<T>,
    /// Number of preliminary views already delivered to this callback.
    seen: u32,
    /// Set while `f` runs outside the lock, so re-entrant dispatch skips
    /// it.
    running: bool,
}

struct Shared<T> {
    /// Preliminary views, in delivery order.
    updates: List<View<T>>,
    /// How the Correctable closed: the final view or the error. `None`
    /// while updating.
    outcome: Option<Result<View<T>, Error>>,
    update_cbs: List<UpdateEntry<T>>,
    /// `on_final`, `on_error` and `on_close` registrations, in order.
    close_cbs: List<CloseFn<T>>,
}

impl<T: Clone> Shared<T> {
    fn final_view(&self) -> Option<&View<T>> {
        self.outcome.as_ref()?.as_ref().ok()
    }

    fn error(&self) -> Option<&Error> {
        self.outcome.as_ref()?.as_ref().err()
    }

    /// The final view, else the last preliminary one.
    fn latest(&self) -> Option<View<T>> {
        self.final_view().or_else(|| self.updates.last()).cloned()
    }
}

struct Inner<T> {
    /// Lock-free mirror of the closing state plus the waiter flag; the
    /// authoritative transition still happens under `shared`'s lock.
    word: AtomicU32,
    shared: Mutex<Shared<T>>,
    cond: Condvar,
}

impl<T> Inner<T> {
    /// Publishes `state` into the word, preserving the waiter flag, and
    /// reports whether any thread is parked. Must be called with the
    /// `shared` lock held so it cannot race a waiter registering itself.
    fn publish(&self, state: u32) -> bool {
        let waiters = self.word.load(Ordering::Relaxed) & HAS_WAITERS;
        self.word.store(state | waiters, Ordering::Release);
        waiters != 0
    }
}

/// Consumer handle to an operation with incremental consistency guarantees.
///
/// Cloning is cheap and observes the same underlying operation.
pub struct Correctable<T> {
    inner: Arc<Inner<T>>,
}

/// Producer handle used by the library and bindings to deliver views.
///
/// Cloning is cheap; all clones drive the same `Correctable`, and the
/// state machine guarantees at most one closing transition overall.
pub struct Handle<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Correctable<T> {
    fn clone(&self) -> Self {
        Correctable {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Handle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + 'static> Correctable<T> {
    /// Creates an open Correctable and its producer handle.
    pub fn pending() -> (Correctable<T>, Handle<T>) {
        let inner = Arc::new(Inner {
            word: AtomicU32::new(ST_UPDATING),
            shared: Mutex::new(Shared {
                updates: List::default(),
                outcome: None,
                update_cbs: List::default(),
                close_cbs: List::default(),
            }),
            cond: Condvar::new(),
        });
        (
            Correctable {
                inner: Arc::clone(&inner),
            },
            Handle { inner },
        )
    }

    /// A Correctable that is already final with `value` at [`ConsistencyLevel::STRONG`].
    pub fn ready(value: T) -> Correctable<T> {
        Correctable::ready_at(value, ConsistencyLevel::STRONG)
    }

    /// A Correctable that is already final with `value` at `level`.
    pub fn ready_at(value: T, level: ConsistencyLevel) -> Correctable<T> {
        Correctable::closed(Ok(View::new(value, level)))
    }

    /// A Correctable that has already failed with `err`.
    pub fn failed(err: Error) -> Correctable<T> {
        Correctable::closed(Err(err))
    }

    /// A Correctable born closed with `outcome`: no handle, no views.
    fn closed(outcome: Result<View<T>, Error>) -> Correctable<T> {
        let word = if outcome.is_ok() { ST_FINAL } else { ST_ERROR };
        Correctable {
            inner: Arc::new(Inner {
                word: AtomicU32::new(word),
                shared: Mutex::new(Shared {
                    updates: List::default(),
                    outcome: Some(outcome),
                    update_cbs: List::default(),
                    close_cbs: List::default(),
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Current state. Lock-free.
    pub fn state(&self) -> State {
        decode(self.inner.word.load(Ordering::Acquire))
    }

    /// Whether the Correctable has closed (final or error). Lock-free.
    pub fn is_closed(&self) -> bool {
        self.state() != State::Updating
    }

    /// The closing outcome, if the Correctable has closed: the final view
    /// on success, the closing error on failure. `None` while updating.
    ///
    /// The open probe is lock-free, which makes this the cheapest way for
    /// combinators to skip callback registration on still-open inputs.
    pub fn outcome(&self) -> Option<Result<View<T>, Error>> {
        if !self.is_closed() {
            return None;
        }
        self.inner.shared.lock().outcome.clone()
    }

    /// The most recent view of any kind (final wins over preliminaries).
    pub fn latest(&self) -> Option<View<T>> {
        self.inner.shared.lock().latest()
    }

    /// The final view, if closed successfully.
    pub fn final_view(&self) -> Option<View<T>> {
        self.inner.shared.lock().final_view().cloned()
    }

    /// The error, if closed exceptionally.
    pub fn error(&self) -> Option<Error> {
        self.inner.shared.lock().error().cloned()
    }

    /// All preliminary views delivered so far (excludes the final view).
    pub fn preliminary_views(&self) -> Vec<View<T>> {
        self.inner.shared.lock().updates.iter().cloned().collect()
    }

    /// Registers a callback for every preliminary view.
    ///
    /// Views delivered before registration are replayed to the callback
    /// immediately, so late observers see the full incremental history.
    /// Returns `self` for chaining.
    pub fn on_update(&self, f: impl FnMut(&View<T>) + Send + 'static) -> &Self {
        let replay = {
            let mut g = self.inner.shared.lock();
            g.update_cbs.push(UpdateEntry {
                f: Box::new(f),
                seen: 0,
                running: false,
            });
            !g.updates.is_empty()
        };
        if replay {
            Self::pump_updates(&self.inner);
        }
        self
    }

    /// Registers a callback for the final view. If already final, the
    /// callback runs immediately. Returns `self` for chaining.
    pub fn on_final(&self, f: impl FnOnce(&View<T>) + Send + 'static) -> &Self {
        self.on_close(move |outcome| {
            if let Ok(v) = outcome {
                f(v);
            }
        })
    }

    /// Registers a callback for the error outcome. If already failed, the
    /// callback runs immediately. Returns `self` for chaining.
    pub fn on_error(&self, f: impl FnOnce(&Error) + Send + 'static) -> &Self {
        self.on_close(move |outcome| {
            if let Err(e) = outcome {
                f(e);
            }
        })
    }

    /// Registers one callback for whichever way the Correctable closes:
    /// `Ok` with the final view or `Err` with the error. If already
    /// closed, the callback runs immediately. One box and one lock, where
    /// an `on_final` / `on_error` pair takes two of each.
    pub(crate) fn on_close(
        &self,
        f: impl FnOnce(Result<&View<T>, &Error>) + Send + 'static,
    ) -> &Self {
        let outcome = {
            let mut g = self.inner.shared.lock();
            match &g.outcome {
                Some(outcome) => outcome.clone(),
                None => {
                    g.close_cbs.push(Box::new(f));
                    return self;
                }
            }
        };
        f(outcome.as_ref());
        self
    }

    /// Registers all three callbacks at once — the paper's `setCallbacks`.
    /// Returns a clone for chaining.
    pub fn set_callbacks(
        &self,
        on_update: impl FnMut(&View<T>) + Send + 'static,
        on_final: impl FnOnce(&View<T>) + Send + 'static,
        on_error: impl FnOnce(&Error) + Send + 'static,
    ) -> Correctable<T> {
        self.on_update(on_update);
        self.on_close(move |outcome| match outcome {
            Ok(v) => on_final(v),
            Err(e) => on_error(e),
        });
        self.clone()
    }

    /// Blocks the calling thread until the Correctable closes, returning
    /// the final view.
    ///
    /// # Errors
    ///
    /// Returns the closing [`Error`], or [`Error::Timeout`] if `timeout`
    /// elapses first.
    pub fn wait_final(&self, timeout: Duration) -> Result<View<T>, Error> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.shared.lock();
        loop {
            if let Some(outcome) = &g.outcome {
                return outcome.clone();
            }
            // Announce the parked waiter while still holding the lock, so
            // the producer's post-unlock check cannot miss it.
            self.inner.word.fetch_or(HAS_WAITERS, Ordering::Relaxed);
            // Preliminary views also notify the condvar, so loop until the
            // state actually closes or the deadline passes.
            let now = std::time::Instant::now();
            if now >= deadline || self.inner.cond.wait_for(&mut g, deadline - now).timed_out() {
                return Err(Error::Timeout);
            }
        }
    }

    /// Blocks until at least one view (preliminary or final) is available
    /// and returns the latest.
    ///
    /// # Errors
    ///
    /// Returns the closing [`Error`] if the operation failed without
    /// delivering any view, or [`Error::Timeout`] on timeout.
    pub fn wait_any(&self, timeout: Duration) -> Result<View<T>, Error> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.shared.lock();
        loop {
            if let Some(v) = g.latest() {
                return Ok(v);
            }
            if let Some(e) = g.error() {
                return Err(e.clone());
            }
            self.inner.word.fetch_or(HAS_WAITERS, Ordering::Relaxed);
            let now = std::time::Instant::now();
            if now >= deadline || self.inner.cond.wait_for(&mut g, deadline - now).timed_out() {
                return Err(Error::Timeout);
            }
        }
    }

    /// Dispatches pending preliminary views to update callbacks.
    ///
    /// Invariant: no user callback runs while the lock is held, and each
    /// callback sees each view exactly once, in order. Re-entrant calls
    /// (a callback delivering more views) are safe: the running entry is
    /// marked `running`, so the nested pump skips it. Restoring the
    /// previous callback and claiming the next piece of work share one
    /// lock acquisition.
    fn pump_updates(inner: &Arc<Inner<T>>) {
        let mut restore: Option<(usize, UpdateFn<T>)> = None;
        loop {
            let work = {
                let mut g = inner.shared.lock();
                let g = &mut *g;
                if let Some((i, f)) = restore.take() {
                    if let Some(entry) = g.update_cbs.get_mut(i) {
                        entry.f = f;
                        entry.running = false;
                    }
                }
                let mut found = None;
                let mut i = 0;
                while let Some(entry) = g.update_cbs.get_mut(i) {
                    if !entry.running {
                        if let Some(view) = g.updates.get(entry.seen as usize) {
                            entry.seen += 1;
                            entry.running = true;
                            // A zero-sized closure: the stand-in does not allocate.
                            let f = std::mem::replace(&mut entry.f, Box::new(|_| {}));
                            found = Some((i, f, view.clone()));
                            break;
                        }
                    }
                    i += 1;
                }
                found
            };
            match work {
                None => return,
                Some((i, mut f, view)) => {
                    f(&view);
                    restore = Some((i, f));
                }
            }
        }
    }
}

impl<T: Clone + Send + 'static> Handle<T> {
    /// Delivers a preliminary view (*updating → updating*).
    ///
    /// # Errors
    ///
    /// Returns [`ClosedError`] if the Correctable already closed.
    pub fn update(&self, value: T, level: ConsistencyLevel) -> Result<(), ClosedError> {
        let (notify, pump) = {
            let mut g = self.inner.shared.lock();
            if g.outcome.is_some() {
                return Err(ClosedError);
            }
            g.updates.push(View::new(value, level));
            let notify = self.inner.word.load(Ordering::Relaxed) & HAS_WAITERS != 0;
            (notify, !g.update_cbs.is_empty())
        };
        if notify {
            self.inner.cond.notify_all();
        }
        if pump {
            Correctable::pump_updates(&self.inner);
        }
        Ok(())
    }

    /// Closes with the final view (*updating → final*).
    ///
    /// # Errors
    ///
    /// Returns [`ClosedError`] if the Correctable already closed.
    pub fn close(&self, value: T, level: ConsistencyLevel) -> Result<(), ClosedError> {
        self.finish(Ok(View::new(value, level)))
    }

    /// Closes with an error (*updating → error*).
    ///
    /// # Errors
    ///
    /// Returns [`ClosedError`] if the Correctable already closed.
    pub fn fail(&self, err: Error) -> Result<(), ClosedError> {
        self.finish(Err(err))
    }

    /// The one closing transition: records `outcome`, then runs every
    /// close callback with it, in registration order, outside the lock.
    pub(crate) fn finish(&self, outcome: Result<View<T>, Error>) -> Result<(), ClosedError> {
        let (cbs, outcome, notify) = {
            let mut g = self.inner.shared.lock();
            if g.outcome.is_some() {
                return Err(ClosedError);
            }
            let cbs = std::mem::take(&mut g.close_cbs);
            // Copy the outcome only when a callback will read it.
            let for_cbs = (!cbs.is_empty()).then(|| outcome.clone());
            let word = if outcome.is_ok() { ST_FINAL } else { ST_ERROR };
            g.outcome = Some(outcome);
            (cbs, for_cbs, self.inner.publish(word))
        };
        if notify {
            self.inner.cond.notify_all();
        }
        if let Some(outcome) = outcome {
            for cb in cbs {
                cb(outcome.as_ref());
            }
        }
        Ok(())
    }

    /// Whether the Correctable is still open. Lock-free.
    pub fn is_open(&self) -> bool {
        decode(self.inner.word.load(Ordering::Acquire)) == State::Updating
    }

    /// A consumer handle for the same operation.
    pub fn correctable(&self) -> Correctable<T> {
        Correctable {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + 'static + std::fmt::Debug> std::fmt::Debug for Correctable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.shared.lock();
        f.debug_struct("Correctable")
            .field("state", &self.state())
            .field("updates", &g.updates.len())
            .field("final", &g.final_view())
            .field("error", &g.error())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    use crate::level::ConsistencyLevel;

    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;

    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    #[test]
    fn lifecycle_update_then_close() {
        let (c, h) = Correctable::<i32>::pending();
        assert_eq!(c.state(), State::Updating);
        h.update(1, WEAK).unwrap();
        assert_eq!(c.state(), State::Updating);
        assert_eq!(c.latest().unwrap().value, 1);
        h.close(2, STRONG).unwrap();
        assert_eq!(c.state(), State::Final);
        assert_eq!(c.final_view().unwrap().value, 2);
        assert_eq!(c.latest().unwrap().value, 2);
        assert_eq!(c.preliminary_views().len(), 1);
    }

    #[test]
    fn no_transitions_after_close() {
        let (c, h) = Correctable::<i32>::pending();
        h.close(1, STRONG).unwrap();
        assert_eq!(h.update(2, WEAK), Err(ClosedError));
        assert_eq!(h.close(3, STRONG), Err(ClosedError));
        assert_eq!(h.fail(Error::Timeout), Err(ClosedError));
        assert_eq!(c.final_view().unwrap().value, 1);
    }

    #[test]
    fn no_transitions_after_fail() {
        let (c, h) = Correctable::<i32>::pending();
        h.fail(Error::Timeout).unwrap();
        assert_eq!(c.state(), State::Error);
        assert_eq!(h.update(1, WEAK), Err(ClosedError));
        assert_eq!(c.error(), Some(Error::Timeout));
    }

    #[test]
    fn callbacks_fire_in_order() {
        let (c, h) = Correctable::<i32>::pending();
        let log = StdArc::new(Mutex::new(Vec::<String>::new()));
        let l1 = StdArc::clone(&log);
        let l2 = StdArc::clone(&log);
        c.on_update(move |v| l1.lock().push(format!("u{}", v.value)));
        c.on_final(move |v| l2.lock().push(format!("f{}", v.value)));
        h.update(1, WEAK).unwrap();
        h.update(2, WEAK).unwrap();
        h.close(3, STRONG).unwrap();
        assert_eq!(*log.lock(), vec!["u1", "u2", "f3"]);
    }

    #[test]
    fn late_callbacks_replay_history() {
        let (c, h) = Correctable::<i32>::pending();
        h.update(1, WEAK).unwrap();
        h.close(2, STRONG).unwrap();
        let log = StdArc::new(Mutex::new(Vec::<i32>::new()));
        let (l1, l2) = (StdArc::clone(&log), StdArc::clone(&log));
        c.on_update(move |v| l1.lock().push(v.value));
        c.on_final(move |v| l2.lock().push(v.value * 100));
        assert_eq!(*log.lock(), vec![1, 200]);
    }

    #[test]
    fn error_callback_fires_and_final_does_not() {
        let (c, h) = Correctable::<i32>::pending();
        let fired = StdArc::new(AtomicUsize::new(0));
        let (f1, f2) = (StdArc::clone(&fired), StdArc::clone(&fired));
        c.on_final(move |_| {
            f1.fetch_add(100, Ordering::SeqCst);
        });
        c.on_error(move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        h.fail(Error::Aborted).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reentrant_callback_is_safe() {
        let (c, h) = Correctable::<i32>::pending();
        let h2 = h.clone();
        let seen = StdArc::new(Mutex::new(Vec::new()));
        let s = StdArc::clone(&seen);
        c.on_update(move |v| {
            s.lock().push(v.value);
            if v.value == 1 {
                // Deliver another view from inside the callback.
                h2.update(2, WEAK).unwrap();
            }
        });
        h.update(1, WEAK).unwrap();
        assert_eq!(*seen.lock(), vec![1, 2]);
    }

    #[test]
    fn ready_and_failed_constructors() {
        let c = Correctable::ready(9);
        assert_eq!(c.state(), State::Final);
        assert_eq!(c.final_view().unwrap().level, STRONG);
        let f = Correctable::<i32>::failed(Error::Aborted);
        assert_eq!(f.state(), State::Error);
    }

    #[test]
    fn debug_and_closed_constructors_read_as_a_pending_one_closed() {
        let (open, _h) = Correctable::<i32>::pending();
        assert_eq!(
            format!("{open:?}"),
            "Correctable { state: Updating, updates: 0, final: None, error: None }"
        );
        let (fin, h) = Correctable::<i32>::pending();
        h.update(1, WEAK).unwrap();
        h.close(2, STRONG).unwrap();
        assert_eq!(
            format!("{fin:?}"),
            "Correctable { state: Final, updates: 1, final: Some(View { value: 2, level: \
             ConsistencyLevel { rank: 40, wire_id: 4, name: \"strong\" } }), error: None }"
        );
        let (err, h) = Correctable::<i32>::pending();
        h.fail(Error::Aborted).unwrap();
        assert_eq!(
            format!("{err:?}"),
            "Correctable { state: Error, updates: 0, final: None, error: Some(Aborted) }"
        );

        // Everything a consumer can ask, answered without blocking.
        type Answers = (
            State,
            Option<Result<View<i32>, Error>>,
            Option<View<i32>>,
            Option<Error>,
            Option<View<i32>>,
            Result<View<i32>, Error>,
            Result<View<i32>, Error>,
        );
        let answers = |c: &Correctable<i32>| -> Answers {
            let t = Duration::ZERO;
            let (state, outcome) = (c.state(), c.outcome());
            let (fv, e, latest) = (c.final_view(), c.error(), c.latest());
            (
                state,
                outcome,
                fv,
                e,
                latest,
                c.wait_any(t),
                c.wait_final(t),
            )
        };
        let closed = |outcome: Result<i32, Error>| {
            let (c, h) = Correctable::<i32>::pending();
            match outcome {
                Ok(v) => h.close(v, WEAK).unwrap(),
                Err(e) => h.fail(e).unwrap(),
            }
            c
        };
        assert_eq!(
            answers(&Correctable::ready_at(3, WEAK)),
            answers(&closed(Ok(3)))
        );
        let e = Error::Unavailable("down".into());
        assert_eq!(
            answers(&Correctable::failed(e.clone())),
            answers(&closed(Err(e)))
        );
    }

    #[test]
    fn wait_final_across_threads() {
        let (c, h) = Correctable::<i32>::pending();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            h.update(1, WEAK).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            h.close(2, STRONG).unwrap();
        });
        let v = c.wait_final(Duration::from_secs(5)).unwrap();
        assert_eq!(v.value, 2);
        t.join().unwrap();
    }

    #[test]
    fn wait_any_returns_preliminary() {
        let (c, h) = Correctable::<i32>::pending();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            h.update(7, WEAK).unwrap();
            // Never closes; wait_any must still return.
        });
        let v = c.wait_any(Duration::from_secs(5)).unwrap();
        assert_eq!(v.value, 7);
        assert_eq!(v.level, WEAK);
        t.join().unwrap();
    }

    #[test]
    fn wait_final_times_out() {
        let (c, _h) = Correctable::<i32>::pending();
        assert_eq!(c.wait_final(Duration::from_millis(10)), Err(Error::Timeout));
    }

    #[test]
    fn wait_final_propagates_error() {
        let (c, h) = Correctable::<i32>::pending();
        h.fail(Error::Unavailable("down".into())).unwrap();
        assert_eq!(
            c.wait_final(Duration::from_millis(10)),
            Err(Error::Unavailable("down".into()))
        );
    }

    #[test]
    fn multiple_update_callbacks_each_see_all_views() {
        let (c, h) = Correctable::<i32>::pending();
        let a = StdArc::new(Mutex::new(Vec::new()));
        let b = StdArc::new(Mutex::new(Vec::new()));
        let (ca, cb) = (StdArc::clone(&a), StdArc::clone(&b));
        c.on_update(move |v| ca.lock().push(v.value));
        c.on_update(move |v| cb.lock().push(v.value));
        h.update(1, WEAK).unwrap();
        h.update(2, WEAK).unwrap();
        assert_eq!(*a.lock(), vec![1, 2]);
        assert_eq!(*b.lock(), vec![1, 2]);
    }

    #[test]
    fn handle_correctable_accessor() {
        let (_, h) = Correctable::<i32>::pending();
        assert!(h.is_open());
        let c = h.correctable();
        h.close(5, STRONG).unwrap();
        assert!(!h.is_open());
        assert_eq!(c.final_view().unwrap().value, 5);
    }

    #[test]
    fn outcome_reports_open_final_and_error() {
        let (c, h) = Correctable::<i32>::pending();
        assert!(c.outcome().is_none());
        h.update(1, WEAK).unwrap();
        assert!(c.outcome().is_none());
        h.close(2, STRONG).unwrap();
        let v = c.outcome().unwrap().unwrap();
        assert_eq!((v.value, v.level), (2, STRONG));

        let (c, h) = Correctable::<i32>::pending();
        h.fail(Error::Aborted).unwrap();
        assert_eq!(c.outcome().unwrap().unwrap_err(), Error::Aborted);
    }

    #[test]
    fn many_views_spill_past_inline_storage() {
        let (c, h) = Correctable::<i32>::pending();
        let seen = StdArc::new(Mutex::new(Vec::new()));
        let s = StdArc::clone(&seen);
        c.on_update(move |v| s.lock().push(v.value));
        for i in 0..16 {
            h.update(i, WEAK).unwrap();
        }
        h.close(99, STRONG).unwrap();
        assert_eq!(*seen.lock(), (0..16).collect::<Vec<_>>());
        assert_eq!(c.preliminary_views().len(), 16);
    }

    #[test]
    fn many_callbacks_spill_past_inline_storage() {
        let (c, h) = Correctable::<i32>::pending();
        let count = StdArc::new(AtomicUsize::new(0));
        for _ in 0..9 {
            let n = StdArc::clone(&count);
            c.on_final(move |_| {
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        h.close(1, STRONG).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 9);
    }

    /// Shared by the close-list tests: each close callback logs its
    /// registration index and the outcome it ran with.
    type CloseLog = StdArc<Mutex<Vec<(usize, Result<i32, Error>)>>>;

    #[derive(Clone, Copy, Debug)]
    enum Reg {
        Final,
        Error,
        Close,
    }

    const MIXED: [Reg; 6] = [
        Reg::Close,
        Reg::Final,
        Reg::Error,
        Reg::Final,
        Reg::Close,
        Reg::Error,
    ];

    /// Registers close callback `k` of kind `reg` on `c`.
    fn register(c: &Correctable<i32>, reg: Reg, k: usize, log: &CloseLog) {
        let log = StdArc::clone(log);
        match reg {
            Reg::Final => c.on_final(move |v| log.lock().push((k, Ok(v.value)))),
            Reg::Error => c.on_error(move |e| log.lock().push((k, Err(e.clone())))),
            Reg::Close => c.on_close(move |o| {
                log.lock()
                    .push((k, o.map(|v| v.value).map_err(Error::clone)));
            }),
        };
    }

    /// What callback `k` of kind `reg` logs when `outcome` closes it.
    fn fires(
        k: usize,
        reg: Reg,
        outcome: &Result<i32, Error>,
    ) -> Option<(usize, Result<i32, Error>)> {
        match (reg, outcome) {
            (Reg::Final, Err(_)) | (Reg::Error, Ok(_)) => None,
            _ => Some((k, outcome.clone())),
        }
    }

    fn close_or_fail(h: &Handle<i32>, outcome: &Result<i32, Error>) -> Result<(), ClosedError> {
        match outcome {
            Ok(v) => h.close(*v, STRONG),
            Err(e) => h.fail(e.clone()),
        }
    }

    #[test]
    fn mixed_registrations_fire_in_order_once_on_close_and_on_fail() {
        for outcome in [Ok(7), Err(Error::Aborted)] {
            let (c, h) = Correctable::<i32>::pending();
            let log = CloseLog::default();
            for (k, reg) in MIXED.iter().enumerate() {
                register(&c, *reg, k, &log);
            }
            close_or_fail(&h, &outcome).unwrap();
            // Later closing attempts are refused and fire nothing again.
            assert_eq!(h.close(8, STRONG), Err(ClosedError));
            assert_eq!(h.fail(Error::Timeout), Err(ClosedError));
            let want: Vec<_> = (MIXED.iter().enumerate())
                .filter_map(|(k, reg)| fires(k, *reg, &outcome))
                .collect();
            assert_eq!(*log.lock(), want);
        }
    }

    #[test]
    fn registration_on_a_closed_correctable_fires_at_once_with_the_matching_arm() {
        for outcome in [Ok(7), Err(Error::Aborted)] {
            let (c, h) = Correctable::<i32>::pending();
            close_or_fail(&h, &outcome).unwrap();
            for (k, reg) in MIXED.iter().enumerate() {
                let log = CloseLog::default();
                register(&c, *reg, k, &log);
                let want: Vec<_> = fires(k, *reg, &outcome).into_iter().collect();
                assert_eq!(*log.lock(), want, "{reg:?} after {outcome:?}");
            }
        }
    }

    #[test]
    fn close_from_inside_an_update_callback_runs_every_close_callback() {
        let (c, h) = Correctable::<i32>::pending();
        let log = CloseLog::default();
        register(&c, Reg::Final, 0, &log);
        let h2 = h.clone();
        c.on_update(move |v| h2.close(v.value + 1, STRONG).unwrap());
        register(&c, Reg::Close, 1, &log);
        register(&c, Reg::Error, 2, &log);
        register(&c, Reg::Final, 3, &log);
        h.update(1, WEAK).unwrap();
        assert_eq!(c.state(), State::Final);
        assert_eq!(*log.lock(), vec![(0, Ok(2)), (1, Ok(2)), (3, Ok(2))]);
    }

    /// A Correctable's shared state for `u64`: 376 B while final and error
    /// callbacks had a list each, 328 B with one close list, 304 B with
    /// safe inline lists, 272 B with one outcome field in place of a
    /// state, a final view and an error.
    #[test]
    fn shared_state_does_not_grow() {
        let size = std::mem::size_of::<Inner<u64>>();
        assert!(size <= 272, "Inner<u64> grew to {size} B");
    }

    /// The per-kind lists `Shared` kept before one close list replaced
    /// them, as the reference: `close` ran the final list in order and
    /// dropped the error list, `fail` the reverse, and a registration on a
    /// closed Correctable ran at once only if its kind matched. `on_close`
    /// is an `on_final` / `on_error` pair, which is what the combinators
    /// registered before.
    #[derive(Default)]
    struct PerKindLists {
        closed: Option<Result<View<i32>, Error>>,
        final_cbs: Vec<FinalFn>,
        error_cbs: Vec<ErrorFn>,
    }

    type FinalFn = Box<dyn FnOnce(&View<i32>)>;
    type ErrorFn = Box<dyn FnOnce(&Error)>;

    impl PerKindLists {
        fn on_final(&mut self, f: impl FnOnce(&View<i32>) + 'static) {
            match &self.closed {
                None => self.final_cbs.push(Box::new(f)),
                Some(Ok(v)) => f(v),
                Some(Err(_)) => {}
            }
        }

        fn on_error(&mut self, f: impl FnOnce(&Error) + 'static) {
            match &self.closed {
                None => self.error_cbs.push(Box::new(f)),
                Some(Err(e)) => f(e),
                Some(Ok(_)) => {}
            }
        }

        fn register(&mut self, reg: Reg, k: usize, log: &CloseLog) {
            if matches!(reg, Reg::Final | Reg::Close) {
                let log = StdArc::clone(log);
                self.on_final(move |v| log.lock().push((k, Ok(v.value))));
            }
            if matches!(reg, Reg::Error | Reg::Close) {
                let log = StdArc::clone(log);
                self.on_error(move |e| log.lock().push((k, Err(e.clone()))));
            }
        }

        fn close_or_fail(&mut self, outcome: &Result<i32, Error>) -> Result<(), ClosedError> {
            if self.closed.is_some() {
                return Err(ClosedError);
            }
            let (finals, errors) = (
                std::mem::take(&mut self.final_cbs),
                std::mem::take(&mut self.error_cbs),
            );
            match outcome {
                Ok(v) => {
                    let view = View::new(*v, STRONG);
                    finals.into_iter().for_each(|cb| cb(&view));
                    self.closed = Some(Ok(view));
                }
                Err(e) => {
                    errors.into_iter().for_each(|cb| cb(e));
                    self.closed = Some(Err(e.clone()));
                }
            }
            Ok(())
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        Register(Reg),
        Update(i32),
        Close(Result<i32, Error>),
    }

    fn step() -> impl proptest::prelude::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            4 => (0usize..3).prop_map(|r| Step::Register([Reg::Final, Reg::Error, Reg::Close][r])),
            1 => any::<i32>().prop_map(Step::Update),
            1 => any::<i32>().prop_map(|v| Step::Close(Ok(v))),
            1 => any::<bool>().prop_map(|t| {
                Step::Close(Err(if t { Error::Timeout } else { Error::Aborted }))
            }),
        ]
    }

    proptest::proptest! {
        /// Random scripts of registrations, preliminary views and closing
        /// attempts (several per script, so most land on a closed
        /// Correctable): the close list fires what the per-kind lists
        /// fire, in the same order, and accepts the same closes.
        #[test]
        fn close_list_fires_what_the_per_kind_lists_fire(
            script in proptest::collection::vec(step(), 1..40),
        ) {
            let (c, h) = Correctable::<i32>::pending();
            let mut reference = PerKindLists::default();
            let (log, reference_log) = (CloseLog::default(), CloseLog::default());
            for (k, s) in script.iter().enumerate() {
                match s {
                    Step::Register(reg) => {
                        register(&c, *reg, k, &log);
                        reference.register(*reg, k, &reference_log);
                    }
                    Step::Update(v) => {
                        let closed = reference.closed.is_some();
                        proptest::prop_assert_eq!(h.update(*v, WEAK).is_err(), closed);
                    }
                    Step::Close(outcome) => {
                        proptest::prop_assert_eq!(
                            close_or_fail(&h, outcome),
                            reference.close_or_fail(outcome),
                            "step {}", k
                        );
                    }
                }
                proptest::prop_assert_eq!(
                    log.lock().clone(),
                    reference_log.lock().clone(),
                    "after step {} of {:?}", k, script
                );
            }
        }
    }
}
