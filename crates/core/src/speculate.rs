//! The `speculate` combinator (Listing 3 of the paper).
//!
//! `speculate` captures the canonical ICG pattern: run dependent work on
//! each preliminary view, and
//!
//! - if the final view **matches** a preliminary one (the common case), the
//!   derived Correctable closes as soon as both the final view and the
//!   speculative work are available — hiding the latency of strong
//!   consistency behind the speculation;
//! - if the final view **diverges** (misspeculation), the optional abort
//!   function undoes side effects and the speculation function re-executes
//!   on the correct input before the derived Correctable closes.
//!
//! The speculation function may itself be asynchronous (e.g. prefetching
//! dependent objects from storage): it returns a [`Correctable`] of the
//! derived result. The synchronous form runs a plain function inline.
//! Both forms finish through one completion rule (`complete`).

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::correctable::{Correctable, Handle};
use crate::error::Error;
use crate::level::ConsistencyLevel;
use crate::view::View;

type SpecFn<T, U> = Box<dyn FnMut(&T) -> Correctable<U> + Send>;
type SyncSpecFn<T, U> = Box<dyn FnMut(&T) -> U + Send>;
type AbortFn<T> = Box<dyn FnMut(&T) + Send>;

/// The speculation function: asynchronous (returns a [`Correctable`] of
/// the derived result) or synchronous (the fast path — runs inline, no
/// intermediate Correctable or completion callbacks are allocated).
enum Spec<T, U> {
    Async(SpecFn<T, U>),
    Sync(SyncSpecFn<T, U>),
}

struct SpecState<T, U> {
    /// Input of the speculation currently in flight (or completed).
    cur_input: Option<T>,
    /// Result view of the completed speculation for `cur_input`.
    cur_done: Option<View<U>>,
    /// The underlying operation's final view, once it arrives.
    final_view: Option<View<T>>,
    /// Bumped whenever the speculation input changes; stale completions
    /// compare epochs and drop themselves.
    epoch: u64,
    spec: Spec<T, U>,
    abort: AbortFn<T>,
    out: Handle<U>,
    closed: bool,
}

impl<T: Clone + PartialEq + Send + 'static> Correctable<T> {
    /// Applies an asynchronous speculation function to every distinct view
    /// and returns a Correctable of the speculation result.
    ///
    /// `abort` runs whenever in-flight speculative work is invalidated by a
    /// newer, different view (including the divergence of the final view) —
    /// use it to undo externalized side effects.
    pub fn speculate_async<U, F, A>(&self, spec: F, abort: A) -> Correctable<U>
    where
        U: Clone + Send + 'static,
        F: FnMut(&T) -> Correctable<U> + Send + 'static,
        A: FnMut(&T) + Send + 'static,
    {
        self.speculate_impl(Spec::Async(Box::new(spec)), Box::new(abort))
    }

    fn speculate_impl<U>(&self, spec: Spec<T, U>, abort: AbortFn<T>) -> Correctable<U>
    where
        U: Clone + Send + 'static,
    {
        let (out, out_handle) = Correctable::<U>::pending();
        let state = Arc::new(Mutex::new(SpecState {
            cur_input: None,
            cur_done: None,
            final_view: None,
            epoch: 0,
            spec,
            abort,
            out: out_handle,
            closed: false,
        }));

        let st_u = Arc::clone(&state);
        self.on_update(move |v: &View<T>| on_view(&st_u, v, false));
        self.on_close(move |outcome| match outcome {
            Ok(v) => on_view(&state, v, true),
            Err(e) => on_error(&state, e),
        });
        out
    }

    /// Synchronous speculation: Listing 3's
    /// `invoke(read(...)).speculate(speculationFunc)`.
    ///
    /// The function runs inline on each distinct view; no intermediate
    /// Correctable is allocated per speculation.
    pub fn speculate<U, F>(&self, spec: F) -> Correctable<U>
    where
        U: Clone + Send + 'static,
        F: FnMut(&T) -> U + Send + 'static,
    {
        self.speculate_impl(Spec::Sync(Box::new(spec)), Box::new(|_| {}))
    }

    /// Synchronous speculation with an abort function, mirroring
    /// `speculate(speculationFunc, abortFunc)`.
    pub fn speculate_with_abort<U, F, A>(&self, spec: F, abort: A) -> Correctable<U>
    where
        U: Clone + Send + 'static,
        F: FnMut(&T) -> U + Send + 'static,
        A: FnMut(&T) + Send + 'static,
    {
        self.speculate_impl(Spec::Sync(Box::new(spec)), Box::new(abort))
    }
}

/// Fails the output with the underlying operation's error, after undoing
/// in-flight speculative work.
fn on_error<T, U>(state: &Arc<Mutex<SpecState<T, U>>>, e: &Error)
where
    U: Clone + Send + 'static,
{
    let (out, aborted) = {
        let mut g = state.lock();
        if g.closed {
            return;
        }
        g.closed = true;
        let aborted = if g.cur_done.is_none() {
            g.cur_input.take()
        } else {
            None
        };
        (g.out.clone(), aborted)
    };
    if let Some(input) = aborted {
        run_abort(state, &input);
    }
    let _ = out.fail(e.clone());
}

/// Runs the user abort function with the state lock released, so it may
/// freely interact with other Correctables.
fn run_abort<T, U>(state: &Arc<Mutex<SpecState<T, U>>>, input: &T) {
    let mut abort = {
        let mut g = state.lock();
        std::mem::replace(&mut g.abort, Box::new(|_| {}))
    };
    abort(input);
    let mut g = state.lock();
    g.abort = abort;
}

/// Handles one incoming view (preliminary or final).
///
/// Locking discipline: user code (`spec`, `abort`, handle operations) never
/// runs while the state lock is held; the `epoch` field detects staleness
/// across the unlock/relock gaps.
fn on_view<T, U>(state: &Arc<Mutex<SpecState<T, U>>>, v: &View<T>, is_final: bool)
where
    T: Clone + PartialEq + Send + 'static,
    U: Clone + Send + 'static,
{
    let (aborted, epoch) = {
        let mut g = state.lock();
        if g.closed {
            return;
        }
        if is_final {
            g.final_view = Some(v.clone());
        }
        if g.cur_input.as_ref() == Some(&v.value) {
            // The current speculation stands. A final view confirms it:
            // if its work is done, close now; if not, its completion will.
            if let Some(done) = g.cur_done.take_if(|_| is_final) {
                let epoch = g.epoch;
                complete(g, epoch, Ok(done));
            }
            return;
        }
        // A new preliminary, or a final that diverges from (or arrives
        // without) one: abort the work in flight and redo on this input.
        g.epoch += 1;
        g.cur_done = None;
        (g.cur_input.replace(v.value.clone()), g.epoch)
    };
    if let Some(old) = aborted {
        run_abort(state, &old);
    }
    // Take the spec function out so user code runs unlocked.
    let spec = std::mem::replace(
        &mut state.lock().spec,
        Spec::Sync(Box::new(|_| unreachable!("spec in flight"))),
    );
    match spec {
        Spec::Sync(mut f) => {
            // Fast path: the result is available as soon as the function
            // returns, so it completes inline, with no Correctable of its own.
            let done = View::new(f(&v.value), ConsistencyLevel::STRONG);
            let mut g = state.lock();
            g.spec = Spec::Sync(f);
            complete(g, epoch, Ok(done));
        }
        Spec::Async(mut f) => {
            let work = f(&v.value);
            state.lock().spec = Spec::Async(f);
            let state = Arc::clone(state);
            work.on_close(move |outcome| {
                let result = outcome.cloned().map_err(Error::clone);
                complete(state.lock(), epoch, result);
            });
        }
    }
}

/// The one completion rule of both forms, for the speculation launched at
/// `epoch`: unless a newer input superseded it (or the output closed),
/// record `result`, close the output at the final view's level if that
/// view confirmed the speculation's input, and fail it on an error. Takes
/// the state locked and closes the output after releasing it.
///
/// Inlined into its three callers: called out of line, it made the sync
/// form's launch and close about 1 % slower in an in-process A/B.
#[inline(always)]
fn complete<T, U>(
    mut g: MutexGuard<'_, SpecState<T, U>>,
    epoch: u64,
    result: Result<View<U>, Error>,
) where
    T: PartialEq,
    U: Clone + Send + 'static,
{
    if g.closed || g.epoch != epoch {
        return;
    }
    let outcome = match result {
        Ok(done) => {
            let confirmed = (g.final_view.as_ref())
                .filter(|fv| g.cur_input.as_ref() == Some(&fv.value))
                .map(|fv| fv.level);
            match confirmed {
                Some(level) => Ok(View::new(done.value, level)),
                None => {
                    g.cur_done = Some(done);
                    return;
                }
            }
        }
        Err(e) => Err(e),
    };
    g.closed = true;
    let out = g.out.clone();
    drop(g);
    let _ = out.finish(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    use crate::correctable::State;
    use crate::level::ConsistencyLevel;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    #[test]
    fn confirmed_speculation_closes_with_spec_result() {
        let (c, h) = Correctable::<i32>::pending();
        let calls = StdArc::new(AtomicU64::new(0));
        let calls2 = StdArc::clone(&calls);
        let out = c.speculate(move |x| {
            calls2.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        h.update(4, WEAK).unwrap();
        assert_eq!(out.state(), State::Updating);
        h.close(4, STRONG).unwrap();
        let v = out.final_view().expect("closed");
        assert_eq!(v.value, 40);
        assert_eq!(v.level, STRONG);
        // The speculation ran exactly once: no redo on confirmation.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn misspeculation_reexecutes_and_aborts() {
        let (c, h) = Correctable::<i32>::pending();
        let aborted = StdArc::new(Mutex::new(Vec::<i32>::new()));
        let ab = StdArc::clone(&aborted);
        let out = c.speculate_with_abort(|x| x * 10, move |bad| ab.lock().push(*bad));
        h.update(4, WEAK).unwrap();
        h.close(5, STRONG).unwrap();
        assert_eq!(out.final_view().unwrap().value, 50);
        assert_eq!(*aborted.lock(), vec![4]);
    }

    #[test]
    fn no_preliminary_still_produces_result() {
        let (c, h) = Correctable::<i32>::pending();
        let out = c.speculate(|x| x + 1);
        h.close(9, STRONG).unwrap();
        assert_eq!(out.final_view().unwrap().value, 10);
    }

    #[test]
    fn duplicate_preliminaries_do_not_respeculate() {
        let (c, h) = Correctable::<i32>::pending();
        let calls = StdArc::new(AtomicU64::new(0));
        let calls2 = StdArc::clone(&calls);
        let out = c.speculate(move |x| {
            calls2.fetch_add(1, Ordering::SeqCst);
            *x
        });
        h.update(7, WEAK).unwrap();
        h.update(7, WEAK).unwrap();
        h.close(7, STRONG).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(out.final_view().unwrap().value, 7);
    }

    #[test]
    fn async_speculation_closes_after_both_complete() {
        let (c, h) = Correctable::<i32>::pending();
        // The speculative work completes only when we close `work_h`.
        let pending: StdArc<Mutex<Vec<Handle<i32>>>> = StdArc::new(Mutex::new(Vec::new()));
        let p2 = StdArc::clone(&pending);
        let out = c.speculate_async(
            move |x| {
                let (w, wh) = Correctable::<i32>::pending();
                let seed = *x;
                p2.lock().push(wh);
                let _ = seed;
                w
            },
            |_| {},
        );
        h.update(1, WEAK).unwrap();
        h.close(1, STRONG).unwrap();
        // Final view arrived, but the speculative work is still running.
        assert_eq!(out.state(), State::Updating);
        let wh = pending.lock().pop().unwrap();
        wh.close(111, STRONG).unwrap();
        assert_eq!(out.final_view().unwrap().value, 111);
    }

    #[test]
    fn async_speculation_completing_before_final_closes_on_final() {
        let (c, h) = Correctable::<i32>::pending();
        let out = c.speculate_async(|x| Correctable::ready(x * 2), |_| {});
        h.update(3, WEAK).unwrap();
        assert_eq!(out.state(), State::Updating);
        h.close(3, STRONG).unwrap();
        assert_eq!(out.final_view().unwrap().value, 6);
    }

    #[test]
    fn stale_async_result_is_ignored() {
        type LaunchLog = StdArc<Mutex<Vec<(i32, Handle<i32>)>>>;
        let (c, h) = Correctable::<i32>::pending();
        let handles: LaunchLog = StdArc::new(Mutex::new(Vec::new()));
        let h2 = StdArc::clone(&handles);
        let out = c.speculate_async(
            move |x| {
                let (w, wh) = Correctable::<i32>::pending();
                h2.lock().push((*x, wh));
                w
            },
            |_| {},
        );
        h.update(1, WEAK).unwrap();
        h.close(2, STRONG).unwrap();
        // Finish the stale speculation (input 1) after the relaunch (input 2).
        let mut hs = handles.lock();
        assert_eq!(hs.len(), 2);
        let (stale_in, stale_h) = hs.remove(0);
        let (fresh_in, fresh_h) = hs.remove(0);
        drop(hs);
        assert_eq!((stale_in, fresh_in), (1, 2));
        stale_h.close(-1, STRONG).unwrap();
        assert_eq!(out.state(), State::Updating, "stale result must not close");
        fresh_h.close(22, STRONG).unwrap();
        assert_eq!(out.final_view().unwrap().value, 22);
    }

    #[test]
    fn underlying_error_propagates_and_aborts() {
        let (c, h) = Correctable::<i32>::pending();
        let aborted = StdArc::new(Mutex::new(Vec::<i32>::new()));
        let ab = StdArc::clone(&aborted);
        let out = c.speculate_async(
            |_| Correctable::<i32>::pending().0, // never completes
            move |bad| ab.lock().push(*bad),
        );
        h.update(5, WEAK).unwrap();
        h.fail(Error::Timeout).unwrap();
        assert_eq!(out.state(), State::Error);
        assert_eq!(out.error(), Some(Error::Timeout));
        assert_eq!(*aborted.lock(), vec![5]);
    }

    #[test]
    fn spec_work_error_propagates() {
        let (c, h) = Correctable::<i32>::pending();
        let out = c.speculate_async(
            |_| Correctable::<i32>::failed(Error::Storage("boom".into())),
            |_| {},
        );
        h.update(5, WEAK).unwrap();
        assert_eq!(out.state(), State::Error);
        assert_eq!(out.error(), Some(Error::Storage("boom".into())));
    }

    #[test]
    fn changing_preliminaries_each_respeculate() {
        let (c, h) = Correctable::<i32>::pending();
        let calls = StdArc::new(AtomicU64::new(0));
        let aborts = StdArc::new(AtomicU64::new(0));
        let (c2, a2) = (StdArc::clone(&calls), StdArc::clone(&aborts));
        let out = c.speculate_with_abort(
            move |x| {
                c2.fetch_add(1, Ordering::SeqCst);
                *x
            },
            move |_| {
                a2.fetch_add(1, Ordering::SeqCst);
            },
        );
        h.update(1, WEAK).unwrap();
        h.update(2, WEAK).unwrap();
        h.close(2, STRONG).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(aborts.load(Ordering::SeqCst), 1);
        assert_eq!(out.final_view().unwrap().value, 2);
    }
}
