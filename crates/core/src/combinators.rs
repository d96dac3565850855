//! Promise-style combinators inherited from modern Promises (§3 of the
//! paper mentions aggregation and monadic-style chaining; this module
//! provides them for Correctables).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::correctable::{Correctable, Handle};
use crate::error::Error;
use crate::level::ConsistencyLevel;
use crate::view::View;

/// One emission of a [`Join`]: the merged values, their level, and
/// whether it closes the merged Correctable.
type Emission<T> = (Vec<T>, ConsistencyLevel, bool);

/// The one aggregation rule, fed one input view at a time:
/// [`Correctable::join_all`] feeds it its inputs' closes,
/// [`Correctable::gather`] every view of every part.
///
/// - a merged view surfaces once every input has delivered a view, at
///   the weakest level any input sits at, and again each time that
///   floor rises;
/// - it closes once every input has closed, at the weakest final level;
/// - the first input error fails it ([`Join::close_of`]).
///
/// Emissions are decided under the lock and delivered outside it, so
/// callbacks on the merged Correctable never run under it. One caller
/// delivers at a time, in order; an emission decided meanwhile (from
/// inside a merged callback, or on another thread) waits in `queue` for
/// that caller instead of recursing into the lock.
struct Join<T> {
    /// Each input's latest view; `None` until it delivers one.
    latest: Vec<Option<View<T>>>,
    /// Inputs that have delivered no view yet.
    silent: usize,
    /// Inputs still open.
    open: usize,
    /// Level of the last merged view emitted.
    emitted: Option<ConsistencyLevel>,
    /// Emissions decided but not yet delivered.
    queue: VecDeque<Emission<T>>,
    /// Some caller is delivering; others only enqueue.
    emitting: bool,
}

impl<T: Clone + Send + 'static> Join<T> {
    /// A join over inputs whose views so far are `latest`: an input with
    /// a view there has closed with it, one without is still open.
    fn new(latest: Vec<Option<View<T>>>) -> Self {
        let open = latest.iter().filter(|v| v.is_none()).count();
        Join {
            latest,
            silent: open,
            open,
            emitted: None,
            queue: VecDeque::new(),
            emitting: false,
        }
    }

    /// Shares the join with its inputs' callbacks; with no input open it
    /// closes `out` at once instead.
    fn start(mut self, out: &Handle<Vec<T>>) -> Option<Arc<Mutex<Self>>> {
        if self.open > 0 {
            return Some(Arc::new(Mutex::new(self)));
        }
        if let Some((values, level, _)) = self.emission() {
            let _ = out.close(values, level);
        }
        None
    }

    /// The merged view the inputs' latest views make surface, if any.
    /// The closing one moves the values out; nothing surfaces after it.
    fn emission(&mut self) -> Option<Emission<T>> {
        if self.silent > 0 {
            return None;
        }
        // By reference: folding the levels by value copies each one
        // through its padding, which made a 16-input close 3× slower.
        let floor = self
            .latest
            .iter()
            .flatten()
            .map(|v| &v.level)
            .min()
            .copied()
            .unwrap_or(ConsistencyLevel::STRONG);
        let closes = self.open == 0;
        if !closes && self.emitted.is_some_and(|e| floor.rank() <= e.rank()) {
            return None;
        }
        self.emitted = Some(floor);
        let mut values = Vec::with_capacity(self.latest.len());
        if closes {
            values.extend(
                self.latest
                    .iter_mut()
                    .filter_map(Option::take)
                    .map(|v| v.value),
            );
        } else {
            values.extend(self.latest.iter().flatten().map(|v| v.value.clone()));
        }
        Some((values, floor, closes))
    }

    /// Records input `i`'s view (its final one if `closes`) and delivers
    /// the merged views it makes surface.
    fn feed(state: &Mutex<Self>, out: &Handle<Vec<T>>, i: usize, view: &View<T>, closes: bool) {
        let mut next = {
            let mut guard = state.lock();
            let g = &mut *guard;
            // Closed already: nothing surfaces after the close.
            if g.open == 0 {
                return;
            }
            g.silent -= usize::from(g.latest[i].is_none());
            g.latest[i] = Some(view.clone());
            g.open -= usize::from(closes);
            let e = g.emission();
            if g.emitting {
                g.queue.extend(e);
                return;
            }
            g.emitting = e.is_some();
            e
        };
        while let Some((values, level, closes)) = next {
            if closes {
                let _ = out.close(values, level);
                return;
            }
            let _ = out.update(values, level);
            let mut g = state.lock();
            next = g.queue.pop_front();
            g.emitting = next.is_some();
        }
    }

    /// Input `i`'s close callback: its final view feeds the join, and
    /// its error fails the merge.
    fn close_of(
        state: &Arc<Mutex<Self>>,
        out: &Handle<Vec<T>>,
        i: usize,
    ) -> impl FnOnce(Result<&View<T>, &Error>) + Send + 'static {
        let (st, out) = (Arc::clone(state), out.clone());
        move |outcome| match outcome {
            Ok(v) => Join::feed(&st, &out, i, v, true),
            Err(e) => {
                let _ = out.fail(e.clone());
            }
        }
    }
}

impl<T: Clone + Send + 'static> Correctable<T> {
    /// Transforms every view (preliminary and final) with `f`.
    pub fn map<U, F>(&self, f: F) -> Correctable<U>
    where
        U: Clone + Send + 'static,
        F: FnMut(&T) -> U + Send + 'static,
    {
        let (out, handle) = Correctable::<U>::pending();
        let f = Arc::new(Mutex::new(f));
        let h_u = handle.clone();
        let f_u = Arc::clone(&f);
        self.on_update(move |v: &View<T>| {
            let mapped = (f_u.lock())(&v.value);
            let _ = h_u.update(mapped, v.level);
        });
        self.on_close(move |outcome| match outcome {
            Ok(v) => {
                let mapped = (f.lock())(&v.value);
                let _ = handle.close(mapped, v.level);
            }
            Err(e) => {
                let _ = handle.fail(e.clone());
            }
        });
        out
    }

    /// Chains an asynchronous continuation on the final view; preliminary
    /// views of `self` are forwarded as preliminary views of the result
    /// (mapped through nothing — the continuation only sees the final).
    pub fn then<U, F>(&self, f: F) -> Correctable<U>
    where
        U: Clone + Send + 'static,
        F: FnOnce(&View<T>) -> Correctable<U> + Send + 'static,
    {
        let (out, handle) = Correctable::<U>::pending();
        self.on_close(move |outcome| match outcome {
            Ok(v) => {
                let next = f(v);
                let h_u = handle.clone();
                next.on_update(move |u: &View<U>| {
                    let _ = h_u.update(u.value.clone(), u.level);
                });
                next.on_close(move |outcome| {
                    let _ = match outcome {
                        Ok(u) => handle.close(u.value.clone(), u.level),
                        Err(e) => handle.fail(e.clone()),
                    };
                });
            }
            Err(e) => {
                let _ = handle.fail(e.clone());
            }
        });
        out
    }

    /// Aggregates many Correctables: the result closes with all final
    /// values, in input order, once every input has closed, at the
    /// weakest final level. It delivers no preliminary view (DESIGN §1);
    /// [`Correctable::gather`] is the same rule over every view.
    ///
    /// The first input error fails the aggregate immediately.
    ///
    /// Inputs that have already closed are harvested synchronously with a
    /// lock-free probe ([`Correctable::outcome`]); callback closures are
    /// boxed and registered only for inputs still open at call time, so
    /// joining a set of ready results performs no callback allocation.
    pub fn join_all(items: Vec<Correctable<T>>) -> Correctable<Vec<T>> {
        let (out, handle) = Correctable::<Vec<T>>::pending();
        let n = items.len();
        // Harvest everything already closed without registering callbacks.
        let mut latest = Vec::with_capacity(n);
        let mut open = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item.outcome() {
                Some(Ok(v)) => latest.push(Some(v)),
                Some(Err(e)) => {
                    let _ = handle.fail(e);
                    return out;
                }
                None => {
                    latest.push(None);
                    open.reserve(n - i);
                    open.push(i);
                }
            }
        }
        let Some(state) = Join::new(latest).start(&handle) else {
            return out;
        };
        // An input that closed between the probe above and this
        // registration fires the callback immediately (replay), so no
        // completion is lost.
        for i in open {
            items[i].on_close(Join::close_of(&state, &handle, i));
        }
        out
    }

    /// Merges many Correctables with **weakest-common-level** semantics:
    ///
    /// - an intermediate view surfaces as soon as *every* part has delivered
    ///   at least one view, at the weakest level any part currently sits at,
    ///   and again each time that common floor rises;
    /// - the result closes only when every part has delivered its strongest
    ///   (final) view, at the weakest of the final levels;
    /// - the first part error fails the merge.
    ///
    /// This is the multi-shard generalization of a single binding's
    /// incremental delivery: the merged view is never claimed stronger than
    /// its weakest constituent. A part that has already closed replays its
    /// views into the merge.
    pub fn gather(parts: Vec<Correctable<T>>) -> Correctable<Vec<T>> {
        let (out, handle) = Correctable::<Vec<T>>::pending();
        let Some(state) = Join::new(parts.iter().map(|_| None).collect()).start(&handle) else {
            return out;
        };
        for (i, part) in parts.iter().enumerate() {
            let (st, h) = (Arc::clone(&state), handle.clone());
            part.on_update(move |v: &View<T>| Join::feed(&st, &h, i, v, false));
            part.on_close(Join::close_of(&state, &handle, i));
        }
        out
    }

    /// Races many Correctables: the result closes with the first final view
    /// to arrive. It fails only if every input fails.
    pub fn first_final(items: Vec<Correctable<T>>) -> Correctable<T> {
        let (out, handle) = Correctable::<T>::pending();
        let n = items.len();
        if n == 0 {
            let _ = handle.fail(Error::Unavailable("first_final of no inputs".into()));
            return out;
        }
        let errors = Arc::new(Mutex::new(0usize));
        for item in &items {
            let h = handle.clone();
            let errs = Arc::clone(&errors);
            item.on_close(move |outcome| match outcome {
                Ok(v) => {
                    let _ = h.close(v.value.clone(), v.level);
                }
                Err(e) => {
                    let mut g = errs.lock();
                    *g += 1;
                    if *g == n {
                        let _ = h.fail(e.clone());
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctable::State;
    use crate::level::ConsistencyLevel;
    const CAUSAL: ConsistencyLevel = ConsistencyLevel::CAUSAL;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    #[test]
    fn map_transforms_updates_and_final() {
        let (c, h) = Correctable::<i32>::pending();
        let m = c.map(|x| x * 2);
        h.update(1, WEAK).unwrap();
        assert_eq!(m.latest().unwrap().value, 2);
        assert_eq!(m.latest().unwrap().level, WEAK);
        h.close(3, STRONG).unwrap();
        assert_eq!(m.final_view().unwrap().value, 6);
    }

    #[test]
    fn map_propagates_error() {
        let (c, h) = Correctable::<i32>::pending();
        let m = c.map(|x| *x);
        h.fail(Error::Timeout).unwrap();
        assert_eq!(m.state(), State::Error);
    }

    #[test]
    fn then_chains_on_final() {
        let (c, h) = Correctable::<i32>::pending();
        let t = c.then(|v| Correctable::ready(v.value + 100));
        h.update(1, WEAK).unwrap();
        assert_eq!(t.state(), State::Updating);
        h.close(2, STRONG).unwrap();
        assert_eq!(t.final_view().unwrap().value, 102);
    }

    #[test]
    fn then_propagates_inner_error() {
        let (c, h) = Correctable::<i32>::pending();
        let t: Correctable<i32> = c.then(|_| Correctable::failed(Error::Aborted));
        h.close(1, STRONG).unwrap();
        assert_eq!(t.error(), Some(Error::Aborted));
    }

    #[test]
    fn join_all_waits_for_everything_in_order() {
        let (a, ha) = Correctable::<i32>::pending();
        let (b, hb) = Correctable::<i32>::pending();
        let j = Correctable::join_all(vec![a, b]);
        hb.close(2, STRONG).unwrap();
        assert_eq!(j.state(), State::Updating);
        ha.close(1, STRONG).unwrap();
        assert_eq!(j.final_view().unwrap().value, vec![1, 2]);
    }

    #[test]
    fn join_all_level_is_weakest() {
        let (a, ha) = Correctable::<i32>::pending();
        let (b, hb) = Correctable::<i32>::pending();
        let j = Correctable::join_all(vec![a, b]);
        ha.close(1, STRONG).unwrap();
        hb.close(2, CAUSAL).unwrap();
        assert_eq!(j.final_view().unwrap().level, CAUSAL);
    }

    #[test]
    fn join_all_empty_closes_immediately() {
        let j = Correctable::<i32>::join_all(vec![]);
        assert_eq!(j.final_view().unwrap().value, Vec::<i32>::new());
    }

    #[test]
    fn join_all_fails_fast() {
        let (a, ha) = Correctable::<i32>::pending();
        let (b, _hb) = Correctable::<i32>::pending();
        let j = Correctable::join_all(vec![a, b]);
        ha.fail(Error::Timeout).unwrap();
        assert_eq!(j.state(), State::Error);
    }

    #[test]
    fn join_all_fails_once_and_later_closes_are_no_ops() {
        let pairs: Vec<_> = (0..4).map(|_| Correctable::<i32>::pending()).collect();
        let j = Correctable::join_all(pairs.iter().map(|(c, _)| c.clone()).collect());
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&outcomes);
        j.on_close(move |r| {
            o.lock()
                .push(r.map(|v| v.value.clone()).map_err(Error::clone))
        });
        pairs[1].1.fail(Error::Timeout).unwrap();
        pairs[0].1.close(1, STRONG).unwrap();
        pairs[3].1.fail(Error::Aborted).unwrap();
        pairs[2].1.close(3, STRONG).unwrap();
        assert_eq!(*outcomes.lock(), vec![Err(Error::Timeout)]);
        assert_eq!(j.error(), Some(Error::Timeout));
    }

    #[test]
    fn gather_floor_rises_with_slowest_part() {
        let (a, ha) = Correctable::<u32>::pending();
        let (b, hb) = Correctable::<u32>::pending();
        let g = Correctable::gather(vec![a, b]);
        ha.update(1, WEAK).unwrap();
        // Only one part has delivered: nothing surfaces yet.
        assert!(g.preliminary_views().is_empty());
        hb.update(2, CAUSAL).unwrap();
        // Both delivered; the common floor is WEAK.
        assert_eq!(g.preliminary_views().len(), 1);
        assert_eq!(g.preliminary_views()[0].level, WEAK);
        assert_eq!(g.preliminary_views()[0].value, vec![1, 2]);
        ha.update(3, CAUSAL).unwrap();
        // Floor rises to CAUSAL.
        assert_eq!(g.preliminary_views().len(), 2);
        assert_eq!(g.preliminary_views()[1].level, CAUSAL);
        ha.close(4, STRONG).unwrap();
        // One part final, the other not: still open.
        assert_eq!(g.state(), State::Updating);
        hb.close(5, STRONG).unwrap();
        let fin = g.final_view().unwrap();
        assert_eq!(fin.level, STRONG);
        assert_eq!(fin.value, vec![4, 5]);
    }

    #[test]
    fn gather_reentrant_delivery_from_merged_callback_is_safe() {
        // A callback on the merged Correctable that synchronously drives
        // more deliveries into the gather's own parts must not deadlock
        // (the merge lock is never held while user callbacks run) and the
        // merged views must stay in level order.
        let (a, ha) = Correctable::<u32>::pending();
        let (b, hb) = Correctable::<u32>::pending();
        let g = Correctable::gather(vec![a, b]);
        let ha2 = ha.clone();
        let hb2 = hb.clone();
        g.on_update(move |v| {
            if v.level == WEAK {
                // Raise both parts to CAUSAL from inside the emission.
                let _ = ha2.update(30, CAUSAL);
                let _ = hb2.update(40, CAUSAL);
            }
        });
        ha.update(1, WEAK).unwrap();
        hb.update(2, WEAK).unwrap();
        // The WEAK emission triggered the CAUSAL round re-entrantly.
        let prelims = g.preliminary_views();
        assert_eq!(prelims.len(), 2);
        assert_eq!(prelims[0].level, WEAK);
        assert_eq!(prelims[0].value, vec![1, 2]);
        assert_eq!(prelims[1].level, CAUSAL);
        assert_eq!(prelims[1].value, vec![30, 40]);
        ha.close(5, STRONG).unwrap();
        hb.close(6, STRONG).unwrap();
        assert_eq!(g.final_view().unwrap().value, vec![5, 6]);
    }

    #[test]
    fn gather_close_level_is_weakest_final() {
        let (a, ha) = Correctable::<u32>::pending();
        let (b, hb) = Correctable::<u32>::pending();
        let g = Correctable::gather(vec![a, b]);
        ha.close(1, STRONG).unwrap();
        hb.close(2, CAUSAL).unwrap();
        assert_eq!(g.final_view().unwrap().level, CAUSAL);
    }

    #[test]
    fn gather_fails_on_first_part_error() {
        let (a, ha) = Correctable::<u32>::pending();
        let (b, _hb) = Correctable::<u32>::pending();
        let g = Correctable::gather(vec![a, b]);
        ha.fail(Error::Timeout).unwrap();
        assert_eq!(g.state(), State::Error);
    }

    #[test]
    fn first_final_takes_the_winner() {
        let (a, _ha) = Correctable::<i32>::pending();
        let (b, hb) = Correctable::<i32>::pending();
        let r = Correctable::first_final(vec![a, b]);
        hb.close(7, WEAK).unwrap();
        assert_eq!(r.final_view().unwrap().value, 7);
    }

    #[test]
    fn first_final_fails_only_when_all_fail() {
        let (a, ha) = Correctable::<i32>::pending();
        let (b, hb) = Correctable::<i32>::pending();
        let r = Correctable::first_final(vec![a, b]);
        ha.fail(Error::Timeout).unwrap();
        assert_eq!(r.state(), State::Updating);
        hb.fail(Error::Aborted).unwrap();
        assert_eq!(r.state(), State::Error);
    }
}
