//! Promise-style combinators inherited from modern Promises (§3 of the
//! paper mentions aggregation and monadic-style chaining; this module
//! provides them for Correctables).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::correctable::Correctable;
use crate::error::Error;
use crate::level::ConsistencyLevel;
use crate::view::View;

/// Drains a fully populated slot list into `(values, weakest level)` —
/// the aggregate is only as strong as its weakest view.
fn finish_join<T>(slots: &mut [Option<View<T>>]) -> (Vec<T>, ConsistencyLevel) {
    let level = slots
        .iter()
        .map(|s| s.as_ref().expect("all slots filled").level)
        .min()
        .expect("non-empty");
    let values = slots
        .iter_mut()
        .map(|s| s.take().expect("all slots filled").value)
        .collect();
    (values, level)
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
    /// values, in input order, once every input has closed.
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
        if n == 0 {
            let _ = handle.close(Vec::new(), crate::level::ConsistencyLevel::STRONG);
            return out;
        }
        // Harvest everything already closed without registering callbacks.
        let mut slots: Vec<Option<View<T>>> = Vec::with_capacity(n);
        let mut open = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item.outcome() {
                Some(Ok(v)) => slots.push(Some(v)),
                Some(Err(e)) => {
                    let _ = handle.fail(e);
                    return out;
                }
                None => {
                    slots.push(None);
                    open.push(i);
                }
            }
        }
        if open.is_empty() {
            let (values, level) = finish_join(&mut slots);
            let _ = handle.close(values, level);
            return out;
        }
        struct JoinState<T> {
            slots: Vec<Option<View<T>>>,
            remaining: usize,
        }
        let state = Arc::new(Mutex::new(JoinState {
            remaining: open.len(),
            slots,
        }));
        for i in open {
            let st = Arc::clone(&state);
            let h = handle.clone();
            // An input that closed between the probe above and this
            // registration fires the callback immediately (replay), so no
            // completion is lost.
            items[i].on_close(move |outcome| {
                let v = match outcome {
                    Ok(v) => v,
                    Err(e) => {
                        let _ = h.fail(e.clone());
                        return;
                    }
                };
                let done = {
                    let mut g = st.lock();
                    if g.slots[i].is_none() {
                        g.slots[i] = Some(v.clone());
                        g.remaining -= 1;
                    }
                    if g.remaining == 0 {
                        Some(finish_join(&mut g.slots))
                    } else {
                        None
                    }
                };
                if let Some((values, level)) = done {
                    let _ = h.close(values, level);
                }
            });
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
