//! Property-based tests of the Correctable state machine (Figure 3).
//!
//! Flakiness audit: fully synchronous — no threads, sleeps, or
//! timeouts; every case is a deterministic function of the generated
//! actions (and the vendored proptest shim derives its seed from the
//! test name, so CI runs are reproducible).

use proptest::prelude::*;

use correctables::{ConsistencyLevel, Correctable, Error, Handle, State, View};
use parking_lot::Mutex;
use std::sync::Arc;

/// Producer-side actions a binding might perform, in arbitrary order.
#[derive(Clone, Debug)]
enum Action {
    Update(i64),
    Close(i64),
    Fail,
}

/// How a closed Correctable ended: its final value and level, or its
/// error.
fn outcome_of<T: Clone + Send + 'static>(
    c: &Correctable<T>,
) -> Option<Result<(T, ConsistencyLevel), Error>> {
    c.outcome().map(|r| r.map(|v: View<T>| (v.value, v.level)))
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => any::<i64>().prop_map(Action::Update),
        1 => any::<i64>().prop_map(Action::Close),
        1 => Just(Action::Fail),
    ]
}

proptest! {
    /// Whatever a producer does, the state machine admits at most one
    /// closing transition, preliminary views precede it, and the final
    /// state is immutable.
    #[test]
    fn at_most_one_close_and_views_are_stable(
        actions in proptest::collection::vec(action_strategy(), 1..40)
    ) {
        let (c, h) = Correctable::<i64>::pending();
        let mut expected_updates = Vec::new();
        let mut closed: Option<Result<i64, ()>> = None;
        for a in &actions {
            match a {
                Action::Update(v) => {
                    let r = h.update(*v, ConsistencyLevel::WEAK);
                    if closed.is_none() {
                        prop_assert!(r.is_ok());
                        expected_updates.push(*v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Action::Close(v) => {
                    let r = h.close(*v, ConsistencyLevel::STRONG);
                    if closed.is_none() {
                        prop_assert!(r.is_ok());
                        closed = Some(Ok(*v));
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Action::Fail => {
                    let r = h.fail(Error::Aborted);
                    if closed.is_none() {
                        prop_assert!(r.is_ok());
                        closed = Some(Err(()));
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
            }
        }
        // Observed views equal the accepted preliminary sequence.
        let seen: Vec<i64> = c.preliminary_views().iter().map(|v| v.value).collect();
        prop_assert_eq!(seen, expected_updates);
        match closed {
            Some(Ok(v)) => {
                prop_assert_eq!(c.state(), State::Final);
                prop_assert_eq!(c.final_view().unwrap().value, v);
            }
            Some(Err(())) => {
                prop_assert_eq!(c.state(), State::Error);
                prop_assert_eq!(c.error(), Some(Error::Aborted));
            }
            None => prop_assert_eq!(c.state(), State::Updating),
        }
    }

    /// Callbacks observe exactly the accepted views, in order, regardless
    /// of when they are registered (before, during, or after delivery).
    #[test]
    fn callbacks_see_all_views_in_order(
        values in proptest::collection::vec(any::<i64>(), 0..20),
        fin in any::<i64>(),
        register_at in 0usize..21,
    ) {
        let (c, h) = Correctable::<i64>::pending();
        let log = Arc::new(Mutex::new(Vec::new()));
        let attach = |log: &Arc<Mutex<Vec<i64>>>, c: &Correctable<i64>| {
            let l = Arc::clone(log);
            c.on_update(move |v| l.lock().push(v.value));
        };
        let mut attached = false;
        for (i, v) in values.iter().enumerate() {
            if i == register_at {
                attach(&log, &c);
                attached = true;
            }
            h.update(*v, ConsistencyLevel::WEAK).unwrap();
        }
        if !attached {
            attach(&log, &c);
        }
        h.close(fin, ConsistencyLevel::STRONG).unwrap();
        prop_assert_eq!(log.lock().clone(), values);
    }

    /// Both forms of `speculate` close at `spec(final_value)`, at the
    /// final view's level, no matter which preliminary views preceded
    /// it, or fail with the underlying operation's error: the sync form
    /// runs `spec` inline, the async form through a ready Correctable
    /// per launch.
    #[test]
    fn speculation_result_equals_function_of_final(
        prelims in proptest::collection::vec(-100i64..100, 0..10),
        fin in -100i64..100,
        end in 0u8..3,
    ) {
        fn spec(x: &i64) -> i64 {
            x.wrapping_mul(3) ^ 0x55
        }
        let (c, h) = Correctable::<i64>::pending();
        let outs = [
            c.speculate(spec),
            c.speculate_async(|x| Correctable::ready(spec(x)), |_| {}),
        ];
        for p in &prelims {
            h.update(*p, ConsistencyLevel::WEAK).unwrap();
        }
        let want = match end {
            0 => Err(Error::Timeout),
            1 => Ok((fin, ConsistencyLevel::CAUSAL)),
            _ => Ok((fin, ConsistencyLevel::STRONG)),
        };
        match &want {
            Ok((v, level)) => h.close(*v, *level).unwrap(),
            Err(e) => h.fail(e.clone()).unwrap(),
        }
        let want = want.map(|(v, level)| (spec(&v), level));
        for out in &outs {
            prop_assert_eq!(outcome_of(out), Some(want.clone()));
        }
    }

    /// `map` commutes with view delivery.
    #[test]
    fn map_commutes_with_views(
        prelims in proptest::collection::vec(any::<i32>(), 0..10),
        fin in any::<i32>(),
    ) {
        let (c, h) = Correctable::<i32>::pending();
        let mapped = c.map(|x| i64::from(*x) + 1);
        for p in &prelims {
            h.update(*p, ConsistencyLevel::WEAK).unwrap();
        }
        h.close(fin, ConsistencyLevel::STRONG).unwrap();
        let got: Vec<i64> = mapped.preliminary_views().iter().map(|v| v.value).collect();
        let want: Vec<i64> = prelims.iter().map(|p| i64::from(*p) + 1).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(mapped.final_view().unwrap().value, i64::from(fin) + 1);
    }

    /// `join_all` preserves order and closes exactly when all inputs do.
    #[test]
    fn join_all_orders_results(values in proptest::collection::vec(any::<i64>(), 1..12)) {
        let pairs: Vec<_> = values.iter().map(|_| Correctable::<i64>::pending()).collect();
        let joined = Correctable::join_all(pairs.iter().map(|(c, _)| c.clone()).collect());
        // Close in reverse order; the aggregate must still be input-ordered.
        for (i, (_, h)) in pairs.iter().enumerate().rev() {
            prop_assert_eq!(joined.is_closed(), false);
            h.close(values[i], ConsistencyLevel::STRONG).unwrap();
        }
        prop_assert_eq!(joined.final_view().unwrap().value, values);
    }

    /// `join_all` and `gather` are one rule: over the same inputs they
    /// close alike, with the final values in input order at the weakest
    /// final level, or with the first error, and `join_all` delivers no
    /// preliminary view. Each input delivers an ascending subset of
    /// {CACHE, WEAK, CAUSAL} below its final level, then closes at
    /// CAUSAL or STRONG or fails; the deliveries are interleaved at
    /// random, and the joins are built after `build_at` of them, so some
    /// inputs have closed (or failed) before.
    #[test]
    fn join_all_and_gather_close_alike(
        inputs in proptest::collection::vec((0u8..8, 0u8..4), 1..6),
        picks in proptest::collection::vec(any::<u64>(), 24),
        build_at in 0usize..24,
    ) {
        const PRELIMS: [ConsistencyLevel; 3] =
            [ConsistencyLevel::CACHE, ConsistencyLevel::WEAK, ConsistencyLevel::CAUSAL];
        // Per input: its preliminary levels, then its end (`None` fails).
        let mut plans: Vec<Vec<(ConsistencyLevel, Option<bool>)>> = inputs
            .iter()
            .map(|&(mask, end)| {
                let fin = match end {
                    0 => None,
                    1 => Some(ConsistencyLevel::CAUSAL),
                    _ => Some(ConsistencyLevel::STRONG),
                };
                let mut plan: Vec<_> = PRELIMS
                    .iter()
                    .enumerate()
                    .filter(|&(b, l)| mask & (1 << b) != 0 && fin.is_none_or(|f| *l < f))
                    .map(|(_, l)| (*l, Some(false)))
                    .collect();
                plan.push(match fin {
                    Some(f) => (f, Some(true)),
                    None => (ConsistencyLevel::STRONG, None),
                });
                plan
            })
            .collect();
        let parts: Vec<(Correctable<u64>, Handle<u64>)> =
            inputs.iter().map(|_| Correctable::pending()).collect();
        let inputs_of = || parts.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();
        let total: usize = plans.iter().map(Vec::len).sum();
        let build_at = build_at % (total + 1);
        let mut joins = None;
        // The model: each input's final (value, level), the first error
        // of an input failed before the build in input order, and the
        // first one failed after it in delivery order.
        let mut finals: Vec<Option<(u64, ConsistencyLevel)>> = vec![None; parts.len()];
        let mut failed_before: Vec<Option<Error>> = vec![None; parts.len()];
        let mut failed_after: Option<Error> = None;
        for step in 0..=total {
            if step == build_at {
                joins = Some((Correctable::join_all(inputs_of()), Correctable::gather(inputs_of())));
            }
            let live: Vec<usize> = (0..parts.len()).filter(|&i| !plans[i].is_empty()).collect();
            if live.is_empty() {
                break;
            }
            let i = live[(picks[step] % live.len() as u64) as usize];
            let (level, end) = plans[i].remove(0);
            let value = i as u64 * 100 + step as u64;
            let h = &parts[i].1;
            match end {
                Some(false) => h.update(value, level).unwrap(),
                Some(true) => {
                    h.close(value, level).unwrap();
                    finals[i] = Some((value, level));
                }
                None => {
                    let e = Error::Unavailable(format!("input {i}"));
                    h.fail(e.clone()).unwrap();
                    if joins.is_none() {
                        failed_before[i] = Some(e);
                    } else if failed_after.is_none() {
                        failed_after = Some(e);
                    }
                }
            }
        }
        let (joined, gathered) = joins.unwrap();
        let first_error = failed_before.into_iter().flatten().next().or(failed_after);
        let want = match first_error {
            Some(e) => Err(e),
            None => {
                let finals: Vec<_> = finals.into_iter().map(Option::unwrap).collect();
                let level = finals.iter().map(|f| f.1).min().unwrap();
                Ok((finals.into_iter().map(|f| f.0).collect::<Vec<_>>(), level))
            }
        };
        prop_assert_eq!(outcome_of(&joined), Some(want.clone()));
        prop_assert_eq!(outcome_of(&gathered), Some(want));
        prop_assert!(joined.preliminary_views().is_empty());
    }
}
