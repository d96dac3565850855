//! Laws of `ReplayLog`: its views equal the from-`initial()` replay of
//! the ordered log (the literal universal construction, kept here as
//! the reference), `apply_mut` agrees with `apply`, and a view costs a
//! bounded number of spec steps whatever the log's length.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use correctables::spec::{
    CounterSpec, CtrOp, KvStoreSpec, KvsOp, QOp, QueueSpec, RegOp, RegisterSpec, SeqSpec,
};
use specstore::{OrderKey, ReplayLog, Update, UpdateId, VectorClock};

/// `ReplayLog`'s checkpoint spacing, restated: the cost laws below are
/// the documented bounds, not whatever the constant happens to be.
const STRIDE: usize = 32;
const ORIGINS: usize = 3;

/// The reference: the log as a plain vector, every view a replay from
/// the initial state through `SeqSpec::apply`.
struct Naive<S: SeqSpec> {
    spec: S,
    log: Vec<Update<S::Op>>,
}

impl<S: SeqSpec> Naive<S> {
    fn insert(&mut self, update: Update<S::Op>, arrival_order: bool) {
        let at = if arrival_order {
            self.log.len()
        } else {
            self.log.partition_point(|u| u.key() < update.key())
        };
        self.log.insert(at, update);
    }

    fn ret_on_top(&self, op: &S::Op) -> S::Ret {
        let mut state = self.spec.initial();
        for u in &self.log {
            state = self.spec.apply(&state, &u.op).0;
        }
        self.spec.apply(&state, op).1
    }

    /// The value of update `key`.
    fn ret_of(&self, key: OrderKey) -> Option<S::Ret> {
        let mut state = self.spec.initial();
        let mut found = None;
        for u in &self.log {
            let (next, ret) = self.spec.apply(&state, &u.op);
            state = next;
            if u.key() == key {
                found = Some(ret);
            }
        }
        found
    }
}

/// Drives a `ReplayLog` and the reference through the same interleaving
/// of inserts (mostly near the tail, sometimes anywhere) and views,
/// decoded from `words`.
fn check_against_naive<S: SeqSpec + Clone>(
    spec: S,
    decode: impl Fn(u64) -> S::Op,
    words: &[u64],
    arrival_order: bool,
) -> Result<(), TestCaseError> {
    let mut log = ReplayLog::new(spec.clone());
    log.set_arrival_order(arrival_order);
    let mut naive = Naive {
        spec,
        log: Vec::new(),
    };
    let mut seqs = [0u64; ORIGINS];
    let mut clock = 0u64;
    for &w in words {
        let arg = w >> 8;
        // Some logged key, or (one time in eight) one that is not.
        let pick = |log: &[Update<S::Op>]| -> OrderKey {
            match log.get((arg >> 3) as usize % log.len().max(1)) {
                Some(u) if arg % 8 != 0 => u.key(),
                _ => (u64::MAX, 0, arg),
            }
        };
        match w % 8 {
            0..=3 => {
                clock += 1;
                let origin = (arg % ORIGINS as u64) as usize;
                seqs[origin] += 1;
                let back = if (arg >> 2) % 16 == 0 {
                    (arg >> 6) % (clock + 1)
                } else {
                    (arg >> 6) % 6
                };
                let update = Update {
                    id: UpdateId {
                        origin,
                        seq: seqs[origin],
                    },
                    ts: clock - back.min(clock),
                    vc: VectorClock::zero(ORIGINS),
                    op: decode(arg >> 16),
                };
                naive.insert(update.clone(), arrival_order);
                log.insert(update);
            }
            4..=5 => {
                let op = decode(arg);
                prop_assert_eq!(log.ret_on_top(&op), naive.ret_on_top(&op));
            }
            _ => {
                let key = pick(&naive.log);
                prop_assert_eq!(log.ret_of(key), naive.ret_of(key));
            }
        }
    }
    let ids = |log: &[Update<S::Op>]| log.iter().map(|u| u.id).collect::<Vec<_>>();
    prop_assert_eq!(ids(log.entries()), ids(&naive.log));
    Ok(())
}

fn reg_op(w: u64) -> RegOp {
    match w % 2 {
        0 => RegOp::Read((w >> 1) % 4),
        _ => RegOp::Write((w >> 1) % 4, w >> 3),
    }
}

fn ctr_op(w: u64) -> CtrOp {
    match w % 3 {
        0 => CtrOp::Get((w >> 2) % 4),
        1 => CtrOp::Put((w >> 2) % 4, w >> 4),
        _ => CtrOp::Add((w >> 2) % 4, (w >> 4) % 10),
    }
}

fn q_op(w: u64) -> QOp {
    match w % 2 {
        0 => QOp::Enqueue,
        _ => QOp::Dequeue,
    }
}

fn kv_op(w: u64) -> KvsOp {
    let key = format!("k{}", (w >> 1) % 3);
    match w % 2 {
        0 => KvsOp::Get(key),
        _ => KvsOp::Put(key, vec![w >> 3]),
    }
}

fn decoded<Op>(words: &[u64], decode: impl Fn(u64) -> Op) -> Vec<Op> {
    words.iter().map(|&w| decode(w)).collect()
}

/// `apply_mut` and `apply` step `spec` identically along `ops`.
fn check_apply_mut<S: SeqSpec>(spec: &S, ops: &[S::Op]) -> Result<(), TestCaseError>
where
    S::State: std::fmt::Debug,
{
    let mut in_place = spec.initial();
    let mut rebuilt = spec.initial();
    for op in ops {
        let (next, ret) = spec.apply(&rebuilt, op);
        rebuilt = next;
        prop_assert_eq!(spec.apply_mut(&mut in_place, op), ret);
        prop_assert_eq!(&in_place, &rebuilt);
    }
    Ok(())
}

proptest! {
    #[test]
    fn register_views_equal_naive_replay(words in proptest::collection::vec(any::<u64>(), 0..400)) {
        check_against_naive(RegisterSpec::default(), reg_op, &words, false)?;
    }

    #[test]
    fn counter_views_equal_naive_replay(words in proptest::collection::vec(any::<u64>(), 0..400)) {
        check_against_naive(CounterSpec, ctr_op, &words, false)?;
    }

    #[test]
    fn queue_views_equal_naive_replay(words in proptest::collection::vec(any::<u64>(), 0..400)) {
        check_against_naive(QueueSpec { prefill: 3 }, q_op, &words, false)?;
    }

    /// The negative fixture's log: same views, over arrival order.
    #[test]
    fn arrival_order_views_equal_naive_replay(
        words in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        check_against_naive(CounterSpec, ctr_op, &words, true)?;
    }

    #[test]
    fn apply_mut_agrees_with_apply(words in proptest::collection::vec(any::<u64>(), 0..200)) {
        check_apply_mut(&RegisterSpec::default(), &decoded(&words, reg_op))?;
        check_apply_mut(&CounterSpec, &decoded(&words, ctr_op))?;
        check_apply_mut(&QueueSpec { prefill: 2 }, &decoded(&words, q_op))?;
        check_apply_mut(&KvStoreSpec::default(), &decoded(&words, kv_op))?;
        // The provided `apply_mut`, for a spec that defines only `apply`.
        check_apply_mut(&SumSpec::default(), &words)?;
    }
}

/// A running sum that counts its `apply` calls and defines nothing
/// else, so `ReplayLog` reaches it through the provided `apply_mut`.
#[derive(Clone, Default)]
struct SumSpec {
    applies: Arc<AtomicUsize>,
}

impl SeqSpec for SumSpec {
    type Op = u64;
    type Ret = u64;
    type State = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &u64) -> (u64, u64) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        let next = state.wrapping_add(*op);
        (next, next)
    }
}

/// Update number `i` of a single origin, `ts` apart so that later tests
/// can insert between two of them.
fn nth(i: u64) -> Update<u64> {
    Update {
        id: UpdateId { origin: 0, seq: i },
        ts: 10 * i,
        vc: VectorClock::zero(1),
        op: i,
    }
}

/// Spec steps `f` makes `spec` take.
fn steps<R>(spec: &SumSpec, f: impl FnOnce() -> R) -> (usize, R) {
    let before = spec.applies.load(Ordering::Relaxed);
    let out = f();
    (spec.applies.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_view_costs_a_stride_not_the_log() {
    for n in [100u64, 10_000] {
        let spec = SumSpec::default();
        let mut log = ReplayLog::new(spec.clone());

        // Appends execute nothing; the first view steps each entry onto
        // the tip once.
        let (cost, ()) = steps(&spec, || (1..=n).for_each(|i| log.insert(nth(i))));
        assert_eq!(cost, 0);
        let (cost, ret) = steps(&spec, || log.ret_on_top(&0));
        assert_eq!(ret, n * (n + 1) / 2);
        assert_eq!(cost, n as usize + 1);

        // From then on no view depends on `n`.
        let (cost, _) = steps(&spec, || log.ret_on_top(&7));
        assert_eq!(cost, 1, "weak view at n = {n}");
        for i in [1, n / 2, n - 32, n - 1, n] {
            let (cost, ret) = steps(&spec, || log.ret_of(nth(i).key()));
            assert_eq!(ret, Some(i * (i + 1) / 2));
            assert!(cost <= STRIDE + 1, "view of entry {i} of {n}: {cost} steps");
        }

        // An append and its own update view: one step.
        let (cost, ret) = steps(&spec, || {
            log.insert(nth(n + 1));
            log.ret_of(nth(n + 1).key())
        });
        assert_eq!(ret, Some((n + 1) * (n + 2) / 2));
        assert_eq!(cost, 1, "update view at the tail, n = {n}");
    }
}

#[test]
fn a_late_insert_costs_its_distance_from_the_tail() {
    let n = 10_000u64;
    for d in [1u64, 64, 1_000] {
        let spec = SumSpec::default();
        let mut log = ReplayLog::new(spec.clone());
        (1..=n).for_each(|i| log.insert(nth(i)));
        log.ret_on_top(&0);

        // `d` entries sort after the late one.
        let late = Update {
            ts: 10 * (n - d) + 5,
            id: UpdateId { origin: 1, seq: 1 },
            ..nth(0)
        };
        let (cost, ()) = steps(&spec, || log.insert(late));
        assert_eq!(cost, 0);
        let (cost, ret) = steps(&spec, || log.ret_of(nth(n).key()));
        assert_eq!(ret, Some(n * (n + 1) / 2));
        assert!(
            cost <= d as usize + STRIDE,
            "insert {d} from the tail: next view took {cost} steps"
        );
        // And the disturbance does not outlive that view.
        let (cost, _) = steps(&spec, || log.ret_on_top(&0));
        assert_eq!(cost, 1);
    }
}
