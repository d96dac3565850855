//! Property-based tests of vector clocks, of the causal inbox — the one
//! CBCAST buffer/deliver loop under the causal store, the spec store
//! (simulated and TCP) and the op-based CRDT store — and of the ack
//! frontier, the stability tracker of the latter two.
//!
//! Every property draws its group size from `1..=MAX_N`. The simulated
//! deployments all have three replicas, so this is where a clock wider
//! than the four entries it keeps inline (one that spills to the heap)
//! is exercised.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use proptest::prelude::*;

use causalstore::{AckFrontier, CausalInbox, Causality, Offer, VectorClock};

/// The largest group a property draws.
const MAX_N: usize = 8;

fn arb_n() -> RangeInclusive<usize> {
    1..=MAX_N
}

/// Entries for a clock of any group size below `bound`; a clock of `n`
/// replicas takes the first `n` ([`clock`]).
fn arb_entries(bound: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..bound, MAX_N)
}

fn clock(entries: &[u64], n: usize) -> VectorClock {
    VectorClock::from(entries[..n].to_vec())
}

/// A causally stamped stream in a group of `n`, every replica an origin
/// (the inbox that receives it is an observer's: an inbox does not know
/// whose it is). Each step, origin `pick % n` first learns of an already
/// emitted item picked by `learn` — it merges that item's stamp, so its
/// knowledge stays causally closed — and then emits its next item,
/// stamped with what it now knows.
fn stream(n: usize, steps: &[(usize, u64)]) -> Vec<(usize, VectorClock)> {
    let mut known = vec![VectorClock::zero(n); n];
    let mut items: Vec<(usize, VectorClock)> = Vec::new();
    for &(pick, learn) in steps {
        let origin = pick % n;
        if !items.is_empty() && learn % 3 != 0 {
            let (_, stamp) = &items[learn as usize % items.len()];
            known[origin].merge(stamp);
        }
        known[origin].bump(origin);
        items.push((origin, known[origin].clone()));
    }
    items
}

/// `0..len` shuffled by `picks` (Fisher–Yates), then with every `dups`
/// entry re-inserting an already listed index at an arbitrary position:
/// duplicates of buffered items and retransmissions of delivered ones.
fn arrival_order(len: usize, picks: &[u64], dups: &[(u64, u64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (picks[i % picks.len()] % (i as u64 + 1)) as usize);
    }
    for &(which, at) in dups {
        let again = order[which as usize % order.len()];
        order.insert(at as usize % (order.len() + 1), again);
    }
    order
}

fn arb_steps() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((any::<usize>(), any::<u64>()), 1..40)
}

proptest! {
    /// Merge is commutative, associative, and idempotent (a join
    /// semilattice — the foundation of convergence).
    #[test]
    fn merge_is_a_semilattice(
        n in arb_n(),
        a in arb_entries(20),
        b in arb_entries(20),
        c in arb_entries(20),
    ) {
        let (a, b, c) = (clock(&a, n), clock(&b, n), clock(&c, n));
        // Commutativity.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // Associativity.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Idempotence.
        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &a);
    }

    /// Comparison is antisymmetric and consistent with merge domination.
    #[test]
    fn compare_is_consistent(n in arb_n(), a in arb_entries(20), b in arb_entries(20)) {
        let (a, b) = (clock(&a, n), clock(&b, n));
        match a.compare(&b) {
            Causality::Equal => prop_assert_eq!(&a, &b),
            Causality::Before => {
                prop_assert_eq!(b.compare(&a), Causality::After);
                // a merged into b changes nothing.
                let mut m = b.clone();
                m.merge(&a);
                prop_assert_eq!(&m, &b);
            }
            Causality::After => {
                prop_assert_eq!(b.compare(&a), Causality::Before);
                let mut m = a.clone();
                m.merge(&b);
                prop_assert_eq!(&m, &a);
            }
            Causality::Concurrent => {
                prop_assert_eq!(b.compare(&a), Causality::Concurrent);
            }
        }
    }

    /// Any arrival order of a causally stamped multi-origin stream, with
    /// duplicates and retransmissions mixed in, delivers each item
    /// exactly once, gap-free per origin, and never before an item it
    /// causally depends on. `offer` answers `AlreadyDelivered` iff the
    /// item's seq is at or below the delivered count of its origin, and
    /// `Duplicate` iff the same item is already waiting.
    #[test]
    fn inbox_delivers_exactly_once_in_causal_order(
        n in arb_n(),
        steps in arb_steps(),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        dups in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    ) {
        let items = stream(n, &steps);
        let mut inbox: CausalInbox<usize> = CausalInbox::new(n);
        // The model: how many items of each origin were delivered, and
        // which are waiting.
        let mut count = vec![0u64; n];
        let mut waiting: BTreeSet<(usize, u64)> = BTreeSet::new();
        for idx in arrival_order(items.len(), &picks, &dups) {
            let (origin, stamp) = &items[idx];
            let seq = stamp[*origin];
            let expect = if seq <= count[*origin] {
                Offer::AlreadyDelivered
            } else if !waiting.insert((*origin, seq)) {
                Offer::Duplicate
            } else {
                Offer::Buffered
            };
            prop_assert_eq!(inbox.offer(*origin, stamp.clone(), idx), expect);
            while let Some((o, s, item)) = inbox.pop_ready(|_| true) {
                prop_assert_eq!(&items[item], &(o, s.clone()));
                prop_assert!(waiting.remove(&(o, s[o])), "delivered twice");
                for (j, have) in count.iter().enumerate() {
                    let need = if j == o { s[j] - 1 } else { s[j] };
                    if j == o {
                        prop_assert_eq!(*have, need, "origin {} delivered out of sequence", o);
                    } else {
                        prop_assert!(*have >= need, "delivered before a dependency from {}", j);
                    }
                }
                count[o] += 1;
            }
            prop_assert_eq!(&inbox.delivered()[..], &count[..]);
        }
        // Everything arrived at least once, so everything was delivered.
        prop_assert!(inbox.is_empty() && waiting.is_empty());
        for (origin, emitted) in count.iter().enumerate() {
            let total = steps.iter().filter(|(pick, _)| pick % n == origin).count() as u64;
            prop_assert_eq!(*emitted, total);
        }
    }

    /// After a state transfer (`merge_delivered`) exactly the items the
    /// adopted clock does not cover remain buffered, and what is later
    /// delivered lies beyond it.
    #[test]
    fn merge_delivered_purges_what_it_covers(
        n in arb_n(),
        steps in arb_steps(),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        adopted in arb_entries(8),
    ) {
        let items = stream(n, &steps);
        let mut inbox: CausalInbox<usize> = CausalInbox::new(n);
        for idx in arrival_order(items.len(), &picks, &[]) {
            let (origin, stamp) = &items[idx];
            prop_assert_eq!(inbox.offer(*origin, stamp.clone(), idx), Offer::Buffered);
        }
        let clock = clock(&adopted, n);
        inbox.merge_delivered(&clock);
        let beyond = items.iter().filter(|(o, s)| s[*o] > clock[*o]).count();
        prop_assert_eq!(inbox.len(), beyond);
        prop_assert_eq!(inbox.delivered(), &clock);
        while let Some((o, s, _)) = inbox.pop_ready(|_| true) {
            prop_assert!(s[o] > clock[o], "delivered an item the transfer covered");
        }
    }

    /// The frontier of replica 0 under any order of any acks, repeated
    /// ones and ones naming itself or nobody included: each peer's entry
    /// is the largest seq it ever acked (so nothing an ack does is undone
    /// by a later, older one), `min` and `max` bracket every peer's, and
    /// the order the acks arrived in does not show.
    #[test]
    fn ack_frontier_is_monotone_and_order_blind(
        n in arb_n(),
        acks in proptest::collection::vec((any::<usize>(), 0u64..30, 0u64..10), 0..40),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        dups in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    ) {
        // Peers `0..n + 2`: the replica itself and two nobodies included.
        let acks: Vec<_> = acks.iter().map(|&(p, s, r)| (p % (n + 2), s, r)).collect();
        let mut frontier = AckFrontier::new(0, n);
        let mut best = vec![0u64; n];
        for &(peer, seq, reported) in &acks {
            frontier.ack(peer, seq, reported);
            if (1..n).contains(&peer) {
                best[peer] = best[peer].max(seq);
            }
            for (peer, best) in best.iter().enumerate().skip(1) {
                prop_assert_eq!(frontier.acked_by(peer), *best);
                prop_assert!(frontier.min() <= *best && *best <= frontier.max());
            }
            prop_assert_eq!(frontier.acked_by(0), 0, "a replica does not ack itself");
        }
        let mut shuffled = AckFrontier::new(0, n);
        if !acks.is_empty() {
            for idx in arrival_order(acks.len(), &picks, &dups) {
                let (peer, seq, reported) = acks[idx];
                shuffled.ack(peer, seq, reported);
            }
        }
        let everything = VectorClock::from(vec![u64::MAX; n]);
        for probe in 0..31 {
            prop_assert_eq!(shuffled.stable(probe, &everything), frontier.stable(probe, &everything));
        }
        prop_assert_eq!((shuffled.min(), shuffled.max()), (frontier.min(), frontier.max()));
    }

    /// Stable means fully acked *and* caught up: every peer has acked
    /// the item, and every submission a peer ever reported is delivered.
    #[test]
    fn stable_implies_fully_acked_and_caught_up(
        n in arb_n(),
        acks in proptest::collection::vec((any::<usize>(), 0u64..12, 0u64..6), 0..24),
        delivered in arb_entries(6),
        seq in 1u64..12,
    ) {
        let mut frontier = AckFrontier::new(0, n);
        let mut reported = vec![0u64; n];
        for &(pick, acked, rep) in &acks {
            // A replica's ack of itself is ignored.
            let peer = pick % n;
            frontier.ack(peer, acked, rep);
            if peer != 0 {
                reported[peer] = reported[peer].max(rep);
            }
        }
        let delivered = clock(&delivered, n);
        let fully_acked = (1..n).all(|peer| frontier.acked_by(peer) >= seq);
        let caught_up = (1..n).all(|peer| delivered[peer] >= reported[peer]);
        prop_assert_eq!(frontier.stable(seq, &delivered), fully_acked && caught_up);
        prop_assert_eq!(fully_acked, seq <= frontier.min());
        prop_assert_eq!(caught_up, frontier.caught_up(&delivered));
    }

    /// Any sequence of bumps and merges leaves a clock's entries where
    /// it leaves a plain vector's, inline or spilled.
    #[test]
    fn bump_and_merge_match_a_vec_model(
        n in arb_n(),
        ops in proptest::collection::vec((any::<usize>(), any::<bool>(), arb_entries(20)), 0..30),
    ) {
        let mut vc = VectorClock::zero(n);
        let mut model = vec![0u64; n];
        for (pick, bump, other) in &ops {
            if *bump {
                vc.bump(pick % n);
                model[pick % n] += 1;
            } else {
                vc.merge(&clock(other, n));
                for (m, o) in model.iter_mut().zip(other) {
                    *m = (*m).max(*o);
                }
            }
            prop_assert_eq!(&vc[..], &model[..]);
        }
        prop_assert_eq!(vc, VectorClock::from(model));
    }
}

/// Without peers there is nobody to wait for: everything is acked by
/// all (and by some) of them, and stable.
#[test]
fn a_lone_replica_s_frontier_covers_everything() {
    let frontier = AckFrontier::new(0, 1);
    assert_eq!((frontier.min(), frontier.max()), (u64::MAX, u64::MAX));
    assert!(frontier.stable(7, &VectorClock::zero(1)));
}
