//! Property-based tests of vector clocks, of the causal inbox — the one
//! CBCAST buffer/deliver loop under the causal store, the spec store
//! (simulated and TCP) and the op-based CRDT store — and of the ack
//! frontier, the stability tracker of the latter two.

use std::collections::BTreeSet;

use proptest::prelude::*;

use causalstore::{AckFrontier, CausalInbox, Causality, Offer, VectorClock};

/// Origins `0..ORIGINS` emit; the receiving inbox belongs to a further
/// replica that emits nothing.
const ORIGINS: usize = 3;
const N: usize = ORIGINS + 1;

/// A causally stamped multi-origin stream. Each step, `origin` first
/// learns of an already emitted item picked by `learn` — it merges that
/// item's stamp, so its knowledge stays causally closed — and then emits
/// its next item, stamped with what it now knows.
fn stream(steps: &[(usize, u64)]) -> Vec<(usize, VectorClock)> {
    let mut known = vec![VectorClock::zero(N); ORIGINS];
    let mut items: Vec<(usize, VectorClock)> = Vec::new();
    for &(origin, learn) in steps {
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
    proptest::collection::vec((0..ORIGINS, any::<u64>()), 1..40)
}

fn arb_clock(n: usize) -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..20, n).prop_map(VectorClock)
}

proptest! {
    /// Merge is commutative, associative, and idempotent (a join
    /// semilattice — the foundation of convergence).
    #[test]
    fn merge_is_a_semilattice(
        a in arb_clock(4),
        b in arb_clock(4),
        c in arb_clock(4),
    ) {
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
    fn compare_is_consistent(a in arb_clock(3), b in arb_clock(3)) {
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
        steps in arb_steps(),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        dups in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    ) {
        let items = stream(&steps);
        let mut inbox: CausalInbox<usize> = CausalInbox::new(N);
        // The model: how many items of each origin were delivered, and
        // which are waiting.
        let mut count = [0u64; N];
        let mut waiting: BTreeSet<(usize, u64)> = BTreeSet::new();
        for idx in arrival_order(items.len(), &picks, &dups) {
            let (origin, stamp) = &items[idx];
            let seq = stamp.0[*origin];
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
                prop_assert!(waiting.remove(&(o, s.0[o])), "delivered twice");
                for (j, have) in count.iter().enumerate() {
                    let need = if j == o { s.0[j] - 1 } else { s.0[j] };
                    if j == o {
                        prop_assert_eq!(*have, need, "origin {} delivered out of sequence", o);
                    } else {
                        prop_assert!(*have >= need, "delivered before a dependency from {}", j);
                    }
                }
                count[o] += 1;
            }
            prop_assert_eq!(&inbox.delivered().0[..], &count[..]);
        }
        // Everything arrived at least once, so everything was delivered.
        prop_assert!(inbox.is_empty() && waiting.is_empty());
        for (origin, emitted) in count.iter().enumerate().take(ORIGINS) {
            let total = steps.iter().filter(|(o, _)| *o == origin).count() as u64;
            prop_assert_eq!(*emitted, total);
        }
    }

    /// After a state transfer (`merge_delivered`) exactly the items the
    /// adopted clock does not cover remain buffered, and what is later
    /// delivered lies beyond it.
    #[test]
    fn merge_delivered_purges_what_it_covers(
        steps in arb_steps(),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        clock in proptest::collection::vec(0u64..8, N),
    ) {
        let items = stream(&steps);
        let mut inbox: CausalInbox<usize> = CausalInbox::new(N);
        for idx in arrival_order(items.len(), &picks, &[]) {
            let (origin, stamp) = &items[idx];
            prop_assert_eq!(inbox.offer(*origin, stamp.clone(), idx), Offer::Buffered);
        }
        let clock = VectorClock(clock);
        inbox.merge_delivered(&clock);
        let beyond = items.iter().filter(|(o, s)| s.0[*o] > clock.0[*o]).count();
        prop_assert_eq!(inbox.len(), beyond);
        prop_assert_eq!(inbox.delivered(), &clock);
        while let Some((o, s, _)) = inbox.pop_ready(|_| true) {
            prop_assert!(s.0[o] > clock.0[o], "delivered an item the transfer covered");
        }
    }

    /// The frontier of replica 0 under any order of any acks, repeated
    /// ones and ones naming itself or nobody included: each peer's entry
    /// is the largest seq it ever acked (so nothing an ack does is undone
    /// by a later, older one), `min` and `max` bracket every peer's, and
    /// the order the acks arrived in does not show.
    #[test]
    fn ack_frontier_is_monotone_and_order_blind(
        acks in proptest::collection::vec((0..N + 2, 0u64..30, 0u64..10), 0..40),
        picks in proptest::collection::vec(any::<u64>(), 1..40),
        dups in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    ) {
        let mut frontier = AckFrontier::new(0, N);
        let mut best = [0u64; N];
        for &(peer, seq, reported) in &acks {
            frontier.ack(peer, seq, reported);
            if (1..N).contains(&peer) {
                best[peer] = best[peer].max(seq);
            }
            for (peer, best) in best.iter().enumerate().skip(1) {
                prop_assert_eq!(frontier.acked_by(peer), *best);
                prop_assert!(frontier.min() <= *best && *best <= frontier.max());
            }
            prop_assert_eq!(frontier.acked_by(0), 0, "a replica does not ack itself");
        }
        let mut shuffled = AckFrontier::new(0, N);
        if !acks.is_empty() {
            for idx in arrival_order(acks.len(), &picks, &dups) {
                let (peer, seq, reported) = acks[idx];
                shuffled.ack(peer, seq, reported);
            }
        }
        let everything = VectorClock(vec![u64::MAX; N]);
        for probe in 0..31 {
            prop_assert_eq!(shuffled.stable(probe, &everything), frontier.stable(probe, &everything));
        }
        prop_assert_eq!((shuffled.min(), shuffled.max()), (frontier.min(), frontier.max()));
    }

    /// Stable means fully acked *and* caught up: every peer has acked
    /// the item, and every submission a peer ever reported is delivered.
    #[test]
    fn stable_implies_fully_acked_and_caught_up(
        acks in proptest::collection::vec((1..N, 0u64..12, 0u64..6), 0..24),
        delivered in proptest::collection::vec(0u64..6, N),
        seq in 1u64..12,
    ) {
        let mut frontier = AckFrontier::new(0, N);
        let mut reported = [0u64; N];
        for &(peer, acked, rep) in &acks {
            frontier.ack(peer, acked, rep);
            reported[peer] = reported[peer].max(rep);
        }
        let delivered = VectorClock(delivered);
        let fully_acked = (1..N).all(|peer| frontier.acked_by(peer) >= seq);
        let caught_up = (1..N).all(|peer| delivered.0[peer] >= reported[peer]);
        prop_assert_eq!(frontier.stable(seq, &delivered), fully_acked && caught_up);
        prop_assert_eq!(fully_acked, seq <= frontier.min());
        prop_assert_eq!(caught_up, frontier.caught_up(&delivered));
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
