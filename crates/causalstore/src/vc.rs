//! Vector clocks for causal consistency, and the two halves of a causal
//! broadcast every replica type shares: the inbox (CBCAST buffer and
//! delivery loop) and the cumulative ack frontier (stability tracker).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// How many entries a clock keeps inline before it spills to the heap.
/// Every simulated deployment has three replicas.
const INLINE: usize = 4;

/// A fixed-width vector clock (one entry per replica), read as a slice.
///
/// A clock of up to four entries lives inline, so copying one into a
/// message or a log entry does not allocate; a wider one spills to the
/// heap. Equality, hashing and `Debug` see only the entries: they are
/// what the derives over a `Vec<u64>` gave, `VectorClock([1, 0, 2])`.
#[derive(Clone)]
pub struct VectorClock(Entries);

#[derive(Clone)]
enum Entries {
    /// `buf[..len]`; the rest stays zero.
    Inline { len: u8, buf: [u64; INLINE] },
    /// More than [`INLINE`] entries.
    Spilled(Vec<u64>),
}

impl From<Vec<u64>> for VectorClock {
    fn from(entries: Vec<u64>) -> Self {
        if entries.len() > INLINE {
            return VectorClock(Entries::Spilled(entries));
        }
        let mut buf = [0; INLINE];
        for (slot, e) in buf.iter_mut().zip(&entries) {
            *slot = *e;
        }
        VectorClock(Entries::Inline {
            len: entries.len() as u8,
            buf,
        })
    }
}

impl Deref for VectorClock {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            // `len` is at most `INLINE`: the fallback is never taken.
            Entries::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or_default(),
            Entries::Spilled(v) => v,
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("VectorClock").field(&&**self).finish()
    }
}

/// The causal relationship between two clocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Causality {
    /// The clocks are identical.
    Equal,
    /// The left clock happens-before the right.
    Before,
    /// The right clock happens-before the left.
    After,
    /// Neither dominates: concurrent.
    Concurrent,
}

impl VectorClock {
    /// The zero clock for `n` replicas.
    pub fn zero(n: usize) -> Self {
        VectorClock::from(vec![0; n])
    }

    fn entries_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Entries::Inline { len, buf } => buf.get_mut(..usize::from(*len)).unwrap_or_default(),
            Entries::Spilled(v) => v,
        }
    }

    /// Increments the entry of replica `i`. An `i` the clock does not
    /// hold changes nothing.
    pub fn bump(&mut self, i: usize) {
        if let Some(e) = self.entries_mut().get_mut(i) {
            *e += 1;
        }
    }

    /// Pointwise maximum. Clocks of unequal width belong to groups of
    /// different sizes: merging one changes nothing.
    pub fn merge(&mut self, other: &VectorClock) {
        if self.len() != other.len() {
            return;
        }
        for (a, b) in self.entries_mut().iter_mut().zip(other.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Compares two clocks causally. Clocks of unequal width are
    /// [`Causality::Concurrent`]: neither dominates the other.
    pub fn compare(&self, other: &VectorClock) -> Causality {
        if self.len() != other.len() {
            return Causality::Concurrent;
        }
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.iter().zip(other.iter()) {
            match a.cmp(b) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (true, true) => Causality::Concurrent,
        }
    }

    /// Whether an update stamped `update` from `sender` is the *next*
    /// causally deliverable message at a replica whose clock is `self`
    /// (the CBCAST delivery condition). It never is when the clocks'
    /// widths differ or when `sender` is not a replica the clock holds.
    pub fn deliverable(&self, update: &VectorClock, sender: usize) -> bool {
        let (Some(theirs), Some(mine)) = (update.get(sender), self.get(sender)) else {
            return false;
        };
        self.len() == update.len()
            && mine.checked_add(1) == Some(*theirs)
            && self
                .iter()
                .zip(update.iter())
                .enumerate()
                .all(|(i, (mine, theirs))| i == sender || theirs <= mine)
    }
}

/// What [`CausalInbox::offer`] did with an item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Offer {
    /// Its origin entry is at or below what was already delivered: a
    /// retransmission whose sender is missing our ack. Not buffered.
    AlreadyDelivered,
    /// The same `(origin, seq)` is already waiting. Not buffered again.
    Duplicate,
    /// Buffered; [`CausalInbox::pop_ready`] yields it once its causal
    /// past has been delivered.
    Buffered,
    /// Its stamp is not one of this group's (another width), or has no
    /// entry for its origin: it could never be delivered. Not buffered.
    Malformed,
}

/// The receiving half of a causal broadcast: the delivery vector plus
/// the items that arrived ahead of their causal past.
///
/// An item stamped `stamp` by `origin` is its origin's
/// `stamp[origin]`-th; it becomes deliverable under
/// [`VectorClock::deliverable`]. The protocol around it — what an item
/// is, what delivering means, how receipt is acknowledged — stays with
/// the replica.
pub struct CausalInbox<T> {
    delivered: VectorClock,
    buffer: Vec<(usize, VectorClock, T)>,
}

impl<T> CausalInbox<T> {
    /// An empty inbox at a replica of an `n`-replica group.
    pub fn new(n: usize) -> Self {
        CausalInbox {
            delivered: VectorClock::zero(n),
            buffer: Vec::new(),
        }
    }

    /// Items delivered (or locally originated) per origin.
    pub fn delivered(&self) -> &VectorClock {
        &self.delivered
    }

    /// Counts one local event of replica `i` (an item it originates is
    /// delivered to itself at once); the new vector is its stamp. An `i`
    /// outside the group changes nothing.
    pub fn bump(&mut self, i: usize) {
        self.delivered.bump(i);
    }

    /// Takes in one received item. A `stamp` without one entry per
    /// replica, or without an entry for `origin`, is
    /// [`Offer::Malformed`].
    pub fn offer(&mut self, origin: usize, stamp: VectorClock, item: T) -> Offer {
        let (Some(&seq), Some(&delivered)) = (stamp.get(origin), self.delivered.get(origin)) else {
            return Offer::Malformed;
        };
        if stamp.len() != self.delivered.len() {
            Offer::Malformed
        } else if seq <= delivered {
            Offer::AlreadyDelivered
        } else if self
            .buffer
            .iter()
            .any(|(o, s, _)| *o == origin && s.get(origin) == Some(&seq))
        {
            Offer::Duplicate
        } else {
            self.buffer.push((origin, stamp, item));
            Offer::Buffered
        }
    }

    /// Delivers the first buffered item (in arrival order, as perturbed
    /// by earlier removals) that is causally deliverable and passes
    /// `extra_ready`, advancing the delivery vector. Call until `None`.
    pub fn pop_ready(
        &mut self,
        mut extra_ready: impl FnMut(&T) -> bool,
    ) -> Option<(usize, VectorClock, T)> {
        let pos = self.buffer.iter().position(|(origin, stamp, item)| {
            self.delivered.deliverable(stamp, *origin) && extra_ready(item)
        })?;
        let ready = self.buffer.swap_remove(pos);
        self.delivered.bump(ready.0);
        Some(ready)
    }

    /// Adopts a state transfer's clock: merges it into the delivery
    /// vector and drops every buffered item it covers (those would
    /// otherwise sit in the buffer, undeliverable, forever).
    pub fn merge_delivered(&mut self, clock: &VectorClock) {
        self.delivered.merge(clock);
        let delivered = &self.delivered;
        self.buffer
            .retain(|(origin, stamp, _)| stamp.get(*origin) > delivered.get(*origin));
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The item at the head of the buffer, if any.
    pub fn first(&self) -> Option<&T> {
        self.buffer.first().map(|(_, _, item)| item)
    }
}

/// The sending half of a causal broadcast: how far each peer has
/// acknowledged this replica's own items — the stability tracker.
///
/// Per peer it keeps two numbers that only grow: the highest own
/// sequence number the peer has *cumulatively* acknowledged delivering,
/// and the largest count of the peer's own submissions it has reported
/// alongside an ack. Own item `s` is *fully acked* once every peer's
/// frontier has reached it, and *stable* once it is fully acked and
/// everything the peers reported having submitted has been delivered
/// here: nothing ordered before it can still arrive.
pub struct AckFrontier {
    me: usize,
    /// Per replica `(acked, reported)`; this replica's own entry is unused.
    peers: Vec<(u64, u64)>,
}

impl AckFrontier {
    /// The frontier of replica `me` in a group of `n`, nothing acked.
    pub fn new(me: usize, n: usize) -> Self {
        AckFrontier {
            me,
            peers: vec![(0, 0); n],
        }
    }

    /// `peer` has delivered this replica's items through `seq`, and had
    /// itself submitted `reported` items by then. Acks are cumulative,
    /// so late, reordered and repeated ones are harmless; one naming an
    /// unknown peer (or this replica) is ignored.
    pub fn ack(&mut self, peer: usize, seq: u64, reported: u64) {
        if peer == self.me {
            return;
        }
        if let Some((acked, rep)) = self.peers.get_mut(peer) {
            *acked = (*acked).max(seq);
            *rep = (*rep).max(reported);
        }
    }

    fn others(&self) -> impl Iterator<Item = (usize, (u64, u64))> + '_ {
        let me = self.me;
        self.peers
            .iter()
            .copied()
            .enumerate()
            .filter(move |(j, _)| *j != me)
    }

    /// The highest own sequence number `peer` has acknowledged.
    pub fn acked_by(&self, peer: usize) -> u64 {
        self.peers.get(peer).map_or(0, |(acked, _)| *acked)
    }

    /// The highest own sequence number *every* peer has acknowledged
    /// (everything, for a replica without peers).
    pub fn min(&self) -> u64 {
        self.others().map(|(_, (a, _))| a).min().unwrap_or(u64::MAX)
    }

    /// The highest own sequence number *some* peer has acknowledged
    /// (everything, for a replica without peers).
    pub fn max(&self) -> u64 {
        self.others().map(|(_, (a, _))| a).max().unwrap_or(u64::MAX)
    }

    /// Whether every submission the peers have reported is among the
    /// items `delivered` counts.
    pub fn caught_up(&self, delivered: &VectorClock) -> bool {
        self.others()
            .all(|(j, (_, reported))| delivered.get(j).is_some_and(|d| *d >= reported))
    }

    /// Whether own item `seq` is stable at a replica that has delivered
    /// `delivered`.
    pub fn stable(&self, seq: u64, delivered: &VectorClock) -> bool {
        seq <= self.min() && self.caught_up(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_compare() {
        let mut a = VectorClock::zero(3);
        let b = a.clone();
        a.bump(0);
        assert_eq!(a.compare(&b), Causality::After);
        assert_eq!(b.compare(&a), Causality::Before);
        assert_eq!(a.compare(&a), Causality::Equal);
    }

    #[test]
    fn concurrent_clocks() {
        let mut a = VectorClock::zero(2);
        let mut b = VectorClock::zero(2);
        a.bump(0);
        b.bump(1);
        assert_eq!(a.compare(&b), Causality::Concurrent);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VectorClock::from(vec![3, 0, 5]);
        a.merge(&VectorClock::from(vec![1, 7, 5]));
        assert_eq!(a, VectorClock::from(vec![3, 7, 5]));
    }

    #[test]
    fn delivery_condition() {
        // Replica state: has seen 2 updates from replica 0, none from 1.
        let local = VectorClock::from(vec![2, 0]);
        // The third update from replica 0, depending on nothing else.
        let ok = VectorClock::from(vec![3, 0]);
        assert!(local.deliverable(&ok, 0));
        // A gap: the fourth update cannot be delivered yet.
        let gap = VectorClock::from(vec![4, 0]);
        assert!(!local.deliverable(&gap, 0));
        // Depends on an unseen update from replica 1.
        let dep = VectorClock::from(vec![3, 1]);
        assert!(!local.deliverable(&dep, 0));
    }

    #[test]
    fn an_origin_outside_the_clock_is_never_an_event() {
        // Bumping it changes nothing.
        let mut a = VectorClock::from(vec![1, 2]);
        a.bump(2);
        assert_eq!(a, VectorClock::from(vec![1, 2]));
        // An update from it is not deliverable, even when the stamp
        // holds an entry for it.
        let local = VectorClock::from(vec![0, 0]);
        assert!(!local.deliverable(&VectorClock::from(vec![0, 0]), 2));
        assert!(!local.deliverable(&VectorClock::from(vec![0, 0, 1]), 2));
        // The inbox refuses it and buffers nothing.
        let mut inbox = CausalInbox::new(2);
        inbox.bump(2);
        assert_eq!(inbox.delivered(), &VectorClock::zero(2));
        assert_eq!(
            inbox.offer(2, VectorClock::from(vec![0, 0]), "x"),
            Offer::Malformed
        );
        assert!(inbox.is_empty());
    }

    #[test]
    fn clocks_of_unequal_width_never_interact() {
        let narrow = VectorClock::from(vec![1, 0]);
        let wide = VectorClock::from(vec![2, 0, 0]);
        // Merging leaves the clock as it was, either way round.
        let mut m = narrow.clone();
        m.merge(&wide);
        assert_eq!(m, narrow);
        let mut m = wide.clone();
        m.merge(&narrow);
        assert_eq!(m, wide);
        // Neither dominates.
        assert_eq!(narrow.compare(&wide), Causality::Concurrent);
        assert_eq!(wide.compare(&narrow), Causality::Concurrent);
        assert_eq!(
            VectorClock::zero(1).compare(&VectorClock::zero(2)),
            Causality::Concurrent
        );
        // An update stamped in another group is never deliverable, and
        // the inbox does not buffer it.
        assert!(!narrow.deliverable(&wide, 0));
        assert!(!wide.deliverable(&VectorClock::from(vec![3, 0]), 0));
        let mut inbox = CausalInbox::new(2);
        assert_eq!(
            inbox.offer(0, VectorClock::from(vec![1, 0, 0]), "x"),
            Offer::Malformed
        );
        assert!(inbox.is_empty());
    }

    #[test]
    fn extra_predicate_holds_back_only_what_it_rejects() {
        let mut inbox = CausalInbox::new(2);
        assert_eq!(
            inbox.offer(0, VectorClock::from(vec![1, 0]), "a"),
            Offer::Buffered
        );
        assert_eq!(
            inbox.offer(1, VectorClock::from(vec![0, 1]), "b"),
            Offer::Buffered
        );
        // "a" is causally deliverable and first in line, but not ready:
        // "b" overtakes it, and "a" follows once the predicate allows.
        assert_eq!(inbox.pop_ready(|item| *item != "a").map(|r| r.2), Some("b"));
        assert_eq!(inbox.pop_ready(|item| *item != "a"), None);
        assert_eq!(inbox.first(), Some(&"a"));
        assert_eq!(inbox.pop_ready(|_| true).map(|r| r.2), Some("a"));
        assert_eq!(inbox.delivered(), &VectorClock::from(vec![1, 1]));
        assert!(inbox.is_empty());
    }

    /// The clock as it was: a derived newtype over a `Vec`.
    mod derived {
        #[derive(Debug, Hash)]
        pub struct VectorClock(pub Vec<u64>);
    }

    /// Inline or spilled, a clock prints and hashes what the derives
    /// over a `Vec` did (the determinism digests hash logs that carry
    /// clocks), and equality sees only the entries.
    #[test]
    fn inline_and_spilled_clocks_print_and_hash_as_the_derived_vec_clock() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for n in 0..=2 * INLINE {
            let entries: Vec<u64> = (0..n as u64).map(|i| i * 7 % 5).collect();
            let old = derived::VectorClock(entries.clone());
            let mut new = VectorClock::from(entries.clone());
            assert_eq!(format!("{new:?}"), format!("{old:?}"), "n = {n}");
            assert_eq!(format!("{new:#?}"), format!("{old:#?}"), "n = {n}");
            assert_eq!(hash(&|s| new.hash(s)), hash(&|s| old.hash(s)), "n = {n}");
            assert_eq!(&*new, &entries[..]);
            let mut zero = VectorClock::zero(n);
            zero.merge(&new);
            assert_eq!(zero, new, "n = {n}");
            if n > 0 {
                new.bump(n - 1);
                assert_ne!(new, VectorClock::from(entries), "n = {n}");
            }
        }
    }
}
