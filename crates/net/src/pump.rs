//! Shared event-loop plumbing: a deadline heap and the map type for
//! tables keyed by self-minted integer ids.
//!
//! Both protocol handlers in this crate (the replica server's and the
//! client bindings') keep a heap of operation deadlines next to the
//! table of operations those deadlines belong to. This module owns the
//! heap once so the lazy-discard and expiry logic cannot drift between
//! the two.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// A map keyed by ids this process minted itself — connection ids,
/// internal op ids, client sequence numbers — which the loops cross
/// several times per frame. Such keys are sequential and nobody outside
/// chooses them, so one multiply spreads them and SipHash's flood
/// resistance buys nothing. Tables keyed by what a peer sends (the
/// store's keys) keep the default hasher.
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing of one `u64`; see [`IdMap`].
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed; keep other input correct anyway.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits and tags by the high ones;
        // the product's entropy sits in the high half.
        self.0 ^ (self.0 >> 32)
    }
}

/// A min-heap of `(deadline, key)` pairs with lazy discarding of keys
/// whose operation already finished.
pub(crate) struct Deadlines<K: Ord + Copy> {
    heap: BinaryHeap<Reverse<(Instant, K)>>,
}

impl<K: Ord + Copy> Deadlines<K> {
    pub(crate) fn new() -> Self {
        Deadlines {
            heap: BinaryHeap::new(),
        }
    }

    /// Arms a deadline for `key`.
    pub(crate) fn arm(&mut self, at: Instant, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// The soonest deadline whose key is still `alive`, discarding dead
    /// entries encountered on the way (ops that completed before their
    /// deadline fired).
    pub(crate) fn next_live(&mut self, alive: impl Fn(&K) -> bool) -> Option<Instant> {
        while let Some(Reverse((at, key))) = self.heap.peek().copied() {
            if alive(&key) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every deadline at or before `now`, feeding each key to
    /// `expire` (dead keys included — the callback's remove handles
    /// both).
    pub(crate) fn fire_expired(&mut self, now: Instant, mut expire: impl FnMut(K)) {
        while let Some(Reverse((at, key))) = self.heap.peek().copied() {
            if at > now {
                break;
            }
            self.heap.pop();
            expire(key);
        }
    }
}
