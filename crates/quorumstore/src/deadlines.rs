//! Shared event-loop plumbing: a deadline heap and the map type for
//! tables keyed by self-minted integer ids.
//!
//! Every protocol handler of the served path (the replica core here,
//! the client bindings' loop in `icg-net`) keeps a heap of operation
//! deadlines next to the table of operations those deadlines belong
//! to. This module owns the heap once so the lazy-discard and expiry
//! logic cannot drift between them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by ids this process minted itself — connection ids,
/// internal op ids, client sequence numbers — which the loops cross
/// several times per frame. Such keys are sequential and nobody outside
/// chooses them, so one multiply spreads them and SipHash's flood
/// resistance buys nothing. Tables keyed by what a peer sends (the
/// store's keys) keep the default hasher. The hasher is fixed, so
/// iteration order is a function of the keys alone — but not an order
/// anything should depend on: sort before acting on a walk.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing of one `u64`; see [`IdMap`].
#[derive(Default)]
pub struct IdHasher(u64);

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
/// whose operation already finished. `T` is the owner's notion of time:
/// `Instant` on a client loop, host-supplied nanoseconds in the replica
/// core.
pub struct Deadlines<T: Ord + Copy, K: Ord + Copy> {
    heap: BinaryHeap<Reverse<(T, K)>>,
}

impl<T: Ord + Copy, K: Ord + Copy> Default for Deadlines<T, K> {
    fn default() -> Self {
        Deadlines {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T: Ord + Copy, K: Ord + Copy> Deadlines<T, K> {
    /// Arms a deadline for `key`.
    pub fn arm(&mut self, at: T, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// The soonest deadline whose key is still `alive`, discarding dead
    /// entries encountered on the way (ops that completed before their
    /// deadline fired).
    pub fn next_live(&mut self, alive: impl Fn(&K) -> bool) -> Option<T> {
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
    pub fn fire_expired(&mut self, now: T, mut expire: impl FnMut(K)) {
        while let Some(Reverse((at, key))) = self.heap.peek().copied() {
            if at > now {
                break;
            }
            self.heap.pop();
            expire(key);
        }
    }
}
