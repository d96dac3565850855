//! Shared event-loop plumbing: a deadline heap, the
//! wait-for-event-or-next-deadline receive step, and the map type for
//! tables keyed by self-minted integer ids.
//!
//! Both protocol loops in this crate (the replica server's and the
//! client binding's) are the same shape — an mpsc event channel, a heap
//! of operation deadlines, and a "handle whichever comes first" pump.
//! This module owns that shape once so the lazy-discard and expiry
//! logic cannot drift between the two.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
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

    /// Drops every armed deadline (used when all pending ops are failed
    /// wholesale).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
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

/// Outcome of one pump step.
pub(crate) enum Step<E> {
    /// An event arrived.
    Event(E),
    /// The given deadline passed with no event.
    Expired,
    /// Every sender hung up; the loop should exit.
    Closed,
}

/// Waits for the next event or until `deadline`, whichever comes first.
pub(crate) fn recv_step<E>(rx: &Receiver<E>, deadline: Option<Instant>) -> Step<E> {
    match deadline {
        Some(at) => {
            let now = Instant::now();
            if at <= now {
                return Step::Expired;
            }
            match rx.recv_timeout(at - now) {
                Ok(e) => Step::Event(e),
                Err(RecvTimeoutError::Timeout) => Step::Expired,
                Err(RecvTimeoutError::Disconnected) => Step::Closed,
            }
        }
        None => match rx.recv() {
            Ok(e) => Step::Event(e),
            Err(_) => Step::Closed,
        },
    }
}
