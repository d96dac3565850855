//! Bounded exponential backoff with deterministic jitter, for dialer
//! retry loops.
//!
//! Before this module existed, a replica whose peer died re-dialed on a
//! fixed short period — and on some failure paths with no delay at all,
//! burning a core (and a SYN flood) against a host that may be down for
//! minutes. [`Backoff`] gives every retry loop the standard cure:
//! delays double from a base up to a cap, with ±50% jitter so a fleet
//! of peers dialing one recovered replica does not thunder in lockstep.
//!
//! Determinism: the jitter comes from simnet's [`DetRng`] seeded by the
//! caller — no ambient RNG, no wall clock — so one seed yields one delay
//! sequence, and tests assert it exactly. The attributes below keep it
//! that way: this file is the one determinism scope in a crate that
//! otherwise runs on the wall clock (DESIGN.md §11).

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::time::Duration;

use simnet::DetRng;

/// Bounded exponential backoff with deterministic ±50% jitter.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    /// Consecutive failures so far (saturating).
    attempt: u32,
    /// The jitter stream.
    rng: DetRng,
}

impl Backoff {
    /// A backoff doubling from `base` up to `cap`, jittered from
    /// `seed`. A zero `base` is clamped to one millisecond (a zero base
    /// would never grow); `cap` below `base` is clamped up to `base`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let base = base.max(Duration::from_millis(1));
        Backoff {
            base,
            cap: cap.max(base),
            attempt: 0,
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// The delay to wait before the next attempt, advancing the
    /// failure count. The nominal delay is `base << attempt`, capped;
    /// the returned delay is that nominal value scaled by a
    /// deterministic factor in `[0.5, 1.5)`.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let nominal = self
            .base
            .checked_mul(1u32 << shift)
            .unwrap_or(self.cap)
            .min(self.cap);
        nominal.mul_f64(0.5 + self.rng.f64())
    }

    /// Resets after a successful attempt: the next failure starts the
    /// schedule over from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Consecutive failures recorded since the last [`Backoff::reset`].
    pub fn failures(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_to_the_cap_and_stay_bounded() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        let mut b = Backoff::new(base, cap, 7);
        for k in 0..20 {
            let d = b.next_delay();
            // Delay k is a [0.5, 1.5) jitter of min(base·2^k, cap).
            let nominal = base.saturating_mul(1 << k).min(cap);
            assert!(
                d >= nominal / 2 && d < nominal.mul_f64(1.5),
                "attempt {k}: {d:?} outside [0.5, 1.5) × {nominal:?}"
            );
        }
        assert_eq!(b.failures(), 20);
        b.reset();
        assert_eq!(b.failures(), 0);
        // After reset the first delay is near the base again.
        let d = b.next_delay();
        assert!(d < base.mul_f64(1.5) + Duration::from_millis(1));
    }

    #[test]
    fn same_seed_same_sequence() {
        let mk = || Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..12 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        // A different seed diverges somewhere in the first few draws.
        let mut c = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 43);
        let mut a = mk();
        let diverged = (0..12).any(|_| a.next_delay() != c.next_delay());
        assert!(diverged, "jitter must depend on the seed");
    }

    #[test]
    fn zero_base_is_clamped() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 1);
        let d = b.next_delay();
        assert!(d > Duration::ZERO, "a zero backoff would spin");
    }
}
