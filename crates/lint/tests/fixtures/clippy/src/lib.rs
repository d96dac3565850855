//! Each function breaks one rule; the attributes are the ones a
//! determinism crate's `lib.rs` and a fail-soft crate's `lib.rs` carry.
//! `sub.rs` carries none and breaks one more.

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

pub mod sub;

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

pub struct Watchers {
    m: HashMap<u64, u64>,
}

impl Watchers {
    /// Determinism: two wall-clock reads.
    pub fn clocks() -> (Instant, SystemTime) {
        (Instant::now(), SystemTime::now())
    }

    /// Determinism: a `for` loop in hash order.
    pub fn walk(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (k, v) in &self.m {
            out.push(k + v);
        }
        out
    }

    /// Determinism: an iterator in hash order.
    pub fn first(&self) -> Option<u64> {
        self.m.values().next().copied()
    }
}

/// Fail-soft: unwrap, expect, indexing and an assert.
pub fn pump(v: &[u64], o: Option<u64>, r: Result<u64, ()>) -> u64 {
    assert!(!v.is_empty());
    o.unwrap() + r.expect("present") + v[0]
}

/// Fail-soft: the four panicking macros.
pub fn give_up(n: u64) -> u64 {
    match n {
        0 => panic!("zero"),
        1 => unreachable!(),
        2 => todo!(),
        _ => unimplemented!(),
    }
}

/// Unsafe audit: a block with no `// SAFETY:` comment.
pub fn read(x: &u64) -> u64 {
    let p: *const u64 = x;
    unsafe { *p }
}

/// Unsafe audit: an unsafe operation outside an `unsafe` block.
///
/// # Safety
///
/// `p` is valid for reads.
pub unsafe fn read_raw(p: *const u64) -> u64 {
    *p
}
