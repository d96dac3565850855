//! A deliberately buggy in-memory binding: the oracle's negative-test
//! fixture.
//!
//! [`LaggyMem`] serves [`CounterSpec`](correctables::spec::CounterSpec)'s
//! operations from a one-write-stale shadow copy: weak views are *always*
//! stale (so quiescent weak views never converge to the strong result),
//! and every [`LaggyMem::STALE_EVERY`]-th strong read is answered from
//! the shadow too (a non-linearizable stale strong view). The
//! runtime-level guarantees (level monotonicity, close-once) are upheld —
//! those are enforced by the `Upcall` machinery and *cannot* be broken by
//! a binding — which is exactly the point: the value-level bugs are the
//! ones only a history checker can catch.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use correctables::spec::CtrOp;
use correctables::{Binding, ConsistencyLevel, LevelSet, Upcall};

struct LaggyState {
    fresh: HashMap<u64, u64>,
    /// Value each key held *before* its most recent write.
    stale: HashMap<u64, u64>,
    strong_reads: u64,
}

/// The buggy counter store (see module docs).
#[derive(Clone)]
pub struct LaggyMem {
    state: Arc<Mutex<LaggyState>>,
}

impl Default for LaggyMem {
    fn default() -> Self {
        LaggyMem {
            state: Arc::new(Mutex::new(LaggyState {
                fresh: HashMap::new(),
                stale: HashMap::new(),
                strong_reads: 0,
            })),
        }
    }
}

impl LaggyMem {
    /// Every n-th strong read is served stale.
    pub const STALE_EVERY: u64 = 4;
}

impl Binding for LaggyMem {
    type Op = CtrOp;
    type Val = u64;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: CtrOp, levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
        let (weak_val, strong_val) = {
            let mut g = self.state.lock();
            match op {
                CtrOp::Get(k) => {
                    g.strong_reads += 1;
                    let fresh = g.fresh.get(&k).copied().unwrap_or(0);
                    let stale = g.stale.get(&k).copied().unwrap_or(0);
                    let strong = if g.strong_reads.is_multiple_of(Self::STALE_EVERY) {
                        stale // BUG: a stale value sold as strong.
                    } else {
                        fresh
                    };
                    (stale, strong)
                }
                CtrOp::Put(k, v) => {
                    let old = g.fresh.insert(k, v).unwrap_or(0);
                    g.stale.insert(k, old);
                    (v, v)
                }
                CtrOp::Add(k, d) => {
                    let old = g.fresh.get(&k).copied().unwrap_or(0);
                    let new = old.wrapping_add(d);
                    g.fresh.insert(k, new);
                    g.stale.insert(k, old);
                    (new, new)
                }
            }
        };
        for l in levels {
            let v = if *l == ConsistencyLevel::STRONG {
                strong_val
            } else {
                weak_val // BUG for reads: quiescent weak views stay stale.
            };
            upcall.deliver(v, *l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctables::Client;

    #[test]
    fn strong_reads_eventually_serve_stale_values() {
        let b = LaggyMem::default();
        let client = Client::new(b.clone());
        client.invoke_strong(CtrOp::Put(1, 10));
        client.invoke_strong(CtrOp::Put(1, 20));
        let mut saw_stale = false;
        for _ in 0..LaggyMem::STALE_EVERY + 1 {
            let c = client.invoke_strong(CtrOp::Get(1));
            if c.final_view().unwrap().value == 10 {
                saw_stale = true;
            }
        }
        assert!(saw_stale, "the bug must actually fire");
    }
}
