//! Determinism fixture: exactly one wall-clock read; everything else
//! is clean (ordered iteration, engine-provided time, and the test
//! module `t`, whose file reads the wall clock too).

use std::collections::BTreeMap;
use std::time::Instant;

#[cfg(test)]
mod t;

pub struct Sim {
    pub events: BTreeMap<u64, u32>,
}

impl Sim {
    /// Clean: BTreeMap iteration is ordered.
    pub fn sum(&self) -> u32 {
        self.events.values().sum()
    }

    /// Seeded violation: wall-clock time in sim-reachable code.
    pub fn stamp(&self) -> Instant {
        Instant::now()
    }
}
