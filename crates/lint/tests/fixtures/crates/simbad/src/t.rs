//! Test code in its own file, declared `#[cfg(test)] mod t;`: the
//! wall-clock read here is not a finding.

use std::time::Instant;

pub fn started() -> Instant {
    Instant::now()
}
