//! A file with no attribute lines of its own: the fail-soft lints reach
//! it from the crate root, as they reach every file of a crate that
//! states them once in its `lib.rs`.

/// Fail-soft: a slice of a slice.
pub fn head(v: &[u64]) -> &[u64] {
    &v[..2]
}
