//! Level-lattice fixture: exactly one closed match over builtin
//! consistency levels; the other matches are lattice-correct.

pub struct ConsistencyLevel;

impl ConsistencyLevel {
    pub const WEAK: u8 = 10;
    pub const STRONG: u8 = 40;
}

/// Seeded violation: the fallback exists only to satisfy the compiler;
/// a custom level lands in `unreachable!`.
pub fn closed(level: u8) -> &'static str {
    match level {
        ConsistencyLevel::WEAK => "weak",
        ConsistencyLevel::STRONG => "strong",
        _ => unreachable!("builtins only"),
    }
}

/// Clean: the guard and wildcard arms genuinely handle any
/// level, builtin or not.
pub fn open(level: u8) -> &'static str {
    match level {
        ConsistencyLevel::WEAK => "weak",
        other if other >= ConsistencyLevel::STRONG => "strong-or-above",
        _ => "custom",
    }
}

/// Clean: not a level match at all.
pub fn unrelated(x: Option<u8>) -> u8 {
    match x {
        Some(v) => v,
        None => 0,
    }
}
