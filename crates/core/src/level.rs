//! Consistency levels: the vocabulary shared between applications and
//! storage bindings.
//!
//! The paper's API is "centered around consistency levels" (§3.2): an
//! application asks for *weak* or *strong* (or everything in between) and
//! the binding maps each level onto a storage-specific mechanism (quorum
//! size, cache access, leader read, …). Levels are totally ordered from
//! weakest to strongest by their [`rank`](ConsistencyLevel::rank).
//!
//! ## The open lattice
//!
//! Levels are **not** a closed enum. [`ConsistencyLevel`] is a plain
//! `Copy` value: a rank, a wire id and a name. Five builtin levels
//! ([`CACHE`](ConsistencyLevel::CACHE) < [`WEAK`](ConsistencyLevel::WEAK)
//! < [`UPDATE`](ConsistencyLevel::UPDATE) <
//! [`CAUSAL`](ConsistencyLevel::CAUSAL) <
//! [`STRONG`](ConsistencyLevel::STRONG)) ship with the workspace, with
//! wire ids 0–4, and a binding defines anything else as a constant built
//! by [`ConsistencyLevel::new`] — a blockchain binding exposes
//! per-confirmation levels, and no core code changes. Only the builtins
//! cross a wire: [`from_wire_id`](ConsistencyLevel::from_wire_id) decodes
//! them and nothing else.
//!
//! Code that branches on a level compares it (`l == WEAK`, `l.rank()`,
//! `l.at_least(..)`) and never matches it against constants. The
//! compiler holds that rule: a level's equality is written by hand, so
//! its constants cannot be patterns, and a `match` listing builtins
//! does not build (the `compile_fail` example on [`ConsistencyLevel`]).
//!
//! A binding advertises its levels as a [`LevelSet`]: a validated,
//! totally-ordered (by rank), duplicate-free set with
//! [`weakest`](LevelSet::weakest) / [`strongest`](LevelSet::strongest)
//! queries. Client code selects levels with [`LevelSelection`]; a set of
//! up to six levels lives inline, so per-invoke selections stay
//! allocation-free.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The wire id of every level beyond the builtins. No receiver decodes
/// it: [`ConsistencyLevel::from_wire_id`] knows the builtins alone.
const WIRE_UNDECODED: u8 = u8::MAX;

/// A consistency guarantee an operation result can satisfy.
///
/// A `ConsistencyLevel` is a cheap `Copy` value: rank (position in the
/// weak→strong total order), wire id (stable byte for codecs), and name.
/// Builtin levels are associated constants; anything else is a constant
/// built by [`ConsistencyLevel::new`], so the lattice is open — core,
/// transport, and sharding code query ranks and roles instead of
/// matching on a closed set of names.
///
/// Equality and hashing are written by hand (over rank, wire id and
/// name, as a derive would), so a level has no *structural* equality and
/// its constants cannot be patterns. Code that branches on a level
/// compares it instead, and so leaves room for levels it has never seen:
///
/// ```compile_fail
/// use correctables::ConsistencyLevel;
/// fn quorum(l: ConsistencyLevel) -> usize {
///     match l {
///         ConsistencyLevel::WEAK => 1,
///         _ => 2,
///     }
/// }
/// ```
///
/// ```
/// use correctables::ConsistencyLevel;
/// fn quorum(l: ConsistencyLevel) -> usize {
///     match l {
///         l if l == ConsistencyLevel::WEAK => 1,
///         _ => 2,
///     }
/// }
/// ```
#[derive(Clone, Copy, Debug, Eq)]
pub struct ConsistencyLevel {
    rank: u8,
    wire_id: u8,
    name: &'static str,
}

impl PartialEq for ConsistencyLevel {
    fn eq(&self, other: &Self) -> bool {
        (self.rank, self.wire_id, self.name) == (other.rank, other.wire_id, other.name)
    }
}

impl Hash for ConsistencyLevel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.rank, self.wire_id, self.name).hash(state);
    }
}

/// Why a level set construction was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LevelError {
    /// Two distinct levels in one set share a rank: the set would not be
    /// totally ordered.
    AmbiguousRank(u8),
}

impl fmt::Display for LevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelError::AmbiguousRank(r) => {
                write!(f, "two distinct levels share rank {r}: not totally ordered")
            }
        }
    }
}

impl std::error::Error for LevelError {}

/// The builtin levels, indexed by wire id (stable across versions; the
/// golden wire frames pin them).
const BUILTINS: [ConsistencyLevel; 5] = [
    ConsistencyLevel::CACHE,
    ConsistencyLevel::WEAK,
    ConsistencyLevel::UPDATE,
    ConsistencyLevel::CAUSAL,
    ConsistencyLevel::STRONG,
];

impl ConsistencyLevel {
    /// Client-local cache: fastest, no freshness guarantee at all.
    pub const CACHE: ConsistencyLevel = ConsistencyLevel {
        rank: 0,
        wire_id: 0,
        name: "cache",
    };
    /// Weak / eventual consistency (e.g. a single-replica read).
    pub const WEAK: ConsistencyLevel = ConsistencyLevel {
        rank: 10,
        wire_id: 1,
        name: "weak",
    };
    /// Update consistency (Perrin, Mostéfaoui & Jard): updates are
    /// wait-free and all replicas eventually agree on a *single
    /// linearization of all updates* that respects each process's local
    /// order. Stronger than eventual consistency, cheaper than
    /// linearizability.
    pub const UPDATE: ConsistencyLevel = ConsistencyLevel {
        rank: 15,
        wire_id: 2,
        name: "update",
    };
    /// Causal consistency.
    pub const CAUSAL: ConsistencyLevel = ConsistencyLevel {
        rank: 20,
        wire_id: 3,
        name: "causal",
    };
    /// Strong consistency (linearizability or the strongest the store has).
    pub const STRONG: ConsistencyLevel = ConsistencyLevel {
        rank: 40,
        wire_id: 4,
        name: "strong",
    };

    /// A level beyond the builtins, named `name` at `rank`; bindings
    /// define theirs as constants
    /// (`const CONF_2: ConsistencyLevel = ConsistencyLevel::new("conf-2", 2);`).
    /// Two levels built here are the same level when name and rank
    /// agree. Such a level crosses no wire: its wire id is one no
    /// receiver decodes.
    pub const fn new(name: &'static str, rank: u8) -> ConsistencyLevel {
        ConsistencyLevel {
            rank,
            wire_id: WIRE_UNDECODED,
            name,
        }
    }

    /// The builtin level named `name`.
    pub fn lookup(name: &str) -> Option<ConsistencyLevel> {
        BUILTINS.iter().find(|l| l.name == name).copied()
    }

    /// The builtin level with wire id `id`.
    pub fn from_wire_id(id: u8) -> Option<ConsistencyLevel> {
        BUILTINS.get(usize::from(id)).copied()
    }

    /// Position of this level in the weak-to-strong total order.
    pub fn rank(&self) -> u8 {
        self.rank
    }

    /// The stable small-int id codecs use for this level.
    pub fn wire_id(&self) -> u8 {
        self.wire_id
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this level is at least as strong as `other`.
    pub fn at_least(&self, other: ConsistencyLevel) -> bool {
        self.rank >= other.rank
    }
}

impl PartialOrd for ConsistencyLevel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ConsistencyLevel {
    fn cmp(&self, other: &Self) -> Ordering {
        // Rank is the lattice order; wire id and name break ties between
        // distinct levels that happen to share a rank so sorting stays
        // total.
        (self.rank, self.wire_id, self.name).cmp(&(other.rank, other.wire_id, other.name))
    }
}

impl fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// How many levels a [`LevelSet`] holds inline before spilling: the five
/// builtins plus one custom fit without touching the allocator.
const INLINE_LEVELS: usize = 6;

/// A binding-advertised, totally-ordered, validated set of levels.
///
/// Invariants (enforced by every constructor): sorted weakest-first,
/// duplicate-free, and no two distinct members share a rank — so
/// [`weakest`](LevelSet::weakest) and [`strongest`](LevelSet::strongest)
/// are well-defined lattice queries. Equality and `Debug` see only the
/// members.
#[derive(Clone, Default)]
pub struct LevelSet {
    levels: Levels,
}

#[derive(Clone)]
enum Levels {
    /// `buf[..len]`; the rest is filler.
    Inline {
        len: u8,
        buf: [ConsistencyLevel; INLINE_LEVELS],
    },
    /// More than [`INLINE_LEVELS`] members.
    Spilled(Vec<ConsistencyLevel>),
}

/// The empty set as a constant: one copy, where building the filler
/// array on each call cost two `memcpy`s of it.
const EMPTY: Levels = Levels::Inline {
    len: 0,
    buf: [ConsistencyLevel::CACHE; INLINE_LEVELS],
};

impl Default for Levels {
    fn default() -> Self {
        EMPTY
    }
}

impl PartialEq for LevelSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LevelSet {}

impl fmt::Debug for LevelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LevelSet")
            .field("levels", &self.as_slice())
            .finish()
    }
}

impl LevelSet {
    /// The empty set.
    pub fn new() -> LevelSet {
        LevelSet::default()
    }

    /// Builds a set from `levels`, sorting and deduplicating.
    ///
    /// # Errors
    ///
    /// [`LevelError::AmbiguousRank`] if two *distinct* levels share a
    /// rank — such a set has no total order.
    pub fn try_of(levels: &[ConsistencyLevel]) -> Result<LevelSet, LevelError> {
        let mut set = LevelSet::new();
        for l in levels {
            set.insert(*l)?;
        }
        Ok(set)
    }

    /// Builds a set from `levels`, sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// If two distinct levels share a rank. Bindings advertise statically
    /// known sets, so this is an API-misuse panic; use
    /// [`LevelSet::try_of`] for dynamic input.
    pub fn of(levels: &[ConsistencyLevel]) -> LevelSet {
        match LevelSet::try_of(levels) {
            Ok(set) => set,
            Err(e) => panic!("invalid level set: {e}"),
        }
    }

    /// Inserts one level, keeping the set sorted. Inserting a member
    /// again is a no-op.
    ///
    /// # Errors
    ///
    /// [`LevelError::AmbiguousRank`] if a *different* level with the same
    /// rank is already present.
    pub fn insert(&mut self, level: ConsistencyLevel) -> Result<(), LevelError> {
        let i = match self
            .as_slice()
            .binary_search_by(|m| m.rank().cmp(&level.rank()))
        {
            Ok(i) if self.as_slice()[i] == level => return Ok(()),
            Ok(_) => return Err(LevelError::AmbiguousRank(level.rank())),
            Err(i) => i,
        };
        match &mut self.levels {
            Levels::Inline { len, buf } if usize::from(*len) < INLINE_LEVELS => {
                // The filler at `len` rotates into `i` and is overwritten.
                buf[i..=usize::from(*len)].rotate_right(1);
                buf[i] = level;
                *len += 1;
            }
            Levels::Inline { buf, .. } => {
                let mut spilled = buf.to_vec();
                spilled.insert(i, level);
                self.levels = Levels::Spilled(spilled);
            }
            Levels::Spilled(v) => v.insert(i, level),
        }
        Ok(())
    }

    /// The weakest member, if any.
    pub fn weakest(&self) -> Option<ConsistencyLevel> {
        self.as_slice().first().copied()
    }

    /// The strongest member, if any.
    pub fn strongest(&self) -> Option<ConsistencyLevel> {
        self.as_slice().last().copied()
    }

    /// Whether `level` is a member.
    pub fn contains(&self, level: ConsistencyLevel) -> bool {
        let members = self.as_slice();
        members
            .binary_search_by(|m| m.rank().cmp(&level.rank()))
            .is_ok_and(|i| members[i] == level)
    }

    /// Members as a sorted slice, weakest first.
    pub fn as_slice(&self) -> &[ConsistencyLevel] {
        match &self.levels {
            Levels::Inline { len, buf } => &buf[..usize::from(*len)],
            Levels::Spilled(v) => v,
        }
    }

    /// Iterates the members weakest-first.
    pub fn iter(&self) -> impl Iterator<Item = ConsistencyLevel> + '_ {
        self.as_slice().iter().copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Members as an owned `Vec` (allocates; prefer
    /// [`as_slice`](LevelSet::as_slice) on hot paths).
    pub fn to_vec(&self) -> Vec<ConsistencyLevel> {
        self.as_slice().to_vec()
    }
}

impl<'a> IntoIterator for &'a LevelSet {
    type Item = ConsistencyLevel;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ConsistencyLevel>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl FromIterator<ConsistencyLevel> for LevelSet {
    /// Collects levels into a set.
    ///
    /// # Panics
    ///
    /// If two distinct levels share a rank (see [`LevelSet::of`]).
    fn from_iter<I: IntoIterator<Item = ConsistencyLevel>>(iter: I) -> LevelSet {
        let mut set = LevelSet::new();
        for l in iter {
            if let Err(e) = set.insert(l) {
                panic!("invalid level set: {e}");
            }
        }
        set
    }
}

/// Which of a binding's levels an `invoke` should deliver.
///
/// `Only` is backed by a [`LevelSet`] (inline storage for up to six
/// levels), so building a per-invoke selection does not allocate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum LevelSelection {
    /// Deliver every level the binding supports (the default of `invoke`).
    #[default]
    All,
    /// Deliver only the listed levels (must be a subset of the binding's).
    Only(LevelSet),
}

impl LevelSelection {
    /// A selection of exactly the given levels (sorted, deduplicated;
    /// allocation-free for up to six levels).
    ///
    /// # Panics
    ///
    /// If two distinct levels share a rank (see [`LevelSet::of`]).
    pub fn only(levels: &[ConsistencyLevel]) -> LevelSelection {
        LevelSelection::Only(LevelSet::of(levels))
    }

    /// Resolves the selection against a binding's advertised levels,
    /// returning the requested levels sorted weakest-first.
    ///
    /// # Errors
    ///
    /// Returns the offending level if it is not advertised by the binding.
    pub fn resolve(&self, available: &LevelSet) -> Result<LevelSet, ConsistencyLevel> {
        match self {
            LevelSelection::All => Ok(available.clone()),
            LevelSelection::Only(set) => {
                for l in set.iter() {
                    if !available.contains(l) {
                        return Err(l);
                    }
                }
                Ok(set.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CACHE: ConsistencyLevel = ConsistencyLevel::CACHE;
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    const UPDATE: ConsistencyLevel = ConsistencyLevel::UPDATE;
    const CAUSAL: ConsistencyLevel = ConsistencyLevel::CAUSAL;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;

    #[test]
    fn ordering_is_weak_to_strong() {
        assert!(CACHE < WEAK);
        assert!(WEAK < UPDATE);
        assert!(UPDATE < CAUSAL);
        assert!(CAUSAL < STRONG);
        let quorum2 = ConsistencyLevel::new("quorum-2", 25);
        assert!(CAUSAL < quorum2 && quorum2 < STRONG);
        assert!(STRONG.at_least(WEAK));
        assert!(!WEAK.at_least(STRONG));
        assert!(WEAK.at_least(WEAK));
    }

    #[test]
    fn equality_and_hash_are_what_the_derives_gave() {
        use std::collections::hash_map::DefaultHasher;

        /// The level as it was: the same fields, derived.
        #[derive(Hash, PartialEq)]
        struct Derived {
            rank: u8,
            wire_id: u8,
            name: &'static str,
        }
        let derived = |l: ConsistencyLevel| Derived {
            rank: l.rank,
            wire_id: l.wire_id,
            name: l.name,
        };
        let digest = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let custom = ConsistencyLevel::new("conf-2", 2);
        let all = [CACHE, WEAK, UPDATE, CAUSAL, STRONG, custom];
        for l in all {
            assert_eq!(
                digest(&|s| l.hash(s)),
                digest(&|s| derived(l).hash(s)),
                "{l}"
            );
            for m in all {
                assert_eq!(l == m, derived(l) == derived(m), "{l} vs {m}");
            }
        }
        assert_eq!(custom, ConsistencyLevel::new("conf-2", 2));
        assert_ne!(custom, ConsistencyLevel::new("conf-2", 3));
    }

    #[test]
    fn display_names() {
        assert_eq!(STRONG.to_string(), "strong");
        let c = ConsistencyLevel::new("one-conf", 3);
        assert_eq!(c.to_string(), "one-conf");
    }

    #[test]
    fn lookup_by_name_and_wire_id_finds_only_builtins() {
        assert_eq!(ConsistencyLevel::lookup("weak"), Some(WEAK));
        assert_eq!(ConsistencyLevel::lookup("update"), Some(UPDATE));
        assert_eq!(ConsistencyLevel::lookup("no-such-level"), None);
        assert_eq!(ConsistencyLevel::from_wire_id(WEAK.wire_id()), Some(WEAK));
        let c = ConsistencyLevel::new("silver", 17);
        assert_eq!(c, ConsistencyLevel::new("silver", 17));
        assert_ne!(c, ConsistencyLevel::new("gold", 17));
        assert_eq!(ConsistencyLevel::lookup("silver"), None);
        assert_eq!(ConsistencyLevel::from_wire_id(c.wire_id()), None);
        for id in 5..=u8::MAX {
            assert_eq!(ConsistencyLevel::from_wire_id(id), None);
        }
    }

    #[test]
    fn builtin_wire_ids_are_stable() {
        assert_eq!(CACHE.wire_id(), 0);
        assert_eq!(WEAK.wire_id(), 1);
        assert_eq!(UPDATE.wire_id(), 2);
        assert_eq!(CAUSAL.wire_id(), 3);
        assert_eq!(STRONG.wire_id(), 4);
        for id in 0..5 {
            let level = ConsistencyLevel::from_wire_id(id).unwrap();
            assert_eq!(level.wire_id(), id);
            assert_eq!(ConsistencyLevel::lookup(level.name()), Some(level));
        }
    }

    #[test]
    fn level_set_sorts_dedups_and_queries() {
        let set = LevelSet::of(&[STRONG, WEAK, STRONG, CAUSAL]);
        assert_eq!(set.as_slice(), &[WEAK, CAUSAL, STRONG]);
        assert_eq!(set.weakest(), Some(WEAK));
        assert_eq!(set.strongest(), Some(STRONG));
        assert!(set.contains(CAUSAL));
        assert!(!set.contains(UPDATE));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn level_set_rejects_ambiguous_ranks() {
        let twin = ConsistencyLevel::new("strong-twin", STRONG.rank());
        assert_eq!(
            LevelSet::try_of(&[STRONG, twin]),
            Err(LevelError::AmbiguousRank(STRONG.rank()))
        );
    }

    #[test]
    fn selection_all_resolves_sorted() {
        let avail = LevelSet::of(&[STRONG, WEAK]);
        let got = LevelSelection::All.resolve(&avail).unwrap();
        assert_eq!(got.as_slice(), &[WEAK, STRONG]);
    }

    #[test]
    fn selection_subset_validated() {
        let avail = LevelSet::of(&[WEAK, STRONG]);
        let ok = LevelSelection::only(&[STRONG]).resolve(&avail).unwrap();
        assert_eq!(ok.as_slice(), &[STRONG]);
        let err = LevelSelection::only(&[CAUSAL]).resolve(&avail);
        assert_eq!(err, Err(CAUSAL));
    }

    #[test]
    fn selection_dedups() {
        let avail = LevelSet::of(&[WEAK, STRONG]);
        let got = LevelSelection::only(&[STRONG, WEAK, STRONG])
            .resolve(&avail)
            .unwrap();
        assert_eq!(got.as_slice(), &[WEAK, STRONG]);
    }

    #[test]
    fn fifth_custom_level_needs_no_core_changes() {
        // The acceptance test of the open lattice: define a level between
        // causal and strong and drive the whole selection machinery with
        // it, without touching any core code.
        let audit = ConsistencyLevel::new("audited", 30);
        let avail = LevelSet::of(&[WEAK, UPDATE, CAUSAL, audit, STRONG]);
        assert_eq!(avail.as_slice()[3], audit);
        let sel = LevelSelection::only(&[audit, WEAK]);
        let resolved = sel.resolve(&avail).unwrap();
        assert_eq!(resolved.as_slice(), &[WEAK, audit]);
    }

    proptest::proptest! {
        /// Up to ten custom levels inserted in random order, inline and
        /// past the sixth (spilled), against a model keyed by rank: a
        /// repeat is a no-op, a second name at a taken rank is refused,
        /// and the set reads, compares and prints as the sorted members.
        #[test]
        fn level_set_matches_a_rank_sorted_model(
            picks in proptest::collection::vec((0u8..12, 0usize..2), 0..=10),
        ) {
            const NAMES: [&str; 2] = ["gold", "silver"];
            let mut set = LevelSet::new();
            let mut model = std::collections::BTreeMap::new();
            for (rank, name) in picks {
                let level = ConsistencyLevel::new(NAMES[name], rank);
                let want = match model.get(&rank) {
                    Some(l) if *l != level => Err(LevelError::AmbiguousRank(rank)),
                    _ => Ok(()),
                };
                model.entry(rank).or_insert(level);
                proptest::prop_assert_eq!(set.insert(level), want);
                let members: Vec<ConsistencyLevel> = model.values().copied().collect();
                proptest::prop_assert_eq!(set.as_slice(), &members[..]);
                proptest::prop_assert_eq!(set.len(), members.len());
                proptest::prop_assert_eq!(set.strongest(), members.last().copied());
                proptest::prop_assert!(members.iter().all(|l| set.contains(*l)));
            }
            let members: Vec<ConsistencyLevel> = model.values().copied().collect();
            let reversed: LevelSet = members.iter().rev().copied().collect();
            proptest::prop_assert_eq!(&reversed, &set);
            proptest::prop_assert_eq!(
                format!("{reversed:?}"),
                format!("LevelSet {{ levels: {members:?} }}")
            );
        }
    }
}
