//! The per-replica storage engine: a last-writer-wins versioned map.
//!
//! Every access is one hash probe: a write goes through
//! [`HashMap::entry`], never a `get` followed by an `insert`, and read
//! repair ([`LocalStore::adopt`]) probes only when a peer answered
//! newer than what the read found locally.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::types::{Key, Version, Versioned};

/// One replica's local key-value state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalStore {
    map: HashMap<Key, Versioned>,
}

impl LocalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Reads a key; missing keys read as [`Versioned::absent`].
    pub fn get(&self, key: Key) -> Versioned {
        self.map
            .get(&key)
            .cloned()
            .unwrap_or_else(Versioned::absent)
    }

    /// Applies `data` if it is newer than the stored version
    /// (last-writer-wins). Returns whether the store changed.
    pub fn apply(&mut self, key: Key, data: Versioned) -> bool {
        self.apply_with(key, data.version, || data)
    }

    /// Read repair: applies a quorum read's winner `best` if it is newer
    /// than `seen`, the version this store held for `key` when the read
    /// began. Stored versions never go back, so a winner no newer than
    /// `seen` cannot win now and costs no probe; otherwise `best` is
    /// cloned only if it is newer than what is stored now. Returns
    /// whether the store changed.
    pub fn adopt(&mut self, key: Key, best: &Versioned, seen: Version) -> bool {
        best.version > seen && self.apply_with(key, best.version, || best.clone())
    }

    /// The last-writer-wins rule in one probe: `data` is built only if
    /// `version` is newer than the stored one.
    fn apply_with(&mut self, key: Key, version: Version, data: impl FnOnce() -> Versioned) -> bool {
        match self.map.entry(key) {
            Entry::Occupied(stored) if stored.get().version >= version => false,
            Entry::Occupied(mut stored) => {
                stored.insert(data());
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(data());
                true
            }
        }
    }

    /// Makes room for `additional` more keys, so seeding a known number
    /// of records never rehashes.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;
    use proptest::prelude::*;

    fn rec(ts: u64, len: u32) -> Versioned {
        Versioned {
            value: Value::Opaque(len),
            version: Version { ts, writer: 0 },
        }
    }

    #[test]
    fn missing_reads_absent() {
        let s = LocalStore::new();
        assert_eq!(s.get(Key::plain(1)), Versioned::absent());
        assert!(s.is_empty());
    }

    #[test]
    fn newer_write_wins() {
        let mut s = LocalStore::new();
        assert!(s.apply(Key::plain(1), rec(5, 10)));
        assert!(s.apply(Key::plain(1), rec(9, 20)));
        assert_eq!(s.get(Key::plain(1)), rec(9, 20));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn older_write_is_rejected() {
        let mut s = LocalStore::new();
        s.apply(Key::plain(1), rec(9, 20));
        assert!(!s.apply(Key::plain(1), rec(5, 10)));
        assert_eq!(s.get(Key::plain(1)), rec(9, 20));
    }

    #[test]
    fn equal_version_is_idempotent() {
        let mut s = LocalStore::new();
        s.apply(Key::plain(1), rec(5, 10));
        assert!(!s.apply(Key::plain(1), rec(5, 10)));
    }

    #[test]
    fn writer_breaks_ts_ties() {
        let mut s = LocalStore::new();
        let a = Versioned {
            value: Value::Opaque(1),
            version: Version { ts: 5, writer: 1 },
        };
        let b = Versioned {
            value: Value::Opaque(2),
            version: Version { ts: 5, writer: 2 },
        };
        s.apply(Key::plain(1), a);
        assert!(s.apply(Key::plain(1), b.clone()));
        assert_eq!(s.get(Key::plain(1)), b);
    }

    /// The store as it was before writes became one probe: `apply` looks
    /// the key up, then inserts, and read repair asks `version_of`
    /// before it applies. The reference the one-probe paths are held to.
    #[derive(Default)]
    struct TwoProbe {
        map: HashMap<Key, Versioned>,
    }

    impl TwoProbe {
        fn apply(&mut self, key: Key, data: Versioned) -> bool {
            match self.map.get(&key) {
                Some(existing) if existing.version >= data.version => false,
                _ => {
                    self.map.insert(key, data);
                    true
                }
            }
        }

        fn version_of(&self, key: Key) -> Version {
            self.map.get(&key).map_or(Version::ZERO, |v| v.version)
        }

        fn repair(&mut self, key: Key, best: &Versioned) -> bool {
            best.version > self.version_of(key) && self.apply(key, best.clone())
        }
    }

    /// One step of a replica's life, as the core drives its store.
    enum Step {
        /// A client or peer write.
        Apply(Key, Versioned),
        /// A quorum read of a key begins: the coordinator's own copy is
        /// its first answer.
        Begin(Key),
        /// A peer answers pending read `n` (modulo how many are open).
        Answer(usize, Versioned),
        /// Pending read `n` completes and repairs the coordinator.
        Finish(usize),
    }

    fn arb_record() -> impl Strategy<Value = Versioned> {
        // Few timestamps and writers, so equal versions and ties occur;
        // the payload tells apart two records of one version.
        (0u64..12, 0u32..3, 0u32..4).prop_map(|(ts, writer, len)| Versioned {
            value: Value::Opaque(len),
            version: Version { ts, writer },
        })
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..4, arb_record()).prop_map(|(k, v)| Step::Apply(Key::plain(k), v)),
            (0u64..4).prop_map(|k| Step::Begin(Key::plain(k))),
            (0usize..8, arb_record()).prop_map(|(n, v)| Step::Answer(n, v)),
            (0usize..8).prop_map(Step::Finish),
        ]
    }

    /// A pending read: its key, the version the coordinator held when it
    /// began, and the newest answer so far — `ReadSt`'s `key`, `local`
    /// and `best`.
    struct Read {
        key: Key,
        seen: Version,
        best: Versioned,
    }

    proptest! {
        /// One-probe `apply` and `adopt` leave the table the two-probe
        /// `apply` and the `version_of`-then-`apply` repair leave, with
        /// the same answers, whatever writes land while reads are open.
        #[test]
        fn one_probe_writes_and_repairs_match_the_two_probe_reference(
            script in proptest::collection::vec(arb_step(), 1..80),
        ) {
            let (mut store, mut reference) = (LocalStore::new(), TwoProbe::default());
            let mut open: Vec<Read> = Vec::new();
            for step in script {
                match step {
                    Step::Apply(key, data) => {
                        let want = reference.apply(key, data.clone());
                        prop_assert_eq!(store.apply(key, data), want, "apply {:?}", key);
                    }
                    Step::Begin(key) => {
                        let local = store.get(key);
                        open.push(Read { key, seen: local.version, best: local });
                    }
                    Step::Answer(n, data) if !open.is_empty() => {
                        let at = n % open.len();
                        let read = &mut open[at];
                        if data.version > read.best.version {
                            read.best = data;
                        }
                    }
                    Step::Finish(n) if !open.is_empty() => {
                        let read = open.remove(n % open.len());
                        let want = reference.repair(read.key, &read.best);
                        prop_assert_eq!(store.adopt(read.key, &read.best, read.seen), want);
                    }
                    Step::Answer(..) | Step::Finish(_) => {}
                }
                prop_assert_eq!(&store.map, &reference.map);
            }
        }
    }

    #[test]
    fn a_repair_no_newer_than_the_read_began_with_changes_nothing() {
        let mut s = LocalStore::new();
        s.apply(Key::plain(1), rec(5, 10));
        // The winner is the coordinator's own copy: nothing to adopt.
        assert!(!s.adopt(Key::plain(1), &rec(5, 10), Version { ts: 5, writer: 0 }));
        // A peer was newer, but a write newer still landed meanwhile.
        s.apply(Key::plain(1), rec(9, 30));
        assert!(!s.adopt(Key::plain(1), &rec(7, 20), Version { ts: 5, writer: 0 }));
        assert_eq!(s.get(Key::plain(1)), rec(9, 30));
        assert!(s.adopt(Key::plain(1), &rec(11, 40), Version { ts: 5, writer: 0 }));
        assert_eq!(s.get(Key::plain(1)), rec(11, 40));
    }
}
