//! Property-based tests of the storage engine and quorum invariants.

use proptest::prelude::*;

use crate::storage::LocalStore;
use crate::types::{Key, Value, Version, Versioned};

fn arb_version() -> impl Strategy<Value = Version> {
    (0u64..1_000, 0u32..8).prop_map(|(ts, writer)| Version { ts, writer })
}

fn arb_record() -> impl Strategy<Value = (Key, Versioned)> {
    (0u64..16, arb_version(), 0u32..64).prop_map(|(k, version, len)| {
        (
            Key::plain(k),
            Versioned {
                value: Value::Opaque(len),
                version,
            },
        )
    })
}

proptest! {
    /// Last-writer-wins convergence: any two replicas that apply the same
    /// multiset of writes (in any order) end in the same state.
    #[test]
    fn lww_replicas_converge_regardless_of_order(
        writes in proptest::collection::vec(arb_record(), 1..60),
        seed in any::<u64>(),
    ) {
        let mut a = LocalStore::new();
        for (k, v) in &writes {
            a.apply(*k, v.clone());
        }
        // Replica B applies a shuffled copy.
        let mut shuffled = writes.clone();
        let mut rng = simnet::DetRng::seed_from_u64(seed);
        rng.shuffle(&mut shuffled);
        let mut b = LocalStore::new();
        for (k, v) in &shuffled {
            b.apply(*k, v.clone());
        }
        for (k, _) in &writes {
            prop_assert_eq!(a.get(*k), b.get(*k), "diverged on {:?}", k);
        }
    }

    /// The stored version never decreases as writes are applied.
    #[test]
    fn versions_are_monotone(writes in proptest::collection::vec(arb_record(), 1..60)) {
        let mut s = LocalStore::new();
        let mut highs: std::collections::HashMap<Key, Version> = Default::default();
        for (k, v) in &writes {
            let before = s.get(*k).version;
            s.apply(*k, v.clone());
            let after = s.get(*k).version;
            prop_assert!(after >= before);
            let h = highs.entry(*k).or_insert(Version::ZERO);
            *h = (*h).max(v.version);
            prop_assert_eq!(after, *h, "store must hold the max version");
        }
    }

    /// Apply is idempotent.
    #[test]
    fn apply_is_idempotent(writes in proptest::collection::vec(arb_record(), 1..30)) {
        let mut once = LocalStore::new();
        let mut twice = LocalStore::new();
        for (k, v) in &writes {
            once.apply(*k, v.clone());
            twice.apply(*k, v.clone());
            twice.apply(*k, v.clone());
        }
        for (k, _) in &writes {
            prop_assert_eq!(once.get(*k), twice.get(*k));
        }
    }

    /// Wire sizes: a write-path Delta is never larger than its read-path
    /// record, and both are consistent with the declared sizes.
    #[test]
    fn delta_write_size_is_bounded(field in 0u32..10_000, record in 0u32..10_000) {
        let v = Value::Delta { field_len: field, record_len: record };
        prop_assert_eq!(v.write_size(), field as usize);
        prop_assert_eq!(v.wire_size(), record as usize);
    }
}
