//! Property tests of the consistent-hash ring: lookups are a pure
//! function of the ring's parameters, and every lookup names a member.

use proptest::prelude::*;

use correctables::ObjectId;
use icg_shard::HashRing;

proptest! {
    /// Two rings built from the same `(shards, vnodes, seed)` agree on
    /// the owner of every key — placement is a pure function, so any
    /// router replica (or a rebuilt router) computes identical routing.
    #[test]
    fn lookups_are_deterministic(
        shards in 1u32..12,
        vnodes in 1usize..96,
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 64),
    ) {
        let a = HashRing::new(shards, vnodes, seed);
        let b = HashRing::new(shards, vnodes, seed);
        for k in keys {
            let owner = a.owner_index(ObjectId(k));
            prop_assert!(owner < shards as usize);
            prop_assert_eq!(owner, b.owner_index(ObjectId(k)));
        }
    }
}
