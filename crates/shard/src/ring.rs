//! The consistent-hash ring: virtual nodes over the 64-bit hash circle.
//!
//! Each shard owns `vnodes` points on the circle; a key is owned by the
//! shard whose point is the first at or clockwise-after the key's hash.
//! Points are drawn from the vendored xoshiro RNG seeded per shard, so a
//! lookup is a pure function of `(seed, vnodes, shard count, key)`: every
//! router built with the same parameters computes the same placement.

use correctables::ObjectId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
/// place keys on the circle.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring with virtual nodes.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard index)` pairs sorted by point, ties by shard.
    points: Vec<(u64, u32)>,
    seed: u64,
}

impl HashRing {
    /// A ring over shards `0..shard_count`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` or `vnodes` is zero.
    pub fn new(shard_count: u32, vnodes: usize, seed: u64) -> HashRing {
        assert!(shard_count > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity(shard_count as usize * vnodes);
        for shard in 0..shard_count {
            // One deterministic stream per shard: a shard's points depend
            // only on `(seed, its index)`.
            let mut rng = SmallRng::seed_from_u64(mix64(seed) ^ u64::from(shard));
            for _ in 0..vnodes {
                points.push((rng.gen::<u64>(), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, seed }
    }

    /// The index of the shard owning `key`: the first point at or
    /// clockwise-after the key's position, wrapping past zero.
    #[inline]
    pub fn owner_index(&self, key: ObjectId) -> usize {
        let pos = mix64(key.0 ^ self.seed);
        let idx = self.points.partition_point(|(p, _)| *p < pos);
        self.points[idx % self.points.len()].1 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic() {
        let a = HashRing::new(8, 64, 7);
        let b = HashRing::new(8, 64, 7);
        assert_eq!(a.points, b.points);
        for k in 0..1000 {
            assert_eq!(a.owner_index(ObjectId(k)), b.owner_index(ObjectId(k)));
        }
    }

    #[test]
    fn different_seeds_place_differently() {
        let a = HashRing::new(8, 64, 1);
        let b = HashRing::new(8, 64, 2);
        let diverges = (0..1000).any(|k| a.owner_index(ObjectId(k)) != b.owner_index(ObjectId(k)));
        assert!(diverges);
    }

    #[test]
    fn load_spreads_across_all_shards() {
        let ring = HashRing::new(8, 128, 42);
        let mut counts = [0usize; 8];
        for k in 0..8000 {
            counts[ring.owner_index(ObjectId(k))] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            // Perfect balance would be 1000; vnode placement keeps every
            // shard within a loose factor of it.
            assert!((400..2200).contains(c), "shard {i} got {c} of 8000 keys");
        }
    }
}
