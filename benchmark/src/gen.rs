//! Seeded input generation, owned by the benchmark.
//!
//! The program under test ships its own YCSB generators (`icg::ycsb`),
//! but a benchmark that drew its inputs from them would change
//! workload whenever they changed. The key chooser and the operation
//! mix therefore live here: the same `--seed` gives the same operation
//! sequence on every commit, and the program sees only the operations.

/// SplitMix64: the seeding mixer (also good enough to derive
/// independent stream seeds from one run seed).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of sub-stream `stream` of run seed `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// xoshiro256++: small, fast, and entirely in this file.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator seeded from one word.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// YCSB's Zipfian key chooser (Gray et al.), constant 0.99: key 0 is
/// the most popular.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A chooser over `0..items` (`items ≥ 2`).
    pub fn new(items: u64) -> Zipfian {
        assert!(items >= 2, "zipfian needs at least two items");
        let theta = 0.99;
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(items);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Draws one key.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let k = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.items - 1)
    }
}

/// One generated key-value operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// Whether this is a write (otherwise an ICG read).
    pub write: bool,
    /// Key id in `0..keys`.
    pub key: u64,
}

/// The operation stream of one client: Zipfian keys, a fixed write
/// share (YCSB-A is 0.5, YCSB-B 0.05).
#[derive(Clone, Debug)]
pub struct KvStream {
    rng: Rng,
    zipf: Zipfian,
    write_share: f64,
}

impl KvStream {
    /// The stream of client `client` under run seed `seed`.
    pub fn new(seed: u64, client: u64, keys: u64, write_share: f64) -> KvStream {
        KvStream {
            rng: Rng::new(derive_seed(seed, client)),
            zipf: Zipfian::new(keys),
            write_share,
        }
    }
}

impl Iterator for KvStream {
    type Item = KvOp;

    fn next(&mut self) -> Option<KvOp> {
        let key = self.zipf.next(&mut self.rng);
        let write = self.rng.f64() < self.write_share;
        Some(KvOp { write, key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<KvOp> = KvStream::new(42, 1, 10_000, 0.05).take(5_000).collect();
        let b: Vec<KvOp> = KvStream::new(42, 1, 10_000, 0.05).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn other_seed_or_client_other_sequence() {
        let a: Vec<KvOp> = KvStream::new(42, 0, 10_000, 0.5).take(200).collect();
        let b: Vec<KvOp> = KvStream::new(43, 0, 10_000, 0.5).take(200).collect();
        let c: Vec<KvOp> = KvStream::new(42, 1, 10_000, 0.5).take(200).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_and_skew_are_what_the_workload_says() {
        let n = 200_000;
        let ops: Vec<KvOp> = KvStream::new(7, 0, 10_000, 0.05).take(n).collect();
        let writes = ops.iter().filter(|o| o.write).count() as f64 / n as f64;
        assert!((writes - 0.05).abs() < 0.005, "write share {writes}");
        assert!(ops.iter().all(|o| o.key < 10_000));
        // zipf(0.99) over 10k keys: key 0 draws 1/zeta(10k) ≈ 10 %.
        let hot = ops.iter().filter(|o| o.key == 0).count() as f64 / n as f64;
        assert!((0.08..0.13).contains(&hot), "key-0 share {hot}");
        let top100 = ops.iter().filter(|o| o.key < 100).count() as f64 / n as f64;
        assert!(top100 > 0.45, "top-100 share {top100}");
    }

    #[test]
    fn rng_f64_stays_in_unit_interval() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.f64())));
    }
}
