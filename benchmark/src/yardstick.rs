//! The yardstick: a fixed piece of benchmark-owned work that tells how
//! fast this machine is *right now*.
//!
//! The reference VM is a slice of a shared host, and its speed wanders:
//! for seconds to minutes at a time the same code runs up to a third
//! slower — wall time and CPU time alike, with no steal time reported —
//! and then recovers. A run that falls into such a stretch reads a
//! third worse than the next one, and no median over the run repairs
//! that (README "Noise control" has the measurements).
//!
//! So every run cuts its load into short slices and takes a yardstick
//! reading between slices. Every time measured in a slice is divided by
//! the slice's *slowness* — what the yardstick cost next to it over
//! what it costs on the quiet reference VM — and the run reports the
//! median of its slices: the speed the program has on a quiet reference
//! VM, which is the only speed that repeats.
//!
//! The yardstick has three parts, chosen because each one's slowdown
//! followed the workloads' in some stretch where the others did not:
//! ordered-map churn, small allocations and byte hashing (computing in
//! cache); megabyte allocations touched page by page (page faults and
//! fresh memory); and round trips over a loopback socket to an echo
//! thread (system calls, the kernel's TCP path, thread wake-ups). The
//! slowness is the geometric mean of the three ratios, the same for
//! every workload: weights fitted per workload did not hold from one
//! hour to the next. The yardstick uses `std` only and never changes
//! with the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::gen::Rng;
use crate::stats::median;

/// Parts of a reading.
pub const PARTS: usize = 3;

/// One reading: nanoseconds per part (compute, fresh pages, echo).
pub type Reading = [f64; PARTS];

/// A reading on the quiet reference VM between slices of the TCP
/// workloads (their kernel work leaves the caches colder).
pub const NOMINAL_TCP: Reading = [262_000.0, 120_000.0, 950_000.0];

/// A reading on the quiet reference VM between simulated segments.
pub const NOMINAL_SIM: Reading = [222_000.0, 112_000.0, 960_000.0];

const MAP_ENTRIES: usize = 4_096;
const MAP_OPS: usize = 600;
const ALLOCS: usize = 150;
const HASH_BYTES: usize = 32 * 1024;
const ECHO_TRIPS: usize = 200;
/// Rounds per reading; each part's reading is its median round.
const ROUNDS: usize = 5;

/// The yardstick's state, kept between readings the way the program
/// keeps its own.
pub struct Yardstick {
    rng: Rng,
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    bytes: Vec<u8>,
    echo: Option<(TcpStream, JoinHandle<()>)>,
}

/// A loopback connection to a thread that sends every 8 bytes back.
fn echo_pair() -> std::io::Result<(TcpStream, JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let stream = TcpStream::connect(listener.local_addr()?)?;
    stream.set_nodelay(true)?;
    let (mut served, _) = listener.accept()?;
    served.set_nodelay(true)?;
    let thread = std::thread::Builder::new()
        .name("yardstick-echo".into())
        .spawn(move || {
            let mut b = [0u8; 8];
            // Ends when the yardstick drops its end.
            while served.read_exact(&mut b).is_ok() && served.write_all(&b).is_ok() {}
        })?;
    Ok((stream, thread))
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        if let Some((stream, thread)) = self.echo.take() {
            drop(stream);
            let _ = thread.join();
        }
    }
}

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

impl Yardstick {
    /// A yardstick; always the same one.
    pub fn new() -> Yardstick {
        let mut rng = Rng::new(0x5ca1e);
        let keys: Vec<u64> = (0..MAP_ENTRIES).map(|_| rng.next_u64()).collect();
        Yardstick {
            map: keys.iter().map(|k| (*k, k ^ 1)).collect(),
            keys,
            bytes: (0..HASH_BYTES).map(|i| i as u8).collect(),
            echo: echo_pair().ok(),
            rng,
        }
    }

    fn compute(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..MAP_OPS {
            let slot = self.rng.below(MAP_ENTRIES as u64) as usize;
            let fresh = self.rng.next_u64();
            acc ^= self.map.remove(&self.keys[slot]).unwrap_or(0);
            self.map.insert(fresh, fresh ^ acc);
            self.keys[slot] = fresh;
            let probe = self.keys[self.rng.below(MAP_ENTRIES as u64) as usize];
            acc = acc.wrapping_add(*self.map.get(&probe).unwrap_or(&0));
        }
        for _ in 0..ALLOCS {
            let len = 16 + self.rng.below(1_000) as usize;
            let v: Vec<u8> = (0..len).map(|i| (i as u64 ^ acc) as u8).collect();
            acc = acc.wrapping_add(black_box(&v).iter().map(|b| u64::from(*b)).sum::<u64>());
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ acc;
        for b in &self.bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.bytes[(h % HASH_BYTES as u64) as usize] = h as u8;
        h
    }

    fn fresh_pages() -> u64 {
        let mut sum = 0u64;
        for k in 0..4u8 {
            // Above the allocator's mmap threshold: fresh zero pages
            // from the kernel, each faulted in by the first store.
            let mut v = vec![0u8; 1 << 20];
            for p in (0..v.len()).step_by(4096) {
                v[p] = k;
            }
            sum += u64::from(black_box(&v)[4096]);
        }
        sum
    }

    fn echo(&mut self) -> u64 {
        let mut b = [7u8; 8];
        let mut trips = 0;
        if let Some((stream, _)) = self.echo.as_mut() {
            for _ in 0..ECHO_TRIPS {
                if stream.write_all(&b).is_ok() && stream.read_exact(&mut b).is_ok() {
                    trips += 1;
                }
            }
        }
        trips
    }

    /// One reading: per part, the median of [`ROUNDS`] rounds. About
    /// 8 ms. A part that cannot run (no loopback) reads its nominal
    /// time, so it says nothing.
    pub fn read(&mut self, nominal: &Reading) -> Reading {
        let mut rounds = [[0.0; PARTS]; ROUNDS];
        for round in &mut rounds {
            *round = [
                timed(|| self.compute()),
                timed(Self::fresh_pages),
                match self.echo {
                    Some(_) => timed(|| self.echo()),
                    None => nominal[2],
                },
            ];
        }
        std::array::from_fn(|part| {
            let mut column = rounds.map(|round| round[part]);
            median(&mut column).unwrap_or(0.0)
        })
    }
}

/// What the readings before and after a slice show, part by part:
/// the geometric mean of the two costs over the nominal cost.
pub fn part_slowness(before: &Reading, after: &Reading, nominal: &Reading) -> Reading {
    std::array::from_fn(|i| (before[i] * after[i]).sqrt() / nominal[i])
}

/// The slowness the readings before and after a slice show: the
/// geometric mean over the parts of [`part_slowness`]. 1 on the quiet
/// reference VM, above 1 when the machine is slow.
pub fn slowness(before: &Reading, after: &Reading, nominal: &Reading) -> f64 {
    let parts = part_slowness(before, after, nominal);
    (parts.iter().map(|p| p.ln()).sum::<f64>() / PARTS as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_one_at_nominal_and_scales() {
        let n = NOMINAL_SIM;
        assert!((slowness(&n, &n, &n) - 1.0).abs() < 1e-12);
        let double = n.map(|t| t * 2.0);
        assert!((slowness(&double, &double, &n) - 2.0).abs() < 1e-12);
        // One part of three, twice as slow in both readings: 2^(1/3).
        let one = [n[0] * 2.0, n[1], n[2]];
        assert!((slowness(&one, &one, &n) - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        // Slow only before the slice: half the effect.
        assert!((slowness(&double, &n, &n) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn a_reading_measures_every_part_and_the_echo_thread_ends() {
        let mut y = Yardstick::new();
        let r = y.read(&NOMINAL_SIM);
        assert!(r.iter().all(|t| *t > 0.0), "{r:?}");
        assert!(y.echo.is_some(), "loopback must work on the test machine");
        drop(y); // joins the echo thread; a hang here fails the test
    }
}
