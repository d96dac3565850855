//! # ycsb — workload generators for the evaluation harness
//!
//! A faithful port of the parts of the Yahoo! Cloud Serving Benchmark
//! (YCSB) that the paper's evaluation uses: core workloads A (update
//! heavy), B (read mostly), and C (read only), with Uniform, Zipfian,
//! scrambled-Zipfian, and Latest request distributions.
//!
//! ## Example
//!
//! ```
//! use ycsb::{Distribution, Op, Workload};
//!
//! let workload = Workload::a(Distribution::Latest, 1_000);
//! let mut gen = workload.generator(42);
//! let ops: Vec<Op> = (0..4).map(|_| gen.next_op()).collect();
//! assert!(ops.iter().all(|op| op.key() < 1_000));
//! ```

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod dist;
pub mod workload;

pub use dist::{fnv_hash64, seeded_rng, Distribution, KeyChooser, Zipfian, ZIPFIAN_CONSTANT};
pub use workload::{Generator, Op, Workload};
