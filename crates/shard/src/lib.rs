//! # icg-shard — a sharded multi-object routing layer for Correctables
//!
//! Every binding in this workspace serves exactly one replicated object
//! (one register, one queue, one timeline). This crate turns several such
//! single-object [`Binding`](correctables::Binding)s into one
//! multi-object store while preserving the incremental-consistency
//! pipeline of each shard:
//!
//! - [`HashRing`] — a consistent-hash ring with virtual nodes mapping
//!   [`ObjectId`](correctables::ObjectId) keys to shards. Vnode placement
//!   is a deterministic function of `(seed, shard index)` drawn from the
//!   vendored xoshiro RNG, so two rings built with the same parameters
//!   are identical.
//! - [`ShardedBinding`] — implements `Binding` itself: each keyed op is
//!   routed, on the caller thread, to the owning shard's inner binding
//!   and that shard's per-level `Upcall` deliveries are re-emitted
//!   unchanged, so a client sees exactly the ICG semantics of the shard
//!   that served it. A [`scatter`](ShardedBinding::scatter) invocation
//!   fans one multi-get out across shards and merges the views with
//!   core's weakest-common-level join,
//!   [`Correctable::gather`](correctables::Correctable::gather):
//!   intermediate views surface at the weakest level every touched shard
//!   has reached, and the Correctable closes only when every shard has
//!   delivered its strongest view. [`ShardedBinding::settle`] drives
//!   simulated shards until the whole fleet is quiescent.
//!
//! The per-level delivery discipline each shard keeps is the same one
//! update-consistency work relies on for convergence across partitions;
//! the router never reorders or synthesizes views, it only routes them,
//! and the aggregation rule lives in `correctables`, once.

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Public API documentation is complete and enforced: CI's lint job runs
// clippy with `-D warnings`, which promotes this to an error.
#![warn(missing_docs)]

pub mod ring;
pub mod router;

pub use ring::HashRing;
pub use router::ShardedBinding;
