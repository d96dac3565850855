//! # causalstore — causal replication with a client cache
//!
//! The third storage stack of the paper (§5.2, "Causal Consistency and
//! Caching"): a causally consistent replicated store complemented by a
//! client-side cache, exposed through a three-level Correctables binding
//! (`Cache` / `Causal` / `Strong`). This powers the §4.4 smartphone news
//! reader (Listing 6): one `invoke` yields an instant cached view, a
//! fresher causal view from the nearest backup, and the authoritative
//! view from the distant primary.
//!
//! Internals:
//!
//! - [`vc::VectorClock`] — causal stamps with the CBCAST delivery rule,
//!   [`vc::CausalInbox`] and [`vc::AckFrontier`] — the receiving and
//!   sending halves of a causal broadcast, shared with `specstore`,
//!   `crdt` and `icg-net`;
//! - [`store::CausalReplica`] — primary-backup replicas that buffer
//!   out-of-order updates until their causal dependencies arrive;
//! - [`binding::SimCausal`] — the deployment plus write-through cache
//!   coherence (replacing the hand-rolled cache juggling of Listing 1).

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Fail soft (DESIGN.md §11): outside tests, nothing in this crate may
// panic. It serves sockets: a panic kills a replica's or a client's
// thread, and every operation it held is lost without a view or an error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

pub mod binding;
pub mod store;
pub mod vc;

pub use binding::{CacheOp, CausalBinding, LevelTiming, SimCausal};
pub use store::{CausalReplica, Item, Msg, OpId};
pub use vc::{AckFrontier, CausalInbox, Causality, Offer, VectorClock};
