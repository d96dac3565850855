//! # specstore — one replicated object, four consistency levels, any spec
//!
//! The generalized-lattice stack: a replicated object defined by nothing
//! but a sequential specification ([`correctables::spec::SeqSpec`]),
//! served at four consistency levels in one incremental `invoke`:
//!
//! - **weak** — the op applied to the origin replica's current local
//!   state; wait-free, eventually consistent.
//! - **update** — *update consistency* (Perrin, Mostéfaoui & Jard):
//!   wait-free like weak, but every replica additionally converges to a
//!   **single linearization** of all updates — a total `(lamport ts,
//!   origin, seq)` order that each replica replays through the spec. The
//!   view is the op's return value at its place in that linearization as
//!   currently known; the order (and thus the value) is revised toward
//!   agreement as gossip arrives.
//! - **causal** — *causal consistency for any spec'd object*
//!   (Mostéfaoui, Perrin & Raynal, generalizing the `causalstore`
//!   stack's baked-in store semantics): updates carry vector clocks and
//!   are delivered CBCAST-style; the view closes once at least one peer
//!   replica has causally delivered the update, and reflects exactly the
//!   causally delivered prefix.
//! - **strong** — linearizable without a primary: the view closes once
//!   the op's position in the total order is **stable** (every peer has
//!   acknowledged it and no earlier-timestamped update can still arrive),
//!   so the returned value is final.
//!
//! Internals:
//!
//! - [`replay::ReplayLog`] — the `(ts, origin, seq)`-ordered update log
//!   and the views replayed from it, from prefix-state checkpoints
//!   rather than from the initial state;
//! - [`core::SpecCore`] — the per-replica protocol, sans-IO and generic
//!   over the spec: Lamport log, causal inbox, cumulative ack frontier
//!   (stability), retransmission deadline. The one implementation: the
//!   simulator hosts it ([`host::SpecHost`]) and `icg-net`'s reactor
//!   serves it over TCP, so what the explorer explores is what the
//!   sockets serve; its message-by-message tests live beside it
//!   (`cargo test -p specstore core::`);
//! - [`replica`] — the messages it speaks ([`replica::SpecMsg`]), whose
//!   client half is the envelope every round-robin store shares
//!   (`simnet::ClientMsg`);
//! - [`binding::SimSpecStore`] — the simulated deployment (three
//!   replicas on the paper's EC2 sites plus a client gateway) and its
//!   [`binding::SpecBinding`]: every simulated store's one binding
//!   (`simnet::SimBinding`) over the round-robin gateway, of which
//!   [`binding::UpdateBinding`] and [`binding::CausalSpec`] are slices
//!   with fewer levels.

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
pub mod core;
pub mod host;
pub mod replay;
pub mod replica;

pub use crate::core::SpecCore;
pub use binding::{CausalSpec, SimSpecStore, SpecBinding, UpdateBinding};
pub use causalstore::{CausalInbox, Offer, VectorClock};
pub use replay::{OrderKey, ReplayLog, Update, UpdateId};
pub use replica::SpecMsg;
pub use simnet::{ClientMsg, Wants};
