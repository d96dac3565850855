//! # quorumstore — a Cassandra-model quorum store with Correctable support
//!
//! The paper evaluates Correctables on a modified Apache Cassandra
//! ("Correctable Cassandra", CC). This crate rebuilds the relevant
//! mechanics from scratch. The protocol is written once, free of any
//! I/O ([`protocol::ReplicaCore`]); the deterministic simulator hosts it
//! here ([`host::SimReplica`]) and `icg-net`'s reactor serves the same
//! code over TCP.
//!
//! - **Replication**: every key on every replica (RF = 3 over the paper's
//!   FRK/IRL/VRG EC2 sites), last-writer-wins versions.
//! - **Coordination**: any replica coordinates; reads gather `R` replies,
//!   writes stamp a version, apply locally, and propagate asynchronously
//!   (`W = 1`), producing the staleness ICG exposes.
//! - **CC** (§5.2): coordinators flush a preliminary response from local
//!   state before gathering the read quorum (Figure 4), at a small extra
//!   coordinator cost.
//! - ***CC**: a final view equal to the preliminary is replaced by a tiny
//!   confirmation message, cutting the bandwidth overhead of ICG.
//! - **Fault handling**: a quorum read adopts the winning version at its
//!   coordinator, asks further peers when the ones it asked stay silent
//!   for a quarter of the operation timeout, and fails at the timeout.
//!
//! There is one way to talk to it: a `correctables::Client` over a
//! binding. Under simulation that is [`binding::SimStore`] — a
//! deployment may have several clients ([`binding::SimStore::client_at`]),
//! which is how the Figure 5–8 harnesses run the paper's one YCSB client
//! per region — and over TCP `icg-net`'s `TcpBinding`. Both are hosts of
//! the one client protocol in [`client`], as both replicas are hosts of
//! [`protocol::ReplicaCore`].

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
pub mod client;
pub mod deadlines;
pub mod host;
pub mod messages;
#[cfg(test)]
mod proptests;
pub mod protocol;
pub mod storage;
pub mod types;

pub use binding::{OpTiming, QuorumBinding, SimStore};
pub use client::{encode_submit, read_kind, ClientOp, StoreOp};
pub use deadlines::{Deadlines, IdMap};
pub use host::{ReplicaConfig, SimReplica};
pub use messages::{FailReason, Msg, Phase, FRAME_BYTES};
pub use protocol::ReplicaCore;
pub use storage::LocalStore;
pub use types::{Key, OpId, ReadKind, Value, Version, Versioned};
