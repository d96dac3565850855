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
//! Drive it either with the closed-loop YCSB clients
//! ([`client::WorkloadClient`], used by the Figure 5–8 harnesses) or
//! through the Correctables [`binding::SimStore`] binding (used by the
//! examples and the case studies).

pub mod binding;
pub mod client;
pub mod cluster;
pub mod deadlines;
pub mod host;
pub mod messages;
#[cfg(test)]
mod proptests;
pub mod protocol;
pub mod storage;
pub mod types;

pub use binding::{encode_submit, OpTiming, QuorumBinding, SimStore, StoreOp};
pub use client::{ClientMetrics, SystemConfig, WorkloadClient, KICKOFF};
pub use cluster::Cluster;
pub use deadlines::{Deadlines, IdMap};
pub use host::{ReplicaConfig, SimReplica};
pub use messages::{FailReason, Msg, Phase, FRAME_BYTES};
pub use protocol::{Egress, ReplicaCore};
pub use storage::LocalStore;
pub use types::{Key, OpId, ReadKind, Value, Version, Versioned};
