//! # icg-oracle — history-recording consistency oracle
//!
//! The paper's value proposition rests on guarantees this workspace
//! previously asserted only in hand-picked scenarios: preliminary views
//! never regress in consistency level, weak views converge to the
//! strong view, and the strongest view closes exactly once and is
//! linearizable. This crate checks those guarantees **mechanically**
//! over recorded histories, against every binding, under randomized
//! fault schedules:
//!
//! - [`checkers`] — view **monotonicity** and quiescent **convergence**
//!   over [`correctables::History`] snapshots, **update consistency**
//!   over replica logs, **strong eventual consistency** of the CRDT
//!   stacks (eventual visibility, effect commutativity, convergence),
//!   and the escrow **no-oversell** invariant;
//! - [`lin`] + [`spec`] — **linearizability** of strong views (Wing &
//!   Gong search with memoization and maybe-applied crashed ops)
//!   against pluggable sequential specs (register, counter, queue,
//!   revisioned KV);
//! - [`explorer`] — the seeded **fault-schedule explorer**: one seed
//!   derives a fault schedule (partitions, downtime, drops) and a
//!   concurrent workload, drives a full simulated stack, runs every
//!   checker, and shrinks failures to a minimal reproducible
//!   `(seed, schedule)` pair;
//! - [`buggy`] — a deliberately broken binding proving the checkers
//!   actually reject.
//!
//! Bugs this oracle already caught (fixed in their crates, regression
//! tests left behind): the *CC confirmation fabricating an absent
//! strong view when the preliminary was lost
//! (`quorumstore/tests/confirm_fault.rs`), and causal backups stalling
//! forever after a lost replication message
//! (`causalstore::store` anti-entropy).

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod buggy;
pub mod checkers;
pub mod explorer;
pub mod lin;
/// Sequential specifications (re-exported from `correctables::spec`, where
/// the spec-driven bindings also build on them).
pub mod spec {
    pub use correctables::spec::*;
}

pub use buggy::LaggyMem;
pub use checkers::{
    check_convergence, check_escrow, check_monotonicity, check_sec, check_update_consistency,
    Violation, ViolationKind,
};
pub use explorer::{explore, replay, ExplorerConfig, FailureReport, RunSummary, StackKind};
pub use lin::{check_linearizable, LinEntry, LinOutcome, LinViolation};
pub use spec::{
    CounterSpec, CtrOp, KvStoreSpec, KvsOp, QOp, QRet, QueueSpec, QueueState, RegOp, RegisterSpec,
    SeqSpec,
};
