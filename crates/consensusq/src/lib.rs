//! # consensusq — a ZooKeeper-model coordination service with CZK support
//!
//! The paper's second storage system is a modified Apache ZooKeeper
//! ("Correctable ZooKeeper", CZK) exposing replicated queues. This crate
//! rebuilds the relevant mechanics from scratch on the deterministic
//! simulator:
//!
//! - **Atomic broadcast** ([`server::Server`]): a Zab-style protocol — the
//!   leader sequences transactions, followers acknowledge, commits happen
//!   on majority, every server applies in zxid order, and the origin
//!   server answers its client after applying locally.
//! - **Znode tree** ([`tree::ZnodeTree`]): persistent znodes with
//!   per-parent ordered children and sequential-creation counters — enough
//!   to express ZooKeeper's queue recipe.
//! - **Binding** ([`binding::SimQueue`]): the Correctables binding, and
//!   the one client of the service — every message a client sends is
//!   produced by `QueueClient::start`. CZK's `invoke(dequeue)` is the
//!   fast path: the connected server *simulates* the operation on local
//!   state and leaks the prediction as a preliminary view before Zab
//!   coordination (§5.2); the ticket seller (Listing 5) consumes it.
//! - **Queue recipes** are not here: as in ZooKeeper, a recipe is
//!   client-side composition of API calls, i.e. application code
//!   (`icg_apps::tickets`). The binding offers the two calls they are
//!   made of: [`QueueOp::List`] — vanilla dequeue reads the *whole*
//!   child list and races on deleting the head, so its messages grow
//!   with the queue (Figure 10), where the CZK recipe peeks at a
//!   constant-size head — and [`QueueOp::Remove`].
//!
//! A single Zab epoch is simulated (static leader); the paper's
//! evaluation never fails the leader, and leader re-election is out of
//! reproduced scope (see DESIGN.md §6).

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod binding;
pub mod messages;
pub mod server;
pub mod tree;
pub mod types;

pub use binding::{QueueBinding, QueueOp, QueueView, SimQueue};
pub use messages::{Msg, FRAME_BYTES};
pub use server::{Server, ServerConfig};
pub use tree::{join_path, Znode, ZnodeTree};
pub use types::{seq_of, OpId, ReadCmd, ReadResult, Txn, TxnResult, ZkError, Zxid};
