//! # blockchain — transaction confirmations as incremental views (§4.5)
//!
//! The paper names blockchain applications as a prime use case for *many*
//! incremental views: "Correctables can track transaction confirmations
//! as they accumulate and eventually the transaction becomes an
//! irrevocable part of the blockchain" — a use case the authors
//! implemented but omitted for space. This crate supplies it: a
//! longest-chain network simulator ([`network::Miner`] over exponential
//! block intervals, with natural forks and reorgs) and a Correctables
//! binding ([`binding::SimChain`]) whose consistency levels are the
//! confirmation depths `conf-1` … `conf-6`.

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod binding;
pub mod chain;
pub mod network;

pub use binding::{conf_level, ChainBinding, SimChain, TxStatus, FINAL_DEPTH};
pub use chain::{Block, BlockId, Chain, TxId};
pub use network::{Miner, Msg};
