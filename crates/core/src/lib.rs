//! # correctables — incremental consistency guarantees for replicated objects
//!
//! This crate implements **Correctables**, the abstraction introduced by
//! Guerraoui, Pavlovic, and Seredinschi in *Incremental Consistency
//! Guarantees for Replicated Objects* (OSDI 2016). A [`Correctable`]
//! generalizes a Promise from one future value to a *sequence of
//! incremental views* of an ongoing operation on a replicated object: a
//! fast, weakly consistent **preliminary** view arrives first, stronger
//! views follow, and the strongest requested view **closes** the object
//! (Figure 3 of the paper: *updating → updating* on each preliminary view,
//! *updating → final* on close, *updating → error* on failure).
//!
//! ## The API (§3.2)
//!
//! Applications talk to storage through a [`Client`] over a [`Binding`]:
//!
//! - [`Client::invoke_weak`] — single view at the weakest level;
//! - [`Client::invoke_strong`] — single view at the strongest level;
//! - [`Client::invoke`] — incremental views across all levels (ICG).
//!
//! Bindings implement exactly the paper's two-method storage interface
//! ([`Binding::consistency_levels`] / [`Binding::submit`]) and encapsulate
//! every storage-specific protocol, keeping application code portable.
//! This crate carries no store: the workspace's stores live in crates of
//! their own, each behind its binding (the quickstart example runs a
//! three-replica quorum store on loopback TCP).
//!
//! ## Exploiting ICG
//!
//! - **Speculation** (§4.2): [`Correctable::speculate`] /
//!   [`Correctable::speculate_async`] run dependent work on preliminary
//!   views and confirm (or redo) it when the final view arrives.
//! - **Application semantics** (§4.3): attach callbacks with
//!   [`Correctable::set_callbacks`] and decide dynamically whether to act
//!   on a preliminary view.
//! - **Incremental exposure** (§4.4): re-render on every view.
//!
//! ## Example
//!
//! A binding is the two methods; this one answers every requested level
//! at once, a stale cache first and the primary last.
//!
//! ```
//! use std::time::Duration;
//! use correctables::{Binding, Client, ConsistencyLevel, LevelSet, Upcall};
//!
//! struct Cached;
//!
//! impl Binding for Cached {
//!     type Op = &'static str;
//!     type Val = String;
//!
//!     fn consistency_levels(&self) -> LevelSet {
//!         LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
//!     }
//!
//!     fn submit(&self, key: &'static str, levels: &[ConsistencyLevel], upcall: Upcall<String>) {
//!         for &level in levels {
//!             let from = if level == ConsistencyLevel::WEAK { "cache" } else { "primary" };
//!             upcall.deliver(format!("{key} from the {from}"), level);
//!         }
//!     }
//! }
//!
//! // One invocation, two views: weak first, then strong.
//! let client = Client::new(Cached);
//! let result = client.invoke("user:42:name");
//! let prelim = result.preliminary_views();
//! assert_eq!(prelim.len(), 1);
//! assert_eq!(prelim[0].value, "user:42:name from the cache");
//! let fin = result.wait_final(Duration::from_secs(5)).unwrap();
//! assert_eq!(fin.level, ConsistencyLevel::STRONG);
//! assert_eq!(fin.value, "user:42:name from the primary");
//! ```

// Public API documentation is complete and enforced: CI's lint job runs
// clippy with `-D warnings`, which promotes this to an error.
#![warn(missing_docs)]

pub mod binding;
pub mod client;
pub mod combinators;
pub mod correctable;
pub mod error;
pub mod level;
mod list;
pub mod record;
pub mod spec;
pub mod speculate;
pub mod view;

pub use binding::{Binding, DeliveryObserver, KeyedOp, ObjectId, Upcall};
pub use client::Client;
pub use correctable::{Correctable, Handle, State};
pub use error::{ClosedError, Error};
pub use level::{ConsistencyLevel, LevelError, LevelSelection, LevelSet};
pub use record::{History, HistoryEvent, Invocation, RecordingBinding};
pub use view::View;
