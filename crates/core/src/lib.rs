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
//! ```
//! use std::time::Duration;
//! use correctables::local::{Delays, LocalCluster, LocalOp};
//! use correctables::{Client, ConsistencyLevel};
//!
//! // A two-replica threaded toy cluster (weak reads may be stale).
//! let cluster = LocalCluster::new(Delays::default());
//! cluster.seed("user:42:name", "Ada");
//! let client = Client::new(cluster.binding());
//!
//! // One invocation, two views: weak now, strong later.
//! let result = client.invoke(LocalOp::Get("user:42:name".into()));
//! let prelim = result.wait_any(Duration::from_secs(5)).unwrap();
//! assert_eq!(prelim.value.as_deref(), Some("Ada"));
//! let fin = result.wait_final(Duration::from_secs(5)).unwrap();
//! assert_eq!(fin.level, ConsistencyLevel::STRONG);
//! ```

// Public API documentation is complete and enforced: CI's lint job runs
// clippy with `-D warnings`, which promotes this to an error.
#![warn(missing_docs)]

pub mod binding;
pub mod client;
pub mod combinators;
pub mod correctable;
pub mod error;
pub mod inline;
pub mod level;
pub mod local;
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
