//! # icg-net — Correctables over real sockets
//!
//! Everything else in this workspace exercises the Correctables stack
//! in-process on the deterministic simulator. This crate is the
//! deployment layer: a hand-rolled binary wire codec, a dependency-free
//! epoll reactor, a quorum-store replica server, and a client-side
//! [`Binding`](correctables::Binding) — so the *same*
//! `Client`/`Correctable` code that runs against `simnet` serves real
//! traffic across machines.
//!
//! The crate has four layers, bottom up:
//!
//! - [`wire`] — derive-free [`Wire`] encode/decode for every message and
//!   its component types, generated from one declared layout per type.
//!   No serde; the byte layout is explicit (`DESIGN.md` §10) and
//!   property-tested for round-trip identity and rejection of truncated
//!   or corrupt input. The [`NetMsg`] envelope carries each core's own
//!   messages, one per frame: the quorum store's `Msg` in
//!   `NetMsg::Store` and the spec store's `SpecMsg` in `NetMsg::Spec`,
//!   each byte-identical to the bare message (they share the envelope's
//!   tag space; `DESIGN.md` §10, §13).
//! - [`frame`] — length-prefixed framing with a version byte (every
//!   frame carries [`WIRE_VERSION`], and a reader refuses any other)
//!   and a hard size cap against corrupt length prefixes.
//! - [`reactor`] — the one I/O engine: a hand-rolled epoll reactor
//!   (edge-triggered loops, per-connection state machines,
//!   append-in-place write buffers with backpressure) that every
//!   server and client socket of this crate lives on. No async
//!   runtime, no thread per connection.
//! - [`ReplicaServer`] / [`binding`] / [`spec_binding`] — the replica
//!   (one event loop hosting `quorumstore::ReplicaCore` and, for
//!   the update/causal/strong levels, `specstore::SpecCore` — the
//!   same protocol code the simulator runs, not second
//!   implementations) and the client
//!   bindings ([`TcpBinding`] for the quorum store, [`TcpSpecBinding`]
//!   for spec objects at weak, update, causal and strong), one link
//!   type and one submit path on the client reactor. Both
//!   implement `Binding`, so incremental consistency — preliminary
//!   weak views, update/causal refinement, strong closes, the *CC
//!   confirmation optimization, speculation, recording, the oracle —
//!   works over sockets unchanged.
//!
//! ## When to use this instead of `simnet`
//!
//! Use `simnet` stacks for experiments and regression tests: they are
//! deterministic, virtual-time, and reproduce the paper's topologies
//! bit-for-bit. Use this crate to *deploy*: real latency, real loss,
//! real process boundaries. `OPERATIONS.md` at the repository root is
//! the operator's guide (ports, flags, failure modes); the
//! `icg-replicad` / `icg-loadgen` binaries in `icg_apps` and
//! `scripts/cluster_demo.sh` stand up a cluster in one command.
//!
//! ```no_run
//! use icg_net::{spawn_local_cluster, ServerConfig, TcpBinding, TcpConfig};
//! use correctables::Client;
//! use quorumstore::{Key, StoreOp, Value};
//!
//! // Three replicas on loopback ephemeral ports…
//! let replicas = spawn_local_cluster(3, |_| ServerConfig::default());
//! let addrs = replicas.iter().map(|r| r.addr()).collect();
//! // …and an ordinary Correctables client against them.
//! let client = Client::new(TcpBinding::connect(TcpConfig::new(addrs, 100)).unwrap());
//! let read = client.invoke(StoreOp::Read(Key::plain(7)));
//! let view = read.wait_final(std::time::Duration::from_secs(2)).unwrap();
//! # let _ = view;
//! ```

#![deny(missing_docs)]
// Fail soft (DESIGN.md §11): outside tests, nothing in this crate may
// panic. It serves sockets: a panic kills a replica's or a client's
// thread, and every operation it held is lost without a view or an error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

pub mod binding;
pub mod frame;
mod protocol;
pub mod reactor;
pub mod spec_binding;
pub mod wire;

pub use binding::{TcpBinding, TcpConfig};
pub use frame::{FrameError, MAX_FRAME};
pub use protocol::RegCtrSpec;
pub use reactor::server::{spawn_local_cluster, ReplicaHandle, ReplicaServer, ServerConfig};
pub use reactor::ClientReactor;
pub use spec_binding::{SpecTcpConfig, TcpSpecBinding};
pub use wire::{NetMsg, Reader, SpecOp, Wire, WireError, WIRE_VERSION};
