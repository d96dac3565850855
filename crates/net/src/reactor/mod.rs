//! icg-net's one I/O engine: a dependency-free `epoll` reactor.
//!
//! A thread pair per socket is a wall at production connection counts —
//! 10k clients would mean 20k threads on each replica. Every socket of
//! this crate instead lives on one of a small number of event-loop
//! threads, each owning an `epoll` instance and a set of connections
//! outright:
//!
//! - `sys` — the raw `epoll`/`eventfd` syscalls (hand-declared FFI;
//!   the workspace builds offline, so no `libc` crate) behind safe
//!   `Poller`/`WakeFd` wrappers.
//! - `conn` — the per-connection state machine: an edge-triggered
//!   drain-to-`WouldBlock` read path whose buffer the `Wire` codec
//!   decodes from zero-copy (its spare room zeroed once, not per
//!   read), and one capped, contiguous write buffer that frames are
//!   encoded onto and that a plain `write` flushes.
//! - `event_loop` — the loop itself: readiness dispatch, a
//!   cross-thread command `Injector` whose wake-ups coalesce, and the
//!   `Handler` trait protocols implement to live on a loop.
//! - [`backoff`] — bounded exponential backoff with deterministic
//!   jitter for the replica's peer dialer threads, which feed its loop
//!   reconnections.
//! - `server` / [`client`] — what runs on the loops: the whole replica
//!   (`ReplicaServer`, its one protocol loop and its peer dialers), and
//!   the client handler with its table of links, one per `TcpBinding`
//!   or `TcpSpecBinding`, the same kind for both.

pub mod backoff;
pub mod client;
pub(crate) mod conn;
pub(crate) mod event_loop;
pub(crate) mod server;
// The crate's only `unsafe`: the hand-declared FFI. Every block states
// why it is sound in a `// SAFETY:` comment (icg-net's Cargo.toml denies
// `clippy::undocumented_unsafe_blocks` and `unsafe_op_in_unsafe_fn`).
#[allow(unsafe_code)]
pub(crate) mod sys;

pub use backoff::Backoff;
pub use client::ClientReactor;
