//! # icg — Incremental Consistency Guarantees for Replicated Objects
//!
//! A from-scratch Rust reproduction of Guerraoui, Pavlovic, and
//! Seredinschi, *Incremental Consistency Guarantees for Replicated
//! Objects* (OSDI 2016): the **Correctables** abstraction, the storage
//! substrates it was evaluated on (a Cassandra-model quorum store, a
//! ZooKeeper-model coordination service, a cached causal store), the YCSB
//! workloads, the three case-study applications, and a harness
//! regenerating every figure of the paper's evaluation.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! - [`correctables`] — the abstraction (Correctable, speculate, bindings);
//! - [`simnet`] — the deterministic discrete-event WAN simulator;
//! - [`quorumstore`] — Correctable Cassandra (CC, *CC);
//! - [`consensusq`] — Correctable ZooKeeper (CZK) and replicated queues;
//! - [`causalstore`] — causal replication with a client cache;
//! - [`specstore`] — the spec-generic weak/update/causal/strong store;
//! - [`crdt`] — coordination-free CRDT bindings (GCounter/PN, OR-Set,
//!   LWW-Map), SEC-checkable replication, escrow-segmented tickets;
//! - [`shard`] — the sharded multi-object routing layer;
//! - [`net`] — the TCP wire codec, epoll reactor, replica server, and
//!   client bindings serving the quorum and spec stores over real sockets;
//! - [`oracle`] — the history-recording consistency oracle
//!   and seeded fault-schedule explorer;
//! - [`ycsb`] — workload generators;
//! - [`blockchain`] — confirmation-depth views (§4.5's multi-view case);
//! - [`apps`] — ads, Twissandra, tickets, news reader.
//!
//! [`sharded`] assembles the routing layer with the simulated substrates:
//! ready-made multi-shard SimStore / SimCausal stacks.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub mod sharded;

pub use blockchain;
pub use causalstore;
pub use consensusq;
pub use correctables;
pub use icg_apps as apps;
pub use icg_crdt as crdt;
pub use icg_net as net;
pub use icg_oracle as oracle;
pub use icg_shard as shard;
pub use quorumstore;
pub use simnet;
pub use specstore;
pub use ycsb;
