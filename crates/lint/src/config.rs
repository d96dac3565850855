//! The scopes of the passes that watch a chosen part of the workspace.
//!
//! `lock_discipline`, `unsafe_audit` and `level_lattice` take no scope:
//! their rules hold in every crate, so they scan every `crates/*/src`
//! tree under the root they are given. The other three passes hold
//! rules that only some code must keep; [`Config`] names that code, and
//! [`Config::workspace`] is this repository's choice, each list with the
//! reason it is what it is.

/// What the scoped passes scan. Paths are workspace-relative; crates
/// are directory names under `crates/`.
#[derive(Debug)]
pub struct Config {
    /// Crates whose `src/` trees the determinism pass scans.
    pub determinism_crates: &'static [&'static str],
    /// Single files the determinism pass scans: determinism islands
    /// inside otherwise wall-clock-bound crates.
    pub determinism_files: &'static [&'static str],
    /// Files the panic-path pass scans.
    pub panic_path_files: &'static [&'static str],
    /// The codec file holding the `wire!` schema.
    pub wire_codec: &'static str,
    /// The proptest file every wire variant must be built in.
    pub wire_proptests: &'static str,
    /// Enum names the wire pass cross-checks.
    pub wire_enums: &'static [&'static str],
}

impl Config {
    /// This workspace's scopes.
    pub fn workspace() -> Config {
        Config {
            // Crates reachable from simulated executions: a wall-clock
            // read, ambient RNG or unordered-map iteration here breaks
            // the (seed, schedule) replay of explorer repros.
            determinism_crates: &[
                "simnet",
                "oracle",
                "quorumstore",
                "causalstore",
                "consensusq",
                "crdt",
                "specstore",
                "blockchain",
                "shard",
                "ycsb",
            ],
            // The reconnect backoff must produce the same jitter sequence
            // for the same seed (its tests inject a fake sleeper and
            // assert the schedule).
            determinism_files: &["crates/net/src/reactor/backoff.rs"],
            // Files whose threads must fail soft: a panic here kills a
            // replica while its listener keeps accepting, or wedges every
            // binding that shares the loop. That is the whole epoll
            // reactor, the protocol cores (both halves, hosted by simnet
            // too) with the spec log replay `SpecCore` runs, both client
            // bindings' loop-side state, the CRDT type/object layer
            // (merge and effect run in every replica's handler on
            // remote input) and the deadline rule every simulated
            // replica arms its retry through.
            panic_path_files: &[
                "crates/crdt/src/types.rs",
                "crates/crdt/src/object.rs",
                "crates/simnet/src/host.rs",
                "crates/quorumstore/src/protocol.rs",
                "crates/quorumstore/src/client.rs",
                "crates/quorumstore/src/deadlines.rs",
                "crates/specstore/src/core.rs",
                "crates/specstore/src/replay.rs",
                "crates/net/src/binding.rs",
                "crates/net/src/spec_binding.rs",
                "crates/net/src/protocol.rs",
                "crates/net/src/reactor/backoff.rs",
                "crates/net/src/reactor/client.rs",
                "crates/net/src/reactor/conn.rs",
                "crates/net/src/reactor/event_loop.rs",
                "crates/net/src/reactor/server.rs",
                "crates/net/src/reactor/sys.rs",
            ],
            // Every wire enum is declared in the codec's `wire!` schema,
            // and every variant of it is built by the wire property tests.
            wire_codec: "crates/net/src/wire.rs",
            wire_proptests: "crates/net/tests/prop_wire.rs",
            wire_enums: &[
                "NetMsg",
                "Msg",
                "Value",
                "ReadKind",
                "Phase",
                "FailReason",
                "SpecOp",
                "RegOp",
                "CtrOp",
            ],
        }
    }
}
