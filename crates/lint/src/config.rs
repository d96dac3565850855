//! The files the `wire` pass cross-checks.
//!
//! `lock_discipline` and `level_lattice` take no scope: their rules hold
//! in every crate, so they scan every `crates/*/src` tree under the root
//! they are given. The `wire` pass reads one codec and one proptest
//! file; [`Config`] names them, and [`Config::workspace`] is this
//! repository's choice. (The rules that hold only in part of the
//! workspace — determinism, fail-soft — are clippy lints, scoped by
//! attributes in the code they cover; see DESIGN.md §11.)

/// What the `wire` pass reads. Paths are workspace-relative.
#[derive(Debug)]
pub struct Config {
    /// The codec file holding the `wire!` schema.
    pub wire_codec: &'static str,
    /// The proptest file every wire variant must be built in.
    pub wire_proptests: &'static str,
    /// Enum names the wire pass cross-checks.
    pub wire_enums: &'static [&'static str],
}

impl Config {
    /// This workspace's files.
    pub fn workspace() -> Config {
        Config {
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
