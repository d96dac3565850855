//! icg-lint — project-specific static analysis for the ICG workspace.
//!
//! Three passes enforce invariants that neither rustc nor clippy can
//! see but the paper's guarantees depend on (DESIGN.md §11):
//!
//! | pass | invariant |
//! |---|---|
//! | `lock_discipline` | no lock-order inversions; no guard held across a blocking call |
//! | `wire` | every wire-enum variant is encoded, decoded, and property-tested |
//! | `level_lattice` | no `match` over consistency levels enumerates only the builtins — the lattice is open |
//!
//! Rules the compiler can check are clippy lints instead, scoped by
//! attributes at the code they cover: determinism (`disallowed_methods`,
//! `iter_over_hash_type`), fail-soft event loops (`unwrap_used`,
//! `indexing_slicing`, `disallowed_macros`, …) and `// SAFETY:`
//! comments (`undocumented_unsafe_blocks`).
//!
//! The engine is a hand-rolled lexer + item scanner ([`lexer`],
//! [`scan`]) — no `syn`, no `rustc` internals — because the workspace
//! builds fully offline. `lock_discipline` and `level_lattice` scan
//! every crate; `wire` reads the files [`config::Config`] names. Passes
//! emit [`diag::Finding`]s, and the CI gate requires zero of them: a
//! site the rule does not fit carries a `// lint: allow(<pass>) —
//! reason` waiver in the source.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;

use std::path::Path;

use config::Config;
use diag::Finding;

/// Runs every pass over the workspace at `root`, returning all findings
/// sorted by file and line.
pub fn run_all(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(passes::lock_discipline::run(root));
    out.extend(passes::wire::run(root, cfg));
    out.extend(passes::level_lattice::run(root));
    out.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    out
}
