//! icg-lint — project-specific static analysis for the ICG workspace.
//!
//! One pass enforces an invariant that neither rustc nor clippy can see
//! but the paper's guarantees depend on (DESIGN.md §11):
//!
//! | pass | invariant |
//! |---|---|
//! | `lock_discipline` | no lock-order inversions; no guard held across a blocking call |
//!
//! Rules the toolchain can check are held there instead. Clippy lints,
//! scoped by attributes at the code they cover, hold determinism
//! (`disallowed_methods`, `iter_over_hash_type`), fail-soft event loops
//! (`unwrap_used`, `indexing_slicing`, `disallowed_macros`, …) and
//! `// SAFETY:` comments (`undocumented_unsafe_blocks`). The compiler
//! keeps consistency levels out of patterns (a level has no structural
//! equality), and `icg-net`'s `prop_wire` test holds that the wire
//! generators build every tag the decoder accepts.
//!
//! The engine is a hand-rolled lexer + function scanner ([`lexer`],
//! [`scan`]) — no `syn`, no `rustc` internals — because the workspace
//! builds fully offline. The pass scans every crate and emits
//! [`diag::Finding`]s, and the CI gate requires zero of them: a site the
//! rule does not fit carries a `// lint: allow(<pass>) — reason` waiver
//! in the source.

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;

use std::path::Path;

use diag::Finding;

/// Runs the pass over the workspace at `root`, returning all findings
/// sorted by file and line.
pub fn run_all(root: &Path) -> Vec<Finding> {
    let mut out = passes::lock_discipline::run(root);
    out.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    out
}
