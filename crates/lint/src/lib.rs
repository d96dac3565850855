//! icg-lint — project-specific static analysis for the ICG workspace.
//!
//! Six passes enforce invariants the compiler cannot see but the
//! paper's guarantees depend on (DESIGN.md §11):
//!
//! | pass | invariant |
//! |---|---|
//! | `determinism` | sim-reachable crates take time/randomness only from the engine; no unordered-map iteration |
//! | `panic_path` | net event-loop and binding files never panic — fail soft instead |
//! | `lock_discipline` | no lock-order inversions; no guard held across a blocking call |
//! | `unsafe_audit` | every `unsafe` carries an adjacent `// SAFETY:` argument |
//! | `wire` | every wire-enum variant is encoded, decoded, and property-tested |
//! | `level_lattice` | no `match` over consistency levels enumerates only the builtins — the lattice is open |
//!
//! The engine is a hand-rolled lexer + item scanner ([`lexer`],
//! [`scan`]) — no `syn`, no `rustc` internals — because the workspace
//! builds fully offline. `lock_discipline`, `unsafe_audit` and
//! `level_lattice` scan every crate; the other passes scan the scopes
//! [`config::Config`] names. Passes emit [`diag::Finding`]s, and the CI
//! gate requires zero of them: a site the rule does not fit carries a
//! `// lint: allow(<pass>) — reason` waiver in the source.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;
pub mod unsafety;

use std::path::Path;

use config::Config;
use diag::Finding;

/// Runs every pass over the workspace at `root`, returning all findings
/// sorted by file and line.
pub fn run_all(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(passes::determinism::run(root, cfg));
    out.extend(passes::panic_path::run(root, cfg));
    out.extend(passes::lock_discipline::run(root));
    out.extend(passes::unsafe_audit::run(root));
    out.extend(passes::wire::run(root, cfg));
    out.extend(passes::level_lattice::run(root));
    out.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
    out
}
