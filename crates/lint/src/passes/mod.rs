//! The project-specific pass.
//!
//! `lock_discipline` loads every crate's source files, walks their
//! token streams, and emits [`Finding`]s. Findings on a line carrying a
//! `// lint: allow(<pass>)` waiver comment (same line or directly
//! above) are suppressed at emission; every other finding fails the
//! gate.

pub mod lock_discipline;

use std::path::Path;

use crate::diag::Finding;
use crate::lexer::{TokKind, Token};
use crate::scan::SourceFile;

/// Emits `f` unless the site carries a waiver comment for its pass.
pub(crate) fn push_unless_waived(out: &mut Vec<Finding>, sf: &SourceFile, f: Finding) {
    if !sf.waived(f.line, f.pass) {
        out.push(f);
    }
}

/// Every crate under `root/crates/` with a `src/` tree, sorted by name.
pub(crate) fn all_crates(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = (std::fs::read_dir(root.join("crates")).into_iter().flatten())
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    names
}

/// The source files of one crate's `src/` tree.
pub(crate) fn crate_sources(root: &Path, krate: &str) -> Vec<SourceFile> {
    crate::scan::parse_tree(root, &root.join("crates").join(krate).join("src"))
}

/// The receiver chain ending at the `.` token at `dot` — e.g. for
/// `self.inner.shared.lock()` with `dot` at the last `.`, returns
/// `inner.shared` (leading `self` stripped). `None` when the receiver
/// is not a plain ident chain (a call or index result).
pub(crate) fn receiver_chain(tokens: &[Token], dot: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot;
    loop {
        // Expect an ident directly before the current `.`.
        let prev = j.checked_sub(1)?;
        let t = tokens.get(prev)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        parts.push(&t.text);
        // Another link (`ident .`) before it?
        match prev.checked_sub(1).and_then(|k| tokens.get(k)) {
            Some(d) if d.text == "." => j = prev - 1,
            _ => break,
        }
    }
    parts.reverse();
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("."))
    }
}
