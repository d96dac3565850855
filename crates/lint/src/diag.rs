//! Lint findings.

use std::fmt;

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// The pass that produced it (`lock_discipline`).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the offending site.
    pub line: u32,
    /// Short machine-ish kind within the pass (`lock-cycle`,
    /// `blocking-under-lock`).
    pub kind: &'static str,
    /// Line-independent detail: usually the enclosing function or the
    /// symbol involved.
    pub detail: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.pass, self.kind, self.message
        )
    }
}
