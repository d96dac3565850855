//! The `icg-lint` CLI. It lints the workspace it was built in.
//!
//! ```text
//! icg-lint check      # gate: fail on any finding
//! ```
//!
//! A finding is fixed, or waived at its site with
//! `// lint: allow(<pass>) — reason`. Exit codes: 0 clean, 1 findings,
//! 2 any other argument.

use std::path::Path;
use std::process::ExitCode;

use icg_lint::run_all;

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        eprintln!("usage: icg-lint check");
        return ExitCode::from(2);
    }
    let findings = run_all(&root);
    for f in &findings {
        println!("{f}");
    }
    if !findings.is_empty() {
        println!(
            "icg-lint: {} finding(s); fix each or waive it with `// lint: allow(<pass>) — reason`",
            findings.len()
        );
        return ExitCode::from(1);
    }
    println!("icg-lint: clean (0 findings)");
    ExitCode::SUCCESS
}
