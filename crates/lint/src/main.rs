//! The `icg-lint` CLI. It lints the workspace it was built in, over the
//! scopes of [`Config::workspace`].
//!
//! ```text
//! icg-lint check      # gate: fail on any finding or a stale UNSAFETY.md
//! icg-lint unsafety   # rewrite UNSAFETY.md from the current tree
//! ```
//!
//! A finding is fixed, or waived at its site with
//! `// lint: allow(<pass>) — reason`. Exit codes: 0 clean, 1 findings (or
//! a stale UNSAFETY.md under `check`), 2 any other argument or a failed
//! write.

use std::path::Path;
use std::process::ExitCode;

use icg_lint::config::Config;
use icg_lint::{run_all, unsafety};

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["check"] => check(&root),
        ["unsafety"] => write_unsafety(&root),
        _ => {
            eprintln!("usage: icg-lint <check|unsafety>");
            ExitCode::from(2)
        }
    }
}

fn check(root: &Path) -> ExitCode {
    let findings = run_all(root, &Config::workspace());
    for f in &findings {
        println!("{f}");
    }
    let current = unsafety::is_current(root);
    if !current {
        println!(
            "icg-lint: UNSAFETY.md is stale; regenerate with `cargo run -p icg-lint -- unsafety`"
        );
    }
    if !findings.is_empty() {
        println!(
            "icg-lint: {} finding(s); fix each or waive it with `// lint: allow(<pass>) — reason`",
            findings.len()
        );
    }
    if !current || !findings.is_empty() {
        return ExitCode::from(1);
    }
    println!("icg-lint: clean (0 findings, UNSAFETY.md current)");
    ExitCode::SUCCESS
}

fn write_unsafety(root: &Path) -> ExitCode {
    if let Err(e) = std::fs::write(root.join("UNSAFETY.md"), unsafety::render(root)) {
        eprintln!("icg-lint: write UNSAFETY.md: {e}");
        return ExitCode::from(2);
    }
    println!("icg-lint: wrote UNSAFETY.md");
    ExitCode::SUCCESS
}
