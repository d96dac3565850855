//! `UNSAFETY.md` — the generated inventory of every `unsafe` site in
//! the workspace, with its SAFETY argument.
//!
//! The file is committed so reviewers can diff the unsafe surface of a
//! PR without re-running anything, and CI regenerates it to make sure
//! the committed copy never goes stale. One table row per site, grouped
//! by file.

use std::fmt::Write as _;
use std::path::Path;

use crate::passes::unsafe_audit::collect_sites;

/// Renders the full inventory document.
pub fn render(root: &Path) -> String {
    let sites = collect_sites(root);
    let mut out = String::from(
        "# UNSAFETY — unsafe-code inventory\n\
         \n\
         Generated by `cargo run -p icg-lint -- unsafety`; do not edit by\n\
         hand. CI regenerates this file and fails if the committed copy is\n\
         stale.\n\
         \n\
         Every `unsafe` site in the audited crates appears here with the\n\
         first line of its adjacent `// SAFETY:` comment. A site without\n\
         one is a `unsafe_audit` lint finding and fails the gate.\n",
    );
    if sites.is_empty() {
        out.push_str("\nNo unsafe code in the audited crates.\n");
        return out;
    }
    let _ = writeln!(out, "\nTotal sites: {}.\n", sites.len());
    let mut current_file = "";
    for site in &sites {
        if site.file != current_file {
            current_file = &site.file;
            let _ = writeln!(out, "## `{}`\n", site.file);
            out.push_str("| line | context | SAFETY argument |\n");
            out.push_str("|---:|---|---|\n");
        }
        let safety = site
            .safety
            .as_deref()
            .unwrap_or("**MISSING — lint finding**");
        let _ = writeln!(
            out,
            "| {} | `{}` | {} |",
            site.line,
            site.context,
            escape_cell(safety)
        );
    }
    out
}

/// Whether the committed `UNSAFETY.md` under `root` matches a fresh
/// render.
pub fn is_current(root: &Path) -> bool {
    std::fs::read_to_string(root.join("UNSAFETY.md")).is_ok_and(|have| have == render(root))
}

fn escape_cell(s: &str) -> String {
    s.replace('|', "\\|")
}
