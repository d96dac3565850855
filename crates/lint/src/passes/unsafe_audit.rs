//! Unsafe-audit pass: every `unsafe` site carries an adjacent
//! `// SAFETY:` comment arguing why it is sound.
//!
//! The comment must *end* on the line of the `unsafe` token or the line
//! directly above — far-away prose doesn't count, because the argument
//! has to survive refactors next to the code it justifies. The same
//! scan feeds the generated `UNSAFETY.md` inventory (see
//! [`crate::unsafety`]).

use std::path::Path;

use super::{all_crates, crate_sources, push_unless_waived};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

const PASS: &str = "unsafe_audit";

/// One `unsafe` occurrence, for findings and the inventory.
pub struct UnsafeSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `unsafe` token.
    pub line: u32,
    /// Enclosing function, or `<item>` for `unsafe fn`/`unsafe impl`.
    pub context: String,
    /// The adjacent SAFETY comment, if any (first line, trimmed).
    pub safety: Option<String>,
}

/// Runs the pass over every crate under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in all_crates(root) {
        for sf in crate_sources(root, &krate) {
            let mut sites = Vec::new();
            collect_file(&sf, &mut sites);
            for site in sites {
                if site.safety.is_none() {
                    push_unless_waived(
                        &mut out,
                        &sf,
                        Finding {
                            pass: PASS,
                            file: site.file.clone(),
                            line: site.line,
                            kind: "missing-safety-comment",
                            detail: site.context.clone(),
                            message: format!(
                                "`unsafe` in `{}` without an adjacent `// SAFETY:` comment; \
                                 state the invariant that makes this sound, next to the code",
                                site.context
                            ),
                        },
                    );
                }
            }
        }
    }
    out
}

/// Collects every `unsafe` site in the crates under `root` (test code
/// excluded), with its SAFETY comment when present — the input to both
/// the findings above and the `UNSAFETY.md` inventory.
pub fn collect_sites(root: &Path) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    for krate in all_crates(root) {
        for sf in crate_sources(root, &krate) {
            collect_file(&sf, &mut sites);
        }
    }
    sites
}

fn collect_file(sf: &SourceFile, sites: &mut Vec<UnsafeSite>) {
    for (i, t) in sf.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" || sf.in_test_code(i) {
            continue;
        }
        let context = sf
            .enclosing_fn(i)
            .map(|f| f.qual_name.clone())
            .unwrap_or_else(|| "<item>".into());
        let safety = sf
            .adjacent_comment(t.line, "SAFETY:")
            .map(first_safety_line);
        sites.push(UnsafeSite {
            file: sf.path.clone(),
            line: t.line,
            context,
            safety,
        });
    }
}

/// The `SAFETY:` line of a comment, markers stripped.
fn first_safety_line(comment: &str) -> String {
    let tail = comment
        .split("SAFETY:")
        .nth(1)
        .unwrap_or(comment)
        .trim_start();
    let line = tail.lines().next().unwrap_or(tail);
    line.trim_end_matches("*/").trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<UnsafeSite> {
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        collect_file(&sf, &mut out);
        out
    }

    #[test]
    fn adjacent_safety_comment_is_found() {
        let s = sites(
            "fn read_it(p: *const u8) -> u8 {\n\
                 // SAFETY: caller guarantees `p` is valid for reads.\n\
                 unsafe { *p }\n\
             }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            s[0].safety.as_deref(),
            Some("caller guarantees `p` is valid for reads.")
        );
        assert_eq!(s[0].context, "read_it");
    }

    #[test]
    fn missing_or_distant_comment_is_a_finding() {
        let s = sites(
            "// SAFETY: too far away to count.\n\
             \n\
             \n\
             fn bad(p: *const u8) -> u8 { unsafe { *p } }",
        );
        assert_eq!(s.len(), 1);
        assert!(s[0].safety.is_none());
    }

    #[test]
    fn same_line_comment_counts() {
        let s = sites("fn f(p: *const u8) -> u8 { unsafe { *p } // SAFETY: valid per caller\n }");
        assert_eq!(s.len(), 1);
        assert!(s[0].safety.is_some());
    }
}
