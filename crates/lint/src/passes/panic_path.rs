//! Panic-path pass: no `unwrap`/`expect`, panicking macros, or `[...]`
//! indexing in the files that run on the net event-loop and dialer
//! threads.
//!
//! `ReplicaServer`'s loop thread owns all protocol state; a panic there
//! silently kills the replica while its listener keeps accepting — the
//! worst failure mode, because clients see timeouts instead of
//! connection refusals and failover never triggers. The same goes for
//! the client loops, which every binding of a process shares. These
//! files must fail soft: `Option`/`Result` plumbing, `get()` instead of
//! indexing, messages dropped instead of asserted.
//!
//! Deliberate construction-time panics (spawning threads at startup,
//! API-misuse asserts in constructors) carry `lint: allow(panic_path)`
//! waivers with a justification — the point is that every panic site in
//! these files is either impossible on the serving path or explicitly
//! argued for, never incidental.

use std::path::Path;

use super::{parse_one, push_unless_waived};
use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

const PASS: &str = "panic_path";

/// Macros that unconditionally (or on a failed condition) panic.
/// `debug_assert*` is excluded: it compiles out of release servers.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that can directly precede `[` without it being an index
/// expression (slice patterns, array literals in statements).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "let", "in", "if", "while", "match", "return", "else", "mut", "ref", "move", "as", "box",
];

/// Runs the pass over every configured file.
pub fn run(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for rel in cfg.panic_path_files {
        let Some(sf) = parse_one(root, rel) else {
            out.push(Finding {
                pass: PASS,
                file: rel.to_string(),
                line: 0,
                kind: "missing-file",
                detail: rel.to_string(),
                message: "file named in `Config::panic_path_files` does not exist".into(),
            });
            continue;
        };
        check_file(&sf, &mut out);
    }
    out
}

fn check_file(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.in_test_code(i) {
            continue;
        }
        // Only sites inside function bodies are panic *paths*.
        let Some(func) = sf.enclosing_fn(i) else {
            continue;
        };
        let fn_name = func.qual_name.clone();
        let t = &toks[i];

        // `.unwrap()` / `.expect(…)`.
        if t.text == "." {
            if let Some(m) = toks.get(i + 1) {
                if (m.text == "unwrap" || m.text == "expect")
                    && toks.get(i + 2).is_some_and(|t| t.text == "(")
                {
                    let kind = if m.text == "unwrap" {
                        "unwrap"
                    } else {
                        "expect"
                    };
                    push_unless_waived(
                        out,
                        sf,
                        Finding {
                            pass: PASS,
                            file: sf.path.clone(),
                            line: m.line,
                            kind,
                            detail: fn_name.clone(),
                            message: format!(
                                "`.{}()` in `{}`: a panic here kills an event-loop or \
                                 dialer thread; plumb the error instead",
                                m.text, fn_name
                            ),
                        },
                    );
                }
            }
        }

        // Panicking macros: `name!(…)`.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            push_unless_waived(
                out,
                sf,
                Finding {
                    pass: PASS,
                    file: sf.path.clone(),
                    line: t.line,
                    kind: "panic-macro",
                    detail: format!("{}! in {}", t.text, fn_name),
                    message: format!(
                        "`{}!` in `{}`: event-loop and dialer threads must fail soft, \
                         not panic",
                        t.text, fn_name
                    ),
                },
            );
        }

        // Indexing: `[` in postfix position (after an ident, `]`, or `)`).
        if t.text == "[" {
            let Some(prev) = i.checked_sub(1).and_then(|k| toks.get(k)) else {
                continue;
            };
            let postfix = match prev.kind {
                TokKind::Ident => !NON_INDEX_PRECEDERS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.text == "]" || prev.text == ")",
                _ => false,
            };
            if postfix {
                push_unless_waived(
                    out,
                    sf,
                    Finding {
                        pass: PASS,
                        file: sf.path.clone(),
                        line: t.line,
                        kind: "index",
                        detail: fn_name.clone(),
                        message: format!(
                            "`[…]` indexing in `{fn_name}`: out-of-bounds panics the \
                             thread; use `.get()` and handle the miss"
                        ),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/net/src/x.rs", src);
        let mut out = Vec::new();
        check_file(&sf, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_macros_and_indexing() {
        let f = findings(
            "fn pump(v: Vec<u32>, o: Option<u32>) -> u32 {\n\
                 let a = o.unwrap();\n\
                 let b = o.expect(\"present\");\n\
                 if a > b { panic!(\"no\"); }\n\
                 v[0]\n\
             }",
        );
        let kinds: Vec<&str> = f.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["unwrap", "expect", "panic-macro", "index"]);
    }

    #[test]
    fn ignores_literals_attrs_and_test_modules() {
        let f = findings(
            "#[derive(Debug)]\n\
             struct S { x: [u8; 4] }\n\
             fn ok(s: &S) -> &[u8] { let all = &s.x; all }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(v: Vec<u8>) -> u8 { v[0] }\n\
             }",
        );
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn waiver_suppresses_with_justification() {
        let f = findings(
            "fn boot() {\n\
                 // lint: allow(panic_path) — startup, nothing serving yet\n\
                 std::thread::Builder::new().spawn(|| {}).expect(\"spawn\");\n\
             }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn debug_assert_is_allowed() {
        let f = findings("fn inv(a: u32) { debug_assert!(a > 0); }");
        assert!(f.is_empty());
    }
}
