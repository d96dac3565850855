//! Level-lattice pass: a `match` over consistency levels must not
//! enumerate only the builtin levels.
//!
//! The lattice is open by design (DESIGN.md §13): `ConsistencyLevel`
//! is a plain value, not a closed enum, and bindings define levels
//! beyond the builtins as constants (`ConsistencyLevel::new`; the
//! blockchain's confirmation depths). Nothing in the type system stops
//! code from writing
//!
//! ```text
//! match level {
//!     ConsistencyLevel::WEAK => …,
//!     ConsistencyLevel::STRONG => …,
//! }
//! ```
//!
//! — or to satisfy the compiler with `_ => unreachable!()`, a
//! "can't happen" fallback that a binding's own level promptly
//! reaches. This pass flags any match whose arms name builtin level
//! constants (`CACHE`/`WEAK`/`UPDATE`/`CAUSAL`/`STRONG`, bare or
//! `ConsistencyLevel::`-qualified) without a single arm that can
//! *usefully* receive a non-builtin level: a binding, a `_`, a guard,
//! or a custom-level constant — where a fallback whose body goes
//! straight to `unreachable!`/`panic!`/`todo!`/`unimplemented!` does
//! not count. Rank queries (`rank()`, `at_least()`,
//! `weakest()`/`strongest()`) are the lattice-correct alternative and
//! never trip the pass.

use std::path::Path;

use super::{all_crates, crate_sources, push_unless_waived};
use crate::diag::Finding;
use crate::lexer::{TokKind, Token};
use crate::scan::SourceFile;

const PASS: &str = "level_lattice";

/// The builtin level constants; naming one in a pattern marks the
/// match as a match over consistency levels.
const BUILTINS: &[&str] = &["CACHE", "WEAK", "UPDATE", "CAUSAL", "STRONG"];

/// Runs the pass over every crate under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in all_crates(root) {
        for sf in crate_sources(root, &krate) {
            check_file(&sf, &mut out);
        }
    }
    out
}

fn check_file(sf: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "match" {
            continue;
        }
        let Some(open) = find_body_open(toks, i + 1) else {
            continue;
        };
        let arms = parse_arms(toks, open);
        if arms.is_empty() {
            continue;
        }
        let names_builtin = arms
            .iter()
            .any(|a| mentions_builtin_level(toks, a.pat.clone()));
        if !names_builtin {
            continue;
        }
        let has_open_arm = arms
            .iter()
            .any(|a| is_open_arm(toks, a.pat.clone()) && !panics_immediately(toks, a.body));
        if has_open_arm {
            continue;
        }
        let f = Finding {
            pass: PASS,
            file: sf.path.clone(),
            line: t.line,
            kind: "closed-level-match",
            detail: format!("line {}", t.line),
            message: "match over ConsistencyLevel enumerates only builtin levels; \
                      the lattice is open — handle a binding's own levels with a \
                      binding/`_` arm or use rank queries (`rank()`, `at_least`)"
                .into(),
        };
        push_unless_waived(out, sf, f);
    }
}

/// Finds the `{` opening the match body: the first brace at bracket
/// depth zero after the scrutinee (struct literals are not legal in a
/// bare match scrutinee, so any earlier brace sits inside `(...)` or
/// `[...]`).
fn find_body_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None, // not a match expression after all
            _ => {}
        }
    }
    None
}

/// One match arm: its pattern token range (everything before the `=>`,
/// including any `if` guard) and where its body starts.
struct Arm {
    pat: std::ops::Range<usize>,
    body: usize,
}

/// Splits the match body at `open` into arms.
fn parse_arms(toks: &[Token], open: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct && toks[i].text == "}" {
            break; // end of the match body
        }
        // Pattern: up to `=>` at this arm's own bracket depth.
        let pat_start = i;
        let mut depth = 0i32;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        if depth == 0 {
                            return arms; // unbalanced; degrade quietly
                        }
                        depth -= 1;
                    }
                    "=" if depth == 0 && toks.get(i + 1).is_some_and(|n| n.text == ">") => {
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if i >= toks.len() {
            break;
        }
        arms.push(Arm {
            pat: pat_start..i,
            body: i + 2,
        });
        i += 2; // past `=>`
        i = skip_arm_body(toks, i);
    }
    arms
}

/// Whether an arm body goes straight to a panic-family macro — a
/// fallback in letter only, still assuming the builtin set is closed.
fn panics_immediately(toks: &[Token], body: usize) -> bool {
    let mut j = body;
    // Skip a block opener: `=> { unreachable!(…) }`.
    if toks.get(j).is_some_and(|t| t.text == "{") {
        j += 1;
    }
    toks.get(j).is_some_and(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
    }) && toks.get(j + 1).is_some_and(|t| t.text == "!")
}

/// Advances past one arm body, returning the index after it. A body
/// that *is* a braced block ends at its closing brace (trailing comma
/// optional); any other body is an expression running to the next
/// comma at bracket depth zero — braces inside it (struct literals,
/// `if`/`match` expressions) are balanced, not terminators.
fn skip_arm_body(toks: &[Token], mut i: usize) -> usize {
    let block_body = toks
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == "{");
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    if depth == 0 {
                        return i; // the match's own close; leave it
                    }
                    depth -= 1;
                    if depth == 0 && block_body {
                        // The arm's block just closed; eat a trailing comma.
                        if toks.get(i + 1).is_some_and(|n| n.text == ",") {
                            return i + 2;
                        }
                        return i + 1;
                    }
                }
                "," if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Whether the pattern names a builtin level constant, bare (`WEAK`)
/// or qualified (`ConsistencyLevel::WEAK`).
fn mentions_builtin_level(toks: &[Token], range: std::ops::Range<usize>) -> bool {
    range.clone().any(|j| {
        let t = &toks[j];
        t.kind == TokKind::Ident && BUILTINS.contains(&t.text.as_str())
    })
}

/// Whether the arm can receive a level that is not a builtin constant:
/// a wildcard, a binding, a guard, or a custom (non-builtin) level
/// constant.
fn is_open_arm(toks: &[Token], range: std::ops::Range<usize>) -> bool {
    for j in range {
        let t = &toks[j];
        match t.kind {
            TokKind::Ident if t.text == "_" => return true,
            TokKind::Ident if t.text == "if" => return true, // guard
            TokKind::Ident => {
                let qualified_elsewhere = toks
                    .get(j + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == ":");
                let first = t.text.chars().next().unwrap_or('_');
                if first.is_ascii_lowercase() && !qualified_elsewhere {
                    return true; // a binding such as `other`
                }
                // An UPPER_CASE constant that is not a builtin level:
                // a custom level the arm handles explicitly.
                let path_tail = j >= 2
                    && toks.get(j - 1).is_some_and(|p| p.text == ":")
                    && toks.get(j - 2).is_some_and(|p| p.text == ":");
                if path_tail
                    && first.is_ascii_uppercase()
                    && t.text.chars().all(|c| c == '_' || c.is_ascii_uppercase())
                    && !BUILTINS.contains(&t.text.as_str())
                    && !qualified_elsewhere
                {
                    return true;
                }
            }
            TokKind::Punct if t.text == "_" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("lib.rs", src);
        let mut out = Vec::new();
        check_file(&sf, &mut out);
        out
    }

    #[test]
    fn closed_builtin_match_is_flagged() {
        let src = "
            fn f(l: ConsistencyLevel) -> u8 {
                match l {
                    ConsistencyLevel::WEAK => 0,
                    ConsistencyLevel::STRONG => 1,
                }
            }
        ";
        let out = findings(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, "closed-level-match");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn wildcard_binding_and_guard_arms_are_open() {
        for tail in [
            "_ => 2,",
            "other => other.rank(),",
            "l if l.rank() > 20 => 2,",
        ] {
            let src = format!(
                "fn f(l: ConsistencyLevel) -> u8 {{
                     match l {{ ConsistencyLevel::WEAK => 0, {tail} }}
                 }}"
            );
            assert!(findings(&src).is_empty(), "arm `{tail}` should be open");
        }
    }

    #[test]
    fn custom_level_constant_counts_as_open() {
        let src = "
            fn f(l: ConsistencyLevel) -> u8 {
                match l { levels::WEAK => 0, levels::AUDIT => 1 }
            }
        ";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn panicking_fallback_is_still_closed() {
        for body in ["unreachable!(\"no\")", "panic!(\"no\")", "{ todo!() }"] {
            let src = format!(
                "fn f(l: ConsistencyLevel) -> u8 {{
                     match l {{
                         ConsistencyLevel::WEAK => 0,
                         ConsistencyLevel::STRONG => 1,
                         _ => {body},
                     }}
                 }}"
            );
            let out = findings(&src);
            assert_eq!(out.len(), 1, "fallback `{body}` is closed in spirit");
        }
    }

    #[test]
    fn bare_imported_constants_are_still_level_matches() {
        let src = "
            fn f(l: ConsistencyLevel) -> u8 {
                match l { WEAK => 0, STRONG => 1 }
            }
        ";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn unrelated_matches_are_ignored() {
        let src = "
            fn f(x: Option<u8>) -> u8 {
                match x { Some(v) => v, None => 0 }
            }
            fn g(m: Msg) { match m { Msg::Ping => {} Msg::Pong => {} } }
        ";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn nested_match_in_an_arm_body_is_scanned() {
        let src = "
            fn f(l: ConsistencyLevel, x: Option<u8>) -> u8 {
                match x {
                    Some(_) => match l {
                        ConsistencyLevel::WEAK => 0,
                        ConsistencyLevel::STRONG => 1,
                    },
                    None => 0,
                }
            }
        ";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn waiver_suppresses_the_finding() {
        let src = "
            fn f(l: ConsistencyLevel) -> u8 {
                // lint: allow(level_lattice) — builtin-only by construction
                match l {
                    ConsistencyLevel::WEAK => 0,
                    ConsistencyLevel::STRONG => 1,
                }
            }
        ";
        assert!(findings(src).is_empty());
    }
}
