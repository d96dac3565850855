//! Determinism pass: no wall-clock time, ambient randomness, or
//! unordered-map iteration in sim-reachable crates.
//!
//! The explorer's `(seed, schedule)` repro pairs (DESIGN.md §8) replay a
//! run by re-executing it; any dependence on `Instant::now`,
//! `SystemTime::now`, a thread-local RNG, or the per-process SipHash
//! seed of `HashMap` iteration order makes the replay diverge from the
//! recorded failure. Simulated code must take time from the sim clock
//! and randomness from the seeded engine RNG, and iterate only ordered
//! containers (or sort first).

use std::collections::BTreeSet;
use std::path::Path;

use super::{crate_sources, is_path2, parse_one, push_unless_waived};
use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

const PASS: &str = "determinism";

/// Ambient-randomness entry points of the vendored `rand` shim.
const AMBIENT_RNG: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Iteration methods whose order is the hasher's, not the program's.
const ORDER_SENSITIVE: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Runs the pass over every configured crate.
pub fn run(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in cfg.determinism_crates {
        for sf in crate_sources(root, krate) {
            check_file(&sf, &mut out);
        }
    }
    for rel in cfg.determinism_files {
        let Some(sf) = parse_one(root, rel) else {
            out.push(Finding {
                pass: PASS,
                file: rel.to_string(),
                line: 0,
                kind: "missing-file",
                detail: rel.to_string(),
                message: "file named in `Config::determinism_files` does not exist".into(),
            });
            continue;
        };
        check_file(&sf, &mut out);
    }
    out
}

fn check_file(sf: &SourceFile, out: &mut Vec<Finding>) {
    let maps = unordered_map_names(sf);
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        if sf.in_test_code(i) {
            continue;
        }
        let in_fn = |idx: usize| {
            sf.enclosing_fn(idx)
                .map(|f| f.qual_name.clone())
                .unwrap_or_else(|| "<module>".into())
        };
        // Wall-clock reads.
        for ty in ["Instant", "SystemTime"] {
            if is_path2(toks, i, ty, "now") {
                push_unless_waived(
                    out,
                    sf,
                    Finding {
                        pass: PASS,
                        file: sf.path.clone(),
                        line: toks[i].line,
                        kind: "wall-clock",
                        detail: format!("{}::now in {}", ty, in_fn(i)),
                        message: format!(
                            "`{ty}::now()` in sim-reachable code; take time from the sim \
                             clock so (seed, schedule) repros replay identically"
                        ),
                    },
                );
            }
        }
        // Ambient randomness.
        if toks[i].kind == TokKind::Ident && AMBIENT_RNG.contains(&toks[i].text.as_str()) {
            push_unless_waived(
                out,
                sf,
                Finding {
                    pass: PASS,
                    file: sf.path.clone(),
                    line: toks[i].line,
                    kind: "ambient-rng",
                    detail: format!("{} in {}", toks[i].text, in_fn(i)),
                    message: format!(
                        "`{}` in sim-reachable code; draw from the seeded engine RNG instead",
                        toks[i].text
                    ),
                },
            );
        }
        // Iteration over a HashMap/HashSet-typed name.
        if toks[i].text == "." {
            if let Some(m) = toks.get(i + 1) {
                if m.kind == TokKind::Ident
                    && ORDER_SENSITIVE.contains(&m.text.as_str())
                    && toks.get(i + 2).is_some_and(|t| t.text == "(")
                {
                    if let Some(prev) = i.checked_sub(1).and_then(|k| toks.get(k)) {
                        if prev.kind == TokKind::Ident && maps.contains(prev.text.as_str()) {
                            emit_iteration(sf, out, toks[i].line, &prev.text, &m.text, &in_fn(i));
                        }
                    }
                }
            }
        }
        // `for pat in [&[mut]] name {` over a map-typed name.
        if toks[i].kind == TokKind::Ident && toks[i].text == "in" {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            let (Some(name), Some(open)) = (toks.get(j), toks.get(j + 1)) else {
                continue;
            };
            if name.kind == TokKind::Ident && maps.contains(name.text.as_str()) && open.text == "{"
            {
                emit_iteration(sf, out, toks[i].line, &name.text, "for-loop", &in_fn(i));
            }
        }
    }
}

fn emit_iteration(
    sf: &SourceFile,
    out: &mut Vec<Finding>,
    line: u32,
    name: &str,
    how: &str,
    in_fn: &str,
) {
    push_unless_waived(
        out,
        sf,
        Finding {
            pass: PASS,
            file: sf.path.clone(),
            line,
            kind: "map-iteration",
            detail: format!("{name}.{how} in {in_fn}"),
            message: format!(
                "iteration over unordered map `{name}` ({how}); iteration order depends \
                 on the per-process hasher seed — use a BTreeMap or sort first"
            ),
        },
    );
}

/// Names declared with a `HashMap`/`HashSet` type in this file: struct
/// fields and `let` bindings with explicit annotations (`name: HashMap<…>`)
/// plus `let [mut] name = HashMap::new()/with_capacity(…)`.
fn unordered_map_names(sf: &SourceFile) -> BTreeSet<String> {
    let toks = &sf.tokens;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // `name : HashMap` (field, param, or annotated let).
        if let (Some(colon), Some(name)) = (
            i.checked_sub(1).and_then(|k| toks.get(k)),
            i.checked_sub(2).and_then(|k| toks.get(k)),
        ) {
            if colon.text == ":"
                && name.kind == TokKind::Ident
                // Exclude the path case `std::collections::HashMap`.
                && i.checked_sub(3)
                    .and_then(|k| toks.get(k))
                    .is_none_or(|t| t.text != ":")
            {
                names.insert(name.text.clone());
                continue;
            }
        }
        // `let [mut] name = HashMap ::` (constructor binding).
        if let (Some(eq), Some(name_idx)) = (i.checked_sub(1), i.checked_sub(2)) {
            let name = &toks[name_idx];
            if toks[eq].text == "=" && name.kind == TokKind::Ident && name.text != "mut" {
                let mut before = name_idx.checked_sub(1);
                if before
                    .and_then(|k| toks.get(k))
                    .is_some_and(|t| t.text == "mut")
                {
                    before = before.and_then(|k| k.checked_sub(1));
                }
                if before
                    .and_then(|k| toks.get(k))
                    .is_some_and(|t| t.text == "let")
                {
                    names.insert(name.text.clone());
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check_file(&sf, &mut out);
        out
    }

    #[test]
    fn flags_wall_clock_and_rng() {
        let f =
            findings("fn tick() { let t = Instant::now(); let r = thread_rng(); let _ = (t, r); }");
        let kinds: Vec<&str> = f.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["wall-clock", "ambient-rng"]);
    }

    #[test]
    fn flags_hashmap_iteration_but_not_lookup() {
        let f = findings(
            "struct S { m: HashMap<u32, u32> }\n\
             impl S {\n\
                 fn ok(&self) -> Option<&u32> { self.m.get(&1) }\n\
                 fn bad(&self) -> u32 { self.m.values().sum() }\n\
             }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, "map-iteration");
        assert!(f[0].detail.contains("S::bad"));
    }

    #[test]
    fn for_loop_over_map_binding() {
        let f = findings(
            "fn walk() { let mut seen = HashMap::new(); seen.insert(1, 2);\n\
             for kv in &seen { let _ = kv; } }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("for-loop"));
    }

    #[test]
    fn btreemap_iteration_is_fine_and_waivers_work() {
        let f = findings("fn ok(m: &BTreeMap<u32, u32>) -> u32 { m.values().sum() }");
        assert!(f.is_empty());
        let f = findings(
            "fn logged(m: HashMap<u32, u32>) {\n\
                 // lint: allow(determinism) — debug dump, order irrelevant\n\
                 for kv in &m { println!(\"{kv:?}\"); }\n\
             }",
        );
        assert!(f.is_empty());
    }
}
