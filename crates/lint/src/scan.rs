//! Item-level structure on top of the token stream: functions with
//! brace-matched bodies, enclosing `impl` blocks for qualified names,
//! `#[cfg(test)]` module spans, and the waiver query.
//!
//! This is a *scanner*, not a parser: it recovers exactly the structure
//! the pass needs and nothing more, by brace matching and short token
//! lookahead. Macro-generated items are invisible to it — acceptable
//! while every lock is taken in hand-written code (the workspace has no
//! proc macros).

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, TokKind, Token};

/// One function item: its (possibly impl-qualified) name and body span.
pub struct FnItem {
    /// `Type::name` inside an `impl Type`, plain `name` at module level.
    pub qual_name: String,
    /// Token-index range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
}

/// A lexed and scanned source file.
pub struct SourceFile {
    /// Path, workspace-root-relative, `/`-separated.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// All comments, in order.
    pub comments: Vec<Comment>,
    /// Every function item found (test modules excluded).
    pub fns: Vec<FnItem>,
    /// Token-index ranges covered by `#[cfg(test)] mod … { }` bodies.
    test_spans: Vec<Range<usize>>,
    /// Names of the `#[cfg(test)] mod name;` modules declared here.
    test_mods: Vec<String>,
}

impl SourceFile {
    /// Lexes and scans one file. `rel_path` is stored verbatim on the
    /// result and in every diagnostic.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let tokens = lexed.tokens;
        let (test_spans, test_mods) = find_test_modules(&tokens);
        let in_test = |idx: usize| test_spans.iter().any(|r| r.contains(&idx));

        let mut fns = Vec::new();

        // Enclosing-impl stack: (type name, brace depth the impl body
        // opened at). Popped when depth drops back below.
        let mut impl_stack: Vec<(String, i32)> = Vec::new();
        let mut depth: i32 = 0;

        let mut i = 0usize;
        while i < tokens.len() {
            let t = &tokens[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                        impl_stack.pop();
                    }
                }
                (TokKind::Ident, "impl") if !in_test(i) => {
                    if let Some((name, open)) = scan_impl_header(&tokens, i) {
                        impl_stack.push((name, depth + 1));
                        depth += 1;
                        i = open + 1;
                        continue;
                    }
                }
                (TokKind::Ident, "fn") if !in_test(i) => {
                    // Keep walking *inside* the body (nested fns and
                    // braces still update `depth` / `impl_stack`).
                    fns.extend(scan_fn(
                        &tokens,
                        i,
                        impl_stack.last().map(|(n, _)| n.as_str()),
                    ));
                }
                _ => {}
            }
            i += 1;
        }

        SourceFile {
            path: rel_path.to_string(),
            tokens,
            comments: lexed.comments,
            fns,
            test_spans,
            test_mods,
        }
    }

    /// Whether token index `idx` is inside a `#[cfg(test)]` module body.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&idx))
    }

    /// Whether line `line` carries a `lint: allow(<pass>)` waiver — in
    /// a comment that starts on that line or ends on it or the line
    /// directly above (a waiver comment covers the statement it
    /// annotates).
    pub fn waived(&self, line: u32, pass: &str) -> bool {
        let long = format!("lint: allow({pass})");
        let short = format!("lint:allow({pass})");
        self.comments.iter().any(|c| {
            (c.end_line == line || c.end_line + 1 == line || c.line == line)
                && (c.text.contains(&long) || c.text.contains(&short))
        })
    }
}

/// Loads and parses every `.rs` file under `dir`, recursively, sorted by
/// path for deterministic output, leaving out the files of modules
/// declared `#[cfg(test)] mod name;` (and their submodules) — they are
/// test code like an inline `#[cfg(test)]` module. `root` is the
/// workspace root the stored relative paths are computed against.
pub fn parse_tree(root: &Path, dir: &Path) -> Vec<SourceFile> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(dir, &mut paths);
    paths.sort();
    let files: Vec<(&PathBuf, SourceFile)> = (paths.iter())
        .filter_map(|p| {
            let src = std::fs::read_to_string(p).ok()?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            Some((p, SourceFile::parse(&rel, &src)))
        })
        .collect();
    // `mod name;` in `lib.rs`/`main.rs`/`mod.rs` lives beside it, in
    // `foo.rs` under `foo/`: as `name.rs` or `name/…`.
    let test_mods: Vec<PathBuf> = (files.iter())
        .flat_map(|(p, sf)| {
            let stem = p.file_stem().unwrap_or_default();
            let parent = p.parent().unwrap_or(dir);
            let base = match stem.to_str() {
                Some("lib" | "main" | "mod") => parent.to_path_buf(),
                _ => parent.join(stem),
            };
            sf.test_mods.iter().map(move |m| base.join(m))
        })
        .collect();
    (files.into_iter())
        .filter(|(p, _)| {
            !(test_mods.iter()).any(|m| p.starts_with(m) || **p == m.with_extension("rs"))
        })
        .map(|(_, sf)| sf)
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Matches forward from an opening brace to its mate. Returns the index
/// of the closing `}` (or the last token on unbalanced input).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// `#[cfg(test)]` followed by `mod name { … }` or `mod name;` — returns
/// the inline bodies' spans and the out-of-line modules' names.
fn find_test_modules(tokens: &[Token]) -> (Vec<Range<usize>>, Vec<String>) {
    let mut spans = Vec::new();
    let mut names = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test"
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if is_cfg_test {
            // Skip a visibility (`pub`, `pub(crate)`, …) to the `mod`.
            const VIS: &[&str] = &["pub", "(", ")", "crate", "super", "in"];
            let mut j = i + 7;
            while tokens
                .get(j)
                .is_some_and(|t| VIS.contains(&t.text.as_str()))
            {
                j += 1;
            }
            let is_mod = tokens.get(j).is_some_and(|t| t.text == "mod");
            let after_name = tokens.get(j + 2).filter(|_| is_mod);
            match after_name.map(|t| t.text.as_str()) {
                Some("{") => {
                    let close = match_brace(tokens, j + 2);
                    spans.push(j + 2..close + 1);
                    i = close + 1;
                    continue;
                }
                Some(";") => names.push(tokens[j + 1].text.clone()),
                _ => {}
            }
        }
        i += 1;
    }
    (spans, names)
}

/// From an `impl` token, extracts the implemented type's name and the
/// index of the body's opening brace. `impl Trait for Type` yields
/// `Type`; `impl Type` yields `Type`; generic parameters are skipped.
fn scan_impl_header(tokens: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut j = impl_idx + 1;
    let mut angle = 0i32;
    let mut names: Vec<&str> = Vec::new();
    let mut after_for: Option<usize> = None;
    while j < tokens.len() {
        let t = &tokens[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Punct, "{") if angle <= 0 => {
                // Type name: first ident after `for` if present, else the
                // first ident at angle depth 0.
                let pick = after_for.unwrap_or(0);
                let name = names.get(pick).copied()?;
                return Some((name.to_string(), j));
            }
            (TokKind::Punct, ";") if angle <= 0 => return None,
            (TokKind::Ident, "for") if angle <= 0 => after_for = Some(names.len()),
            (TokKind::Ident, "where") if angle <= 0 => {}
            (TokKind::Ident, _) if angle == 0 => names.push(&t.text),
            _ => {}
        }
        j += 1;
    }
    None
}

/// From a `fn` token, extracts the item with its body token span.
/// Returns `None` for bodyless declarations (trait methods, externs).
fn scan_fn(tokens: &[Token], fn_idx: usize, impl_name: Option<&str>) -> Option<FnItem> {
    let name_tok = tokens.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Walk to the body `{`: skip the generic list and the parameter
    // list by depth counting; a `;` at depth 0 means no body. `->` of
    // the return type contains `>` — only track `<`/`>` inside the
    // generic list (i.e. before the parameter list opens).
    let mut j = fn_idx + 2;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut seen_params = false;
    while j < tokens.len() {
        let t = &tokens[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") if !seen_params => angle += 1,
            (TokKind::Punct, ">") if !seen_params && angle > 0 => angle -= 1,
            (TokKind::Punct, "(") => {
                paren += 1;
            }
            (TokKind::Punct, ")") => {
                paren -= 1;
                if paren == 0 {
                    seen_params = true;
                }
            }
            (TokKind::Punct, "{") if paren == 0 && angle == 0 && seen_params => {
                let close = match_brace(tokens, j);
                let qual_name = match impl_name {
                    Some(t) => format!("{t}::{}", name_tok.text),
                    None => name_tok.text.clone(),
                };
                return Some(FnItem {
                    qual_name,
                    body: j + 1..close,
                });
            }
            (TokKind::Punct, ";") if paren == 0 && angle == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_get_impl_qualified_names() {
        let src = "
            impl<T: Clone> Widget<T> {
                fn poke(&self) -> bool { true }
            }
            fn free() {}
            impl Iterator for Widget<u8> {
                fn next(&mut self) -> Option<u8> { None }
            }
        ";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["Widget::poke", "free", "Widget::next"]);
    }

    #[test]
    fn cfg_test_modules_are_excluded() {
        let src = "
            fn real() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
        ";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
        let helper_idx = f
            .tokens
            .iter()
            .position(|t| t.text == "helper")
            .expect("token present");
        assert!(f.in_test_code(helper_idx));
    }

    #[test]
    fn waiver_adjacency() {
        let src = "
            // lint: allow(lock_discipline) — the socket is O_NONBLOCK
            fn flush() { let g = m.lock(); s.write_all(b); }
        ";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.waived(3, "lock_discipline"));
        assert!(!f.waived(3, "other_pass"));
        assert!(!f.waived(5, "lock_discipline"));
    }
}
