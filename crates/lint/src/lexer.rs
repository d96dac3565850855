//! A minimal Rust lexer: just enough token structure for the lint pass.
//!
//! The pass matches on token *sequences* (`. lock ( )`, `drop ( g )`),
//! so the lexer's only real obligations are the ones a regex can't meet:
//! string/char literals and comments must never leak their contents into
//! the token stream (a `.lock()` inside a doc comment is not a finding),
//! lifetimes must not be confused with char literals, and every token
//! must carry its source line for diagnostics.
//!
//! There is no keyword table and no precedence — `match` is just an
//! identifier token here. The item structure (functions, impl blocks)
//! is recovered by [`crate::scan`] on top of this stream.

/// What kind of lexeme a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, `[`, `!`, …).
    Punct,
    /// A string, char, byte, or numeric literal (contents opaque).
    Literal,
    /// A lifetime (`'a`) — kept distinct so `'a` is never a char literal.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token's kind.
    pub kind: TokKind,
    /// The token text; literals keep only a placeholder, not contents.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A comment (line or block), kept out of the token stream but retained
/// for the waiver check.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on. A run of `//` comments on
    /// consecutive lines with no code between them is merged into one
    /// `Comment` spanning the whole block, so the waiver check treats a
    /// multi-line waiver and its reason as a single comment.
    pub end_line: u32,
}

/// The result of lexing one source file.
pub struct Lexed {
    /// Code tokens, in order.
    pub tokens: Vec<Token>,
    /// Comments, in order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source into tokens and comments.
///
/// Unterminated literals or comments are tolerated (the rest of the file
/// is simply consumed) — a linter must degrade, not abort, on the code it
/// is pointed at.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            // Line comment (incl. doc comments).
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                    end_line: line,
                });
            }
            // Block comment, nesting like Rust's.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    text: src[start..i].to_string(),
                    line: start_line,
                    end_line: line,
                });
            }
            // String literal (also the tail of byte strings; the `b` was
            // lexed as an ident, which is harmless for our passes).
            b'"' => {
                let tok_line = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                tokens.push(Token {
                    kind: TokKind::Literal,
                    text: "\"…\"".to_string(),
                    line: tok_line,
                });
            }
            // Raw string r"…" / r#"…"# (and br…): count the hashes, then
            // scan to the matching close quote + hashes.
            b'r' if matches!(b.get(i + 1), Some(b'"') | Some(b'#')) => {
                let tok_line = line;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    j += 1;
                    // Scan for `"` followed by `hashes` hashes.
                    loop {
                        match b.get(j) {
                            None => break,
                            Some(&b'"') => {
                                let close = (1..=hashes).all(|k| b.get(j + k) == Some(&b'#'));
                                if close {
                                    j += 1 + hashes;
                                    break;
                                }
                                j += 1;
                            }
                            Some(&b'\n') => {
                                line += 1;
                                j += 1;
                            }
                            Some(_) => j += 1,
                        }
                    }
                    i = j;
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "r\"…\"".to_string(),
                        line: tok_line,
                    });
                } else {
                    // `r#ident` raw identifier: lex as an ident.
                    let start = i;
                    i = j;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Ident,
                        text: src[start..i].to_string(),
                        line,
                    });
                }
            }
            // `'` — lifetime or char literal. A lifetime is `'` + ident
            // not closed by a `'` right after one payload char.
            b'\'' => {
                let is_lifetime = match (b.get(i + 1), b.get(i + 2)) {
                    (Some(&n), Some(&after)) => {
                        (n.is_ascii_alphabetic() || n == b'_') && after != b'\''
                    }
                    (Some(&n), None) => n.is_ascii_alphabetic() || n == b'_',
                    _ => false,
                };
                if is_lifetime {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    // Char literal: `'x'`, `'\n'`, `'\u{1F600}'`.
                    let tok_line = line;
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "'…'".to_string(),
                        line: tok_line,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // Digits, `_` separators, hex/bin letters, and type
                // suffixes. A float's `.` lexes as a separate punct —
                // no pass cares about numeric structure.
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    let comments = merge_line_comments(&tokens, comments);
    Lexed { tokens, comments }
}

/// Merges consecutive-line `//` comments with no code token between
/// them into single block comments (see [`Comment::end_line`]).
fn merge_line_comments(tokens: &[Token], comments: Vec<Comment>) -> Vec<Comment> {
    let mut out: Vec<Comment> = Vec::new();
    for c in comments {
        if let Some(prev) = out.last_mut() {
            let contiguous = prev.text.starts_with("//")
                && c.text.starts_with("//")
                && c.line == prev.end_line + 1
                && !tokens
                    .iter()
                    .any(|t| t.line >= prev.end_line && t.line <= c.line);
            if contiguous {
                prev.text.push('\n');
                prev.text.push_str(&c.text);
                prev.end_line = c.line;
                continue;
            }
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(texts("foo.unwrap()"), vec!["foo", ".", "unwrap", "(", ")"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = texts(r#"x.expect("please unwrap()")"#);
        assert!(toks.iter().filter(|t| *t == "unwrap").count() == 0);
        assert_eq!(toks.iter().filter(|t| *t == "expect").count(), 1);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let lexed = lex("// has unwrap() in it\nlet x = 1;");
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("unwrap"));
        assert_eq!(lexed.tokens[0].text, "let");
        assert_eq!(lexed.tokens[0].line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) {}");
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let lexed = lex("let s = r#\"panic!(\"no\")\"#; /* outer /* panic! */ still */ done");
        assert!(lexed.tokens.iter().all(|t| t.text != "panic"));
        assert!(lexed.tokens.iter().any(|t| t.text == "done"));
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn consecutive_line_comments_merge_into_a_block() {
        let lexed = lex(
            "// SAFETY: the first `len` slots are initialized, and `len` is\n\
             // reset below so they are never read again.\n\
             let x = 1;\n\
             // standalone — code above breaks the run\n",
        );
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 2);
        assert!(lexed.comments[0].text.contains("never read again"));

        // A trailing comment after code must not merge with the next line.
        let lexed = lex("let x = 1; // note\n// SAFETY: unrelated\nlet y = 2;");
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lines_advance_through_multiline_constructs() {
        let lexed = lex("/* a\nb */\nfn g() {}");
        let fn_tok = lexed.tokens.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(fn_tok.line, 3);
        assert_eq!(lexed.comments[0].end_line, 2);
    }
}
