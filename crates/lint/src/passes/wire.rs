//! Wire-exhaustiveness pass: every wire enum must be declared in the codec's
//! schema, and every variant of it must be built by the wire property
//! tests.
//!
//! The codec declares each layout once, inside its `wire! { … }`
//! invocation (DESIGN.md §10), and generates `encode` and `decode` from
//! it. The compiler already holds a declaration to its type: the
//! generated `encode` match is exhaustive, so a variant missing from
//! the schema does not build. What nothing forces is a *test* of each
//! layout — a variant the property tests never build is a layout whose
//! round trip nobody checks. This pass closes that gap mechanically:
//! add a variant and the linter fails until `prop_wire.rs` builds it.
//!
//! A variant `V` of enum `E` counts as built when the qualified path
//! `E::V` appears in the proptest file.

use std::path::Path;

use super::parse_one;
use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::{EnumDef, SourceFile};

const PASS: &str = "wire";

/// Runs the pass.
pub fn run(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let codec = parse_one(root, cfg.wire_codec);
    let props = parse_one(root, cfg.wire_proptests);
    let (Some(codec), Some(props)) = (codec, props) else {
        out.push(Finding {
            pass: PASS,
            file: cfg.wire_codec.to_string(),
            line: 0,
            kind: "missing-file",
            detail: "codec or proptest file".into(),
            message: format!(
                "cannot read the wire codec `{}` or proptests `{}`",
                cfg.wire_codec, cfg.wire_proptests
            ),
        });
        return out;
    };
    for name in cfg.wire_enums {
        check_enum(&codec, name, &props, &mut out);
    }
    out
}

fn check_enum(codec: &SourceFile, name: &str, props: &SourceFile, out: &mut Vec<Finding>) {
    let Some(def) = schema_enum(codec, name) else {
        out.push(Finding {
            pass: PASS,
            file: codec.path.clone(),
            line: 0,
            kind: "no-wire-schema",
            detail: name.to_string(),
            message: format!(
                "enum `{name}` listed in `Config::wire_enums` is not declared in the codec's \
                 `wire!` schema"
            ),
        });
        return;
    };
    for (variant, line) in &def.variants {
        if mentions_variant(props, name, variant) {
            continue;
        }
        let f = Finding {
            pass: PASS,
            file: codec.path.clone(),
            line: *line,
            kind: "unproptested",
            detail: format!("{name}::{variant}"),
            message: format!(
                "wire enum variant `{name}::{variant}` is not built by the wire property \
                 tests; nothing checks that its layout round-trips"
            ),
        };
        super::push_unless_waived(out, codec, f);
    }
}

/// The declaration of enum `name` inside the codec's `wire! { … }`
/// invocation — not its Rust definition, which may sit in the same file.
fn schema_enum<'a>(codec: &'a SourceFile, name: &str) -> Option<&'a EnumDef> {
    let toks = &codec.tokens;
    let open = (0..toks.len()).find(|&i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == "wire"
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
            && toks.get(i + 2).is_some_and(|t| t.text == "{")
    })? + 2;
    let mut depth = 0;
    let close = (open..toks.len()).find(|&i| {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    codec
        .enums
        .iter()
        .find(|e| e.name == name && (open..close).contains(&e.tok))
}

/// Whether `E::V` appears anywhere in `sf`.
fn mentions_variant(sf: &SourceFile, enum_name: &str, variant: &str) -> bool {
    (0..sf.tokens.len()).any(|i| super::is_path2(&sf.tokens, i, enum_name, variant))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(codec_src: &str, props_src: &str) -> Vec<Finding> {
        let codec = SourceFile::parse("codec.rs", codec_src);
        let props = SourceFile::parse("prop.rs", props_src);
        let mut out = Vec::new();
        check_enum(&codec, "Msg", &props, &mut out);
        out
    }

    const SCHEMA: &str = "
        wire! {
            enum Msg, version 1 {
                Ping = 0,
                Pong { seq: u64 } = 1,
                Data(len: u32) = 2,
            }
        }
    ";

    #[test]
    fn a_fully_built_enum_is_clean() {
        let props = "fn arb() { let _ = (Msg::Ping, Msg::Pong { seq: 1 }, Msg::Data(1)); }";
        assert!(check(SCHEMA, props).is_empty());
    }

    #[test]
    fn a_variant_the_proptests_never_build_is_flagged_at_its_declaration() {
        let props = "fn arb() { let _ = (Msg::Ping, Msg::Data(1)); }";
        let out = check(SCHEMA, props);
        let got: Vec<(&str, &str, u32)> = out
            .iter()
            .map(|f| (f.kind, f.detail.as_str(), f.line))
            .collect();
        assert_eq!(got, vec![("unproptested", "Msg::Pong", 5)]);
    }

    #[test]
    fn an_enum_defined_but_not_declared_is_one_finding() {
        let codec = "pub enum Msg { Ping, Pong, Data(u32) } wire! { enum Other { A = 0 } }";
        let out = check(codec, "fn arb() { let _ = Msg::Ping; }");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, "no-wire-schema");
    }

    #[test]
    fn the_schema_declaration_is_read_not_the_definition_beside_it() {
        let codec =
            format!("pub enum Msg {{ Ping, Pong {{ seq: u64 }}, Data(u32), Gone }}{SCHEMA}");
        let props = "fn arb() { let _ = (Msg::Ping, Msg::Pong { seq: 1 }, Msg::Data(1)); }";
        assert!(check(&codec, props).is_empty());
    }
}
