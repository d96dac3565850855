//! Integration tests: each pass flags exactly its seeded fixture
//! violation, and the real workspace has zero findings.

use std::path::{Path, PathBuf};

use icg_lint::config::Config;
use icg_lint::run_all;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn each_pass_flags_exactly_its_seeded_fixture() {
    // `lock_discipline` and `level_lattice` take no scope: they scan
    // every fixture crate.
    let cfg = Config {
        wire_codec: "crates/wirey/src/codec.rs",
        wire_proptests: "crates/wirey/tests/prop.rs",
        wire_enums: &["FMsg"],
    };
    let findings = run_all(&fixture_root(), &cfg);
    let got: Vec<(String, &str, String)> = findings
        .iter()
        .map(|f| (f.pass.to_string(), f.kind, f.file.clone()))
        .collect();
    let want = vec![
        (
            "level_lattice".to_string(),
            "closed-level-match",
            "crates/levely/src/lib.rs".to_string(),
        ),
        (
            "lock_discipline".to_string(),
            "lock-cycle",
            "crates/locky/src/lib.rs".to_string(),
        ),
        (
            "wire".to_string(),
            "unproptested",
            "crates/wirey/src/codec.rs".to_string(),
        ),
    ];
    assert_eq!(got, want, "full findings: {findings:#?}");

    // The wire finding points at the seeded unbuilt variant.
    assert!(findings
        .iter()
        .filter(|f| f.pass == "wire")
        .all(|f| f.detail == "FMsg::Drop"));
}

#[test]
fn real_workspace_has_zero_findings() {
    let findings = run_all(&workspace_root(), &Config::workspace());
    assert!(
        findings.is_empty(),
        "lint findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
