//! Integration tests: the pass flags exactly its seeded fixture
//! violation, and the real workspace has zero findings.

use std::path::{Path, PathBuf};

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
    let findings = run_all(&fixture_root());
    let got: Vec<(String, &str, String)> = findings
        .iter()
        .map(|f| (f.pass.to_string(), f.kind, f.file.clone()))
        .collect();
    let want = vec![(
        "lock_discipline".to_string(),
        "lock-cycle",
        "crates/locky/src/lib.rs".to_string(),
    )];
    assert_eq!(got, want, "full findings: {findings:#?}");
}

#[test]
fn real_workspace_has_zero_findings() {
    let findings = run_all(&workspace_root());
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
