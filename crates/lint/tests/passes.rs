//! Integration tests: each pass flags exactly its seeded fixture
//! violation, waivers and the baseline behave end-to-end, and the real
//! workspace is clean against its checked-in config and baseline.

use std::path::{Path, PathBuf};

use icg_lint::baseline::Baseline;
use icg_lint::config::Config;
use icg_lint::{run_all, unsafety};

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
    let root = fixture_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("fixture config parses");
    let findings = run_all(&root, &cfg);
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
            "panic_path".to_string(),
            "unwrap",
            "crates/netbad/src/pump.rs".to_string(),
        ),
        (
            "determinism".to_string(),
            "wall-clock",
            "crates/simbad/src/lib.rs".to_string(),
        ),
        (
            "unsafe_audit".to_string(),
            "missing-safety-comment",
            "crates/unsafey/src/lib.rs".to_string(),
        ),
        (
            "wire".to_string(),
            "unproptested",
            "crates/wirey/src/codec.rs".to_string(),
        ),
    ];
    assert_eq!(got, want, "full findings: {findings:#?}");

    // The waived `.expect()` in the netbad fixture must not appear at all.
    assert!(
        findings.iter().all(|f| !f.detail.contains("boot")),
        "waiver in fixture was not honored: {findings:#?}"
    );

    // The wire finding points at the seeded unbuilt variant.
    assert!(findings
        .iter()
        .filter(|f| f.pass == "wire")
        .all(|f| f.detail == "FMsg::Drop"));
}

#[test]
fn baseline_accepts_exactly_the_current_findings() {
    let root = fixture_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("fixture config parses");
    let findings = run_all(&root, &cfg);
    assert!(!findings.is_empty());

    // Empty baseline: everything is new.
    let empty = Baseline::default();
    let (fresh, accepted) = empty.partition(findings.clone());
    assert_eq!(fresh.len(), findings.len());
    assert!(accepted.is_empty());

    // A baseline rendered from the findings accepts all of them.
    let dir = std::env::temp_dir().join("icg-lint-fixture-baseline");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lint.baseline");
    std::fs::write(&path, Baseline::render(&findings)).expect("write baseline");
    let full = Baseline::load(&path).expect("load baseline");
    let (fresh, accepted) = full.partition(findings.clone());
    assert!(fresh.is_empty(), "still new: {fresh:#?}");
    assert_eq!(accepted.len(), findings.len());
}

#[test]
fn real_workspace_is_clean_against_checked_in_baseline() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("workspace lint.toml parses");
    let baseline = Baseline::load(&root.join("lint.baseline")).expect("baseline loads");
    let (fresh, _) = baseline.partition(run_all(&root, &cfg));
    assert!(
        fresh.is_empty(),
        "new lint findings in the workspace:\n{}",
        fresh
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn committed_unsafety_inventory_is_current() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("workspace lint.toml parses");
    assert!(
        unsafety::check(&root, &cfg, &root.join("UNSAFETY.md")).is_ok(),
        "UNSAFETY.md is stale; regenerate with `cargo run -p icg-lint -- unsafety`"
    );
}
