//! `icg-loadgen`'s closed loop against a real 3-replica cluster: the
//! quorum store under the default `--mode icg` and under `--mode
//! strong`, and the spec store under `--levels`. Each run must complete
//! every operation and print one `level` line per level it was asked
//! for, weakest first. A level the spec binding does not serve is
//! refused by name before any operation runs.

mod common;

use std::process::Command;

use common::Cluster;

/// Runs a small closed loop with `extra` flags; returns the level names
/// of its report lines, in printed order.
fn levels_reported(replicas: &str, extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_icg-loadgen"))
        .args(["--replicas", replicas])
        .args(["--clients", "2", "--ops", "150", "--keys", "50"])
        .args(extra)
        .output()
        .expect("run icg-loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("failed: 0"),
        "loadgen {extra:?} failed (status {:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("level "))
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect()
}

#[test]
fn closed_loop_reports_each_requested_level_and_fails_nothing() {
    let (_cluster, replicas) = Cluster::boot(3);
    assert_eq!(levels_reported(&replicas, &[]), ["weak", "strong"]);
    assert_eq!(
        levels_reported(&replicas, &["--mode", "strong", "--no-preload"]),
        ["strong"]
    );
    assert_eq!(
        levels_reported(&replicas, &["--levels", "weak,update,causal,strong"]),
        ["weak", "update", "causal", "strong"]
    );
}

#[test]
fn a_level_the_spec_binding_does_not_serve_is_refused_by_name() {
    let (_cluster, replicas) = Cluster::boot(3);
    for (levels, refused) in [("cache,strong", "cache"), ("bogus,strong", "bogus")] {
        let out = Command::new(env!("CARGO_BIN_EXE_icg-loadgen"))
            .args(["--replicas", &replicas])
            .args(["--clients", "2", "--ops", "150", "--levels", levels])
            .output()
            .expect("run icg-loadgen");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "loadgen accepted --levels {levels}");
        assert!(
            stderr.contains(refused),
            "stderr does not name the level:\n{stderr}"
        );
        assert!(
            !stdout.lines().any(|l| l.starts_with("level ")),
            "loadgen reported levels:\n{stdout}"
        );
    }
}
