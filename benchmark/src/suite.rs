//! The whole suite in one command, and the comparison of two suite
//! results.
//!
//! Every run is a child process of this same binary in its one-run
//! mode — exactly what the acceptance driver executes — so a suite
//! result is made of the same numbers, and `peak_rss_mb` stays a
//! per-workload figure. The order is fixed (noise control): one
//! unrecorded `tcp_pingpong_b` pre-warm, because the first TCP run
//! after idle measures about 10 % fast on the reference box; then the
//! four workloads untraced; then the four traced.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::metrics::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};

/// What the suite was asked to do.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Seed of the first repetition; repetition `k` uses `seed + k`.
    pub seed: u64,
    /// Seconds per run.
    pub seconds: f64,
    /// Repetitions of the whole suite.
    pub repeat: usize,
    /// Where `results.json` and the span files go.
    pub out_dir: String,
}

/// Runs one child and returns its result object.
fn child(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &args.out_dir])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().next_back().unwrap_or("");
    // Exit code 2 is a failed correctness gate: the result line is
    // still there and says `"correct": false`.
    match (output.status.code(), Json::parse(last)) {
        (Some(0 | 2), Ok(result)) => Ok(result),
        (code, _) => Err(format!(
            "the {workload} run ended with {code:?} and no result line"
        )),
    }
}

/// Values of one metric of one workload over the repetitions.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn collect(runs: &[Json]) -> Samples {
    let mut samples = Samples::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    samples
}

fn specs() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER)
}

/// Runs the suite, prints every metric, writes `results.json`.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    eprintln!("pre-warm: tcp_pingpong_b, 5 s, not recorded");
    child(
        args,
        WORKLOADS[0].0,
        args.seed,
        5.0_f64.min(args.seconds),
        false,
    )?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for k in 0..args.repeat {
        let seed = args.seed + k as u64;
        for trace in [false, true] {
            for (workload, _) in WORKLOADS {
                eprintln!(
                    "run {}/{}: {workload}, seed {seed}, {} s, {}",
                    k + 1,
                    args.repeat,
                    args.seconds,
                    if trace { "traced" } else { "untraced" }
                );
                let result = child(args, workload, seed, args.seconds, trace)?;
                if result.get("correct") != Some(&Json::Bool(true)) {
                    all_correct = false;
                    eprintln!("  FAILED its correctness gate");
                }
                runs.push(obj([
                    ("workload", Json::Str(workload.into())),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Bool(trace)),
                    ("result", result),
                ]));
            }
        }
    }
    let samples = collect(&runs);
    for (workload, _) in WORKLOADS {
        for spec in specs() {
            let Some(values) = samples.get(&(workload.to_string(), spec.name.to_string())) else {
                continue;
            };
            let mid = median(&mut values.clone()).unwrap_or(0.0);
            if spec.bound.is_none() && values.iter().all(|v| *v == 0.0) {
                continue; // a layer this workload does not exercise
            }
            match quartiles(values) {
                Some([q1, _, q3]) => println!(
                    "{workload} {} {mid} {} (q1 {q1}, q3 {q3}, n {})",
                    spec.name,
                    spec.unit,
                    values.len()
                ),
                None => println!("{workload} {} {mid} {}", spec.name, spec.unit),
            }
        }
    }
    let doc = obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = Path::new(&args.out_dir).join("results.json");
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

/// How one (workload, metric) pair moved from result `a` to result `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than `a`'s own run-to-run spread (which takes at
    /// least two runs of `a` to know).
    Improved,
    /// Within the bound, and not better by more than the spread.
    Unchanged,
    /// A side's spread exceeds the bound: the data cannot tell.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

/// Classifies a metric given both sides' samples. `worse` is the
/// relative move of the median in the bad direction.
pub fn classify(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(f64, f64, f64, Verdict)> {
    let (mid_a, mid_b) = (median(&mut a.to_vec())?, median(&mut b.to_vec())?);
    if mid_a == 0.0 {
        return None; // not measured on this workload
    }
    let change = (mid_b - mid_a) / mid_a.abs();
    let worse = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let bound = spec.bound?;
    // One run a side has no spread: it can regress, never improve.
    let spread_a = iqr_share(a);
    let spread = spread_a.unwrap_or(0.0).max(iqr_share(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if spread_a.is_some_and(|own| -worse > own) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((mid_a, mid_b, change, verdict))
}

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: not a suite result (no \"runs\")"))?;
    Ok(collect(runs))
}

/// Compares two suite results; `Ok(false)` when something regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = 0;
    for (workload, _) in WORKLOADS {
        for spec in specs() {
            let key = (workload.to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            match classify(spec, va, vb) {
                Some((mid_a, mid_b, change, verdict)) => {
                    regressed += usize::from(verdict == Verdict::Regressed);
                    println!(
                        "{workload} {} {mid_a} -> {mid_b} {} ({:+.2} %, n {}/{}) {}",
                        spec.name,
                        spec.unit,
                        100.0 * change,
                        va.len(),
                        vb.len(),
                        format!("{verdict:?}").to_lowercase()
                    );
                }
                // Per-layer metrics have no bound: show the move only.
                None => {
                    let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
                    if let (Some(ma), Some(mb)) = (ma, mb) {
                        if ma != 0.0 || mb != 0.0 {
                            println!("{workload} {} {ma} -> {mb} {}", spec.name, spec.unit);
                        }
                    }
                }
            }
        }
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tput() -> &'static MetricSpec {
        END_TO_END
            .iter()
            .find(|s| s.name == "throughput_ops_s")
            .unwrap()
    }

    fn p50() -> &'static MetricSpec {
        END_TO_END
            .iter()
            .find(|s| s.name == "final_p50_us")
            .unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |k: f64| steady.map(|v| v * k);
        let v = |spec, a: &[f64], b: &[f64]| classify(spec, a, b).unwrap().3;
        let bound = p50().bound.unwrap();
        // Lower is better: +2x the bound regresses, -2x improves.
        assert_eq!(
            v(p50(), &steady, &shift(1.0 + 2.0 * bound)),
            Verdict::Regressed
        );
        assert_eq!(
            v(p50(), &steady, &shift(1.0 - 2.0 * bound)),
            Verdict::Improved
        );
        assert_eq!(v(p50(), &steady, &shift(1.004)), Verdict::Unchanged);
        // A gain smaller than the parent's own spread is not a gain.
        assert_eq!(v(p50(), &steady, &shift(0.996)), Verdict::Unchanged);
        // Higher is better: the same moves read the other way.
        let bound = tput().bound.unwrap();
        assert_eq!(
            v(tput(), &steady, &shift(1.0 - 2.0 * bound)),
            Verdict::Regressed
        );
        assert_eq!(
            v(tput(), &steady, &shift(1.0 + 2.0 * bound)),
            Verdict::Improved
        );
        // Spread beyond the bound: unresolved, whatever the medians say.
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(v(p50(), &noisy, &shift(2.0)), Verdict::Unresolved);
        assert_eq!(v(p50(), &steady, &noisy), Verdict::Unresolved);
        // One sample a side: no spread to go by, the bound still rules,
        // and nothing can be called a gain.
        assert_eq!(v(p50(), &[100.0], &[150.0]), Verdict::Regressed);
        assert_eq!(v(p50(), &[100.0], &[101.0]), Verdict::Unchanged);
        assert_eq!(v(p50(), &[100.0], &[50.0]), Verdict::Unchanged);
    }

    #[test]
    fn unmeasured_and_unbounded_metrics_get_no_verdict() {
        assert!(classify(p50(), &[0.0, 0.0], &[0.0, 0.0]).is_none());
        assert!(classify(&PER_LAYER[0], &[1.0, 2.0], &[3.0, 4.0]).is_none());
        assert!(classify(p50(), &[], &[1.0]).is_none());
    }

    #[test]
    fn samples_are_collected_per_workload_and_metric() {
        let run = |w: &str, v: f64| {
            Json::parse(&format!(
                r#"{{"workload": "{w}", "seed": 1, "trace": false, "result": {{"correct": true,
                    "metrics": {{"final_p50_us": {{"value": {v}, "unit": "us"}}}}}}}}"#
            ))
            .unwrap()
        };
        let s = collect(&[run("a", 1.0), run("b", 2.0), run("a", 3.0)]);
        assert_eq!(
            s[&("a".to_string(), "final_p50_us".to_string())],
            [1.0, 3.0]
        );
        assert_eq!(s[&("b".to_string(), "final_p50_us".to_string())], [2.0]);
    }
}
