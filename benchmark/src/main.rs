//! `icg-benchmark` — the end-to-end benchmark of the ICG reproduction.
//!
//! Three ways to call it (normally through `benchmark/run.sh`, which
//! builds it first):
//!
//! ```text
//! … --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! … [--seed N] [--seconds S] [--repeat K] [--quick]    the whole suite, every metric printed
//! … --compare a.json b.json                            classify two suite results
//! ```
//!
//! See `README.md` next to this crate for what is measured and why.

mod adapter;
mod gen;
mod json;
mod ladder;
mod metrics;
mod procfs;
mod sim;
mod stats;
mod suite;
mod tcp;
mod trace;
mod workloads;
mod yardstick;

use std::process::ExitCode;

use workloads::RunArgs;

/// The parsed command line.
enum Mode {
    Run(RunArgs),
    Suite(suite::SuiteArgs),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = 1usize;
    let mut quick = false;
    let mut out_dir = "benchmark/out".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => trace = number(value()?)? != 0.0,
            "--repeat" => repeat = number(value()?)? as usize,
            "--quick" => quick = true,
            "--out" => out_dir = value()?,
            "--compare" => return Ok(Mode::Compare(value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds.is_some_and(|s| !(0.5..=120.0).contains(&s)) {
        return Err("--seconds must be between 0.5 and 120".into());
    }
    Ok(match workload {
        Some(workload) => Mode::Run(RunArgs {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            trace,
            out_dir,
        }),
        None => Mode::Suite(suite::SuiteArgs {
            seed,
            seconds: seconds.unwrap_or(if quick { 5.0 } else { 24.0 }),
            repeat: repeat.max(1),
            out_dir,
        }),
    })
}

/// One contract run: human-readable metric lines, notes on stderr, and
/// the result object as the last line of stdout.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let out = workloads::run(args)?;
    for note in &out.notes {
        eprintln!("[{}] {note}", args.workload);
    }
    let line = out.to_json(args.trace)?;
    for (spec, value) in out.declared(args.trace)? {
        println!("{} {} {value} {}", args.workload, spec.name, spec.unit);
    }
    println!("{line}");
    Ok(out.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|mode| match mode {
        Mode::Run(run) => run_one(&run),
        Mode::Suite(suite) => suite::run(&suite),
        Mode::Compare(a, b) => suite::compare(&a, &b),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("icg-benchmark: a correctness gate failed (see the notes above)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("icg-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
