//! Figure 5 — single-request read latencies in (Correctable) Cassandra
//! for different quorum configurations.
//!
//! Setup (§6.2.1): read-only microbenchmark on 100-byte objects; client in
//! IRL contacting the coordinator replica in FRK; replicas in FRK, IRL,
//! and VRG. Compared systems, grouped by read quorum: C3 vs CC3-final,
//! C2 vs CC2-final, C1 vs CC2/CC3 preliminaries. Reported: average and
//! 99th-percentile latency.
//!
//! Paper's headline numbers: preliminary ≈ C1 ≈ 20 ms (the IRL–FRK RTT);
//! CC2 final − preliminary gap ≈ 20 ms (FRK gathers IRL); CC3 gap up to
//! ~140 ms at the 99th percentile (FRK must reach VRG).

use icg_bench::ring::{run_clients, RingSpec, System};
use icg_bench::{f2, quick, Table};
use quorumstore::ReplicaConfig;
use simnet::SimDuration;
use ycsb::{Distribution, Workload};

struct RunOut {
    prelim: Option<(f64, f64)>,
    fin: (f64, f64),
}

fn run(sys: System, seed: u64, seconds: u64) -> RunOut {
    let spec = RingSpec {
        sys,
        workload: Workload::c(Distribution::Zipfian, 1_000).with_sizes(100, 100),
        // One sequential requester: single-request latency, no queueing.
        threads_per_client: 1,
        warmup: SimDuration::from_secs(1),
        window: SimDuration::from_secs(seconds),
        seed,
        cfg: ReplicaConfig::default(),
        drop_probability: 0.0,
    };
    let mut out = run_clients(&spec, &[("IRL", 0, seed ^ 0xABCD)]);
    let m = &mut out.clients[0];
    let fin = (
        m.final_latency.mean().as_millis_f64(),
        m.final_latency.p99().as_millis_f64(),
    );
    let prelim = (!m.prelim_latency.is_empty()).then(|| {
        (
            m.prelim_latency.mean().as_millis_f64(),
            m.prelim_latency.p99().as_millis_f64(),
        )
    });
    RunOut { prelim, fin }
}

fn main() {
    let seconds = if quick() { 5 } else { 30 };
    let mut table = Table::new(
        "Figure 5: single-request read latency (client IRL, coordinator FRK)",
        &["system", "view", "avg_ms", "p99_ms"],
    );
    let systems = [
        System::C(1),
        System::C(2),
        System::C(3),
        System::Cc(2),
        System::Cc(3),
    ];
    let mut outs = Vec::new();
    for (i, sys) in systems.into_iter().enumerate() {
        let out = run(sys, 42 + i as u64, seconds);
        if let Some((avg, p99)) = out.prelim {
            table.row(vec![sys.label(), "preliminary".into(), f2(avg), f2(p99)]);
        }
        table.row(vec![
            sys.label(),
            "final".into(),
            f2(out.fin.0),
            f2(out.fin.1),
        ]);
        outs.push(out);
    }
    table.print();
    table.write_csv("fig5_single_request");
    println!(
        "\nExpected shape (paper): prelim ~= C1 ~= 20ms; CC2 final ~= C2 ~= 40ms \
         (gap = FRK-IRL RTT); CC3 final ~= C3 with a much larger gap (FRK-VRG)."
    );
    // The paper's claim: a preliminary costs what a weak read costs, and
    // asking for it does not slow the final view down.
    let within_5pct = |a: f64, b: f64| (a / b - 1.0).abs() < 0.05;
    let (c1, c2) = (outs[0].fin.0, outs[1].fin.0);
    for cc in &outs[3..] {
        let prelim = cc.prelim.expect("CC reads have a preliminary").0;
        assert!(within_5pct(prelim, c1), "preliminary {prelim} vs C1 {c1}");
    }
    let cc2 = outs[3].fin.0;
    assert!(within_5pct(cc2, c2), "CC2 final {cc2} vs C2 {c2}");
}
