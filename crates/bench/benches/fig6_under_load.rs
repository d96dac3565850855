//! Figure 6 — latency vs. throughput under YCSB load (workloads A, B, C).
//!
//! Setup (§6.2.1): replicas FRK/IRL/VRG; three clients, one per region,
//! each connected to a remote coordinator; `W = 1`, `R ∈ {1, 2}`; the IRL
//! client is reported. Each sweep point raises the number of closed-loop
//! client threads, tracing the latency/throughput curve to saturation.
//!
//! Paper's shape: C1 is fastest and saturates highest; C2 pays a quorum
//! RTT; CC2's preliminary tracks C1 latency while its final tracks C2, at
//! the same (slightly reduced, ~6%) throughput — the cost of preliminary
//! flushing at the coordinator.

use icg_bench::ring::{run_ring, RingSpec, System};
use icg_bench::{f1, f2, quick, Table};
use quorumstore::ReplicaConfig;
use simnet::SimDuration;
use ycsb::{Distribution, Workload};

fn main() {
    let (warmup_s, window_s) = if quick() { (2, 6) } else { (5, 20) };
    let thread_steps: Vec<u32> = if quick() {
        vec![4, 16, 48, 96]
    } else {
        vec![2, 4, 8, 16, 32, 48, 64, 96, 128]
    };
    type WorkloadCtor = fn(Distribution, u64) -> Workload;
    let workloads: Vec<(&str, WorkloadCtor)> = vec![
        ("A", Workload::a as WorkloadCtor),
        ("B", Workload::b),
        ("C", Workload::c),
    ];
    let systems = [System::C(1), System::C(2), System::Cc(2)];

    let mut table = Table::new(
        "Figure 6: latency vs throughput (IRL client; series per system)",
        &[
            "workload",
            "system",
            "threads",
            "tput_ops_s",
            "final_avg_ms",
            "final_p99_ms",
            "prelim_avg_ms",
        ],
    );

    for (wl_name, wl_fn) in &workloads {
        // Throughput per load point, per system (C1, C2, CC2).
        let mut tput = vec![Vec::new(); systems.len()];
        for (sys, tput) in systems.iter().zip(&mut tput) {
            for (i, threads) in thread_steps.iter().enumerate() {
                let workload = wl_fn(Distribution::ScrambledZipfian, 10_000).with_sizes(1_000, 100);
                let spec = RingSpec {
                    sys: *sys,
                    workload,
                    threads_per_client: *threads,
                    warmup: SimDuration::from_secs(warmup_s),
                    window: SimDuration::from_secs(window_s),
                    seed: 1000 + i as u64,
                    cfg: ReplicaConfig::default(),
                    drop_probability: 0.0,
                };
                let out = run_ring(&spec);
                tput.push(out.irl_throughput());
                let mut m = out.clients[0].clone();
                let prelim = if m.prelim_latency.is_empty() {
                    "-".to_string()
                } else {
                    f2(m.prelim_latency.mean().as_millis_f64())
                };
                table.row(vec![
                    wl_name.to_string(),
                    sys.label(),
                    threads.to_string(),
                    f1(out.irl_throughput()),
                    f2(m.final_latency.mean().as_millis_f64()),
                    f2(m.final_latency.p99().as_millis_f64()),
                    prelim,
                ]);
            }
        }
        // The paper's claim: flushing preliminaries costs a little
        // throughput (~6 %), never a lot.
        for ((c2, cc2), threads) in tput[1].iter().zip(&tput[2]).zip(&thread_steps) {
            assert!(
                *cc2 >= 0.90 * c2,
                "{wl_name}-{threads}: CC2 {cc2} ops/s vs C2 {c2}"
            );
        }
    }
    table.print();
    table.write_csv("fig6_under_load");
    println!(
        "\nExpected shape (paper): hockey-stick curves; C1 saturates highest; \
         CC2 throughput ~6% below C2 with prelim latency ~ C1 and final ~ C2."
    );
}
