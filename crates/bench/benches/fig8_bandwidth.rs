//! Figure 8 — client-link bandwidth efficiency (kB per operation).
//!
//! Setup (§6.2.1): the divergence benchmark's worst-case conditions (1 K
//! objects, Latest/Zipfian, 30–300 threads), comparing C1 (single weak
//! read), CC2 (ICG without optimization) and *CC2 (ICG with the
//! confirmation-message optimization).
//!
//! Paper's headline numbers: on workload A (high divergence) *CC2 costs
//! +27% over C1 while unoptimized CC2 costs +77%; on workload B the
//! optimization cuts the overhead from +90% to +15%.

use icg_bench::ring::{run_ring, RingSpec, System};
use icg_bench::{f2, pct, quick, Table};
use quorumstore::ReplicaConfig;
use simnet::SimDuration;
use ycsb::{Distribution, Workload};

/// Figure 8 runs under "the exact conditions we use in the divergence
/// benchmark" (§6.2.1), so it shares Figure 7's replica tuning.
fn divergence_cfg() -> ReplicaConfig {
    ReplicaConfig {
        read_service: SimDuration::from_micros(150),
        write_service: SimDuration::from_micros(150),
        peer_read_service: SimDuration::from_micros(90),
        peer_write_service: SimDuration::from_micros(80),
        prelim_flush_extra: SimDuration::from_micros(10),
        ..ReplicaConfig::default()
    }
}

fn main() {
    let (warmup_s, window_s) = if quick() { (2, 6) } else { (5, 20) };
    let totals: Vec<u32> = if quick() {
        vec![30, 300]
    } else {
        vec![30, 60, 120, 180, 240, 300]
    };
    let mut table = Table::new(
        "Figure 8: client bandwidth per op (kB/op), C1 vs CC2 vs *CC2",
        &[
            "workload",
            "distribution",
            "total_threads",
            "C1",
            "CC2",
            "*CC2",
            "CC2_overhead",
            "*CC2_overhead",
            "divergence",
        ],
    );
    let cases: Vec<(&str, f64, Distribution, &str)> = vec![
        ("A", 0.5, Distribution::Latest, "Latest"),
        ("A", 0.5, Distribution::ScrambledZipfian, "Zipfian"),
        ("B", 0.95, Distribution::Latest, "Latest"),
        ("B", 0.95, Distribution::ScrambledZipfian, "Zipfian"),
    ];
    for (wl_name, read_prop, dist, dist_name) in &cases {
        for (i, total) in totals.iter().enumerate() {
            let run_one = |sys: System, salt: u64| {
                let mut workload = Workload::a(*dist, 1_000).with_sizes(1_000, 100);
                workload.read_proportion = *read_prop;
                run_ring(&RingSpec {
                    sys,
                    workload,
                    threads_per_client: total / 3,
                    warmup: SimDuration::from_secs(warmup_s),
                    window: SimDuration::from_secs(window_s),
                    seed: 8100 + i as u64 + salt * 131,
                    cfg: divergence_cfg(),
                    drop_probability: 0.0,
                })
            };
            let c1 = run_one(System::C(1), 1);
            let cc2 = run_one(System::Cc(2), 2);
            let opt = run_one(System::CcOpt(2), 3);
            let (b1, b2, b3) = (c1.kb_per_op(), cc2.kb_per_op(), opt.kb_per_op());
            // The paper's claim: confirmations in place of identical
            // final views cut the bandwidth ICG costs.
            assert!(
                b3 < b2,
                "{wl_name}-{dist_name}-{total}: *CC2 {b3} kB/op vs CC2 {b2}"
            );
            table.row(vec![
                wl_name.to_string(),
                dist_name.to_string(),
                total.to_string(),
                f2(b1),
                f2(b2),
                f2(b3),
                pct(b2 / b1 - 1.0),
                pct(b3 / b1 - 1.0),
                pct(opt.all.divergence()),
            ]);
        }
    }
    table.print();
    table.write_csv("fig8_bandwidth");
    println!(
        "\nExpected shape (paper, workload A-Latest): CC2 ~ +77% over C1; \
         *CC2 ~ +27%; workload B: +90% cut to +15%."
    );
}
