//! Figure 7 — divergence of preliminary from final (correct) views.
//!
//! Setup (§6.2.1): Correctable Cassandra (CC2) on a small 1 K-object
//! dataset, YCSB workloads A and B under the Latest and (scrambled)
//! Zipfian request distributions, with 30–300 total client threads across
//! the three region clients.
//!
//! Paper's shape: divergence grows with load and write ratio; workload A
//! under Latest reaches ~25%, Zipfian stays much lower, and workload B
//! (5% writes) stays in the low single digits.

use icg_bench::ring::{run_ring, RingSpec, System};
use icg_bench::{pct, quick, Table};
use quorumstore::ReplicaConfig;
use simnet::SimDuration;
use ycsb::{Distribution, Workload};

/// The divergence study needs the staleness to come from replication lag
/// and hot-key contention rather than from deep host saturation, so the
/// replicas run with lighter per-op service costs than the load study.
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
        vec![30, 120, 300]
    } else {
        vec![30, 60, 120, 180, 240, 300]
    };
    let mut table = Table::new(
        "Figure 7: % divergence of preliminary vs final views (CC2, 1K objects)",
        &["workload", "distribution", "total_threads", "divergence"],
    );
    let cases: Vec<(&str, f64, Distribution, &str)> = vec![
        ("A", 0.5, Distribution::Latest, "Latest"),
        ("A", 0.5, Distribution::ScrambledZipfian, "Zipfian"),
        ("B", 0.95, Distribution::Latest, "Latest"),
        ("B", 0.95, Distribution::ScrambledZipfian, "Zipfian"),
    ];
    // Divergence per load point, per series.
    let mut series = Vec::new();
    for (wl_name, read_prop, dist, dist_name) in &cases {
        let mut divergence = Vec::new();
        for (i, total) in totals.iter().enumerate() {
            let mut workload = Workload::a(*dist, 1_000).with_sizes(1_000, 100);
            workload.read_proportion = *read_prop;
            let spec = RingSpec {
                sys: System::Cc(2),
                workload,
                threads_per_client: total / 3,
                warmup: SimDuration::from_secs(warmup_s),
                window: SimDuration::from_secs(window_s),
                seed: 7000 + i as u64,
                cfg: divergence_cfg(),
                drop_probability: 0.0,
            };
            let out = run_ring(&spec);
            divergence.push(out.all.divergence());
            table.row(vec![
                wl_name.to_string(),
                dist_name.to_string(),
                total.to_string(),
                pct(out.all.divergence()),
            ]);
        }
        assert!(
            divergence.windows(2).all(|w| w[0] < w[1]),
            "{wl_name}-{dist_name}: divergence must grow with load, got {divergence:?}"
        );
        series.push(divergence);
    }
    // The paper's claim: the write-heavy, recency-skewed workload at full
    // load diverges most; the read-mostly one at light load hardly at all.
    let (a_latest, b_zipfian) = (&series[0], &series[3]);
    assert!(a_latest[totals.len() - 1] > b_zipfian[0]);
    table.print();
    table.write_csv("fig7_divergence");
    println!(
        "\nExpected shape (paper): A-Latest highest (up to ~25%), then A-Zipfian; \
         workload B variants stay low; divergence grows with thread count."
    );
}
