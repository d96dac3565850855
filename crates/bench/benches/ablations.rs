//! Ablations of the design choices DESIGN.md calls out (not a paper
//! figure — these quantify *why* the system is built the way it is).
//!
//! 1. **Message loss**: with reliable asynchronous replication the
//!    preliminary diverges from the final only inside the propagation
//!    window; lost `PeerWrite`s leave replicas stale until the next write
//!    or until a quorum read through them adopts the winner.
//! 2. **Preliminary flushing cost**: CC's server-side ICG charges the
//!    coordinator extra work per ICG read (the paper observes ~6%
//!    throughput loss). Sweeping the flush cost shows the sensitivity.
//! 3. **Confirmation-message size**: *CC replaces identical final views
//!    with a confirmation; its benefit depends on how small the
//!    confirmation actually is relative to the record.

use icg_bench::ring::{run_ring, RingSpec, System};
use icg_bench::{f1, f2, pct, quick, Table};
use quorumstore::ReplicaConfig;
use simnet::SimDuration;
use ycsb::{Distribution, Workload};

fn base_cfg() -> ReplicaConfig {
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
    let (warmup, window) = if quick() {
        (SimDuration::from_secs(2), SimDuration::from_secs(5))
    } else {
        (SimDuration::from_secs(5), SimDuration::from_secs(15))
    };

    // ----- Ablation 1: message loss --------------------------------------
    let mut t1 = Table::new(
        "Ablation: message loss (workload B-Latest, 1K objects, 120 threads)",
        &["msg_loss", "divergence", "kB_per_op", "tput_ops_s"],
    );
    for loss in [0.0f64, 0.10] {
        let out = run_ring(&RingSpec {
            sys: System::Cc(2),
            workload: Workload::b(Distribution::Latest, 1_000).with_sizes(1_000, 100),
            threads_per_client: 40,
            warmup,
            window,
            seed: 21,
            cfg: base_cfg(),
            drop_probability: loss,
        });
        t1.row(vec![
            pct(loss),
            pct(out.all.divergence()),
            f2(out.kb_per_op()),
            f1(out.all.completed() as f64 / window.as_secs_f64()),
        ]);
    }
    t1.print();
    t1.write_csv("ablation_message_loss");

    // ----- Ablation 2: preliminary-flush cost ----------------------------
    let mut t2 = Table::new(
        "Ablation: coordinator cost of preliminary flushing (workload C, saturation)",
        &["flush_extra_us", "tput_ops_s", "vs_no_flush"],
    );
    let mut baseline_tput = None;
    for extra_us in [0u64, 10, 30, 100, 300] {
        let cfg = ReplicaConfig {
            prelim_flush_extra: SimDuration::from_micros(extra_us),
            ..ReplicaConfig::default()
        };
        let out = run_ring(&RingSpec {
            sys: System::Cc(2),
            workload: Workload::c(Distribution::ScrambledZipfian, 10_000).with_sizes(1_000, 100),
            threads_per_client: 96,
            warmup,
            window,
            seed: 22,
            cfg,
            drop_probability: 0.0,
        });
        let tput = out.all.completed() as f64 / window.as_secs_f64();
        let base = *baseline_tput.get_or_insert(tput);
        t2.row(vec![extra_us.to_string(), f1(tput), pct(tput / base - 1.0)]);
    }
    t2.print();
    t2.write_csv("ablation_flush_cost");

    // ----- Ablation 3: value size vs confirmation benefit ----------------
    let mut t3 = Table::new(
        "Ablation: *CC confirmation benefit vs record size (workload B-Zipfian)",
        &["record_bytes", "CC2_kB_op", "*CC2_kB_op", "saving"],
    );
    for record in [100usize, 400, 1_000, 4_000] {
        let run_one = |sys: System| {
            run_ring(&RingSpec {
                sys,
                workload: Workload::b(Distribution::ScrambledZipfian, 1_000)
                    .with_sizes(record, 100),
                threads_per_client: 20,
                warmup,
                window,
                seed: 23,
                cfg: base_cfg(),
                drop_probability: 0.0,
            })
        };
        let cc = run_one(System::Cc(2));
        let opt = run_one(System::CcOpt(2));
        t3.row(vec![
            record.to_string(),
            f2(cc.kb_per_op()),
            f2(opt.kb_per_op()),
            pct(1.0 - opt.kb_per_op() / cc.kb_per_op()),
        ]);
    }
    t3.print();
    t3.write_csv("ablation_confirmation");
    println!(
        "\nTakeaways: lost replication messages widen the staleness window that \
         preliminaries expose (and cost throughput in timeouts); \
         flushing cost linearly erodes CC throughput (the paper's ~6%); the \
         confirmation optimization's benefit grows with record size."
    );
}
