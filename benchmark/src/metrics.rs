//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds — the same table `BENCHMARK.json` holds (a
//! test keeps the two identical) — and the result line built from it.

use crate::json::{obj, Json};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// A declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Workload names (permanent) and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "tcp_pingpong_b",
        "Latency regime: 3-replica loopback TCP, 2 closed-loop clients with 1 op outstanding, YCSB-B; every op is ~7 tiny frames and ~6 thread wake-ups, so wake-ups, syscalls and hops dominate",
    ),
    (
        "tcp_pipelined_a_ids",
        "Throughput regime: same cluster, 2 connections x 16 outstanding, YCSB-A, 1 KiB Value::Ids payloads, *CC confirms; per-message CPU (wire, frame, ReplicaCore) and write batching dominate",
    ),
    (
        "sim_ads_speculation",
        "No net code: AdSystem over SimStore::ec2 under LoadDriver, baseline leg then speculative leg; simnet engine, sim quorumstore, core speculate and apps do all the work; a net change must show nothing",
    ),
    (
        "sim_cbcast_mix",
        "The three CBCAST engines ROADMAP wants merged: SimCausal, SimSpecStore and SimCrdtStore+SimEscrow with the FRK-VRG link cut every 4th round so retransmit, gap and anti-entropy paths do work",
    ),
];

/// The end-to-end metrics, printed by every untraced run. Wall-clock
/// and CPU times are read at quiet speed (`yardstick.rs`), which keeps
/// their run-to-run spread at a few percent on the reference VM; every
/// bound is nevertheless 0.25, for hosts busier than that one was
/// (README "Noise control"). `final_p99_us` is not gated: its spread
/// reached 30 %; the traced run prints it.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("prelim_p50_us", "us", Lower, 0.25),
    e2e("final_p50_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The per-layer metrics, printed by every traced run. A workload that
/// does not exercise a layer prints 0 for it (`README.md` has the table
/// of which workload owns which metric).
pub const PER_LAYER: [MetricSpec; 55] = [
    // CPU by thread group and OS counters over the untraced window.
    layer("net.server.cpu_us_per_op", "us", Lower),
    layer("net.client.cpu_us_per_op", "us", Lower),
    layer("bench.cpu_us_per_op", "us", Lower),
    layer("net.server.main_busy_share_max", "share", Lower),
    layer("os.ctx_switches_per_op", "count", Lower),
    layer("os.sys_cpu_share", "share", Lower),
    layer("os.lo_packets_per_op", "count", Lower),
    layer("os.lo_bytes_per_op", "B", Lower),
    layer("client.attempted", "count", Higher),
    layer("client.completed", "count", Higher),
    layer("client.timeouts", "count", Lower),
    layer("client.unavailable", "count", Lower),
    layer("host.slowness", "share", Lower),
    layer("net.gap_p50_us", "us", Lower),
    layer("final_p99_us", "us", Lower),
    // Spans.
    layer("core.submit_p50_ns", "ns", Lower),
    layer("bench.wake_p50_us", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    // Latency ladder (tcp_pingpong_b).
    layer("os.loopback_rtt_us", "us", Lower),
    layer("net.rtt_weak_us", "us", Lower),
    layer("net.rtt_strong_us", "us", Lower),
    layer("net.rtt_icg_final_us", "us", Lower),
    layer("net.rtt_write_us", "us", Lower),
    layer("net.client_hop_us", "us", Lower),
    layer("net.quorum_hop_us", "us", Lower),
    layer("net.icg_extra_us", "us", Lower),
    layer("net.rtt_icg_final_2c_us", "us", Lower),
    layer("net.second_client_us", "us", Lower),
    layer("ladder.unattributed_us", "us", Lower),
    // Codec rungs (tcp_pipelined_a_ids).
    layer("net.wire.codec_ns_per_read_opaque", "ns", Lower),
    layer("net.wire.codec_ns_per_read_ids128", "ns", Lower),
    layer("net.wire.bytes_per_read_opaque", "B", Lower),
    layer("net.wire.bytes_per_read_ids128", "B", Lower),
    layer("net.frame.roundtrip_ns_ids128", "ns", Lower),
    // Core and simulator rungs (sim_ads_speculation).
    layer("core.invoke_inline_ns", "ns", Lower),
    layer("core.speculate_confirmed_ns", "ns", Lower),
    layer("core.speculate_misspeculated_ns", "ns", Lower),
    layer("simnet.pingpong_ns_per_event", "ns", Lower),
    layer("quorumstore.ns_per_sim_op", "ns", Lower),
    // Exact per-seed virtual-time results (sim_ads_speculation).
    layer("apps.sim_baseline_mean_ms", "ms", Lower),
    layer("apps.sim_final_mean_ms", "ms", Lower),
    layer("apps.sim_prelim_mean_ms", "ms", Lower),
    layer("apps.speculation_gain_share", "share", Higher),
    layer("apps.divergence_share", "share", Lower),
    layer("quorumstore.sim_bytes_per_op", "B", Lower),
    // Per-engine speed (sim_cbcast_mix).
    layer("causalstore.ops_per_wall_s", "1/s", Higher),
    layer("specstore.ops_per_wall_s", "1/s", Higher),
    layer("crdt.ops_per_wall_s", "1/s", Higher),
    layer("crdt.escrow_ops_per_wall_s", "1/s", Higher),
    layer("sim.check_share", "share", Lower),
    // Exact per-seed results (sim_cbcast_mix).
    layer("causalstore.sim_causal_mean_ms", "ms", Lower),
    layer("causalstore.sim_strong_mean_ms", "ms", Lower),
    layer("specstore.applied_updates", "count", Higher),
    layer("crdt.delivered_effects", "count", Higher),
    layer("crdt.escrow_sold", "count", Higher),
];

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Every output was checked and right.
    pub correct: bool,
    /// Invocations submitted.
    pub attempted: u64,
    /// Invocations that failed, timed out or came back wrong.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Why `correct` is false, and diagnostics (printed, not gated).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records several.
    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.values.extend(values);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The declared metrics of a traced or untraced run, in declared
    /// order. An end-to-end metric that was not measured (or is not a
    /// finite number) is an error; a per-layer metric that was not
    /// measured belongs to another workload and reads 0.
    pub fn declared(&self, trace: bool) -> Result<Vec<(MetricSpec, f64)>, String> {
        let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
        specs
            .iter()
            .map(|spec| match self.value(spec.name) {
                Some(v) if v.is_finite() => Ok((*spec, v)),
                Some(v) => Err(format!("metric {} is not a number: {v}", spec.name)),
                None if trace => Ok((*spec, 0.0)),
                None => Err(format!("metric {} was not measured", spec.name)),
            })
            .collect()
    }

    /// The result line.
    pub fn to_json(&self, trace: bool) -> Result<Json, String> {
        let metrics = self.declared(trace)?.into_iter().map(|(spec, v)| {
            (
                spec.name,
                obj([
                    ("value", Json::Num(v)),
                    ("unit", Json::Str(spec.unit.into())),
                ]),
            )
        });
        Ok(obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_metrics(declared: &Json, specs: &[MetricSpec]) {
        let declared = declared.as_arr().unwrap();
        assert_eq!(declared.len(), specs.len());
        for (d, s) in declared.iter().zip(specs) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(s.name));
            assert_eq!(
                d.get("unit").and_then(Json::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            let better = match s.better {
                Higher => "higher",
                Lower => "lower",
            };
            assert_eq!(
                d.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                s.name
            );
            assert_eq!(d.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_this_table() {
        let b = benchmark_json();
        let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (d, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(d.get("why").and_then(Json::as_str), Some(why));
        }
        check_metrics(b.get("end_to_end").unwrap(), &END_TO_END);
        check_metrics(b.get("per_layer").unwrap(), &PER_LAYER);
        assert_eq!(
            b.get("paths").map(Json::to_string).as_deref(),
            Some(r#"["benchmark"]"#)
        );
        assert_eq!(
            b.get("command").map(Json::to_string).as_deref(),
            Some(r#"["bash", "benchmark/run.sh"]"#)
        );
    }

    #[test]
    fn the_table_obeys_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                name_ok(spec.name) && names.insert(spec.name),
                "{}",
                spec.name
            );
            assert!(unit_ok(spec.unit), "{}", spec.name);
            assert!(
                spec.bound.is_none_or(|b| b > 0.0 && b <= 0.25),
                "{}",
                spec.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_an_error_and_a_layer_reads_zero() {
        let mut out = RunOutput {
            correct: true,
            attempted: 10,
            ..RunOutput::default()
        };
        out.set("core.invoke_inline_ns", 128.5);
        assert!(out.to_json(false).is_err());
        let line = out.to_json(true).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), PER_LAYER.len());
        let v = |n| metrics.get(n).unwrap().get("value").and_then(Json::as_f64);
        assert_eq!(v("core.invoke_inline_ns"), Some(128.5));
        assert_eq!(v("net.rtt_weak_us"), Some(0.0));
        for spec in END_TO_END {
            out.set(spec.name, 1.5);
        }
        let line = out.to_json(false).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        out.set("setup_s", f64::NAN);
        assert!(out.to_json(false).is_err());
    }
}
