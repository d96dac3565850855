//! The latency ladder: each rung measures one layer alone, outside
//! in, so that the end-to-end number can be attributed.
//!
//! TCP rungs telescope: `os.loopback_rtt_us` is the floor with no
//! program code at all (a `std::net` echo with the same frame sizes),
//! `net.rtt_weak_us` adds one client↔coordinator hop through the
//! program, `net.rtt_strong_us` adds the peer quorum, and
//! `net.rtt_icg_final_us` adds the preliminary flush — all with one
//! connection, so nothing queues. `net.rtt_icg_final_2c_us` repeats the
//! last rung with the workload's two connections sharing the core. The
//! differences are what each step costs, and what is left of
//! `tcp_pingpong_b`'s `final_p50_us` after them (the YCSB-B mix and the
//! zipfian keys) is printed as `ladder.unattributed_us`.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::adapter::{self, Payload};
use crate::stats::median;
use crate::tcp::{rung_p50_us, Deployment, ReadMode};

/// Takes samples until `budget` is spent (at least three) and returns
/// their median.
fn median_over(budget: Duration, mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < budget {
        samples.push(sample());
    }
    median(&mut samples).unwrap_or(0.0)
}

/// Runs `f(batch)` until `budget` is spent and returns the median
/// nanoseconds per iteration over the batches. `f` returns a value
/// derived from its work so the optimiser cannot delete it.
fn ns_per_iter(budget: Duration, batch: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    // The first batch warms caches and the allocator; it is not timed.
    black_box(f(batch));
    median_over(budget, || {
        let t = Instant::now();
        black_box(f(black_box(batch)));
        t.elapsed().as_nanos() as f64 / batch as f64
    })
}

/// `core.*`: the library's own cost per invocation and per speculation.
pub fn core_rungs(budget: Duration) -> Vec<(&'static str, f64)> {
    vec![
        (
            "core.invoke_inline_ns",
            ns_per_iter(budget, 20_000, adapter::core_invoke_inline),
        ),
        (
            "core.speculate_confirmed_ns",
            ns_per_iter(budget, 20_000, |n| adapter::core_speculate(n, false)),
        ),
        (
            "core.speculate_misspeculated_ns",
            ns_per_iter(budget, 20_000, |n| adapter::core_speculate(n, true)),
        ),
    ]
}

/// `net.wire.*` and `net.frame.*`: encoding and decoding the seven
/// messages of one ICG read, for both payloads.
pub fn wire_rungs(budget: Duration) -> Vec<(&'static str, f64)> {
    let opaque = adapter::icg_read_messages(Payload::Opaque, false);
    let ids = adapter::icg_read_messages(Payload::Ids, false);
    let codec = |msgs: &[adapter::WireMsg]| {
        ns_per_iter(budget, 2_000, |n| {
            (0..n)
                .map(|_| adapter::wire_codec_round(black_box(msgs)) as u64)
                .sum()
        })
    };
    let final_reply = ids.last().expect("an ICG read ends with its final reply");
    let (mut frame, mut body) = (Vec::new(), Vec::new());
    let frame_ns = ns_per_iter(budget, 5_000, |n| {
        (0..n)
            .filter(|_| adapter::frame_round(black_box(final_reply), &mut frame, &mut body))
            .count() as u64
    });
    vec![
        ("net.wire.codec_ns_per_read_opaque", codec(&opaque)),
        ("net.wire.codec_ns_per_read_ids128", codec(&ids)),
        (
            "net.wire.bytes_per_read_opaque",
            adapter::framed_bytes(&opaque) as f64,
        ),
        (
            "net.wire.bytes_per_read_ids128",
            adapter::framed_bytes(&ids) as f64,
        ),
        ("net.frame.roundtrip_ns_ids128", frame_ns),
    ]
}

/// `simnet.*` and `quorumstore.*`: the bare event engine, and one
/// simulated ICG read through the simulated quorum store.
pub fn sim_rungs(budget: Duration, seed: u64) -> Vec<(&'static str, f64)> {
    vec![
        (
            "simnet.pingpong_ns_per_event",
            median_over(budget, || {
                let (events, secs) = adapter::simnet_pingpong(100_000, seed);
                secs * 1e9 / events.max(1) as f64
            }),
        ),
        (
            "quorumstore.ns_per_sim_op",
            median_over(budget, || {
                adapter::quorumstore_sim_ops(2_000, seed) * 1e9 / 2_000.0
            }),
        ),
    ]
}

/// `os.loopback_rtt_us`: a blocking `std::net` echo over loopback with
/// `TCP_NODELAY`, `request` bytes out and `reply` bytes back per round
/// trip — what the kernel alone charges for one hop of this size.
fn loopback_rtt_us(budget: Duration, request: usize, reply: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let (mut inbuf, outbuf) = (vec![0u8; request], vec![0x5a; reply]);
        // Ends with an error when the client hangs up.
        loop {
            s.read_exact(&mut inbuf)?;
            s.write_all(&outbuf)?;
        }
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let (outbuf, mut inbuf) = (vec![0xa5u8; request], vec![0u8; reply]);
    let mut rtts = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget + budget / 5 {
        let t = Instant::now();
        s.write_all(&outbuf)?;
        s.read_exact(&mut inbuf)?;
        if start.elapsed() >= budget / 5 {
            rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(s);
    // The echo thread's only exit is the EOF error just caused.
    let _ = echo.join().expect("echo thread panicked");
    Ok(median(&mut rtts).unwrap_or(0.0))
}

/// The TCP rungs, one invocation outstanding per connection, `secs`
/// each; `final_p50_us` is the workload's own median, which the rungs
/// are asked to account for.
pub fn net_rungs(
    deployment: &Deployment,
    secs: f64,
    final_p50_us: f64,
) -> Vec<(&'static str, f64)> {
    let opaque = adapter::icg_read_messages(Payload::Opaque, false);
    let request = adapter::framed_bytes(&opaque[..1]);
    let reply = adapter::framed_bytes(&opaque[opaque.len() - 1..]);
    let floor = loopback_rtt_us(Duration::from_secs_f64(secs), request, reply).unwrap_or(0.0);
    let weak = rung_p50_us(deployment, 1, false, ReadMode::Weak, secs);
    let strong = rung_p50_us(deployment, 1, false, ReadMode::Strong, secs);
    let icg = rung_p50_us(deployment, 1, false, ReadMode::Icg, secs);
    let write = rung_p50_us(deployment, 1, true, ReadMode::Strong, secs);
    // The workload has two connections taking turns on one core; the
    // same rung with both shows what waiting for the other one costs.
    let icg_shared = rung_p50_us(deployment, 2, false, ReadMode::Icg, secs);
    vec![
        ("os.loopback_rtt_us", floor),
        ("net.rtt_weak_us", weak),
        ("net.rtt_strong_us", strong),
        ("net.rtt_icg_final_us", icg),
        ("net.rtt_write_us", write),
        ("net.client_hop_us", weak - floor),
        ("net.quorum_hop_us", strong - weak),
        ("net.icg_extra_us", icg - strong),
        ("net.rtt_icg_final_2c_us", icg_shared),
        ("net.second_client_us", icg_shared - icg),
        ("ladder.unattributed_us", final_p50_us - icg_shared),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_iter_scales_with_the_work() {
        let spin = |n: u64| (0..n * 50).fold(0u64, |a, i| black_box(a ^ i));
        let small = ns_per_iter(Duration::from_millis(30), 1_000, spin);
        let big = ns_per_iter(Duration::from_millis(30), 1_000, |n| spin(n * 8));
        assert!(small > 0.0 && big > small * 3.0, "{small} vs {big}");
    }

    #[test]
    fn loopback_echo_round_trips_and_shuts_down() {
        let rtt = loopback_rtt_us(Duration::from_millis(50), 40, 60).unwrap();
        assert!(rtt > 0.0 && rtt < 50_000.0, "{rtt} us");
    }
}
