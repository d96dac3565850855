//! A simulated store is a function of `(seed, fault plan, workload)` and
//! of nothing else — not of the hasher seed an unordered map would pick
//! up, and not of which revision of the gateway shell drives it.
//!
//! One table, six stores, one scenario: FRK↔VRG is cut while a first
//! batch (with a client deadline, so the cut shows as timeouts) runs,
//! then healed under four more rounds and a tail of reads. (A seventh
//! row runs three clients on one quorum store, closed-loop, under the
//! same cut: the multi-client shell; an eighth four ticket retailers on
//! one queue, thinking between customers: the shell's wake-ups.) Each
//! store is
//! run twice in one process and must record the same [`History`] event
//! for event; each run is then reduced to three digests that are pinned
//! below:
//!
//! - `values` — ops, levels, values, errors and their order, no stamps;
//! - `stamped` — the same plus every sim-clock stamp;
//! - `extras` — what the store itself exposes about virtual time and
//!   replica state (gateway timings, applied logs, SEC logs, ledgers).
//!
//! Most pinned numbers were captured on the commit *before* the stores
//! moved onto `simnet::SimHost` (PR 13's tree), so a match shows the
//! move is send-for-send identical: same RNG draws, same virtual time.
//! The table says which ([`Pin::Parent`]): that tree had a clock mirror
//! only on `SimStore` and `SimSpecStore`, so the other four `stamped`
//! digests are this tree's own, `SimQueue`'s virtual time deliberately
//! differs (its `settle` policy changed), and `SimSpecStore`'s row was
//! re-pinned when its replica became a host of the served spec core.

use std::fmt::Debug;

use icg::apps::{open_retailers, start_ycsb_users, TicketOffice};
use icg::causalstore::{CacheOp, SimCausal};
use icg::consensusq::{QueueOp, ServerConfig, SimQueue};
use icg::correctables::spec::{CounterSpec, CtrOp};
use icg::correctables::{Binding, Client, History, HistoryEvent, LevelSelection, RecordingBinding};
use icg::crdt::{CrdtOp, EscrowOp, SimCrdtStore, SimEscrow};
use icg::quorumstore::{Key, ReplicaConfig, SimStore, StoreOp, Value};
use icg::simnet::{Faults, SimDuration, SimTime, SiteId};
use icg::specstore::SimSpecStore;
use icg::ycsb::{Distribution, Workload};

/// What one run leaves behind, as printable lines.
#[derive(PartialEq, Debug)]
struct Run {
    values: Vec<String>,
    stamped: Vec<String>,
    extras: Vec<String>,
}

/// FNV-1a over the lines (dependency-free, stable across platforms).
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn history_lines<Op: Clone + Debug, T: Clone + Debug>(
    h: &History<Op, T>,
    stamped: bool,
) -> Vec<String> {
    let at = |ns: u64| {
        if stamped {
            format!("@{ns} ")
        } else {
            String::new()
        }
    };
    h.snapshot()
        .iter()
        .map(|inv| {
            let events: Vec<String> = inv
                .events
                .iter()
                .map(|e| match e {
                    HistoryEvent::View {
                        at_nanos,
                        level,
                        value,
                        closing,
                        ..
                    } => format!(
                        "{}{level}={value:?}{}",
                        at(*at_nanos),
                        if *closing { "!" } else { "" }
                    ),
                    HistoryEvent::Failed {
                        at_nanos, error, ..
                    } => {
                        format!("{}failed({error:?})", at(*at_nanos))
                    }
                })
                .collect();
            format!(
                "{}{:?} {:?} -> {}",
                at(inv.at_nanos),
                inv.op,
                inv.levels,
                events.join(", ")
            )
        })
        .collect()
}

fn cut_frk_vrg() -> Faults {
    Faults::none().with_partition(
        SiteId(0),
        SiteId(2),
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(1 << 30),
    )
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// The scenario. `op(phase, i)` picks the i-th operation of a phase
/// (0 = under the cut, 1..=4 = healed rounds, 5 = tail) and how to
/// invoke it: 0 weak, 1 strong, anything else all levels.
#[allow(clippy::too_many_arguments)]
fn scenario<B, F>(
    binding: B,
    history: History<B::Op, B::Val>,
    set_faults: impl Fn(Faults),
    set_client_timeout: impl Fn(SimDuration),
    settle: impl Fn(),
    advance: impl Fn(SimDuration),
    op: F,
    extras: impl FnOnce() -> Vec<String>,
) -> Run
where
    B: Binding + 'static,
    B::Op: Clone + Debug + Send + 'static,
    B::Val: Clone + Debug + Send + 'static,
    F: Fn(u64, u64) -> (B::Op, u8),
{
    let client = Client::new(RecordingBinding::new(binding, history.clone()));
    let invoke = |phase: u64, i: u64| {
        let (o, how) = op(phase, i);
        match how {
            0 => drop(client.invoke_weak(o)),
            1 => drop(client.invoke_strong(o)),
            _ => drop(client.invoke(o)),
        }
    };
    set_client_timeout(ms(400));
    set_faults(cut_frk_vrg());
    for i in 0..12 {
        invoke(0, i);
    }
    settle();
    advance(ms(50));
    set_faults(Faults::none());
    for round in 1..=4 {
        for i in 0..6 {
            invoke(round, i);
        }
        settle();
        advance(ms(120));
    }
    advance(ms(2_000));
    for i in 0..4 {
        invoke(5, i);
        settle();
    }
    Run {
        values: history_lines(&history, false),
        stamped: history_lines(&history, true),
        extras: extras(),
    }
}

fn lines_of<T: Debug>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|t| format!("{t:?}")).collect()
}

fn run_store(seed: u64) -> Run {
    let s = SimStore::ec2(ReplicaConfig::default(), 2, true, "IRL", 0, seed);
    s.preload((0..4).map(|k| (Key::plain(k), Value::Opaque(100))));
    let key = |i: u64| Key::plain(i % 4);
    scenario(
        s.binding(),
        History::with_clock(s.clock()),
        |f| s.set_faults(f),
        |d| s.set_client_timeout(d),
        || s.settle(),
        |d| s.advance(d),
        |phase, i| match (phase, i % 3) {
            (5, _) => (StoreOp::Read(key(i)), 2),
            (_, 0) => (
                StoreOp::Write(key(i), Value::Opaque((10 * phase + i) as u32)),
                1,
            ),
            (_, 1) => (StoreOp::Read(key(i)), 2),
            _ => (StoreOp::Read(key(i)), 0),
        },
        || lines_of(s.timings()),
    )
}

/// Three clients on one deployment — the figure harnesses' CC2 ring:
/// IRL→FRK, FRK→VRG, VRG→IRL, ten closed-loop YCSB-A users each — for
/// 2 s under the cut. Their three histories, in client order, are the
/// run; each is stamped by its own gateway's clock.
fn run_ring(seed: u64) -> Run {
    let irl = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, seed);
    irl.preload((0..64).map(|k| (Key::plain(k), Value::Opaque(100))));
    irl.set_faults(cut_frk_vrg());
    let clients = [
        irl.clone(),
        irl.client_at("FRK", 2),
        irl.client_at("VRG", 1),
    ];
    let workload = Workload::a(Distribution::Zipfian, 64);
    let histories: Vec<_> = clients
        .iter()
        .zip(0..)
        .map(|(c, i)| {
            c.set_client_timeout(ms(400));
            start_ycsb_users(c, &workload, &LevelSelection::All, 10, seed + i)
        })
        .collect();
    irl.advance(ms(2_000));
    let lines = |stamped| {
        histories
            .iter()
            .flat_map(|h| history_lines(h, stamped))
            .collect()
    };
    Run {
        values: lines(false),
        stamped: lines(true),
        extras: clients
            .iter()
            .map(|c| format!("{} ops, {} B", c.timings().len(), c.gateway_link_bytes()))
            .collect(),
    }
}

fn run_causal(seed: u64) -> Run {
    let s = SimCausal::ec2("VRG", "IRL", seed);
    for k in 0..4u64 {
        s.seed(&format!("k{k}"), 1, vec![k]);
    }
    let key = |i: u64| format!("k{}", i % 4);
    scenario(
        s.binding(),
        History::with_clock(s.clock()),
        |f| s.set_faults(f),
        |d| s.set_client_timeout(d),
        || s.settle(),
        |d| s.advance(d),
        |phase, i| match (phase, i % 3) {
            (5, _) => (CacheOp::Get(key(i)), 2),
            (_, 0) => (CacheOp::Put(key(i), vec![10 * phase + i]), 1),
            (_, 1) => (CacheOp::Get(key(i)), 2),
            _ => (CacheOp::Get(key(i)), 0),
        },
        || lines_of(s.timings()),
    )
}

fn run_queue(seed: u64) -> Run {
    let q = SimQueue::ec2(ServerConfig::default(), "IRL", "IRL", "FRK", seed);
    q.prefill(4, 20);
    scenario(
        q.binding(),
        History::with_clock(q.clock()),
        |f| q.set_faults(f),
        |d| q.set_client_timeout(d),
        || q.settle(),
        |d| q.advance(d),
        |_, i| match i % 3 {
            0 => (QueueOp::Enqueue { data_len: 20 }, 2),
            1 => (QueueOp::Dequeue, 2),
            _ => (QueueOp::Dequeue, 0),
        },
        || {
            let mut out = lines_of(q.lengths());
            out.push(format!("{:?}", q.now()));
            out
        },
    )
}

/// Four [`TicketOffice`] retailers on one deployment, 15 ms of think
/// time between customers, for 2 s under the cut, leader in FRK. Two
/// sit with the IRL follower and sell the stock out; two sit with the
/// VRG follower, which the cut severs from the leader: its state never
/// moves, so they keep confirming on preliminaries whose atomic dequeues
/// all run into the client deadline.
fn run_retailers(seed: u64) -> Run {
    let irl = SimQueue::ec2(ServerConfig::default(), "FRK", "IRL", "IRL", seed);
    irl.prefill(40, 20);
    irl.set_faults(cut_frk_vrg());
    let office = |q: &SimQueue, client| {
        q.set_client_timeout(ms(400));
        let office = TicketOffice::with_client(q.clone(), client);
        move || office.purchase_ticket()
    };
    let mut retailers = open_retailers(&irl, "IRL", 2, ms(15), office);
    let vrg = irl.client_at("VRG", "VRG");
    retailers.extend(open_retailers(&vrg, "VRG", 2, ms(15), office));
    for r in &retailers {
        r.queue().step(SimDuration::ZERO);
    }
    irl.advance(ms(2_000));
    let lines = |stamped| {
        retailers
            .iter()
            .flat_map(|r| history_lines(r.history(), stamped))
            .collect()
    };
    Run {
        values: lines(false),
        stamped: lines(true),
        extras: retailers
            .iter()
            .map(|r| {
                let (receipts, q) = (r.receipts(), r.queue());
                let bytes = q.gateway_link_bytes();
                format!(
                    "{} sold, last {:?}, {bytes} B",
                    receipts.len(),
                    receipts.last()
                )
            })
            .collect(),
    }
}

fn run_spec(seed: u64) -> Run {
    let s = SimSpecStore::ec2(CounterSpec, "IRL", seed);
    scenario(
        s.binding(),
        History::with_clock(s.clock()),
        |f| s.set_faults(f),
        |d| s.set_client_timeout(d),
        || s.settle(),
        |d| s.advance(d),
        |phase, i| match (phase, i % 3) {
            (5, _) => (CtrOp::Get(i % 4), 2),
            (_, 0) => (CtrOp::Add(i % 4, 1 + i), 0),
            (_, 1) => (CtrOp::Add(i % 4, 10 * phase + i), 2),
            _ => (CtrOp::Get(i % 4), 2),
        },
        || lines_of(s.applied_logs()),
    )
}

fn run_crdt(seed: u64) -> Run {
    let s = SimCrdtStore::ec2("IRL", seed);
    scenario(
        s.binding(),
        History::with_clock(s.clock()),
        |f| s.set_faults(f),
        |d| s.set_client_timeout(d),
        || s.settle(),
        |d| s.advance(d),
        |phase, i| match (phase, i % 4) {
            (5, _) => (CrdtOp::CtrGet(i % 4), 2),
            (_, 0) => (CrdtOp::CtrAdd(i % 4, (1 + i) as i64), 2),
            (_, 1) => (CrdtOp::SetAdd(i % 4, i % 8), 2),
            (_, 2) => (CrdtOp::SetRemove(i % 4, i % 8), 0),
            _ => (CrdtOp::CtrGet(i % 4), 2),
        },
        || {
            let mut out = lines_of(s.sec_logs());
            out.extend(lines_of(s.states()));
            out
        },
    )
}

fn run_escrow(seed: u64) -> Run {
    let s = SimEscrow::ec2(vec![6, 3, 3], "IRL", seed, false);
    scenario(
        s.binding(),
        History::with_clock(s.clock()),
        |f| s.set_faults(f),
        |d| s.set_client_timeout(d),
        || s.settle(),
        |d| s.advance(d),
        |phase, i| match (phase, i % 4) {
            (5, _) => (EscrowOp::Avail, 1),
            (_, 3) => (EscrowOp::Avail, 0),
            _ => (EscrowOp::Buy, 2),
        },
        || {
            let mut out = lines_of(s.states());
            out.push(format!("{:?}", s.now()));
            out
        },
    )
}

/// Where a pinned digest was captured.
#[derive(Clone, Copy)]
enum Pin {
    /// On the parent commit (PR 13), before the shell existed.
    Parent(u64),
    /// On this tree — the parent could not produce it (it had no clock
    /// mirror on this store) or deliberately differs; guards the future.
    Own(u64),
}
use Pin::{Own, Parent};

/// One row per scenario: the runner and its `[values, stamped, extras]`
/// digests at seed 11.
struct Row {
    name: &'static str,
    run: fn(u64) -> Run,
    /// Whether the cut keeps some strong view from arriving, so that the
    /// gateway's per-op deadline is what closes the operation.
    cut_times_out: bool,
    pins: [Pin; 3],
}

const SEED: u64 = 11;

#[rustfmt::skip]
const TABLE: &[Row] = &[
    Row { name: "quorumstore", run: run_store, cut_times_out: false,
          pins: [Parent(0xace5_9ac2_96d2_bec7), Parent(0x23ca_02f6_6cba_6bad), Parent(0x9a36_99b6_812a_7738)] },
    // The multi-client shell (`SimHost::add_gateway`), new with this
    // row. The FRK client's coordinator is across the cut, so its own
    // deadline is all that ever closes its operations.
    Row { name: "quorumstore-ring", run: run_ring, cut_times_out: true,
          pins: [Own(0x1172_90cf_30d1_db44), Own(0x587c_ee11_6211_8783), Own(0xdce7_8de3_3547_00e9)] },
    Row { name: "causalstore", run: run_causal, cut_times_out: false,
          pins: [Parent(0x6a51_a0da_6a83_bdf0), Own(0x19a8_ea5d_a13d_3ad7), Parent(0xcbf2_6c68_543c_08fc)] },
    // `SimQueue::settle` used to run the engine until idle; it now runs
    // the same 5 ms slices as the other five. Values and levels are the
    // parent's. Virtual time is not: trailing Zab commit traffic now
    // overlaps the next batch, so latency draws land on different
    // messages — one of the 40 gateway timings moved (20.80 → 20.96 ms).
    // The queue's client no longer keeps timings (a latency is read off
    // the history, which `stamped` pins), so `extras` hashes what its
    // servers hold at the end and the instant the run ends; `values`
    // and `stamped` kept their pins through that change.
    Row { name: "consensusq", run: run_queue, cut_times_out: false,
          pins: [Parent(0xe591_f329_9424_2d56), Own(0xeaf5_a1fe_c0a9_f45c), Own(0xc465_df97_6a69_86b0)] },
    // Several queue clients (`SimQueue::client_at`) and the shell's
    // wake-ups (`SimHost::after`, the retailers' think time), new with
    // this row.
    Row { name: "consensusq-retailers", run: run_retailers, cut_times_out: true,
          pins: [Own(0x2c24_a6aa_146b_5231), Own(0x93e7_fbb8_c398_daca), Own(0x9972_27b0_03ae_abb4)] },
    // The simulated replica now hosts `specstore::SpecCore`, the core
    // the TCP replicas serve, and sends what that sends: acks are
    // cumulative, retransmission is one deadline 200 ms after the first
    // unacknowledged own update (one engine timer per horizon, to every
    // peer) where it was a timer pushed back by every message, the
    // Lamport merge is `max(ts)`, and an update enters the log at causal
    // delivery, so a weak or update view no longer counts one that is
    // parked behind a gap. Latency draws land on different messages and
    // the agreed order of concurrent updates differs; after the heal the
    // strong views that timed out on the parent (two, at 850 ms) close.
    Row { name: "specstore", run: run_spec, cut_times_out: true,
          pins: [Own(0xd4a5_d8a5_7af5_e499), Own(0xe9c7_7090_d717_5f2e), Own(0x82d7_e923_fd8c_c57a)] },
    Row { name: "crdt", run: run_crdt, cut_times_out: true,
          pins: [Parent(0x7555_7915_69f2_b84b), Own(0x0627_45e7_136f_7be1), Parent(0xb1b0_ece9_b877_dfb9)] },
    Row { name: "escrow", run: run_escrow, cut_times_out: true,
          pins: [Parent(0xe8e4_2c28_f083_2c64), Own(0x73cf_3837_35da_fd3a), Parent(0x7f24_dcfb_41e7_85ca)] },
];

#[test]
fn same_seed_same_history_event_for_event() {
    for row in TABLE {
        for seed in [3, SEED, 42] {
            let (a, b) = ((row.run)(seed), (row.run)(seed));
            assert_eq!(
                a, b,
                "{} seed {seed}: two in-process runs diverge",
                row.name
            );
            assert_eq!(
                a.values.iter().any(|l| l.contains("failed(Timeout)")),
                row.cut_times_out,
                "{} seed {seed}: client deadlines under the cut",
                row.name
            );
        }
    }
}

#[test]
fn histories_match_the_digests_captured_before_the_shell() {
    let mut moved = Vec::new();
    for row in TABLE {
        let r = (row.run)(SEED);
        let got = [digest(&r.values), digest(&r.stamped), digest(&r.extras)];
        for ((got, pin), what) in got
            .iter()
            .zip(row.pins)
            .zip(["values", "stamped", "extras"])
        {
            let (want, origin) = match pin {
                Parent(w) => (w, "parent's"),
                Own(w) => (w, "own"),
            };
            if *got != want {
                moved.push(format!(
                    "{} {what}: {got:#018x}, {origin} pin {want:#018x}",
                    row.name
                ));
            }
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
