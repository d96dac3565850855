//! Per-layer CPU, context-switch and loopback counters read from
//! `/proc` at the edges of the measured window.
//!
//! This is how the untraced run attributes cost to layers without
//! touching the program: the program names its threads
//! (`icg-reactor-<id>-main`, `icg-client-loop<i>`, …), the kernel keeps
//! per-thread run time, and the benchmark reads both before and after
//! the window. Nothing is read while the window is open.

use std::collections::BTreeMap;
use std::fs;

/// One thread's counters at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadSample {
    /// Thread name as the kernel stores it (at most 15 bytes).
    pub comm: String,
    /// User-mode clock ticks (only ever used as a ratio to
    /// `stime_ticks`, so the tick length does not matter).
    pub utime_ticks: u64,
    /// Kernel-mode clock ticks.
    pub stime_ticks: u64,
    /// Time on a CPU, nanoseconds (`schedstat` field 1).
    pub run_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line into
/// `(comm, utime, stime)`. The name sits between the first `(` and the
/// *last* `)` — it may itself contain spaces and parentheses.
pub fn parse_stat(line: &str) -> Option<(String, u64, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After the name: state is field 3, utime 14, stime 15 (1-based).
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime = rest.nth(11)?.parse().ok()?;
    let stime = rest.next()?.parse().ok()?;
    Some((comm, utime, stime))
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: run time on CPU in
/// nanoseconds is the first field.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Sums the two `*_ctxt_switches` lines of a `status` file.
pub fn parse_ctx_switches(status: &str) -> u64 {
    status
        .lines()
        .filter_map(|l| {
            let (key, val) = l.split_once(':')?;
            key.ends_with("voluntary_ctxt_switches")
                .then(|| val.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// Reads `VmHWM` (peak resident set) from a `status` file, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Packet and byte counters of one interface from `/proc/net/dev`
/// (receive side; on loopback every packet is received exactly once).
pub fn parse_net_dev(text: &str, iface: &str) -> Option<(u64, u64)> {
    let line = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(iface)?.strip_prefix(':'))?;
    let mut f = line.split_ascii_whitespace();
    let bytes = f.next()?.parse().ok()?;
    let packets = f.next()?.parse().ok()?;
    Some((bytes, packets))
}

/// Everything read at one edge of the window.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-thread counters keyed by thread id.
    pub threads: BTreeMap<u64, ThreadSample>,
    /// Loopback `(bytes, packets)`.
    pub lo: (u64, u64),
}

impl Snapshot {
    /// Reads this process's threads and the loopback counters. Threads
    /// that vanish mid-read are skipped.
    pub fn take() -> Snapshot {
        let mut threads = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let base = entry.path();
                let read = |name: &str| fs::read_to_string(base.join(name)).ok();
                let Some((comm, utime_ticks, stime_ticks)) =
                    read("stat").as_deref().and_then(parse_stat)
                else {
                    continue;
                };
                threads.insert(
                    tid,
                    ThreadSample {
                        comm,
                        utime_ticks,
                        stime_ticks,
                        run_ns: read("schedstat")
                            .as_deref()
                            .and_then(parse_schedstat)
                            .unwrap_or(0),
                        ctx_switches: read("status").as_deref().map_or(0, parse_ctx_switches),
                    },
                );
            }
        }
        let lo = fs::read_to_string("/proc/net/dev")
            .ok()
            .and_then(|t| parse_net_dev(&t, "lo"))
            .unwrap_or((0, 0));
        Snapshot { threads, lo }
    }
}

/// Which layer a thread belongs to, by the name the program gave it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// `icg-reactor-*`: replica event loops and peer dialers.
    Server,
    /// `icg-client-*`: the client reactor's loops and dialer.
    Client,
    /// Everything else: the load generator itself.
    Bench,
}

/// Classifies a thread name.
pub fn group_of(comm: &str) -> Group {
    if comm.starts_with("icg-reactor-") {
        Group::Server
    } else if comm.starts_with("icg-client-") {
        Group::Client
    } else {
        Group::Bench
    }
}

/// Whether `comm` is a replica's protocol loop (`icg-reactor-<id>-main`,
/// cut to 15 bytes by the kernel): the thread every decoded message of
/// that replica funnels through.
fn is_server_main(comm: &str) -> bool {
    comm.strip_prefix("icg-reactor-")
        .and_then(|rest| rest.split_once('-'))
        .is_some_and(|(_, role)| role.starts_with('m'))
}

/// CPU and OS counters accumulated over a window, by layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowUsage {
    /// CPU seconds of the replica threads.
    pub server_cpu_s: f64,
    /// CPU seconds of the client reactor threads.
    pub client_cpu_s: f64,
    /// CPU seconds of every other thread (the benchmark's own).
    pub bench_cpu_s: f64,
    /// CPU seconds of the busiest replica protocol loop.
    pub server_main_max_cpu_s: f64,
    /// User-mode clock ticks, all threads.
    pub user_ticks: u64,
    /// Kernel-mode clock ticks, all threads.
    pub sys_ticks: u64,
    /// Context switches, all threads.
    pub ctx_switches: u64,
    /// Loopback bytes.
    pub lo_bytes: u64,
    /// Loopback packets.
    pub lo_packets: u64,
}

impl WindowUsage {
    /// All CPU seconds of the process in the window.
    pub fn total_cpu_s(&self) -> f64 {
        self.server_cpu_s + self.client_cpu_s + self.bench_cpu_s
    }

    /// Kernel-mode share of all CPU ticks in the window.
    pub fn sys_share(&self) -> f64 {
        let ticks = self.user_ticks + self.sys_ticks;
        if ticks == 0 {
            0.0
        } else {
            self.sys_ticks as f64 / ticks as f64
        }
    }

    /// Adds the counters of a window that follows this one (the
    /// busiest protocol loop is taken to be the same thread in both).
    pub fn add(&mut self, o: &WindowUsage) {
        self.server_cpu_s += o.server_cpu_s;
        self.client_cpu_s += o.client_cpu_s;
        self.bench_cpu_s += o.bench_cpu_s;
        self.server_main_max_cpu_s += o.server_main_max_cpu_s;
        self.user_ticks += o.user_ticks;
        self.sys_ticks += o.sys_ticks;
        self.ctx_switches += o.ctx_switches;
        self.lo_bytes += o.lo_bytes;
        self.lo_packets += o.lo_packets;
    }
}

/// Differences two snapshots. A thread present only in `end` started
/// inside the window and counts from zero; one present only in `start`
/// ended inside it and its last reading is lost (the program's threads
/// all outlive the window, so in practice this is nothing).
pub fn usage_between(start: &Snapshot, end: &Snapshot) -> WindowUsage {
    let mut u = WindowUsage::default();
    for (tid, e) in &end.threads {
        let zero = ThreadSample::default();
        let s = start.threads.get(tid).unwrap_or(&zero);
        let cpu_s = e.run_ns.saturating_sub(s.run_ns) as f64 / 1e9;
        match group_of(&e.comm) {
            Group::Server => u.server_cpu_s += cpu_s,
            Group::Client => u.client_cpu_s += cpu_s,
            Group::Bench => u.bench_cpu_s += cpu_s,
        }
        if is_server_main(&e.comm) {
            u.server_main_max_cpu_s = u.server_main_max_cpu_s.max(cpu_s);
        }
        u.user_ticks += e.utime_ticks.saturating_sub(s.utime_ticks);
        u.sys_ticks += e.stime_ticks.saturating_sub(s.stime_ticks);
        u.ctx_switches += e.ctx_switches.saturating_sub(s.ctx_switches);
    }
    u.lo_bytes = end.lo.0.saturating_sub(start.lo.0);
    u.lo_packets = end.lo.1.saturating_sub(start.lo.1);
    u
}

extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// `sched_getaffinity(2)`.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPU sets of up to 1024 CPUs, the kernel's `cpu_set_t`.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread — and every thread it spawns from now
/// on, which is all of them when called first thing in `main` — to the
/// last CPU this process may use. Returns that CPU.
///
/// Why: on the reference VM (2 vCPUs under a hypervisor) waking an
/// idle vCPU from the other costs about 25 µs, an operation of
/// `tcp_pingpong_b` is a chain of seven threads waking each other, and
/// where the scheduler puts each wake-up kept changing. Per-second
/// throughput wandered between 10 k and 22 k ops/s, 20 s runs between
/// 13.5 k and 19.4 k, and the level drifted by 20 % over minutes with
/// whatever else the host was doing. On one vCPU the same workload
/// does 31–33 k ops/s — the second vCPU costs more than it gives — and
/// repeats within 3 %. What is measured is therefore the program on
/// one core: its own CPU path and context switches, not the
/// hypervisor's cross-vCPU wake-ups.
pub fn confine_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Nanoseconds the calling thread has spent on a CPU so far.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat)
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_kib)
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "5892 (icg-reactor-0-m) S 5887 5892 5887 0 -1 4194304 80 0 0 0 \
        1234 567 0 0 20 0 1 0 185980 2703360 287 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 \
        17 0 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn stat_fields_are_found_after_the_name() {
        assert_eq!(
            parse_stat(STAT),
            Some(("icg-reactor-0-m".to_string(), 1234, 567))
        );
    }

    #[test]
    fn stat_name_may_contain_spaces_and_parens() {
        let line = STAT.replace("(icg-reactor-0-m)", "(a (b) c)");
        assert_eq!(parse_stat(&line), Some(("a (b) c".to_string(), 1234, 567)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("1018034858 7239562 56\n"), Some(1018034858));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t40\n\
                      nonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(parse_ctx_switches(status), 42);
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn net_dev_finds_the_interface_row() {
        let text = "Inter-|   Receive                            |  Transmit\n \
            face |bytes    packets errs drop fifo frame compressed multicast|bytes packets\n    \
            lo: 34515017819 42425070    0    0    0     0          0         0 34515017819 42425070 0 0 0 0 0 0\n  \
            ifb0:       7       3    0    0    0     0          0         0        0       0 0 0 0 0 0 0\n";
        assert_eq!(parse_net_dev(text, "lo"), Some((34515017819, 42425070)));
        assert_eq!(parse_net_dev(text, "ifb0"), Some((7, 3)));
        assert_eq!(parse_net_dev(text, "eth0"), None);
    }

    #[test]
    fn threads_are_grouped_by_the_names_the_program_gives_them() {
        assert_eq!(group_of("icg-reactor-0-m"), Group::Server);
        assert_eq!(group_of("icg-reactor-2-d"), Group::Server);
        assert_eq!(group_of("icg-client-loop"), Group::Client);
        assert_eq!(group_of("icg-client-dial"), Group::Client);
        assert_eq!(group_of("icg-benchmark"), Group::Bench);
        assert!(is_server_main("icg-reactor-1-m"));
        // With a two-digit id the kernel's 15-byte cut takes the role.
        assert!(!is_server_main("icg-reactor-12-"));
        assert!(!is_server_main("icg-reactor-1-f"));
        assert!(!is_server_main("icg-client-loop"));
    }

    #[test]
    fn usage_is_the_difference_of_two_snapshots() {
        let thread = |comm: &str, run_ms: u64, ut: u64, st: u64, cs: u64| ThreadSample {
            comm: comm.to_string(),
            utime_ticks: ut,
            stime_ticks: st,
            run_ns: run_ms * 1_000_000,
            ctx_switches: cs,
        };
        let mut start = Snapshot::default();
        start.threads.insert(1, thread("bench", 100, 5, 5, 10));
        start
            .threads
            .insert(2, thread("icg-reactor-0-m", 200, 10, 10, 20));
        start.lo = (1_000, 10);
        let mut end = Snapshot::default();
        end.threads.insert(1, thread("bench", 600, 35, 25, 110));
        end.threads
            .insert(2, thread("icg-reactor-0-m", 1_200, 40, 80, 520));
        // Started inside the window: counted from zero.
        end.threads
            .insert(3, thread("icg-client-loop", 250, 10, 10, 7));
        end.lo = (51_000, 410);
        let u = usage_between(&start, &end);
        assert!((u.bench_cpu_s - 0.5).abs() < 1e-9);
        assert!((u.server_cpu_s - 1.0).abs() < 1e-9);
        assert!((u.client_cpu_s - 0.25).abs() < 1e-9);
        assert!((u.server_main_max_cpu_s - 1.0).abs() < 1e-9);
        assert!((u.total_cpu_s() - 1.75).abs() < 1e-9);
        // user 30+30+10 = 70, sys 20+70+10 = 100.
        assert!((u.sys_share() - 100.0 / 170.0).abs() < 1e-9);
        assert_eq!(u.ctx_switches, 100 + 500 + 7);
        assert_eq!((u.lo_bytes, u.lo_packets), (50_000, 400));
    }
}
