//! # icg-bench — harness utilities for regenerating the paper's figures
//!
//! Each `benches/figN_*.rs` target (run via `cargo bench`) regenerates one
//! table or figure of the paper's evaluation on the simulator, printing
//! the series to stdout and writing CSV files under
//! `target/paper_results/`. Set `ICG_QUICK=1` to run abbreviated sweeps.

use std::fmt::{Debug, Display, Write as _};
use std::fs;
use std::path::PathBuf;

use correctables::Invocation;

/// Whether abbreviated sweeps were requested (`ICG_QUICK=1`).
pub fn quick() -> bool {
    std::env::var("ICG_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// In `ICG_QUICK` mode, runs the oracle's view-monotonicity check over
/// one client's recorded history.
///
/// # Panics
///
/// Panics, naming `whose` history it was, on a violation.
pub fn check_history<Op: Debug, T: Debug>(history: &[Invocation<Op, T>], whose: impl Display) {
    if quick() {
        let violations = icg_oracle::check_monotonicity(history, false);
        assert!(violations.is_empty(), "{whose}: {violations:?}");
    }
}

/// The directory experiment CSVs are written to
/// (`<workspace>/target/paper_results`, or under `CARGO_TARGET_DIR`).
pub fn out_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // This crate lives at <workspace>/crates/bench.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        });
    let dir = target.join("paper_results");
    fs::create_dir_all(&dir).expect("create paper_results dir");
    dir
}

/// A printable, CSV-exportable results table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as `<name>.csv` under [`out_dir`].
    pub fn write_csv(&self, name: &str) {
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let path = out_dir().join(format!("{name}.csv"));
        fs::write(&path, csv).expect("write csv");
        println!("[csv] {}", path.display());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_checks_columns() {
        let mut t = Table::new("demo", &["a", "bee"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bee"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_is_enforced() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f1(2.34), "2.3");
        assert_eq!(pct(0.256), "25.6%");
    }
}

/// Shared deployment runner for the Cassandra-side experiments
/// (Figures 5–8 and the ablations): the paper's three-region setup, its
/// YCSB clients driving the store through the Correctables library, and
/// every number read off the recorded histories afterwards.
pub mod ring {
    use correctables::{ConsistencyLevel, LevelSelection};
    use icg_apps::{start_ycsb_users, view_stats, ViewStats};
    use quorumstore::{Key, ReplicaConfig, SimStore, Value};
    use simnet::{Faults, SimDuration};
    use ycsb::Workload;

    /// The system under test, in the paper's notation.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum System {
        /// Baseline Cassandra reading at quorum `R`: C1, C2, C3.
        C(u8),
        /// Correctable Cassandra, preliminary then final at quorum `R`:
        /// CC2, CC3.
        Cc(u8),
        /// CC with the confirmation optimization: *CC2.
        CcOpt(u8),
    }

    impl System {
        /// Display label (C1, CC2, *CC2, …).
        pub fn label(self) -> String {
            match self {
                System::C(r) => format!("C{r}"),
                System::Cc(r) => format!("CC{r}"),
                System::CcOpt(r) => format!("*CC{r}"),
            }
        }

        /// How to build the store (`r_strong`, `confirm`) and which
        /// levels its clients invoke at: C1 is `invoke_weak`, C2/C3
        /// `invoke_strong`, the Correctable variants `invoke`.
        fn setup(self) -> (u8, bool, LevelSelection) {
            match self {
                System::C(1) => (1, false, LevelSelection::only(&[ConsistencyLevel::WEAK])),
                System::C(r) => (r, false, LevelSelection::only(&[ConsistencyLevel::STRONG])),
                System::Cc(r) => (r, false, LevelSelection::All),
                System::CcOpt(r) => (r, true, LevelSelection::All),
            }
        }
    }

    /// What every client does when neither a reply nor a coordinator
    /// failure arrives (the request itself was lost): give up on the
    /// operation and move on.
    const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(2);

    /// One trial's configuration.
    pub struct RingSpec {
        /// System under test (C1/C2/CC2/*CC2…).
        pub sys: System,
        /// YCSB workload.
        pub workload: Workload,
        /// Closed-loop users per region client.
        pub threads_per_client: u32,
        /// Warm-up before measurement starts.
        pub warmup: SimDuration,
        /// Measurement window.
        pub window: SimDuration,
        /// RNG seed.
        pub seed: u64,
        /// Replica tuning.
        pub cfg: ReplicaConfig,
        /// Uniform message-loss probability (0 = fault free).
        pub drop_probability: f64,
    }

    /// One trial's results.
    pub struct RingOut {
        /// Per-client view statistics over the window, in client order
        /// (IRL, FRK, VRG for [`run_ring`]).
        pub clients: Vec<ViewStats>,
        /// The same over all clients' invocations together.
        pub all: ViewStats,
        /// Bytes crossing all client links during the window.
        pub client_link_bytes: u64,
        /// The measurement window.
        pub window: SimDuration,
    }

    impl RingOut {
        /// Client-link bandwidth per completed operation, in kB.
        pub fn kb_per_op(&self) -> f64 {
            let ops = self.all.completed();
            if ops == 0 {
                0.0
            } else {
                self.client_link_bytes as f64 / ops as f64 / 1000.0
            }
        }

        /// The IRL client's throughput over the window (the paper reports
        /// the IRL client).
        pub fn irl_throughput(&self) -> f64 {
            self.clients[0].completed() as f64 / self.window.as_secs_f64()
        }
    }

    /// Runs one trial with a client in every region: replicas
    /// FRK/IRL/VRG; clients IRL→FRK, FRK→VRG, VRG→IRL (each to a remote
    /// coordinator, as in §6.2.1).
    pub fn run_ring(spec: &RingSpec) -> RingOut {
        let seed = |i: u64| spec.seed.wrapping_add(i * 7919);
        run_clients(
            spec,
            &[
                ("IRL", 0, seed(0)),
                ("FRK", 2, seed(1)),
                ("VRG", 1, seed(2)),
            ],
        )
    }

    /// Runs one trial with the given clients — `(site, coordinator's
    /// replica index, YCSB seed)` — each a `Client` over its own gateway
    /// of one simulated deployment, recording into its own history.
    ///
    /// # Panics
    ///
    /// In `ICG_QUICK` mode, if a recorded history violates view
    /// monotonicity.
    pub fn run_clients(spec: &RingSpec, clients: &[(&str, usize, u64)]) -> RingOut {
        let (r_strong, confirm, levels) = spec.sys.setup();
        let mut stores: Vec<SimStore> = Vec::new();
        for &(site, coordinator, _) in clients {
            let store = match stores.first() {
                None => SimStore::ec2(spec.cfg, r_strong, confirm, site, coordinator, spec.seed),
                Some(first) => first.client_at(site, coordinator),
            };
            store.set_client_timeout(CLIENT_TIMEOUT);
            stores.push(store);
        }
        let deployment = &stores[0];
        if spec.drop_probability > 0.0 {
            deployment.set_faults(Faults::none().with_drop_probability(spec.drop_probability));
        }
        let len = spec.workload.value_size as u32;
        deployment
            .preload((0..spec.workload.record_count).map(|i| (Key::plain(i), Value::Opaque(len))));

        // Each client's users enter the network at t = 0, in client
        // order.
        let histories: Vec<_> = stores
            .iter()
            .zip(clients)
            .map(|(store, &(_, _, ycsb_seed))| {
                let users = spec.threads_per_client;
                start_ycsb_users(store, &spec.workload, &levels, users, ycsb_seed)
            })
            .collect();
        // Operations still in flight when the window ends stay open:
        // settling them would run past it.
        deployment.advance(spec.warmup);
        deployment.with_engine(|e| e.bandwidth_mut().reset());
        deployment.advance(spec.window);

        let (from, until) = (spec.warmup, spec.warmup + spec.window);
        let snapshots: Vec<_> = histories.iter().map(|h| h.snapshot()).collect();
        for (snapshot, (site, ..)) in snapshots.iter().zip(clients) {
            crate::check_history(snapshot, format_args!("{site} client"));
        }
        RingOut {
            clients: snapshots
                .iter()
                .map(|s| view_stats(s, from, until))
                .collect(),
            all: view_stats(snapshots.iter().flatten(), from, until),
            client_link_bytes: stores.iter().map(|s| s.gateway_link_bytes()).sum(),
            window: spec.window,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn system_labels_match_paper_notation() {
            assert_eq!(System::C(1).label(), "C1");
            assert_eq!(System::C(3).label(), "C3");
            assert_eq!(System::Cc(2).label(), "CC2");
            assert_eq!(System::CcOpt(2).label(), "*CC2");
        }
    }
}
