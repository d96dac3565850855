//! A three-replica `icg-replicad` cluster on loopback, run as
//! subprocesses, for the tests that drive it with `icg-loadgen`.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

/// The replica processes; killed on drop, so also when a test panics.
pub struct Cluster(Vec<Child>);

impl Cluster {
    /// Boots `n` replicas on free loopback ports, each listing the
    /// others as peers. Returns the cluster and its `--replicas` list.
    pub fn boot(n: usize) -> (Cluster, String) {
        let addrs: Vec<String> = free_ports(n)
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect();
        let children = (0..n)
            .map(|i| {
                let peers: Vec<&str> = addrs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, a)| a.as_str())
                    .collect();
                Command::new(env!("CARGO_BIN_EXE_icg-replicad"))
                    .args([
                        "--id",
                        &i.to_string(),
                        "--listen",
                        &addrs[i],
                        "--peers",
                        &peers.join(","),
                    ])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn icg-replicad")
            })
            .collect();
        (Cluster(children), addrs.join(","))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Free loopback ports. Bind-then-drop leaves a window in which another
/// process may take one; on loopback that is rare enough to accept.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("probe bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("probe addr").port())
        .collect()
}
