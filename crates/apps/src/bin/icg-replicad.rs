//! `icg-replicad` — hosts one quorum-store replica over TCP.
//!
//! A replica set is `N` of these processes, each listing the others as
//! peers. Any replica can coordinate any client's operations; clients
//! (`icg-loadgen`, or anything built on `icg_net::TcpBinding`) connect
//! to one of them and fail over down their list.
//!
//! ```text
//! icg-replicad --id 0 --listen 127.0.0.1:4701 \
//!     --peers 127.0.0.1:4702,127.0.0.1:4703 [--op-timeout-ms 5000]
//! ```
//!
//! Levels travel as the builtins' fixed wire ids,
//! `cache < weak < update < causal < strong`; the quorum store serves
//! weak and strong, the spec store the four from weak up.
//!
//! The process serves until killed; peer links retry forever, so start
//! order does not matter. See `OPERATIONS.md` for the full runbook.

use std::net::SocketAddr;
use std::time::Duration;

use icg_apps::cli::{die, Flags};
use icg_net::{ReplicaServer, ServerConfig};

const KNOWN: &[&str] = &[
    "id",
    "listen",
    "peers",
    "op-timeout-ms",
    "peer-retry-ms",
    "peer-retry-cap-ms",
    "help",
];

const USAGE: &str = "icg-replicad --id N --listen ADDR [--peers ADDR,ADDR,...]
    [--op-timeout-ms 5000] [--peer-retry-ms 200] [--peer-retry-cap-ms 5000]

Hosts one quorum-store replica over TCP. --id must be unique across the
replica set (it is the write-version tiebreak). --peers lists the OTHER
replicas; omit it for a single-replica deployment.";

fn main() {
    let flags = match Flags::parse(std::env::args().skip(1), KNOWN) {
        Ok(f) => f,
        Err(e) => die(&format!("{e}\n\n{USAGE}")),
    };
    if flags.has("help") {
        println!("{USAGE}");
        return;
    }
    let id = flags.get_u64("id", 0) as u32;
    let listen = flags.get_or("listen", "127.0.0.1:4701");
    let peers: Vec<SocketAddr> = flags
        .get_or("peers", "")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("--peers: '{s}' is not host:port")))
        })
        .collect();

    let cfg = ServerConfig {
        id,
        op_timeout: Duration::from_millis(flags.get_u64("op-timeout-ms", 5000)),
        peer_retry: Duration::from_millis(flags.get_u64("peer-retry-ms", 200)),
        peer_retry_cap: Duration::from_millis(flags.get_u64("peer-retry-cap-ms", 5000)),
    };
    let server = ReplicaServer::bind(&listen, cfg)
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    let addr = server.local_addr();
    let _handle = server.start(peers.clone());
    // One parseable readiness line; cluster_demo.sh waits for it.
    println!(
        "icg-replicad[{id}] listening on {addr} ({} peers)",
        peers.len()
    );

    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
