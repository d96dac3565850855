//! Quickstart: the Correctables API on a real replicated store.
//!
//! Starts a three-replica quorum store on loopback TCP (the same
//! replicas `icg-replicad` serves) and demonstrates the three
//! invocation methods of the paper (§3.2) through its binding, with
//! wall-clock timings:
//!
//! - `invoke_weak`  — fast: the coordinator's local copy;
//! - `invoke_strong` — a read quorum;
//! - `invoke`       — both, incrementally (ICG).
//!
//! Run with `cargo run --example quickstart`.

use std::time::{Duration, Instant};

use icg::correctables::{Client, ConsistencyLevel};
use icg::net::{spawn_local_cluster, ServerConfig, TcpBinding, TcpConfig};
use icg::quorumstore::{Key, StoreOp, Value, Versioned};

/// Replicas use their ids (0..3) on the wire; the client sits well past them.
const CLIENT_ID: u64 = 1000;

fn main() {
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    let addrs = replicas.iter().map(|r| r.addr()).collect();
    let binding = TcpBinding::connect(TcpConfig::new(addrs, CLIENT_ID)).expect("connect");
    let client = Client::new(binding.clone());
    let wait = Duration::from_secs(5);
    let write = |key, value| {
        client
            .invoke_strong(StoreOp::Write(key, value))
            .wait_final(wait)
            .expect("write");
    };

    println!("levels offered: {:?}\n", client.consistency_levels());
    let greeting = Key::plain(0);
    write(greeting, Value::Opaque(5));

    // --- invoke_weak: one fast view -------------------------------------
    let t0 = Instant::now();
    let weak = client
        .invoke_weak(StoreOp::Read(greeting))
        .wait_final(wait)
        .expect("weak read");
    println!(
        "invoke_weak   -> {:?} ({}) after {:?}",
        weak.value.value,
        weak.level,
        t0.elapsed()
    );

    // --- invoke_strong: one view from a read quorum ---------------------
    let t0 = Instant::now();
    let strong = client
        .invoke_strong(StoreOp::Read(greeting))
        .wait_final(wait)
        .expect("strong read");
    println!(
        "invoke_strong -> {:?} ({}) after {:?}",
        strong.value.value,
        strong.level,
        t0.elapsed()
    );

    // --- invoke: incremental consistency guarantees ---------------------
    // Write, then read with ICG: the preliminary view is the
    // coordinator's local copy, the final view a read quorum's.
    let fresh = Value::Opaque(11);
    write(greeting, fresh.clone());
    let t0 = Instant::now();
    let c = client.invoke(StoreOp::Read(greeting));
    c.on_update(move |view| {
        println!(
            "invoke        -> preliminary {:?} ({}) after {:?}",
            view.value.value,
            view.level,
            t0.elapsed()
        );
    });
    let fin = c.wait_final(wait).expect("icg read");
    println!(
        "invoke        -> final       {:?} ({}) after {:?}",
        fin.value.value,
        fin.level,
        t0.elapsed()
    );
    assert_eq!(fin.level, ConsistencyLevel::STRONG);
    assert_eq!(fin.value.value, fresh);

    // --- speculate: Listing 3 of the paper -------------------------------
    // Chase a pointer speculatively: read a reference weakly, prefetch the
    // target, confirm when the strong view of the reference arrives.
    let (reference, target, payload) = (Key::plain(1), Key::plain(2), Value::Opaque(4096));
    write(target, payload.clone());
    write(reference, Value::Ids(vec![2]));
    let chaser = Client::new(binding.clone());
    let t0 = Instant::now();
    let out = client.invoke(StoreOp::Read(reference)).speculate_async(
        move |r: &Versioned| {
            let Value::Ids(ids) = &r.value else {
                panic!("the reference holds ids, got {:?}", r.value);
            };
            chaser.invoke_strong(StoreOp::Read(Key::plain(ids[0])))
        },
        |_| {},
    );
    let v = out.wait_final(wait).expect("speculation");
    println!(
        "\nspeculate     -> {:?} after {:?} (prefetch overlapped the strong read)",
        v.value.value,
        t0.elapsed()
    );
    assert_eq!(v.value.value, payload);

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}
