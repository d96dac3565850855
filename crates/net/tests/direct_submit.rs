//! What must stay true now that an idle binding's submitting thread
//! writes its own frame (DESIGN.md §12, "Direct submit"): frames from
//! two writers never interleave, a coordinator's death is still seen at
//! once and named for what it is, and an operation the client loop was
//! never woken for still times out on time. Which path an operation
//! took is not visible from here — the tests that count it are unit
//! tests in `src/binding.rs`.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use correctables::{Client, ConsistencyLevel, Error};
use icg_net::frame::read_frame;
use icg_net::{spawn_local_cluster, ClientReactor, ServerConfig, TcpBinding, TcpConfig};
use quorumstore::{Key, Msg, StoreOp, Value};

const WAIT: Duration = Duration::from_secs(20);

/// 128 ids ≈ 1 KiB on the wire, every one naming its key, its
/// generation and its place: a frame spliced into another cannot decode
/// to a list that passes [`whole`].
fn ids(key: u64, generation: u64) -> Value {
    Value::Ids((0..128).map(|j| key << 40 | generation << 8 | j).collect())
}

/// Whether `v` is a list [`ids`] made for `key`, unmixed.
fn whole(key: u64, v: &Value) -> bool {
    let Value::Ids(list) = v else { return false };
    let Some(&first) = list.first() else {
        return false;
    };
    list.len() == 128
        && first >> 40 == key
        && list.iter().zip(first..).all(|(id, want)| *id == want)
}

/// Eight threads on clones of one binding: the in-flight count flaps
/// between zero and eight, so direct writes from several threads and
/// the loop's batched flushes race for one socket. If two frames ever
/// interleaved the coordinator would read garbage, shed the connection
/// and fail everything in flight `Unavailable`; if a direct write could
/// overtake a queued one, a strong read submitted right behind a write
/// of the same key could miss it.
#[test]
fn frames_from_direct_and_queued_writers_never_interleave() {
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 2500;
    const SHARED_KEYS: u64 = 16;
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    let reactor = ClientReactor::new(1).expect("reactor");
    let cfg = TcpConfig::new(replicas.iter().map(|r| r.addr()).collect(), 5000);
    let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
    let coordinator = binding.coordinator();
    let own_key = |t: u64| 1000 + t;

    let seed = Client::new(binding.clone());
    for key in (0..SHARED_KEYS).chain((0..THREADS).map(own_key)) {
        seed.invoke_strong(StoreOp::Write(Key::plain(key), ids(key, 0)))
            .wait_final(WAIT)
            .expect("seed write");
    }

    thread::scope(|s| {
        for t in 0..THREADS {
            let client = Client::new(binding.clone());
            s.spawn(move || {
                let mine = own_key(t);
                let mut ops = 0;
                for i in 1.. {
                    if ops >= OPS_PER_THREAD {
                        break;
                    }
                    let shared = (i * 7 + t) % SHARED_KEYS;
                    match i % 4 {
                        0 => {
                            // Submit order is wire order: the read goes
                            // out behind the write it must see, without
                            // waiting for the write's acknowledgment.
                            let value = ids(mine, i);
                            let write = client
                                .invoke_strong(StoreOp::Write(Key::plain(mine), value.clone()));
                            let read = client.invoke_strong(StoreOp::Read(Key::plain(mine)));
                            write.wait_final(WAIT).expect("own write");
                            let view = read.wait_final(WAIT).expect("own strong read");
                            assert_eq!(view.level, ConsistencyLevel::STRONG);
                            assert_eq!(
                                view.value.value, value,
                                "thread {t} missed its own write {i}"
                            );
                            ops += 2;
                        }
                        1 => {
                            let read = client.invoke(StoreOp::Read(Key::plain(shared)));
                            let view = read.wait_final(WAIT).expect("icg read");
                            assert_eq!(view.level, ConsistencyLevel::STRONG);
                            assert!(whole(shared, &view.value.value), "final view of {shared}");
                            for p in read.preliminary_views() {
                                assert_eq!(p.level, ConsistencyLevel::WEAK);
                                assert!(
                                    whole(shared, &p.value.value),
                                    "preliminary view of {shared}"
                                );
                            }
                            ops += 1;
                        }
                        2 => {
                            let read = client.invoke_weak(StoreOp::Read(Key::plain(mine)));
                            let view = read.wait_final(WAIT).expect("weak read");
                            assert_eq!(view.level, ConsistencyLevel::WEAK);
                            assert!(whole(mine, &view.value.value), "weak view of {mine}");
                            ops += 1;
                        }
                        _ => {
                            let write = client.invoke_strong(StoreOp::Write(
                                Key::plain(shared),
                                ids(shared, i << 8 | t),
                            ));
                            let view = write.wait_final(WAIT).expect("shared write");
                            assert_eq!(view.level, ConsistencyLevel::STRONG);
                            ops += 1;
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        binding.coordinator(),
        coordinator,
        "the coordinator link was lost and redialed along the way"
    );
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// A coordinator that reads one request and closes the socket, over
/// and over.
fn one_request_coordinator() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let mut scratch = Vec::new();
            let _ = read_frame::<Msg>(&mut stream, &mut scratch);
        }
    });
    addr
}

/// The request went out on the submitting thread and its client loop
/// was not told by a wake-up: the loop must still hear the socket close
/// and fail the operation as `Unavailable`, now — not as `Timeout`,
/// five seconds on. An operation submitted from that failure's own
/// callback (the link is gone; it redials and is dropped again) fares
/// the same.
#[test]
fn a_coordinator_that_closes_fails_the_op_unavailable_at_once() {
    let mut cfg = TcpConfig::new(vec![one_request_coordinator()], 5100);
    cfg.op_timeout = Duration::from_secs(5);
    let reactor = ClientReactor::new(1).expect("reactor");
    let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
    let client = std::sync::Arc::new(Client::new(binding.clone()));

    let (failed_tx, failed) = mpsc::channel();
    let submitted = Instant::now();
    let first = client.invoke_strong(StoreOp::Read(Key::plain(1)));
    let again = std::sync::Arc::clone(&client);
    first.on_error(move |e| {
        let _ = failed_tx.send((e.clone(), submitted.elapsed()));
        let second = again.invoke_strong(StoreOp::Read(Key::plain(2)));
        let resubmitted = Instant::now();
        second.on_error(move |e| {
            let _ = failed_tx.send((e.clone(), resubmitted.elapsed()));
        });
    });
    for what in ["first", "resubmitted"] {
        let (err, after) = failed.recv_timeout(WAIT).expect("the op failed");
        assert!(
            matches!(err, Error::Unavailable(_)),
            "{what} op: want Unavailable, got {err:?}"
        );
        assert!(
            after < Duration::from_millis(500),
            "{what} op failed only after {after:?}"
        );
    }
    binding.shutdown();
}

/// Starts a listener that accepts every connection, holds it open and
/// never reads or answers.
fn tarpit() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind tarpit");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        let mut held = Vec::new();
        for conn in listener.incoming() {
            held.extend(conn);
        }
    });
    addr
}

/// Nothing wakes the client loop for an operation written directly, and
/// nothing ever answers this one: the loop must come round by itself in
/// time to fail it at its deadline. It sleeps no longer than the
/// shortest `op_timeout` it hosts — also when that binding registered
/// after the loop had parked under a longer one.
#[test]
fn unanswered_ops_time_out_on_time_without_a_wake_up() {
    const LATE: Duration = Duration::from_millis(150);
    let silent = tarpit();
    let reactor = ClientReactor::new(1).expect("one loop for both bindings");
    let connect = |id, op_timeout| {
        let mut cfg = TcpConfig::new(vec![silent], id);
        cfg.op_timeout = op_timeout;
        TcpBinding::connect_on(cfg, &reactor).expect("connect")
    };
    let (patient_for, hasty_for) = (Duration::from_millis(1500), Duration::from_millis(300));
    let patient = connect(5200, patient_for);
    // The loop is parked, capped at 1.5 s, when the second binding and
    // its shorter deadline arrive.
    thread::sleep(Duration::from_millis(100));
    let hasty = connect(5201, hasty_for);
    thread::sleep(Duration::from_millis(100));

    let (failed_tx, failed) = mpsc::channel();
    for (binding, op_timeout) in [(&hasty, hasty_for), (&patient, patient_for)] {
        let failed_tx = failed_tx.clone();
        let submitted = Instant::now();
        Client::new(binding.clone())
            .invoke_strong(StoreOp::Read(Key::plain(3)))
            .on_error(move |e| {
                let _ = failed_tx.send((e.clone(), submitted.elapsed(), op_timeout));
            });
    }
    for _ in 0..2 {
        let (err, after, op_timeout) = failed.recv_timeout(WAIT).expect("the op failed");
        assert!(
            matches!(err, Error::Timeout),
            "want Timeout after {op_timeout:?}, got {err:?}"
        );
        assert!(
            after >= op_timeout && after <= op_timeout + LATE,
            "an op with a {op_timeout:?} deadline timed out after {after:?}"
        );
    }
    patient.shutdown();
    hasty.shutdown();
}
