//! Integration tests for the epoll reactor (PR 8 tentpole): partial
//! frames across readiness events, partial writes resumed mid-frame,
//! write-buffer backpressure, connection churn, peer death mid-frame,
//! concurrent clients on a fresh cluster, and a client reactor dropped
//! under its bindings — plus what a quorum read that asks only `R-1` peers
//! owes its clients when a peer link is late, silent, or dies.
//! Everything here runs over real loopback sockets against real
//! `ReplicaServer`s.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use correctables::{Client, Error};
use icg_net::frame::{encode_frame, read_frame};
use icg_net::{
    spawn_local_cluster, ClientReactor, ReplicaHandle, ReplicaServer, ServerConfig, TcpBinding,
    TcpConfig, WIRE_VERSION,
};
use quorumstore::types::ReadKind;
use quorumstore::{Key, Msg, OpId, Phase, StoreOp, Value};
use simnet::NodeId;

/// Raw-socket client ids live far above binding client ids.
const RAW_CLIENT: u64 = 50_000;

fn cluster(n: usize) -> Vec<ReplicaHandle> {
    spawn_local_cluster(n, |id| ServerConfig {
        id,
        op_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
}

fn config(replicas: &[ReplicaHandle], client_id: u64) -> TcpConfig {
    let addrs = replicas.iter().map(|r| r.addr()).collect();
    let mut cfg = TcpConfig::new(addrs, client_id);
    cfg.r_strong = replicas.len().min(2) as u8;
    cfg
}

fn op(client: u64, seq: u64) -> OpId {
    OpId {
        client: NodeId(client as usize),
        seq,
    }
}

fn frame_bytes(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(msg, &mut out);
    out
}

/// Starts a listener that accepts every connection, holds it open and
/// never reads or answers: a stopped process, as its peers see it.
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

fn shutdown(replicas: Vec<ReplicaHandle>) {
    for r in &replicas {
        r.shutdown();
    }
}

/// A write and a read dribbled onto the socket one byte at a time: the
/// frame spans many edge-triggered readiness events and the reactor
/// must buffer partial prefixes and bodies without losing its place.
#[test]
fn partial_frames_across_readiness_events() {
    let replicas = cluster(1);
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");

    let write = frame_bytes(&Msg::ClientWrite {
        op: op(RAW_CLIENT, 1),
        key: Key::plain(10),
        value: Value::Opaque(64),
        w: 1,
    });
    for b in &write {
        sock.write_all(std::slice::from_ref(b)).expect("dribble");
        thread::sleep(Duration::from_millis(1));
    }
    let mut scratch = Vec::new();
    let reply = read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read reply")
        .expect("reply frame");
    assert_eq!(
        reply,
        Msg::WriteReply {
            op: op(RAW_CLIENT, 1)
        }
    );

    // Read it back, split into two arbitrary chunks.
    let read = frame_bytes(&Msg::ClientRead {
        op: op(RAW_CLIENT, 2),
        key: Key::plain(10),
        kind: ReadKind::Single { r: 1 },
    });
    let (a, b) = read.split_at(7);
    sock.write_all(a).expect("first half");
    thread::sleep(Duration::from_millis(10));
    sock.write_all(b).expect("second half");
    match read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read reply")
        .expect("reply frame")
    {
        Msg::ReadReply { op: o, phase, data } => {
            assert_eq!(o, op(RAW_CLIENT, 2));
            assert_eq!(phase, Phase::Single);
            assert_eq!(data.value, Value::Opaque(64));
        }
        other => panic!("want ReadReply, got {other:?}"),
    }
    shutdown(replicas);
}

/// A 40 KiB `Value::Ids` write dribbled a few bytes per segment: the
/// partial frame sits in the connection's read buffer across hundreds
/// of readiness events, each of which reads into the spare room behind
/// it. Nothing that prepares that room may touch the bytes already
/// received — the record read back must be the record sent.
#[test]
fn large_ids_frame_dribbled_in_small_writes_round_trips() {
    let replicas = cluster(1);
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");

    let ids = Value::Ids((0..5120u64).map(|i| i * 0x0101_0101_0101 + 1).collect());
    let write = frame_bytes(&Msg::ClientWrite {
        op: op(RAW_CLIENT + 3, 1),
        key: Key::plain(16),
        value: ids.clone(),
        w: 1,
    });
    assert!(write.len() > 40 * 1024);
    for (i, chunk) in write.chunks(61).enumerate() {
        sock.write_all(chunk).expect("dribble");
        if i % 64 == 0 {
            // Let the reactor catch up, so the frame really does arrive
            // over many edges instead of pooling in the socket buffer.
            thread::sleep(Duration::from_millis(1));
        }
    }
    let mut scratch = Vec::new();
    let reply = read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read reply")
        .expect("reply frame");
    assert_eq!(
        reply,
        Msg::WriteReply {
            op: op(RAW_CLIENT + 3, 1)
        }
    );

    sock.write_all(&frame_bytes(&Msg::ClientRead {
        op: op(RAW_CLIENT + 3, 2),
        key: Key::plain(16),
        kind: ReadKind::Single { r: 1 },
    }))
    .expect("read back");
    match read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read reply")
        .expect("reply frame")
    {
        Msg::ReadReply { data, .. } => assert_eq!(data.value, ids),
        other => panic!("want ReadReply, got {other:?}"),
    }
    shutdown(replicas);
}

/// Replies far larger than a socket buffer, pipelined under the write
/// cap: the server's flush stops mid-frame on `WouldBlock` over and
/// over and has to resume at the byte it stopped on, with later replies
/// already appended behind. Every reply must decode, whole and in
/// request order.
#[test]
fn pipelined_large_replies_resume_after_partial_writes() {
    let replicas = cluster(1);
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");

    // A 256 KiB record; a window of 8 keeps at most 2 MiB unwritten,
    // under the 4 MiB cap, while 32 reads move 8 MiB in total — and a
    // fresh loopback socket takes a small fraction of one such frame
    // per `write`.
    let big = Value::Ids((0..32 * 1024u64).collect());
    sock.write_all(&frame_bytes(&Msg::ClientWrite {
        op: op(RAW_CLIENT + 4, 0),
        key: Key::plain(17),
        value: big.clone(),
        w: 1,
    }))
    .expect("write big");
    let mut scratch = Vec::new();
    read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("ack")
        .expect("ack frame");

    const READS: u64 = 32;
    const WINDOW: u64 = 8;
    let read = |seq: u64| {
        frame_bytes(&Msg::ClientRead {
            op: op(RAW_CLIENT + 4, seq),
            key: Key::plain(17),
            kind: ReadKind::Single { r: 1 },
        })
    };
    for seq in 1..=WINDOW {
        sock.write_all(&read(seq)).expect("pipelined read");
    }
    for seq in 1..=READS {
        match read_frame::<Msg>(&mut sock, &mut scratch)
            .expect("reply decodes")
            .expect("reply frame")
        {
            Msg::ReadReply { op: o, data, .. } => {
                assert_eq!(o, op(RAW_CLIENT + 4, seq), "replies out of order");
                assert_eq!(data.value, big, "reply {seq} corrupt");
            }
            other => panic!("want ReadReply, got {other:?}"),
        }
        if seq + WINDOW <= READS {
            sock.write_all(&read(seq + WINDOW)).expect("pipelined read");
        }
    }
    shutdown(replicas);
}

/// Two requests coalesced into one TCP segment: a single readiness
/// event must dispatch both frames, in order.
#[test]
fn coalesced_frames_dispatch_in_order() {
    let replicas = cluster(1);
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");

    let mut batch = frame_bytes(&Msg::ClientWrite {
        op: op(RAW_CLIENT + 1, 1),
        key: Key::plain(11),
        value: Value::Opaque(32),
        w: 1,
    });
    batch.extend(frame_bytes(&Msg::ClientRead {
        op: op(RAW_CLIENT + 1, 2),
        key: Key::plain(11),
        kind: ReadKind::Single { r: 1 },
    }));
    sock.write_all(&batch).expect("batch");

    let mut scratch = Vec::new();
    let first = read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read")
        .expect("frame");
    assert_eq!(
        first,
        Msg::WriteReply {
            op: op(RAW_CLIENT + 1, 1)
        }
    );
    match read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("read")
        .expect("frame")
    {
        Msg::ReadReply { op: o, data, .. } => {
            assert_eq!(o, op(RAW_CLIENT + 1, 2));
            assert_eq!(data.value, Value::Opaque(32));
        }
        other => panic!("want ReadReply, got {other:?}"),
    }
    shutdown(replicas);
}

/// A client that pipelines reads of a ~1 MiB record without ever
/// draining replies. The write queue must hit its cap and the server
/// must shed the connection instead of buffering without bound — and
/// keep serving everyone else afterwards.
#[test]
fn write_queue_backpressure_sheds_slow_reader() {
    let replicas = cluster(1);

    // Store a record whose read replies are ~1 MiB each.
    let big = Value::Ids(vec![7; 128 * 1024]);
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");
    sock.write_all(&frame_bytes(&Msg::ClientWrite {
        op: op(RAW_CLIENT + 2, 1),
        key: Key::plain(12),
        value: big.clone(),
        w: 1,
    }))
    .expect("write big");
    let mut scratch = Vec::new();
    read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("ack")
        .expect("ack frame");

    // 24 pipelined reads -> ~24 MiB of replies against a 4 MiB cap.
    const READS: u64 = 24;
    for seq in 0..READS {
        sock.write_all(&frame_bytes(&Msg::ClientRead {
            op: op(RAW_CLIENT + 2, 100 + seq),
            key: Key::plain(12),
            kind: ReadKind::Single { r: 1 },
        }))
        .expect("pipelined read");
    }
    // Let the server run into the cap before we drain anything.
    thread::sleep(Duration::from_millis(300));
    let mut delivered = 0u64;
    loop {
        match read_frame::<Msg>(&mut sock, &mut scratch) {
            Ok(Some(_)) => delivered += 1,
            Ok(None) => break,
            Err(_) => break,
        }
    }
    assert!(
        delivered < READS,
        "server delivered all {READS} pipelined replies — backpressure cap never fired"
    );

    // The shed connection must not take the server down.
    let binding = TcpBinding::connect(config(&replicas, 1500)).expect("connect");
    let client = Client::new(binding.clone());
    let view = client
        .invoke_strong(StoreOp::Read(Key::plain(12)))
        .wait_final(Duration::from_secs(5))
        .expect("server still serves");
    assert_eq!(view.value.value, big);
    binding.shutdown();
    shutdown(replicas);
}

/// A peer that dies mid-frame (length prefix promises more than it ever
/// sends), a peer that sends a wrong version byte, and one that sends a
/// well-formed request stamped with the retired version 1: each
/// connection is dropped unanswered without disturbing the replica.
#[test]
fn death_mid_frame_and_bad_version_are_contained() {
    let replicas = cluster(1);

    // Half a frame, then a hard close.
    let mut truncated = TcpStream::connect(replicas[0].addr()).expect("connect");
    let mut partial = 100u32.to_le_bytes().to_vec();
    partial.push(WIRE_VERSION);
    partial.extend_from_slice(&[1, 2, 3, 4, 5]);
    truncated.write_all(&partial).expect("partial frame");
    drop(truncated);

    // A well-formed length prefix around an unknown protocol version.
    let mut wrong_ver = TcpStream::connect(replicas[0].addr()).expect("connect");
    let mut bad = 4u32.to_le_bytes().to_vec();
    bad.push(WIRE_VERSION.wrapping_add(1));
    bad.extend_from_slice(&[0, 0, 0]);
    wrong_ver.write_all(&bad).expect("bad version frame");
    // The server must close on us (read returns EOF/reset), not reply.
    wrong_ver
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    match wrong_ver.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered a bad-version frame with {n} bytes"),
    }

    // A read the replica would answer, but in a version-1 frame.
    let mut v1 = TcpStream::connect(replicas[0].addr()).expect("connect");
    let mut old = frame_bytes(&Msg::ClientRead {
        op: op(RAW_CLIENT, 1),
        key: Key::plain(13),
        kind: ReadKind::Single { r: 1 },
    });
    old[4] = 1;
    v1.write_all(&old).expect("version-1 frame");
    v1.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match v1.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered a version-1 frame with {n} bytes"),
    }

    // The replica still serves well-behaved traffic.
    let binding = TcpBinding::connect(config(&replicas, 1501)).expect("connect");
    let client = Client::new(binding.clone());
    client
        .invoke_strong(StoreOp::Write(Key::plain(13), Value::Opaque(8)))
        .wait_final(Duration::from_secs(5))
        .expect("write after garbage");
    binding.shutdown();
    shutdown(replicas);
}

/// Mass connect/disconnect churn — sudden drops, half frames, and full
/// request/reply cycles interleaved from several threads — must leave
/// the replica fully functional.
#[test]
fn connection_churn_leaves_the_server_healthy() {
    let replicas = cluster(1);
    let addr = replicas[0].addr();

    let churners: Vec<_> = (0..3)
        .map(|t| {
            thread::spawn(move || {
                for i in 0..50u64 {
                    let Ok(mut sock) = TcpStream::connect(addr) else {
                        panic!("churn connect failed");
                    };
                    match i % 3 {
                        0 => {} // connect and vanish
                        1 => {
                            // die mid-frame
                            let _ = sock.write_all(&[40, 0, 0, 0, WIRE_VERSION, 9]);
                        }
                        _ => {
                            // full request/reply cycle
                            sock.write_all(&frame_bytes(&Msg::ClientRead {
                                op: op(RAW_CLIENT + 10 + t, i),
                                key: Key::plain(1),
                                kind: ReadKind::Single { r: 1 },
                            }))
                            .expect("churn read");
                            let mut scratch = Vec::new();
                            read_frame::<Msg>(&mut sock, &mut scratch)
                                .expect("churn reply")
                                .expect("churn reply frame");
                        }
                    }
                }
            })
        })
        .collect();
    for c in churners {
        c.join().expect("churner");
    }

    let binding = TcpBinding::connect(config(&replicas, 1502)).expect("connect");
    let client = Client::new(binding.clone());
    client
        .invoke_strong(StoreOp::Write(Key::plain(14), Value::Opaque(8)))
        .wait_final(Duration::from_secs(5))
        .expect("write after churn");
    let view = client
        .invoke_strong(StoreOp::Read(Key::plain(14)))
        .wait_final(Duration::from_secs(5))
        .expect("read after churn");
    assert_eq!(view.value.value, Value::Opaque(8));
    binding.shutdown();
    shutdown(replicas);
}

/// Several clients, each on its own thread and connection, running full
/// write/strong-read cycles against a freshly booted cluster must see
/// exactly their own data back. Their first operations can reach a
/// coordinator before its peer mesh is up.
#[test]
fn concurrent_clients_round_trip() {
    let replicas = cluster(3);

    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            let cfg = config(&replicas, 1600 + c);
            thread::spawn(move || {
                let binding = TcpBinding::connect(cfg).expect("connect");
                let client = Client::new(binding.clone());
                for k in 0..6u64 {
                    let key = Key::plain(1000 + c * 100 + k);
                    client
                        .invoke_strong(StoreOp::Write(key, Value::Opaque(16 + c as u32)))
                        .wait_final(Duration::from_secs(5))
                        .expect("write");
                    let view = client
                        .invoke_strong(StoreOp::Read(key))
                        .wait_final(Duration::from_secs(5))
                        .expect("strong read");
                    assert_eq!(view.value.value, Value::Opaque(16 + c as u32));
                }
                binding.shutdown();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    shutdown(replicas);
}

/// A replica config for the availability tests below: quick redials, so
/// a link comes up within ~100 ms of its peer starting to listen.
fn quick_redial(id: u32, op_timeout: Duration) -> ServerConfig {
    ServerConfig {
        id,
        op_timeout,
        peer_retry: Duration::from_millis(20),
        peer_retry_cap: Duration::from_millis(100),
    }
}

/// A loopback address nothing listens on and nothing will be handed:
/// below the ephemeral range every other bind in this suite draws
/// from, so it stays refused until this test binds it itself.
fn refused_addr(salt: u16) -> SocketAddr {
    let base = 20_000 + (std::process::id() % 2_000) as u16 * 2 + salt;
    (base..base + 8_000)
        .step_by(2)
        .map(|port| SocketAddr::from(([127, 0, 0, 1], port)))
        .find(|addr| TcpListener::bind(addr).is_ok())
        .expect("a free port below the ephemeral range")
}

/// The late-mesh regression. A strong read reaches a coordinator whose
/// peers are not listening yet, so no peer link is up and nobody can be
/// asked. The read must complete when the links arrive — it used to be
/// fanned out to nobody, never again, and fail `Timeout`.
#[test]
fn read_before_the_peer_mesh_is_up_completes_when_the_links_arrive() {
    let op_timeout = Duration::from_secs(4);
    let peers = [refused_addr(0), refused_addr(1)];
    let first = ReplicaServer::bind("127.0.0.1:0", quick_redial(0, op_timeout))
        .expect("bind")
        .start(peers.to_vec());

    let mut cfg = TcpConfig::new(vec![first.addr()], 1700);
    cfg.op_timeout = 2 * op_timeout;
    let binding = TcpBinding::connect(cfg).expect("connect");
    let client = Client::new(binding.clone());
    let submitted = Instant::now();
    let read = client.invoke_strong(StoreOp::Read(Key::plain(30)));
    assert!(
        read.wait_final(Duration::from_millis(200)).is_err(),
        "no peer is reachable; the quorum read must still be pending"
    );

    let mut replicas = vec![first];
    for (i, addr) in peers.iter().enumerate() {
        let others = vec![replicas[0].addr(), peers[1 - i]];
        let server = ReplicaServer::bind(&addr.to_string(), quick_redial(1 + i as u32, op_timeout))
            .expect("bind the peer's port");
        replicas.push(server.start(others));
    }
    read.wait_final(op_timeout)
        .expect("the read asks the first link that comes up");
    assert!(
        submitted.elapsed() < op_timeout / 2,
        "completed at {:?}: by a link coming up, not by luck at the deadline",
        submitted.elapsed()
    );
    binding.shutdown();
    shutdown(replicas);
}

/// A peer that accepts connections and never answers (SIGSTOP, a
/// blackholing middlebox) stands in for replica 2 of 3. The coordinator
/// cannot tell from the link that anything is wrong, so the first read
/// that asks it waits out the hedge point (a quarter of `op_timeout`)
/// before asking the other peer — and after that the silent peer is
/// asked last, so no later read pays for it.
#[test]
fn tarpit_peer_delays_one_read_by_the_hedge_and_fails_none() {
    let op_timeout = Duration::from_secs(2);
    let tarpit_addr = tarpit();

    let servers: Vec<ReplicaServer> = (0..2)
        .map(|id| ReplicaServer::bind("127.0.0.1:0", quick_redial(id, op_timeout)).expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let replicas: Vec<ReplicaHandle> = servers
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.start(vec![addrs[1 - i], tarpit_addr]))
        .collect();

    let binding = TcpBinding::connect(TcpConfig::new(vec![addrs[0]], 1701)).expect("connect");
    let client = Client::new(binding.clone());
    client
        .invoke_strong(StoreOp::Write(Key::plain(31), Value::Opaque(8)))
        .wait_final(Duration::from_secs(5))
        .expect("write");
    // Both links up before the clock starts: a read that found only the
    // live peer would never meet the tarpit.
    thread::sleep(Duration::from_millis(300));

    let mut slow = Vec::new();
    let mut slowest_other = Duration::ZERO;
    for i in 0..50 {
        let started = Instant::now();
        let view = client
            .invoke_strong(StoreOp::Read(Key::plain(31)))
            .wait_final(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("read {i} failed: {e:?}"));
        assert_eq!(view.value.value, Value::Opaque(8));
        if started.elapsed() >= Duration::from_millis(50) {
            slow.push((i, started.elapsed()));
        } else {
            slowest_other = slowest_other.max(started.elapsed());
        }
    }
    println!("tarpit: delayed reads {slow:?}, slowest of the rest {slowest_other:?}");
    match slow.as_slice() {
        [(i, took)] => {
            assert!(*i < 2, "rotation reaches the tarpit within two reads");
            assert!(
                *took >= op_timeout / 4 && *took < op_timeout / 2,
                "the read that met the tarpit took {took:?}, want one hedge delay"
            );
        }
        other => panic!("want exactly one read delayed by the silent peer, got {other:?}"),
    }
    binding.shutdown();
    shutdown(replicas);
}

/// A non-coordinator replica killed under a stream of strong reads: the
/// coordinator sees the link close and re-asks the surviving peer at
/// once, so no read fails and none waits for the hedge timer — neither
/// the ones in flight at the kill nor the ones submitted after it.
#[test]
fn killed_peer_fails_no_read_and_delays_none() {
    let op_timeout = Duration::from_secs(8);
    let replicas = spawn_local_cluster(3, |id| quick_redial(id, op_timeout));
    let mut cfg = config(&replicas[..1], 1702);
    cfg.op_timeout = op_timeout;
    let binding = TcpBinding::connect(cfg).expect("connect");
    let client = Client::new(binding.clone());
    client
        .invoke_strong(StoreOp::Write(Key::plain(32), Value::Opaque(8)))
        .wait_final(Duration::from_secs(5))
        .expect("write");

    let killed = AtomicBool::new(false);
    let (before, after) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let slowest = thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut slowest = Duration::ZERO;
            while after.load(Ordering::SeqCst) < 200 {
                let was_killed = killed.load(Ordering::SeqCst);
                let started = Instant::now();
                client
                    .invoke_strong(StoreOp::Read(Key::plain(32)))
                    .wait_final(op_timeout)
                    .expect("no read may fail while two of three replicas live");
                slowest = slowest.max(started.elapsed());
                let count = if was_killed { &after } else { &before };
                count.fetch_add(1, Ordering::SeqCst);
            }
            slowest
        });
        // Kill under load, not before it: reads are in flight to both
        // peers in turn when replica 2 goes.
        while before.load(Ordering::SeqCst) < 200 {
            thread::yield_now();
        }
        replicas[2].shutdown();
        killed.store(true, Ordering::SeqCst);
        reader.join().expect("reader")
    });
    println!(
        "kill: {} reads before, {} after, slowest {slowest:?}",
        before.load(Ordering::SeqCst),
        after.load(Ordering::SeqCst)
    );
    assert!(
        slowest < op_timeout / 8,
        "slowest read took {slowest:?}; the hedge point is {:?}",
        op_timeout / 4
    );
    binding.shutdown();
    shutdown(replicas);
}

/// A client reactor dropped under a live binding: the op in flight and
/// every op submitted afterwards fail `Unavailable` — the loop that
/// would have served (or timed out) either is gone, and a Correctable
/// must never be left open on a queue nobody drains.
#[test]
fn dropped_reactor_fails_in_flight_and_later_ops_unavailable() {
    // A coordinator that accepts and never answers.
    let silent = tarpit();

    let reactor = ClientReactor::new(1).expect("dedicated reactor");
    let mut cfg = TcpConfig::new(vec![silent], 1900);
    cfg.op_timeout = Duration::from_secs(60);
    let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
    let client = Client::new(binding.clone());

    let in_flight = client.invoke_strong(StoreOp::Read(Key::plain(20)));
    assert!(
        in_flight.wait_final(Duration::from_millis(200)).is_err(),
        "nobody answers; the op must still be pending"
    );
    drop(reactor);
    let later = client.invoke_strong(StoreOp::Read(Key::plain(21)));
    for (what, c) in [("in-flight", &in_flight), ("later", &later)] {
        match c.wait_final(Duration::from_secs(5)) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("{what} op: want Unavailable, got {other:?}"),
        }
    }
}

/// A reactor binding pointed at dead addresses fails fast with a
/// connect error instead of hanging.
#[test]
fn reactor_binding_fails_fast_on_dead_replicas() {
    // Bind-then-drop to get a port nobody is listening on.
    let dead: SocketAddr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let mut cfg = TcpConfig::new(vec![dead], 1800);
    cfg.connect_timeout = Duration::from_millis(200);
    assert!(
        TcpBinding::connect(cfg).is_err(),
        "connect to a dead replica set must error"
    );
}
