//! End-to-end tests of the spec store: the full incremental refinement
//! *weak → update → causal → strong* on a single Correctable, against a
//! real 3-replica TCP cluster, each core message one frame — plus the
//! refusal of a custom level no binding serves, a direct submission's
//! level list (each level sent once, an unserved one failed at once),
//! quorum-store and spec-store clients side by side on one port, and
//! the binding's failure contract (lost replica, garbled reply, a reply
//! at a level id no process decodes, silent server, last clone dropped)
//! against fake servers on raw sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use correctables::spec::{CtrOp, RegOp};
use correctables::{Binding, Client, ConsistencyLevel, Correctable, Error, Upcall};
use icg_net::frame::{encode_frame, read_frame, write_frame};
use icg_net::{
    spawn_local_cluster, NetMsg, ReplicaHandle, ReplicaServer, ServerConfig, SpecOp, SpecTcpConfig,
    TcpBinding, TcpConfig, TcpSpecBinding, WIRE_VERSION,
};
use quorumstore::{Key, StoreOp, Value};
use specstore::{ClientMsg, SpecMsg, Wants};

fn cluster() -> Vec<ReplicaHandle> {
    spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    })
}

fn connect(cluster: &[ReplicaHandle], client_id: u64) -> TcpSpecBinding {
    TcpSpecBinding::connect(SpecTcpConfig::new(cluster[0].addr(), client_id))
        .expect("connect spec binding")
}

/// Collects the level names of every view an invocation delivered, in
/// delivery order (preliminaries then the final).
fn level_trace(c: &correctables::Correctable<u64>) -> Vec<&'static str> {
    let fin = c
        .wait_final(Duration::from_secs(10))
        .expect("refinement closes");
    let mut names: Vec<&'static str> = c
        .preliminary_views()
        .iter()
        .map(|v| v.level.name())
        .collect();
    names.push(fin.level.name());
    names
}

/// The acceptance scenario: one invocation refines through all four
/// levels on Register *and* Counter.
#[test]
fn refinement_runs_weak_update_causal_strong_on_register_and_counter() {
    let replicas = cluster();
    let binding = connect(&replicas, 9000);
    let client = Client::new(binding.clone());

    // Register: a write refines through all four levels, every view
    // agreeing on the written value (no concurrent writers).
    let write = client.invoke(SpecOp::Reg(RegOp::Write(1, 42)));
    assert_eq!(
        level_trace(&write),
        ["weak", "update", "causal", "strong"],
        "register write must refine through all four levels"
    );
    for v in write.preliminary_views() {
        assert_eq!(v.value, 42, "register view diverged");
    }

    // A read through the same refinement sees the settled write.
    let read = client.invoke(SpecOp::Reg(RegOp::Read(1)));
    assert_eq!(level_trace(&read), ["weak", "update", "causal", "strong"]);
    let fin = read.final_view().expect("closed above");
    assert_eq!(fin.value, 42, "strong register read");

    // Counter: same refinement, arithmetic semantics.
    let add = client.invoke(SpecOp::Ctr(CtrOp::Add(5, 7)));
    assert_eq!(
        level_trace(&add),
        ["weak", "update", "causal", "strong"],
        "counter add must refine through all four levels"
    );
    let get = client.invoke(SpecOp::Ctr(CtrOp::Get(5)));
    assert_eq!(level_trace(&get), ["weak", "update", "causal", "strong"]);
    assert_eq!(get.final_view().expect("closed above").value, 7);

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// `invoke_at` collapses the refinement to a single level: a weak-only
/// submission closes at Weak without waiting for any coordination, an
/// update-only submission closes at Update without acks.
#[test]
fn single_level_submissions_close_at_that_level() {
    let replicas = cluster();
    let binding = connect(&replicas, 9100);
    let client = Client::new(binding.clone());

    let weak = client.invoke_at(SpecOp::Ctr(CtrOp::Add(1, 1)), ConsistencyLevel::WEAK);
    let v = weak
        .wait_final(Duration::from_secs(5))
        .expect("weak closes");
    assert_eq!(v.level, ConsistencyLevel::WEAK);
    assert!(weak.preliminary_views().is_empty());

    let update = client.invoke_at(SpecOp::Ctr(CtrOp::Add(1, 1)), ConsistencyLevel::UPDATE);
    let v = update
        .wait_final(Duration::from_secs(5))
        .expect("update closes");
    assert_eq!(v.level, ConsistencyLevel::UPDATE);
    assert_eq!(v.value, 2, "update view replays the agreed order");

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// Sequential counter increments through the strong level observe
/// strictly increasing values — each strong view is stable in the total
/// order before the next submission starts.
#[test]
fn sequential_strong_counter_increments_are_exact() {
    let replicas = cluster();
    let binding = connect(&replicas, 9200);
    let client = Client::new(binding.clone());
    for expect in 1..=5u64 {
        let add = client.invoke(SpecOp::Ctr(CtrOp::Add(3, 1)));
        let fin = add.wait_final(Duration::from_secs(10)).expect("closes");
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value, expect, "strong add #{expect}");
    }
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// A spec submission from client `client` as its frame's bytes.
fn submit_frame(client: u64, seq: u64, op: SpecOp, levels: &[ConsistencyLevel]) -> Vec<u8> {
    let submit = ClientMsg::Submit {
        op: (client, seq),
        client_op: op,
        wants: Wants::of(levels),
    };
    let mut frame = Vec::new();
    encode_frame(&NetMsg::Spec(SpecMsg::Client(submit)), &mut frame);
    frame
}

/// Whether the server closes `stream` without a byte of answer.
fn closed_unanswered(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    matches!(stream.read(&mut [0u8; 16]), Ok(0) | Err(_))
}

/// A four-level op's two wait-free views leave the replica in one
/// frame, weak then update, as they leave a simulated replica in one
/// message; each view that needs the peers follows in a frame of its
/// own, the strong one closing.
#[test]
fn a_four_level_op_s_wait_free_views_arrive_in_one_frame() {
    let replicas = cluster();
    let mut stream = TcpStream::connect(replicas[0].addr()).expect("raw connect");
    let op = SpecOp::Ctr(CtrOp::Add(4, 1));
    let frame = submit_frame(9800, 1, op, &Wants::LEVELS);
    stream.write_all(&frame).expect("raw submit");
    let mut scratch = Vec::new();
    let mut frames = Vec::new();
    loop {
        let reply = read_frame::<NetMsg>(&mut stream, &mut scratch)
            .expect("reply frame")
            .expect("reply");
        let NetMsg::Spec(SpecMsg::Client(ClientMsg::Views {
            op: (9800, 1),
            views,
            closing,
        })) = reply
        else {
            panic!("want views of the op, got {reply:?}");
        };
        frames.push(
            views
                .iter()
                .map(|(level, _)| level.name())
                .collect::<Vec<_>>(),
        );
        if closing {
            break;
        }
    }
    assert_eq!(
        frames,
        [vec!["weak", "update"], vec!["causal"], vec!["strong"]]
    );
    for r in &replicas {
        r.shutdown();
    }
}

/// A custom fifth level that no binding serves is refused cleanly — by
/// the client-side level arbitration (the binding does not offer it),
/// and by the server when a request at a level it does not decode is
/// forced onto the wire anyway: the connection closes unanswered and
/// the next one is served — never silently downgraded, never a crash.
#[test]
fn an_unserved_custom_level_is_refused_by_client_and_server() {
    let audit = ConsistencyLevel::new("audit-spec-net", 30);
    let replicas = cluster();
    let binding = connect(&replicas, 9300);
    // Through the stack: the Upcall arbitration refuses the level the
    // binding never offered.
    let client = Client::new(binding.clone());
    let c = client.invoke_at(SpecOp::Reg(RegOp::Read(1)), audit);
    match c.wait_final(Duration::from_secs(5)) {
        Err(Error::UnsupportedLevel(l)) => assert_eq!(l, audit),
        other => panic!("unserved level must fail UnsupportedLevel, got {other:?}"),
    }
    // On the wire: a raw submission whose wanted-levels byte sets a bit
    // past the four levels (or none at all) is not decoded, so the
    // connection closes unanswered.
    let op = SpecOp::Reg(RegOp::Read(1));
    for bogus in [0x10, 0x00] {
        let mut frame = submit_frame(9301, 1, op.clone(), &[ConsistencyLevel::WEAK]);
        *frame.last_mut().expect("the wants byte") = bogus;
        let mut stream = TcpStream::connect(replicas[0].addr()).expect("raw connect");
        stream.write_all(&frame).expect("raw submit");
        assert!(
            closed_unanswered(&mut stream),
            "wants byte {bogus:#04x} was answered"
        );
    }
    // The next connection is served.
    let mut stream = TcpStream::connect(replicas[0].addr()).expect("raw connect");
    let frame = submit_frame(9301, 2, op, &[ConsistencyLevel::WEAK]);
    stream.write_all(&frame).expect("raw submit");
    let reply = read_frame::<NetMsg>(&mut stream, &mut Vec::new())
        .expect("reply frame")
        .expect("reply");
    let weak_view = ClientMsg::Views {
        op: (9301, 2),
        views: vec![(ConsistencyLevel::WEAK, 0)],
        closing: true,
    };
    assert_eq!(reply, NetMsg::Spec(SpecMsg::Client(weak_view)));
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// Submits `op` straight to the binding, past the client's level
/// arbitration, asking for `levels` as given.
fn submit_raw(
    binding: &TcpSpecBinding,
    op: SpecOp,
    levels: &[ConsistencyLevel],
) -> Correctable<u64> {
    let (c, handle) = Correctable::pending();
    binding.submit(op, levels, Upcall::for_levels(handle, levels));
    c
}

/// A direct submission naming one level hundreds of times sends that
/// level once: it delivers its view, and the binding (and the client
/// loop it shares) serves the next operation.
#[test]
fn a_repeated_level_goes_on_the_wire_once_and_the_binding_keeps_serving() {
    let replicas = cluster();
    let binding = connect(&replicas, 9700);
    let weak = vec![ConsistencyLevel::WEAK; 300];
    let read = submit_raw(&binding, SpecOp::Reg(RegOp::Read(1)), &weak);
    let view = read
        .wait_final(Duration::from_secs(10))
        .expect("the weak view");
    assert_eq!(view.level, ConsistencyLevel::WEAK);
    let client = Client::new(binding.clone());
    let write = client.invoke(SpecOp::Reg(RegOp::Write(1, 3)));
    assert_eq!(level_trace(&write), ["weak", "update", "causal", "strong"]);
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// A direct submission naming a level the binding does not serve fails
/// `UnsupportedLevel` before `submit` returns: no frame is sent, so the
/// server (silent here) is never waited on.
#[test]
fn an_unserved_level_fails_at_once_without_a_round_trip() {
    let audit = ConsistencyLevel::new("audit-spec-direct", 31);
    let (addr, _closed) = fake_spec_server(AfterGreeting::Silent);
    let binding =
        TcpSpecBinding::connect(SpecTcpConfig::new(addr, 9701)).expect("connect spec binding");
    let levels = [ConsistencyLevel::WEAK, audit, ConsistencyLevel::STRONG];
    let read = submit_raw(&binding, SpecOp::Reg(RegOp::Read(1)), &levels);
    assert_eq!(read.error(), Some(Error::UnsupportedLevel(audit)));
    assert!(read.preliminary_views().is_empty());
    binding.shutdown();
}

/// Quorum-store and spec-store clients coexist on the same listener:
/// the store binding (`Store` frames, each a bare `Msg`) and the spec
/// binding (`Spec` frames, each a bare `SpecMsg`) run side by side
/// against one cluster,
/// neither disturbing the other.
#[test]
fn a_store_client_and_a_spec_client_share_a_cluster() {
    let replicas = cluster();
    let addrs = replicas.iter().map(|r| r.addr()).collect();

    let store = TcpBinding::connect(TcpConfig::new(addrs, 9400)).expect("connect store binding");
    let spec = connect(&replicas, 9500);

    let store_client = Client::new(store.clone());
    let spec_client = Client::new(spec.clone());

    let w = store_client.invoke_strong(StoreOp::Write(Key::plain(9), Value::Opaque(1)));
    w.wait_final(Duration::from_secs(5)).expect("store write");
    let s = spec_client.invoke(SpecOp::Reg(RegOp::Write(9, 2)));
    s.wait_final(Duration::from_secs(10)).expect("spec write");
    let r = store_client.invoke_strong(StoreOp::Read(Key::plain(9)));
    let view = r.wait_final(Duration::from_secs(5)).expect("store read");
    assert_eq!(
        view.value.value,
        Value::Opaque(1),
        "the stores are distinct — the spec write must not leak"
    );

    store.shutdown();
    spec.shutdown();
    for rep in &replicas {
        rep.shutdown();
    }
}

/// What a fake spec server does with each submission after it has
/// greeted the connection.
#[derive(Clone, Copy)]
enum AfterGreeting {
    /// Read submissions and never answer.
    Silent,
    /// Answer every submission with a well-framed undecodable body.
    Garbage,
    /// Answer every submission with one closing views frame at level
    /// ids 5 and 255, which no process decodes.
    UnknownLevels,
}

/// A closing view of another client's operation: a frame a spec
/// binding must drop.
fn stray() -> NetMsg {
    NetMsg::Spec(SpecMsg::Client(ClientMsg::Views {
        op: (u64::MAX, u64::MAX),
        views: vec![(ConsistencyLevel::STRONG, 0)],
        closing: true,
    }))
}

/// A views frame for `(client, seq)` whose two views are at level ids 5
/// and 255, as the codec would lay it out if it could encode them.
fn views_at_unknown_levels((client, seq): (u64, u64)) -> Vec<u8> {
    let mut body = vec![0x13];
    body.extend_from_slice(&client.to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.push(2);
    for level in [5u8, 255] {
        body.push(level);
        body.extend_from_slice(&7u64.to_le_bytes());
    }
    body.push(1);
    let mut frame = (1 + body.len() as u32).to_le_bytes().to_vec();
    frame.push(WIRE_VERSION);
    frame.extend_from_slice(&body);
    frame
}

/// A fake spec server on a raw listener: greets each connection with
/// [`stray`], then treats submissions per `mode`. Reports on the
/// returned channel when a connection's read side ends (EOF or reset).
fn fake_spec_server(mode: AfterGreeting) -> (SocketAddr, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake spec server");
    let addr = listener.local_addr().expect("local addr");
    let (closed_tx, closed_rx) = mpsc::channel();
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let closed_tx = closed_tx.clone();
            thread::spawn(move || {
                let mut scratch = Vec::new();
                write_frame(&mut stream, &stray(), &mut scratch).expect("greeting");
                while let Ok(Some(msg)) = read_frame::<NetMsg>(&mut stream, &mut scratch) {
                    let sent = match (mode, msg) {
                        (AfterGreeting::Garbage, _) => {
                            let body = [0xFFu8; 8];
                            let mut frame = (1 + body.len() as u32).to_le_bytes().to_vec();
                            frame.push(WIRE_VERSION);
                            frame.extend_from_slice(&body);
                            stream.write_all(&frame).is_ok()
                        }
                        (
                            AfterGreeting::UnknownLevels,
                            NetMsg::Spec(SpecMsg::Client(ClientMsg::Submit { op, .. })),
                        ) => stream.write_all(&views_at_unknown_levels(op)).is_ok(),
                        _ => true,
                    };
                    if !sent {
                        break;
                    }
                }
                let _ = closed_tx.send(());
            });
        }
    });
    (addr, closed_rx)
}

/// A replica that dies with a strong spec op in flight: the op's views
/// died with the socket, so it fails `Unavailable` — well before the
/// client-side deadline, and never by fabricating a strong view.
#[test]
fn replica_shutdown_fails_the_in_flight_strong_op_unavailable() {
    // One replica whose only peer is a dead port: a strong view needs
    // the peer's ack and so stays pending for as long as we like.
    let dead_peer: SocketAddr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let replica = ReplicaServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind replica")
        .start(vec![dead_peer]);
    let mut cfg = SpecTcpConfig::new(replica.addr(), 9600);
    cfg.op_timeout = Duration::from_secs(30);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    let client = Client::new(binding.clone());

    let add = client.invoke_at(SpecOp::Ctr(CtrOp::Add(1, 1)), ConsistencyLevel::STRONG);
    assert!(
        add.wait_final(Duration::from_millis(300)).is_err(),
        "a strong view without the peer's ack must stay pending"
    );
    replica.shutdown();
    match add.wait_final(Duration::from_secs(10)) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("want Unavailable, got {other:?}"),
    }
    assert!(add.preliminary_views().is_empty());
    binding.shutdown();
}

/// A reply frame whose body is garbage: the op fails
/// `Unavailable` and no view of any level surfaces — the binding never
/// guesses at what the reply might have been.
#[test]
fn garbage_spec_reply_fails_unavailable_and_delivers_no_view() {
    let (addr, _closed) = fake_spec_server(AfterGreeting::Garbage);
    let mut cfg = SpecTcpConfig::new(addr, 9601);
    cfg.op_timeout = Duration::from_secs(30);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    let client = Client::new(binding.clone());

    let read = client.invoke(SpecOp::Reg(RegOp::Read(1)));
    match read.wait_final(Duration::from_secs(10)) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("want Unavailable, got {other:?}"),
    }
    assert!(read.preliminary_views().is_empty());
    binding.shutdown();
}

/// Views at a level id no process decodes — 5, or 255, the id of every
/// level beyond the builtins — are a frame the binding cannot decode:
/// no view surfaces under any name, the connection closes, and the op
/// fails `Unavailable`, as does the next one on the binding it left
/// down.
#[test]
fn spec_replies_at_undecodable_level_ids_deliver_no_view() {
    let (addr, _closed) = fake_spec_server(AfterGreeting::UnknownLevels);
    let mut cfg = SpecTcpConfig::new(addr, 9604);
    cfg.op_timeout = Duration::from_secs(30);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    let client = Client::new(binding.clone());

    for op in [RegOp::Write(1, 7), RegOp::Read(1)] {
        let c = client.invoke(SpecOp::Reg(op));
        match c.wait_final(Duration::from_secs(10)) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("want Unavailable, got {other:?}"),
        }
        assert!(c.preliminary_views().is_empty());
    }
    binding.shutdown();
}

/// A server that greets the connection and then goes silent: the op
/// fails `Timeout` at the client-side `op_timeout`, not before and not
/// never.
#[test]
fn silent_server_after_greeting_times_out_at_op_timeout() {
    let (addr, _closed) = fake_spec_server(AfterGreeting::Silent);
    let mut cfg = SpecTcpConfig::new(addr, 9602);
    cfg.op_timeout = Duration::from_millis(400);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    let client = Client::new(binding.clone());

    let read = client.invoke(SpecOp::Reg(RegOp::Read(1)));
    assert!(
        read.wait_final(Duration::from_millis(100)).is_err(),
        "nothing may close the op before its deadline"
    );
    match read.wait_final(Duration::from_secs(10)) {
        Err(Error::Timeout) => {}
        other => panic!("want Timeout, got {other:?}"),
    }
    assert!(read.preliminary_views().is_empty());
    binding.shutdown();
}

/// Dropping the last binding clone — without calling `shutdown` —
/// closes the socket: the server sees its read side end.
#[test]
fn dropping_the_last_clone_closes_the_socket() {
    let (addr, closed) = fake_spec_server(AfterGreeting::Silent);
    let binding =
        TcpSpecBinding::connect(SpecTcpConfig::new(addr, 9603)).expect("connect spec binding");
    let clone = binding.clone();
    drop(binding);
    assert!(
        closed.recv_timeout(Duration::from_millis(300)).is_err(),
        "a live clone must keep the connection open"
    );
    drop(clone);
    closed
        .recv_timeout(Duration::from_secs(5))
        .expect("server never saw the connection close");
}
