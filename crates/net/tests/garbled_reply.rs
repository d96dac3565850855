//! Regression tests for the lost/garbled strong-reply bug (PR 8
//! satellite 1), over real sockets.
//!
//! The bug: `TcpBinding` used to close a final reply that carried no
//! view with `Versioned::absent()` — telling the caller "this key does
//! not exist" at Strong confidence the binding never actually obtained.
//! A misrouted, truncated, or garbled reply from a buggy or hostile
//! coordinator must fail the operation with [`Error::Unavailable`]
//! (or [`Error::Timeout`] if nothing arrives at all), never fabricate
//! a view.
//!
//! These tests stand up a *fake coordinator* on a raw `TcpListener`
//! so they can reply with exactly the wrong bytes.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use correctables::{Client, Error};
use icg_net::frame::{encode_frame, read_frame};
use icg_net::{TcpBinding, TcpConfig, WIRE_VERSION};
use quorumstore::{Key, Msg, OpId, StoreOp, Value};
use simnet::NodeId;

fn config(addr: SocketAddr, client_id: u64) -> TcpConfig {
    let mut cfg = TcpConfig::new(vec![addr], client_id);
    cfg.op_timeout = Duration::from_millis(500);
    cfg
}

/// A fake coordinator: accepts connections forever and answers every
/// decodable request with `reply(request)`; `None` drops the request
/// silently. Runs until the process exits (tests leak the thread).
fn fake_coordinator(reply: impl Fn(&Msg) -> Option<Msg> + Send + Clone + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake coordinator");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let reply = reply.clone();
            thread::spawn(move || {
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                while let Ok(Some(msg)) = read_frame::<Msg>(&mut stream, &mut scratch) {
                    if let Some(resp) = reply(&msg) {
                        encode_frame(&resp, &mut out);
                        if std::io::Write::write_all(&mut stream, &out).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
    addr
}

/// A strong read answered by a `WriteReply` bearing the read's own op
/// id — a garbled/misrouted final. The op must fail `Unavailable`; the
/// old code delivered a fabricated `Versioned::absent()` at Strong.
#[test]
fn misrouted_final_reply_fails_unavailable_never_fabricates_absent() {
    let addr = fake_coordinator(|msg| match msg {
        Msg::ClientRead { op, .. } => Some(Msg::WriteReply { op: *op }),
        _ => None,
    });
    let binding = TcpBinding::connect(config(addr, 7000)).expect("connect");
    let client = Client::new(binding.clone());
    let read = client.invoke_strong(StoreOp::Read(Key::plain(1)));
    match read.wait_final(Duration::from_secs(5)) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("want Unavailable, got {other:?}"),
    }
    assert!(
        read.preliminary_views().is_empty(),
        "no view of any kind may surface from a garbled final"
    );
    binding.shutdown();
}

/// A reply frame whose body is garbage (undecodable). The client must
/// tear the connection down and fail the pending op — not deliver
/// anything, not wedge until the deadline.
#[test]
fn garbage_reply_body_fails_the_op_closed() {
    // Raw responder: echo a well-formed frame header around trash.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            thread::spawn(move || {
                let mut scratch = Vec::new();
                while let Ok(Some(_)) = read_frame::<Msg>(&mut stream, &mut scratch) {
                    let body = [0xFFu8; 8];
                    let mut frame = (1 + body.len() as u32).to_le_bytes().to_vec();
                    frame.push(WIRE_VERSION);
                    frame.extend_from_slice(&body);
                    if std::io::Write::write_all(&mut stream, &frame).is_err() {
                        return;
                    }
                }
            });
        }
    });
    let binding = TcpBinding::connect(config(addr, 7100)).expect("connect");
    let client = Client::new(binding.clone());
    let read = client.invoke_strong(StoreOp::Read(Key::plain(2)));
    match read.wait_final(Duration::from_secs(5)) {
        Err(Error::Unavailable(_)) | Err(Error::Timeout) => {}
        other => panic!("want Unavailable/Timeout, got {other:?}"),
    }
    binding.shutdown();
}

/// A coordinator that swallows strong replies entirely. The op must
/// fail `Timeout` at the client-side deadline — the binding holds no
/// view and must not invent one to close the Correctable.
#[test]
fn lost_strong_reply_times_out_instead_of_closing_absent() {
    let addr = fake_coordinator(|_| None);
    let binding = TcpBinding::connect(config(addr, 7200)).expect("connect");
    let client = Client::new(binding.clone());
    let read = client.invoke_strong(StoreOp::Read(Key::plain(3)));
    match read.wait_final(Duration::from_secs(5)) {
        Err(Error::Timeout) => {}
        other => panic!("want Timeout, got {other:?}"),
    }
    binding.shutdown();
}

/// The legitimate fallback still works: a write whose `WriteReply`
/// arrives closes with the locally written record, not an error —
/// fail-closed must not overreach into the write path.
#[test]
fn write_reply_still_closes_with_the_written_record() {
    let addr = fake_coordinator(|msg| match msg {
        Msg::ClientWrite { op, .. } => Some(Msg::WriteReply { op: *op }),
        _ => None,
    });
    let binding = TcpBinding::connect(config(addr, 7300)).expect("connect");
    let client = Client::new(binding.clone());
    let write = client.invoke_strong(StoreOp::Write(Key::plain(4), Value::Opaque(16)));
    let view = write
        .wait_final(Duration::from_secs(5))
        .expect("write closes");
    assert_eq!(view.value.value, Value::Opaque(16));
    binding.shutdown();
}

/// Sanity: the fake-coordinator plumbing itself round-trips — a raw
/// socket can speak a frame to a real frame reader.
#[test]
fn raw_socket_frame_roundtrip() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let t = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut scratch = Vec::new();
        read_frame::<Msg>(&mut stream, &mut scratch).expect("read")
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = Msg::PeerRead {
        op: OpId {
            client: NodeId(9),
            seq: 42,
        },
        key: Key::plain(5),
    };
    let mut out = Vec::new();
    encode_frame(&msg, &mut out);
    std::io::Write::write_all(&mut stream, &out).expect("write");
    let got = t.join().expect("join").expect("frame");
    assert_eq!(got, msg);
}
