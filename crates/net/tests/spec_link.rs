//! The spec binding's link against fake servers on raw sockets: what
//! the connect-time level check refuses, what a server's directory
//! leaves in this process's level registry (nothing), and what a lost
//! connection leaves behind — a binding that fails fast and never
//! redials.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use correctables::spec::RegOp;
use correctables::{Client, ConsistencyLevel, Error};
use icg_net::frame::{read_frame, write_frame};
use icg_net::wire::MAX_LEVELS;
use icg_net::{LevelInfo, NetMsg, SpecOp, SpecTcpConfig, TcpSpecBinding, WIRE_VERSION};

/// This process's level directory, with `strong` moved to `strong_id`.
fn directory(strong_id: u8) -> Vec<LevelInfo> {
    ConsistencyLevel::all_registered()
        .into_iter()
        .map(|l| LevelInfo {
            id: if l == ConsistencyLevel::STRONG {
                strong_id
            } else {
                l.wire_id()
            },
            rank: l.rank(),
            name: l.name().to_string(),
        })
        .collect()
}

/// A fake server that answers each connection's `Hello` with a
/// `HelloAck` carrying `levels` and then closes it. Returns its address,
/// its count of accepted connections, and a channel that hears of each
/// close.
fn hello_then_close(levels: Vec<LevelInfo>) -> (SocketAddr, Arc<AtomicUsize>, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let accepts = Arc::new(AtomicUsize::new(0));
    let (closed_tx, closed) = mpsc::channel();
    let counted = Arc::clone(&accepts);
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            counted.fetch_add(1, Ordering::SeqCst);
            let mut scratch = Vec::new();
            let hello = read_frame::<NetMsg>(&mut stream, &mut scratch);
            assert!(matches!(hello, Ok(Some(NetMsg::Hello { .. }))));
            let ack = NetMsg::HelloAck {
                version: WIRE_VERSION,
                levels: levels.clone(),
            };
            write_frame(&mut stream, &ack, &mut scratch).expect("hello ack");
            drop(stream);
            let _ = closed_tx.send(());
        }
    });
    (addr, accepts, closed)
}

#[test]
fn a_server_listing_strong_under_another_id_is_refused_at_connect() {
    let strong = ConsistencyLevel::STRONG.wire_id();
    let (addr, _accepts, _closed) = hello_then_close(directory(strong.wrapping_add(100)));
    match TcpSpecBinding::connect(SpecTcpConfig::new(addr, 9700)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        Ok(_) => panic!("a directory that renumbers strong must be refused"),
    }
}

/// A directory full of names this process does not know registers none
/// of them: a server cannot spend the process's wire ids.
#[test]
fn a_servers_unknown_levels_leave_the_registry_as_it_was() {
    let mut levels = directory(ConsistencyLevel::STRONG.wire_id());
    let names: Vec<String> = (levels.len()..MAX_LEVELS as usize)
        .map(|i| format!("server-only-level-{i}"))
        .collect();
    for (i, name) in names.iter().enumerate() {
        levels.push(LevelInfo {
            id: 100 + i as u8,
            rank: 30,
            name: name.clone(),
        });
    }
    let before = ConsistencyLevel::all_registered().len();
    let (addr, _accepts, _closed) = hello_then_close(levels);
    let binding = TcpSpecBinding::connect(SpecTcpConfig::new(addr, 9702)).expect("connect");
    assert_eq!(ConsistencyLevel::all_registered().len(), before);
    let learned: Vec<&String> = names
        .iter()
        .filter(|name| ConsistencyLevel::lookup(name).is_some())
        .collect();
    assert!(
        learned.is_empty(),
        "registered from the handshake: {learned:?}"
    );
    binding.shutdown();
}

/// Once the connection is gone, every submission fails `Unavailable` —
/// the first may still meet the dying socket, the later ones find no
/// link at all — long before `op_timeout`, and nothing dials the server
/// again.
#[test]
fn a_lost_spec_link_fails_new_submissions_at_once_and_is_never_redialed() {
    let (addr, accepts, closed) = hello_then_close(directory(ConsistencyLevel::STRONG.wire_id()));
    let mut cfg = SpecTcpConfig::new(addr, 9701);
    cfg.op_timeout = Duration::from_secs(20);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    closed
        .recv_timeout(Duration::from_secs(5))
        .expect("the server closed");
    let client = Client::new(binding.clone());
    for attempt in 0..3 {
        let read = client.invoke(SpecOp::Reg(RegOp::Read(1)));
        match read.wait_final(Duration::from_secs(2)) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("attempt {attempt}: want Unavailable, got {other:?}"),
        }
    }
    thread::sleep(Duration::from_millis(200));
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        1,
        "the binding dialed again"
    );
    binding.shutdown();
}
