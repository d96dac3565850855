//! The spec binding's link against a fake server on a raw socket: what
//! a lost connection leaves behind — a binding that fails fast and
//! never redials.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use correctables::spec::RegOp;
use correctables::{Client, ConsistencyLevel, Error};
use icg_net::frame::write_frame;
use icg_net::{NetMsg, SpecOp, SpecTcpConfig, TcpSpecBinding};
use specstore::{ClientMsg, SpecMsg};

/// A fake server that sends each connection a closing view of another
/// client's operation — a frame the binding drops — and then closes it.
/// Returns its address, its count of accepted connections, and a
/// channel that hears of each close.
fn greet_then_close() -> (SocketAddr, Arc<AtomicUsize>, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let accepts = Arc::new(AtomicUsize::new(0));
    let (closed_tx, closed) = mpsc::channel();
    let counted = Arc::clone(&accepts);
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            counted.fetch_add(1, Ordering::SeqCst);
            let stray = NetMsg::Spec(SpecMsg::Client(ClientMsg::Views {
                op: (u64::MAX, u64::MAX),
                views: vec![(ConsistencyLevel::STRONG, 0)],
                closing: true,
            }));
            write_frame(&mut stream, &stray, &mut Vec::new()).expect("greeting");
            drop(stream);
            let _ = closed_tx.send(());
        }
    });
    (addr, accepts, closed)
}

/// Once the connection is gone, every submission fails `Unavailable` —
/// the first may still meet the dying socket, the later ones find no
/// link at all — long before `op_timeout`, and nothing dials the server
/// again.
#[test]
fn a_lost_spec_link_fails_new_submissions_at_once_and_is_never_redialed() {
    let (addr, accepts, closed) = greet_then_close();
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
