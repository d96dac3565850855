//! A write whose value the wire cannot carry fails on its own, with
//! `Error::Storage`, before it touches the link: the client loop it
//! would have been encoded on keeps serving every binding that shares
//! it.

use std::time::Duration;

use correctables::{Client, Error};
use icg_net::wire::MAX_IDS;
use icg_net::{spawn_local_cluster, ClientReactor, ServerConfig, TcpBinding, TcpConfig};
use quorumstore::{Key, StoreOp, Value, Version};

const WAIT: Duration = Duration::from_secs(5);

#[test]
fn an_oversized_write_fails_alone_and_the_shared_loop_keeps_serving() {
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    let addrs: Vec<_> = replicas.iter().map(|r| r.addr()).collect();
    let reactor = ClientReactor::new(1).expect("reactor");
    let connect = |client_id| {
        let mut cfg = TcpConfig::new(addrs.clone(), client_id);
        cfg.op_timeout = Duration::from_millis(500);
        Client::new(TcpBinding::connect_on(cfg, &reactor).expect("connect"))
    };
    let (a, b) = (connect(7100), connect(7101));
    let huge = || StoreOp::Write(Key::plain(99), Value::Ids(vec![7; MAX_IDS as usize + 1]));
    let fails_storage =
        |write: StoreOp, client: &Client<TcpBinding>| match client.invoke(write).wait_final(WAIT) {
            Err(Error::Storage(_)) => {}
            other => panic!("an oversized write must fail Storage, got {other:?}"),
        };

    // Behind writes in flight: the request would have been queued for
    // the loop and encoded there. (Built first: copying 8 MiB takes
    // longer than the writes ahead of it.)
    let write = huge();
    let busy: Vec<_> = (0..8)
        .map(|k| a.invoke(StoreOp::Write(Key::plain(k), Value::Opaque(1))))
        .collect();
    fails_storage(write, &a);
    for write in busy {
        write.wait_final(WAIT).expect("a write in flight beside it");
    }
    // On an idle link: the calling thread would have encoded it.
    fails_storage(huge(), &a);

    // The loop `a` shares with `b` still serves both.
    for client in [&b, &a] {
        let write = client.invoke(StoreOp::Write(Key::plain(1), Value::Opaque(2)));
        write
            .wait_final(WAIT)
            .expect("a write after the oversized one");
        let read = client.invoke(StoreOp::Read(Key::plain(99)));
        let view = read
            .wait_final(WAIT)
            .expect("a read after the oversized one");
        assert_eq!(
            view.value.version,
            Version::ZERO,
            "the oversized write reached a replica"
        );
    }
    for r in &replicas {
        r.shutdown();
    }
}
