//! Microbenchmarks of the `icg-net` data path, one per stage a
//! `Value::Ids` record crosses between a replica's store and a client:
//!
//! 1. `wire/ids128-encode` — `Wire::encode` of a 128-id (1 KiB) record
//!    into a reused buffer;
//! 2. `wire/ids128-decode` — `from_bytes` of the same bytes;
//! 3. `frame/ids128-encode+read` — `encode_frame` then `read_frame` of a
//!    `ReadReply` carrying the record (header, version check, decode);
//! 4. `reactor/32x1KiB-replies` — 32 pipelined reads of the record
//!    against a one-replica reactor server over loopback: the server
//!    decodes 32 small requests, enqueues 32 one-KiB reply frames on
//!    the connection and flushes them; the iteration ends when the last
//!    reply is decoded. The connection state machine is private to
//!    `icg-net`, so this is the closest a bench target gets to "enqueue
//!    and flush 32 frames" — it includes the loopback round trip.

use std::io::{Cursor, Write};
use std::net::TcpStream;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use icg_net::frame::{encode_frame, read_frame};
use icg_net::wire::{from_bytes, to_bytes};
use icg_net::{spawn_local_cluster, ServerConfig, Wire};
use quorumstore::messages::{Msg, Phase};
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::NodeId;

const FRAMES_PER_ITER: u64 = 32;

fn ids128() -> Value {
    Value::Ids(
        (0..128u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
    )
}

fn op(seq: u64) -> OpId {
    OpId {
        client: NodeId(70_000),
        seq,
    }
}

fn bench_codec(c: &mut Criterion) {
    let value = ids128();
    let mut buf = Vec::new();
    c.bench_function("wire/ids128-encode", |bch| {
        bch.iter(|| {
            buf.clear();
            black_box(&value).encode(&mut buf);
            black_box(buf.len())
        })
    });
    let bytes = to_bytes(&value);
    c.bench_function("wire/ids128-decode", |bch| {
        bch.iter(|| black_box(from_bytes::<Value>(black_box(&bytes))))
    });
}

fn bench_frame(c: &mut Criterion) {
    let reply = Msg::ReadReply {
        op: op(1),
        phase: Phase::Final,
        data: Versioned {
            value: ids128(),
            version: Version { ts: 9, writer: 1 },
        },
    };
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    c.bench_function("frame/ids128-encode+read", |bch| {
        bch.iter(|| {
            encode_frame(black_box(&reply), &mut frame);
            let got = read_frame::<Msg>(&mut Cursor::new(&frame), &mut scratch);
            black_box(got.expect("frame decodes"))
        })
    });
}

fn bench_reactor_replies(c: &mut Criterion) {
    let replicas = spawn_local_cluster(1, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    let mut sock = TcpStream::connect(replicas[0].addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    let mut frame = Vec::new();
    let mut scratch = Vec::new();

    let key = Key::plain(1);
    encode_frame(
        &Msg::ClientWrite {
            op: op(0),
            key,
            value: ids128(),
            w: 1,
        },
        &mut frame,
    );
    sock.write_all(&frame).expect("store the record");
    read_frame::<Msg>(&mut sock, &mut scratch)
        .expect("write ack")
        .expect("write ack frame");

    // The 32 requests of one iteration, encoded once and sent in one
    // write: the client side stays out of the measurement as far as a
    // socket allows.
    let mut batch = Vec::new();
    for seq in 1..=FRAMES_PER_ITER {
        encode_frame(
            &Msg::ClientRead {
                op: op(seq),
                key,
                kind: ReadKind::Single { r: 1 },
            },
            &mut frame,
        );
        batch.extend_from_slice(&frame);
    }
    c.bench_function("reactor/32x1KiB-replies", |bch| {
        bch.iter(|| {
            sock.write_all(&batch).expect("pipelined reads");
            for _ in 0..FRAMES_PER_ITER {
                let reply = read_frame::<Msg>(&mut sock, &mut scratch)
                    .expect("reply")
                    .expect("reply frame");
                black_box(reply);
            }
        })
    });
    for r in &replicas {
        r.shutdown();
    }
}

criterion_group!(benches, bench_codec, bench_frame, bench_reactor_replies);
criterion_main!(benches);
