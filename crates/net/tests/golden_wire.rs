//! Golden frames: one encoded frame per variant of every wire enum,
//! written out as hex — the length prefix, the frame's version byte,
//! then the body. Each frame must encode to exactly these bytes and
//! decode back to its value, so a codec rewrite that moves one byte of
//! any layout (or the version byte a frame carries) fails here by name,
//! with the bytes it produced. The tables hold a frame for every
//! tag each wire enum's decoder accepts, and a closing test checks it.

mod tags;

use std::any::type_name;
use std::collections::BTreeSet;
use std::fmt::Debug;

use correctables::spec::{CtrOp, RegOp};
use correctables::ConsistencyLevel;
use icg_net::frame::{encode_frame, read_frame};
use icg_net::wire::{from_bytes, SpecClientMsg, SpecNetMsg};
use icg_net::{NetMsg, SpecOp, Wire};
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::NodeId;
use specstore::{ClientMsg, SpecMsg, Update, UpdateId, VectorClock, Wants};

/// `len ver body`, each part in lower-case hex.
fn hex(frame: &[u8]) -> String {
    let digits = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    format!(
        "{} {} {}",
        digits(&frame[..4]),
        digits(&frame[4..5]),
        digits(&frame[5..])
    )
}

/// The frames of a table that encode to other bytes than the golden
/// ones or do not decode back, each with the bytes it produced; and
/// every frame's type with its body.
#[derive(Default)]
struct Golden {
    wrong: Vec<String>,
    bodies: Vec<(&'static str, Vec<u8>)>,
}

impl Golden {
    fn check<T: Wire + PartialEq + Debug>(&mut self, name: &str, value: T, golden: &str) {
        let mut frame = Vec::new();
        encode_frame(&value, &mut frame);
        self.bodies.push((type_name::<T>(), frame[5..].to_vec()));
        let got = hex(&frame);
        if got != golden {
            self.wrong.push(format!("{name}: encodes as \"{got}\""));
            return;
        }
        match read_frame::<T>(&mut &frame[..], &mut Vec::new()) {
            Ok(Some(back)) if back == value => {}
            other => self.wrong.push(format!("{name}: decodes as {other:?}")),
        }
    }

    fn assert_all_golden(self) {
        assert!(self.wrong.is_empty(), "\n{}", self.wrong.join("\n"));
    }

    /// Notes in `wrong` each tag `E`'s decoder accepts that no frame
    /// starts with: a frame of type `E`, or of the enum in `outer` that
    /// hands `E` part of its tag space, whose body decodes as `E`.
    fn cover<E: Wire>(&mut self, outer: Option<&str>) {
        let carriers = [Some(type_name::<E>()), outer];
        let covered: BTreeSet<u8> = (self.bodies.iter())
            .filter(|(ty, body)| carriers.contains(&Some(*ty)) && from_bytes::<E>(body).is_ok())
            .filter_map(|(_, body)| body.first().copied())
            .collect();
        let decodable = tags::decodable_tags::<E>();
        let missing = tags::list(decodable.difference(&covered));
        if !missing.is_empty() {
            let name = type_name::<E>();
            (self.wrong).push(format!("{name}: no golden frame for tags [{missing}]"));
        }
    }
}

fn op() -> OpId {
    OpId {
        client: NodeId(3),
        seq: 77,
    }
}

fn key() -> Key {
    Key { ns: 2, id: 9 }
}

fn version() -> Version {
    Version { ts: 8, writer: 1 }
}

fn data() -> Versioned {
    Versioned {
        value: Value::Ids(vec![5, 6]),
        version: version(),
    }
}

#[test]
fn every_store_message_frame_is_golden() {
    let mut g = Golden::default();
    store_message_frames(&mut g);
    g.assert_all_golden();
}

#[test]
fn every_envelope_frame_is_golden() {
    let mut g = Golden::default();
    envelope_frames(&mut g);
    g.assert_all_golden();
}

#[test]
fn every_component_frame_is_golden() {
    let mut g = Golden::default();
    component_frames(&mut g);
    g.assert_all_golden();
}

/// The tables hold a frame for every tag of every wire enum. `Msg` and
/// `SpecNetMsg` share `NetMsg`'s tag space (a `Store` frame is a bare
/// `Msg`, a `Spec` frame a bare `SpecNetMsg`), `SpecClientMsg` shares
/// `SpecNetMsg`'s, and `RegOp` and `CtrOp` share `SpecOp`'s. The schema's one optional
/// field, `PeerWrite`'s `ack_op`, has a `Msg` frame in each shape: an
/// `Option` frame alone does not show the message carrying it.
#[test]
fn golden_frames_cover_every_decodable_tag() {
    let mut g = Golden::default();
    store_message_frames(&mut g);
    envelope_frames(&mut g);
    component_frames(&mut g);
    g.cover::<NetMsg>(None);
    g.cover::<Msg>(Some(type_name::<NetMsg>()));
    g.cover::<SpecNetMsg>(Some(type_name::<NetMsg>()));
    g.cover::<SpecClientMsg>(Some(type_name::<NetMsg>()));
    g.cover::<Value>(None);
    g.cover::<ReadKind>(None);
    g.cover::<Phase>(None);
    g.cover::<FailReason>(None);
    g.cover::<SpecOp>(None);
    g.cover::<RegOp>(Some(type_name::<SpecOp>()));
    g.cover::<CtrOp>(Some(type_name::<SpecOp>()));
    g.cover::<Option<OpId>>(None);
    let acks: BTreeSet<bool> = (g.bodies.iter())
        .filter(|(ty, _)| *ty == type_name::<NetMsg>())
        .filter_map(|(_, body)| match from_bytes::<Msg>(body) {
            Ok(Msg::PeerWrite { ack_op, .. }) => Some(ack_op.is_some()),
            _ => None,
        })
        .collect();
    if acks != BTreeSet::from([false, true]) {
        let shapes = format!("ack_op.is_some() in {acks:?}");
        (g.wrong).push(format!("Msg::PeerWrite: golden frames only with {shapes}"));
    }
    g.assert_all_golden();
}

fn store_message_frames(g: &mut Golden) {
    let store = |m: Msg| NetMsg::Store(m);
    g.check(
        "ClientRead",
        store(Msg::ClientRead {
            op: op(),
            key: key(),
            kind: ReadKind::Icg {
                r: 2,
                confirm: true,
            },
        }),
        "1e000000 02 0103000000000000004d00000000000000020900000000000000010201",
    );
    g.check(
        "ClientWrite",
        store(Msg::ClientWrite {
            op: op(),
            key: key(),
            value: Value::Opaque(1024),
            w: 2,
        }),
        "21000000 02 0203000000000000004d00000000000000020900000000000000000004000002",
    );
    g.check(
        "PeerRead",
        store(Msg::PeerRead {
            op: op(),
            key: key(),
        }),
        "1b000000 02 0303000000000000004d00000000000000020900000000000000",
    );
    g.check(
        "PeerReadResp",
        store(Msg::PeerReadResp {
            op: op(),
            data: data(),
        }),
        "33000000 02 0403000000000000004d00000000000000010200000005000000000000000600000000000000080000000000000001000000",
    );
    g.check(
        "PeerWrite",
        store(Msg::PeerWrite {
            key: key(),
            data: Versioned {
                value: Value::Delta {
                    field_len: 16,
                    record_len: 1024,
                },
                version: version(),
            },
            ack_op: Some(op()),
        }),
        "31000000 02 050209000000000000000210000000000400000800000000000000010000000103000000000000004d00000000000000",
    );
    g.check(
        "PeerWrite (no ack)",
        store(Msg::PeerWrite {
            key: key(),
            data: data(),
            ack_op: None,
        }),
        "2d000000 02 0502090000000000000001020000000500000000000000060000000000000008000000000000000100000000",
    );
    g.check(
        "PeerWriteAck",
        store(Msg::PeerWriteAck { op: op() }),
        "12000000 02 0603000000000000004d00000000000000",
    );
    g.check(
        "ReadReply",
        store(Msg::ReadReply {
            op: op(),
            phase: Phase::Preliminary,
            data: data(),
        }),
        "34000000 02 0703000000000000004d0000000000000001010200000005000000000000000600000000000000080000000000000001000000",
    );
    g.check(
        "ReadConfirm",
        store(Msg::ReadConfirm {
            op: op(),
            version: version(),
        }),
        "1e000000 02 0803000000000000004d00000000000000080000000000000001000000",
    );
    g.check(
        "WriteReply",
        store(Msg::WriteReply { op: op() }),
        "12000000 02 0903000000000000004d00000000000000",
    );
    g.check(
        "OpFailed",
        store(Msg::OpFailed {
            op: op(),
            reason: FailReason::Timeout,
        }),
        "13000000 02 0a03000000000000004d0000000000000000",
    );
}

fn envelope_frames(g: &mut Golden) {
    let spec = |m: SpecNetMsg| NetMsg::Spec(m);
    g.check(
        "Submit",
        spec(SpecMsg::Client(ClientMsg::Submit {
            op: (4400, 5),
            client_op: SpecOp::Ctr(CtrOp::Add(3, 2)),
            wants: Wants::of(&Wants::LEVELS),
        })),
        "24000000 02 123011000000000000050000000000000004030000000000000002000000000000000f",
    );
    g.check(
        "Views",
        spec(SpecMsg::Client(ClientMsg::Views {
            op: (4400, 5),
            views: vec![
                (ConsistencyLevel::CAUSAL, 41),
                (ConsistencyLevel::STRONG, 42),
            ],
            closing: true,
        })),
        "26000000 02 133011000000000000050000000000000002032900000000000000042a0000000000000001",
    );
    g.check(
        "Gossip",
        spec(SpecMsg::Gossip {
            update: Update {
                id: UpdateId { origin: 1, seq: 4 },
                ts: 9,
                vc: VectorClock::from(vec![1, 4, 0]),
                op: SpecOp::Reg(RegOp::Write(5, 6)),
            },
        }),
        "43000000 02 140100000004000000000000000900000000000000030000000100000000000000040000000000000000000000000000000105000000000000000600000000000000",
    );
    g.check(
        "Ack",
        spec(SpecMsg::Ack {
            of: UpdateId { origin: 1, seq: 4 },
            acker: 2,
            acker_seq: 3,
        }),
        "1a000000 02 15010000000400000000000000020000000300000000000000",
    );
}

fn component_frames(g: &mut Golden) {
    g.check(
        "Value::Opaque",
        Value::Opaque(1024),
        "06000000 02 0000040000",
    );
    g.check(
        "Value::Ids",
        Value::Ids(vec![1, 0x0102_0304_0506_0708]),
        "16000000 02 010200000001000000000000000807060504030201",
    );
    g.check(
        "Value::Delta",
        Value::Delta {
            field_len: 16,
            record_len: 1024,
        },
        "0a000000 02 021000000000040000",
    );
    g.check(
        "ReadKind::Single",
        ReadKind::Single { r: 1 },
        "03000000 02 0001",
    );
    g.check(
        "ReadKind::Icg",
        ReadKind::Icg {
            r: 2,
            confirm: false,
        },
        "04000000 02 010200",
    );
    g.check("Phase::Single", Phase::Single, "02000000 02 00");
    g.check("Phase::Preliminary", Phase::Preliminary, "02000000 02 01");
    g.check("Phase::Final", Phase::Final, "02000000 02 02");
    g.check("FailReason::Timeout", FailReason::Timeout, "02000000 02 00");
    g.check(
        "SpecOp::Reg(Read)",
        SpecOp::Reg(RegOp::Read(7)),
        "0a000000 02 000700000000000000",
    );
    g.check(
        "SpecOp::Reg(Write)",
        SpecOp::Reg(RegOp::Write(7, 8)),
        "12000000 02 0107000000000000000800000000000000",
    );
    g.check(
        "SpecOp::Ctr(Get)",
        SpecOp::Ctr(CtrOp::Get(7)),
        "0a000000 02 020700000000000000",
    );
    g.check(
        "SpecOp::Ctr(Put)",
        SpecOp::Ctr(CtrOp::Put(7, 8)),
        "12000000 02 0307000000000000000800000000000000",
    );
    g.check(
        "SpecOp::Ctr(Add)",
        SpecOp::Ctr(CtrOp::Add(7, 8)),
        "12000000 02 0407000000000000000800000000000000",
    );
    g.check("Option::None", None::<OpId>, "02000000 02 00");
    g.check(
        "Option::Some",
        Some(op()),
        "12000000 02 0103000000000000004d00000000000000",
    );
}
