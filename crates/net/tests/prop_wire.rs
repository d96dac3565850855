//! Property tests of every declared wire layout: encode→decode
//! identity over generated values, and rejection (never a panic) of
//! truncated frames and corrupt tag bytes. The generators build every
//! tag each wire enum's decoder accepts, so no variant escapes them.
//!
//! These properties are the codec's entire contract — a transport that
//! silently misparses one frame corrupts protocol state in ways the
//! consistency oracle can only catch much later, so the codec itself is
//! held to round-trip identity under generation.

mod tags;

use std::any::type_name;
use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use correctables::spec::{CtrOp, RegOp};
use correctables::ConsistencyLevel;
use icg_net::wire::{from_bytes, to_bytes, MAX_IDS};
use icg_net::wire::{SpecClientMsg, SpecNetMsg, SpecUpdate, MAX_REPLICAS, MAX_VIEWS};
use icg_net::{NetMsg, Reader, SpecOp, Wire, WireError, WIRE_VERSION};
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::NodeId;
use specstore::{ClientMsg, SpecMsg, UpdateId, VectorClock, Wants};

fn arb_key() -> impl Strategy<Value = Key> {
    (0u64..u64::MAX, 0u64..256).prop_map(|(id, ns)| Key { ns: ns as u8, id })
}

fn arb_version() -> impl Strategy<Value = Version> {
    (0u64..u64::MAX, 0u64..1 << 32).prop_map(|(ts, writer)| Version {
        ts,
        writer: writer as u32,
    })
}

fn arb_op_id() -> impl Strategy<Value = OpId> {
    (0u64..1 << 48, 0u64..u64::MAX).prop_map(|(client, seq)| OpId {
        client: NodeId(client as usize),
        seq,
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u64..1 << 32).prop_map(|n| Value::Opaque(n as u32)),
        proptest::collection::vec(0u64..u64::MAX, 0..16).prop_map(Value::Ids),
        (0u64..1 << 32, 0u64..1 << 32).prop_map(|(f, r)| Value::Delta {
            field_len: f as u32,
            record_len: r as u32,
        }),
    ]
}

fn arb_versioned() -> impl Strategy<Value = Versioned> {
    (arb_value(), arb_version()).prop_map(|(value, version)| Versioned { value, version })
}

fn arb_read_kind() -> impl Strategy<Value = ReadKind> {
    prop_oneof![
        (0u64..8).prop_map(|r| ReadKind::Single { r: r as u8 }),
        (0u64..8, any::<bool>()).prop_map(|(r, confirm)| ReadKind::Icg {
            r: r as u8,
            confirm,
        }),
    ]
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    (0u64..3).prop_map(|phase| match phase {
        0 => Phase::Single,
        1 => Phase::Preliminary,
        _ => Phase::Final,
    })
}

fn arb_fail_reason() -> impl Strategy<Value = FailReason> {
    Just(FailReason::Timeout)
}

fn arb_ack_op() -> impl Strategy<Value = Option<OpId>> {
    (arb_op_id(), any::<bool>()).prop_map(|(op, ack)| ack.then_some(op))
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (arb_op_id(), arb_key(), arb_read_kind()).prop_map(|(op, key, kind)| Msg::ClientRead {
            op,
            key,
            kind
        }),
        (arb_op_id(), arb_key(), arb_value(), 0u64..4).prop_map(|(op, key, value, w)| {
            Msg::ClientWrite {
                op,
                key,
                value,
                w: w as u8,
            }
        }),
        (arb_op_id(), arb_key()).prop_map(|(op, key)| Msg::PeerRead { op, key }),
        (arb_op_id(), arb_versioned()).prop_map(|(op, data)| Msg::PeerReadResp { op, data }),
        (arb_key(), arb_versioned(), arb_ack_op())
            .prop_map(|(key, data, ack_op)| { Msg::PeerWrite { key, data, ack_op } }),
        arb_op_id().prop_map(|op| Msg::PeerWriteAck { op }),
        (arb_op_id(), arb_phase(), arb_versioned())
            .prop_map(|(op, phase, data)| { Msg::ReadReply { op, phase, data } }),
        (arb_op_id(), arb_version()).prop_map(|(op, version)| Msg::ReadConfirm { op, version }),
        arb_op_id().prop_map(|op| Msg::WriteReply { op }),
        (arb_op_id(), arb_fail_reason()).prop_map(|(op, reason)| Msg::OpFailed { op, reason }),
    ]
}

fn arb_reg_op() -> impl Strategy<Value = RegOp> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(RegOp::Read),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(k, v)| RegOp::Write(k, v)),
    ]
}

fn arb_ctr_op() -> impl Strategy<Value = CtrOp> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(CtrOp::Get),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(k, v)| CtrOp::Put(k, v)),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(k, d)| CtrOp::Add(k, d)),
    ]
}

/// Each of the five operations is drawn one time in five.
fn arb_spec_op() -> impl Strategy<Value = SpecOp> {
    prop_oneof![
        2 => arb_reg_op().prop_map(SpecOp::Reg),
        3 => arb_ctr_op().prop_map(SpecOp::Ctr),
    ]
}

/// Every level a process decodes: the builtins, wire ids 0..=4.
fn arb_level() -> impl Strategy<Value = ConsistencyLevel> {
    (0u64..5).prop_map(|id| ConsistencyLevel::from_wire_id(id as u8).expect("a builtin"))
}

/// Any non-empty set of the four levels a spec store serves.
fn arb_wants() -> impl Strategy<Value = Wants> {
    (1u64..16).prop_map(|bits| {
        let levels: Vec<_> = (Wants::LEVELS.iter().enumerate())
            .filter(|(i, _)| bits & 1 << i != 0)
            .map(|(_, level)| *level)
            .collect();
        Wants::of(&levels)
    })
}

fn arb_spec_client_msg() -> impl Strategy<Value = SpecClientMsg> {
    let op = (0u64..u64::MAX, 0u64..u64::MAX);
    prop_oneof![
        (op.clone(), arb_spec_op(), arb_wants()).prop_map(|(op, client_op, wants)| {
            ClientMsg::Submit {
                op,
                client_op,
                wants,
            }
        }),
        (
            op,
            proptest::collection::vec((arb_level(), 0u64..u64::MAX), 0..=usize::from(MAX_VIEWS)),
            any::<bool>()
        )
            .prop_map(|(op, views, closing)| ClientMsg::Views { op, views, closing }),
    ]
}

fn arb_spec_update() -> impl Strategy<Value = SpecUpdate> {
    (
        0u64..1 << 32,
        0u64..u64::MAX,
        0u64..u64::MAX,
        proptest::collection::vec(0u64..u64::MAX, 0..8),
        arb_spec_op(),
    )
        .prop_map(|(origin, seq, ts, vc, op)| SpecUpdate {
            id: UpdateId {
                origin: origin as usize,
                seq,
            },
            ts,
            vc: VectorClock::from(vc),
            op,
        })
}

fn arb_spec_net_msg() -> impl Strategy<Value = SpecNetMsg> {
    prop_oneof![
        arb_spec_client_msg().prop_map(SpecMsg::Client),
        arb_spec_update().prop_map(|update| SpecMsg::Gossip { update }),
        (0u64..1 << 32, 0u64..u64::MAX, 0u64..1 << 32, 0u64..u64::MAX).prop_map(
            |(origin, seq, acker, acker_seq)| SpecMsg::Ack {
                of: UpdateId {
                    origin: origin as usize,
                    seq,
                },
                acker: acker as usize,
                acker_seq,
            }
        ),
    ]
}

fn arb_net_msg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        arb_msg().prop_map(NetMsg::Store),
        arb_spec_net_msg().prop_map(NetMsg::Spec),
    ]
}

/// The `Value::Ids` encoding as the codec produced it before the bulk
/// fill: tag, `u32` count, then one little-endian `u64` appended per id.
/// Kept as the reference the bulk encoder must match byte for byte.
fn reference_ids_bytes(ids: &[u64]) -> Vec<u8> {
    let mut buf = vec![1u8];
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    buf
}

/// Golden bytes for the three list sizes the issue names: empty, one
/// element, and the benchmark's 128-id (1 KiB) record.
#[test]
fn bulk_ids_encoding_matches_the_per_element_reference() {
    assert_eq!(to_bytes(&Value::Ids(vec![])), [1, 0, 0, 0, 0]);
    assert_eq!(
        to_bytes(&Value::Ids(vec![0x0102_0304_0506_0708])),
        [1, 1, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1]
    );
    let ids128: Vec<u64> = (0..128u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let bytes = to_bytes(&Value::Ids(ids128.clone()));
    assert_eq!(bytes.len(), 5 + 128 * 8);
    assert_eq!(bytes, reference_ids_bytes(&ids128));
    assert_eq!(from_bytes::<Value>(&bytes), Ok(Value::Ids(ids128)));
}

/// The encoder appends: whatever the buffer already holds (a frame
/// header, earlier frames of a connection's write buffer) stays put.
#[test]
fn bulk_ids_encoding_appends_after_existing_bytes() {
    let ids = vec![3u64, 5, 8];
    let mut buf = vec![0xEE; 7];
    Value::Ids(ids.clone()).encode(&mut buf);
    assert_eq!(&buf[..7], &[0xEE; 7]);
    assert_eq!(&buf[7..], &reference_ids_bytes(&ids)[..]);
}

/// Id bytes cut anywhere — mid-word included, so the tail is not a
/// multiple of eight — are `Truncated`, and the count is judged before
/// the body: `MAX_IDS + 1` is `TooLarge` and a maximal count on an empty
/// body is `Truncated`, neither reserving a byte for the list.
#[test]
fn ids_decode_rejects_truncated_bodies_and_oversized_counts() {
    let bytes = reference_ids_bytes(&(0..128u64).collect::<Vec<_>>());
    for cut in 5..bytes.len() {
        assert_eq!(
            from_bytes::<Value>(&bytes[..cut]),
            Err(WireError::Truncated),
            "cut at {cut}"
        );
    }
    let mut over = vec![1u8];
    over.extend_from_slice(&(MAX_IDS + 1).to_le_bytes());
    over.extend_from_slice(&[0; 64]);
    assert_eq!(
        from_bytes::<Value>(&over),
        Err(WireError::TooLarge {
            what: "Value::Ids",
            len: u64::from(MAX_IDS) + 1
        })
    );
    let mut max = vec![1u8];
    max.extend_from_slice(&MAX_IDS.to_le_bytes());
    assert_eq!(from_bytes::<Value>(&max), Err(WireError::Truncated));
}

/// A list over its bound encodes, without a panic, as the count
/// `bound + 1` and no body, and the decoder rejects that count as
/// `TooLarge` before it reads what follows: an over-long list costs the
/// receiver one frame, never an allocation, and the sender nothing.
#[test]
fn an_over_bound_list_encodes_as_a_count_the_decoder_rejects() {
    let ids = to_bytes(&Value::Ids(vec![7; MAX_IDS as usize + 1]));
    let mut count_alone = vec![1u8];
    count_alone.extend_from_slice(&(MAX_IDS + 1).to_le_bytes());
    assert_eq!(ids, count_alone);
    assert_eq!(
        from_bytes::<Value>(&ids),
        Err(WireError::TooLarge {
            what: "Value::Ids",
            len: u64::from(MAX_IDS) + 1
        })
    );

    let views = ClientMsg::Views {
        op: (1, 2),
        views: vec![(ConsistencyLevel::WEAK, 3); usize::from(MAX_VIEWS) + 1],
        closing: true,
    };
    let views = NetMsg::Spec(SpecMsg::Client(views));
    let views_bytes = to_bytes(&views);
    // Tag and op id, the count alone, then `closing`.
    assert_eq!(views_bytes[17..], [MAX_VIEWS + 1, 1]);
    assert_eq!(
        from_bytes::<NetMsg>(&views_bytes),
        Err(WireError::TooLarge {
            what: "SpecClientMsg::Views views",
            len: u64::from(MAX_VIEWS) + 1
        })
    );

    let update = SpecUpdate {
        id: UpdateId { origin: 0, seq: 1 },
        ts: 1,
        vc: VectorClock::from(vec![1; MAX_REPLICAS as usize + 1]),
        op: SpecOp::Reg(RegOp::Read(9)),
    };
    let vc_bytes = to_bytes(&update.vc);
    assert_eq!(vc_bytes, (MAX_REPLICAS + 1).to_le_bytes());
    let gossip = NetMsg::Spec(SpecMsg::Gossip { update });
    assert_eq!(
        from_bytes::<NetMsg>(&to_bytes(&gossip)),
        Err(WireError::TooLarge {
            what: "VectorClock",
            len: u64::from(MAX_REPLICAS) + 1
        })
    );
}

/// The leaves that name levels refuse every byte that names none a
/// process serves: a `Wants` byte that wants nothing or sets a bit past
/// the four levels, and a view's level id past the builtins, are
/// `BadTag`. Every other byte decodes as exactly what it says, so no
/// view or request ever carries a weaker level under a stronger name.
#[test]
fn wants_bytes_and_view_levels_that_name_no_served_level_are_bad_tags() {
    let submit = ClientMsg::Submit {
        op: (1, 2),
        client_op: SpecOp::Reg(RegOp::Read(9)),
        wants: Wants::of(&[ConsistencyLevel::WEAK]),
    };
    let submit = to_bytes(&NetMsg::Spec(SpecMsg::Client(submit)));
    let wants_at = submit.len() - 1;
    for byte in 0..=u8::MAX {
        let mut bytes = submit.clone();
        bytes[wants_at] = byte;
        match from_bytes::<NetMsg>(&bytes) {
            Err(WireError::BadTag { what: "Wants", tag }) => {
                assert!(byte == 0 || byte >= 16, "wants byte {byte:#04x} refused");
                assert_eq!(tag, byte);
            }
            Ok(NetMsg::Spec(SpecMsg::Client(ClientMsg::Submit { wants, .. }))) => {
                let served: Vec<_> = (Wants::LEVELS.iter().enumerate())
                    .filter(|(i, _)| byte & 1 << i != 0)
                    .map(|(_, level)| *level)
                    .collect();
                assert!(byte != 0 && byte < 16, "wants byte {byte:#04x} decoded");
                assert_eq!(wants, Wants::of(&served), "wants byte {byte:#04x}");
            }
            other => panic!("wants byte {byte:#04x} decoded as {other:?}"),
        }
    }

    let views = ClientMsg::Views {
        op: (1, 2),
        views: vec![(ConsistencyLevel::WEAK, 3)],
        closing: true,
    };
    let views = to_bytes(&NetMsg::Spec(SpecMsg::Client(views)));
    let level_at = 1 + 16 + 1;
    for byte in 0..=u8::MAX {
        let mut bytes = views.clone();
        bytes[level_at] = byte;
        match from_bytes::<NetMsg>(&bytes) {
            Err(WireError::BadTag {
                what: "ConsistencyLevel",
                tag,
            }) => {
                assert!(byte >= 5, "level id {byte} refused");
                assert_eq!(tag, byte);
            }
            Ok(NetMsg::Spec(SpecMsg::Client(ClientMsg::Views { views, .. }))) => {
                assert!(byte < 5, "level id {byte} decoded");
                assert_eq!(views.len(), 1);
                assert_eq!(views[0].0.wire_id(), byte);
            }
            other => panic!("level id {byte} decoded as {other:?}"),
        }
    }
    for undecodable in [5, 255] {
        let mut bytes = views.clone();
        bytes[level_at] = undecodable;
        assert_eq!(
            from_bytes::<NetMsg>(&bytes),
            Err(WireError::BadTag {
                what: "ConsistencyLevel",
                tag: undecodable
            })
        );
    }
}

/// The bulk codec is an implementation change only; the version a
/// frame carries is part of the format and did not move.
#[test]
fn wire_versions_are_unchanged() {
    assert_eq!(WIRE_VERSION, 2);
}

/// The first bytes of 2 000 values `strategy` builds on a fixed seed:
/// the tags its generator reaches.
fn generated_tags<E: Wire>(strategy: impl Strategy<Value = E>) -> BTreeSet<u8> {
    let mut rng = TestRng::seed_from_u64(0x1C6);
    (0..2_000)
        .filter_map(|_| to_bytes(&strategy.generate(&mut rng)).first().copied())
        .collect()
}

/// Every tag a wire enum's decoder accepts is one its generator builds
/// (and no other), so the properties below see every variant: one added
/// to the `wire!` schema but not to its generator fails here by tag.
#[test]
fn the_generators_build_every_tag_the_decoders_accept() {
    fn compare<E: Wire>(strategy: impl Strategy<Value = E>, wrong: &mut Vec<String>) {
        let (decoded, built) = (tags::decodable_tags::<E>(), generated_tags(strategy));
        if decoded != built {
            wrong.push(format!(
                "{}: the decoder accepts tags [{}] no value is generated with, \
                 and values are generated with tags [{}] it rejects",
                type_name::<E>(),
                tags::list(decoded.difference(&built)),
                tags::list(built.difference(&decoded)),
            ));
        }
    }
    let mut wrong = Vec::new();
    compare(arb_net_msg(), &mut wrong);
    compare(arb_msg(), &mut wrong);
    compare(arb_spec_net_msg(), &mut wrong);
    compare(arb_spec_client_msg(), &mut wrong);
    compare(arb_value(), &mut wrong);
    compare(arb_read_kind(), &mut wrong);
    compare(arb_phase(), &mut wrong);
    compare(arb_fail_reason(), &mut wrong);
    compare(arb_spec_op(), &mut wrong);
    compare(arb_reg_op(), &mut wrong);
    compare(arb_ctr_op(), &mut wrong);
    compare(arb_ack_op(), &mut wrong);
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// Round-trip + truncation + garbage-tag, for one encodable value.
fn codec_contract<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = to_bytes(v);
    // Identity.
    let back: T = from_bytes(&bytes).expect("well-formed encoding decodes");
    prop_assert_eq!(&back, v);
    // Every strict prefix must be rejected as an error, not a panic.
    for cut in 0..bytes.len() {
        prop_assert!(
            from_bytes::<T>(&bytes[..cut]).is_err(),
            "prefix of {} bytes decoded",
            cut
        );
    }
    // Trailing garbage must be rejected (exact-length consumption).
    let mut extended = bytes.clone();
    extended.push(0xAB);
    prop_assert!(from_bytes::<T>(&extended).is_err());
    Ok(())
}

proptest! {
    #[test]
    fn msg_codec_contract(m in arb_msg()) {
        codec_contract(&m)?;
    }

    #[test]
    fn versioned_codec_contract(v in arb_versioned()) {
        codec_contract(&v)?;
    }

    #[test]
    fn op_id_and_key_codec_contract(op in arb_op_id(), key in arb_key()) {
        codec_contract(&op)?;
        codec_contract(&key)?;
    }

    /// A corrupt leading tag byte either decodes to a *different* valid
    /// message (tags overlap the value space of other variants) or
    /// errors — it must never panic and never decode to the original.
    #[test]
    fn corrupt_tag_never_panics(m in arb_msg(), tag in 11u64..256) {
        let mut bytes = to_bytes(&m);
        bytes[0] = tag as u8; // 0x0B.. are unassigned Msg tags
        match from_bytes::<Msg>(&bytes) {
            Ok(other) => prop_assert_ne!(other, m),
            Err(e) => {
                let structured = matches!(
                    e,
                    WireError::BadTag { .. }
                        | WireError::Truncated
                        | WireError::TrailingBytes { .. }
                        | WireError::TooLarge { .. }
                );
                prop_assert!(structured, "unexpected decode error {:?}", e);
            }
        }
    }

    /// Random bytes fed to the decoder: any outcome but a panic.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u64..256, 0..64)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = from_bytes::<Msg>(&bytes);
        let _ = from_bytes::<Versioned>(&bytes);
    }

    /// Random id lists: the bulk encoding equals the per-element
    /// reference, and decodes back to the list.
    #[test]
    fn bulk_ids_encoding_matches_reference(ids in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
        let bytes = to_bytes(&Value::Ids(ids.clone()));
        prop_assert_eq!(&bytes, &reference_ids_bytes(&ids));
        prop_assert_eq!(from_bytes::<Value>(&bytes), Ok(Value::Ids(ids)));
    }

    /// Length prefixes beyond MAX_IDS are rejected before allocating.
    #[test]
    fn oversized_id_lists_rejected(extra in 1u64..1 << 30) {
        let mut buf = vec![1u8];
        let n = MAX_IDS as u64 + extra;
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        let r = Reader::new(&buf).finish::<Value>();
        let rejected = matches!(r, Err(WireError::TooLarge { .. }) | Err(WireError::Truncated));
        prop_assert!(rejected, "oversized list accepted: {:?}", r);
    }

    /// The envelope and its component types hold the same contract as
    /// the quorum-store set: round-trip identity, every strict prefix
    /// rejected, trailing bytes rejected — never a panic.
    #[test]
    fn net_msg_codec_contract(m in arb_net_msg()) {
        codec_contract(&m)?;
    }

    #[test]
    fn spec_op_codec_contract(op in arb_spec_op()) {
        codec_contract(&op)?;
    }

    /// A `Store` frame is a bare `Msg`: the envelope encodes to the
    /// message's own bytes, and each decodes as the other.
    #[test]
    fn store_envelope_is_byte_identical_to_bare_msg(m in arb_msg()) {
        let bare = to_bytes(&m);
        let wrapped = to_bytes(&NetMsg::Store(m.clone()));
        prop_assert_eq!(&bare, &wrapped);
        prop_assert_eq!(from_bytes::<NetMsg>(&bare).expect("Msg bytes decode as envelope"),
            NetMsg::Store(m.clone()));
        prop_assert_eq!(from_bytes::<Msg>(&wrapped).expect("envelope bytes decode as Msg"), m);
    }

    /// Random bytes fed to the envelope decoder: any outcome but a panic.
    #[test]
    fn random_bytes_never_panic_net(bytes in proptest::collection::vec(0u64..256, 0..64)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = from_bytes::<NetMsg>(&bytes);
        let _ = from_bytes::<SpecOp>(&bytes);
        // Behind each spec tag, so the spec decoders see them too.
        for tag in 0x12..=0x15 {
            let _ = from_bytes::<NetMsg>(&[&[tag][..], &bytes].concat());
        }
    }

    /// View lists beyond MAX_VIEWS, and vector clocks beyond
    /// MAX_REPLICAS, are rejected before allocating.
    #[test]
    fn oversized_level_and_vc_lists_rejected(extra in 1u64..200) {
        // Views of (client, seq) with too many (level, value) pairs.
        let mut buf = vec![0x13];
        buf.extend_from_slice(&[0; 16]); // client + seq
        buf.push((MAX_VIEWS as u64 + extra).min(255) as u8);
        let r = from_bytes::<NetMsg>(&buf);
        prop_assert!(
            matches!(r, Err(WireError::TooLarge { .. }) | Err(WireError::Truncated)),
            "oversized views list accepted: {:?}", r
        );
        // Gossip with an oversized vector clock.
        let mut buf = vec![0x14];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0; 16]); // seq + ts
        buf.extend_from_slice(&((MAX_REPLICAS as u64 + extra) as u32).to_le_bytes());
        let r = from_bytes::<NetMsg>(&buf);
        prop_assert!(
            matches!(r, Err(WireError::TooLarge { .. }) | Err(WireError::Truncated)),
            "oversized vector clock accepted: {:?}", r
        );
    }
}
