//! The hand-rolled wire codec: derive-free, allocation-conscious binary
//! encode/decode for every message that crosses a socket.
//!
//! Every encodable type implements [`Wire`] by hand — there is no serde,
//! no derive macro, and no reflection, so the byte layout of each message
//! is exactly what the impl writes and nothing else. All integers are
//! little-endian. Variable-length collections carry a `u32` element
//! count, bounded at decode time by [`MAX_IDS`] so a corrupt or hostile
//! frame cannot ask the decoder to allocate gigabytes.
//!
//! The layout of each type is documented in `DESIGN.md` §10; the framing
//! that wraps an encoded message on a stream lives in [`crate::frame`].

use correctables::spec::{CtrOp, RegOp};
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use quorumstore::StoreOp;
use simnet::NodeId;

/// Protocol bound on [`Value::Ids`] list lengths, enforced on **both**
/// sides of the codec: decode rejects longer lists (a corrupt length
/// prefix must not turn into an attempted multi-gigabyte allocation),
/// and encode panics on them — a sender must fail loudly rather than
/// emit a poison frame every receiver will reject.
pub const MAX_IDS: u32 = 1 << 20;

/// Protocol bound on the level directory a handshake advertises and on
/// the per-submit wanted-level list. The level registry's wire-id space
/// is a `u8`, so 255 is the true ceiling; 64 is already far beyond any
/// sane deployment.
pub const MAX_LEVELS: u8 = 64;

/// Protocol bound on the vector-clock width of a spec-store gossip
/// message — i.e. on the replica-set size of a TCP spec deployment.
pub const MAX_REPLICAS: u32 = 64;

/// Why a byte sequence failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded when the unknown tag was hit.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded its sanity bound (e.g. [`MAX_IDS`]).
    TooLarge {
        /// The type being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// Bytes were left over after the outermost value was decoded.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// The frame header announced an unsupported wire-format version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag { what, tag } => write!(f, "unknown tag {tag:#04x} decoding {what}"),
            WireError::TooLarge { what, len } => {
                write!(f, "length {len} exceeds the sanity bound decoding {what}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (speak versions {MIN_WIRE_VERSION}..={WIRE_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The newest wire-format version this build speaks. The frame header
/// carries a version byte so an incompatible revision is rejected
/// cleanly instead of misparsed (see [`crate::frame`]).
///
/// Version history:
///
/// - **1** — the original quorum-store message set ([`Msg`],
///   tags `0x01..=0x0A`).
/// - **2** — the [`NetMsg`] envelope: a level-directory handshake
///   ([`NetMsg::Hello`]/[`NetMsg::HelloAck`]) and the spec-store
///   messages (tags `0x0B..=0x11`), whose replies carry a consistency
///   level id byte. Version-1 frames remain fully decodable — every
///   `Msg` encodes byte-identically inside [`NetMsg::Store`] — and
///   version-1-compatible messages are still *sent* in version-1 frames
///   (see [`Wire::min_wire_version`]), so old and new peers interoperate
///   on the shared subset.
pub const WIRE_VERSION: u8 = 2;

/// The oldest wire-format version this build still accepts.
pub const MIN_WIRE_VERSION: u8 = 1;

/// A cursor over a received byte buffer.
///
/// All decoding goes through this type: it tracks the read position,
/// returns [`WireError::Truncated`] instead of panicking when bytes run
/// out, and exposes [`Reader::remaining`] so callers can enforce
/// exact-length consumption.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consumes `n` consecutive little-endian `u64`s. The byte range is
    /// bounds-checked once, before anything is allocated, so a large
    /// count on a short buffer is [`WireError::Truncated`], not an
    /// attempted allocation; callers bound `n` itself first.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        let bytes = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Decodes one `T` and then requires the buffer to be fully consumed.
    pub fn finish<T: Wire>(mut self) -> Result<T, WireError> {
        let v = T::decode(&mut self)?;
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(v)
    }
}

/// Binary encode/decode, implemented by hand for every wire type.
///
/// The contract is round-trip identity: for every value,
/// `decode(encode(v)) == v`, and decode must reject (never panic on)
/// truncated input and unknown tag bytes. The property tests in
/// `tests/prop_wire.rs` enforce both halves for every impl.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The oldest wire version whose decoder understands this *value*
    /// (not just this type). Framing stamps each frame with this, so a
    /// message that predates the current version still reaches
    /// old-version peers, while a genuinely new message is cleanly
    /// rejected by them ([`WireError::BadVersion`]) instead of
    /// misparsed. Defaults to [`WIRE_VERSION`].
    fn min_wire_version(&self) -> u8 {
        WIRE_VERSION
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vals` as consecutive little-endian words. One resize and a
/// fixed-stride fill: no per-element capacity check, and on a
/// little-endian target the loop compiles to a block copy.
fn put_u64s(buf: &mut Vec<u8>, vals: &[u64]) {
    let start = buf.len();
    buf.resize(start + vals.len() * 8, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(8).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

impl Wire for Key {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.ns);
        put_u64(buf, self.id);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Key {
            ns: r.u8()?,
            id: r.u64()?,
        })
    }
}

impl Wire for Version {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ts);
        put_u32(buf, self.writer);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Version {
            ts: r.u64()?,
            writer: r.u32()?,
        })
    }
}

impl Wire for OpId {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.client.0 as u64);
        put_u64(buf, self.seq);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpId {
            client: NodeId(r.u64()? as usize),
            seq: r.u64()?,
        })
    }
}

impl Wire for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Opaque(n) => {
                buf.push(0);
                put_u32(buf, *n);
            }
            Value::Ids(ids) => {
                assert!(
                    ids.len() <= MAX_IDS as usize,
                    "Value::Ids with {} elements exceeds the wire protocol bound ({MAX_IDS})",
                    ids.len()
                );
                buf.push(1);
                put_u32(buf, ids.len() as u32);
                put_u64s(buf, ids);
            }
            Value::Delta {
                field_len,
                record_len,
            } => {
                buf.push(2);
                put_u32(buf, *field_len);
                put_u32(buf, *record_len);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Value::Opaque(r.u32()?)),
            1 => {
                let n = r.u32()?;
                if n > MAX_IDS {
                    return Err(WireError::TooLarge {
                        what: "Value::Ids",
                        len: u64::from(n),
                    });
                }
                Ok(Value::Ids(r.u64s(n as usize)?))
            }
            2 => Ok(Value::Delta {
                field_len: r.u32()?,
                record_len: r.u32()?,
            }),
            tag => Err(WireError::BadTag { what: "Value", tag }),
        }
    }
}

impl Wire for Versioned {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value.encode(buf);
        self.version.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Versioned {
            value: Value::decode(r)?,
            version: Version::decode(r)?,
        })
    }
}

impl Wire for ReadKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ReadKind::Single { r } => {
                buf.push(0);
                buf.push(*r);
            }
            ReadKind::Icg { r, confirm } => {
                buf.push(1);
                buf.push(*r);
                buf.push(u8::from(*confirm));
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ReadKind::Single { r: r.u8()? }),
            1 => Ok(ReadKind::Icg {
                r: r.u8()?,
                confirm: r.u8()? != 0,
            }),
            tag => Err(WireError::BadTag {
                what: "ReadKind",
                tag,
            }),
        }
    }
}

impl Wire for Phase {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            Phase::Single => 0,
            Phase::Preliminary => 1,
            Phase::Final => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Phase::Single),
            1 => Ok(Phase::Preliminary),
            2 => Ok(Phase::Final),
            tag => Err(WireError::BadTag { what: "Phase", tag }),
        }
    }
}

impl Wire for FailReason {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            FailReason::Timeout => 0,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FailReason::Timeout),
            tag => Err(WireError::BadTag {
                what: "FailReason",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

/// Message tags on the wire (one byte, after the version byte of the
/// frame header). Documented in `DESIGN.md` §10; new messages append
/// new tags, existing tags are never reused. Tags `0x01..=0x0A` are the
/// version-1 [`Msg`] set; `0x0B` and up are the version-2 [`NetMsg`]
/// additions. The two share one tag space, which is what makes
/// [`NetMsg::Store`] byte-identical to a bare [`Msg`].
mod tag {
    pub const CLIENT_READ: u8 = 0x01;
    pub const CLIENT_WRITE: u8 = 0x02;
    pub const PEER_READ: u8 = 0x03;
    pub const PEER_READ_RESP: u8 = 0x04;
    pub const PEER_WRITE: u8 = 0x05;
    pub const PEER_WRITE_ACK: u8 = 0x06;
    pub const READ_REPLY: u8 = 0x07;
    pub const READ_CONFIRM: u8 = 0x08;
    pub const WRITE_REPLY: u8 = 0x09;
    pub const OP_FAILED: u8 = 0x0A;
    /// Highest version-1 tag: everything at or below decodes as a
    /// [`super::Msg`] inside [`super::NetMsg::Store`].
    pub const STORE_MAX: u8 = OP_FAILED;
    pub const HELLO: u8 = 0x0B;
    pub const HELLO_ACK: u8 = 0x0C;
    pub const SPEC_SUBMIT: u8 = 0x0D;
    pub const SPEC_REPLY: u8 = 0x0E;
    pub const SPEC_GOSSIP: u8 = 0x0F;
    pub const SPEC_ACK: u8 = 0x10;
    pub const SPEC_FAILED: u8 = 0x11;
}

impl Wire for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::ClientRead { op, key, kind } => {
                buf.push(tag::CLIENT_READ);
                op.encode(buf);
                key.encode(buf);
                kind.encode(buf);
            }
            Msg::ClientWrite { op, key, value, w } => {
                buf.push(tag::CLIENT_WRITE);
                op.encode(buf);
                key.encode(buf);
                value.encode(buf);
                buf.push(*w);
            }
            Msg::PeerRead { op, key } => {
                buf.push(tag::PEER_READ);
                op.encode(buf);
                key.encode(buf);
            }
            Msg::PeerReadResp { op, data } => {
                buf.push(tag::PEER_READ_RESP);
                op.encode(buf);
                data.encode(buf);
            }
            Msg::PeerWrite { key, data, ack_op } => {
                buf.push(tag::PEER_WRITE);
                key.encode(buf);
                data.encode(buf);
                ack_op.encode(buf);
            }
            Msg::PeerWriteAck { op } => {
                buf.push(tag::PEER_WRITE_ACK);
                op.encode(buf);
            }
            Msg::ReadReply { op, phase, data } => {
                buf.push(tag::READ_REPLY);
                op.encode(buf);
                phase.encode(buf);
                data.encode(buf);
            }
            Msg::ReadConfirm { op, version } => {
                buf.push(tag::READ_CONFIRM);
                op.encode(buf);
                version.encode(buf);
            }
            Msg::WriteReply { op } => {
                buf.push(tag::WRITE_REPLY);
                op.encode(buf);
            }
            Msg::OpFailed { op, reason } => {
                buf.push(tag::OP_FAILED);
                op.encode(buf);
                reason.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        decode_msg_body(tag, r)
    }

    /// Every [`Msg`] predates version 2 and must keep reaching
    /// version-1 peers.
    fn min_wire_version(&self) -> u8 {
        1
    }
}

/// Decodes a [`Msg`] body whose tag byte has already been consumed —
/// shared by [`Msg::decode`] and the [`NetMsg`] envelope decoder.
fn decode_msg_body(tag: u8, r: &mut Reader<'_>) -> Result<Msg, WireError> {
    match tag {
        tag::CLIENT_READ => Ok(Msg::ClientRead {
            op: OpId::decode(r)?,
            key: Key::decode(r)?,
            kind: ReadKind::decode(r)?,
        }),
        tag::CLIENT_WRITE => Ok(Msg::ClientWrite {
            op: OpId::decode(r)?,
            key: Key::decode(r)?,
            value: Value::decode(r)?,
            w: r.u8()?,
        }),
        tag::PEER_READ => Ok(Msg::PeerRead {
            op: OpId::decode(r)?,
            key: Key::decode(r)?,
        }),
        tag::PEER_READ_RESP => Ok(Msg::PeerReadResp {
            op: OpId::decode(r)?,
            data: Versioned::decode(r)?,
        }),
        tag::PEER_WRITE => Ok(Msg::PeerWrite {
            key: Key::decode(r)?,
            data: Versioned::decode(r)?,
            ack_op: Option::<OpId>::decode(r)?,
        }),
        tag::PEER_WRITE_ACK => Ok(Msg::PeerWriteAck {
            op: OpId::decode(r)?,
        }),
        tag::READ_REPLY => Ok(Msg::ReadReply {
            op: OpId::decode(r)?,
            phase: Phase::decode(r)?,
            data: Versioned::decode(r)?,
        }),
        tag::READ_CONFIRM => Ok(Msg::ReadConfirm {
            op: OpId::decode(r)?,
            version: Version::decode(r)?,
        }),
        tag::WRITE_REPLY => Ok(Msg::WriteReply {
            op: OpId::decode(r)?,
        }),
        tag::OP_FAILED => Ok(Msg::OpFailed {
            op: OpId::decode(r)?,
            reason: FailReason::decode(r)?,
        }),
        tag => Err(WireError::BadTag { what: "Msg", tag }),
    }
}

impl Wire for StoreOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreOp::Read(key) => {
                buf.push(0);
                key.encode(buf);
            }
            StoreOp::Write(key, value) => {
                buf.push(1);
                key.encode(buf);
                value.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(StoreOp::Read(Key::decode(r)?)),
            1 => Ok(StoreOp::Write(Key::decode(r)?, Value::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "StoreOp",
                tag,
            }),
        }
    }
}

/// One entry of the level directory a replica advertises in
/// [`NetMsg::HelloAck`]: the server-side wire id, lattice rank, and name
/// of a registered consistency level. A client resolves the ids of every
/// later reply through this directory, registering levels it has never
/// heard of — which is how a deployment-defined level reaches clients
/// with zero code changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelInfo {
    /// The advertising process's wire id for this level (stable per
    /// process, *not* across processes for custom levels — hence the
    /// directory).
    pub id: u8,
    /// Position in the weak-to-strong total order.
    pub rank: u8,
    /// Registered name (non-empty, at most 64 bytes — the registry's
    /// own bound).
    pub name: String,
}

impl Wire for LevelInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        assert!(
            !self.name.is_empty() && self.name.len() <= 64,
            "level name length {} outside the wire protocol bound (1..=64)",
            self.name.len()
        );
        buf.push(self.id);
        buf.push(self.rank);
        buf.push(self.name.len() as u8);
        buf.extend_from_slice(self.name.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = r.u8()?;
        let rank = r.u8()?;
        let len = r.u8()?;
        if len == 0 || len > 64 {
            return Err(WireError::TooLarge {
                what: "LevelInfo::name",
                len: u64::from(len),
            });
        }
        let bytes = r.take(len as usize)?;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| WireError::BadTag {
                what: "LevelInfo::name (utf-8)",
                tag: bytes[0],
            })?
            .to_string();
        Ok(LevelInfo { id, rank, name })
    }
}

/// An operation of the TCP spec store: which sequential specification
/// it addresses and the op itself. The server hosts one register map
/// and one counter map side by side; both return `u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecOp {
    /// A last-value-register operation ([`correctables::spec::RegisterSpec`]).
    Reg(RegOp),
    /// A counter-map operation ([`correctables::spec::CounterSpec`]).
    Ctr(CtrOp),
}

impl SpecOp {
    /// Whether the op leaves the spec state unchanged (reads gate no
    /// convergence obligations).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            SpecOp::Reg(RegOp::Read(_)) | SpecOp::Ctr(CtrOp::Get(_))
        )
    }
}

impl Wire for SpecOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SpecOp::Reg(RegOp::Read(k)) => {
                buf.push(0);
                put_u64(buf, *k);
            }
            SpecOp::Reg(RegOp::Write(k, v)) => {
                buf.push(1);
                put_u64(buf, *k);
                put_u64(buf, *v);
            }
            SpecOp::Ctr(CtrOp::Get(k)) => {
                buf.push(2);
                put_u64(buf, *k);
            }
            SpecOp::Ctr(CtrOp::Put(k, v)) => {
                buf.push(3);
                put_u64(buf, *k);
                put_u64(buf, *v);
            }
            SpecOp::Ctr(CtrOp::Add(k, d)) => {
                buf.push(4);
                put_u64(buf, *k);
                put_u64(buf, *d);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SpecOp::Reg(RegOp::Read(r.u64()?))),
            1 => Ok(SpecOp::Reg(RegOp::Write(r.u64()?, r.u64()?))),
            2 => Ok(SpecOp::Ctr(CtrOp::Get(r.u64()?))),
            3 => Ok(SpecOp::Ctr(CtrOp::Put(r.u64()?, r.u64()?))),
            4 => Ok(SpecOp::Ctr(CtrOp::Add(r.u64()?, r.u64()?))),
            tag => Err(WireError::BadTag {
                what: "SpecOp",
                tag,
            }),
        }
    }
}

/// The version-2 message envelope: everything a replica connection can
/// carry.
///
/// [`NetMsg::Store`] wraps the version-1 quorum-store [`Msg`] set and
/// encodes **byte-identically** to a bare `Msg` (the two share one tag
/// space), so a version-1 peer's frames decode as `Store` variants and a
/// `Store` frame — stamped version 1 by [`Wire::min_wire_version`] —
/// decodes on a version-1 peer. The other variants are version-2-only:
/// the level-directory handshake and the spec store, whose replies carry
/// the consistency level id negotiated through that directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    /// A version-1 quorum-store message, byte-compatible both ways.
    Store(Msg),
    /// Client → server: request the level directory. `client` is the
    /// sender's client id, echoed nowhere — it exists so a server log
    /// can attribute handshakes.
    Hello {
        /// The connecting client's id.
        client: u64,
    },
    /// Server → client: the wire version the server speaks and its full
    /// consistency-level directory.
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u8,
        /// Every level registered in the server process, registration
        /// order, at most [`MAX_LEVELS`] entries.
        levels: Vec<LevelInfo>,
    },
    /// Client → server: submit one spec-store operation, asking for
    /// views at the listed levels (server-side wire ids, weakest
    /// first).
    SpecSubmit {
        /// Submitting client's id.
        client: u64,
        /// Client-assigned sequence number, echoed in every reply.
        seq: u64,
        /// The operation.
        op: SpecOp,
        /// Requested level ids, at most [`MAX_LEVELS`].
        wants: Vec<u8>,
    },
    /// Server → client: one view of a submitted operation at one
    /// consistency level.
    SpecReply {
        /// Echo of the submitting client's id.
        client: u64,
        /// Echo of the client-assigned sequence number.
        seq: u64,
        /// The level id of this view (resolve via the handshake
        /// directory).
        level: u8,
        /// The view's value.
        val: u64,
        /// Whether this is the strongest view the op will receive.
        closing: bool,
    },
    /// Server → server: replicate one spec-store update.
    SpecGossip {
        /// Originating replica id.
        origin: u32,
        /// Origin-local sequence number of the update (1-based,
        /// gapless per origin).
        seq: u64,
        /// Lamport timestamp — the agreed total order is `(ts, origin,
        /// seq)`.
        ts: u64,
        /// The origin's vector clock *after* creating the update
        /// (causal-delivery guard), at most [`MAX_REPLICAS`] wide.
        vc: Vec<u64>,
        /// The operation.
        op: SpecOp,
    },
    /// Server → server: acknowledge causal delivery of one update back
    /// toward its origin.
    SpecAck {
        /// The acknowledged update's origin.
        origin: u32,
        /// The acknowledged update's origin-local sequence number.
        seq: u64,
        /// The acknowledging replica.
        acker: u32,
        /// How many updates the acker itself had submitted when it
        /// acked — the origin's strong views wait until these are
        /// delivered locally (stability, not just receipt).
        acker_seq: u64,
    },
    /// Server → client: the op cannot be served (e.g. it asked for a
    /// level this store does not implement).
    SpecFailed {
        /// Echo of the submitting client's id.
        client: u64,
        /// Echo of the client-assigned sequence number.
        seq: u64,
    },
}

impl Wire for NetMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NetMsg::Store(m) => m.encode(buf),
            NetMsg::Hello { client } => {
                buf.push(tag::HELLO);
                put_u64(buf, *client);
            }
            NetMsg::HelloAck { version, levels } => {
                assert!(
                    levels.len() <= MAX_LEVELS as usize,
                    "level directory with {} entries exceeds the wire protocol bound ({MAX_LEVELS})",
                    levels.len()
                );
                buf.push(tag::HELLO_ACK);
                buf.push(*version);
                buf.push(levels.len() as u8);
                for l in levels {
                    l.encode(buf);
                }
            }
            NetMsg::SpecSubmit {
                client,
                seq,
                op,
                wants,
            } => {
                assert!(
                    wants.len() <= MAX_LEVELS as usize,
                    "wanted-level list with {} entries exceeds the wire protocol bound ({MAX_LEVELS})",
                    wants.len()
                );
                buf.push(tag::SPEC_SUBMIT);
                put_u64(buf, *client);
                put_u64(buf, *seq);
                op.encode(buf);
                buf.push(wants.len() as u8);
                buf.extend_from_slice(wants);
            }
            NetMsg::SpecReply {
                client,
                seq,
                level,
                val,
                closing,
            } => {
                buf.push(tag::SPEC_REPLY);
                put_u64(buf, *client);
                put_u64(buf, *seq);
                buf.push(*level);
                put_u64(buf, *val);
                buf.push(u8::from(*closing));
            }
            NetMsg::SpecGossip {
                origin,
                seq,
                ts,
                vc,
                op,
            } => {
                assert!(
                    vc.len() <= MAX_REPLICAS as usize,
                    "vector clock of width {} exceeds the wire protocol bound ({MAX_REPLICAS})",
                    vc.len()
                );
                buf.push(tag::SPEC_GOSSIP);
                put_u32(buf, *origin);
                put_u64(buf, *seq);
                put_u64(buf, *ts);
                put_u32(buf, vc.len() as u32);
                put_u64s(buf, vc);
                op.encode(buf);
            }
            NetMsg::SpecAck {
                origin,
                seq,
                acker,
                acker_seq,
            } => {
                buf.push(tag::SPEC_ACK);
                put_u32(buf, *origin);
                put_u64(buf, *seq);
                put_u32(buf, *acker);
                put_u64(buf, *acker_seq);
            }
            NetMsg::SpecFailed { client, seq } => {
                buf.push(tag::SPEC_FAILED);
                put_u64(buf, *client);
                put_u64(buf, *seq);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let t = r.u8()?;
        match t {
            0x01..=tag::STORE_MAX => Ok(NetMsg::Store(decode_msg_body(t, r)?)),
            tag::HELLO => Ok(NetMsg::Hello { client: r.u64()? }),
            tag::HELLO_ACK => {
                let version = r.u8()?;
                let n = r.u8()?;
                if n > MAX_LEVELS {
                    return Err(WireError::TooLarge {
                        what: "NetMsg::HelloAck levels",
                        len: u64::from(n),
                    });
                }
                let mut levels = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    levels.push(LevelInfo::decode(r)?);
                }
                Ok(NetMsg::HelloAck { version, levels })
            }
            tag::SPEC_SUBMIT => {
                let client = r.u64()?;
                let seq = r.u64()?;
                let op = SpecOp::decode(r)?;
                let n = r.u8()?;
                if n > MAX_LEVELS {
                    return Err(WireError::TooLarge {
                        what: "NetMsg::SpecSubmit wants",
                        len: u64::from(n),
                    });
                }
                let wants = r.take(n as usize)?.to_vec();
                Ok(NetMsg::SpecSubmit {
                    client,
                    seq,
                    op,
                    wants,
                })
            }
            tag::SPEC_REPLY => Ok(NetMsg::SpecReply {
                client: r.u64()?,
                seq: r.u64()?,
                level: r.u8()?,
                val: r.u64()?,
                closing: r.u8()? != 0,
            }),
            tag::SPEC_GOSSIP => {
                let origin = r.u32()?;
                let seq = r.u64()?;
                let ts = r.u64()?;
                let n = r.u32()?;
                if n > MAX_REPLICAS {
                    return Err(WireError::TooLarge {
                        what: "NetMsg::SpecGossip vc",
                        len: u64::from(n),
                    });
                }
                let vc = r.u64s(n as usize)?;
                let op = SpecOp::decode(r)?;
                Ok(NetMsg::SpecGossip {
                    origin,
                    seq,
                    ts,
                    vc,
                    op,
                })
            }
            tag::SPEC_ACK => Ok(NetMsg::SpecAck {
                origin: r.u32()?,
                seq: r.u64()?,
                acker: r.u32()?,
                acker_seq: r.u64()?,
            }),
            tag::SPEC_FAILED => Ok(NetMsg::SpecFailed {
                client: r.u64()?,
                seq: r.u64()?,
            }),
            tag => Err(WireError::BadTag {
                what: "NetMsg",
                tag,
            }),
        }
    }

    /// Store messages still travel in version-1 frames (old peers must
    /// keep decoding them); everything else is version-2-only.
    fn min_wire_version(&self) -> u8 {
        match self {
            NetMsg::Store(m) => m.min_wire_version(),
            _ => 2,
        }
    }
}

/// Encodes a value into a fresh buffer (convenience for tests and
/// one-shot encodes).
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    buf
}

/// Decodes exactly one value from `buf`, rejecting trailing bytes.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    Reader::new(buf).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> OpId {
        OpId {
            client: NodeId(3),
            seq: 77,
        }
    }

    #[test]
    fn msg_round_trips() {
        let msgs = vec![
            Msg::ClientRead {
                op: op(),
                key: Key { ns: 2, id: 9 },
                kind: ReadKind::Icg {
                    r: 2,
                    confirm: true,
                },
            },
            Msg::ClientWrite {
                op: op(),
                key: Key::plain(1),
                value: Value::Ids(vec![1, 2, 3]),
                w: 1,
            },
            Msg::PeerWrite {
                key: Key::plain(4),
                data: Versioned::absent(),
                ack_op: Some(op()),
            },
            Msg::ReadConfirm {
                op: op(),
                version: Version { ts: 8, writer: 1 },
            },
            Msg::OpFailed {
                op: op(),
                reason: FailReason::Timeout,
            },
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            let back: Msg = from_bytes(&bytes).expect("decodes");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = to_bytes(&Msg::ClientRead {
            op: op(),
            key: Key::plain(5),
            kind: ReadKind::Single { r: 1 },
        });
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Msg>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        assert_eq!(
            from_bytes::<Msg>(&[0xFF]),
            Err(WireError::BadTag {
                what: "Msg",
                tag: 0xFF
            })
        );
    }

    #[test]
    fn oversized_id_list_rejected() {
        let mut buf = vec![1u8]; // Value::Ids tag
        buf.extend_from_slice(&(MAX_IDS + 1).to_le_bytes());
        assert!(matches!(
            from_bytes::<Value>(&buf),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&Version { ts: 1, writer: 2 });
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Version>(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
