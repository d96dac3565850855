//! The hand-rolled wire codec: derive-free, allocation-conscious binary
//! encode/decode for every message that crosses a socket.
//!
//! The layout of every encodable type is declared once, in the schema
//! at the bottom of this file: its tag, its fields in wire order, and
//! for each list the width and bound of its count. The `wire!` macro
//! turns each declaration into the type's [`Wire`] impl — `encode` and
//! the bounded `decode` — so an encoder and a decoder can never
//! disagree, and a variant missing from a declaration fails to compile
//! (the generated `encode` match is exhaustive). A generic type is
//! declared through an alias of the one instantiation that travels
//! ([`SpecNetMsg`], [`SpecClientMsg`], [`SpecUpdate`]). There is no
//! serde and no reflection; only the leaves are written by hand: the
//! integers, `bool`, [`NodeId`], a replica index (`usize`), a pair, a
//! [`ConsistencyLevel`] (its wire id), a submission's [`Wants`] (one
//! byte) and a [`VectorClock`]. All integers are little-endian.
//! Every list's count is bounded at decode time, so a corrupt or
//! hostile frame cannot ask the decoder to allocate gigabytes. That is
//! the only check of a bound: the encoder writes a list over its bound
//! as a count the decoder rejects, and never panics.
//!
//! The framing that wraps an encoded message on a stream lives in
//! [`crate::frame`]; `DESIGN.md` §10 explains both.

use correctables::spec::{CtrOp, RegOp};
use correctables::ConsistencyLevel;
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::{ClientMsg, NodeId, Wants};
use specstore::{SpecMsg, Update, UpdateId, VectorClock};

use crate::protocol::RegCtrSpec;

/// Protocol bound on [`Value::Ids`] list lengths. Decode rejects a
/// longer list as [`WireError::TooLarge`] before reading its body (a
/// corrupt length prefix must not turn into an attempted
/// multi-gigabyte allocation); encode writes one as a count of
/// `MAX_IDS + 1` and no body, which every receiver rejects. A sender
/// that must not lose the link checks first, as `TcpBinding` does.
pub const MAX_IDS: u32 = 1 << 20;

/// Protocol bound on the views of one spec-store reply: one per level
/// a spec store serves.
pub const MAX_VIEWS: u8 = Wants::LEVELS.len() as u8;

/// Protocol bound on the width of a spec-store [`VectorClock`] — i.e.
/// on the replica-set size of a TCP spec deployment.
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
                write!(f, "unsupported wire version {got} (speak {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The wire-format version every frame carries and the only one a
/// reader accepts: the frame header's version byte makes an
/// incompatible peer's first frame a clean rejection instead of a
/// misparse (see [`crate::frame`]).
///
/// Version 1 was the quorum-store message set alone ([`Msg`], tags
/// `0x01..=0x0A`); version 2 is the [`NetMsg`] envelope, which adds the
/// spec-store messages ([`SpecNetMsg`], tags `0x12..=0x15`). A `Msg`
/// encodes byte-identically inside [`NetMsg::Store`], so only the
/// version byte of a quorum-store frame differs between the two. Tags
/// only ever append, so the spec tags of an earlier build of version 2
/// (`0x0D..=0x11`) are refused as `BadTag`.
pub const WIRE_VERSION: u8 = 2;

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
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Consumes `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
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

/// Binary encode/decode of one wire type.
///
/// The contract is round-trip identity: for every value,
/// `decode(encode(v)) == v`, and decode must reject (never panic on)
/// truncated input and unknown tag bytes. The property tests in
/// `tests/prop_wire.rs` enforce both halves for every declared type,
/// and one of them holds their generators to every tag each enum's
/// decoder accepts, so no variant goes untested.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// An enum's decoder once its tag byte is consumed: what lets an enum
/// hand a range of its tags to another enum that shares its tag space
/// ([`NetMsg`] to [`Msg`] and [`SpecNetMsg`], [`SpecNetMsg`] to
/// [`SpecClientMsg`], [`SpecOp`] to [`RegOp`] and [`CtrOp`]).
trait Tagged: Wire {
    fn decode_tagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u8::decode(r)? != 0)
    }
}

/// A node id travels as a `u64`.
impl Wire for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.0 as u64).encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u64::decode(r)? as usize))
    }
}

/// A replica index travels as a `u32`: a deployment has at most
/// [`MAX_REPLICAS`] of them.
impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        // An index past `u32::MAX` names no replica; it goes saturated.
        u32::try_from(*self).unwrap_or(u32::MAX).encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u32::decode(r)? as usize)
    }
}

/// A pair travels as its halves in order: a spec client's `(client,
/// seq)`, a view's `(level, value)`.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A level travels as its one-byte wire id. Only the builtins have ids
/// a process decodes; any other id is `BadTag`, so a view never reaches
/// a client under a name that is not its own.
impl Wire for ConsistencyLevel {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.wire_id());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = u8::decode(r)?;
        ConsistencyLevel::from_wire_id(id).ok_or(WireError::BadTag {
            what: "ConsistencyLevel",
            tag: id,
        })
    }
}

/// A submission's wanted levels travel as one byte, bit `i` set for
/// [`Wants::LEVELS`]`[i]`. A byte that wants nothing, or sets a bit no
/// level has, is `BadTag`: a replica serves what was asked for or
/// nothing, never a weaker level under a stronger name.
impl Wire for Wants {
    fn encode(&self, buf: &mut Vec<u8>) {
        let bit = |on, i: u8| u8::from(on) << i;
        buf.push(
            bit(self.weak, 0) | bit(self.update, 1) | bit(self.causal, 2) | bit(self.strong, 3),
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bits = u8::decode(r)?;
        if bits == 0 || bits > 0b1111 {
            return Err(WireError::BadTag {
                what: "Wants",
                tag: bits,
            });
        }
        let bit = |i: u8| bits & (1 << i) != 0;
        Ok(Wants {
            weak: bit(0),
            update: bit(1),
            causal: bit(2),
            strong: bit(3),
        })
    }
}

/// A vector clock travels as a `u32`-counted list of its entries, at
/// most [`MAX_REPLICAS`] of them.
impl Wire for VectorClock {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_list::<u32, u64>(buf, self, MAX_REPLICAS + 1);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_list::<u32, u64>(r, MAX_REPLICAS, "VectorClock").map(VectorClock::from)
    }
}

/// An element of a declared list: how a run of them is written and
/// read in one piece — by default one element after another.
trait Elem: Wire {
    fn put_all(buf: &mut Vec<u8>, items: &[Self]) {
        for item in items {
            item.encode(buf);
        }
    }

    fn take_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        (0..n).map(|_| Self::decode(r)).collect()
    }
}

impl Elem for View {}

impl Elem for u8 {
    fn put_all(buf: &mut Vec<u8>, items: &[u8]) {
        buf.extend_from_slice(items);
    }

    fn take_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Elem for u64 {
    /// One resize and a fixed-stride fill: no per-element capacity
    /// check, and on a little-endian target the loop compiles to a
    /// block copy.
    fn put_all(buf: &mut Vec<u8>, items: &[u64]) {
        let start = buf.len();
        buf.resize(start + items.len() * 8, 0);
        let (chunks, _) = buf.split_at_mut(start).1.as_chunks_mut::<8>();
        for (dst, v) in chunks.iter_mut().zip(items) {
            *dst = v.to_le_bytes();
        }
    }

    /// The byte range is bounds-checked once, before anything is
    /// allocated, so a large count on a short buffer is
    /// [`WireError::Truncated`], not an attempted allocation.
    fn take_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<u64>, WireError> {
        let bytes = r.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let (chunks, _) = bytes.as_chunks::<8>();
        Ok(chunks.iter().map(|b| u64::from_le_bytes(*b)).collect())
    }
}

/// Writes a list as its `C`-wide count and its elements. A list of
/// `over` (its bound + 1) or more elements is written as the count
/// `over` and no body: [`get_list`] rejects it before reading further,
/// so the receiver drops the frame and the sender does not panic.
/// Inlined into each declared list, as a hand-written encoder would
/// be: left shared, the 1 KiB `Value::Ids` encode paid a call.
#[inline(always)]
fn put_list<C, E: Elem>(buf: &mut Vec<u8>, items: &[E], over: C)
where
    C: Wire + Copy + TryFrom<usize>,
    u64: From<C>,
{
    match C::try_from(items.len()) {
        Ok(n) if u64::from(n) < u64::from(over) => {
            n.encode(buf);
            E::put_all(buf, items);
        }
        _ => over.encode(buf),
    }
}

/// Reads a list written by [`put_list`], judging the count against
/// `bound` before reading a byte of the body. Inlined like `put_list`.
#[inline(always)]
fn get_list<C, E: Elem>(
    r: &mut Reader<'_>,
    bound: C,
    what: &'static str,
) -> Result<Vec<E>, WireError>
where
    C: Wire,
    u64: From<C>,
{
    let n = u64::from(C::decode(r)?);
    if n > u64::from(bound) {
        return Err(WireError::TooLarge { what, len: n });
    }
    E::take_all(r, n as usize)
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

/// A spec client's name for its operation, echoed in every view: its
/// `(client id, seq)`.
pub type SpecOpId = (u64, u64);

/// The spec core's messages as a TCP replica and its clients speak
/// them: [`specstore::SpecCore`]'s own message set over the object
/// served here, each one frame.
pub type SpecNetMsg = SpecMsg<RegCtrSpec, SpecOpId>;

/// The client half of [`SpecNetMsg`]: a submission, or views of one.
pub type SpecClientMsg = ClientMsg<SpecOpId, SpecOp, u64>;

/// One spec-store update as it is gossiped.
pub type SpecUpdate = Update<SpecOp>;

/// One view of a spec operation: its level and its value.
type View = (ConsistencyLevel, u64);

/// The message envelope: everything a replica connection can carry,
/// one core message per frame.
///
/// Each variant shares the envelope's tag space with the message it
/// wraps, so [`NetMsg::Store`] encodes **byte-identically** to a bare
/// [`Msg`], and [`NetMsg::Spec`] to a bare [`SpecNetMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum NetMsg {
    /// A quorum-store message, byte for byte a bare [`Msg`].
    Store(Msg),
    /// A spec-store message, byte for byte a bare [`SpecNetMsg`].
    Spec(SpecNetMsg),
}

impl From<Msg> for NetMsg {
    fn from(msg: Msg) -> NetMsg {
        NetMsg::Store(msg)
    }
}

impl From<SpecNetMsg> for NetMsg {
    fn from(msg: SpecNetMsg) -> NetMsg {
        NetMsg::Spec(msg)
    }
}

/// Generates the [`Wire`] impl of each type declared in the schema
/// below. Two forms, each written as the type's definition would be:
///
/// - `struct S { a: A, b: B }` — the fields, in wire order.
/// - `enum E { X(a: A) = 1, Y { b: B } = 2, Z = 3 }` — each variant
///   with its tag byte and its fields (a tuple variant's fields get
///   names here), in wire order. A variant tagged with a range,
///   `W(inner: I) = 0x01..=0x0A`, hands those tags to `I`, which writes
///   and reads its own tag: `I` shares `E`'s tag space.
///
/// A field's type is a wire type, or a list `[E; C <= BOUND, "what"]`:
/// a `C`-wide count no larger than `BOUND`, then the elements. A longer
/// list is encoded as the count `BOUND + 1` alone, a constant of type
/// `C` (so a `BOUND` of `C::MAX` fails to compile), and is
/// `TooLarge { what, .. }` on decode. An unknown tag is `BadTag` naming
/// the enum.
macro_rules! wire {
    () => {};
    (struct $name:ident { $($f:ident : $t:tt $(<$g:tt>)?),* $(,)? } $($rest:tt)*) => {
        impl Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                let $name { $($f),* } = self;
                $( wire!(@put buf, $f, $t); )*
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name { $( $f: wire!(@get r, $t $(<$g>)?) ),* })
            }
        }
        wire!($($rest)*);
    };
    (enum $name:ident $(<$p:ident>)? {
        $( $v:ident
           $( ( $($tf:ident : $tt:tt $(<$tg:tt>)?),* ) )?
           $( { $($sf:ident : $st:tt $(<$sg:tt>)?),* $(,)? } )?
           = $tag:literal $(..= $hi:literal)? ),* $(,)?
    } $($rest:tt)*) => {
        impl $(<$p: Wire>)? Wire for $name $(<$p>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $name::$v $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                        wire!(@tag buf, $tag $(..= $hi)?);
                        $( $( wire!(@put buf, $tf, $tt); )* )?
                        $( $( wire!(@put buf, $sf, $st); )* )?
                    } )*
                }
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let tag = u8::decode(r)?;
                Self::decode_tagged(tag, r)
            }
        }

        impl $(<$p: Wire>)? Tagged for $name $(<$p>)? {
            fn decode_tagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                // An enum of unit variants reads nothing past its tag.
                let _ = &r;
                match tag {
                    $( $tag $(..= $hi)? => Ok(wire!(@build r, tag, $name $v [$tag $(..= $hi)?]
                        $( ( $($tf : $tt $(<$tg>)?),* ) )?
                        $( { $($sf : $st $(<$sg>)?),* } )?)), )*
                    tag => Err(WireError::BadTag { what: stringify!($name), tag }),
                }
            }
        }
        wire!($($rest)*);
    };

    (@tag $buf:ident, $tag:literal) => { $buf.push($tag) };
    (@tag $buf:ident, $lo:literal ..= $hi:literal) => {};

    (@put $buf:ident, $f:ident, [$e:ident; $c:ident <= $bound:ident, $what:literal]) => {{
        const OVER: $c = $bound + 1;
        put_list::<$c, $e>($buf, $f, OVER)
    }};
    (@put $buf:ident, $f:ident, $t:tt) => { Wire::encode($f, $buf) };

    (@get $r:ident, [$e:ident; $c:ident <= $bound:ident, $what:literal]) => {
        get_list::<$c, $e>($r, $bound, $what)?
    };
    (@get $r:ident, $($t:tt)+) => { <$($t)+ as Wire>::decode($r)? };

    (@build $r:ident, $tag:ident, $name:ident $v:ident [$lo:literal ..= $hi:literal] ($f:ident : $t:tt)) => {
        $name::$v(<$t as Tagged>::decode_tagged($tag, $r)?)
    };
    (@build $r:ident, $tag:ident, $name:ident $v:ident [$t0:literal]) => { $name::$v };
    (@build $r:ident, $tag:ident, $name:ident $v:ident [$t0:literal]
        ( $($f:ident : $t:tt $(<$g:tt>)?),* )) => {
        $name::$v( $( wire!(@get $r, $t $(<$g>)?) ),* )
    };
    (@build $r:ident, $tag:ident, $name:ident $v:ident [$t0:literal]
        { $($f:ident : $t:tt $(<$g:tt>)?),* }) => {
        $name::$v { $( $f: wire!(@get $r, $t $(<$g>)?) ),* }
    };
}

// The schema: every layout on the wire. Tags are one byte; new variants
// append new tags, and a tag is never reused.
wire! {
    struct Key { ns: u8, id: u64 }

    struct Version { ts: u64, writer: u32 }

    struct OpId { client: NodeId, seq: u64 }

    struct Versioned { value: Value, version: Version }

    enum Value {
        // A payload this store never inspects travels as its length only.
        Opaque(len: u32) = 0,
        Ids(ids: [u64; u32 <= MAX_IDS, "Value::Ids"]) = 1,
        Delta { field_len: u32, record_len: u32 } = 2,
    }

    enum ReadKind {
        Single { r: u8 } = 0,
        Icg { r: u8, confirm: bool } = 1,
    }

    enum Phase { Single = 0, Preliminary = 1, Final = 2 }

    enum FailReason { Timeout = 0 }

    enum Option<T> { None = 0, Some(v: T) = 1 }

    enum Msg {
        ClientRead { op: OpId, key: Key, kind: ReadKind } = 0x01,
        ClientWrite { op: OpId, key: Key, value: Value, w: u8 } = 0x02,
        PeerRead { op: OpId, key: Key } = 0x03,
        PeerReadResp { op: OpId, data: Versioned } = 0x04,
        PeerWrite { key: Key, data: Versioned, ack_op: Option<OpId> } = 0x05,
        PeerWriteAck { op: OpId } = 0x06,
        ReadReply { op: OpId, phase: Phase, data: Versioned } = 0x07,
        ReadConfirm { op: OpId, version: Version } = 0x08,
        WriteReply { op: OpId } = 0x09,
        OpFailed { op: OpId, reason: FailReason } = 0x0A,
    }

    // Tags 0x01..=0x0A are `Msg`'s: a `Store` frame is a bare `Msg`.
    // Tags 0x12..=0x15 are the spec core's: a `Spec` frame is a bare
    // `SpecNetMsg`. Retired, never to be reused: 0x0B and 0x0C, the
    // version handshake's request and answer, gone since every frame
    // carries the one version; 0x0D..=0x11, the spec store's frames
    // before it sent its own messages.
    enum NetMsg {
        Store(msg: Msg) = 0x01..=0x0A,
        Spec(msg: SpecNetMsg) = 0x12..=0x15,
    }

    enum SpecNetMsg {
        Client(msg: SpecClientMsg) = 0x12..=0x13,
        Gossip { update: SpecUpdate } = 0x14,
        Ack { of: UpdateId, acker: usize, acker_seq: u64 } = 0x15,
    }

    enum SpecClientMsg {
        Submit { op: SpecOpId, client_op: SpecOp, wants: Wants } = 0x12,
        Views {
            op: SpecOpId,
            views: [View; u8 <= MAX_VIEWS, "SpecClientMsg::Views views"],
            closing: bool,
        } = 0x13,
    }

    struct SpecUpdate { id: UpdateId, ts: u64, vc: VectorClock, op: SpecOp }

    struct UpdateId { origin: usize, seq: u64 }

    // A register op and a counter op share one tag space.
    enum SpecOp {
        Reg(op: RegOp) = 0..=1,
        Ctr(op: CtrOp) = 2..=4,
    }

    enum RegOp { Read(key: u64) = 0, Write(key: u64, val: u64) = 1 }

    enum CtrOp { Get(key: u64) = 2, Put(key: u64, val: u64) = 3, Add(key: u64, by: u64) = 4 }
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
