//! Length-prefixed framing over a byte stream.
//!
//! Every message on a connection travels as one frame:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────┐
//! │ len: u32 LE│ ver: u8 │ body: len-1 bytes        │
//! └────────────┴─────────┴──────────────────────────┘
//! ```
//!
//! `len` counts everything after itself (version byte + body), so a
//! reader can skip a frame it cannot parse. `ver` is always
//! [`WIRE_VERSION`]: a receiver rejects any other byte instead of
//! misparsing the body, so a peer of another version is refused on its
//! first frame. Both readers — [`read_frame`] and the reactor's — judge
//! the header by one rule, `judge_header`. The body is one
//! [`Wire`]-encoded message, decoded with exact-length consumption
//! (trailing bytes are an error).

use std::io::{self, Read, Write};

use crate::wire::{Reader, Wire, WireError, WIRE_VERSION};

/// Hard cap on a frame's announced length. Nothing this protocol sends
/// comes near it; a peer announcing more is corrupt or hostile and the
/// connection is dropped.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// What went wrong reading a frame from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including mid-frame EOF).
    Io(io::Error),
    /// The frame arrived intact but its body failed to decode.
    Wire(WireError),
    /// The announced length exceeded [`MAX_FRAME`].
    Oversized {
        /// The announced length.
        len: u32,
    },
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Wire(e) => write!(f, "frame decode error: {e}"),
            FrameError::Oversized { len } => {
                write!(f, "frame announces {len} bytes (cap {MAX_FRAME})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes `msg` as one complete frame (header + body) into `scratch`,
/// clearing it first. The result is ready for a single `write_all`.
pub fn encode_frame<T: Wire>(msg: &T, scratch: &mut Vec<u8>) {
    scratch.clear();
    append_frame(msg, scratch);
}

/// Encodes `msg` as one complete frame onto the tail of `buf`, leaving
/// what `buf` already holds in place — how the reactor writes a message
/// straight into a connection's outbound buffer.
pub(crate) fn append_frame<T: Wire>(msg: &T, buf: &mut Vec<u8>) {
    let start = buf.len();
    // Reserve the length slot, then encode in place.
    buf.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION]);
    msg.encode(buf);
    let len = (buf.len() - start - 4) as u32;
    if let Some(slot) = buf.get_mut(start..start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// The frame-header rule both readers apply. `head` holds the first
/// bytes of a frame, as many as have arrived. The length is judged once
/// its four bytes are present and the version once its byte is, so a
/// bad header is refused before its body is waited for: `Ok(None)` asks
/// for more bytes, `Ok(Some(len))` is a valid header announcing `len`
/// bytes after the prefix.
#[inline]
pub(crate) fn judge_header(head: &[u8]) -> Result<Option<u32>, FrameError> {
    let Some((prefix, rest)) = head.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    if len == 0 {
        // No room for the version byte.
        return Err(WireError::Truncated.into());
    }
    match rest.first() {
        None => Ok(None),
        Some(&WIRE_VERSION) => Ok(Some(len)),
        Some(&got) => Err(WireError::BadVersion { got }.into()),
    }
}

/// Encodes `msg` as one frame into `scratch` (cleared first) and writes
/// it to `w` with a single `write_all` call, so concurrent writers on a
/// duplicated stream never interleave partial frames.
pub fn write_frame<T: Wire>(w: &mut impl Write, msg: &T, scratch: &mut Vec<u8>) -> io::Result<()> {
    encode_frame(msg, scratch);
    w.write_all(scratch)
}

/// Reads one frame from `r`, reusing `scratch` for the body.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed between messages); EOF mid-frame is an [`FrameError::Io`]
/// error like any other truncation.
pub fn read_frame<T: Wire>(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<T>, FrameError> {
    let mut head = [0u8; 5];
    // Distinguish "no more frames" from "died mid-frame" on the first
    // byte of the length prefix.
    match r.read(&mut head[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(r, scratch);
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut head[1..4])?;
    // A zero or oversized length is refused before the version byte is
    // waited for.
    judge_header(&head[..4])?;
    r.read_exact(&mut head[4..])?;
    let Some(len) = judge_header(&head)? else {
        return Err(WireError::Truncated.into()); // a whole header is never partial
    };
    scratch.clear();
    scratch.resize(len as usize - 1, 0);
    r.read_exact(scratch)?;
    Ok(Some(Reader::new(scratch).finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NetMsg;
    use quorumstore::types::{Key, OpId, ReadKind};
    use quorumstore::Msg;
    use simnet::NodeId;
    use std::io::Cursor;

    fn msg() -> Msg {
        Msg::ClientRead {
            op: OpId {
                client: NodeId(1),
                seq: 2,
            },
            key: Key::plain(3),
            kind: ReadKind::Single { r: 1 },
        }
    }

    #[test]
    fn frame_round_trips_and_eof_is_clean() {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        let mut cur = Cursor::new(bytes);
        let mut buf = Vec::new();
        assert!(read_frame::<Msg>(&mut cur, &mut buf).unwrap().is_some());
        assert!(read_frame::<Msg>(&mut cur, &mut buf).unwrap().is_some());
        assert!(read_frame::<Msg>(&mut cur, &mut buf).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        bytes.truncate(bytes.len() - 1);
        let mut cur = Cursor::new(bytes);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame::<Msg>(&mut cur, &mut buf),
            Err(FrameError::Io(_))
        ));
    }

    /// Any version byte but [`WIRE_VERSION`] is refused — the retired
    /// version 1 among them — and as soon as it is read: a header whose
    /// body never comes is refused for its version, not its length.
    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        for ver in [0, 1, 3, 9] {
            bytes[4] = ver; // clobber the version byte
            for input in [&bytes[..], &bytes[..5]] {
                let mut buf = Vec::new();
                assert!(
                    matches!(
                        read_frame::<Msg>(&mut Cursor::new(input), &mut buf),
                        Err(FrameError::Wire(WireError::BadVersion { got })) if got == ver
                    ),
                    "version {ver}, {} bytes",
                    input.len()
                );
            }
        }
    }

    /// A quorum-store frame and a spec frame carry the same version
    /// byte, and a `Store` envelope frame is byte for byte the bare
    /// `Msg` frame.
    #[test]
    fn every_frame_carries_the_wire_version() {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        assert_eq!(bytes[4], WIRE_VERSION);
        let mut wrapped = Vec::new();
        write_frame(&mut wrapped, &NetMsg::Store(msg()), &mut scratch).unwrap();
        assert_eq!(wrapped, bytes, "Store envelope must be byte-identical");
        let mut ack = Vec::new();
        let spec = NetMsg::Spec(specstore::SpecMsg::Ack {
            of: specstore::UpdateId { origin: 0, seq: 1 },
            acker: 7,
            acker_seq: 1,
        });
        write_frame(&mut ack, &spec, &mut scratch).unwrap();
        assert_eq!(ack[4], WIRE_VERSION);
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.push(1);
        let mut cur = Cursor::new(bytes);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame::<Msg>(&mut cur, &mut buf),
            Err(FrameError::Oversized { .. })
        ));
    }
}
