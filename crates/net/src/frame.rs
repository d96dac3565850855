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
//! reader can skip a frame it cannot parse. `ver` is the *message's*
//! minimum wire version ([`Wire::min_wire_version`]) — a message every
//! peer understands travels in the oldest frame that can carry it, so
//! mixed-version deployments interoperate on the shared message subset.
//! A receiver accepts [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] and
//! rejects anything outside instead of misparsing it. The body is one
//! [`Wire`]-encoded message, decoded with exact-length consumption
//! (trailing bytes are an error).

use std::io::{self, Read, Write};

use crate::wire::{Reader, Wire, WireError, MIN_WIRE_VERSION, WIRE_VERSION};

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
    // Reserve the length slot, then encode in place. The version byte is
    // the oldest version that understands *this* message, not the newest
    // this build speaks — see the module docs.
    buf.extend_from_slice(&[0, 0, 0, 0, msg.min_wire_version()]);
    msg.encode(buf);
    let len = (buf.len() - start - 4) as u32;
    if let Some(slot) = buf.get_mut(start..start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
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
    let mut len_bytes = [0u8; 4];
    // Distinguish "no more frames" from "died mid-frame" on the first
    // byte of the length prefix.
    match r.read(&mut len_bytes[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(r, scratch);
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    scratch.clear();
    scratch.resize(len as usize, 0);
    r.read_exact(scratch)?;
    let Some((&ver, body)) = scratch.split_first() else {
        return Err(WireError::Truncated.into());
    };
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&ver) {
        return Err(WireError::BadVersion { got: ver }.into());
    }
    Ok(Some(Reader::new(body).finish()?))
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

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        bytes[4] = 9; // clobber the version byte
        let mut cur = Cursor::new(bytes);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame::<Msg>(&mut cur, &mut buf),
            Err(FrameError::Wire(WireError::BadVersion { got: 9 }))
        ));
    }

    #[test]
    fn frames_carry_each_messages_minimum_version() {
        // Version-1-compatible messages travel in version-1 frames —
        // bare Msg and its NetMsg::Store envelope identically — while a
        // version-2-only message is stamped 2 so an old peer rejects it
        // cleanly instead of misparsing it.
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        assert_eq!(bytes[4], 1);
        let mut wrapped = Vec::new();
        write_frame(&mut wrapped, &NetMsg::Store(msg()), &mut scratch).unwrap();
        assert_eq!(wrapped, bytes, "Store envelope must be byte-identical");
        let mut hello = Vec::new();
        write_frame(&mut hello, &NetMsg::Hello { client: 7 }, &mut scratch).unwrap();
        assert_eq!(hello[4], 2);
    }

    #[test]
    fn version_1_frames_decode_as_store_envelopes() {
        // A frame from a version-1 peer decodes on a version-2 reader.
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut bytes, &msg(), &mut scratch).unwrap();
        let mut cur = Cursor::new(bytes);
        let mut buf = Vec::new();
        let got = read_frame::<NetMsg>(&mut cur, &mut buf).unwrap().unwrap();
        assert_eq!(got, NetMsg::Store(msg()));
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
