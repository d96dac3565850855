//! Per-connection state machine: one reusable read buffer with
//! in-place frame extraction, and one bounded, contiguous write buffer
//! that frames are encoded straight onto.
//!
//! The reactor's read path is zero-copy with respect to framing: bytes
//! land in the connection's buffer straight off the socket, complete
//! frames are *sliced* out of that buffer for decoding (the `Wire`
//! codec reads from a borrowed `&[u8]`), and only the undecoded tail of
//! a partial frame ever survives to the next readiness event — moved to
//! the front of the buffer rather than reallocated. The buffer keeps
//! its grown length between events and the received bytes are tracked
//! by a separate filled length, so the spare room handed to `read` is
//! zeroed once, when the buffer grows, not before every call.
//!
//! The write path is the backpressure boundary. A message is encoded
//! once, onto the tail of the connection's write buffer (a frame bound
//! for several peers is encoded once and its bytes copied onto each
//! tail); a flush is a plain `write` from the first unwritten byte, so
//! every frame produced in one loop iteration leaves in one syscall. A
//! peer that stops reading makes the unwritten part grow; past
//! [`Conn::write_cap`] bytes the connection is closed rather than
//! letting one slow consumer hold the loop's memory hostage.
//!
//! One kind of connection has a second writer: a quorum binding's
//! coordinator link, whose [`WriteHalf`] lets the submitting thread put
//! a frame on an idle socket itself (`DESIGN.md` §12, "Direct submit").
//! Its one lock serialises whole frames — a direct write, or the loop's
//! flush — and a frame the socket cut short leaves its tail in the half,
//! where the loop's next flush sends it ahead of anything else. Every
//! other connection has no half and takes no lock.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::frame::judge_header;

use super::event_loop::Counters;

/// Bytes asked of the socket per `read` call. Small frames dominate
/// this protocol; 16 KiB keeps per-connection memory modest at high
/// connection counts while still draining a burst in few syscalls.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// A buffer that grew past this for one burst or one giant frame gives
/// the memory back once it is idle, so ten thousand connections do not
/// each pin their worst moment.
const SHRINK_ABOVE: usize = 4 * READ_CHUNK;

/// Why a connection is being torn down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Clean EOF from the peer at a frame boundary.
    Eof,
    /// The socket errored (reset, mid-frame EOF surfaced on read, …).
    Io,
    /// The peer sent bytes that cannot be a frame (bad length, bad
    /// version, or a body the handler failed to decode).
    Garbage,
    /// The unwritten bytes exceeded the cap: the peer reads too slowly
    /// for the traffic addressed to it.
    Backpressure,
    /// The local handler asked for the close.
    Requested,
}

/// One step of the read-side frame extractor.
pub(crate) enum Extract {
    /// No complete frame in the buffer; wait for more bytes.
    NeedMore,
    /// A complete frame body (version byte already checked and
    /// stripped) occupies `buf[body_start..body_end]`.
    Frame {
        /// First byte of the frame body within the read buffer.
        body_start: usize,
        /// One past the last body byte; also where the next frame
        /// header begins.
        body_end: usize,
    },
    /// The stream cannot be parsed as frames from here on.
    Bad,
}

/// Examines the bytes at `buf[pos..]` for one complete frame. Its
/// header is judged by [`judge_header`] as soon as its bytes are in, so
/// a bad one is refused before its body arrives.
pub(crate) fn extract_frame(buf: &[u8], pos: usize) -> Extract {
    match judge_header(buf.get(pos..).unwrap_or_default()) {
        Err(_) => Extract::Bad,
        Ok(None) => Extract::NeedMore,
        Ok(Some(len)) => {
            let body_end = pos + 4 + len as usize;
            if buf.len() < body_end {
                return Extract::NeedMore;
            }
            Extract::Frame {
                body_start: pos + 5,
                body_end,
            }
        }
    }
}

/// The write side of a quorum binding's coordinator link, shared by the
/// binding's handles and its loop. It outlives any one connection: the
/// loop publishes each new link's socket here and withdraws it when the
/// link dies.
#[derive(Default)]
pub(crate) struct WriteHalf {
    state: Mutex<HalfState>,
    /// Bytes are owed to the socket: the loop's buffer after a flush the
    /// socket cut short, or the tail of a direct frame. Written only
    /// under `state`'s lock; the loop reads it without, to skip the lock
    /// on a readiness event that leaves it nothing to flush. `SeqCst`:
    /// a direct writer raises it *before* its last attempt on a full
    /// socket, so the writability edge that follows a refusal finds it
    /// up.
    owed: AtomicBool,
}

#[derive(Default)]
struct HalfState {
    /// The live link's socket; `None` between links.
    stream: Option<Arc<TcpStream>>,
    /// The counters of the loop that owns the live link.
    counters: Option<Arc<Counters>>,
    /// The frame a direct writer is sending (kept for its capacity).
    frame: Vec<u8>,
    /// What the socket refused of it: goes out before any other byte.
    spill: Vec<u8>,
}

impl WriteHalf {
    /// Under the lock — no direct writer is mid-frame — makes `conn`'s
    /// socket the one direct writers write, or takes it away from them.
    fn set(&self, conn: Option<&Conn>) {
        let mut st = self.state.lock();
        st.stream = conn.map(|c| Arc::clone(&c.stream));
        st.counters = conn.map(|c| Arc::clone(&c.counters));
        st.spill.clear();
        self.owed.store(false, Ordering::SeqCst);
    }

    /// Takes the socket away from direct writers: the last reference
    /// outside the loop's [`Conn`] is gone, so dropping that closes the
    /// socket.
    pub(crate) fn withdraw(&self) {
        self.set(None);
    }

    /// Locks the half for one direct frame, if a socket is published and
    /// nothing is owed to it (bytes written now would land mid-frame).
    pub(crate) fn lock_idle(&self) -> Option<DirectWrite<'_>> {
        let st = self.state.lock();
        let idle = st.stream.is_some() && !self.owed.load(Ordering::SeqCst);
        idle.then_some(DirectWrite { half: self, st })
    }
}

/// The locked [`WriteHalf`] of an idle link: encode one frame onto
/// [`DirectWrite::frame`], then [`DirectWrite::write`] it.
pub(crate) struct DirectWrite<'a> {
    half: &'a WriteHalf,
    st: MutexGuard<'a, HalfState>,
}

impl DirectWrite<'_> {
    /// The (emptied) buffer to encode the frame onto.
    pub(crate) fn frame(&mut self) -> &mut Vec<u8> {
        self.st.frame.clear();
        &mut self.st.frame
    }

    /// Writes the frame. What a full socket refuses stays in the half
    /// for the loop, which the socket's next writability edge wakes. A
    /// dead socket is shut down, so that its loop — which has this
    /// frame's entry already — hears of it and fails the operation
    /// `Unavailable`.
    pub(crate) fn write(mut self) {
        let owed = &self.half.owed;
        let HalfState {
            stream,
            counters,
            frame,
            spill,
        } = &mut *self.st;
        let (Some(stream), Some(counters)) = (stream.as_deref(), counters.as_deref()) else {
            return;
        };
        counters.frames_out.fetch_add(1, Ordering::Relaxed);
        let mut rest = frame.as_slice();
        while !rest.is_empty() {
            counters.writes.fetch_add(1, Ordering::Relaxed);
            // lint: allow(lock_discipline) — the socket is O_NONBLOCK; the lock is what keeps frames whole
            match (&*stream).write(rest) {
                Ok(n) if n > 0 => rest = rest.get(n..).unwrap_or_default(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Full. Once more with the flag up (see `owed`); if
                // that is refused too, the tail is the loop's.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if owed.swap(true, Ordering::SeqCst) {
                        return spill.extend_from_slice(rest);
                    }
                }
                _ => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        if owed.load(Ordering::SeqCst) {
            owed.store(false, Ordering::SeqCst);
        }
    }
}

/// One registered connection owned by exactly one event loop.
pub(crate) struct Conn {
    pub(crate) stream: Arc<TcpStream>,
    /// Handler-defined meaning (peer index, client tag, binding id…).
    pub(crate) tag: u64,
    /// Receive buffer. Its *length* is the room `read` may fill (all of
    /// it initialised); `read_filled` is how much of the front holds
    /// received, not yet dispatched bytes.
    read_buf: Vec<u8>,
    read_filled: usize,
    /// Encoded frames awaiting the socket, back to back; the bytes
    /// before `write_head` have already been written.
    write_buf: Vec<u8>,
    write_head: usize,
    /// Cap on the unwritten bytes; exceeding it closes the connection.
    write_cap: usize,
    /// Already on the loop's flush list for this iteration.
    pub(crate) dirty: bool,
    /// Close scheduled; drop new traffic, skip further parsing.
    pub(crate) closing: bool,
    /// Set on a link whose binding's handles may write it too: flushes
    /// go under this half's lock.
    shared: Option<Arc<WriteHalf>>,
    /// The owning loop's counters: every `read` and `write` on this
    /// socket is one.
    counters: Arc<Counters>,
}

/// Read-side outcome of draining a readiness edge.
pub(crate) enum ReadStep {
    /// Drained to `WouldBlock`; buffer may hold complete frames.
    Progress,
    /// The peer closed or the socket failed.
    Closed(CloseReason),
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        tag: u64,
        write_cap: usize,
        counters: Arc<Counters>,
    ) -> Conn {
        Conn {
            stream: Arc::new(stream),
            tag,
            read_buf: Vec::new(),
            read_filled: 0,
            write_buf: Vec::new(),
            write_head: 0,
            write_cap,
            dirty: false,
            closing: false,
            shared: None,
            counters,
        }
    }

    /// Publishes this connection's socket on `half` and puts its flushes
    /// under `half`'s lock.
    pub(crate) fn share_writes(&mut self, half: &Arc<WriteHalf>) {
        half.set(Some(self));
        self.shared = Some(Arc::clone(half));
    }

    /// Reads until `WouldBlock` (the edge-triggered contract: consume
    /// the whole edge or never hear about those bytes again).
    pub(crate) fn drain_read(&mut self) -> ReadStep {
        loop {
            if self.read_buf.len() < self.read_filled + READ_CHUNK {
                self.read_buf.resize(self.read_filled + READ_CHUNK, 0);
            }
            let Some(spare) = self.read_buf.get_mut(self.read_filled..) else {
                return ReadStep::Closed(CloseReason::Io);
            };
            let room = spare.len();
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
            match (&*self.stream).read(spare) {
                Ok(0) => return ReadStep::Closed(CloseReason::Eof),
                Ok(n) => {
                    self.read_filled += n;
                    if n < room {
                        // Short read: the socket buffer is empty now;
                        // a further read would only cost a syscall.
                        return ReadStep::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::Progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Closed(CloseReason::Io),
            }
        }
    }

    /// Takes the read buffer and its filled length for borrow-free
    /// frame dispatch; pair with [`Conn::restore_read_buf`].
    pub(crate) fn take_read_buf(&mut self) -> (Vec<u8>, usize) {
        (
            std::mem::take(&mut self.read_buf),
            std::mem::take(&mut self.read_filled),
        )
    }

    /// Puts the read buffer back with `buf[..pos]` consumed, moving a
    /// partial tail frame to the front so the buffer never grows
    /// without bound across many parse rounds.
    pub(crate) fn restore_read_buf(&mut self, mut buf: Vec<u8>, filled: usize, pos: usize) {
        let tail = filled.saturating_sub(pos);
        if tail > 0 && pos > 0 {
            buf.copy_within(pos..filled, 0);
        }
        // A one-off giant frame should not pin its allocation forever.
        if buf.len() > SHRINK_ABOVE && tail < READ_CHUNK {
            buf.truncate(READ_CHUNK);
            buf.shrink_to(READ_CHUNK);
        }
        self.read_buf = buf;
        self.read_filled = tail;
    }

    /// Lets `put` append one encoded frame to the tail of the write
    /// buffer. Returns `false` when that takes the unwritten bytes past
    /// the cap — the caller must close the connection.
    pub(crate) fn enqueue(&mut self, put: impl FnOnce(&mut Vec<u8>)) -> bool {
        if self.closing {
            return true; // dropped silently, like a dead peer
        }
        put(&mut self.write_buf);
        self.unwritten() <= self.write_cap
    }

    /// Bytes awaiting the socket.
    fn unwritten(&self) -> usize {
        self.write_buf.len() - self.write_head
    }

    /// Whether any bytes await the socket — the spilled tail of a
    /// direct frame included.
    pub(crate) fn has_pending_writes(&self) -> bool {
        self.unwritten() > 0
            || (self.shared.as_ref()).is_some_and(|half| half.owed.load(Ordering::SeqCst))
    }

    /// Writes from the first unwritten byte until the buffer is drained
    /// or the socket pushes back. `Ok(true)` means fully drained. On a
    /// shared link this happens under the half's lock, a spilled tail
    /// first.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        let Some(half) = self.shared.take() else {
            return self.flush_buf();
        };
        let drained = {
            let mut st = half.state.lock();
            if !st.spill.is_empty() {
                let at = self.write_head..self.write_head;
                self.write_buf.splice(at, st.spill.drain(..));
            }
            // lint: allow(lock_discipline) — the socket is O_NONBLOCK; the lock is what keeps frames whole
            let drained = self.flush_buf();
            half.owed.store(self.unwritten() > 0, Ordering::SeqCst);
            drained
        };
        self.shared = Some(half);
        drained
    }

    fn flush_buf(&mut self) -> io::Result<bool> {
        while let Some(rest) = self
            .write_buf
            .get(self.write_head..)
            .filter(|rest| !rest.is_empty())
        {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
            match (&*self.stream).write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Frames keep arriving behind a slow reader: drop
                    // the written prefix once it outweighs what is left.
                    // The buffer then stays under twice the unwritten
                    // bytes, and the bytes moved never exceed the bytes
                    // written since the last move.
                    if self.write_head >= self.unwritten() {
                        self.write_buf.drain(..self.write_head);
                        self.write_head = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_head = 0;
        if self.write_buf.capacity() > SHRINK_ABOVE {
            self.write_buf.shrink_to(READ_CHUNK);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{append_frame, encode_frame, read_frame, MAX_FRAME};
    use crate::wire::{Reader, WIRE_VERSION};
    use quorumstore::types::Value;
    use std::net::TcpListener;

    fn frame_bytes(body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        let len = (body.len() + 1) as u32;
        f.extend_from_slice(&len.to_le_bytes());
        f.push(WIRE_VERSION);
        f.extend_from_slice(body);
        f
    }

    /// A nonblocking [`Conn`] and the blocking far end of its socket.
    fn conn_pair(write_cap: usize) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (near, _) = listener.accept().unwrap();
        near.set_nonblocking(true).unwrap();
        near.set_nodelay(true).unwrap();
        far.set_nodelay(true).unwrap();
        (Conn::new(near, 0, write_cap, Arc::default()), far)
    }

    /// The `i`-th 64 KiB test payload: every id names its frame and its
    /// place in it, so a byte resumed at the wrong offset cannot decode
    /// to the expected list.
    fn payload(i: u64) -> Value {
        Value::Ids((0..8192).map(|j| (i << 32) | j).collect())
    }

    #[test]
    fn flush_interrupted_by_would_block_resumes_at_the_right_byte() {
        const BURST: u64 = 256; // 16 MiB: more than loopback will buffer
        const TOTAL: u64 = BURST + 64;
        let (mut conn, mut far) = conn_pair(usize::MAX);
        for i in 0..BURST {
            assert!(conn.enqueue(|buf| append_frame(&payload(i), buf)));
        }
        assert!(
            !conn.flush().unwrap(),
            "16 MiB fit the socket buffers; the test needs a bigger burst"
        );
        assert!(conn.has_pending_writes());

        // Drain from the far end one frame at a time, appending further
        // frames behind the partially written one and flushing again, so
        // the head offset, the prefix compaction and the append path all
        // meet a buffer that is mid-frame.
        let mut scratch = Vec::new();
        let mut enqueued = BURST;
        for i in 0..TOTAL {
            let got: Value = read_frame(&mut far, &mut scratch).unwrap().unwrap();
            assert_eq!(got, payload(i), "frame {i} out of order or corrupt");
            if enqueued < TOTAL {
                assert!(conn.enqueue(|buf| append_frame(&payload(enqueued), buf)));
                enqueued += 1;
            }
            conn.flush().unwrap();
        }
        assert!(conn.flush().unwrap());
        assert!(!conn.has_pending_writes());
        assert!(
            conn.write_buf.capacity() <= SHRINK_ABOVE,
            "a drained burst buffer must give its {} bytes back",
            conn.write_buf.capacity()
        );
    }

    #[test]
    fn direct_frame_cut_short_goes_out_whole_and_first() {
        let (mut conn, mut far) = conn_pair(usize::MAX);
        let half = Arc::new(WriteHalf::default());
        conn.share_writes(&half);

        // Direct frames at a peer that reads nothing, until the socket
        // refuses the tail of one: the half keeps it and turns further
        // direct writers away.
        let mut direct = 0;
        while let Some(mut link) = half.lock_idle() {
            append_frame(&payload(direct), link.frame());
            link.write();
            direct += 1;
            assert!(direct < 1024, "64 MiB fit the socket buffers");
        }
        assert!(conn.has_pending_writes(), "the spilled tail is the loop's");

        // The loop's own frames queue behind that tail, not inside it.
        let total = direct + 2;
        for i in direct..total {
            assert!(conn.enqueue(|buf| append_frame(&payload(i), buf)));
        }
        let reader = std::thread::spawn(move || {
            let mut scratch = Vec::new();
            for i in 0..total {
                let got: Value = read_frame(&mut far, &mut scratch).unwrap().unwrap();
                assert_eq!(got, payload(i), "frame {i} out of order or corrupt");
            }
        });
        while !conn.flush().unwrap() {
            std::thread::yield_now();
        }
        reader.join().unwrap();
        assert!(!conn.has_pending_writes());
        assert!(half.lock_idle().is_some(), "a drained link is idle again");

        // A withdrawn half holds no socket: direct writers are turned
        // away, and the loop's `Conn` is the last owner.
        half.withdraw();
        assert!(half.lock_idle().is_none());
        assert_eq!(Arc::strong_count(&conn.stream), 1);
    }

    #[test]
    fn write_cap_counts_unwritten_bytes_across_appended_frames() {
        let frame = frame_bytes(&[7; 395]); // 400 bytes on the wire
        let copy = |buf: &mut Vec<u8>| buf.extend_from_slice(&frame);
        let (mut conn, _far) = conn_pair(1000);
        assert!(conn.enqueue(copy));
        assert!(conn.enqueue(copy));
        assert!(
            !conn.enqueue(copy),
            "1200 unwritten bytes must exceed a cap of 1000"
        );

        // Written bytes stop counting: the same three frames fit once a
        // flush has moved the first two into the socket.
        let (mut conn, _far) = conn_pair(1000);
        assert!(conn.enqueue(copy));
        assert!(conn.enqueue(copy));
        assert!(conn.flush().unwrap());
        assert!(conn.enqueue(copy));
        assert!(conn.enqueue(copy));
    }

    /// Runs one dispatch round the way the event loop does: take the
    /// buffer, slice complete frames off its front, put the rest back.
    fn dispatch(conn: &mut Conn, bodies: &mut Vec<Vec<u8>>) {
        let (buf, filled) = conn.take_read_buf();
        let mut pos = 0;
        while let Extract::Frame {
            body_start,
            body_end,
        } = extract_frame(&buf[..filled], pos)
        {
            bodies.push(buf[body_start..body_end].to_vec());
            pos = body_end;
        }
        conn.restore_read_buf(buf, filled, pos);
    }

    #[test]
    fn partial_frame_survives_many_small_reads() {
        use std::io::Write as _;
        let ids = Value::Ids((0..5120).map(|j| j * 0x0101_0101_0101 + 1).collect());
        let mut wire = frame_bytes(b"first"); // consumed early, so the tail moves
        let mut big = Vec::new();
        encode_frame(&ids, &mut big); // 40 KiB + header
        wire.extend_from_slice(&big);

        let (mut conn, mut far) = conn_pair(0);
        let mut bodies = Vec::new();
        let mut sent = 0;
        let mut step = 0;
        while sent < wire.len() {
            // A few bytes at a time, never the same few.
            let n = (1 + step % 13).min(wire.len() - sent);
            far.write_all(&wire[sent..sent + n]).unwrap();
            sent += n;
            step += 1;
            assert!(matches!(conn.drain_read(), ReadStep::Progress));
            dispatch(&mut conn, &mut bodies);
        }
        // Loopback may still hold the last few bytes; closing the far end
        // bounds the wait.
        drop(far);
        while matches!(conn.drain_read(), ReadStep::Progress) {
            dispatch(&mut conn, &mut bodies);
            std::thread::yield_now();
        }
        dispatch(&mut conn, &mut bodies);

        assert_eq!(bodies.len(), 2, "both frames complete exactly once");
        assert_eq!(bodies[0], b"first");
        assert_eq!(Reader::new(&bodies[1]).finish::<Value>(), Ok(ids));
        assert_eq!(conn.read_filled, 0, "nothing left over");
    }

    #[test]
    fn read_buffer_keeps_its_length_and_gives_back_a_giant_one() {
        use std::io::Write as _;
        let (mut conn, mut far) = conn_pair(0);
        let mut bodies = Vec::new();

        far.write_all(&frame_bytes(b"ping")).unwrap();
        while bodies.is_empty() {
            assert!(matches!(conn.drain_read(), ReadStep::Progress));
            dispatch(&mut conn, &mut bodies);
        }
        assert_eq!(
            conn.read_buf.len(),
            READ_CHUNK,
            "the grown length is kept, so the next read zeroes nothing"
        );

        // A 1 MiB frame grows the buffer; once dispatched it shrinks back.
        let giant = frame_bytes(&vec![9; 1 << 20]);
        let writer = std::thread::spawn(move || far.write_all(&giant).map(|()| far));
        while bodies.len() < 2 {
            assert!(matches!(conn.drain_read(), ReadStep::Progress));
            dispatch(&mut conn, &mut bodies);
        }
        let _far = writer.join().unwrap().unwrap();
        assert_eq!(bodies[1].len(), 1 << 20);
        assert_eq!(conn.read_buf.len(), READ_CHUNK);
        assert!(conn.read_buf.capacity() <= SHRINK_ABOVE);
    }

    #[test]
    fn extract_handles_partial_and_complete_frames() {
        let f = frame_bytes(b"hello");
        // Every strict prefix wants more bytes.
        for cut in 0..f.len() {
            match extract_frame(&f[..cut], 0) {
                Extract::NeedMore => {}
                _ => panic!("prefix of {cut} bytes should be NeedMore"),
            }
        }
        match extract_frame(&f, 0) {
            Extract::Frame {
                body_start,
                body_end,
            } => assert_eq!(&f[body_start..body_end], b"hello"),
            _ => panic!("complete frame not recognized"),
        }
        // Two frames back to back: the second parses from body_end - but
        // body_end is where the *next header* begins.
        let mut two = f.clone();
        two.extend_from_slice(&frame_bytes(b"world"));
        let Extract::Frame { body_end, .. } = extract_frame(&two, 0) else {
            panic!("first frame");
        };
        match extract_frame(&two, body_end) {
            Extract::Frame {
                body_start,
                body_end,
            } => assert_eq!(&two[body_start..body_end], b"world"),
            _ => panic!("second frame not recognized"),
        }
    }

    #[test]
    fn extract_rejects_garbage() {
        // Zero length.
        assert!(matches!(extract_frame(&[0, 0, 0, 0, 1], 0), Extract::Bad));
        // Oversized announcement.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            extract_frame(&[huge[0], huge[1], huge[2], huge[3], 1], 0),
            Extract::Bad
        ));
        // Wrong version, the retired version 1 among them — rejected
        // even before the body arrives.
        let mut f = frame_bytes(b"xx");
        for ver in [0, 1, 3, WIRE_VERSION.wrapping_add(9)] {
            f[4] = ver;
            assert!(matches!(extract_frame(&f[..5], 0), Extract::Bad));
            assert!(matches!(extract_frame(&f, 0), Extract::Bad));
        }
    }
}
