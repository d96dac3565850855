//! The reactor event loop: one thread, one `epoll` instance, many
//! connections.
//!
//! A loop owns its connections exclusively — read buffers, write
//! buffers, and the protocol handler all live on the loop thread, so no
//! connection state is locked or shared (the one exception, a quorum
//! binding's [`WriteHalf`], is `conn.rs`'s to explain). Other threads
//! talk to a loop only through its [`Injector`]: a mutex-protected
//! command queue paired with an `eventfd` that kicks the loop out of
//! `epoll_wait`. A loop that exits closes its queue, so a command sent
//! afterwards comes back to its sender instead of sitting undrained
//! forever. Wake-ups coalesce: a flag shared with the injectors records
//! that the eventfd has been written and not yet consumed, so a burst of
//! commands costs one `write` and one `read`, not one pair each.
//!
//! A command can also be pushed *quietly* — queued, a second flag
//! raised, no eventfd — when the loop is certain to run anyway before
//! the command matters: it was pushed from the loop's own thread, or its
//! pusher is about to write a frame whose reply will wake the loop
//! ([`Injector::try_send_quiet`]). The loop never parks while that flag
//! is up, and looks at it again each time it has read a socket, before
//! it dispatches what it read.
//!
//! Each loop iteration:
//!
//! 1. runs the commands pushed quietly since it last looked;
//! 2. asks the handler for its next deadline and waits for readiness
//!    (or that deadline, whichever is sooner);
//! 3. dispatches the batch `epoll_wait` returned, *answers first*: the
//!    connections the handler names as carrying answers to what this
//!    loop asked ([`Handler::answers`]) before the rest, in epoll order
//!    within each group. A readable connection is drained
//!    edge-to-exhaustion — running quiet commands first, so that one
//!    pushed while the loop slept comes before the frame that answers
//!    it — and complete frames are sliced out of its buffer and each
//!    body handed to the handler ([`Handler::on_frame`]) for zero-copy
//!    decode; a writable one is flushed there and then, so a request
//!    connection's replies are on its socket before the next connection
//!    is read, and what the answers added to it leaves in the same
//!    `write`. If the eventfd fired, injected commands (handler events,
//!    shutdown) are drained;
//! 4. flushes every connection the iteration touched and its own event
//!    did not — frames produced while handling a burst sit back to back
//!    in the connection's write buffer and leave in one `write`; what a
//!    request fanned out to the answering links leaves here, once;
//! 5. fires the handler's deadline hook if it expired.
//!
//! Every loop counts what it does ([`Counters`]): `epoll_wait` returns,
//! socket reads and writes, frames in and out.
//!
//! Closes are deferred to the end of the iteration so the handler never
//! observes a half-removed connection.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use quorumstore::IdMap;

use crate::frame::append_frame;
use crate::wire::Wire;

use super::conn::{extract_frame, CloseReason, Conn, Extract, ReadStep, WriteHalf};
use super::sys::{
    EpollEvent, Poller, WakeFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token values reserved for the loop's own fds; connection ids start
/// below these and count up.
const TOKEN_WAKE: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Default cap on one connection's unwritten bytes.
pub(crate) const DEFAULT_WRITE_CAP: usize = 4 * 1024 * 1024;

/// What the loop does on behalf of other threads.
pub(crate) enum Cmd<Ev> {
    /// A handler-defined event.
    Ev(Ev),
    /// Exit the loop, closing every connection.
    Shutdown,
}

/// The protocol living on an event loop. All hooks run on the loop
/// thread with exclusive access to the loop's connections via [`Ctl`].
pub(crate) trait Handler: Send + 'static {
    /// Cross-thread event type delivered through the [`Injector`].
    type Ev: Send + 'static;

    /// The loop's listener accepted `stream`. Only called on loops
    /// spawned with a listener.
    fn on_accept(&mut self, ctl: &mut Ctl, stream: TcpStream);

    /// One complete frame body (version checked and stripped) arrived.
    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]);

    /// A connection this loop owned is gone. Not called for closes the
    /// handler itself requested.
    fn on_close(&mut self, ctl: &mut Ctl, conn: u64, tag: u64, reason: CloseReason);

    /// An injected [`Cmd::Ev`] arrived.
    fn on_event(&mut self, ctl: &mut Ctl, ev: Self::Ev);

    /// The deadline previously returned by [`Handler::next_deadline`]
    /// expired.
    fn on_tick(&mut self, ctl: &mut Ctl);

    /// The soonest instant at which [`Handler::on_tick`] must run.
    fn next_deadline(&mut self) -> Option<Instant>;

    /// Whether the connection tagged `tag` carries answers to what this
    /// loop asked: such connections are dispatched before the rest of
    /// each `epoll_wait` batch, so what they add to a request
    /// connection leaves with that connection's own replies.
    fn answers(&self, _tag: u64) -> bool {
        false
    }

    /// The loop is exiting and no hook runs after this one: whatever
    /// still waits on this loop must be failed now.
    fn on_shutdown(&mut self) {}
}

/// A loop's command queue. `closed` is set, under the queue's lock, by
/// the exiting loop: every command is either drained by the loop or
/// refused to its sender, never stranded.
struct Queue<Ev> {
    cmds: VecDeque<Cmd<Ev>>,
    closed: bool,
}

/// What a loop and its connections have done since it started,
/// counted exactly. Each is bumped in safe code around the call it
/// counts, `Relaxed`: nothing is ordered by a count.
#[derive(Default)]
pub(crate) struct Counters {
    /// `epoll_wait` returns.
    pub(crate) waits: AtomicU64,
    /// `read` calls on the loop's sockets.
    pub(crate) reads: AtomicU64,
    /// `write` calls on the loop's sockets: its flushes, and the direct
    /// writes submitting threads make on its links.
    pub(crate) writes: AtomicU64,
    /// Frames handed to [`Handler::on_frame`].
    pub(crate) frames_in: AtomicU64,
    /// Frames put on the loop's connections, direct ones included.
    pub(crate) frames_out: AtomicU64,
}

/// One reading of a loop's [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) waits: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) frames_in: u64,
    pub(crate) frames_out: u64,
}

impl Counters {
    fn snapshot(&self) -> Counts {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            waits: read(&self.waits),
            reads: read(&self.reads),
            writes: read(&self.writes),
            frames_in: read(&self.frames_in),
            frames_out: read(&self.frames_out),
        }
    }
}

/// What a loop shares with its injectors.
struct Shared<Ev> {
    queue: Mutex<Queue<Ev>>,
    wake: WakeFd,
    counters: Arc<Counters>,
    /// The eventfd has been written and the loop has not consumed it
    /// yet. Set by whichever sender finds it clear (that sender writes
    /// the fd); cleared by the loop after it reads the fd and *before*
    /// it drains the queue, so a command pushed after the clear finds
    /// the flag down and wakes the loop again, and one pushed before it
    /// is seen by that drain. `SeqCst` on both sides: the argument is
    /// about the order of the flag against the queue's mutex.
    wake_pending: AtomicBool,
    /// Commands were pushed without a wake-up and the loop has not
    /// looked since. Raised after the push, lowered by the loop before
    /// it drains — the same order as `wake_pending`, for the same
    /// reason.
    quiet_pending: AtomicBool,
    /// Eventfd writes so far, for tests that prove a path made none.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicU64,
}

thread_local! {
    /// The address of the [`Shared`] whose loop runs on this thread;
    /// zero on every other thread.
    static LOOP_HERE: Cell<usize> = const { Cell::new(0) };
}

/// Cross-thread handle into one loop. Cloneable and cheap; sends are
/// lock-push-wake, the wake skipped when one is already pending or not
/// needed.
pub(crate) struct Injector<Ev> {
    shared: Arc<Shared<Ev>>,
}

impl<Ev> Clone for Injector<Ev> {
    fn clone(&self) -> Self {
        Injector {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<Ev> Injector<Ev> {
    /// Enqueues `cmd` and makes sure the loop will wake to see it. A
    /// loop that has exited drops the command — to its peers the loop's
    /// owner is gone, and nothing in `cmd` waits on an answer.
    pub(crate) fn send(&self, cmd: Cmd<Ev>) {
        let _ = self.try_send(cmd);
    }

    /// [`Injector::send`] for commands somebody waits on: a loop that
    /// has exited hands `cmd` back so the caller can fail it.
    pub(crate) fn try_send(&self, cmd: Cmd<Ev>) -> Result<(), Cmd<Ev>> {
        // A loop is not parked while its own thread runs a hook.
        let on_loop = LOOP_HERE.get() == Arc::as_ptr(&self.shared) as usize;
        if on_loop {
            return self.try_send_quiet(cmd);
        }
        self.push(cmd)?;
        if !self.shared.wake_pending.swap(true, Ordering::SeqCst) {
            #[cfg(test)]
            self.shared.wakes.fetch_add(1, Ordering::Relaxed);
            self.shared.wake.wake();
        }
        Ok(())
    }

    /// [`Injector::try_send`] without the wake-up, for a caller that
    /// knows the loop will run before `cmd` matters: the loop sees
    /// `cmd` before it next parks, and before it dispatches any byte it
    /// reads from a socket after this call returns.
    pub(crate) fn try_send_quiet(&self, cmd: Cmd<Ev>) -> Result<(), Cmd<Ev>> {
        self.push(cmd)?;
        self.shared.quiet_pending.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn push(&self, cmd: Cmd<Ev>) -> Result<(), Cmd<Ev>> {
        let mut queue = self.shared.queue.lock();
        if queue.closed {
            return Err(cmd);
        }
        queue.cmds.push_back(cmd);
        Ok(())
    }

    /// Eventfd writes made through this loop's injectors so far.
    #[cfg(test)]
    pub(crate) fn wakes(&self) -> u64 {
        self.shared.wakes.load(Ordering::Relaxed)
    }

    /// What the loop has done so far.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "read by the tests until a stats request scrapes it"
        )
    )]
    pub(crate) fn counts(&self) -> Counts {
        self.shared.counters.snapshot()
    }
}

/// The loop's connection table and write machinery, handed to handler
/// hooks. Split from the handler itself so hooks can mutate both.
pub(crate) struct Ctl {
    poller: Poller,
    conns: IdMap<Conn>,
    next_conn: u64,
    /// Connections with bytes enqueued this iteration, flushed
    /// together; `Conn::dirty` keeps each on the list once.
    dirty: Vec<u64>,
    /// Closes scheduled this iteration: (conn, reason, notify-handler).
    closing: Vec<(u64, CloseReason, bool)>,
    write_cap: usize,
    shutdown: bool,
    counters: Arc<Counters>,
}

impl Ctl {
    /// Registers an established stream with this loop and returns the
    /// connection's id; no handler hook fires for it. `None` if
    /// registration failed.
    pub(crate) fn adopt(&mut self, stream: TcpStream, tag: u64) -> Option<u64> {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return None;
        }
        let id = self.next_conn;
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if self.poller.add(stream.as_raw_fd(), id, interest).is_err() {
            return None;
        }
        self.next_conn += 1;
        let counters = Arc::clone(&self.counters);
        self.conns
            .insert(id, Conn::new(stream, tag, self.write_cap, counters));
        Some(id)
    }

    /// [`Ctl::adopt`] for a link its binding's handles write too: the
    /// socket is published on `half`, and this loop flushes the
    /// connection under `half`'s lock.
    pub(crate) fn adopt_shared(
        &mut self,
        stream: TcpStream,
        tag: u64,
        half: &Arc<WriteHalf>,
    ) -> Option<u64> {
        let id = self.adopt(stream, tag)?;
        self.conns.get_mut(&id)?.share_writes(half);
        Some(id)
    }

    /// Encodes `msg` as a frame straight onto `conn`'s write buffer.
    /// Unknown or closing connections drop the message — the semantics
    /// of an unreachable peer.
    pub(crate) fn send<T: Wire>(&mut self, conn: u64, msg: &T) {
        self.enqueue(conn, |buf| append_frame(msg, buf));
    }

    /// Copies pre-encoded frame bytes onto `conn`'s write buffer.
    pub(crate) fn send_frame(&mut self, conn: u64, frame: &[u8]) {
        self.enqueue(conn, |buf| buf.extend_from_slice(frame));
    }

    /// Appends one frame to `conn`'s write buffer, then sheds the
    /// connection if that took it past its write cap or puts it on the
    /// flush list.
    fn enqueue(&mut self, conn: u64, put: impl FnOnce(&mut Vec<u8>)) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.closing {
            return;
        }
        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        if !c.enqueue(put) {
            self.close_with(conn, CloseReason::Backpressure, true);
            return;
        }
        if !c.dirty {
            c.dirty = true;
            self.dirty.push(conn);
        }
    }

    /// Schedules `conn` for teardown at the end of this iteration,
    /// without an `on_close` callback (the handler asked for it).
    pub(crate) fn close(&mut self, conn: u64) {
        self.close_with(conn, CloseReason::Requested, false);
    }

    /// The tag `conn` was adopted with, if it is still open.
    pub(crate) fn tag_of(&self, conn: u64) -> Option<u64> {
        self.conns.get(&conn).filter(|c| !c.closing).map(|c| c.tag)
    }

    /// Schedules `conn` for teardown with an explicit reason;
    /// `notify` controls whether [`Handler::on_close`] fires for it.
    pub(crate) fn close_with(&mut self, conn: u64, reason: CloseReason, notify: bool) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.closing {
            return;
        }
        c.closing = true;
        self.closing.push((conn, reason, notify));
    }
}

/// Spawns one reactor loop named `name` running `handler`, optionally
/// owning `listener`. Returns the loop's injector and join handle.
pub(crate) fn spawn_loop<H: Handler>(
    name: &str,
    handler: H,
    listener: Option<TcpListener>,
    write_cap: usize,
) -> io::Result<(Injector<H::Ev>, std::thread::JoinHandle<()>)> {
    let poller = Poller::new()?;
    let wake = WakeFd::new()?;
    poller.add(wake.raw(), TOKEN_WAKE, EPOLLIN)?;
    if let Some(l) = &listener {
        l.set_nonblocking(true)?;
        poller.add(l.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLET)?;
    }
    let counters = Arc::new(Counters::default());
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            cmds: VecDeque::new(),
            closed: false,
        }),
        wake,
        counters: Arc::clone(&counters),
        wake_pending: AtomicBool::new(false),
        quiet_pending: AtomicBool::new(false),
        #[cfg(test)]
        wakes: std::sync::atomic::AtomicU64::new(0),
    });
    let injector = Injector {
        shared: Arc::clone(&shared),
    };
    let ctl = Ctl {
        poller,
        conns: IdMap::default(),
        next_conn: 0,
        dirty: Vec::new(),
        closing: Vec::new(),
        write_cap,
        shutdown: false,
        counters,
    };
    let mut lp = Loop {
        ctl,
        handler,
        listener,
        shared,
        events: Vec::new(),
        rest: Vec::new(),
    };
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || lp.run())?;
    Ok((injector, join))
}

struct Loop<H: Handler> {
    ctl: Ctl,
    handler: H,
    listener: Option<TcpListener>,
    shared: Arc<Shared<H::Ev>>,
    events: Vec<EpollEvent>,
    /// The batch's events that are not answers, dispatched after them.
    rest: Vec<EpollEvent>,
}

impl<H: Handler> Loop<H> {
    fn run(&mut self) {
        LOOP_HERE.set(Arc::as_ptr(&self.shared) as usize);
        while !self.ctl.shutdown {
            // Never park on a quiet push: what a hook of the last
            // iteration injected runs, and is flushed, here.
            if self.take_quiet() {
                self.drain_cmds();
                self.settle();
                if self.ctl.shutdown {
                    break;
                }
            }
            // A hook of that drain may have pushed again: poll the
            // sockets before going back to the queue, but do not park.
            let timeout = if self.shared.quiet_pending.load(Ordering::SeqCst) {
                Some(Duration::ZERO)
            } else {
                self.handler.next_deadline().map(|at| {
                    at.checked_duration_since(Instant::now())
                        .unwrap_or(Duration::ZERO)
                })
            };
            let mut events = std::mem::take(&mut self.events);
            if self.ctl.poller.wait(&mut events, timeout).is_err() {
                // EBADF and friends mean the poller itself is broken;
                // there is nothing useful left to serve.
                break;
            }
            self.ctl.counters.waits.fetch_add(1, Ordering::Relaxed);
            // Answers first (module docs): each event is sorted once, as
            // it comes up, and the rest keep their epoll order.
            let mut rest = std::mem::take(&mut self.rest);
            for &ev in &events {
                if self.answers(ev.data) {
                    self.ready(ev);
                } else {
                    rest.push(ev);
                }
            }
            for ev in rest.drain(..) {
                self.ready(ev);
            }
            self.rest = rest;
            self.events = events;
            self.settle();
            if let Some(at) = self.handler.next_deadline() {
                if Instant::now() >= at {
                    self.handler.on_tick(&mut self.ctl);
                    self.settle();
                }
            }
        }
        // Close the queue, then hand the handler what was still on it
        // (an event may carry something a caller waits on) and let it
        // fail everything pending: from here on senders get their
        // commands back.
        let leftover = {
            let mut queue = self.shared.queue.lock();
            queue.closed = true;
            std::mem::take(&mut queue.cmds)
        };
        for cmd in leftover {
            if let Cmd::Ev(ev) = cmd {
                self.handler.on_event(&mut self.ctl, ev);
            }
        }
        self.handler.on_shutdown();
        // Drop every connection outright (in-flight frames are lost —
        // to the peers this is a crash, which is what the failover
        // machinery is tested against).
        for (_, c) in self.ctl.conns.drain() {
            self.ctl.poller.del(c.stream.as_raw_fd());
        }
    }

    /// Whether `token` is a connection the handler reads answers on.
    fn answers(&self, token: u64) -> bool {
        let conn = self.ctl.conns.get(&token);
        conn.is_some_and(|c| self.handler.answers(c.tag))
    }

    /// Handles one readiness record of the batch.
    fn ready(&mut self, ev: EpollEvent) {
        if self.ctl.shutdown {
            return;
        }
        match ev.data {
            TOKEN_WAKE => {
                // Order matters: see `Shared::wake_pending`.
                self.shared.wake.drain();
                self.shared.wake_pending.store(false, Ordering::SeqCst);
                self.drain_cmds();
            }
            TOKEN_LISTENER => self.accept_burst(),
            conn => self.conn_ready(conn, ev.events),
        }
    }

    /// Whether commands were pushed quietly since the last look; the
    /// caller drains the queue next. A plain load on the common path:
    /// server loops run this once an iteration and once a read, and
    /// never find it up.
    fn take_quiet(&self) -> bool {
        let quiet = &self.shared.quiet_pending;
        quiet.load(Ordering::SeqCst) && quiet.swap(false, Ordering::SeqCst)
    }

    fn drain_cmds(&mut self) {
        loop {
            let Some(cmd) = self.shared.queue.lock().cmds.pop_front() else {
                break;
            };
            match cmd {
                Cmd::Ev(ev) => self.handler.on_event(&mut self.ctl, ev),
                Cmd::Shutdown => {
                    self.ctl.shutdown = true;
                    return;
                }
            }
            self.reap_closed();
        }
    }

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.handler.on_accept(&mut self.ctl, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept errors (ECONNABORTED
                // etc.): skip the connection, keep the listener.
                Err(_) => {}
            }
            if self.ctl.shutdown {
                return;
            }
        }
    }

    fn conn_ready(&mut self, conn: u64, bits: u32) {
        let hup = bits & (EPOLLERR | EPOLLHUP) != 0;
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 || hup {
            let step = match self.ctl.conns.get_mut(&conn) {
                Some(c) if !c.closing => c.drain_read(),
                _ => return,
            };
            // Queue before frames: whoever pushed a command quietly and
            // then wrote the request these bytes answer, pushed first.
            if self.take_quiet() {
                self.drain_cmds();
            }
            self.dispatch_frames(conn);
            match step {
                ReadStep::Progress if !hup => {}
                ReadStep::Progress => self.ctl.close_with(conn, CloseReason::Io, true),
                ReadStep::Closed(reason) => self.ctl.close_with(conn, reason, true),
            }
        }
        if bits & EPOLLOUT != 0 {
            self.flush_one(conn);
        }
    }

    /// Slices every complete frame out of `conn`'s buffer, dispatching
    /// each body to the handler. The buffer is taken out of the
    /// connection for the duration so the handler may freely use the
    /// connection table (send, close, adopt) mid-dispatch.
    fn dispatch_frames(&mut self, conn: u64) {
        let Some(c) = self.ctl.conns.get_mut(&conn) else {
            return;
        };
        let (buf, filled) = c.take_read_buf();
        let received = buf.get(..filled).unwrap_or(&buf);
        let mut pos = 0;
        loop {
            match extract_frame(received, pos) {
                Extract::NeedMore => break,
                Extract::Bad => {
                    self.ctl.close_with(conn, CloseReason::Garbage, true);
                    break;
                }
                Extract::Frame {
                    body_start,
                    body_end,
                } => {
                    if let Some(body) = received.get(body_start..body_end) {
                        self.ctl.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                        self.handler.on_frame(&mut self.ctl, conn, body);
                    }
                    pos = body_end;
                }
            }
            let still_open = self.ctl.conns.get(&conn).is_some_and(|c| !c.closing);
            if !still_open {
                break;
            }
        }
        if let Some(c) = self.ctl.conns.get_mut(&conn) {
            c.restore_read_buf(buf, filled, pos);
        }
    }

    fn flush_one(&mut self, conn: u64) {
        let Some(c) = self.ctl.conns.get_mut(&conn) else {
            return;
        };
        if c.closing || !c.has_pending_writes() {
            return;
        }
        if c.flush().is_err() {
            self.ctl.close_with(conn, CloseReason::Io, true);
        }
    }

    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.ctl.dirty);
        for conn in dirty.drain(..) {
            if let Some(c) = self.ctl.conns.get_mut(&conn) {
                c.dirty = false;
            }
            self.flush_one(conn);
        }
        self.ctl.dirty = dirty;
    }

    /// Tears down every connection scheduled for close, notifying the
    /// handler for remote-initiated ones.
    fn reap_closed(&mut self) {
        while let Some((conn, reason, notify)) = self.ctl.closing.pop() {
            let Some(c) = self.ctl.conns.remove(&conn) else {
                continue;
            };
            self.ctl.poller.del(c.stream.as_raw_fd());
            let tag = c.tag;
            drop(c);
            if notify {
                self.handler.on_close(&mut self.ctl, conn, tag, reason);
            }
        }
    }

    /// Runs close/flush rounds until quiescent, so frames produced by
    /// `on_close` hooks still go out within this iteration.
    fn settle(&mut self) {
        loop {
            if !self.ctl.closing.is_empty() {
                self.reap_closed();
                continue;
            }
            if !self.ctl.dirty.is_empty() {
                self.flush_dirty();
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, read_frame};
    use crate::wire::NetMsg;
    use quorumstore::{Msg, OpId};
    use simnet::NodeId;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{self, Sender};
    use std::sync::Barrier;

    /// Counts injected events.
    struct Probe {
        events: Arc<AtomicUsize>,
    }

    impl Handler for Probe {
        type Ev = ();

        fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {}
        fn on_frame(&mut self, _ctl: &mut Ctl, _conn: u64, _body: &[u8]) {}
        fn on_close(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64, _reason: CloseReason) {}
        fn on_event(&mut self, _ctl: &mut Ctl, _ev: ()) {
            self.events.fetch_add(1, Ordering::SeqCst);
        }
        fn on_tick(&mut self, _ctl: &mut Ctl) {}
        fn next_deadline(&mut self) -> Option<Instant> {
            None
        }
    }

    /// Spins until the loop has handled `want` events; a command left
    /// in the queue with the loop parked never gets there.
    fn await_events(events: &AtomicUsize, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while events.load(Ordering::SeqCst) < want {
            assert!(
                Instant::now() < deadline,
                "loop parked with {} of {want} commands delivered",
                events.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn coalesced_wakes_strand_no_command() {
        const THREADS: usize = 4;
        const SENDS: usize = 6;
        const ROUNDS: usize = 3000;
        let events = Arc::new(AtomicUsize::new(0));
        let probe = Probe {
            events: Arc::clone(&events),
        };
        let (inj, join) = spawn_loop("icg-test-loop", probe, None, DEFAULT_WRITE_CAP).unwrap();
        // Short bursts, many times over: the command at risk is the one
        // pushed while the loop finishes a drain, and every round ends
        // with one. Senders start each round together; the round is over
        // only when the loop has handled all of it, so a command left
        // behind with the flag still up has nobody to rescue it.
        let start = Barrier::new(THREADS + 1);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        start.wait();
                        for _ in 0..SENDS {
                            inj.send(Cmd::Ev(()));
                        }
                    }
                });
            }
            for round in 1..=ROUNDS {
                start.wait();
                await_events(&events, round * THREADS * SENDS);
            }
        });
        assert_eq!(events.load(Ordering::SeqCst), ROUNDS * THREADS * SENDS);
        inj.send(Cmd::Shutdown);
        join.join().unwrap();
    }

    /// Counts the events it runs; a `true` makes it inject two `false`s
    /// into its own loop from inside the hook, the way a callback of a
    /// preliminary view issues the dependent reads.
    struct Relay {
        own: Arc<std::sync::OnceLock<Injector<bool>>>,
        ran: Arc<AtomicUsize>,
    }

    impl Handler for Relay {
        type Ev = bool;

        fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {}
        fn on_frame(&mut self, _ctl: &mut Ctl, _conn: u64, _body: &[u8]) {}
        fn on_close(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64, _reason: CloseReason) {}
        fn on_event(&mut self, _ctl: &mut Ctl, relay: bool) {
            if relay {
                let own = self.own.get().expect("set before the first send");
                own.send(Cmd::Ev(false));
                own.send(Cmd::Ev(false));
            }
            self.ran.fetch_add(1, Ordering::SeqCst);
        }
        fn on_tick(&mut self, _ctl: &mut Ctl) {}
        fn next_deadline(&mut self) -> Option<Instant> {
            None
        }
    }

    #[test]
    fn sends_from_the_loop_thread_run_before_it_parks_without_a_wake() {
        const ROUNDS: usize = 1000;
        let own = Arc::new(std::sync::OnceLock::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let relay = Relay {
            own: Arc::clone(&own),
            ran: Arc::clone(&ran),
        };
        let (inj, join) = spawn_loop("icg-test-loop", relay, None, DEFAULT_WRITE_CAP).unwrap();
        assert!(own.set(inj.clone()).is_ok());
        // One round: the loop is parked (nothing deadlines it), one
        // command from here wakes it, its hook injects two more. Nobody
        // wakes the loop for those: they run because it does not park
        // on them — and every eventfd write is one of this thread's.
        for round in 1..=ROUNDS {
            inj.send(Cmd::Ev(true));
            await_events(&ran, round * 3);
        }
        assert!(
            inj.wakes() <= ROUNDS as u64,
            "{} eventfd writes for {ROUNDS} cross-thread sends",
            inj.wakes()
        );
        inj.send(Cmd::Shutdown);
        join.join().unwrap();
    }

    /// Adopts every stream it is handed and piles 16 MiB onto it, then
    /// reports every close it hears about.
    struct Hose {
        closes: Sender<CloseReason>,
    }

    impl Handler for Hose {
        type Ev = TcpStream;

        fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {}
        fn on_frame(&mut self, _ctl: &mut Ctl, _conn: u64, _body: &[u8]) {}
        fn on_close(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64, reason: CloseReason) {
            let _ = self.closes.send(reason);
        }
        fn on_event(&mut self, ctl: &mut Ctl, stream: TcpStream) {
            let conn = ctl.adopt(stream, 0).expect("adopt");
            let mut frame = Vec::new();
            encode_frame(&answer(1), &mut frame);
            let frame = frame.repeat(1024);
            for _ in 0..(16 << 20) / frame.len() {
                ctl.send_frame(conn, &frame);
            }
        }
        fn on_tick(&mut self, _ctl: &mut Ctl) {}
        fn next_deadline(&mut self) -> Option<Instant> {
            None
        }
    }

    #[test]
    fn unwritten_bytes_past_the_cap_shed_with_backpressure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_far_never_reads, _) = listener.accept().unwrap();

        // 16 MiB for a peer that reads nothing, enqueued within one hook:
        // it piles up unwritten until it passes the 64 KiB cap.
        let (closes, closed) = mpsc::channel();
        let (inj, join) = spawn_loop("icg-test-loop", Hose { closes }, None, 64 * 1024).unwrap();
        inj.send(Cmd::Ev(near));
        let reason = closed
            .recv_timeout(Duration::from_secs(20))
            .expect("connection was never shed");
        assert_eq!(reason, CloseReason::Backpressure);
        inj.send(Cmd::Shutdown);
        join.join().unwrap();
    }

    /// Tags at or above this one name answer connections.
    const ANSWERS: u64 = 10;

    enum BatchEv {
        /// Adopt each stream with its tag, in order.
        Adopt(Vec<(TcpStream, u64)>),
        /// Say so on the first channel, then hold the loop until the
        /// second one speaks or hangs up.
        Stall(Sender<()>, mpsc::Receiver<()>),
    }

    /// Stands in for a coordinator. A frame on a request connection
    /// (tag below [`ANSWERS`]) is answered there with [`answer`]`(tag)`,
    /// like a preliminary view; a frame on an answer connection puts
    /// [`answer`]`(tag)` on the request connection tagged 0, like the
    /// final view a peer's answer completes. Logs each frame's
    /// tag with the bytes `watch` — request connection 0's far end, if
    /// given — has received by the time a later connection's frame is
    /// dispatched.
    struct Batch {
        first: Option<u64>,
        log: Sender<(u64, usize)>,
        watch: Option<TcpStream>,
    }

    impl Handler for Batch {
        type Ev = BatchEv;

        fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {}
        fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, _body: &[u8]) {
            let tag = ctl.tag_of(conn).expect("open connection");
            let watched = match &self.watch {
                Some(far) if tag != 0 => arrived(far, reply_len()),
                _ => 0,
            };
            let _ = self.log.send((tag, watched));
            let to = if tag >= ANSWERS {
                self.first
            } else {
                Some(conn)
            };
            ctl.send(to.expect("request 0 adopted"), &answer(tag));
        }
        fn on_close(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64, _reason: CloseReason) {}
        fn on_event(&mut self, ctl: &mut Ctl, ev: BatchEv) {
            match ev {
                BatchEv::Adopt(streams) => {
                    for (stream, tag) in streams {
                        let conn = ctl.adopt(stream, tag).expect("adopt");
                        if tag == 0 {
                            self.first = Some(conn);
                        }
                    }
                }
                BatchEv::Stall(stalled, release) => {
                    let _ = stalled.send(());
                    let _ = release.recv();
                }
            }
        }
        fn on_tick(&mut self, _ctl: &mut Ctl) {}
        fn next_deadline(&mut self) -> Option<Instant> {
            None
        }
        fn answers(&self, tag: u64) -> bool {
            tag >= ANSWERS
        }
    }

    /// What a [`Batch`] loop sends for a frame on the connection tagged
    /// `tag`.
    fn answer(tag: u64) -> NetMsg {
        let op = OpId {
            client: NodeId(tag as usize),
            seq: 0,
        };
        NetMsg::Store(Msg::WriteReply { op })
    }

    fn reply_len() -> usize {
        let mut frame = Vec::new();
        encode_frame(&answer(0), &mut frame);
        frame.len()
    }

    /// Bytes waiting on the non-blocking `s`, once there are `want` of
    /// them or two seconds have passed.
    fn arrived(s: &TcpStream, want: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut buf = vec![0; want];
        loop {
            let got = s.peek(&mut buf).unwrap_or(0);
            if got >= want || Instant::now() >= deadline {
                return got;
            }
            std::thread::yield_now();
        }
    }

    /// One batch of a [`Batch`] loop, run by [`one_batch`].
    struct Run {
        inj: Injector<BatchEv>,
        join: std::thread::JoinHandle<()>,
        /// The far end of each connection, in the order of the tags.
        fars: Vec<TcpStream>,
        /// The loop's counts before the batch.
        before: Counts,
        /// Each frame's tag, in dispatch order, and what the watched far
        /// end held by then.
        order: Vec<(u64, usize)>,
    }

    impl Run {
        fn stop(self) {
            self.inj.send(Cmd::Shutdown);
            self.join.join().unwrap();
        }
    }

    /// A `Batch` loop adopts a connection per tag, in order, and stalls;
    /// a frame is written to each in that order and has reached the
    /// loop's socket before the loop is let go, so its next `epoll_wait`
    /// returns them all in one batch.
    fn one_batch(tags: &[u64], watch_first: bool) -> Run {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut streams, mut fars, mut nears) = (Vec::new(), Vec::new(), Vec::new());
        for &tag in tags {
            let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (near, _) = listener.accept().unwrap();
            nears.push(near.try_clone().unwrap());
            streams.push((near, tag));
            fars.push(far);
        }
        let watch = watch_first.then(|| {
            let at = tags.iter().position(|&t| t == 0).unwrap();
            let far = fars[at].try_clone().unwrap();
            far.set_nonblocking(true).unwrap();
            far
        });
        let (log, logged) = mpsc::channel();
        let batch = Batch {
            first: None,
            log,
            watch,
        };
        let (inj, join) = spawn_loop("icg-test-loop", batch, None, DEFAULT_WRITE_CAP).unwrap();
        let (stalled, in_stall) = mpsc::channel();
        let (release, released) = mpsc::channel();
        inj.send(Cmd::Ev(BatchEv::Adopt(streams)));
        inj.send(Cmd::Ev(BatchEv::Stall(stalled, released)));
        in_stall.recv_timeout(Duration::from_secs(20)).unwrap();

        let mut frame = Vec::new();
        encode_frame(&answer(99), &mut frame);
        for (far, near) in fars.iter_mut().zip(&nears) {
            far.write_all(&frame).unwrap();
            // Adopted, so non-blocking: a peek never waits.
            assert_eq!(arrived(near, frame.len()), frame.len());
        }
        let before = inj.counts();
        release.send(()).unwrap();
        let order = (0..tags.len())
            .map(|_| logged.recv_timeout(Duration::from_secs(20)).unwrap())
            .collect();
        Run {
            inj,
            join,
            fars,
            before,
            order,
        }
    }

    fn tags(order: &[(u64, usize)]) -> Vec<u64> {
        order.iter().map(|&(tag, _)| tag).collect()
    }

    #[test]
    fn answers_are_dispatched_before_requests_whatever_their_arrival_order() {
        for arrival in [[0, ANSWERS], [ANSWERS, 0]] {
            let run = one_batch(&arrival, false);
            assert_eq!(tags(&run.order), [ANSWERS, 0], "arrival {arrival:?}");
            run.stop();
        }
    }

    #[test]
    fn a_request_connection_an_answer_adds_to_is_written_once_in_the_batch() {
        let mut run = one_batch(&[0, ANSWERS], false);
        let mut scratch = Vec::new();
        let got: Vec<NetMsg> = (0..2)
            .map(|_| read_frame(&mut run.fars[0], &mut scratch).unwrap().unwrap())
            .collect();
        let (before, after) = (run.before, run.inj.counts());
        assert_eq!(
            after.writes - before.writes,
            1,
            "socket writes in the batch: before {before:?}, after {after:?}"
        );
        assert_eq!(after.frames_in - before.frames_in, 2);
        assert_eq!(after.frames_out - before.frames_out, 2);
        // What the answer added, then the request's own reply.
        assert_eq!(got, [answer(ANSWERS), answer(0)]);
        run.stop();
    }

    #[test]
    fn a_request_connection_is_flushed_before_the_next_one_is_dispatched() {
        let run = one_batch(&[0, 1], true);
        assert_eq!(
            run.order,
            [(0, 0), (1, reply_len())],
            "request 0's reply must be on its socket when request 1 is dispatched"
        );
        run.stop();
    }
}
