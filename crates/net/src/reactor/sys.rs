//! Raw `epoll`/`eventfd` bindings and their minimal safe wrappers.
//!
//! The workspace builds fully offline, so there is no `libc` crate to
//! lean on; the four syscall entry points the reactor needs are declared
//! here directly against the C library that `std` already links on
//! every Linux target. Everything above this module is safe code: the
//! file descriptors live in [`OwnedFd`]/[`File`] so they close on drop,
//! and the `unsafe` blocks are confined to the FFI calls themselves.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Readable (or a pending accept on a listener).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable again after a short write.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition; always delivered, never registered.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup; always delivered, never registered.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: one event per readiness *transition*, so
/// the loop must drain to `WouldBlock` every time it is told.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event`. The kernel packs it on x86-64 (12 bytes, no
/// padding between `events` and `data`); other architectures use the
/// natural C layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The token the fd was registered with.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A safe handle on one epoll instance.
pub(crate) struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance (`CLOEXEC`).
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // an error, a non-negative one is a fresh fd this process owns.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by epoll_create1 and nothing
        // else holds it; OwnedFd takes over closing it.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd })
    }

    /// Registers `fd` with interest `events`, tagging readiness records
    /// with `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value for the duration of the
        // call; the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Removes `fd` from the interest set. Errors are ignored: the fd
    /// may already be gone (closing an fd deregisters it implicitly).
    pub(crate) fn del(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; a stale fd only makes the call fail.
        let _ = unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits for readiness, filling `events` (cleared first). `None`
    /// blocks indefinitely; a zero or sub-millisecond timeout polls.
    /// Returns the number of records, retrying transparently on EINTR.
    pub(crate) fn wait(
        &self,
        events: &mut Vec<EpollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        const CAP: usize = 256;
        events.clear();
        events.reserve(CAP);
        let ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 0.4 ms deadline doesn't spin at 0.
                let ms = d.as_millis();
                let ms = if d.subsec_nanos() % 1_000_000 != 0 {
                    ms + 1
                } else {
                    ms
                };
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let epfd = self.epfd.as_raw_fd();
        loop {
            // SAFETY: the spare capacity reserved above is valid for CAP
            // records; the kernel writes at most `maxevents` of them and
            // returns how many, which bounds the set_len below.
            let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), CAP as i32, ms) };
            if n >= 0 {
                // SAFETY: the kernel initialized exactly `n` records
                // (n <= CAP, which is reserved).
                unsafe { events.set_len(n as usize) };
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// A nonblocking `eventfd` used to kick an event loop out of
/// `epoll_wait` when another thread enqueues work for it.
pub(crate) struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Creates the eventfd (`CLOEXEC | NONBLOCK`).
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd takes no pointers; non-negative return is a
        // fresh fd this process owns.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by eventfd and nothing else
        // holds it; File takes over closing it.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(WakeFd { file })
    }

    /// The fd to register with a [`Poller`].
    pub(crate) fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Makes the fd readable, waking a blocked `epoll_wait`. Failure is
    /// ignored: `EAGAIN` means the counter is already nonzero, which is
    /// a wake-up already in flight.
    pub(crate) fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Consumes the pending wake-ups so the fd goes quiet until the
    /// next [`WakeFd::wake`]. One read returns and resets the whole
    /// counter; a wake that lands after it leaves the counter nonzero,
    /// and the poller, which watches this fd level-triggered, reports
    /// it again — so there is nothing to loop for.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn wakefd_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        poller.add(wake.raw(), 7, EPOLLIN).unwrap();
        let mut events = Vec::new();

        // Nothing pending: a short wait times out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);

        wake.wake();
        wake.wake();
        let n = poller.wait(&mut events, None).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);
        wake.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "one drain must leave the eventfd quiet");

        // What lets `drain` be a single read: the fd is watched
        // level-triggered, so a wake nobody has consumed yet — one that
        // raced the drain, say — is reported again by the next wait.
        wake.wake();
        for _ in 0..2 {
            let n = poller.wait(&mut events, None).unwrap();
            assert_eq!(n, 1, "an unconsumed wake must be re-reported");
        }
        wake.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_is_edge_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 1, EPOLLIN | EPOLLRDHUP | EPOLLET)
            .unwrap();

        use std::io::Write as _;
        (&client).write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        let (token, bits) = (events[0].data, events[0].events);
        assert_eq!(token, 1);
        assert_ne!(bits & EPOLLIN, 0);

        // Edge-triggered: without reading the byte, no *new* edge means
        // no second event.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "ET must not re-report an unconsumed edge");

        // Deadline-style timeouts return promptly.
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
