//! Minimal `extern "C"` bindings for the readiness syscalls the reactor
//! needs: `poll(2)`, `epoll(7)`, `fcntl(2)` and `pipe(2)` — Linux only, no
//! external crate (the workspace has no registry access, and vendoring all
//! of libc for a handful of syscalls would be absurd).
//!
//! Everything `unsafe` in `snn-net` lives in this module, behind safe
//! wrappers:
//!
//! * [`poll_fds`] — block until any registered descriptor is ready (or a
//!   timeout); the scalar O(n) readiness call, kept as the portable
//!   fallback backend.
//! * [`Epoll`] — an `epoll(7)` instance: the kernel keeps the interest
//!   set ([`Epoll::add`] / [`Epoll::modify`] / [`Epoll::delete`]) and a
//!   wait returns only ready descriptors, so it is O(ready), not
//!   O(registered).  Delivery is level-triggered, like `poll(2)`.  The
//!   scale-out backend; see [`crate::poller::Poller`] for the
//!   backend-neutral wrapper the reactor actually drives.
//! * [`WakePipe`] — a non-blocking self-pipe: any thread calls
//!   [`WakePipe::wake`] to make a `poll`/`epoll_wait` that watches the
//!   read end return immediately.  This is how the serving dispatcher
//!   hands completions to a parked reactor.
//! * [`set_nonblocking`] — `fcntl(F_SETFL, O_NONBLOCK)` on a raw fd
//!   (std covers sockets; the pipe ends need it done by hand).
//!
//! The constants are the Linux generic ABI values (asm-generic), which is
//! the only platform this workspace targets (see CI).

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::io;
use std::os::raw::{c_int, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `poll(2)` event: readable (or a peer hang-up made `read` return 0).
pub const POLLIN: i16 = 0x001;
/// `poll(2)` event: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// `poll(2)` revent: error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// `poll(2)` revent: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// `poll(2)` revent: the descriptor is not open.
pub const POLLNVAL: i16 = 0x020;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;
const EINTR: i32 = 4;

/// One registered descriptor of a [`poll_fds`] call — ABI-identical to the
/// kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch (negative entries are ignored by the
    /// kernel, which is how unused slots are masked without reshuffling).
    pub fd: RawFd,
    /// Requested events (bitwise OR of [`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events, filled by the kernel ([`POLLERR`], [`POLLHUP`] and
    /// [`POLLNVAL`] may appear even when not requested).
    pub revents: i16,
}

impl PollFd {
    /// A slot watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported any of `mask` on this slot.
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel reported an error-like condition — the
    /// connection should be torn down.
    pub fn is_error(&self) -> bool {
        self.has(POLLERR | POLLNVAL)
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

// --------------------------------------------------------------------------
// epoll(7)
// --------------------------------------------------------------------------

/// `epoll` event: readable (or a peer hang-up made `read` return 0).
pub const EPOLLIN: u32 = 0x001;
/// `epoll` event: writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll` revent: error condition on the descriptor.
pub const EPOLLERR: u32 = 0x008;
/// `epoll` revent: peer hung up (both directions).
pub const EPOLLHUP: u32 = 0x010;
/// `epoll` event: the peer half-closed its sending side (stream sockets).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// One `epoll` event record — ABI-identical to the kernel's
/// `struct epoll_event`, which is packed on x86-64 (12 bytes) and
/// naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Requested/returned event mask (bitwise OR of `EPOLL*`).
    pub events: u32,
    /// Caller-chosen cookie echoed back verbatim — the reactor stores its
    /// connection token here.
    pub data: u64,
}

// The kernel ABI, pinned: a layout that drifts from `struct epoll_event`
// must fail the build, not corrupt the buffers `epoll_wait` fills.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(std::mem::size_of::<EpollEvent>() == 12);
#[cfg(all(not(target_arch = "x86_64"), target_pointer_width = "64"))]
const _: () = assert!(std::mem::size_of::<EpollEvent>() == 16);
#[cfg(not(target_pointer_width = "64"))]
compile_error!("the epoll_event layout is pinned only for 64-bit targets");

impl EpollEvent {
    /// An empty (zeroed) record, for `epoll_wait` output buffers.
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

/// An `epoll(7)` instance: the scale-out readiness backend.
///
/// The kernel holds each descriptor's event mask between waits; unlike
/// [`poll_fds`] there is no per-wait interest rebuild, and
/// [`Epoll::wait`] returns only ready descriptors, in O(ready) time.
/// Delivery is level-triggered: readiness that is not consumed is
/// reported again by the next wait.  `EPOLLHUP` and `EPOLLERR` are
/// reported whatever the mask, so silencing a descriptor takes
/// [`Epoll::delete`].
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1(2)` failures (descriptor exhaustion,
    /// or a kernel without epoll — the caller falls back to `poll`).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a failure is -1/errno.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live, exclusively borrowed repr(C) record;
        // the kernel reads it for ADD/MOD and ignores it for DEL.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given `EPOLL*` event mask and cookie.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl(2)` failures (`EBADF` closed fd, `EEXIST`
    /// double registration, `ENOSPC` watch limit).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Rewrites the event mask/cookie of an already registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl(2)` failures (`ENOENT` unregistered fd).
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Unregisters `fd`.  Closing a descriptor unregisters it implicitly;
    /// this is for descriptors that stay open but must fall silent (a
    /// muted connection, the listener during shutdown).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl(2)` failures (`ENOENT` unregistered fd).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until a registered descriptor is ready, the timeout
    /// elapses, or a signal interrupts.  Fills `events` from the front and
    /// returns how many records were written (`0` for timeout; `EINTR` is
    /// reported as `0` so callers treat it as a spurious wake and
    /// re-loop, exactly like [`poll_fds`]).  A full buffer is not lossy:
    /// undelivered ready-list entries are reported by the next wait.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait(2)` failures other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        if crate::fault::poll_spurious_wake() {
            // Injected delayed readiness / EINTR: report a spurious
            // timeout without consulting the kernel; callers re-loop.
            return Ok(0);
        }
        if events.is_empty() {
            return Ok(0);
        }
        // Same rounding contract as `poll_fds`: a nonzero sub-millisecond
        // timeout must sleep ~1 ms, not busy-spin.
        let mut millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
        if millis == 0 && !timeout.is_zero() {
            millis = 1;
        }
        // SAFETY: `events` is a valid, exclusively borrowed slice of
        // repr(C) records; the kernel writes at most `events.len()` of
        // them.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, millis) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINTR) {
            return Ok(0);
        }
        Err(err)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closes the fd this struct exclusively owns, once.
        unsafe {
            close(self.fd);
        }
    }
}

/// Blocks until at least one slot in `fds` has a ready event, the timeout
/// elapses, or a signal interrupts.  Returns how many slots have non-zero
/// `revents` (`0` for timeout; an `EINTR` is reported as `0` so callers
/// treat it as a spurious wake and re-loop).
///
/// # Errors
///
/// Propagates `poll(2)` failures other than `EINTR` (`EINVAL` for too many
/// descriptors, `ENOMEM`).
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    #[cfg(feature = "fault-injection")]
    if crate::fault::poll_spurious_wake() {
        // Injected delayed readiness / EINTR: report a spurious timeout
        // without consulting the kernel; callers re-loop.
        return Ok(0);
    }
    // Round a nonzero timeout *up* to at least 1 ms: `as_millis` truncates,
    // so a sub-millisecond duration would become 0 and turn every poll
    // into a busy-spin.
    let mut millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
    if millis == 0 && !timeout.is_zero() {
        millis = 1;
    }
    // SAFETY: `fds` is a valid, exclusively borrowed slice of repr(C)
    // pollfd records; the kernel writes only within `fds.len()` entries.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINTR) {
        return Ok(0);
    }
    Err(err)
}

/// Switches a raw descriptor to non-blocking mode via
/// `fcntl(F_GETFL/F_SETFL)`.
///
/// # Errors
///
/// Propagates `fcntl(2)` failures (`EBADF` for a closed descriptor).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with GETFL/SETFL only reads/updates the file status
    // flags of `fd`; an invalid fd yields -1/EBADF, not UB.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: as above — SETFL only rewrites the status flags of `fd`,
    // and the variadic argument is the `int` that F_SETFL expects.
    let rc = unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A self-pipe that wakes a reactor parked in [`poll_fds`].
///
/// Both ends are non-blocking.  [`WakePipe::wake`] writes one byte (from
/// any thread — the write end is never closed while the pipe lives);
/// the reactor registers [`WakePipe::read_fd`] with `POLLIN` and calls
/// [`WakePipe::drain`] after every wake.  A full pipe is not an error:
/// the reader is already guaranteed to wake, which is the only contract.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY-free: raw fds are plain integers; the kernel serialises pipe
// reads/writes, and wake/drain never touch shared Rust state.
impl WakePipe {
    /// Creates the pipe with both ends non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates `pipe(2)`/`fcntl(2)` failures (descriptor exhaustion).
    pub fn new() -> io::Result<Self> {
        let mut fds = [-1 as c_int; 2];
        // SAFETY: `fds` is a valid 2-slot buffer, exactly what pipe(2)
        // writes.
        let rc = unsafe { pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let this = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(this.read_fd)?;
        set_nonblocking(this.write_fd)?;
        Ok(this)
    }

    /// The end a reactor registers with [`POLLIN`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes any in-flight or future [`poll_fds`] on the read end return.
    /// Never blocks: when the pipe buffer is full the wake is already
    /// pending, so the failed write is deliberately ignored.
    pub fn wake(&self) {
        #[cfg(feature = "fault-injection")]
        if crate::fault::drop_wake_byte() {
            // Injected lost wake: safe to drop because the reactor drains
            // its completion channel unconditionally every round and the
            // poll interval bounds the sleep — the byte is an accelerant,
            // not a correctness requirement (chaos.rs pins this).
            return;
        }
        let byte = [1u8];
        // SAFETY: writes one byte from a live stack buffer to an fd this
        // struct owns; O_NONBLOCK turns a full pipe into EAGAIN.
        let _ = unsafe { write(self.write_fd, byte.as_ptr() as *const c_void, 1) };
    }

    /// Empties the pipe so the next [`poll_fds`] blocks again.  Coalesced
    /// wakes are expected: callers must re-check *all* wake sources after
    /// draining, not count bytes.
    ///
    /// Slurps *all* pending bytes per readiness event: under a completion
    /// storm every settled inference writes a wake byte, and a pipe holds
    /// 64 KiB of them — the sink must be large enough that one drain is a
    /// handful of `read(2)`s, not thousands (a 64-byte sink once meant a
    /// 10 k-completion storm cost ~160 syscalls per poll round).  A pipe
    /// read returns everything pending up to the sink's length, so a short
    /// read has emptied the pipe and ends the drain: the usual wake of a
    /// few bytes costs one `read(2)`, not a second one that only reports
    /// `EAGAIN`.  A byte written after that read leaves the level-triggered
    /// read end readable, so the next poll reports it.
    pub fn drain(&self) {
        let mut sink = [0u8; 4096];
        loop {
            // SAFETY: reads into a live stack buffer from an owned fd;
            // an empty non-blocking pipe returns -1/EAGAIN which ends the
            // loop, as does EOF.
            let n = unsafe { read(self.read_fd, sink.as_mut_ptr() as *mut c_void, sink.len()) };
            if n < sink.len() as isize {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closes the two fds this struct exclusively owns, once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_wakes_a_poll_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        // Nothing pending: a short poll times out.
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
        pipe.wake();
        let ready = poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].has(POLLIN));
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_unblocks_poll() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = std::sync::Arc::clone(&pipe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, Duration::from_secs(10)).unwrap();
        assert_eq!(ready, 1, "the cross-thread wake must end the poll");
        handle.join().unwrap();
    }

    #[test]
    fn repeated_wakes_never_block_even_with_a_full_pipe() {
        let pipe = WakePipe::new().unwrap();
        // A pipe buffer is 64 KiB by default; far overshoot it.
        for _ in 0..100_000 {
            pipe.wake();
        }
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn a_flood_of_wakes_drains_in_one_readiness_event() {
        // Regression: 10 k completions each write one wake byte before the
        // reactor gets scheduled.  One drain per readiness event must slurp
        // the whole backlog — afterwards the pipe is empty (poll times out)
        // and a single fresh wake still gets through.
        let pipe = WakePipe::new().unwrap();
        for _ in 0..10_000 {
            pipe.wake();
        }
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].has(POLLIN));
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(
            poll_fds(&mut fds, Duration::from_millis(10)).unwrap(),
            0,
            "one drain call must consume the entire 10k-byte backlog"
        );
        // The pipe still works after the flood: wake, poll, drain, quiet.
        pipe.wake();
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn a_full_sink_of_pending_wakes_still_drains_to_empty() {
        // Exactly one sink's worth pending: the first read fills the sink,
        // so the drain must read again (and find nothing) rather than stop.
        let pipe = WakePipe::new().unwrap();
        for _ in 0..4096 {
            pipe.wake();
        }
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(
            poll_fds(&mut fds, Duration::from_millis(10)).unwrap(),
            0,
            "4096 pending bytes must all be drained"
        );
    }

    #[test]
    fn negative_fds_are_ignored_slots() {
        let pipe = WakePipe::new().unwrap();
        pipe.wake();
        let mut fds = [PollFd::new(-1, POLLIN), PollFd::new(pipe.read_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(ready, 1);
        assert!(!fds[0].has(POLLIN));
        assert!(fds[1].has(POLLIN));
    }

    #[test]
    fn set_nonblocking_rejects_a_closed_fd() {
        // fd -1 is never valid.
        assert!(set_nonblocking(-1).is_err());
    }

    // ---- epoll wrapper: mirrors of the poll_fds suite ------------------

    fn wait_one(ep: &Epoll, timeout: Duration) -> Vec<EpollEvent> {
        let mut buf = [EpollEvent::zeroed(); 8];
        let n = ep.wait(&mut buf, timeout).unwrap();
        buf[..n].to_vec()
    }

    #[test]
    fn epoll_wake_pipe_wakes_a_wait_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 7).unwrap();
        // Nothing pending: a short wait times out.
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
        pipe.wake();
        let events = wait_one(&ep, Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!({ events[0].data }, 7, "the cookie round-trips");
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn epoll_wake_from_another_thread_unblocks_wait() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 1).unwrap();
        let waker = std::sync::Arc::clone(&pipe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let events = wait_one(&ep, Duration::from_secs(10));
        assert_eq!(events.len(), 1, "the cross-thread wake must end the wait");
        handle.join().unwrap();
    }

    #[test]
    fn epoll_flood_of_wakes_drains_in_one_readiness_event() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 1).unwrap();
        for _ in 0..10_000 {
            pipe.wake();
        }
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
        // The pipe still works after the flood: wake, wait, drain, quiet.
        pipe.wake();
        assert_eq!(wait_one(&ep, Duration::from_secs(5)).len(), 1);
        pipe.drain();
        assert!(wait_one(&ep, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn epoll_rejects_a_closed_fd_and_double_registration() {
        let ep = Epoll::new().unwrap();
        assert!(ep.add(-1, EPOLLIN, 0).is_err(), "EBADF surfaces");
        let pipe = WakePipe::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 1).unwrap();
        assert!(
            ep.add(pipe.read_fd(), EPOLLIN, 2).is_err(),
            "EEXIST surfaces"
        );
        ep.delete(pipe.read_fd()).unwrap();
        assert!(ep.delete(pipe.read_fd()).is_err(), "ENOENT surfaces");
        // Re-registration after delete works, and modify rewrites the
        // cookie.
        ep.add(pipe.read_fd(), EPOLLIN, 3).unwrap();
        ep.modify(pipe.read_fd(), EPOLLIN, 4).unwrap();
        pipe.wake();
        let events = wait_one(&ep, Duration::from_secs(5));
        assert_eq!({ events[0].data }, 4);
    }

    #[test]
    fn epoll_submillisecond_timeouts_round_up_instead_of_busy_spinning() {
        let pipe = WakePipe::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(pipe.read_fd(), EPOLLIN, 1).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..20 {
            assert!(wait_one(&ep, Duration::from_micros(100)).is_empty());
        }
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "20 sub-ms waits finished in {:?}: the timeout truncated to 0",
            start.elapsed()
        );
        // A genuinely zero timeout still returns immediately.
        let start = std::time::Instant::now();
        for _ in 0..100 {
            wait_one(&ep, Duration::ZERO);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn submillisecond_timeouts_round_up_instead_of_busy_spinning() {
        // A nonzero timeout below 1 ms used to truncate to a zero-timeout
        // poll; with nothing ready the call must now take at least ~1 ms
        // (the rounded-up kernel timeout), not return instantly.  One
        // iteration could be unlucky on a loaded host, so require only
        // that the *sum* of many polls shows real sleeping.
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        let start = std::time::Instant::now();
        for _ in 0..20 {
            fds[0].revents = 0;
            assert_eq!(poll_fds(&mut fds, Duration::from_micros(100)).unwrap(), 0);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "20 sub-ms polls finished in {:?}: the timeout truncated to 0",
            start.elapsed()
        );
        // A genuinely zero timeout still returns immediately.
        let start = std::time::Instant::now();
        for _ in 0..100 {
            fds[0].revents = 0;
            poll_fds(&mut fds, Duration::ZERO).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
