//! The backend-neutral readiness wrapper the reactor drives: one
//! [`Poller`] per reactor, backed by either **epoll** (the default —
//! O(ready) waits, the kernel keeps the interest set) or the scalar
//! **`poll(2)`** fallback (O(registered) waits, the `pollfd` array rebuilt
//! per call).
//!
//! Backend selection ([`ReactorBackend`]):
//!
//! * `SNN_REACTOR=poll` forces the scalar fallback; `SNN_REACTOR=epoll`
//!   requests epoll explicitly (still falling back if `epoll_create1`
//!   fails — an exotic kernel should degrade, not crash the bind).
//! * Unset, the default is epoll with the same graceful fallback.
//!
//! Both backends give the reactor **one contract**.  Delivery is
//! level-triggered: readiness that is not consumed is reported again by
//! the next wait, so a consumer may stop reading early (the read-burst
//! fairness cap) and lose nothing.  [`Poller::set_interest`] takes effect
//! on both: the poller keeps one `token → (fd, Interest)` map, which the
//! poll backend rebuilds its `pollfd` array from and the epoll backend
//! mirrors into the kernel with one `epoll_ctl` per actual change.
//! [`Interest::NONE`] silences a descriptor completely — hang-ups and
//! errors included — without forgetting its registration.

use crate::sys::{
    poll_fds, Epoll, EpollEvent, PollFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    POLLHUP, POLLIN, POLLOUT,
};
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness backend the reactor runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorBackend {
    /// Consult `SNN_REACTOR` (`poll` / `epoll`), default to epoll, and
    /// fall back to `poll` when `epoll_create1` fails.
    #[default]
    Auto,
    /// Level-triggered `epoll(7)` (still degrades to `poll` if the kernel
    /// refuses an instance).
    Epoll,
    /// Scalar level-triggered `poll(2)`.
    Poll,
}

impl ReactorBackend {
    /// Parses an `SNN_REACTOR` value; unknown strings mean [`Auto`].
    ///
    /// [`Auto`]: ReactorBackend::Auto
    pub fn from_env_str(value: &str) -> ReactorBackend {
        match value.trim().to_ascii_lowercase().as_str() {
            "poll" => ReactorBackend::Poll,
            "epoll" => ReactorBackend::Epoll,
            _ => ReactorBackend::Auto,
        }
    }

    fn resolve(self) -> ReactorBackend {
        match self {
            ReactorBackend::Auto => match std::env::var("SNN_REACTOR") {
                Ok(value) => match ReactorBackend::from_env_str(&value) {
                    // An unknown env value keeps the default rather than
                    // recursing.
                    ReactorBackend::Auto => ReactorBackend::Epoll,
                    chosen => chosen,
                },
                Err(_) => ReactorBackend::Epoll,
            },
            chosen => chosen,
        }
    }
}

/// What a descriptor's owner wants to hear about.  Both backends honour
/// changes from the next wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when reading would not block (or the peer hung up).
    pub readable: bool,
    /// Report when writing would not block.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (listener, wake pipe).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// No interest: the descriptor stays registered but silent, hang-ups
    /// and errors included.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    /// The epoll mask of this interest: `EPOLLOUT` only while writes are
    /// wanted, and the peer's half-close reported with reads.
    fn epoll_mask(self) -> u32 {
        let mut mask = 0;
        if self.readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness report, token-keyed.  A peer hang-up surfaces as both
/// readable and writable (match the historical `poll` reactor dispatch:
/// HUP flushes what it can, then reads the EOF); `error` means the
/// descriptor should be torn down.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The cookie the descriptor was registered under.
    pub token: u64,
    /// Reading would not block (includes hang-ups: the EOF is readable).
    pub readable: bool,
    /// Writing would not block (includes hang-ups: the flush will fail
    /// fast and report the death).
    pub writable: bool,
    /// Error condition — tear the descriptor down.
    pub error: bool,
}

enum Backend {
    Poll {
        /// The `pollfd` array and the token of each entry, rebuilt from
        /// the slot map on every wait into storage reused across waits.
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    },
    Epoll {
        /// Holds exactly the slots whose interest is not
        /// [`Interest::NONE`], each with that interest's mask.
        ep: Epoll,
        /// `epoll_wait` output buffer, reused across waits.  Sized well
        /// above the default connection cap; a full buffer is not
        /// lossy anyway (undelivered entries re-report next wait).
        buf: Vec<EpollEvent>,
    },
}

/// A unified readiness selector: register/deregister descriptors under
/// `u64` tokens, set their interest, wait for [`Event`]s.  See the module
/// docs for the one contract both backends keep.
pub struct Poller {
    /// token → (fd, current interest), the registration record of both
    /// backends.
    slots: HashMap<u64, (RawFd, Interest)>,
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.backend_name())
            .finish_non_exhaustive()
    }
}

const EPOLL_WAIT_CAPACITY: usize = 1024;

impl Poller {
    /// Creates a poller on the requested backend, applying the
    /// `SNN_REACTOR` override and the epoll→poll fallback described in
    /// the module docs.  Infallible: the poll backend needs no kernel
    /// resources at construction.
    pub fn new(backend: ReactorBackend) -> Poller {
        let poll = || Backend::Poll {
            fds: Vec::new(),
            tokens: Vec::new(),
        };
        let backend = match backend.resolve() {
            ReactorBackend::Poll => poll(),
            // Auto has been resolved away; Epoll degrades on failure.
            _ => match Epoll::new() {
                Ok(ep) => Backend::Epoll {
                    ep,
                    buf: vec![EpollEvent::zeroed(); EPOLL_WAIT_CAPACITY],
                },
                Err(_) => poll(),
            },
        };
        Poller {
            slots: HashMap::new(),
            backend,
        }
    }

    /// The backend actually in use (after fallback): `"epoll"` or
    /// `"poll"` — exposed in STATS so operators can see what the reactor
    /// ended up on.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Poll { .. } => "poll",
            Backend::Epoll { .. } => "epoll",
        }
    }

    /// Registers `fd` under `token` with its initial `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (watch exhaustion, closed fd) —
    /// the caller sheds the connection instead of serving it blind.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if let Backend::Epoll { ep, .. } = &self.backend {
            if interest != Interest::NONE {
                ep.add(fd, interest.epoll_mask(), token)?;
            }
        }
        self.slots.insert(token, (fd, interest));
        Ok(())
    }

    /// Sets what `token` reports from the next wait on.  Free when the
    /// interest is unchanged; otherwise epoll pays one `epoll_ctl`: `MOD`
    /// between two masks, `DEL` on [`Interest::NONE`] (a `MOD` to an empty
    /// mask would still report hang-ups and errors) and `ADD` when
    /// interest returns.  Unknown tokens are ignored.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures; the slot keeps its old interest
    /// and the caller sheds the connection.
    pub fn set_interest(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        let Some(slot) = self.slots.get_mut(&token) else {
            return Ok(());
        };
        let (fd, old) = *slot;
        if old == interest {
            return Ok(());
        }
        if let Backend::Epoll { ep, .. } = &self.backend {
            if old == Interest::NONE {
                ep.add(fd, interest.epoll_mask(), token)?;
            } else if interest == Interest::NONE {
                ep.delete(fd)?;
            } else {
                ep.modify(fd, interest.epoll_mask(), token)?;
            }
        }
        slot.1 = interest;
        Ok(())
    }

    /// Unregisters `token`.  Errors are deliberately swallowed: the only
    /// caller is connection teardown, where the fd is about to be closed
    /// (which unregisters implicitly on epoll anyway).
    pub fn deregister(&mut self, token: u64) {
        let Some((fd, interest)) = self.slots.remove(&token) else {
            return;
        };
        if let Backend::Epoll { ep, .. } = &self.backend {
            if interest != Interest::NONE {
                let _ = ep.delete(fd);
            }
        }
    }

    /// Blocks until readiness, timeout, or a (spurious-wake) interrupt,
    /// then replaces the contents of `events` with what was reported.
    /// Timeout semantics match [`poll_fds`]: sub-millisecond nonzero
    /// timeouts round up to 1 ms, `EINTR` is an empty return, and with the
    /// `fault-injection` feature armed the spurious-wake hook fires on
    /// both backends.
    ///
    /// # Errors
    ///
    /// Propagates non-`EINTR` `poll(2)` / `epoll_wait(2)` failures; the
    /// reactor backs off and retries.
    pub fn wait(&mut self, timeout: Duration, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        match &mut self.backend {
            Backend::Poll { fds, tokens } => {
                fds.clear();
                tokens.clear();
                for (&token, &(fd, interest)) in &self.slots {
                    let mut mask = 0i16;
                    if interest.readable {
                        mask |= POLLIN;
                    }
                    if interest.writable {
                        mask |= POLLOUT;
                    }
                    // Zero-interest slots poll a negative fd: the kernel
                    // ignores them but the registration survives.
                    fds.push(PollFd::new(if mask == 0 { -1 } else { fd }, mask));
                    tokens.push(token);
                }
                poll_fds(fds, timeout)?;
                for (slot, &token) in fds.iter().zip(tokens.iter()) {
                    let readable = slot.has(POLLIN | POLLHUP);
                    let writable = slot.has(POLLOUT | POLLHUP);
                    let error = slot.is_error();
                    if readable || writable || error {
                        events.push(Event {
                            token,
                            readable,
                            writable,
                            error,
                        });
                    }
                }
            }
            Backend::Epoll { ep, buf } => {
                let n = ep.wait(buf, timeout)?;
                for record in &buf[..n] {
                    // Copy out of the (packed) record before testing bits.
                    let mask = { record.events };
                    let token = { record.data };
                    let readable = mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0;
                    let writable = mask & (EPOLLOUT | EPOLLHUP) != 0;
                    let error = mask & EPOLLERR != 0;
                    if readable || writable || error {
                        events.push(Event {
                            token,
                            readable,
                            writable,
                            error,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::WakePipe;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn backends() -> Vec<Poller> {
        vec![
            Poller::new(ReactorBackend::Poll),
            Poller::new(ReactorBackend::Epoll),
        ]
    }

    /// One wait's events, collected into a fresh vector.
    fn wait(poller: &mut Poller, timeout: Duration) -> Vec<Event> {
        let mut events = Vec::new();
        poller.wait(timeout, &mut events).unwrap();
        events
    }

    #[test]
    fn explicit_backends_resolve_as_requested() {
        assert_eq!(Poller::new(ReactorBackend::Poll).backend_name(), "poll");
        assert_eq!(Poller::new(ReactorBackend::Epoll).backend_name(), "epoll");
    }

    #[test]
    fn env_strings_parse_with_auto_fallback() {
        assert_eq!(ReactorBackend::from_env_str("poll"), ReactorBackend::Poll);
        assert_eq!(
            ReactorBackend::from_env_str(" EPOLL "),
            ReactorBackend::Epoll
        );
        assert_eq!(ReactorBackend::from_env_str("kqueue"), ReactorBackend::Auto);
        assert_eq!(ReactorBackend::from_env_str(""), ReactorBackend::Auto);
    }

    /// Both backends: wake → one readable event with the right token;
    /// drain → quiet.  The Poller twin of the sys-level wake tests.
    #[test]
    fn wake_pipe_round_trip_on_both_backends() {
        for mut poller in backends() {
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), 42, Interest::READ).unwrap();
            assert!(
                wait(&mut poller, Duration::from_millis(10)).is_empty(),
                "[{}] idle wait must time out",
                poller.backend_name()
            );
            pipe.wake();
            let events = wait(&mut poller, Duration::from_secs(5));
            assert_eq!(events.len(), 1, "[{}]", poller.backend_name());
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);
            assert!(!events[0].error);
            pipe.drain();
            assert!(
                wait(&mut poller, Duration::from_millis(10)).is_empty(),
                "[{}] drained pipe must be quiet",
                poller.backend_name()
            );
        }
    }

    /// The one delivery contract, pinned where the reactor relies on it:
    /// readiness that was reported but not consumed is reported again.
    #[test]
    fn undrained_readiness_rereports_on_both_backends() {
        for mut poller in backends() {
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), 1, Interest::READ).unwrap();
            pipe.wake();
            for round in 0..3 {
                assert_eq!(
                    wait(&mut poller, Duration::from_secs(5)).len(),
                    1,
                    "[{}] round {round}: pending bytes must re-report",
                    poller.backend_name()
                );
            }
        }
    }

    /// A connected pair: the client end, and the accepted server end.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// Muting a descriptor silences it and unmuting restores delivery, on
    /// a pending pipe and on a socket whose peer has half-closed and then
    /// closed.  The last case is the one a merely empty epoll mask gets
    /// wrong: the kernel reports hang-ups whatever the mask.
    fn set_interest_mutes_and_unmutes(backend: ReactorBackend) {
        let mut poller = Poller::new(backend);
        let name = poller.backend_name();
        let quiet = |poller: &mut Poller, what: &str| {
            assert!(
                wait(poller, Duration::from_millis(20)).is_empty(),
                "[{name}] a muted {what} must not report"
            );
        };

        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 5, Interest::READ).unwrap();
        pipe.wake();
        poller.set_interest(5, Interest::NONE).unwrap();
        quiet(&mut poller, "pipe");
        poller.set_interest(5, Interest::READ).unwrap();
        assert_eq!(wait(&mut poller, Duration::from_secs(5)).len(), 1);
        poller.deregister(5);

        let (mut client, server) = socket_pair();
        poller
            .register(server.as_raw_fd(), 6, Interest::READ)
            .unwrap();
        client.write_all(b"x").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(wait(&mut poller, Duration::from_secs(5)).len(), 1);
        poller.set_interest(6, Interest::NONE).unwrap();
        quiet(&mut poller, "half-closed socket");
        // Both directions shut: the kernel now flags a hang-up.
        drop(client);
        server.shutdown(Shutdown::Write).unwrap();
        quiet(&mut poller, "hung-up socket");
        poller.set_interest(6, Interest::READ).unwrap();
        let events = wait(&mut poller, Duration::from_secs(5));
        assert_eq!(events.len(), 1, "[{name}] unmuting restores delivery");
        assert!(events[0].readable);
    }

    #[test]
    fn set_interest_mutes_and_unmutes_the_poll_backend() {
        set_interest_mutes_and_unmutes(ReactorBackend::Poll);
    }

    #[test]
    fn set_interest_mutes_and_unmutes_the_epoll_backend() {
        set_interest_mutes_and_unmutes(ReactorBackend::Epoll);
    }

    /// Write interest is armed only while asked for: an idle writable
    /// socket with read-only interest is quiet on both backends.
    #[test]
    fn writability_reports_only_under_write_interest() {
        for mut poller in backends() {
            let (_client, server) = socket_pair();
            poller
                .register(server.as_raw_fd(), 7, Interest::READ)
                .unwrap();
            assert!(
                wait(&mut poller, Duration::from_millis(10)).is_empty(),
                "[{}] read interest must not report writability",
                poller.backend_name()
            );
            let write = Interest {
                readable: true,
                writable: true,
            };
            poller.set_interest(7, write).unwrap();
            let events = wait(&mut poller, Duration::from_secs(5));
            assert_eq!(events.len(), 1, "[{}]", poller.backend_name());
            assert!(events[0].writable && !events[0].readable);
        }
    }

    #[test]
    fn deregister_silences_both_backends() {
        for mut poller in backends() {
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), 3, Interest::READ).unwrap();
            pipe.wake();
            poller.deregister(3);
            assert!(
                wait(&mut poller, Duration::from_millis(10)).is_empty(),
                "[{}] deregistered fd still reported",
                poller.backend_name()
            );
        }
    }

    #[test]
    fn registering_a_closed_fd_fails_only_where_the_kernel_is_consulted() {
        // epoll validates at registration (EBADF); poll only sees fds at
        // wait time, where a negative fd is a kernel-ignored masked slot —
        // mirroring how the two syscalls actually behave.
        let mut epoll = Poller::new(ReactorBackend::Epoll);
        assert!(epoll.register(-1, 0, Interest::READ).is_err());
        let mut poll = Poller::new(ReactorBackend::Poll);
        poll.register(-1, 0, Interest::READ).unwrap();
        assert!(wait(&mut poll, Duration::from_millis(5)).is_empty());
    }
}
