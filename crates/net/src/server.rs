//! The TCP front-end: **one readiness-driven reactor thread** over
//! [`StreamServer`]'s non-blocking completion queue.
//!
//! [`NetServer::bind`] compiles the model once (via
//! [`StreamServer::start_with`]), binds a listener and spawns one reactor
//! thread.  That thread owns the listener, every connection, the write
//! queues, a wake pipe and the completion channel, and parks in one
//! [`crate::poller::Poller`] — epoll by default, the scalar `poll(2)`
//! fallback under `SNN_REACTOR=poll` (or when `epoll_create1` fails), both
//! level-triggered.  Nothing in the front-end ever blocks on a peer:
//!
//! * **Accepts** drain the listener's backlog on readability; the
//!   [`NetOptions::max_connections`] cap is checked against the one
//!   open-connection counter, which only the reactor writes, so
//!   admission control is exact.
//! * **Reads** are non-blocking into a per-connection buffer, at most
//!   [`READ_BURST`] bytes per socket per round so a firehose peer cannot
//!   starve its neighbours (the poller re-reports what was left behind);
//!   complete frames are decoded incrementally and INFER requests are
//!   submitted through [`StreamServer::submit_tagged`] — so one connection
//!   can have any number of requests in flight (pipelining).  Each
//!   submission gets the next tag, unique for the telemetry recorder.
//! * **Completions** come back over the reactor's mpsc channel; the
//!   dispatcher wakes the reactor through its pipe, and replies are
//!   written in **completion order**, each echoing its request id for
//!   client-side correlation.
//! * **Writes** go through a per-connection write queue flushed on
//!   writability, so a stalled reader delays only its own replies — every
//!   other connection keeps flowing.  A reader that outgrows the
//!   write-buffer cap, or whose kernel buffer accepts nothing for the
//!   whole [`WRITE_STALL_TIMEOUT`], is disconnected.
//!
//! Before every wait the reactor sets each connection's interest from its
//! state: readable until the peer's EOF (and not while shutting down),
//! writable only while its write queue is non-empty.  A half-closed peer
//! therefore stops being reported once its EOF is read, and a connection
//! with nothing to read or write is silent until its state changes.
//!
//! Scores on the wire remain bit-identical to the matching in-process
//! [`StreamServer::submit`] (loopback suite), pipelined or not, on both
//! backends.
//!
//! # Backpressure, end to end
//!
//! Load shedding is typed at both layers and always carries a retry hint
//! computed from the live [`StreamServer::queue_snapshot`]:
//!
//! * **Submission queue full** — `submit_tagged` returns
//!   [`snn_accel::AccelError::QueueFull`]; the reactor answers that request
//!   with a REJECTED frame (`scope = queue`) echoing its id and quoting
//!   the observed depth, the capacity, and how long the dispatcher needs
//!   to drain the backlog at its recent rate.  Other pipelined requests on
//!   the same connection are untouched.
//! * **Connection cap reached** — the reactor serves at most
//!   [`NetOptions::max_connections`] connections; one past the cap is
//!   shed with a REJECTED frame (`scope = connections`) queued on its
//!   write buffer and closed once flushed — no thread is spawned, the
//!   acceptor never blocks.
//!
//! The reactor thread blocks in the poller, not on a core, so it draws
//! nothing from the compute thread budget (nor does a `StreamServer`
//! dispatcher).  Connection scaling is bounded by `max_connections`, not
//! by threads.
//!
//! # Failure isolation
//!
//! A panic in the reactor's event loop ends the front-end: its
//! connections die and nothing accepts.  Inference panics never get
//! there — the dispatcher isolates them.  [`NetServer::is_healthy`] turns
//! `false` once the reactor thread has exited, which is the supervision
//! signal to rebuild the front-end.
//!
//! # Shutdown
//!
//! [`NetServer::shutdown`] wakes the reactor; it stops accepting and
//! reading, submits any complete frames already buffered, waits for its
//! in-flight inferences to complete, flushes its write queues (bounded by
//! [`SHUTDOWN_DRAIN_GRACE`]) and exits; only then is the inner server
//! torn down — a clean shutdown never drops a request it has already
//! read.

use crate::error::NetError;
use crate::poller::{Interest, Poller, ReactorBackend};
use crate::protocol::{
    error_code, probe_plaintext, reject_scope, stats_format, ErrorReply, Frame, PlaintextProbe,
    RejectReply, ScoreReply, NO_REQUEST_ID,
};
use crate::sys::WakePipe;
use snn_accel::config::AcceleratorConfig;
use snn_accel::report::UnitUtilisation;
use snn_accel::serve::{
    Completion, CompletionSink, QueueSnapshot, ReplicaStats, ServerOptions, ServerStats,
    StreamServer,
};
use snn_accel::AccelError;
use snn_model::snn::SnnModel;
use snn_telemetry::MetricKind::{Counter, Gauge, Info};
use snn_telemetry::{
    render_metrics_prometheus, render_metrics_text, Metric, MetricFamily, MetricTable,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Options of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Options of the inner [`StreamServer`] (queue capacity, deadline,
    /// replicas, tracing) — validated by its constructor.
    pub server: ServerOptions,
    /// Upper bound of one poller sleep: the granularity of idle-timeout
    /// sweeps and the latency ceiling of noticing a shutdown — not of
    /// requests, which wake the reactor through its pipe.
    pub poll_interval: Duration,
    /// A connection that has sent no complete request (and has none in
    /// flight) for this long is closed and its slot reclaimed.  Without
    /// the deadline, `max_connections` silent sockets would pin every slot
    /// forever and starve new connections while the server sits idle.
    pub idle_timeout: Duration,
    /// Most connections the reactor serves at once.  Past the
    /// cap a new connection is shed with a typed REJECTED frame (`scope =
    /// connections`).  Must be at least 1 ([`NetServer::bind`] rejects 0
    /// with a typed error).  Connections are state, not threads, so this
    /// can comfortably sit far above the old per-connection worker cap.
    pub max_connections: usize,
    /// Readiness backend.  [`ReactorBackend::Auto`] (the default) honours
    /// the `SNN_REACTOR` environment variable (`poll` / `epoll`) and
    /// otherwise picks epoll, falling back to `poll(2)` when the kernel
    /// refuses an epoll instance.
    pub backend: ReactorBackend,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            server: ServerOptions::default(),
            poll_interval: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(60),
            max_connections: 256,
            backend: ReactorBackend::Auto,
        }
    }
}

/// Cap on one connection's queued-but-unwritten reply bytes.  A client
/// that pipelines requests and never reads its replies grows its write
/// queue; past this bound the reactor declares the reader dead and closes
/// the connection instead of buffering without limit.  Generous: a SCORES
/// reply is ~100 bytes, so this is tens of thousands of unread replies.
pub const MAX_WRITE_BUFFER: usize = 4 << 20;

/// How long a connection's write queue may sit non-empty **without the
/// kernel accepting a single byte** before the reader is declared dead
/// and the connection closed.  The peer's receive buffer being full for
/// this long means nobody is reading; without the bound, a reader stalled
/// *below* [`MAX_WRITE_BUFFER`] would pin its connection slot forever
/// (the reactor equivalent of the old per-connection write timeout).
/// Any write progress restarts the window.
pub const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Most bytes a reactor reads from one socket in one readiness round — a
/// fairness bound so a firehose peer cannot starve its neighbours
/// between waits.  The remainder stays in the kernel buffer, and the
/// poller reports the socket readable again on the next wait.
pub const READ_BURST: usize = 256 << 10;

/// How long a reactor-wide draining shutdown may keep waiting on
/// in-flight inferences and unflushed replies before giving up on the
/// laggards.  Also the per-connection bound of the draining phase of a
/// terminally-answered connection (terminal reply queued, in-flight
/// completions still landing).
pub const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(10);

/// How long a connection that has been answered and half-closed (error
/// replies, plaintext stats, sheds) is kept around to drain the peer's
/// unread bytes — closing with data pending in the receive buffer sends
/// RST, which could destroy the reply before the peer reads it.
pub const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// Cap on connections in the shed/close pipeline (REJECTED
/// queued, write flushing, linger) beyond the admitted population.  Past
/// it, surplus connections are dropped without a frame — under that much
/// flood typed rejection inevitably degrades to kernel-level drops
/// anyway, but the reactor itself never blocks and its memory stays
/// bounded.
pub const MAX_SHED_CONNECTIONS: usize = 64;

/// Floor of the retry-after hint on connection-scope rejections
/// (milliseconds).  Connection slots free when a peer disconnects or
/// idles out — nothing the queue drain rate can predict — so the hint is
/// a polite back-off floor rather than a measurement.
pub const CONNECTIONS_RETRY_AFTER_MS: u64 = 100;

/// Poller token of the reactor's wake pipe (connection tokens count up
/// from zero and never reach the reserved range).
const TOKEN_WAKE: u64 = u64::MAX;
/// Poller token of the listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// What [`NetStats::per_reactor`] reports for the one reactor: the
/// readiness backend it runs on and its connection and request counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorStats {
    /// The readiness backend the reactor actually runs on (after the
    /// epoll→poll fallback): `"epoll"` or `"poll"`.
    pub backend: &'static str,
    /// TCP connections accepted (admitted or shed).
    pub accepted: u64,
    /// Connections shed at the cap.
    pub turned_away: u64,
    /// Admitted connections still being served.
    pub open_connections: u64,
    /// Inference requests decoded.
    pub requests: u64,
    /// Protocol violations observed.
    pub protocol_errors: u64,
    /// STATS requests served.
    pub stats_requests: u64,
}

/// Snapshot of a [`NetServer`]'s counters plus the inner serving stats.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// TCP connections accepted (admitted or shed).
    pub accepted: u64,
    /// Connections shed because the front-end was at `max_connections`.
    pub turned_away: u64,
    /// Inference requests received over the wire.
    pub requests: u64,
    /// Connections terminated for violating the frame protocol.
    pub protocol_errors: u64,
    /// STATS requests served (framed or plaintext).
    pub stats_requests: u64,
    /// Admitted connections still being served: the count the
    /// `max_connections` cap is checked against.
    pub open_connections: u64,
    /// `false` once the reactor thread has exited — normally (shutdown)
    /// or abnormally (a panic).  A supervisor that sees this `false` on a
    /// server it has not shut down knows the front-end is dead even
    /// though the process is alive; see [`NetServer::is_healthy`].
    pub reactor_alive: bool,
    /// Reactor threads: always 1.
    pub reactors: u64,
    /// The one reactor's counters and backend.
    pub per_reactor: Vec<ReactorStats>,
    /// The inner [`StreamServer`] statistics (completed, rejected, queue
    /// snapshot, per-unit utilisation, ...).
    pub server: ServerStats,
}

struct NetShared {
    server: StreamServer,
    options: NetOptions,
    /// Backend the reactor's poller landed on, fixed at bind.
    backend: &'static str,
    shutdown: AtomicBool,
    wake: Arc<WakePipe>,
    /// Cleared when the reactor thread exits (see [`ReactorAliveGuard`]).
    alive: AtomicBool,
    accepted: AtomicU64,
    turned_away: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    stats_requests: AtomicU64,
    /// Admitted connections still being served.  Only the reactor writes
    /// it — up when it admits, down in [`retire_and_drain`] or `close` —
    /// so the cap check against it is exact and the gauge is never stale.
    /// `Relaxed` throughout: it publishes no other data.
    open_connections: AtomicUsize,
}

/// Clears `alive` when the reactor thread exits, even by unwinding: the
/// guard lives on the reactor's stack, so a panic anywhere in the event
/// loop still reports the death.
struct ReactorAliveGuard(Arc<NetShared>);

impl Drop for ReactorAliveGuard {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::Release);
    }
}

/// A listening TCP serving front-end.  See the module docs.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<NetShared>,
    reactor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for NetShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetShared")
            .field("options", &self.options)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Compiles `model`, binds `addr` (use port `0` for an ephemeral port)
    /// and starts the reactor thread.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamServer::start_with`] errors (invalid options,
    /// unmappable model), rejects `max_connections == 0` with a typed
    /// [`snn_accel::AccelError::InvalidConfig`], and propagates socket /
    /// pipe errors.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: AcceleratorConfig,
        model: SnnModel,
        options: NetOptions,
    ) -> Result<Self, NetError> {
        if options.max_connections == 0 {
            return Err(NetError::Accel(AccelError::InvalidConfig {
                context: "NetOptions::max_connections is 0: every connection would be shed"
                    .to_string(),
            }));
        }
        let server = StreamServer::start_with(config, model, options.server)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // The poller is built before the thread spawns so the backend it
        // landed on (epoll, or the poll fallback) is reportable from the
        // moment `bind` returns.
        let poller = Poller::new(options.backend);
        let shared = Arc::new(NetShared {
            server,
            options,
            backend: poller.backend_name(),
            shutdown: AtomicBool::new(false),
            wake: Arc::new(WakePipe::new()?),
            alive: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            turned_away: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
        });
        let completion_wake = Arc::clone(&shared.wake);
        let (sink, completions) = CompletionSink::new(Arc::new(move || completion_wake.wake()));
        let reactor_shared = Arc::clone(&shared);
        let reactor = thread::Builder::new()
            .name("snn-net-reactor".to_string())
            .spawn(move || {
                // The alive guard reports the thread's death on every exit
                // path, panics included.
                let alive = ReactorAliveGuard(reactor_shared);
                Reactor::new(&alive.0, poller, listener, completions, sink).run();
            })?;
        Ok(NetServer {
            shared,
            reactor: Some(reactor),
            local_addr,
        })
    }

    /// The bound address — where clients connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the front-end counters and the inner serving stats.
    pub fn stats(&self) -> NetStats {
        net_stats(&self.shared)
    }

    /// `true` while the reactor thread is alive, at least one replica
    /// engine is healthy, and the server has not been told to shut down.
    ///
    /// A dead reactor (a panic in its event loop — inference panics never
    /// reach it, they are isolated inside the dispatcher) means every
    /// connection is gone and nothing accepts.  Likewise, a front-end with
    /// zero healthy replicas behind it can only reject.  A *degraded*
    /// inner server — some but not all replicas down — still reports
    /// healthy (the survivors serve); the per-replica stats expose the
    /// degradation.  This is the supervision signal: a monitor that sees
    /// `is_healthy() == false` on a server it did not shut down should
    /// rebuild the front-end.
    pub fn is_healthy(&self) -> bool {
        self.shared.alive.load(Ordering::Acquire)
            && self.shared.server.healthy_replicas() > 0
            && !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Gracefully shuts down: stop accepting, drain in-flight requests,
    /// flush replies, join the reactor, and return the final statistics.
    pub fn shutdown(mut self) -> NetStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.wake();
        // A panicked reactor must not turn shutdown into a panic of its
        // own (or a double-panic abort when this runs from Drop during
        // unwinding): the join error is swallowed and teardown continues.
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn net_stats(shared: &NetShared) -> NetStats {
    let reactor = ReactorStats {
        backend: shared.backend,
        accepted: shared.accepted.load(Ordering::Relaxed),
        turned_away: shared.turned_away.load(Ordering::Relaxed),
        open_connections: shared.open_connections.load(Ordering::Relaxed) as u64,
        requests: shared.requests.load(Ordering::Relaxed),
        protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
        stats_requests: shared.stats_requests.load(Ordering::Relaxed),
    };
    NetStats {
        accepted: reactor.accepted,
        turned_away: reactor.turned_away,
        requests: reactor.requests,
        protocol_errors: reactor.protocol_errors,
        stats_requests: reactor.stats_requests,
        open_connections: reactor.open_connections,
        reactor_alive: shared.alive.load(Ordering::Acquire),
        reactors: 1,
        per_reactor: vec![reactor],
        server: shared.server.stats(),
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// Lifecycle of one reactor-owned connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Serving requests.
    Open,
    /// A terminal reply (error / plaintext stats / shed) is queued: flush
    /// the write buffer, then half-close and move to [`ConnState::Linger`].
    Draining,
    /// Write side closed; discard the peer's unread bytes until EOF or the
    /// deadline so the kernel does not RST our last reply away.
    Linger,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// `false` for shed connections, which are never counted in
    /// [`NetShared::open_connections`].
    admitted: bool,
    /// Bytes read but not yet decoded (at most a partial frame after each
    /// processing pass).
    rbuf: Vec<u8>,
    /// Encoded replies not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Tagged inferences submitted for this connection and not yet
    /// completed.
    in_flight: usize,
    /// The peer half-closed its sending side; serve what is in flight,
    /// flush, then close.
    peer_eof: bool,
    /// Wall-clock of the last complete request or completion (the idle
    /// clock must not tick while work is in flight).
    last_activity: Instant,
    /// Hard deadline for [`ConnState::Draining`]/[`ConnState::Linger`].
    deadline: Option<Instant>,
    /// Since when the write queue has been non-empty with the kernel
    /// accepting nothing (see [`WRITE_STALL_TIMEOUT`]).
    stalled_since: Option<Instant>,
    /// Total bytes this connection has ever handed to the kernel — the
    /// offset coordinate of `reply_marks`.
    flushed_total: u64,
    /// Write-stall telemetry marks, one per queued SCORES reply: `(byte
    /// offset at which the reply is fully flushed, when it was queued,
    /// trace request id)`.  Appended in completion order, so offsets are
    /// monotone and `flush_step` pops from the front.
    reply_marks: VecDeque<(u64, Instant, u64)>,
    /// Write-queue residencies measured by `flush_step`, waiting for the
    /// reactor to forward them to the span recorder (drained in place, so
    /// the buffer is reused across flushes).
    stall_samples: Vec<(u64, Duration)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            state: ConnState::Open,
            admitted: true,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            in_flight: 0,
            peer_eof: false,
            last_activity: Instant::now(),
            deadline: None,
            stalled_since: None,
            flushed_total: 0,
            reply_marks: VecDeque::new(),
            stall_samples: Vec::new(),
        }
    }

    /// Queues an encoded reply for the writability path.
    fn queue_frame(&mut self, frame: &Frame) {
        self.wbuf.extend_from_slice(&frame.encode());
    }

    /// Marks the connection terminally answered: finish in-flight work,
    /// flush, half-close, linger, close.  The drain phase gets the full
    /// flush grace (in-flight completions are still landing); the linger
    /// after the half-close is short.  Callers that may be counted in the
    /// open connections go through [`retire_and_drain`] instead.
    fn begin_drain(&mut self) {
        if self.state == ConnState::Open {
            self.state = ConnState::Draining;
            self.deadline = Some(Instant::now() + SHUTDOWN_DRAIN_GRACE);
        }
    }

    /// One socket read, routed through the fault injector when the
    /// `fault-injection` feature is armed: short reads truncate the
    /// scratch window to one byte, the error faults never touch the
    /// socket (an injected `EWOULDBLOCK` leaves the bytes to the next
    /// wait, which reports them again).  Release builds compile down to
    /// the plain `read`.
    fn socket_read(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::IoFault;
            match crate::fault::read_fault() {
                IoFault::None => self.stream.read(scratch),
                IoFault::Short => self.stream.read(&mut scratch[..1]),
                IoFault::WouldBlock => Err(io::Error::from(ErrorKind::WouldBlock)),
                IoFault::Interrupted => Err(io::Error::from(ErrorKind::Interrupted)),
                IoFault::Reset => Err(io::Error::from(ErrorKind::ConnectionReset)),
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        self.stream.read(scratch)
    }

    /// One socket write, routed through the fault injector exactly like
    /// [`Conn::socket_read`] (short writes offer the kernel one byte).
    fn socket_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        #[cfg(feature = "fault-injection")]
        {
            use crate::fault::IoFault;
            match crate::fault::write_fault() {
                IoFault::None => self.stream.write(bytes),
                IoFault::Short => self.stream.write(&bytes[..1]),
                IoFault::WouldBlock => Err(io::Error::from(ErrorKind::WouldBlock)),
                IoFault::Interrupted => Err(io::Error::from(ErrorKind::Interrupted)),
                IoFault::Reset => Err(io::Error::from(ErrorKind::ConnectionReset)),
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        self.stream.write(bytes)
    }

    /// Non-blocking read burst into the read buffer, ending once
    /// [`READ_BURST`] bytes are in (discarded on non-Open states, where
    /// only EOF matters).  Returns `true` when the connection is dead and
    /// must be closed.
    fn read_step(&mut self) -> bool {
        let discard = self.state != ConnState::Open;
        let mut scratch = [0u8; 8192];
        let mut total = 0usize;
        loop {
            match self.socket_read(&mut scratch) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if !discard {
                        self.rbuf.extend_from_slice(&scratch[..n]);
                    }
                    total += n;
                    // Fairness: leave the rest in the kernel buffer for
                    // the next round, which the poller will report.
                    if total >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        // EOF during a linger means the peer has nothing more in flight
        // that a close could RST away.
        self.peer_eof && self.state != ConnState::Open
    }

    /// Writes as much queued reply data as the kernel accepts.  Returns
    /// `true` when the connection is dead and must be closed.
    fn flush_step(&mut self) -> bool {
        let mut wrote = 0usize;
        while !self.wbuf.is_empty() {
            let queued = std::mem::take(&mut self.wbuf);
            let result = self.socket_write(&queued);
            self.wbuf = queued;
            match result {
                Ok(0) => return true,
                Ok(n) => {
                    self.wbuf.drain(..n);
                    wrote += n;
                    self.flushed_total += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        // Write-stall telemetry: a reply whose last byte the kernel has now
        // accepted spent its whole queue residency in this buffer — sample
        // it for the recorder (the reactor forwards after each flush).
        while let Some(&(target, queued_at, request_id)) = self.reply_marks.front() {
            if target > self.flushed_total {
                break;
            }
            self.reply_marks.pop_front();
            self.stall_samples.push((request_id, queued_at.elapsed()));
        }
        // Write-stall clock: runs while bytes are queued and the kernel
        // accepts none of them, restarts on any progress.
        if self.wbuf.is_empty() {
            self.stalled_since = None;
        } else if wrote > 0 || self.stalled_since.is_none() {
            self.stalled_since = Some(Instant::now());
        }
        if self.wbuf.len() > MAX_WRITE_BUFFER {
            // The peer has stopped reading; buffering further replies for
            // it would trade one slow socket for unbounded memory.
            return true;
        }
        if self.wbuf.is_empty() && self.in_flight == 0 && self.state == ConnState::Draining {
            // Every reply flushed: half-close and linger briefly so the
            // FIN (not an RST) is what the peer observes after our last
            // frame.
            let _ = self.stream.shutdown(Shutdown::Write);
            self.state = ConnState::Linger;
            self.deadline = Some(Instant::now() + CLOSE_LINGER);
            if self.peer_eof {
                return true;
            }
        }
        false
    }

    /// Which poller interest this connection currently needs.  During a
    /// shutdown only flushes matter.
    fn interest(&self, draining: bool) -> Interest {
        Interest {
            // Reads stay on in non-Open states too: draining the peer's
            // backlog prevents an RST from destroying the queued reply.
            // After the EOF nothing is left to read, and a level-triggered
            // poller would report the EOF forever.
            readable: !self.peer_eof && !draining,
            writable: !self.wbuf.is_empty(),
        }
    }
}

/// Stops counting an admitted connection as open and starts its
/// terminal drain.  Every `begin_drain` on a possibly admitted connection
/// must go through here — a count that leaks would shrink the connection
/// cap forever.
fn retire_and_drain(shared: &NetShared, conn: &mut Conn) {
    if conn.state == ConnState::Open && conn.admitted {
        shared.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
    conn.begin_drain();
}

/// A submitted-but-uncompleted inference: which connection asked, under
/// which wire request id.
struct Pending {
    token: u64,
    request_id: u64,
}

struct Reactor<'a> {
    shared: &'a Arc<NetShared>,
    poller: Poller,
    listener: TcpListener,
    completions: mpsc::Receiver<Completion>,
    sink: CompletionSink,
    conns: HashMap<u64, Conn>,
    /// Tag of every in-flight tagged submission → its origin.
    pending: HashMap<u64, Pending>,
    next_token: u64,
    /// Next submission tag (the telemetry recorder keys traces by tag).
    next_tag: u64,
    /// Set once when a shutdown is observed: already-buffered complete
    /// frames are submitted one final time, then reads stop.
    drain_started: bool,
}

impl<'a> Reactor<'a> {
    fn new(
        shared: &'a Arc<NetShared>,
        poller: Poller,
        listener: TcpListener,
        completions: mpsc::Receiver<Completion>,
        sink: CompletionSink,
    ) -> Self {
        Reactor {
            shared,
            poller,
            listener,
            completions,
            sink,
            conns: HashMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            next_tag: 0,
            drain_started: false,
        }
    }

    fn run(mut self) {
        // A reactor that cannot hear wakes or accepts cannot serve; die
        // loudly (the alive guard reports it).
        if self
            .poller
            .register(self.shared.wake.read_fd(), TOKEN_WAKE, Interest::READ)
            .is_err()
            || self
                .poller
                .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                .is_err()
        {
            return;
        }
        let mut drain_deadline: Option<Instant> = None;
        let mut events = Vec::new();
        loop {
            let draining = self.shared.shutdown.load(Ordering::Acquire);
            if draining {
                if !self.drain_started {
                    self.drain_started = true;
                    drain_deadline = Some(Instant::now() + SHUTDOWN_DRAIN_GRACE);
                    // Serve every complete frame already read off a socket,
                    // then stop reading: accepted work drains, new work is
                    // no longer admitted.
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.process_rbuf(token);
                    }
                }
                let flushed = self.conns.values().all(|conn| conn.wbuf.is_empty());
                if (self.pending.is_empty() && flushed)
                    || drain_deadline.is_some_and(|d| Instant::now() >= d)
                {
                    return;
                }
            }

            // Every wait sees each descriptor's interest as of now; a
            // connection the poller can no longer watch is shed.
            let interest = if draining {
                Interest::NONE
            } else {
                Interest::READ
            };
            let _ = self.poller.set_interest(TOKEN_LISTENER, interest);
            let mut unwatchable = Vec::new();
            for (&token, conn) in &self.conns {
                if self
                    .poller
                    .set_interest(token, conn.interest(draining))
                    .is_err()
                {
                    unwatchable.push(token);
                }
            }
            for token in unwatchable {
                self.close(token);
            }

            if self
                .poller
                .wait(self.shared.options.poll_interval, &mut events)
                .is_err()
            {
                // EINVAL/ENOMEM are not per-connection conditions; back
                // off instead of spinning and try again.
                thread::sleep(self.shared.options.poll_interval);
                continue;
            }

            // --- dispatch readiness ----------------------------------
            let mut accept = false;
            for event in &events {
                match event.token {
                    TOKEN_WAKE => self.shared.wake.drain(),
                    TOKEN_LISTENER => accept = true,
                    token => {
                        if event.error {
                            self.close(token);
                            continue;
                        }
                        if event.writable {
                            self.flush(token);
                        }
                        if event.readable && !draining {
                            self.read_ready(token);
                        }
                    }
                }
            }
            // Completions are drained unconditionally: try_recv is cheap
            // and wake coalescing means byte counts carry no information.
            self.drain_completions();
            if accept && !draining {
                self.accept_ready();
            }
            self.sweep();
        }
    }

    /// Accepts every connection the listener has queued.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit_or_shed(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept errors (ECONNABORTED etc.): the next
                // readiness round retries.
                Err(_) => return,
            }
        }
    }

    /// Admission control for one accepted socket.
    fn admit_or_shed(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        let open = self.shared.open_connections.load(Ordering::Relaxed);
        if open >= self.shared.options.max_connections {
            self.shared.turned_away.fetch_add(1, Ordering::Relaxed);
            self.shed(stream, open as u64);
            return;
        }
        let _ = stream.set_nodelay(true);
        if self.install(Conn::new(stream)).is_some() {
            self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sheds one over-cap connection with a typed REJECTED frame
    /// (bounded by [`MAX_SHED_CONNECTIONS`]).
    fn shed(&mut self, stream: TcpStream, open: u64) {
        // Sheds occupy close-pipeline slots (flush + linger), bounded
        // separately from serving slots; past that bound the stream is
        // simply dropped.
        let closing = self.conns.len() - self.shared.open_connections.load(Ordering::Relaxed);
        if closing >= MAX_SHED_CONNECTIONS {
            return;
        }
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(stream);
        conn.admitted = false;
        let snapshot = self.shared.server.queue_snapshot();
        conn.queue_frame(&Frame::Rejected(RejectReply {
            request_id: NO_REQUEST_ID,
            scope: reject_scope::CONNECTIONS,
            queued: open,
            capacity: self.shared.options.max_connections as u64,
            // Slot availability is not predicted by the queue drain
            // rate, so the hint is floored at a polite back-off rather
            // than the near-zero an empty queue would suggest.
            retry_after_ms: snapshot.retry_after_ms().max(CONNECTIONS_RETRY_AFTER_MS),
            drain_rate_mips: drain_rate_mips(&snapshot),
        }));
        conn.begin_drain();
        if let Some(token) = self.install(conn) {
            self.flush(token);
        }
    }

    /// Registers a connection with the poller and the table and returns
    /// its token, or drops the connection if the poller refuses it.
    fn install(&mut self, conn: Conn) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let fd = conn.stream.as_raw_fd();
        self.poller.register(fd, token, conn.interest(false)).ok()?;
        self.conns.insert(token, conn);
        Some(token)
    }

    /// Non-blocking read burst followed by frame processing.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let was_open = conn.state == ConnState::Open;
        if conn.read_step() {
            self.close(token);
            return;
        }
        if was_open {
            self.process_rbuf(token);
        }
    }

    /// Decodes and serves every complete request buffered for `token`.
    fn process_rbuf(&mut self, token: u64) {
        // Disjoint field borrows: the connection map and the pending map
        // are used simultaneously below.
        let Reactor {
            shared,
            conns,
            pending,
            next_tag,
            sink,
            ..
        } = self;
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        // Decode from a cursor and drop the consumed prefix once: draining
        // per frame would memmove the rest of a pipelined burst each time.
        let mut consumed = 0usize;
        while conn.state == ConnState::Open {
            match probe_plaintext(&conn.rbuf[consumed..]) {
                PlaintextProbe::Stats { consumed: line } => {
                    consumed += line;
                    shared.stats_requests.fetch_add(1, Ordering::Relaxed);
                    // One-shot scrape, `nc`-style: raw text (no framing),
                    // then close.
                    conn.wbuf
                        .extend_from_slice(render_stats(shared, stats_format::TEXT).as_bytes());
                    retire_and_drain(shared, conn);
                    break;
                }
                PlaintextProbe::Traces { consumed: line } => {
                    consumed += line;
                    shared.stats_requests.fetch_add(1, Ordering::Relaxed);
                    // One-shot JSONL trace dump, also `nc`-style; draining
                    // is destructive, so each scrape returns fresh traces.
                    conn.wbuf
                        .extend_from_slice(render_stats(shared, stats_format::TRACES).as_bytes());
                    retire_and_drain(shared, conn);
                    break;
                }
                PlaintextProbe::NeedMore => break,
                PlaintextProbe::NotStats => {}
            }
            match Frame::decode(&conn.rbuf[consumed..]) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    handle_frame(shared, conn, pending, next_tag, sink, token, frame);
                    conn.last_activity = Instant::now();
                }
                Ok(None) => break,
                Err(err) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.queue_frame(&Frame::Error(ErrorReply {
                        request_id: NO_REQUEST_ID,
                        code: error_code::PROTOCOL,
                        message: err.to_string(),
                    }));
                    consumed = conn.rbuf.len();
                    retire_and_drain(shared, conn);
                    break;
                }
            }
        }
        conn.rbuf.drain(..consumed);
        self.flush(token);
    }

    /// Hands every settled inference back to its connection, in completion
    /// order.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completions.try_recv() {
            let Some(origin) = self.pending.remove(&completion.tag) else {
                continue;
            };
            let Some(conn) = self.conns.get_mut(&origin.token) else {
                // The connection died while its inference ran; the result
                // has no reader.
                continue;
            };
            conn.in_flight -= 1;
            conn.last_activity = Instant::now();
            let frame = match completion.result {
                Ok(report) => Frame::Scores(ScoreReply {
                    request_id: origin.request_id,
                    prediction: report.prediction as u32,
                    time_steps: report.time_steps as u32,
                    thread_budget: report.thread_budget as u32,
                    total_cycles: report.total_cycles(),
                    logits: report.logits,
                }),
                // A deadline shed is backpressure, not failure: the reply
                // is a REJECTED frame (scope = deadline) quoting the live
                // queue, so clients retry it exactly like a queue-full.
                Err(AccelError::DeadlineExceeded { .. }) => {
                    let snapshot = self.shared.server.queue_snapshot();
                    Frame::Rejected(RejectReply {
                        request_id: origin.request_id,
                        scope: reject_scope::DEADLINE,
                        queued: snapshot.depth as u64,
                        capacity: snapshot.capacity as u64,
                        retry_after_ms: snapshot.retry_after_ms().max(1),
                        drain_rate_mips: drain_rate_mips(&snapshot),
                    })
                }
                Err(err) => error_reply(origin.request_id, &err),
            };
            conn.queue_frame(&frame);
            // Mark where this reply's last byte sits in the write queue so
            // flush_step can measure its residency — the WriteStall span of
            // the trace keyed by the submission tag.
            if self.shared.server.recorder().enabled() {
                conn.reply_marks.push_back((
                    conn.flushed_total + conn.wbuf.len() as u64,
                    Instant::now(),
                    completion.tag,
                ));
            }
            self.flush(origin.token);
        }
    }

    /// Writes as much queued reply data as the kernel accepts, then
    /// forwards any write-stall samples the flush produced to the span
    /// recorder (amending the already-published traces).
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let dead = conn.flush_step();
        let recorder = self.shared.server.recorder();
        for (request_id, stall) in conn.stall_samples.drain(..) {
            recorder.record_write_stall(request_id, stall);
        }
        if dead {
            self.close(token);
        }
    }

    /// Deadline enforcement: idle Open connections, stalled readers,
    /// expired drains and lingers.
    fn sweep(&mut self) {
        let now = Instant::now();
        let idle = self.shared.options.idle_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                // A reader whose kernel buffer has refused every byte for
                // the whole stall window is gone, whatever the state.
                let stalled = conn
                    .stalled_since
                    .is_some_and(|since| now.duration_since(since) >= WRITE_STALL_TIMEOUT);
                stalled
                    || match conn.state {
                        ConnState::Open => {
                            let idle_out = conn.in_flight == 0
                                && conn.wbuf.is_empty()
                                && now.duration_since(conn.last_activity) >= idle;
                            // A peer that half-closed and has nothing in
                            // flight or unflushed is simply finished.
                            let finished =
                                conn.peer_eof && conn.in_flight == 0 && conn.wbuf.is_empty();
                            idle_out || finished
                        }
                        ConnState::Draining | ConnState::Linger => {
                            conn.deadline.is_some_and(|deadline| now >= deadline)
                        }
                    }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // A connection closed while still serving stops counting as
            // open here (drained ones stopped in `retire_and_drain`).
            if conn.state == ConnState::Open && conn.admitted {
                self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
            self.poller.deregister(token);
        }
        // Stale `pending` entries for this token self-clean: their
        // completions arrive, find no connection, and are dropped.
    }
}

/// Serves one decoded client frame (reads already done, writes queued).
fn handle_frame(
    shared: &NetShared,
    conn: &mut Conn,
    pending: &mut HashMap<u64, Pending>,
    next_tag: &mut u64,
    sink: &CompletionSink,
    token: u64,
    frame: Frame,
) {
    match frame {
        Frame::Infer(request) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let request_id = request.request_id;
            let deadline = request
                .deadline_ms
                .map(|ms| Duration::from_millis(u64::from(ms)));
            let tensor = match request.into_tensor() {
                Ok(tensor) => tensor,
                Err(err) => {
                    conn.queue_frame(&Frame::Error(ErrorReply {
                        request_id,
                        code: error_code::BAD_REQUEST,
                        message: err.to_string(),
                    }));
                    return;
                }
            };
            let tag = *next_tag;
            *next_tag += 1;
            match shared.server.submit_tagged(tensor, tag, sink, deadline) {
                Ok(()) => {
                    pending.insert(tag, Pending { token, request_id });
                    conn.in_flight += 1;
                }
                Err(AccelError::QueueFull { queued, capacity }) => {
                    let snapshot = shared.server.queue_snapshot();
                    conn.queue_frame(&Frame::Rejected(RejectReply {
                        request_id,
                        scope: reject_scope::QUEUE,
                        queued: queued as u64,
                        capacity: capacity as u64,
                        retry_after_ms: snapshot.retry_after_ms().max(1),
                        drain_rate_mips: drain_rate_mips(&snapshot),
                    }));
                }
                Err(err) => {
                    let reply = error_reply(request_id, &err);
                    let shutting_down = matches!(
                        &reply,
                        Frame::Error(ErrorReply { code, .. }) if *code == error_code::SHUTTING_DOWN
                    );
                    conn.queue_frame(&reply);
                    if shutting_down {
                        retire_and_drain(shared, conn);
                    }
                }
            }
        }
        Frame::StatsRequest { format } => {
            shared.stats_requests.fetch_add(1, Ordering::Relaxed);
            conn.queue_frame(&Frame::StatsText(render_stats(shared, format)));
        }
        // Server-bound traffic may only be requests.
        Frame::Scores(_) | Frame::Rejected(_) | Frame::Error(_) | Frame::StatsText(_) => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.queue_frame(&Frame::Error(ErrorReply {
                request_id: NO_REQUEST_ID,
                code: error_code::PROTOCOL,
                message: "unexpected server-bound frame".to_string(),
            }));
            retire_and_drain(shared, conn);
        }
    }
}

fn drain_rate_mips(snapshot: &QueueSnapshot) -> u64 {
    (snapshot.drain_rate_ips * 1000.0).round().max(0.0) as u64
}

fn error_reply(request_id: u64, err: &AccelError) -> Frame {
    let code = match err {
        AccelError::Serving { .. } => error_code::SHUTTING_DOWN,
        // The engine panicked on this one request; the panic was isolated
        // inside the dispatcher and the server keeps serving — the code
        // tells the client the input is poison, not the server.
        AccelError::EnginePanic { .. } => error_code::ENGINE_PANIC,
        // The replica that dequeued this request died before serving it;
        // siblings keep serving, so the client should resubmit.
        AccelError::ReplicaDown { .. } => error_code::REPLICA_DOWN,
        _ => error_code::BAD_REQUEST,
    };
    Frame::Error(ErrorReply {
        request_id,
        code,
        message: err.to_string(),
    })
}

/// Renders the serving counters in the negotiated [`stats_format`] — the
/// body of the framed STATS reply; the plaintext form also answers the
/// `nc`-style `STATS` line and the traces form the `TRACES` line.
fn render_stats(shared: &NetShared, format: u8) -> String {
    match format {
        stats_format::PROMETHEUS => render_metrics_prometheus(&collect_metrics(shared)),
        // Destructive drain of the completed-trace ring, one JSON object
        // per line.
        stats_format::TRACES => shared.server.recorder().render_jsonl(),
        _ => render_metrics_text(&collect_metrics(shared)),
    }
}

/// The one enumeration of the STATS metrics: every scalar, the
/// `reactor` / `replica` / `unit` families and the recorder's latency
/// histograms.  Both exposition formats render this table.
fn collect_metrics(shared: &NetShared) -> MetricTable {
    let net = net_stats(shared);
    let server = &net.server;
    let rate = |ips: f64| format!("{ips:.3}");
    let scalars = vec![
        Metric::new("snn_net_protocol_version", Gauge, crate::protocol::VERSION)
            .exposed_as("net_protocol_version"),
        Metric::new("completed", Counter, server.completed),
        Metric::new("errors", Counter, server.errors),
        Metric::new("panics", Counter, server.panics),
        Metric::new("rejected", Counter, server.rejected),
        Metric::new("deadline_sheds", Counter, server.deadline_sheds),
        Metric::new("reactor_alive", Gauge, u8::from(net.reactor_alive)),
        Metric::new("reactor_backend", Info, shared.backend),
        Metric::new("replicas", Gauge, server.replicas),
        Metric::new("replicas_healthy", Gauge, server.healthy_replicas),
        Metric::new("queue_depth", Gauge, server.queue.depth),
        Metric::new("queue_capacity", Gauge, server.queue.capacity),
        Metric::new("drain_rate_ips", Gauge, rate(server.queue.drain_rate_ips)),
        Metric::new("throughput_ips", Gauge, rate(server.throughput_ips())),
        Metric::new("thread_budget", Gauge, server.thread_budget),
        Metric::new("connections_accepted", Counter, net.accepted),
        Metric::new("connections_turned_away", Counter, net.turned_away),
        Metric::new("connections_open", Gauge, net.open_connections),
        Metric::new("connections_max", Gauge, shared.options.max_connections),
        Metric::new("requests", Counter, net.requests),
        Metric::new("protocol_errors", Counter, net.protocol_errors),
        Metric::new("stats_requests", Counter, net.stats_requests),
        Metric::new(
            "trace_open_spans",
            Gauge,
            shared.server.recorder().open_spans(),
        ),
    ];
    // The one-member reactor family: Prometheus carries the backend only
    // here (an info scalar has no exposition of its own).
    let reactor = |r: &ReactorStats| {
        let rows = vec![
            Metric::new("backend", Info, r.backend),
            Metric::new("connections", Gauge, r.open_connections),
            Metric::new("accepted", Counter, r.accepted),
            Metric::new("turned_away", Counter, r.turned_away),
            Metric::new("requests", Counter, r.requests),
            Metric::new("protocol_errors", Counter, r.protocol_errors),
            Metric::new("stats_requests", Counter, r.stats_requests),
        ];
        ("0".to_string(), rows)
    };
    let replica = |r: &ReplicaStats| {
        let rows = vec![
            Metric::new("healthy", Gauge, u8::from(r.healthy)),
            Metric::new("completed", Counter, r.completed),
            Metric::new("errors", Counter, r.errors),
            Metric::new("panics", Counter, r.panics),
            Metric::new("deadline_sheds", Counter, r.deadline_sheds),
            Metric::new("drain_rate_ips", Gauge, rate(r.drain_rate_ips)),
        ];
        (r.index.to_string(), rows)
    };
    let unit = |u: &UnitUtilisation| {
        let rows = vec![
            Metric::new("units", Gauge, u.units).exposed_as("count"),
            Metric::new("busy_cycles", Gauge, u.busy_cycles),
            Metric::new("total_cycles", Gauge, u.total_cycles),
            Metric::new("utilisation", Gauge, format!("{:.4}", u.utilisation())),
        ];
        (format!("{:?}", u.kind), rows)
    };
    let family = |label, members| MetricFamily { label, members };
    MetricTable {
        scalars,
        families: vec![
            family("reactor", net.per_reactor.iter().map(reactor).collect()),
            family("replica", server.per_replica.iter().map(replica).collect()),
            family("unit", server.utilisation.iter().map(unit).collect()),
        ],
        histograms: shared.server.recorder().histogram_families(),
    }
}
