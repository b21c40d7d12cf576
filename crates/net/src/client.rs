//! Pure-Rust client side of the `snn-net` protocol.
//!
//! Three layers, smallest first:
//!
//! * [`NetClient`] — one blocking TCP connection.  Every request carries a
//!   connection-unique request id; [`NetClient::infer`] awaits its own
//!   reply, [`NetClient::infer_many`] **pipelines** a whole batch (all
//!   requests written back-to-back, replies correlated by id in whatever
//!   completion order the server chooses).
//! * [`BackoffPolicy`] — deterministic jittered exponential backoff,
//!   seeded from the server's retry-after hints.
//!   [`NetClient::infer_with_retry`] applies it instead of sleeping the
//!   hint verbatim, so synchronized clients spread out instead of
//!   thundering back in lock-step.
//! * [`NetPool`] — a thread-safe connection pool: callers borrow a healthy
//!   connection per call (new ones are dialled on demand, poisoned ones
//!   are discarded), so many threads share warm connections without
//!   re-handshaking.
//!
//! [`scrape_stats`] performs the plaintext `STATS` one-shot that a
//! dependency-free scraper (or `nc`) would.

use crate::error::NetError;
use crate::protocol::{
    stats_format, Frame, InferRequest, ScoreReply, NO_REQUEST_ID, STATS_LINE, TRACES_LINE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_tensor::Tensor;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// How long a client waits on a single reply before giving up — generous,
/// because a cycle-accurate inference behind a deep queue is slow, but
/// finite, so a wedged server cannot hang the client forever.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic jittered exponential backoff for retrying shed requests.
///
/// The server's retry-after hint **seeds** the schedule (it is the
/// first-attempt ceiling) instead of being slept verbatim: the ceiling
/// doubles per attempt up to [`BackoffPolicy::cap_ms`], and the actual
/// sleep is drawn uniformly from the upper half of the ceiling
/// (equal-jitter), so a crowd of clients shed together does not retry
/// together.  The jitter is a pure function of `(seed, attempt)` via the
/// vendored deterministic `rand`, so tests are reproducible and two
/// clients decorrelate by seeding differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt ceiling when the server supplied no hint
    /// (milliseconds).
    pub base_ms: u64,
    /// Upper clamp of any single sleep (milliseconds).
    pub cap_ms: u64,
    /// Jitter stream seed; give concurrent clients distinct seeds.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 25,
            cap_ms: 10_000,
            seed: 0x5eed_b0ff,
        }
    }
}

impl BackoffPolicy {
    /// The sleep before retry number `attempt` (1-based) of a request
    /// whose latest rejection carried `hint_ms`.
    ///
    /// Deterministic in `(self, attempt, hint_ms)`; monotone bounds:
    /// always within `1..=cap_ms`, and at least half the exponential
    /// ceiling so a loaded server is never hammered early.
    pub fn delay_ms(&self, attempt: usize, hint_ms: Option<u64>) -> u64 {
        let attempt = attempt.max(1);
        let base = hint_ms.unwrap_or(self.base_ms).clamp(1, self.cap_ms.max(1));
        let doublings = (attempt - 1).min(20) as u32;
        let ceiling = base
            .saturating_mul(1u64 << doublings)
            .min(self.cap_ms.max(1));
        let floor = (ceiling / 2).max(1);
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.gen_range(floor..=ceiling)
    }
}

/// A blocking client connection to a [`crate::server::NetServer`].
///
/// Any transport or protocol error **poisons** the connection: after a
/// timeout the stream may still carry the late reply to the failed
/// exchange, so silently reusing it would hand that stale frame to the
/// next request.  A poisoned client fails every further call with
/// [`NetError::Poisoned`]; reconnect instead.  Typed replies (scores,
/// rejections, server errors) leave the stream in sync and do not poison.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    /// Resolved peer address, kept so [`NetClient::infer_with_retry`] can
    /// reconnect after a connection-scope rejection (the server hangs up
    /// after shedding a connection).
    addr: SocketAddr,
    buf: Vec<u8>,
    poisoned: bool,
    next_request_id: u64,
    /// Current per-reply wait bound (see [`NetClient::set_reply_timeout`]);
    /// quoted in [`NetError::Timeout`] and preserved across the reconnects
    /// [`NetClient::infer_with_retry`] performs.
    reply_timeout: Duration,
}

impl NetClient {
    /// Connects to a serving front-end.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let addr = stream.peer_addr()?;
        Ok(NetClient {
            stream,
            addr,
            buf: Vec::new(),
            poisoned: false,
            next_request_id: 0,
            reply_timeout: REPLY_TIMEOUT,
        })
    }

    /// Replaces the default [`REPLY_TIMEOUT`] wait bound on every reply
    /// read.  Expiry surfaces as the typed [`NetError::Timeout`] (and
    /// poisons the connection — the late reply may still arrive), so an
    /// impatient caller distinguishes "slow server" from transport
    /// failure.
    ///
    /// # Errors
    ///
    /// Socket errors ([`Duration::ZERO`] is rejected by the OS).
    pub fn set_reply_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.reply_timeout = timeout;
        Ok(())
    }

    /// Whether an earlier failed exchange has poisoned this connection
    /// (see the type docs); a poisoned client must be replaced.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The resolved server address this client dialled.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_request_id;
        // Skip the sentinel on wrap (not reachable in practice).
        self.next_request_id = self.next_request_id.wrapping_add(1);
        if self.next_request_id == NO_REQUEST_ID {
            self.next_request_id = 0;
        }
        id
    }

    /// Submits one inference and blocks for its scores.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] when the server shed the request under load
    /// (check [`NetError::retry_after_ms`] and back off),
    /// [`NetError::Remote`] for request failures,
    /// [`NetError::Protocol`] locally when the tensor violates a wire
    /// limit (see [`InferRequest::validate`]), and transport errors
    /// otherwise.
    pub fn infer(&mut self, input: &Tensor<f32>) -> Result<ScoreReply, NetError> {
        let mut replies = self.infer_many(std::slice::from_ref(input))?;
        replies
            .pop()
            .expect("infer_many returns one slot per input")
    }

    /// **Pipelines** `inputs` over this connection: every INFER frame is
    /// written back-to-back before any reply is read, so the server can
    /// overlap queueing, compute and transfer across the whole batch.
    /// Replies arrive in completion order and are correlated back to their
    /// request by id; the returned vector is in `inputs` order.
    ///
    /// Rejections and request-level failures settle **their own slot**
    /// (inner `Err`) without disturbing the rest of the batch.
    ///
    /// # Errors
    ///
    /// The outer error is connection-fatal: local wire-limit violations
    /// (nothing was sent, the connection stays usable), transport
    /// failures, or protocol violations (these poison the client).
    #[allow(clippy::type_complexity)]
    pub fn infer_many(
        &mut self,
        inputs: &[Tensor<f32>],
    ) -> Result<Vec<Result<ScoreReply, NetError>>, NetError> {
        self.infer_many_within(inputs, None)
    }

    /// [`NetClient::infer_many`] with a per-request **queue-wait
    /// deadline** (milliseconds) attached to every request in the batch:
    /// a request still queued server-side past the deadline is shed
    /// *before compute* and its slot settles with [`NetError::Rejected`]
    /// (`scope = deadline`, retry hint included) — bounded staleness
    /// instead of a stale answer.
    ///
    /// # Errors
    ///
    /// See [`NetClient::infer_many`].
    #[allow(clippy::type_complexity)]
    pub fn infer_many_within(
        &mut self,
        inputs: &[Tensor<f32>],
        deadline_ms: Option<u32>,
    ) -> Result<Vec<Result<ScoreReply, NetError>>, NetError> {
        if self.poisoned {
            return Err(NetError::Poisoned);
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = Vec::new();
        let mut id_to_index: HashMap<u64, usize> = HashMap::with_capacity(inputs.len());
        for (index, input) in inputs.iter().enumerate() {
            let mut request = InferRequest::from_tensor(self.next_id(), input);
            if let Some(ms) = deadline_ms {
                request = request.with_deadline(ms);
            }
            // Fail limit violations (oversized tensors, rank) locally with
            // the same typed error the server's decoder would raise —
            // before anything is sent, so the connection stays clean.
            request.validate()?;
            id_to_index.insert(request.request_id, index);
            batch.extend_from_slice(&Frame::Infer(request).encode());
        }
        let mut slots: Vec<Option<Result<ScoreReply, NetError>>> = Vec::new();
        slots.resize_with(inputs.len(), || None);
        match self.exchange_many(&batch, &mut slots, &mut id_to_index) {
            Ok(()) => Ok(slots
                .into_iter()
                .map(|slot| slot.expect("every request settled"))
                .collect()),
            Err(err) => {
                // The stream may hold (or later receive) replies we can no
                // longer pair with their requests; never reuse it.
                self.poisoned = true;
                Err(err)
            }
        }
    }

    /// One batched write, then reply correlation until every slot settles.
    fn exchange_many(
        &mut self,
        batch: &[u8],
        slots: &mut [Option<Result<ScoreReply, NetError>>],
        id_to_index: &mut HashMap<u64, usize>,
    ) -> Result<(), NetError> {
        self.stream.write_all(batch)?;
        self.stream.flush()?;
        let mut remaining = slots.len();
        while remaining > 0 {
            let frame = self.read_frame()?;
            let (request_id, outcome): (u64, Result<ScoreReply, NetError>) = match frame {
                Frame::Scores(reply) => (reply.request_id, Ok(reply)),
                Frame::Rejected(reply) => (reply.request_id, Err(NetError::Rejected(reply))),
                Frame::Error(reply) => (
                    reply.request_id,
                    Err(NetError::Remote {
                        code: reply.code,
                        message: reply.message,
                    }),
                ),
                _ => {
                    return Err(NetError::Protocol(
                        crate::protocol::ProtocolError::Malformed(
                            "unexpected reply frame to an inference request".to_string(),
                        ),
                    ))
                }
            };
            if request_id == NO_REQUEST_ID {
                // A connection-scope reply (shed / protocol error) answers
                // everything still outstanding; the server hangs up next.
                for (_, &index) in id_to_index.iter() {
                    if slots[index].is_none() {
                        slots[index] = Some(clone_outcome(&outcome));
                    }
                }
                return Ok(());
            }
            let index = id_to_index.remove(&request_id).ok_or_else(|| {
                NetError::Protocol(crate::protocol::ProtocolError::Malformed(format!(
                    "reply for unknown request id {request_id}"
                )))
            })?;
            slots[index] = Some(outcome);
            remaining -= 1;
        }
        Ok(())
    }

    /// Submits one inference, retrying shed requests under the default
    /// [`BackoffPolicy`] (jittered exponential backoff seeded from the
    /// server's retry-after hints), up to `attempts` tries total.
    ///
    /// Connection-scope rejections (the server's connection table was
    /// full, [`crate::protocol::reject_scope::CONNECTIONS`]) close the
    /// shed connection server-side, so the helper reconnects before those
    /// retries; queue-scope rejections retry on the same connection.
    /// Reply timeouts ([`NetError::Timeout`]) also retry — they poison the
    /// connection (the late reply may still arrive on it), so those
    /// retries always reconnect first.
    ///
    /// # Errors
    ///
    /// The final rejection or timeout when every attempt failed that way,
    /// or any other error immediately.
    pub fn infer_with_retry(
        &mut self,
        input: &Tensor<f32>,
        attempts: usize,
    ) -> Result<ScoreReply, NetError> {
        self.infer_with_retry_using(input, attempts, &BackoffPolicy::default())
    }

    /// [`NetClient::infer_with_retry`] under an explicit [`BackoffPolicy`].
    ///
    /// # Errors
    ///
    /// See [`NetClient::infer_with_retry`].
    pub fn infer_with_retry_using(
        &mut self,
        input: &Tensor<f32>,
        attempts: usize,
        policy: &BackoffPolicy,
    ) -> Result<ScoreReply, NetError> {
        let attempts = attempts.max(1);
        for attempt in 1..=attempts {
            match self.infer(input) {
                Err(err) if err.is_backpressure() || matches!(err, NetError::Timeout { .. }) => {
                    if attempt == attempts {
                        // Out of attempts: return the rejection in hand
                        // instead of sleeping through a hint we will never
                        // act on.
                        return Err(err);
                    }
                    // A connection-scope shed is closed server-side, and a
                    // timeout poisons the stream client-side; both retries
                    // need a fresh connection.  Queue-scope rejections
                    // retry in place.
                    let reconnect = matches!(err, NetError::Timeout { .. })
                        || matches!(
                            &err,
                            NetError::Rejected(reply)
                                if reply.scope == crate::protocol::reject_scope::CONNECTIONS
                        );
                    let wait = policy.delay_ms(attempt, err.retry_after_ms());
                    std::thread::sleep(Duration::from_millis(wait));
                    if reconnect {
                        let timeout = self.reply_timeout;
                        *self = NetClient::connect(self.addr)?;
                        if timeout != REPLY_TIMEOUT {
                            self.set_reply_timeout(timeout)?;
                        }
                    }
                }
                other => return other,
            }
        }
        unreachable!("every attempt either returned or slept toward the next")
    }

    /// Fetches the server's plaintext counters over the framed protocol
    /// (the connection stays usable afterwards).
    ///
    /// Call with no inferences in flight: the stats reply carries no
    /// request id, so it cannot be correlated amid pipelined traffic.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn stats_text(&mut self) -> Result<String, NetError> {
        self.stats(stats_format::TEXT)
    }

    /// Fetches the server's counters in Prometheus exposition format
    /// (`# TYPE` lines, `snn_`-prefixed metric names).
    ///
    /// # Errors
    ///
    /// See [`NetClient::stats_text`].
    pub fn stats_prometheus(&mut self) -> Result<String, NetError> {
        self.stats(stats_format::PROMETHEUS)
    }

    /// Drains the server's completed per-request traces as JSONL (one
    /// trace object per line; parse with
    /// `snn_telemetry::RequestTrace::from_json_line`).  The drain is
    /// destructive: each trace is returned exactly once across all
    /// scrapers.  An empty string means no requests completed since the
    /// last drain (or tracing is disabled).
    ///
    /// # Errors
    ///
    /// See [`NetClient::stats_text`].
    pub fn stats_traces(&mut self) -> Result<String, NetError> {
        self.stats(stats_format::TRACES)
    }

    fn stats(&mut self, format: u8) -> Result<String, NetError> {
        match self.roundtrip(&Frame::StatsRequest { format })? {
            Frame::StatsText(text) => Ok(text),
            Frame::Rejected(reply) => Err(NetError::Rejected(reply)),
            Frame::Error(reply) => Err(NetError::Remote {
                code: reply.code,
                message: reply.message,
            }),
            _ => Err(NetError::Protocol(
                crate::protocol::ProtocolError::Malformed(
                    "unexpected reply frame to a stats request".to_string(),
                ),
            )),
        }
    }

    fn roundtrip(&mut self, request: &Frame) -> Result<Frame, NetError> {
        if self.poisoned {
            return Err(NetError::Poisoned);
        }
        match self.exchange(request) {
            Ok(frame) => Ok(frame),
            Err(err) => {
                // The stream may hold (or later receive) a reply we can no
                // longer pair with its request; never reuse it.
                self.poisoned = true;
                Err(err)
            }
        }
    }

    fn exchange(&mut self, request: &Frame) -> Result<Frame, NetError> {
        request.write_to(&mut self.stream)?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        let mut scratch = [0u8; 8192];
        loop {
            if let Some((frame, used)) = Frame::decode(&self.buf)? {
                self.buf.drain(..used);
                return Ok(frame);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                // The read timeout expiring is WouldBlock or TimedOut
                // depending on platform; both mean "no reply in time",
                // which gets its own type so callers can retry on a fresh
                // connection instead of treating it as transport failure.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(NetError::Timeout {
                        waited: self.reply_timeout,
                    })
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Clones a per-request outcome so a connection-scope reply can settle
/// every outstanding slot ([`NetError`] itself is not `Clone` — IO errors
/// are not — but the reply-shaped variants used here are value types).
fn clone_outcome(outcome: &Result<ScoreReply, NetError>) -> Result<ScoreReply, NetError> {
    match outcome {
        Ok(reply) => Ok(reply.clone()),
        Err(NetError::Rejected(reply)) => Err(NetError::Rejected(*reply)),
        Err(NetError::Remote { code, message }) => Err(NetError::Remote {
            code: *code,
            message: message.clone(),
        }),
        // Unreachable by construction: only reply-shaped outcomes are
        // broadcast.  Degrade to a typed protocol error rather than panic.
        Err(_) => Err(NetError::Protocol(
            crate::protocol::ProtocolError::Malformed("unclonable broadcast outcome".to_string()),
        )),
    }
}

/// Options of a [`NetPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOptions {
    /// Most idle (checked-in) connections kept warm; extra connections are
    /// simply dropped on check-in.  Checked-*out* connections are not
    /// bounded — the pool dials on demand — so concurrency is limited by
    /// the server's connection cap, not the client.
    pub max_idle: usize,
    /// Retry attempts [`NetPool::infer`] spends on backpressure.
    pub retry_attempts: usize,
    /// Backoff schedule for those retries.
    pub backoff: BackoffPolicy,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            max_idle: 8,
            retry_attempts: 4,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// A thread-safe pool of [`NetClient`] connections to one server.
///
/// Shared by reference across threads (`&NetPool` is `Sync`): each call
/// checks a connection out, runs, and checks it back in if it is still
/// healthy.  Poisoned or shed connections are dropped, not recycled, so a
/// pooled caller never inherits a desynchronized stream.
#[derive(Debug)]
pub struct NetPool {
    addr: SocketAddr,
    options: PoolOptions,
    idle: Mutex<Vec<NetClient>>,
}

impl NetPool {
    /// Resolves `addr` and dials one probe connection (kept warm), so a
    /// bad address fails here and not on first use.
    ///
    /// # Errors
    ///
    /// Socket errors (resolution, refused connection).
    pub fn connect<A: ToSocketAddrs>(addr: A, options: PoolOptions) -> Result<Self, NetError> {
        let first = NetClient::connect(addr)?;
        let pool = NetPool {
            addr: first.peer_addr(),
            options,
            idle: Mutex::new(Vec::new()),
        };
        pool.check_in(first);
        Ok(pool)
    }

    /// The resolved server address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle connections currently kept warm.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().expect("pool lock").len()
    }

    /// One inference on a pooled connection, with jittered-backoff retries
    /// per [`PoolOptions`].
    ///
    /// # Errors
    ///
    /// See [`NetClient::infer_with_retry`].
    pub fn infer(&self, input: &Tensor<f32>) -> Result<ScoreReply, NetError> {
        let mut client = self.check_out()?;
        let result = client.infer_with_retry_using(
            input,
            self.options.retry_attempts,
            &self.options.backoff,
        );
        self.check_in(client);
        result
    }

    /// Pipelines `inputs` over one pooled connection — see
    /// [`NetClient::infer_many`].
    ///
    /// # Errors
    ///
    /// See [`NetClient::infer_many`].
    #[allow(clippy::type_complexity)]
    pub fn infer_many(
        &self,
        inputs: &[Tensor<f32>],
    ) -> Result<Vec<Result<ScoreReply, NetError>>, NetError> {
        let mut client = self.check_out()?;
        let result = client.infer_many(inputs);
        self.check_in(client);
        result
    }

    fn check_out(&self) -> Result<NetClient, NetError> {
        if let Some(client) = self.idle.lock().expect("pool lock").pop() {
            return Ok(client);
        }
        NetClient::connect(self.addr)
    }

    fn check_in(&self, client: NetClient) {
        if client.is_poisoned() {
            return;
        }
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < self.options.max_idle {
            idle.push(client);
        }
    }
}

/// One-shot plaintext scrape: connects, sends the ASCII `STATS` line and
/// reads until the server closes — exactly what `echo STATS | nc` does.
///
/// # Errors
///
/// [`NetError::Rejected`] when the server shed the connection under load
/// (it answers with a framed REJECTED before the plaintext line is
/// processed), [`NetError::Protocol`] for a non-text reply, and socket
/// errors otherwise.
pub fn scrape_stats<A: ToSocketAddrs>(addr: A) -> Result<String, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    // One write: a Nagle-delayed lone terminator would stall the server,
    // which cannot answer until the full line arrives.
    let mut line = STATS_LINE.to_vec();
    line.push(b'\n');
    stream.write_all(&line)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    // A saturated server sheds the connection with a framed REJECTED
    // before ever seeing the plaintext request — surface it typed instead
    // of returning binary bytes as "stats text".
    if reply.starts_with(&crate::protocol::MAGIC) {
        return match Frame::decode(&reply)? {
            Some((Frame::Rejected(rejected), _)) => Err(NetError::Rejected(rejected)),
            _ => Err(NetError::Protocol(
                crate::protocol::ProtocolError::Malformed(
                    "framed reply to a plaintext stats request".to_string(),
                ),
            )),
        };
    }
    String::from_utf8(reply).map_err(|_| {
        NetError::Protocol(crate::protocol::ProtocolError::Malformed(
            "stats reply is not UTF-8".to_string(),
        ))
    })
}

/// One-shot plaintext trace drain: connects, sends the ASCII `TRACES`
/// line and reads the JSONL dump until the server closes — the `nc`
/// spelling of [`NetClient::stats_traces`].  Destructive like the framed
/// form: each completed trace is returned exactly once.
///
/// # Errors
///
/// See [`scrape_stats`].
pub fn scrape_traces<A: ToSocketAddrs>(addr: A) -> Result<String, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut line = TRACES_LINE.to_vec();
    line.push(b'\n');
    stream.write_all(&line)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    if reply.starts_with(&crate::protocol::MAGIC) {
        return match Frame::decode(&reply)? {
            Some((Frame::Rejected(rejected), _)) => Err(NetError::Rejected(rejected)),
            _ => Err(NetError::Protocol(
                crate::protocol::ProtocolError::Malformed(
                    "framed reply to a plaintext traces request".to_string(),
                ),
            )),
        };
    }
    String::from_utf8(reply).map_err(|_| {
        NetError::Protocol(crate::protocol::ProtocolError::Malformed(
            "traces reply is not UTF-8".to_string(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RejectReply;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = BackoffPolicy::default();
        for attempt in 1..=10 {
            for hint in [None, Some(1), Some(40), Some(100_000)] {
                let a = policy.delay_ms(attempt, hint);
                let b = policy.delay_ms(attempt, hint);
                assert_eq!(a, b, "same inputs, same delay");
                assert!(a >= 1);
                assert!(a <= policy.cap_ms, "attempt {attempt} hint {hint:?}: {a}");
            }
        }
    }

    #[test]
    fn backoff_ceiling_grows_exponentially_from_the_hint() {
        let policy = BackoffPolicy {
            base_ms: 25,
            cap_ms: 1_000_000,
            seed: 7,
        };
        let hint = Some(40);
        for attempt in 1..=8usize {
            let delay = policy.delay_ms(attempt, hint);
            let ceiling = 40u64 << (attempt - 1);
            assert!(
                delay >= ceiling / 2 && delay <= ceiling,
                "attempt {attempt}: {delay} outside [{}, {ceiling}]",
                ceiling / 2
            );
        }
    }

    #[test]
    fn backoff_respects_the_cap_and_jitters_across_seeds() {
        let policy = BackoffPolicy {
            base_ms: 100,
            cap_ms: 500,
            seed: 1,
        };
        // Deep attempts saturate at the cap's upper half.
        let deep = policy.delay_ms(30, Some(400));
        assert!((250..=500).contains(&deep), "deep delay {deep}");
        // Different seeds decorrelate (with overwhelming probability at
        // this ceiling width; these two seeds are pinned to differ).
        let other = BackoffPolicy { seed: 2, ..policy };
        let spread: Vec<u64> = (1..=6).map(|a| policy.delay_ms(a, Some(400))).collect();
        let spread_other: Vec<u64> = (1..=6).map(|a| other.delay_ms(a, Some(400))).collect();
        assert_ne!(spread, spread_other, "seeds must decorrelate schedules");
    }

    #[test]
    fn clone_outcome_covers_the_broadcast_variants() {
        let ok = clone_outcome(&Ok(ScoreReply {
            request_id: 1,
            prediction: 2,
            time_steps: 3,
            thread_budget: 2,
            total_cycles: 9,
            logits: vec![1, 2, 3],
        }));
        assert!(ok.is_ok());
        let rejected = clone_outcome(&Err(NetError::Rejected(RejectReply {
            request_id: NO_REQUEST_ID,
            scope: crate::protocol::reject_scope::CONNECTIONS,
            queued: 1,
            capacity: 1,
            retry_after_ms: 100,
            drain_rate_mips: 0,
        })));
        assert!(matches!(rejected, Err(NetError::Rejected(_))));
        let remote = clone_outcome(&Err(NetError::Remote {
            code: 1,
            message: "nope".to_string(),
        }));
        assert!(matches!(remote, Err(NetError::Remote { .. })));
    }
}
