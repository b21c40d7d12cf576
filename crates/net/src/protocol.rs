//! The `snn-net` wire protocol: length-prefixed binary frames with a
//! versioned header.
//!
//! Every frame is `MAGIC (4) | version u16 | kind u16 | payload length u32
//! | payload`, all integers little-endian.  The codec is a pure function of
//! byte slices — [`Frame::encode`] and [`Frame::decode`] — so it can be
//! property-tested without sockets: decoding never panics, never reads past
//! the declared length, and rejects oversized frames from the header alone
//! (before any payload is buffered), so a hostile peer cannot make the
//! server allocate unboundedly or hang.
//!
//! Incremental reads are first-class: [`Frame::decode`] returns `Ok(None)`
//! while the buffer holds only a prefix of a valid frame, which is how the
//! connection loops feed it straight from `read` without re-framing.
//!
//! # Frame kinds
//!
//! | kind | direction | payload |
//! | --- | --- | --- |
//! | `INFER` (1) | client → server | request id, flags, tensor shape + `f32` values |
//! | `SCORES` (2) | server → client | request id, prediction, logits, report summary |
//! | `REJECTED` (3) | server → client | request id, load-shed scope, queue depth/capacity, retry-after hint, drain rate |
//! | `ERROR` (4) | server → client | request id, error code + message |
//! | `STATS_REQUEST` (5) | client → server | content-negotiation format byte |
//! | `STATS_TEXT` (6) | server → client | plaintext or Prometheus counters |
//!
//! # Request pipelining
//!
//! Version 2 prefixes every request/response payload with a **request id**
//! (`u64`, chosen by the client, unique per connection).  A client may keep
//! any number of INFER frames in flight on one connection; the server
//! answers **in completion order**, echoing each request's id in its
//! SCORES/REJECTED/ERROR reply so the client can correlate out-of-order
//! responses.  Replies the server originates without a request (a
//! connection-scope REJECTED, a protocol-error ERROR) carry
//! [`NO_REQUEST_ID`].
//!
//! Scrapers that do not speak the framing can send the ASCII line `STATS\n`
//! instead (detected before frame decoding because it cannot collide with
//! [`MAGIC`]); the server answers with the same plaintext counters and
//! closes the connection, `nc`-style.

use snn_tensor::Tensor;
use std::fmt;
use std::io::{self, Write};

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SNNF";

/// Protocol version this build speaks.  Version 2 added the request-id
/// field to the INFER/SCORES/REJECTED/ERROR payloads (per-connection
/// pipelining) and the content-negotiation byte to STATS_REQUEST.
/// Version 3 defined the first INFER flag,
/// [`infer_flags::HAS_DEADLINE`], whose presence appends a `u32`
/// queue-wait deadline (milliseconds) to the INFER payload.
pub const VERSION: u16 = 3;

/// Request id carried by server-originated replies that answer no specific
/// request (connection-scope rejections, protocol errors).
pub const NO_REQUEST_ID: u64 = u64::MAX;

/// Bytes of the fixed frame header (magic + version + kind + length).
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload (16 MiB) — enforced from the header
/// alone, before any payload is read.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Upper bound on the rank of a transmitted tensor.
pub const MAX_RANK: usize = 8;

/// The plaintext request line accepted instead of a framed
/// [`Frame::StatsRequest`].
pub const STATS_LINE: &[u8] = b"STATS";

/// The plaintext request line that drains the per-request trace ring as
/// JSONL — the `nc`-friendly spelling of a framed
/// [`Frame::StatsRequest`] with [`stats_format::TRACES`].
pub const TRACES_LINE: &[u8] = b"TRACES";

/// A malformed or hostile byte stream, detected by the codec.
///
/// Protocol errors are terminal for a connection but must never panic or
/// hang the server — the property suite pins this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream does not start with [`MAGIC`] (missing bytes are zero).
    BadMagic([u8; 4]),
    /// The peer speaks an unsupported protocol version.
    Version(u16),
    /// The header names a frame kind this build does not know.
    UnknownKind(u16),
    /// The header declares a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The payload does not parse as its frame kind.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(found) => {
                write!(f, "bad frame magic {found:?} (expected {MAGIC:?})")
            }
            ProtocolError::Version(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Oversized { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            ProtocolError::Malformed(context) => write!(f, "malformed payload: {context}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Load-shed scope carried by a [`RejectReply`].
pub mod reject_scope {
    /// The inference submission queue was full.
    pub const QUEUE: u16 = 1;
    /// The connection cap (`NetOptions::max_connections`) was reached.
    pub const CONNECTIONS: u16 = 2;
    /// The request waited in the submission queue past its deadline and
    /// was shed before compute (see [`super::infer_flags::HAS_DEADLINE`]
    /// and `ServerOptions::max_queue_wait`).
    pub const DEADLINE: u16 = 3;
}

/// Bit flags carried by an [`InferRequest`] (see
/// [`InferRequest::deadline_ms`]); servers ignore unknown bits.
pub mod infer_flags {
    /// The payload carries a `u32` queue-wait deadline in milliseconds
    /// immediately after the flags word.
    pub const HAS_DEADLINE: u32 = 1;
}

/// Content-negotiation formats carried by a [`Frame::StatsRequest`].
pub mod stats_format {
    /// Plaintext `key: value` lines (the default).
    pub const TEXT: u8 = 0;
    /// Prometheus exposition format: `# TYPE` lines plus `snn_`-prefixed
    /// metric names, ready for a Prometheus scrape endpoint.
    pub const PROMETHEUS: u8 = 1;
    /// JSONL trace export: one completed `RequestTrace` object per line,
    /// drained (destructively) from the server's span recorder ring.
    pub const TRACES: u8 = 2;
}

/// Error codes carried by an [`ErrorReply`].
pub mod error_code {
    /// The request was structurally valid but could not be executed
    /// (e.g. a tensor shape the compiled model does not accept).
    pub const BAD_REQUEST: u16 = 1;
    /// The server is shutting down and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 2;
    /// The peer violated the frame protocol.
    pub const PROTOCOL: u16 = 3;
    /// The execution engine panicked on this request; the panic was
    /// isolated to this inference and the server keeps serving.
    pub const ENGINE_PANIC: u16 = 4;
    /// The replica engine that dequeued this request died before serving
    /// it.  The request was admitted and then lost — not backpressure —
    /// but sibling replicas keep serving, so the client should resubmit.
    pub const REPLICA_DOWN: u16 = 5;
}

/// An inference request: an encoded input tensor plus option flags.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Client-chosen correlation id, echoed verbatim in the reply.  Must be
    /// unique among this connection's in-flight requests (and not
    /// [`NO_REQUEST_ID`]); reusing an id makes replies ambiguous to the
    /// client, the server does not police it.
    pub request_id: u64,
    /// Request option flags (see [`infer_flags`]); the
    /// [`infer_flags::HAS_DEADLINE`] bit is derived from `deadline_ms` at
    /// encode time, servers ignore unknown bits.
    pub flags: u32,
    /// Per-request **queue-wait deadline** in milliseconds: if the server
    /// cannot start computing within this long of admission, it sheds the
    /// request with a REJECTED frame of scope
    /// [`reject_scope::DEADLINE`] instead of computing it late.  `None`
    /// defers to the server-wide policy.
    pub deadline_ms: Option<u32>,
    /// Tensor shape, outermost dimension first.
    pub shape: Vec<u32>,
    /// Row-major tensor values.
    pub values: Vec<f32>,
}

impl InferRequest {
    /// Packages a tensor for the wire under a correlation id.
    pub fn from_tensor(request_id: u64, tensor: &Tensor<f32>) -> Self {
        InferRequest {
            request_id,
            flags: 0,
            deadline_ms: None,
            shape: tensor.shape().dims().iter().map(|&d| d as u32).collect(),
            values: tensor.as_slice().to_vec(),
        }
    }

    /// Attaches a queue-wait deadline (milliseconds) to this request.
    pub fn with_deadline(mut self, deadline_ms: u32) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Rebuilds the tensor on the receiving side, consuming the request —
    /// the decoded value vector moves straight into the tensor, so the
    /// serving hot path never copies the (up to 16 MiB) payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] when shape and value count
    /// disagree (decoded frames cannot, but hand-built requests can).
    pub fn into_tensor(self) -> Result<Tensor<f32>, ProtocolError> {
        let dims: Vec<usize> = self.shape.iter().map(|&d| d as usize).collect();
        Tensor::from_vec(dims, self.values)
            .map_err(|e| ProtocolError::Malformed(format!("tensor rebuild: {e}")))
    }

    /// Borrowing variant of [`InferRequest::into_tensor`] (clones the
    /// values) for callers that keep the request.
    ///
    /// # Errors
    ///
    /// See [`InferRequest::into_tensor`].
    pub fn to_tensor(&self) -> Result<Tensor<f32>, ProtocolError> {
        self.clone().into_tensor()
    }

    /// Byte length of this request's encoded payload.
    fn payload_len(&self) -> usize {
        // request id + flags + optional deadline + rank + dims + count +
        // values.
        let deadline = if self.deadline_ms.is_some() { 4 } else { 0 };
        8 + 4 + deadline + 4 + 4 * self.shape.len() + 4 + 4 * self.values.len()
    }

    /// Checks this request against every limit the receiving decoder will
    /// enforce — rank, shape/value agreement and the payload cap — so a
    /// client can fail a too-large tensor locally with the same typed
    /// error instead of having the server kill the connection over it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] for rank or shape/value mismatches,
    /// [`ProtocolError::Oversized`] when the encoded payload would exceed
    /// [`MAX_PAYLOAD`].
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.shape.len() > MAX_RANK {
            return Err(ProtocolError::Malformed(format!(
                "tensor rank {} exceeds the limit of {MAX_RANK}",
                self.shape.len()
            )));
        }
        let volume = self
            .shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d as usize))
            .ok_or_else(|| {
                ProtocolError::Malformed("tensor volume overflows the frame limit".into())
            })?;
        if volume != self.values.len() {
            return Err(ProtocolError::Malformed(format!(
                "value count {} does not match the shape volume {volume}",
                self.values.len()
            )));
        }
        let len = self.payload_len();
        if len > MAX_PAYLOAD {
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_PAYLOAD,
            });
        }
        Ok(())
    }
}

/// Class scores plus a summary of the server-side `RunReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreReply {
    /// Echo of the [`InferRequest::request_id`] this reply answers.
    pub request_id: u64,
    /// Predicted class (argmax of `logits`).
    pub prediction: u32,
    /// Spike-train length the inference used.
    pub time_steps: u32,
    /// Effective host thread budget the server drew from.
    pub thread_budget: u32,
    /// Total modelled wall-clock cycles of the inference.
    pub total_cycles: u64,
    /// Raw integer logits, bit-identical to the in-process run.
    pub logits: Vec<i64>,
}

/// Typed load-shedding reply: the request was fine, the server is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectReply {
    /// Echo of the shed request's id, or [`NO_REQUEST_ID`] when the whole
    /// connection was shed before any request existed.
    pub request_id: u64,
    /// What was saturated — see [`reject_scope`].
    pub scope: u16,
    /// Items waiting when the request was shed (queued submissions, or
    /// open connections for [`reject_scope::CONNECTIONS`]).
    pub queued: u64,
    /// The corresponding capacity.
    pub capacity: u64,
    /// Milliseconds the client should wait before retrying, computed from
    /// the live queue depth and recent drain rate.
    pub retry_after_ms: u64,
    /// Recent drain rate in **milli**-inferences per second (integer so the
    /// wire format stays fixed-width; `0` when unmeasured).
    pub drain_rate_mips: u64,
}

/// A request-level failure (not load shedding) — see [`error_code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Echo of the failed request's id, or [`NO_REQUEST_ID`] for
    /// connection-level failures (protocol violations).
    pub request_id: u64,
    /// Machine-readable cause.
    pub code: u16,
    /// Human-readable description.
    pub message: String,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Inference request (client → server).
    Infer(InferRequest),
    /// Successful inference reply.
    Scores(ScoreReply),
    /// Backpressure reply with a retry-after hint.
    Rejected(RejectReply),
    /// Failure reply.
    Error(ErrorReply),
    /// Request for the serving counters in a [`stats_format`].
    StatsRequest {
        /// Requested exposition format (see [`stats_format`]); an empty
        /// payload decodes as [`stats_format::TEXT`].
        format: u8,
    },
    /// Serving counters rendered in the requested format.
    StatsText(String),
}

const KIND_INFER: u16 = 1;
const KIND_SCORES: u16 = 2;
const KIND_REJECTED: u16 = 3;
const KIND_ERROR: u16 = 4;
const KIND_STATS_REQUEST: u16 = 5;
const KIND_STATS_TEXT: u16 = 6;

impl Frame {
    fn kind(&self) -> u16 {
        match self {
            Frame::Infer(_) => KIND_INFER,
            Frame::Scores(_) => KIND_SCORES,
            Frame::Rejected(_) => KIND_REJECTED,
            Frame::Error(_) => KIND_ERROR,
            Frame::StatsRequest { .. } => KIND_STATS_REQUEST,
            Frame::StatsText(_) => KIND_STATS_TEXT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Infer(req) => {
                p.extend_from_slice(&req.request_id.to_le_bytes());
                let mut flags = req.flags & !infer_flags::HAS_DEADLINE;
                if req.deadline_ms.is_some() {
                    flags |= infer_flags::HAS_DEADLINE;
                }
                put_u32(&mut p, flags);
                if let Some(deadline_ms) = req.deadline_ms {
                    put_u32(&mut p, deadline_ms);
                }
                put_u32(&mut p, req.shape.len() as u32);
                for &dim in &req.shape {
                    put_u32(&mut p, dim);
                }
                put_u32(&mut p, req.values.len() as u32);
                for &v in &req.values {
                    p.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Scores(reply) => {
                p.extend_from_slice(&reply.request_id.to_le_bytes());
                put_u32(&mut p, reply.prediction);
                put_u32(&mut p, reply.time_steps);
                put_u32(&mut p, reply.thread_budget);
                p.extend_from_slice(&reply.total_cycles.to_le_bytes());
                put_u32(&mut p, reply.logits.len() as u32);
                for &logit in &reply.logits {
                    p.extend_from_slice(&logit.to_le_bytes());
                }
            }
            Frame::Rejected(reply) => {
                p.extend_from_slice(&reply.request_id.to_le_bytes());
                put_u16(&mut p, reply.scope);
                p.extend_from_slice(&reply.queued.to_le_bytes());
                p.extend_from_slice(&reply.capacity.to_le_bytes());
                p.extend_from_slice(&reply.retry_after_ms.to_le_bytes());
                p.extend_from_slice(&reply.drain_rate_mips.to_le_bytes());
            }
            Frame::Error(reply) => {
                p.extend_from_slice(&reply.request_id.to_le_bytes());
                put_u16(&mut p, reply.code);
                put_u32(&mut p, reply.message.len() as u32);
                p.extend_from_slice(reply.message.as_bytes());
            }
            Frame::StatsRequest { format } => {
                p.push(*format);
            }
            Frame::StatsText(text) => {
                put_u32(&mut p, text.len() as u32);
                p.extend_from_slice(text.as_bytes());
            }
        }
        p
    }

    /// Serializes the frame: header plus payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the `u32` length field — a silent
    /// wrap would desynchronize the stream.  Real requests stay far below
    /// this: [`InferRequest::validate`] bounds them at [`MAX_PAYLOAD`]
    /// before they are encoded.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        assert!(
            payload.len() <= u32::MAX as usize,
            "frame payload of {} bytes overflows the u32 length field",
            payload.len()
        );
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        put_u16(&mut out, self.kind());
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(&payload);
        out
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(Some((frame, consumed)))` when a complete frame parses,
    /// `Ok(None)` when `buf` holds only a prefix of a valid frame (read
    /// more and retry), and an error for malformed input.  Never panics and
    /// never inspects bytes past the declared frame length.
    ///
    /// # Errors
    ///
    /// See [`ProtocolError`].
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtocolError> {
        // Magic mismatches are reported from the first divergent byte, so
        // garbage is rejected without waiting for a full header.
        let probe = buf.len().min(MAGIC.len());
        if buf[..probe] != MAGIC[..probe] {
            let mut found = [0u8; 4];
            found[..probe].copy_from_slice(&buf[..probe]);
            return Err(ProtocolError::BadMagic(found));
        }
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(ProtocolError::Version(version));
        }
        let kind = u16::from_le_bytes([buf[6], buf[7]]);
        // Knowable from the header alone — reject before buffering a
        // payload that would only be thrown away.
        if !(KIND_INFER..=KIND_STATS_TEXT).contains(&kind) {
            return Err(ProtocolError::UnknownKind(kind));
        }
        let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_PAYLOAD,
            });
        }
        if buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &buf[HEADER_LEN..HEADER_LEN + len];
        let frame = parse_payload(kind, payload)?;
        Ok(Some((frame, HEADER_LEN + len)))
    }

    /// Writes the encoded frame to `w` and flushes.
    ///
    /// # Errors
    ///
    /// Propagates the writer's IO errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }
}

fn parse_payload(kind: u16, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut r = PayloadReader::new(payload);
    let frame = match kind {
        KIND_INFER => {
            let request_id = u64::from_le_bytes(r.array()?);
            let flags = r.u32()?;
            let deadline_ms = if flags & infer_flags::HAS_DEADLINE != 0 {
                Some(r.u32()?)
            } else {
                None
            };
            let rank = r.u32()? as usize;
            if rank > MAX_RANK {
                return Err(ProtocolError::Malformed(format!(
                    "tensor rank {rank} exceeds the limit of {MAX_RANK}"
                )));
            }
            let mut shape = Vec::with_capacity(rank);
            let mut volume = 1usize;
            for _ in 0..rank {
                let dim = r.u32()?;
                volume = volume
                    .checked_mul(dim as usize)
                    .filter(|&v| v <= MAX_PAYLOAD / 4)
                    .ok_or_else(|| {
                        ProtocolError::Malformed("tensor volume overflows the frame limit".into())
                    })?;
                shape.push(dim);
            }
            let count = r.u32()? as usize;
            if count != volume {
                return Err(ProtocolError::Malformed(format!(
                    "value count {count} does not match the shape volume {volume}"
                )));
            }
            // Bound the allocation by what the payload can actually hold —
            // a lying header must not cost a 16 MiB Vec before the first
            // short read fails.
            if count > payload.len() / 4 {
                return Err(ProtocolError::Malformed(format!(
                    "value count {count} exceeds the payload"
                )));
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(f32::from_le_bytes(r.array()?));
            }
            Frame::Infer(InferRequest {
                request_id,
                flags: flags & !infer_flags::HAS_DEADLINE,
                deadline_ms,
                shape,
                values,
            })
        }
        KIND_SCORES => {
            let request_id = u64::from_le_bytes(r.array()?);
            let prediction = r.u32()?;
            let time_steps = r.u32()?;
            let thread_budget = r.u32()?;
            let total_cycles = u64::from_le_bytes(r.array()?);
            let count = r.u32()? as usize;
            if count > payload.len() / 8 + 1 {
                return Err(ProtocolError::Malformed(format!(
                    "logit count {count} exceeds the payload"
                )));
            }
            let mut logits = Vec::with_capacity(count);
            for _ in 0..count {
                logits.push(i64::from_le_bytes(r.array()?));
            }
            Frame::Scores(ScoreReply {
                request_id,
                prediction,
                time_steps,
                thread_budget,
                total_cycles,
                logits,
            })
        }
        KIND_REJECTED => Frame::Rejected(RejectReply {
            request_id: u64::from_le_bytes(r.array()?),
            scope: r.u16()?,
            queued: u64::from_le_bytes(r.array()?),
            capacity: u64::from_le_bytes(r.array()?),
            retry_after_ms: u64::from_le_bytes(r.array()?),
            drain_rate_mips: u64::from_le_bytes(r.array()?),
        }),
        KIND_ERROR => {
            let request_id = u64::from_le_bytes(r.array()?);
            let code = r.u16()?;
            let message = r.string()?;
            Frame::Error(ErrorReply {
                request_id,
                code,
                message,
            })
        }
        // An empty payload is TEXT — the format byte is optional so the
        // cheapest possible scraper request stays one bare header.
        KIND_STATS_REQUEST if payload.is_empty() => Frame::StatsRequest {
            format: stats_format::TEXT,
        },
        KIND_STATS_REQUEST => {
            let format = r.array::<1>()?[0];
            if format > stats_format::TRACES {
                return Err(ProtocolError::Malformed(format!(
                    "unknown stats format {format}"
                )));
            }
            Frame::StatsRequest { format }
        }
        KIND_STATS_TEXT => Frame::StatsText(r.string()?),
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(frame)
}

/// Cursor over a complete payload slice; running short is [`Malformed`],
/// not "read more" — the outer length prefix already guaranteed the bytes.
///
/// [`Malformed`]: ProtocolError::Malformed
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.bytes.len() - self.pos < n {
            return Err(ProtocolError::Malformed(format!(
                "payload truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not UTF-8".into()))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos != self.bytes.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Result of probing a connection's first bytes for a plaintext request
/// line ([`STATS_LINE`] or [`TRACES_LINE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaintextProbe {
    /// Not a plaintext request — decode as frames.
    NotStats,
    /// Could still become a plaintext line; read more bytes first.
    NeedMore,
    /// A complete plaintext stats line, `consumed` bytes long.
    Stats {
        /// Bytes of the request line, including the terminator.
        consumed: usize,
    },
    /// A complete plaintext traces line, `consumed` bytes long.
    Traces {
        /// Bytes of the request line, including the terminator.
        consumed: usize,
    },
}

/// Matches `buf` against one plaintext request line (`\n` or `\r\n`
/// terminated), reporting how many bytes the line consumed.
fn probe_line(buf: &[u8], line: &[u8]) -> Option<PlaintextProbe> {
    let probe = buf.len().min(line.len());
    if buf[..probe] != line[..probe] {
        return None;
    }
    let rest = &buf[probe..];
    if probe < line.len() {
        return Some(PlaintextProbe::NeedMore);
    }
    match rest {
        [] | [b'\r'] => Some(PlaintextProbe::NeedMore),
        [b'\n', ..] => Some(PlaintextProbe::Stats {
            consumed: line.len() + 1,
        }),
        [b'\r', b'\n', ..] => Some(PlaintextProbe::Stats {
            consumed: line.len() + 2,
        }),
        _ => None,
    }
}

/// Checks whether `buf` starts with the plaintext `STATS` line
/// (`\n` or `\r\n` terminated).
///
/// Because [`MAGIC`] is `SNNF`, the prefixes diverge at the second byte,
/// so framed traffic never lingers in [`PlaintextProbe::NeedMore`].
pub fn probe_plaintext_stats(buf: &[u8]) -> PlaintextProbe {
    probe_line(buf, STATS_LINE).unwrap_or(PlaintextProbe::NotStats)
}

/// Checks whether `buf` starts with the plaintext `STATS` *or* `TRACES`
/// line (`\n` or `\r\n` terminated).
///
/// `STATS` and [`MAGIC`] (`SNNF`) diverge at the second byte and
/// `TRACES` diverges from both at the first, so at most one line can be
/// pending and framed traffic never lingers in
/// [`PlaintextProbe::NeedMore`].
pub fn probe_plaintext(buf: &[u8]) -> PlaintextProbe {
    if let Some(result) = probe_line(buf, STATS_LINE) {
        return result;
    }
    match probe_line(buf, TRACES_LINE) {
        Some(PlaintextProbe::Stats { consumed }) => PlaintextProbe::Traces { consumed },
        Some(other) => other,
        None => PlaintextProbe::NotStats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap().expect("complete frame");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Infer(InferRequest {
            request_id: 41,
            flags: 0,
            deadline_ms: None,
            shape: vec![1, 4, 4],
            values: (0..16).map(|i| i as f32 / 16.0).collect(),
        }));
        roundtrip(Frame::Scores(ScoreReply {
            request_id: 41,
            prediction: 3,
            time_steps: 4,
            thread_budget: 2,
            total_cycles: 123_456,
            logits: vec![-5, 0, 7, 99],
        }));
        roundtrip(Frame::Rejected(RejectReply {
            request_id: NO_REQUEST_ID,
            scope: reject_scope::QUEUE,
            queued: 8,
            capacity: 8,
            retry_after_ms: 40,
            drain_rate_mips: 2_400_000,
        }));
        roundtrip(Frame::Error(ErrorReply {
            request_id: 7,
            code: error_code::BAD_REQUEST,
            message: "shape [9] is not the model input".to_string(),
        }));
        roundtrip(Frame::StatsRequest {
            format: stats_format::TEXT,
        });
        roundtrip(Frame::StatsRequest {
            format: stats_format::PROMETHEUS,
        });
        roundtrip(Frame::StatsRequest {
            format: stats_format::TRACES,
        });
        roundtrip(Frame::StatsText("completed: 7\n".to_string()));
    }

    #[test]
    fn deadline_travels_as_a_flag_plus_trailing_word() {
        let tensor = Tensor::from_vec(vec![4], vec![0.25f32, 0.5, 0.75, 1.0]).unwrap();
        let request = InferRequest::from_tensor(9, &tensor).with_deadline(250);
        assert_eq!(request.deadline_ms, Some(250));
        roundtrip(Frame::Infer(request.clone()));

        // On the wire the deadline is the HAS_DEADLINE flag bit plus a u32
        // right after the flags word; decode strips the bit back out of
        // `flags` so it is pure option-surface, not caller state.
        let bytes = Frame::Infer(request).encode();
        let flags = u32::from_le_bytes(bytes[HEADER_LEN + 8..HEADER_LEN + 12].try_into().unwrap());
        assert_eq!(flags & infer_flags::HAS_DEADLINE, infer_flags::HAS_DEADLINE);
        let wire_deadline =
            u32::from_le_bytes(bytes[HEADER_LEN + 12..HEADER_LEN + 16].try_into().unwrap());
        assert_eq!(wire_deadline, 250);
        let (decoded, _) = Frame::decode(&bytes).unwrap().expect("complete frame");
        match decoded {
            Frame::Infer(req) => {
                assert_eq!(req.flags & infer_flags::HAS_DEADLINE, 0);
                assert_eq!(req.deadline_ms, Some(250));
            }
            other => panic!("expected INFER, got {other:?}"),
        }

        // A deadline-free request encodes byte-identically to version 2.
        let plain = Frame::Infer(InferRequest::from_tensor(9, &tensor)).encode();
        assert_eq!(plain.len() + 4, bytes.len());
    }

    #[test]
    fn empty_stats_request_payload_decodes_as_text() {
        // A bare v2 header with kind STATS_REQUEST and no payload is the
        // cheapest scraper request; it negotiates the plaintext format.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&5u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let (frame, used) = Frame::decode(&bytes).unwrap().expect("complete frame");
        assert_eq!(used, bytes.len());
        assert_eq!(
            frame,
            Frame::StatsRequest {
                format: stats_format::TEXT
            }
        );
        // Unknown negotiation bytes are typed errors, not silent fallbacks.
        let mut unknown = Frame::StatsRequest {
            format: stats_format::PROMETHEUS,
        }
        .encode();
        unknown[HEADER_LEN] = 9;
        assert!(matches!(
            Frame::decode(&unknown),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn incremental_prefixes_ask_for_more() {
        let bytes = Frame::Scores(ScoreReply {
            request_id: 3,
            prediction: 1,
            time_steps: 3,
            thread_budget: 2,
            total_cycles: 10,
            logits: vec![1, 2],
        })
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn bad_magic_is_detected_from_the_first_divergent_byte() {
        assert!(matches!(
            Frame::decode(b"HTTP/1.1 200 OK"),
            Err(ProtocolError::BadMagic(_))
        ));
        // One matching byte, then divergence.
        assert!(matches!(
            Frame::decode(b"Sx"),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    fn stats_request() -> Frame {
        Frame::StatsRequest {
            format: stats_format::TEXT,
        }
    }

    #[test]
    fn version_kind_and_size_limits_are_enforced() {
        let mut wrong_version = stats_request().encode();
        wrong_version[4] = 9;
        assert_eq!(
            Frame::decode(&wrong_version).unwrap_err(),
            ProtocolError::Version(9)
        );

        let mut wrong_kind = stats_request().encode();
        wrong_kind[6] = 77;
        assert_eq!(
            Frame::decode(&wrong_kind).unwrap_err(),
            ProtocolError::UnknownKind(77)
        );

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC);
        oversized.extend_from_slice(&VERSION.to_le_bytes());
        oversized.extend_from_slice(&1u16.to_le_bytes());
        oversized.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut bytes = stats_request().encode();
        bytes[8] = 2; // declare a 2-byte payload: format byte + trailing
        bytes.push(0);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn infer_shape_volume_must_match_value_count() {
        let frame = Frame::Infer(InferRequest {
            request_id: 1,
            flags: 0,
            deadline_ms: None,
            shape: vec![2, 3],
            values: vec![0.0; 6],
        });
        let mut bytes = frame.encode();
        // Corrupt one shape dimension (offset: header + id + flags + rank).
        bytes[HEADER_LEN + 16] = 5;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn plaintext_stats_probe_handles_all_shapes() {
        assert_eq!(probe_plaintext_stats(b""), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext_stats(b"STA"), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext_stats(b"STATS"), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext_stats(b"STATS\r"), PlaintextProbe::NeedMore);
        assert_eq!(
            probe_plaintext_stats(b"STATS\n"),
            PlaintextProbe::Stats { consumed: 6 }
        );
        assert_eq!(
            probe_plaintext_stats(b"STATS\r\njunk"),
            PlaintextProbe::Stats { consumed: 7 }
        );
        assert_eq!(probe_plaintext_stats(b"STATUS\n"), PlaintextProbe::NotStats);
        // Framed traffic diverges from "STATS" at the third byte.
        assert_eq!(probe_plaintext_stats(&MAGIC), PlaintextProbe::NotStats);
    }

    #[test]
    fn plaintext_traces_probe_handles_all_shapes() {
        // The combined probe still recognises STATS...
        assert_eq!(
            probe_plaintext(b"STATS\n"),
            PlaintextProbe::Stats { consumed: 6 }
        );
        // ...and resolves TRACES, which diverges from both STATS and the
        // frame magic at the very first byte.
        assert_eq!(probe_plaintext(b""), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext(b"TRA"), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext(b"TRACES"), PlaintextProbe::NeedMore);
        assert_eq!(probe_plaintext(b"TRACES\r"), PlaintextProbe::NeedMore);
        assert_eq!(
            probe_plaintext(b"TRACES\n"),
            PlaintextProbe::Traces { consumed: 7 }
        );
        assert_eq!(
            probe_plaintext(b"TRACES\r\njunk"),
            PlaintextProbe::Traces { consumed: 8 }
        );
        assert_eq!(probe_plaintext(b"TRACER\n"), PlaintextProbe::NotStats);
        assert_eq!(probe_plaintext(&MAGIC), PlaintextProbe::NotStats);
    }

    #[test]
    fn validate_enforces_the_decoder_limits_client_side() {
        let fine = InferRequest {
            request_id: 1,
            flags: 0,
            deadline_ms: None,
            shape: vec![1, 4, 4],
            values: vec![0.0; 16],
        };
        assert!(fine.validate().is_ok());
        let deep = InferRequest {
            request_id: 2,
            flags: 0,
            deadline_ms: None,
            shape: vec![1; MAX_RANK + 1],
            values: vec![0.0],
        };
        assert!(matches!(deep.validate(), Err(ProtocolError::Malformed(_))));
        let mismatched = InferRequest {
            request_id: 3,
            flags: 0,
            deadline_ms: None,
            shape: vec![3],
            values: vec![0.0; 2],
        };
        assert!(matches!(
            mismatched.validate(),
            Err(ProtocolError::Malformed(_))
        ));
        // A tensor that would overflow the payload cap fails locally with
        // the same typed error the server would raise.
        let over = MAX_PAYLOAD / 4 + 1; // one element past the payload cap
        let huge = InferRequest {
            request_id: 4,
            flags: 0,
            deadline_ms: None,
            shape: vec![over as u32],
            values: vec![0.0; over],
        };
        let oversized = matches!(huge.validate(), Err(ProtocolError::Oversized { .. }));
        assert!(oversized);
    }

    #[test]
    fn infer_request_round_trips_through_a_tensor() {
        let tensor = Tensor::from_vec(vec![2, 2], vec![0.1f32, 0.2, 0.3, 0.4]).unwrap();
        let req = InferRequest::from_tensor(9, &tensor);
        assert_eq!(req.request_id, 9);
        assert_eq!(req.to_tensor().unwrap(), tensor);
        let broken = InferRequest {
            request_id: 0,
            flags: 0,
            deadline_ms: None,
            shape: vec![3],
            values: vec![1.0, 2.0],
        };
        assert!(broken.to_tensor().is_err());
    }
}
