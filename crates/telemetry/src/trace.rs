//! Per-request span traces and the recorder behind them.
//!
//! A trace is one fixed-size [`RequestTrace`] (`Copy`, no heap) carried
//! inside the submission through the serving pipeline.  Its clock zero is
//! the instant admission already reads for the queue-wait deadline, and
//! every phase boundary is one nanosecond offset from it.  The serving path
//! takes those offsets from clock reads it makes anyway where it can (the
//! deadline-shed check, the drain-rate window), so a traced request costs
//! two clock reads at admission plus one at compute start, and no
//! synchronisation until it completes.  Completion is the one shard-mutex
//! touch: the record is copied into its replica's preallocated ring (the
//! oldest evicted, never blocked on) and feeds the per-replica
//! [`LatencyHistogram`]s the Prometheus exposition renders.  The only
//! atomics are the two bumps of the open-span gauge, at begin and
//! completion.
//!
//! The recorder can be disabled (`SNN_TRACE=0`, see
//! [`trace_enabled_from_env`]): the serving path then takes none of the
//! trace's clock reads and publishes nothing, and results are
//! bit-identical either way.

use crate::histogram::LatencyHistogram;
use crate::metrics::HistogramFamily;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant, UNIX_EPOCH};

/// The typed phases of a request's journey through the serving stack, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `StreamServer::enqueue` up to the admission lock (trace start,
    /// deadline resolution).
    Admission,
    /// The admission lock: the shutdown / health / capacity check and the
    /// push onto the server's one submission queue.
    Route,
    /// Sitting in the bounded submission queue until a replica's
    /// dispatcher dequeues it.
    QueueWait,
    /// From the dequeue to compute start (deadline check, in-flight
    /// parking, fault-injection checks).  The name predates one-request
    /// dispatch and is kept for the readers of the phase.
    BatchAssembly,
    /// Executing on the engine (the `RunReport`'s cycle summary is
    /// attached to the outcome).
    Compute,
    /// Reactor write-queue residency: from the reply frame entering the
    /// connection's write buffer until the kernel accepted its last
    /// byte.  Recorded after completion by the reactor, so it is the one
    /// phase appended to an already-completed trace.
    WriteStall,
}

/// Number of [`Phase`] variants (a trace stores one offset per phase).
pub const PHASE_COUNT: usize = 6;

/// Every phase, in pipeline order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Admission,
    Phase::Route,
    Phase::QueueWait,
    Phase::BatchAssembly,
    Phase::Compute,
    Phase::WriteStall,
];

impl Phase {
    /// The phase's snake_case name (the JSONL key stem).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Route => "route",
            Phase::QueueWait => "queue_wait",
            Phase::BatchAssembly => "batch_assembly",
            Phase::Compute => "compute",
            Phase::WriteStall => "write_stall",
        }
    }
}

/// Which limit shed a rejected request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectScope {
    /// The submission queue was at its admission bound.
    Queue,
    /// The request's queue-wait deadline passed before compute.
    Deadline,
}

impl RejectScope {
    /// Every scope.
    pub const ALL: [RejectScope; 2] = [RejectScope::Queue, RejectScope::Deadline];

    /// The scope's snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            RejectScope::Queue => "queue",
            RejectScope::Deadline => "deadline",
        }
    }

    /// The scope whose [`RejectScope::label`] is `label`.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|scope| scope.label() == label)
    }
}

/// The typed error a failed request settled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The inference panicked inside the engine.
    EnginePanic,
    /// The server could not serve it (shutting down, no replica left).
    Serving,
    /// Anything else: the request itself was unservable.
    BadRequest,
}

impl ErrorCode {
    /// Every code.
    pub const ALL: [ErrorCode; 3] = [
        ErrorCode::EnginePanic,
        ErrorCode::Serving,
        ErrorCode::BadRequest,
    ];

    /// The code's snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::EnginePanic => "engine_panic",
            ErrorCode::Serving => "serving",
            ErrorCode::BadRequest => "bad_request",
        }
    }

    /// The code whose [`ErrorCode::label`] is `label`.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|code| code.label() == label)
    }
}

/// How a request's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served: the reply carried scores; `total_cycles` is the
    /// `RunReport` cycle summary.
    Scores {
        /// Modelled accelerator cycles of the inference.
        total_cycles: u64,
    },
    /// Shed as backpressure.
    Rejected {
        /// Which limit shed it.
        scope: RejectScope,
    },
    /// Failed with a typed error.
    Error {
        /// The error's code.
        code: ErrorCode,
    },
    /// The replica it was placed on died before serving it.
    ReplicaDown,
}

impl Outcome {
    /// The outcome's snake_case label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Scores { .. } => "scores",
            Outcome::Rejected { .. } => "rejected",
            Outcome::Error { .. } => "error",
            Outcome::ReplicaDown => "replica_down",
        }
    }
}

/// The `ends_ns` value of a phase not (yet) left.
const NOT_ENTERED: u64 = u64::MAX;

fn nanos(at: Duration) -> u64 {
    u64::try_from(at.as_nanos()).unwrap_or(NOT_ENTERED - 1)
}

fn seconds(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64()
}

/// One request's trace: identity, placement, phase boundaries, terminal
/// outcome.  The in-flight record and the completed trace are this one
/// value; [`SpanRecorder::begin`] opens it and [`SpanRecorder::complete`]
/// closes and publishes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request id the trace is keyed by: the wire tag for
    /// reactor-submitted requests, a recorder-assigned id for in-process
    /// tickets.
    pub request_id: u64,
    /// Wall-clock completion time, milliseconds since the Unix epoch
    /// (operator tooling; durations use the monotonic clock).
    pub unix_ms: u64,
    /// The replica engine that dequeued it; `None` when it was refused
    /// at admission or never left the queue.
    pub replica: Option<u32>,
    /// The shared queue's depth seen under the admission lock.
    pub queue_depth_at_route: Option<u32>,
    /// Terminal outcome, set at completion (an open record holds
    /// [`Outcome::ReplicaDown`] until then).
    pub outcome: Outcome,
    /// `ends_ns[p]`: when phase `p` ended, in nanoseconds after the trace
    /// start; [`NOT_ENTERED`] for a phase never entered (and, in flight,
    /// for the current one).  Phases are entered strictly in pipeline
    /// order, so each spans from the end of the last phase before it (or
    /// the trace start); the reactor's [`Phase::WriteStall`], measured
    /// after settle, is appended as if it began at settle.
    ends_ns: [u64; PHASE_COUNT],
}

impl RequestTrace {
    /// An open record for `request_id`: in [`Phase::Admission`], nothing
    /// measured yet.
    pub fn new(request_id: u64) -> Self {
        RequestTrace {
            request_id,
            unix_ms: 0,
            replica: None,
            queue_depth_at_route: None,
            outcome: Outcome::ReplicaDown,
            ends_ns: [NOT_ENTERED; PHASE_COUNT],
        }
    }

    /// Enters `phase` at offset `at` from the trace start, ending the
    /// phase before it.  Phases run strictly in pipeline order, from
    /// [`Phase::Route`] to [`Phase::Compute`].
    pub fn enter(&mut self, phase: Phase, at: Duration) {
        let i = phase as usize;
        debug_assert!((1..Phase::WriteStall as usize).contains(&i));
        self.ends_ns[i - 1] = nanos(at);
    }

    /// Ends the current phase at offset `at` (the settle point) with
    /// `outcome`.
    pub fn close(&mut self, outcome: Outcome, at: Duration) {
        let current = self.ends_ns[..Phase::WriteStall as usize]
            .iter()
            .position(|&end| end == NOT_ENTERED)
            .unwrap_or(Phase::Compute as usize);
        self.ends_ns[current] = nanos(at);
        self.outcome = outcome;
    }

    /// Appends the reactor's write-queue residency to a closed trace;
    /// the first sample wins.
    pub fn append_write_stall(&mut self, stall: Duration) {
        let i = Phase::WriteStall as usize;
        if self.ends_ns[i] == NOT_ENTERED {
            self.ends_ns[i] = self.start_ns(i).saturating_add(nanos(stall));
        }
    }

    /// Where phase `i` began: the end of the last phase before it that was
    /// entered, or the trace start.  For [`Phase::WriteStall`] this is the
    /// settle offset.
    fn start_ns(&self, i: usize) -> u64 {
        self.ends_ns[..i]
            .iter()
            .rev()
            .copied()
            .find(|&end| end != NOT_ENTERED)
            .unwrap_or(0)
    }

    /// The seconds spent in `phase`, when it was entered.
    pub fn phase_seconds(&self, phase: Phase) -> Option<f64> {
        let i = phase as usize;
        let end = self.ends_ns[i];
        (end != NOT_ENTERED).then(|| seconds(end.saturating_sub(self.start_ns(i))))
    }

    /// Admission-to-settle wall time, seconds ([`Phase::WriteStall`] is
    /// appended after settle and is *not* part of this).
    pub fn total_seconds(&self) -> f64 {
        seconds(self.start_ns(Phase::WriteStall as usize))
    }

    /// Renders the trace as one JSON line (no trailing newline).
    /// Durations are microseconds; optional fields are omitted, not
    /// null.  Every string is a closed ASCII label, so nothing needs
    /// escaping.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str(&format!(
            "{{\"request_id\":{},\"unix_ms\":{}",
            self.request_id, self.unix_ms
        ));
        if let Some(replica) = self.replica {
            out.push_str(&format!(",\"replica\":{replica}"));
        }
        if let Some(depth) = self.queue_depth_at_route {
            out.push_str(&format!(",\"queue_depth_at_route\":{depth}"));
        }
        out.push_str(&format!(",\"outcome\":\"{}\"", self.outcome.label()));
        match self.outcome {
            Outcome::Scores { total_cycles } => {
                out.push_str(&format!(",\"total_cycles\":{total_cycles}"));
            }
            Outcome::Rejected { scope } => {
                out.push_str(&format!(",\"scope\":\"{}\"", scope.label()));
            }
            Outcome::Error { code } => {
                out.push_str(&format!(",\"code\":\"{}\"", code.label()));
            }
            Outcome::ReplicaDown => {}
        }
        out.push_str(&format!(",\"duration_us\":{}", self.total_seconds() * 1e6));
        out.push_str(",\"phases\":{");
        let mut separator = "";
        for phase in PHASES {
            if let Some(seconds) = self.phase_seconds(phase) {
                out.push_str(&format!(
                    "{separator}\"{}_us\":{}",
                    phase.name(),
                    seconds * 1e6
                ));
                separator = ",";
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`RequestTrace::to_json_line`].
    /// Returns `None` on anything malformed — the scraper's tolerance
    /// for a trace truncated mid-flight — and on a label outside the
    /// closed sets.  `duration_us` must be present; the total it states
    /// is the sum of the pipeline phases, which is what the record keeps.
    pub fn from_json_line(line: &str) -> Option<RequestTrace> {
        let object = json::parse_object(line.trim())?;
        let narrow = |key| match json::get_u64(&object, key) {
            None => Some(None),
            Some(value) => u32::try_from(value).ok().map(Some),
        };
        let outcome = match json::get_str(&object, "outcome")? {
            "scores" => Outcome::Scores {
                total_cycles: json::get_u64(&object, "total_cycles")?,
            },
            "rejected" => Outcome::Rejected {
                scope: RejectScope::from_label(json::get_str(&object, "scope")?)?,
            },
            "error" => Outcome::Error {
                code: ErrorCode::from_label(json::get_str(&object, "code")?)?,
            },
            "replica_down" => Outcome::ReplicaDown,
            _ => return None,
        };
        json::get_f64(&object, "duration_us")?;
        let phases = json::get_obj(&object, "phases")?;
        let mut trace = RequestTrace {
            request_id: json::get_u64(&object, "request_id")?,
            unix_ms: json::get_u64(&object, "unix_ms")?,
            replica: narrow("replica")?,
            queue_depth_at_route: narrow("queue_depth_at_route")?,
            outcome,
            ends_ns: [NOT_ENTERED; PHASE_COUNT],
        };
        let mut end = 0u64;
        for phase in PHASES {
            if let Some(us) = json::get_f64(phases, &format!("{}_us", phase.name())) {
                end = end.saturating_add((us * 1e3).round() as u64);
                trace.ends_ns[phase as usize] = end;
            }
        }
        Some(trace)
    }
}

/// Minimal JSON-object reader for the trace lines this crate itself
/// emits (numbers, escape-free strings, one level of object nesting).
/// The vendored `serde` is a marker-trait stub, so decoding — like
/// encoding — is by hand.
mod json {
    #[derive(Debug, PartialEq)]
    pub(super) enum Value {
        /// A number kept as its raw token so integers avoid `f64` loss.
        Num(String),
        Str(String),
        Obj(Vec<(String, Value)>),
    }

    pub(super) fn parse_object(s: &str) -> Option<Vec<(String, Value)>> {
        let bytes = s.as_bytes();
        let mut i = 0usize;
        let object = object(bytes, &mut i)?;
        skip_ws(bytes, &mut i);
        if i == bytes.len() {
            Some(object)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Option<()> {
        skip_ws(b, i);
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Some(())
        } else {
            None
        }
    }

    /// A string up to the next quote.  The emitter writes no escapes, so
    /// a backslash is malformed input.
    fn string(b: &[u8], i: &mut usize) -> Option<String> {
        expect(b, i, b'"')?;
        let len = b[*i..].iter().position(|&c| c == b'"')?;
        let raw = &b[*i..*i + len];
        *i += len + 1;
        if raw.contains(&b'\\') {
            return None;
        }
        std::str::from_utf8(raw).ok().map(str::to_string)
    }

    fn number(b: &[u8], i: &mut usize) -> Option<String> {
        skip_ws(b, i);
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        let raw = std::str::from_utf8(&b[start..*i]).ok()?;
        // Validate now so get_* lookups can't hit an unparsable token.
        raw.parse::<f64>().ok()?;
        Some(raw.to_string())
    }

    fn value(b: &[u8], i: &mut usize) -> Option<Value> {
        skip_ws(b, i);
        match b.get(*i)? {
            b'"' => Some(Value::Str(string(b, i)?)),
            b'{' => Some(Value::Obj(object(b, i)?)),
            _ => Some(Value::Num(number(b, i)?)),
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Option<Vec<(String, Value)>> {
        expect(b, i, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Some(fields);
        }
        loop {
            let key = string(b, i)?;
            expect(b, i, b':')?;
            fields.push((key, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i)? {
                b',' => *i += 1,
                b'}' => {
                    *i += 1;
                    return Some(fields);
                }
                _ => return None,
            }
        }
    }

    fn get_num<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
        fields.iter().find_map(|(k, v)| match v {
            Value::Num(raw) if k == key => Some(raw.as_str()),
            _ => None,
        })
    }

    pub(super) fn get_f64(fields: &[(String, Value)], key: &str) -> Option<f64> {
        get_num(fields, key)?.parse().ok()
    }

    /// Integers parse from the raw token, not through `f64` — a request
    /// id above 2^53 must round-trip exactly.
    pub(super) fn get_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
        let raw = get_num(fields, key)?;
        raw.parse()
            .ok()
            .or_else(|| raw.parse::<f64>().ok().map(|n| n as u64))
    }

    pub(super) fn get_str<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
        fields.iter().find_map(|(k, v)| match v {
            Value::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    pub(super) fn get_obj<'a>(
        fields: &'a [(String, Value)],
        key: &str,
    ) -> Option<&'a [(String, Value)]> {
        fields.iter().find_map(|(k, v)| match v {
            Value::Obj(o) if k == key => Some(o.as_slice()),
            _ => None,
        })
    }
}

/// Reads the `SNN_TRACE` gate: tracing is **on by default**; only the
/// literal `0` disables it.
pub fn trace_enabled_from_env() -> bool {
    !matches!(std::env::var("SNN_TRACE").as_deref(), Ok("0"))
}

/// Completed traces per recorder shard before the oldest is evicted.
pub const DEFAULT_TRACE_CAPACITY: usize = 512;

struct Shard {
    /// Preallocated to [`DEFAULT_TRACE_CAPACITY`] and never grown past
    /// it, so pushes and evictions touch no heap.
    ring: VecDeque<RequestTrace>,
    queue_wait: LatencyHistogram,
    compute: LatencyHistogram,
    duration: LatencyHistogram,
}

/// The server-wide trace store: one shard per replica (plus one for
/// requests no replica dequeued), each holding a bounded ring of
/// completed traces and the phase histograms the Prometheus exposition
/// renders.  See the module docs for the locking story.
pub struct SpanRecorder {
    enabled: bool,
    /// `shards[replica]`; the last shard holds unrouted traces.
    shards: Vec<Mutex<Shard>>,
    write_stall: Mutex<LatencyHistogram>,
    open: AtomicU64,
    next_id: AtomicU64,
    /// Wall-clock anchor: `anchor` read on the monotonic clock and its
    /// time since the Unix epoch, taken once, so a trace's `unix_ms`
    /// costs no clock read of its own.
    anchor: Instant,
    anchor_unix: Duration,
}

fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SpanRecorder {
    /// A recorder with one shard per replica.  `enabled = false` builds a
    /// recorder that opens no span and publishes nothing (the
    /// `SNN_TRACE=0` path).
    pub fn new(replicas: usize, enabled: bool) -> Self {
        SpanRecorder {
            enabled,
            shards: (0..replicas.max(1) + 1)
                .map(|_| {
                    Mutex::new(Shard {
                        ring: VecDeque::with_capacity(DEFAULT_TRACE_CAPACITY),
                        queue_wait: LatencyHistogram::new(),
                        compute: LatencyHistogram::new(),
                        duration: LatencyHistogram::new(),
                    })
                })
                .collect(),
            write_stall: Mutex::new(LatencyHistogram::new()),
            open: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            anchor: Instant::now(),
            anchor_unix: UNIX_EPOCH.elapsed().unwrap_or_default(),
        }
    }

    /// Whether this recorder records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a request id for a caller that has none of its own (the
    /// in-process ticket path; the reactor keys traces by its wire tag).
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a trace for `request_id`, counting it in
    /// [`SpanRecorder::open_spans`] until [`SpanRecorder::complete`]
    /// publishes it.  Reads no clock: the caller owns the trace start.
    pub fn begin(&self, request_id: u64) -> RequestTrace {
        if self.enabled {
            self.open.fetch_add(1, Ordering::Relaxed);
        }
        RequestTrace::new(request_id)
    }

    /// Traces begun but not yet completed — must return to zero at every
    /// quiescent point, else a span leaked.
    pub fn open_spans(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Closes `trace` with `outcome` at `settled` (its start was
    /// `started`) and publishes it: the one mutex touch.  A no-op on a
    /// disabled recorder.
    pub fn complete(
        &self,
        mut trace: RequestTrace,
        outcome: Outcome,
        started: Instant,
        settled: Instant,
    ) {
        if !self.enabled {
            return;
        }
        trace.close(outcome, settled.saturating_duration_since(started));
        trace.unix_ms =
            (self.anchor_unix + settled.saturating_duration_since(self.anchor)).as_millis() as u64;
        self.open.fetch_sub(1, Ordering::Relaxed);
        let shard_index = match trace.replica {
            Some(replica) => (replica as usize).min(self.shards.len() - 2),
            None => self.shards.len() - 1,
        };
        let mut shard = relock(&self.shards[shard_index]);
        if let Some(seconds) = trace.phase_seconds(Phase::QueueWait) {
            shard.queue_wait.observe(seconds);
        }
        if let Some(seconds) = trace.phase_seconds(Phase::Compute) {
            shard.compute.observe(seconds);
        }
        shard.duration.observe(trace.total_seconds());
        if shard.ring.len() == DEFAULT_TRACE_CAPACITY {
            shard.ring.pop_front();
        }
        shard.ring.push_back(trace);
    }

    /// Records one reactor write-queue residency sample and appends the
    /// [`Phase::WriteStall`] span to the matching completed trace, if it
    /// is still in its ring (best-effort: an evicted trace only loses
    /// the late phase, the histogram sample is never lost).
    pub fn record_write_stall(&self, request_id: u64, stall: Duration) {
        if !self.enabled {
            return;
        }
        relock(&self.write_stall).observe(stall.as_secs_f64());
        for shard in &self.shards {
            let mut shard = relock(shard);
            if let Some(trace) = shard
                .ring
                .iter_mut()
                .rev()
                .find(|t| t.request_id == request_id)
            {
                trace.append_write_stall(stall);
                return;
            }
        }
    }

    /// Drains every completed trace, oldest first (completion order
    /// within a shard, completion time across shards).  Histograms are
    /// **not** reset — they are cumulative, as Prometheus expects.
    pub fn drain(&self) -> Vec<RequestTrace> {
        let mut traces: Vec<RequestTrace> = Vec::new();
        for shard in &self.shards {
            traces.extend(relock(shard).ring.drain(..));
        }
        traces.sort_by_key(|t| (t.unix_ms, t.request_id));
        traces
    }

    /// Drains the rings into a JSONL dump — one trace per line, the
    /// `TRACES` stats-format payload.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for trace in self.drain() {
            out.push_str(&trace.to_json_line());
            out.push('\n');
        }
        out
    }

    fn merged<F: Fn(&Shard) -> &LatencyHistogram>(&self, pick: F) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(pick(&relock(shard)));
        }
        merged
    }

    /// Queue-wait latencies merged over all shards.
    pub fn queue_wait_histogram(&self) -> LatencyHistogram {
        self.merged(|s| &s.queue_wait)
    }

    /// Compute latencies merged over all shards.
    pub fn compute_histogram(&self) -> LatencyHistogram {
        self.merged(|s| &s.compute)
    }

    /// End-to-end durations merged over all shards.
    pub fn duration_histogram(&self) -> LatencyHistogram {
        self.merged(|s| &s.duration)
    }

    /// Reactor write-queue residency.
    pub fn write_stall_histogram(&self) -> LatencyHistogram {
        relock(&self.write_stall).clone()
    }

    /// The four request-phase histogram families of the metric table:
    /// queue wait, compute and duration per replica (`replica` labels; the
    /// shard of requests no replica dequeued is `replica="unrouted"`) and
    /// the unlabelled reactor write stall.
    pub fn histogram_families(&self) -> Vec<HistogramFamily> {
        let unrouted = self.shards.len() - 1;
        let per_replica = |name, help, pick: fn(&Shard) -> &LatencyHistogram| {
            let series = self.shards.iter().enumerate().map(|(i, shard)| {
                let label = if i == unrouted {
                    "unrouted".to_string()
                } else {
                    i.to_string()
                };
                (Some(("replica", label)), pick(&relock(shard)).clone())
            });
            HistogramFamily {
                name,
                help,
                series: series.collect(),
            }
        };
        vec![
            per_replica(
                "request_queue_wait_seconds",
                "Time requests sat in a replica queue before dispatch.",
                |s| &s.queue_wait,
            ),
            per_replica(
                "request_compute_seconds",
                "Engine execution time per request.",
                |s| &s.compute,
            ),
            per_replica(
                "request_duration_seconds",
                "Admission-to-settle wall time per request.",
                |s| &s.duration,
            ),
            HistogramFamily {
                name: "reactor_write_stall_seconds",
                help: "Reactor write-queue residency per reply.",
                series: vec![(None, self.write_stall_histogram())],
            },
        ]
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.enabled)
            .field("shards", &(self.shards.len()))
            .field("open", &self.open_spans())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// Opens a trace for `id` on `recorder`, walks it through `phases`
    /// (one microsecond apart) and completes it on `replica`.
    fn served(recorder: &SpanRecorder, id: u64, replica: Option<u32>, outcome: Outcome) {
        let start = Instant::now();
        let mut trace = recorder.begin(id);
        trace.replica = replica;
        for (offset, phase) in (1..).zip(&PHASES[1..5]) {
            trace.enter(*phase, us(offset));
        }
        recorder.complete(trace, outcome, start, start + us(5));
    }

    #[test]
    fn a_full_lifecycle_produces_one_trace_with_ordered_phases() {
        let recorder = SpanRecorder::new(2, true);
        let start = Instant::now();
        let mut trace = recorder.begin(7);
        assert_eq!(recorder.open_spans(), 1);
        trace.enter(Phase::Route, us(1));
        trace.queue_depth_at_route = Some(3);
        trace.enter(Phase::QueueWait, us(3));
        trace.replica = Some(1);
        trace.enter(Phase::BatchAssembly, us(6));
        trace.enter(Phase::Compute, us(10));
        recorder.complete(
            trace,
            Outcome::Scores { total_cycles: 42 },
            start,
            start + us(15),
        );
        assert_eq!(recorder.open_spans(), 0);
        let traces = recorder.drain();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.request_id, 7);
        assert_eq!(t.replica, Some(1));
        assert_eq!(t.queue_depth_at_route, Some(3));
        assert_eq!(t.outcome, Outcome::Scores { total_cycles: 42 });
        let spans: Vec<Option<f64>> = PHASES.iter().map(|&p| t.phase_seconds(p)).collect();
        let expected = [1, 2, 3, 4, 5].map(|n| Some(us(n).as_secs_f64()));
        assert_eq!(spans[..5], expected);
        assert_eq!(spans[5], None, "no write stall yet");
        assert_eq!(t.total_seconds(), us(15).as_secs_f64());
        assert_eq!(recorder.duration_histogram().count(), 1);
        assert_eq!(recorder.queue_wait_histogram().count(), 1);
        assert_eq!(recorder.compute_histogram().count(), 1);
    }

    #[test]
    fn an_uncompleted_record_leaves_open_spans_at_one() {
        let recorder = SpanRecorder::new(1, true);
        // Opened and entered, then forgotten: nothing publishes it.
        recorder.begin(1).enter(Phase::Route, us(1));
        assert_eq!(recorder.open_spans(), 1, "the gauge is the leak detector");
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = SpanRecorder::new(2, false);
        served(&recorder, 9, Some(0), Outcome::Scores { total_cycles: 1 });
        recorder.record_write_stall(9, Duration::from_millis(500));
        assert_eq!(recorder.open_spans(), 0);
        assert!(recorder.drain().is_empty());
        assert!(recorder.duration_histogram().is_empty());
        assert!(recorder.write_stall_histogram().is_empty());
    }

    #[test]
    fn ring_capacity_evicts_oldest_without_blocking() {
        let recorder = SpanRecorder::new(1, true);
        let total = DEFAULT_TRACE_CAPACITY as u64 + 10;
        for id in 0..total {
            served(&recorder, id, Some(0), Outcome::Scores { total_cycles: id });
        }
        let traces = recorder.drain();
        assert_eq!(traces.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(traces.first().unwrap().request_id, 10);
        assert_eq!(traces.last().unwrap().request_id, total - 1);
        // Histograms keep the full population even after eviction.
        assert_eq!(recorder.duration_histogram().count(), total);
    }

    #[test]
    fn write_stall_amends_the_completed_trace_and_its_histogram() {
        let recorder = SpanRecorder::new(1, true);
        served(&recorder, 3, Some(0), Outcome::Scores { total_cycles: 5 });
        recorder.record_write_stall(3, Duration::from_millis(2));
        assert_eq!(recorder.write_stall_histogram().count(), 1);
        let traces = recorder.drain();
        assert_eq!(traces[0].phase_seconds(Phase::WriteStall), Some(0.002));
        assert_eq!(traces[0].total_seconds(), us(5).as_secs_f64());
        // After the drain the trace is gone; the histogram still records.
        recorder.record_write_stall(3, Duration::from_millis(1));
        assert_eq!(recorder.write_stall_histogram().count(), 2);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut trace = RequestTrace::new(12);
        trace.unix_ms = 1_700_000_000_123;
        trace.replica = Some(1);
        trace.queue_depth_at_route = Some(4);
        trace.enter(Phase::Route, Duration::from_nanos(1_500));
        trace.enter(Phase::QueueWait, Duration::from_nanos(2_000));
        trace.close(
            Outcome::Rejected {
                scope: RejectScope::Deadline,
            },
            Duration::from_millis(250),
        );
        trace.append_write_stall(us(7));
        let parsed = RequestTrace::from_json_line(&trace.to_json_line());
        assert_eq!(parsed, Some(trace));
        assert!(RequestTrace::from_json_line("{not json").is_none());
        assert!(RequestTrace::from_json_line("").is_none());
    }
}
