//! Per-request span traces and the lock-light recorder behind them.
//!
//! Every admitted request owns a [`TraceBuilder`] that rides inside the
//! submission through the serving pipeline.  Phase boundaries are
//! recorded **locally** on the builder (monotonic [`Instant`] clocks, no
//! shared state), so the hot path is wait-free: the only synchronisation
//! is one shard-mutex touch when the trace completes, plus two atomic
//! bumps (the open-span gauge) at begin/finish.  Completed
//! [`RequestTrace`]s land in a fixed-capacity per-replica ring buffer —
//! old traces are evicted, never blocked on — and phase latencies feed
//! the per-replica [`LatencyHistogram`]s that the Prometheus exposition
//! renders.
//!
//! The recorder can be disabled (`SNN_TRACE=0`, see
//! [`trace_enabled_from_env`]); a disabled builder never reads the clock
//! and never touches the recorder, which is what makes the documented
//! <3% overhead budget trivially safe to verify: results are
//! bit-identical either way, only the telemetry disappears.

use crate::histogram::LatencyHistogram;
use crate::metrics::HistogramFamily;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

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
    /// dispatcher drains it into a micro-batch.
    QueueWait,
    /// From micro-batch drain to compute start (deadline shedding,
    /// in-flight parking, fault-injection checks).
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

/// Number of [`Phase`] variants (the builder's accumulator arrays are
/// indexed by phase).
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
    fn index(self) -> usize {
        match self {
            Phase::Admission => 0,
            Phase::Route => 1,
            Phase::QueueWait => 2,
            Phase::BatchAssembly => 3,
            Phase::Compute => 4,
            Phase::WriteStall => 5,
        }
    }

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

/// How a request's story ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served: the reply carried scores; `total_cycles` is the
    /// `RunReport` cycle summary.
    Scores {
        /// Modelled accelerator cycles of the inference.
        total_cycles: u64,
    },
    /// Shed as backpressure (`scope` is `"queue"` or `"deadline"`).
    Rejected {
        /// Which limit shed it.
        scope: String,
    },
    /// Failed with a typed error (`code` is the error's snake_case
    /// name, e.g. `"engine_panic"`).
    Error {
        /// Short error code.
        code: String,
    },
    /// The replica it was placed on died before serving it.
    ReplicaDown,
    /// The trace builder was dropped without an explicit outcome — a bug
    /// guard, surfaced rather than silently leaked.
    Abandoned,
}

impl Outcome {
    /// The outcome's snake_case label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Scores { .. } => "scores",
            Outcome::Rejected { .. } => "rejected",
            Outcome::Error { .. } => "error",
            Outcome::ReplicaDown => "replica_down",
            Outcome::Abandoned => "abandoned",
        }
    }
}

/// One measured phase of a completed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Time spent in it, seconds (re-entries accumulate).
    pub seconds: f64,
}

/// A completed request trace: identity, placement, measured phases,
/// terminal outcome.
#[derive(Debug, Clone, PartialEq)]
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
    pub replica: Option<usize>,
    /// The shared queue's depth seen under the admission lock.
    pub queue_depth_at_route: Option<usize>,
    /// Measured phases in pipeline order (absent phases were never
    /// entered).
    pub phases: Vec<PhaseSpan>,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Admission-to-settle wall time, seconds ([`Phase::WriteStall`] is
    /// appended after settle and is *not* part of this).
    pub total_seconds: f64,
}

impl RequestTrace {
    /// The accumulated seconds of `phase`, when it was entered.
    pub fn phase_seconds(&self, phase: Phase) -> Option<f64> {
        self.phases
            .iter()
            .find(|span| span.phase == phase)
            .map(|span| span.seconds)
    }

    /// Renders the trace as one JSON line (no trailing newline).
    /// Durations are microseconds; optional fields are omitted, not
    /// null.
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
        match &self.outcome {
            Outcome::Scores { total_cycles } => {
                out.push_str(&format!(",\"total_cycles\":{total_cycles}"));
            }
            Outcome::Rejected { scope } => {
                out.push_str(&format!(",\"scope\":\"{}\"", escape_json(scope)));
            }
            Outcome::Error { code } => {
                out.push_str(&format!(",\"code\":\"{}\"", escape_json(code)));
            }
            Outcome::ReplicaDown | Outcome::Abandoned => {}
        }
        out.push_str(&format!(",\"duration_us\":{}", self.total_seconds * 1e6));
        out.push_str(",\"phases\":{");
        for (i, span) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}_us\":{}",
                span.phase.name(),
                span.seconds * 1e6
            ));
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`RequestTrace::to_json_line`].
    /// Returns `None` on anything malformed — the scraper's tolerance
    /// for a trace truncated mid-flight.
    pub fn from_json_line(line: &str) -> Option<RequestTrace> {
        let object = json::parse_object(line.trim())?;
        let request_id = json::get_u64(&object, "request_id")?;
        let unix_ms = json::get_u64(&object, "unix_ms")?;
        let replica = json::get_u64(&object, "replica").map(|v| v as usize);
        let queue_depth_at_route =
            json::get_u64(&object, "queue_depth_at_route").map(|v| v as usize);
        let outcome = match json::get_str(&object, "outcome")? {
            "scores" => Outcome::Scores {
                total_cycles: json::get_u64(&object, "total_cycles")?,
            },
            "rejected" => Outcome::Rejected {
                scope: json::get_str(&object, "scope")?.to_string(),
            },
            "error" => Outcome::Error {
                code: json::get_str(&object, "code")?.to_string(),
            },
            "replica_down" => Outcome::ReplicaDown,
            "abandoned" => Outcome::Abandoned,
            _ => return None,
        };
        let total_seconds = json::get_f64(&object, "duration_us")? / 1e6;
        let phases_obj = json::get_obj(&object, "phases")?;
        let mut phases = Vec::new();
        for phase in PHASES {
            let key = format!("{}_us", phase.name());
            if let Some(us) = json::get_f64(phases_obj, &key) {
                phases.push(PhaseSpan {
                    phase,
                    seconds: us / 1e6,
                });
            }
        }
        Some(RequestTrace {
            request_id,
            unix_ms,
            replica,
            queue_depth_at_route,
            phases,
            outcome,
            total_seconds,
        })
    }
}

fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Minimal JSON-object reader for the trace lines this crate itself
/// emits (numbers, strings with the emitter's three escapes, one level
/// of object nesting).  The vendored `serde` is a marker-trait stub, so
/// decoding — like encoding — is by hand.
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

    fn string(b: &[u8], i: &mut usize) -> Option<String> {
        expect(b, i, b'"')?;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Some(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i)? {
                        b'\\' => out.push('\\'),
                        b'"' => out.push('"'),
                        b'n' => out.push('\n'),
                        _ => return None,
                    }
                    *i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 continuation bytes pass through
                    // verbatim; the input was a valid &str to begin with.
                    out.push_str(std::str::from_utf8(&b[*i..*i + 1]).ok()?);
                    *i += 1;
                }
            }
        }
        None
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
    ring: VecDeque<RequestTrace>,
    queue_wait: LatencyHistogram,
    compute: LatencyHistogram,
    duration: LatencyHistogram,
}

impl Shard {
    fn new() -> Self {
        Shard {
            ring: VecDeque::new(),
            queue_wait: LatencyHistogram::new(),
            compute: LatencyHistogram::new(),
            duration: LatencyHistogram::new(),
        }
    }
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
    capacity: usize,
}

fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SpanRecorder {
    /// A recorder with one shard per replica and the default ring
    /// capacity.  `enabled = false` builds a recorder whose builders are
    /// all no-ops (the `SNN_TRACE=0` path).
    pub fn new(replicas: usize, enabled: bool) -> Self {
        Self::with_capacity(replicas, enabled, DEFAULT_TRACE_CAPACITY)
    }

    /// As [`SpanRecorder::new`] with an explicit per-shard ring
    /// capacity.
    pub fn with_capacity(replicas: usize, enabled: bool, capacity: usize) -> Self {
        SpanRecorder {
            enabled,
            shards: (0..replicas.max(1) + 1)
                .map(|_| Mutex::new(Shard::new()))
                .collect(),
            write_stall: Mutex::new(LatencyHistogram::new()),
            open: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            capacity: capacity.max(1),
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

    /// Opens a trace for `request_id`.  Wait-free: one atomic bump, no
    /// locks; a disabled recorder returns an inert builder that never
    /// reads the clock.
    pub fn begin(self: &Arc<Self>, request_id: u64) -> TraceBuilder {
        if !self.enabled {
            return TraceBuilder::disabled();
        }
        self.open.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        TraceBuilder {
            recorder: Some(Arc::clone(self)),
            request_id,
            started: now,
            phase_started: now,
            current: Phase::Admission,
            elapsed: [0.0; PHASE_COUNT],
            seen: [false; PHASE_COUNT],
            replica: None,
            depth: None,
        }
    }

    /// Traces begun but not yet finished — must return to zero at every
    /// quiescent point, else a span leaked.
    pub fn open_spans(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    fn complete(&self, trace: RequestTrace) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        let shard_index = match trace.replica {
            Some(replica) => replica.min(self.shards.len() - 2),
            None => self.shards.len() - 1,
        };
        let mut shard = relock(&self.shards[shard_index]);
        if let Some(seconds) = trace.phase_seconds(Phase::QueueWait) {
            shard.queue_wait.observe(seconds);
        }
        if let Some(seconds) = trace.phase_seconds(Phase::Compute) {
            shard.compute.observe(seconds);
        }
        shard.duration.observe(trace.total_seconds);
        if shard.ring.len() >= self.capacity {
            shard.ring.pop_front();
        }
        shard.ring.push_back(trace);
    }

    /// Records one reactor write-queue residency sample and appends the
    /// [`Phase::WriteStall`] span to the matching completed trace, if it
    /// is still in its ring (best-effort: an evicted trace only loses
    /// the late phase, the histogram sample is never lost).
    pub fn record_write_stall(&self, request_id: u64, seconds: f64) {
        if !self.enabled {
            return;
        }
        relock(&self.write_stall).observe(seconds);
        for shard in &self.shards {
            let mut shard = relock(shard);
            if let Some(trace) = shard
                .ring
                .iter_mut()
                .rev()
                .find(|t| t.request_id == request_id)
            {
                if trace.phase_seconds(Phase::WriteStall).is_none() {
                    trace.phases.push(PhaseSpan {
                        phase: Phase::WriteStall,
                        seconds,
                    });
                }
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

/// The per-request side of the recorder: owned by the submission, moved
/// with it through the pipeline, never shared — which is why recording a
/// phase boundary is two [`Instant`] reads and an array store, no
/// synchronisation at all.  Finishing (or dropping) the builder performs
/// the single mutex touch that publishes the trace.
#[derive(Debug)]
pub struct TraceBuilder {
    /// `None` after finishing — and from birth on a disabled recorder,
    /// which turns every method into a no-op.
    recorder: Option<Arc<SpanRecorder>>,
    request_id: u64,
    started: Instant,
    phase_started: Instant,
    current: Phase,
    elapsed: [f64; PHASE_COUNT],
    seen: [bool; PHASE_COUNT],
    replica: Option<usize>,
    depth: Option<usize>,
}

impl TraceBuilder {
    /// An inert builder (the `SNN_TRACE=0` hot path): every method
    /// no-ops without reading the clock.
    pub fn disabled() -> Self {
        TraceBuilder {
            recorder: None,
            request_id: 0,
            started: Instant::now(),
            phase_started: Instant::now(),
            current: Phase::Admission,
            elapsed: [0.0; PHASE_COUNT],
            seen: [false; PHASE_COUNT],
            replica: None,
            depth: None,
        }
    }

    fn close_current(&mut self, now: Instant) {
        let i = self.current.index();
        self.elapsed[i] += now.duration_since(self.phase_started).as_secs_f64();
        self.seen[i] = true;
    }

    /// Closes the current phase and enters `next`.  Re-entering the
    /// current phase is a no-op; re-entering an earlier phase accumulates
    /// into the existing span.
    pub fn advance(&mut self, next: Phase) {
        if self.recorder.is_none() || self.current == next {
            return;
        }
        let now = Instant::now();
        self.close_current(now);
        self.current = next;
        self.phase_started = now;
    }

    /// Annotates the shared queue depth the submission saw at admission.
    pub fn note_queue_depth(&mut self, depth: usize) {
        if self.recorder.is_some() {
            self.depth = Some(depth);
        }
    }

    /// Annotates the replica engine that dequeued the submission — the
    /// shard the finished trace is filed under.
    pub fn note_replica(&mut self, replica: usize) {
        if self.recorder.is_some() {
            self.replica = Some(replica);
        }
    }

    /// Closes the trace with `outcome` and publishes it to the recorder
    /// (the one mutex touch).  Idempotent: later calls — including the
    /// implicit `Abandoned` finish on drop — are no-ops.
    pub fn finish(&mut self, outcome: Outcome) {
        let Some(recorder) = self.recorder.take() else {
            return;
        };
        let now = Instant::now();
        self.close_current(now);
        let phases = PHASES
            .iter()
            .filter(|p| self.seen[p.index()])
            .map(|&phase| PhaseSpan {
                phase,
                seconds: self.elapsed[phase.index()],
            })
            .collect();
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        recorder.complete(RequestTrace {
            request_id: self.request_id,
            unix_ms,
            replica: self.replica,
            queue_depth_at_route: self.depth,
            phases,
            outcome,
            total_seconds: now.duration_since(self.started).as_secs_f64(),
        });
    }
}

impl Drop for TraceBuilder {
    fn drop(&mut self) {
        // A builder dropped mid-pipeline still publishes (as Abandoned),
        // so the ring never holds an open span and the open-span gauge
        // returns to zero.
        self.finish(Outcome::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(replicas: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::new(replicas, true))
    }

    #[test]
    fn a_full_lifecycle_produces_one_trace_with_ordered_phases() {
        let recorder = recorder(2);
        let mut trace = recorder.begin(7);
        assert_eq!(recorder.open_spans(), 1);
        trace.advance(Phase::Route);
        trace.note_queue_depth(3);
        trace.advance(Phase::QueueWait);
        trace.note_replica(1);
        trace.advance(Phase::BatchAssembly);
        trace.advance(Phase::Compute);
        trace.finish(Outcome::Scores { total_cycles: 42 });
        assert_eq!(recorder.open_spans(), 0);
        let traces = recorder.drain();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.request_id, 7);
        assert_eq!(t.replica, Some(1));
        assert_eq!(t.queue_depth_at_route, Some(3));
        assert_eq!(t.outcome, Outcome::Scores { total_cycles: 42 });
        let names: Vec<&str> = t.phases.iter().map(|s| s.phase.name()).collect();
        assert_eq!(
            names,
            [
                "admission",
                "route",
                "queue_wait",
                "batch_assembly",
                "compute"
            ]
        );
        let phase_sum: f64 = t.phases.iter().map(|s| s.seconds).sum();
        assert!(phase_sum <= t.total_seconds + 1e-9);
        assert_eq!(recorder.duration_histogram().count(), 1);
        assert_eq!(recorder.queue_wait_histogram().count(), 1);
        assert_eq!(recorder.compute_histogram().count(), 1);
    }

    #[test]
    fn dropping_an_unfinished_builder_publishes_abandoned() {
        let recorder = recorder(1);
        {
            let mut trace = recorder.begin(1);
            trace.advance(Phase::Route);
        }
        assert_eq!(recorder.open_spans(), 0);
        let traces = recorder.drain();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].outcome, Outcome::Abandoned);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = Arc::new(SpanRecorder::new(2, false));
        let mut trace = recorder.begin(9);
        trace.advance(Phase::Compute);
        trace.finish(Outcome::Scores { total_cycles: 1 });
        recorder.record_write_stall(9, 0.5);
        assert_eq!(recorder.open_spans(), 0);
        assert!(recorder.drain().is_empty());
        assert!(recorder.duration_histogram().is_empty());
        assert!(recorder.write_stall_histogram().is_empty());
    }

    #[test]
    fn ring_capacity_evicts_oldest_without_blocking() {
        let recorder = Arc::new(SpanRecorder::with_capacity(1, true, 4));
        for id in 0..10u64 {
            let mut trace = recorder.begin(id);
            trace.note_replica(0);
            trace.finish(Outcome::Scores { total_cycles: id });
        }
        let traces = recorder.drain();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces.last().unwrap().request_id, 9);
        // Histograms keep the full population even after eviction.
        assert_eq!(recorder.duration_histogram().count(), 10);
    }

    #[test]
    fn write_stall_amends_the_completed_trace_and_its_histogram() {
        let recorder = recorder(1);
        let mut trace = recorder.begin(3);
        trace.note_replica(0);
        trace.finish(Outcome::Scores { total_cycles: 5 });
        recorder.record_write_stall(3, 0.002);
        assert_eq!(recorder.write_stall_histogram().count(), 1);
        let traces = recorder.drain();
        assert_eq!(traces[0].phase_seconds(Phase::WriteStall), Some(0.002));
        // After the drain the trace is gone; the histogram still records.
        recorder.record_write_stall(3, 0.001);
        assert_eq!(recorder.write_stall_histogram().count(), 2);
    }

    #[test]
    fn spilled_route_phases_accumulate_into_one_span() {
        let recorder = recorder(2);
        let mut trace = recorder.begin(11);
        trace.advance(Phase::Route);
        trace.note_replica(0);
        trace.advance(Phase::QueueWait);
        // Back to an earlier phase, annotated again.
        trace.advance(Phase::Route);
        trace.note_replica(1);
        trace.advance(Phase::QueueWait);
        trace.finish(Outcome::Scores { total_cycles: 1 });
        let traces = recorder.drain();
        let route_spans = traces[0]
            .phases
            .iter()
            .filter(|s| s.phase == Phase::Route)
            .count();
        assert_eq!(route_spans, 1, "re-entered phases merge");
        assert_eq!(traces[0].replica, Some(1), "the last annotation wins");
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = RequestTrace {
            request_id: 12,
            unix_ms: 1_700_000_000_123,
            replica: Some(1),
            queue_depth_at_route: Some(4),
            phases: vec![
                PhaseSpan {
                    phase: Phase::Admission,
                    seconds: 1.5e-6,
                },
                PhaseSpan {
                    phase: Phase::Compute,
                    seconds: 0.25,
                },
            ],
            outcome: Outcome::Rejected {
                scope: "deadline".to_string(),
            },
            total_seconds: 0.5,
        };
        let line = trace.to_json_line();
        let parsed = RequestTrace::from_json_line(&line).unwrap();
        assert_eq!(parsed.request_id, trace.request_id);
        assert_eq!(parsed.outcome, trace.outcome);
        assert_eq!(parsed.phases.len(), trace.phases.len());
        for (a, b) in parsed.phases.iter().zip(&trace.phases) {
            assert_eq!(a.phase, b.phase);
            assert!((a.seconds - b.seconds).abs() < 1e-12);
        }
        assert!(RequestTrace::from_json_line("{not json").is_none());
        assert!(RequestTrace::from_json_line("").is_none());
    }
}
