//! Per-request span telemetry for the SNN serving stack.
//!
//! This crate is the observability backbone the serving layers
//! (`snn-accel`'s `StreamServer`, `snn-net`'s reactor) thread a
//! [`SpanRecorder`] through: every admitted request carries one
//! fixed-size [`RequestTrace`] (`Copy`, no heap) that marks typed phase
//! boundaries ([`Phase::Admission`] → [`Phase::Route`] →
//! [`Phase::QueueWait`] → [`Phase::BatchAssembly`] → [`Phase::Compute`],
//! with [`Phase::WriteStall`] appended by the reactor after settle) and a
//! terminal [`Outcome`].  Completed traces are exported three ways:
//!
//! 1. **Histograms** — [`SpanRecorder::histogram_families`] feeds
//!    `request_queue_wait_seconds`, `request_compute_seconds`,
//!    `request_duration_seconds` (per-`replica` labels) and
//!    `reactor_write_stall_seconds` into the server's [`MetricTable`],
//!    on the fixed log-spaced buckets of [`histogram`].
//! 2. **JSONL trace dump** — [`SpanRecorder::render_jsonl`] drains the
//!    per-replica ring buffers into one [`RequestTrace::to_json_line`]
//!    line per trace (STATS format byte `2 = TRACES` on the wire).
//! 3. **Percentiles** — [`LatencyHistogram::quantile`] gives p50/p99/p999
//!    of any recorded phase.
//!
//! Design constraints (see `ARCHITECTURE.md` § Observability): a traced
//! request takes two clock reads of its own at admission plus one at
//! compute start, allocates nothing, and touches one mutex, at completion.
//! Tracing is on by default; `SNN_TRACE=0` ([`trace_enabled_from_env`])
//! disables it with bit-identical serving results.

pub mod histogram;
pub mod metrics;
pub mod trace;

pub use histogram::{
    bucket_index, bucket_upper_bound, escape_label_value, render_histogram, LatencyHistogram,
    BUCKET_COUNT,
};
pub use metrics::{
    render_metrics_prometheus, render_metrics_text, HistogramFamily, Metric, MetricFamily,
    MetricKind, MetricTable,
};
pub use trace::{
    trace_enabled_from_env, ErrorCode, Outcome, Phase, RejectScope, RequestTrace, SpanRecorder,
    DEFAULT_TRACE_CAPACITY, PHASES, PHASE_COUNT,
};
