//! Serving statistics: per-replica accumulators, queue snapshots, the
//! windowed drain-rate estimate, and the aggregated [`ServerStats`] view.
//!
//! The drain rate is the source of every retry-after hint, so its math
//! lives here as the **pure** function
//! [`drain_rate`] — callable without a server, which is how
//! `crates/core/tests/drain_rate_properties.rs` pins it against a
//! hand-stepped model (windowed rate, lifetime fallback, empty-window
//! division).

use crate::report::{RunReport, UnitUtilisation};
use crate::{AccelError, Result};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many recent request completions the drain-rate window keeps (the
/// "recent" in [`QueueSnapshot::drain_rate_ips`]): as much work as 32 full
/// micro-batches of eight, the window's former span.
pub const DRAIN_WINDOW: usize = 256;

/// Fallback retry hint when a server has not yet drained anything, so no
/// drain rate is measurable (milliseconds).
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// Upper clamp of [`QueueSnapshot::retry_after_ms`] (one minute).
pub const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// Per-replica cumulative counters, updated by that replica's dispatcher
/// under its stats lock.
#[derive(Default)]
pub(crate) struct StatsAccum {
    pub(crate) completed: u64,
    pub(crate) errors: u64,
    pub(crate) panics: u64,
    pub(crate) deadline_sheds: u64,
    /// `(completion instant, 1)` of the most recent computed requests,
    /// capped at [`DRAIN_WINDOW`] entries (allocated at start-up) — the
    /// basis of the *recent* drain rate in [`QueueSnapshot`].
    pub(crate) recent: VecDeque<(Instant, u64)>,
}

impl StatsAccum {
    /// Counts one computed request's outcome and adds its completion at
    /// `settled` to the drain window.
    pub(crate) fn record(&mut self, report: &Result<RunReport>, settled: Instant) {
        match report {
            Ok(_) => self.completed += 1,
            Err(err) => {
                self.errors += 1;
                if matches!(err, AccelError::EnginePanic { .. }) {
                    self.panics += 1;
                }
            }
        }
        if self.recent.len() == DRAIN_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((settled, 1));
    }

    /// The replica's drain rate right now (see [`drain_rate`]).
    pub(crate) fn drain_rate_ips(&self, started: Instant) -> f64 {
        drain_rate(
            &self.recent,
            self.completed + self.errors,
            started.elapsed(),
        )
    }
}

/// Recent drain rate in inferences/second, measured **completion to
/// completion** across the window: the inferences settled after the oldest
/// windowed record, divided by the span between the oldest and newest
/// completions.  Anchoring both ends on completions (rather than on "now")
/// keeps the rate a measure of how fast the dispatcher drains *when it is
/// draining* — an idle lull must not decay it, or the retry-after hints
/// derived from it would balloon after every quiet period.  Falls back to
/// the lifetime average (`lifetime_settled / lifetime_elapsed`) when the
/// window holds fewer than two records or spans zero time, and to `0.0`
/// when nothing has ever settled.
///
/// `recent` is the window of `(completion instant, inferences settled)`
/// records, oldest first, as maintained by the dispatcher (one per computed
/// request, capped at [`DRAIN_WINDOW`] entries); `lifetime_settled` is the cumulative
/// `completed + errors` count and `lifetime_elapsed` the wall-clock age of
/// the replica.
pub fn drain_rate(
    recent: &VecDeque<(Instant, u64)>,
    lifetime_settled: u64,
    lifetime_elapsed: Duration,
) -> f64 {
    if let (Some(&(oldest, oldest_items)), Some(&(newest, _))) = (recent.front(), recent.back()) {
        let span = newest.duration_since(oldest).as_secs_f64();
        // The oldest record marks the window start; its items settled at
        // (not during) the measured span.
        let items: u64 = recent.iter().map(|&(_, n)| n).sum::<u64>() - oldest_items;
        if span > 0.0 && items > 0 {
            return items as f64 / span;
        }
    }
    let elapsed = lifetime_elapsed.as_secs_f64();
    if elapsed > 0.0 && lifetime_settled > 0 {
        return lifetime_settled as f64 / elapsed;
    }
    0.0
}

/// A cheap point-in-time view of the submission queue's load: how deep it
/// is, how big it may grow, and how fast the dispatchers have recently
/// been draining it.
///
/// Produced by [`crate::serve::StreamServer::queue_snapshot`] (short lock
/// holds, no allocation).  This is the signal a network front-end turns
/// into *retry-after* hints on rejected submissions, closing the loop on
/// the reject-when-full admission policy:
/// a shed client learns not just that the server is full but when capacity
/// is likely to reappear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSnapshot {
    /// Submissions currently queued and not yet dispatched.
    pub depth: usize,
    /// The admission bound:
    /// [`crate::serve::ServerOptions::queue_capacity`] × healthy replicas.
    pub capacity: usize,
    /// Recent drain rate in inferences per second: inferences settled
    /// across the last [`DRAIN_WINDOW`] computed requests divided by the
    /// span between the oldest and newest of those completions — a
    /// completion-to-completion measure, so idle periods do not decay it
    /// (falling back to the lifetime average, and `0.0` before anything
    /// has been served).
    pub drain_rate_ips: f64,
}

impl QueueSnapshot {
    /// Whether the next submission would be rejected.
    pub fn is_full(&self) -> bool {
        self.depth >= self.capacity
    }

    /// Milliseconds a rejected client should wait before retrying: the time
    /// the dispatcher needs to drain the current queue depth at the recent
    /// drain rate, clamped to `1..=`[`MAX_RETRY_AFTER_MS`].
    ///
    /// Returns `0` when the queue is empty (retry immediately) and
    /// [`DEFAULT_RETRY_AFTER_MS`] when no drain rate is measurable yet.
    pub fn retry_after_ms(&self) -> u64 {
        if self.depth == 0 {
            return 0;
        }
        if self.drain_rate_ips <= 0.0 {
            return DEFAULT_RETRY_AFTER_MS;
        }
        let ms = (self.depth as f64 / self.drain_rate_ips * 1000.0).ceil() as u64;
        ms.clamp(1, MAX_RETRY_AFTER_MS)
    }
}

/// One replica engine's slice of the serving statistics — the `replica`
/// label's worth of a Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStats {
    /// Replica index (`0..ServerOptions::replicas`).
    pub index: usize,
    /// `false` once this replica's dispatcher died (a replica-level panic
    /// caught by its supervisor); its in-flight request was settled with
    /// [`crate::AccelError::ReplicaDown`] and it no longer pulls from the
    /// queue.
    pub healthy: bool,
    /// Inferences this replica completed successfully.
    pub completed: u64,
    /// Inferences this replica settled with an error.
    pub errors: u64,
    /// Engine panics caught at this replica's per-request boundary.
    pub panics: u64,
    /// Submissions this replica shed for an expired queue-wait deadline.
    pub deadline_sheds: u64,
    /// This replica's recent drain rate in inferences per second (see
    /// [`drain_rate`]).
    pub drain_rate_ips: f64,
}

/// Snapshot of a server's serving statistics, aggregated across replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Inferences completed successfully (summed over replicas).
    pub completed: u64,
    /// Inferences that returned an error (summed over replicas).
    pub errors: u64,
    /// Requests a dispatcher runs at once: `1` once anything has been
    /// computed, `0` before.  Kept so callers that read the former
    /// micro-batch size still compile; every dispatch is one request.
    pub largest_batch: usize,
    /// Submissions rejected by the bounded-queue admission policy.
    pub rejected: u64,
    /// Engine panics caught at the per-request boundary: each one failed
    /// exactly one inference with [`crate::AccelError::EnginePanic`] (also
    /// counted in `errors`) and left the dispatcher and the server
    /// running.
    pub panics: u64,
    /// Submissions shed from the queue before compute because their queue
    /// wait reached its deadline (see
    /// [`crate::serve::ServerOptions::max_queue_wait`]); like `rejected`,
    /// these are backpressure and are *not* counted in `errors` or
    /// `completed`.
    pub deadline_sheds: u64,
    /// Queue-depth / drain-rate snapshot (the admission bound and the
    /// drain rates summed over the healthy replicas).  The drain rate
    /// is windowed over the most recent [`DRAIN_WINDOW`] request
    /// completions of each replica, measured completion-to-completion so
    /// idle lulls do not decay it; with fewer than two windowed
    /// completions a replica falls back to its lifetime average.  Across
    /// successive snapshots the cumulative counters in this struct
    /// (`completed`, `errors`, `rejected`) are
    /// monotone non-decreasing, and `queue.depth` never exceeds
    /// `queue.capacity` while no replica dies (a death lowers the bound
    /// under what is already queued; the survivors drain it).
    pub queue: QueueSnapshot,
    /// Configured submission-queue capacity **per healthy replica**
    /// ([`crate::serve::ServerOptions::queue_capacity`]); the live
    /// admission bound is `queue.capacity`.
    pub queue_capacity: usize,
    /// Configured replica count ([`crate::serve::ServerOptions::replicas`]).
    pub replicas: usize,
    /// Replicas whose dispatcher is still alive and pulling from the queue.
    /// `healthy_replicas < replicas` is the *healthy-but-degraded* state: a
    /// replica died, its in-flight work was settled with typed errors, and
    /// the survivors keep serving.
    pub healthy_replicas: usize,
    /// Per-replica counter slices, indexed by replica.
    pub per_replica: Vec<ReplicaStats>,
    /// Effective global thread budget (`snn_parallel::budget`), which
    /// sets the default replica count.
    pub thread_budget: usize,
    /// Wall-clock seconds since the server started.
    pub elapsed_s: f64,
    /// Modelled per-unit busy/idle occupancy of one inference (identical
    /// for every inference of the compiled model, on every replica).
    pub utilisation: Vec<UnitUtilisation>,
}

impl ServerStats {
    /// Completed inferences per wall-clock second since start-up.
    pub fn throughput_ips(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed_s
    }

    /// Requests per dispatch: `1.0` once anything has been computed,
    /// `0.0` before (see [`ServerStats::largest_batch`]).
    pub fn mean_batch(&self) -> f64 {
        self.largest_batch as f64
    }
}
