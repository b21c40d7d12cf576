//! The replica engine loop: one dispatcher thread pulling one request at
//! a time from the server's single submission queue.
//!
//! A [`crate::serve::StreamServer`] compiles its model **once** and spawns
//! [`crate::serve::ServerOptions::replicas`] of these engines over the
//! shared compiled program — the E3NE scaling move of instantiating
//! multiple inference engines from one compiled network, fed the way the
//! paper feeds its identical processing units: one controller, one
//! buffer, no per-unit queue and no arbiter.  Every dispatcher takes the
//! next submission from the same queue and runs it inline on its own
//! thread, so an idle engine always takes the next request and the
//! dispatchers are the only way a server spreads requests over cores.
//! Deadline shedding before compute, per-request panic isolation and
//! stats-before-settle ordering all live here.
//!
//! Each dispatcher runs under a **supervisor**: its body runs under
//! `catch_unwind`, so a panic that escapes the per-request guard (a bug in
//! the dispatcher itself, or the fault-injection *kill pill*) takes down
//! only this replica.  The supervisor marks it unhealthy and settles its
//! **in-flight** request with the typed [`AccelError::ReplicaDown`]; what
//! is still queued is served by the siblings.  Only the death of the last
//! replica settles the remainder, with [`AccelError::Serving`].

use super::stats::StatsAccum;
use super::{Completion, CompletionSink, ServerOptions};
use crate::compiler::Program;
use crate::report::RunReport;
use crate::sim::Accelerator;
use crate::{AccelError, Result};
use snn_model::snn::SnnModel;
use snn_telemetry::{ErrorCode, Outcome, Phase, RejectScope, RequestTrace, SpanRecorder};
use snn_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a server-owned mutex, tolerating poison: a dispatcher that
/// panicked mid-request leaves its locks poisoned, and the supervisor (and
/// any stats reader) must still be able to walk the wreckage to settle
/// stranded submissions and report counters.
pub(crate) fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One queued inference.
pub(crate) struct Submission {
    pub(crate) input: Tensor<f32>,
    /// Echoed in the [`Completion`]; also the trace's request id.
    pub(crate) tag: u64,
    /// Where the result goes (a [`crate::serve::Ticket`] is a private
    /// one-shot sink).
    pub(crate) sink: CompletionSink,
    /// When the submission entered the queue: the deadline's clock zero
    /// and the trace start.
    pub(crate) enqueued_at: Instant,
    /// Effective queue-wait deadline: the tighter of the per-request
    /// deadline and [`ServerOptions::max_queue_wait`], resolved at
    /// admission.  `None` never expires.
    pub(crate) deadline: Option<Duration>,
    /// The request's span trace, carried with the submission through the
    /// pipeline (owned state: marking a phase boundary takes no locks).
    /// Published in [`Submission::settle`]; a submission dropped unsettled
    /// stays counted in the recorder's open-span gauge.
    pub(crate) trace: RequestTrace,
}

/// Maps an inference error onto the trace's terminal outcome.
pub(crate) fn error_outcome(err: &AccelError) -> Outcome {
    match err {
        AccelError::DeadlineExceeded { .. } => Outcome::Rejected {
            scope: RejectScope::Deadline,
        },
        AccelError::QueueFull { .. } => Outcome::Rejected {
            scope: RejectScope::Queue,
        },
        AccelError::EnginePanic { .. } => Outcome::Error {
            code: ErrorCode::EnginePanic,
        },
        AccelError::ReplicaDown { .. } => Outcome::ReplicaDown,
        AccelError::Serving { .. } => Outcome::Error {
            code: ErrorCode::Serving,
        },
        _ => Outcome::Error {
            code: ErrorCode::BadRequest,
        },
    }
}

/// What a submission is told when no replica is left to serve it.
pub(crate) fn all_replicas_down() -> AccelError {
    AccelError::Serving {
        context: "all replica engines are down; the server cannot serve until it is restarted"
            .to_string(),
    }
}

impl Submission {
    /// Whether this submission's queue wait has reached its deadline at
    /// `now` (a shed happens strictly before compute, so "reached" — not
    /// "exceeded" — is the boundary: a zero deadline always sheds).
    fn expired_at(&self, now: Instant) -> bool {
        match self.deadline {
            Some(deadline) => now.duration_since(self.enqueued_at) >= deadline,
            None => false,
        }
    }

    /// Delivers `result` through the submission's sink (a dropped ticket
    /// or closed sink just means the client stopped listening; the waker
    /// fires strictly after the send).  `settled` is the trace's end: a
    /// clock read the caller already took.
    pub(crate) fn settle(
        self,
        recorder: &SpanRecorder,
        result: Result<RunReport>,
        settled: Instant,
    ) {
        // Publish the trace before delivery: a client holding its result
        // is guaranteed to find the completed trace in the recorder.
        let outcome = match &result {
            Ok(report) => Outcome::Scores {
                total_cycles: report.total_cycles(),
            },
            Err(err) => error_outcome(err),
        };
        recorder.complete(self.trace, outcome, self.enqueued_at, settled);
        let completion = Completion {
            tag: self.tag,
            result,
        };
        if self.sink.sender.send(completion).is_ok() {
            (self.sink.waker)();
        }
    }
}

/// The server's one submission queue, its shutdown latch and the
/// admission counter — everything the admission lock guards.
#[derive(Default)]
pub(crate) struct SubmissionQueue {
    pub(crate) jobs: VecDeque<Submission>,
    /// Set on server shutdown: admission refuses, dispatchers exit once
    /// the queue is empty.
    pub(crate) shutdown: bool,
    /// Submissions refused with [`AccelError::QueueFull`].
    pub(crate) rejected: u64,
}

/// The state every replica shares: the compile-once engine (one
/// accelerator, one model, one program, one set of options), the one
/// submission queue, the replicas' health flags and the span recorder.
pub(crate) struct EngineShared {
    pub(crate) accel: Accelerator,
    pub(crate) model: SnnModel,
    pub(crate) program: Program,
    pub(crate) options: ServerOptions,
    pub(crate) queue: Mutex<SubmissionQueue>,
    pub(crate) ready: Condvar,
    /// One flag per replica, cleared by its supervisor when the dispatcher
    /// dies.  Admission reads them under the queue lock, and a supervisor
    /// clears its flag *before* taking that lock, so whichever of
    /// "last replica dies" and "submission admitted" locks second sees the
    /// other: nothing is ever queued behind zero engines.
    pub(crate) healthy: Vec<AtomicBool>,
    /// Where settled submissions publish their traces.
    pub(crate) recorder: Arc<SpanRecorder>,
}

impl EngineShared {
    pub(crate) fn healthy_replicas(&self) -> usize {
        self.healthy
            .iter()
            .filter(|h| h.load(Ordering::SeqCst))
            .count()
    }
}

/// One replica engine: dispatcher handshake, stats and its in-flight
/// request.
pub(crate) struct ReplicaShared {
    /// Replica index (`0..ServerOptions::replicas`), used in error
    /// contexts and stats labels.
    pub(crate) index: usize,
    pub(crate) engine: Arc<EngineShared>,
    pub(crate) stats: Mutex<StatsAccum>,
    /// The request currently executing.  The dispatcher parks it here for
    /// the duration of the compute so the supervisor can settle exactly
    /// this submission if the dispatcher dies mid-request.
    pub(crate) in_flight: Mutex<Option<Submission>>,
    pub(crate) started: Instant,
}

/// The replica thread body: the dispatch loop under its supervisor.
///
/// A normal return (server shutdown) leaves the replica healthy.  A panic
/// that unwinds out of the dispatch loop — past the per-request guard — is
/// caught here: the replica is marked unhealthy and its in-flight request
/// settles with [`AccelError::ReplicaDown`]; if it was the last replica,
/// everything still queued settles with [`AccelError::Serving`].  Those
/// settles are supervision, not inference outcomes, so they are **not**
/// counted in the replica's `errors`; the health flag and the typed error
/// carry the story.
pub(crate) fn run(shared: &ReplicaShared) {
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch_loop(shared)));
    if outcome.is_ok() {
        return;
    }
    let engine = &shared.engine;
    engine.healthy[shared.index].store(false, Ordering::SeqCst);
    let stranded: Vec<Submission> = {
        let mut queue = relock(&engine.queue);
        if engine.healthy_replicas() == 0 {
            queue.jobs.drain(..).collect()
        } else {
            Vec::new()
        }
    };
    let now = Instant::now();
    if let Some(submission) = relock(&shared.in_flight).take() {
        let died = Err(AccelError::ReplicaDown {
            replica: shared.index,
            context: format!(
                "replica {} dispatcher died mid-request; the submission was drained unserved \
                 (siblings keep serving — resubmit)",
                shared.index
            ),
        });
        submission.settle(&engine.recorder, died, now);
    }
    for submission in stranded {
        submission.settle(&engine.recorder, Err(all_replicas_down()), now);
    }
}

fn dispatch_loop(shared: &ReplicaShared) {
    let engine = &shared.engine;
    let traced = engine.recorder.enabled();
    loop {
        let mut submission = {
            let mut queue = relock(&engine.queue);
            loop {
                if let Some(submission) = queue.jobs.pop_front() {
                    break submission;
                }
                if queue.shutdown {
                    return;
                }
                queue = engine
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };

        // The trace's replica is the engine that dequeued the request.
        submission.trace.replica = Some(shared.index as u32);

        // Shed an expired request *before* compute: work the client has
        // already given up on is answered with a typed error at queue
        // cost, not computed late at full cost.  Its whole post-admission
        // life was queue wait.
        let now = Instant::now();
        if submission.expired_at(now) {
            relock(&shared.stats).deadline_sheds += 1;
            let waited_ms = now.duration_since(submission.enqueued_at).as_millis() as u64;
            let deadline_ms = submission
                .deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            let shed = Err(AccelError::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            });
            submission.settle(&engine.recorder, shed, now);
            continue;
        }
        // Queue wait ends at the dequeue; batch assembly spans dequeue to
        // compute start.
        let at = now.saturating_duration_since(submission.enqueued_at);
        submission.trace.enter(Phase::BatchAssembly, at);

        // Park the request in `in_flight` for the duration of the compute:
        // if anything below unwinds past the per-request guard, the
        // supervisor finds exactly this submission and settles it.
        let mut in_flight = relock(&shared.in_flight);
        let submission = in_flight.insert(submission);

        // The kill pill is checked *outside* the per-request guard: it
        // models a dispatcher-level crash (not an engine panic), so it
        // unwinds the whole loop into the supervisor.
        #[cfg(feature = "fault-injection")]
        super::poison::check_kill(&submission.input);

        if traced {
            let at = submission.enqueued_at.elapsed();
            submission.trace.enter(Phase::Compute, at);
        }

        // Run the request inline, under its own unwind guard: a panicking
        // inference fails only itself with the typed `EnginePanic`, never
        // the dispatcher.
        let report = snn_parallel::catch_panic_message(|| {
            #[cfg(feature = "fault-injection")]
            super::poison::check(&submission.input);
            engine
                .accel
                .execute_compiled(&engine.model, &engine.program, &submission.input)
        })
        .unwrap_or_else(|message| Err(AccelError::EnginePanic { context: message }));

        // Count before replying, so a client that has its result in hand
        // is guaranteed to find it reflected in the server statistics.  The
        // drain window's clock read is also the trace's settle point.
        let settled = Instant::now();
        relock(&shared.stats).record(&report, settled);
        let submission = in_flight.take().expect("the in-flight request is parked");
        drop(in_flight);
        // Waker strictly after the send (inside `settle`): a reactor woken
        // by the pipe byte must find the completion queued.
        submission.settle(&engine.recorder, report, settled);
    }
}
