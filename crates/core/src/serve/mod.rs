//! Streaming serving: replica engines pulling from one queue.
//!
//! [`StreamServer`] compiles one model **once** and serves it from
//! [`ServerOptions::replicas`] identical engine replicas fed out of
//! **one** bounded submission queue — the way the paper's controller
//! feeds its identical processing units from one shared activation
//! buffer, with no per-unit queue and no arbiter.  Each replica is a
//! dispatcher thread that takes one request at a time from the queue and
//! runs it inline on the **spike-major engine**, against the program
//! compiled once at start-up.  A single queue with N servers is
//! work-conserving by construction: an idle engine always takes the next
//! request, so there is no placement decision to make.  Every report a
//! client receives is bit-identical to the matching solo
//! [`crate::sim::Accelerator`] call **regardless of the replica count**
//! (pinned by property tests).
//!
//! The dispatchers are the only parallelism, and they are the serving
//! side of the single global [`snn_parallel::ThreadBudget`]: by default a
//! server runs one replica per budgeted thread, so it keeps the whole
//! budget busy and no more.  [`StreamServer::stats`] aggregates the
//! per-replica counters (completed inferences, wall-clock throughput,
//! modelled per-unit utilisation) into one [`ServerStats`] view that also
//! carries the per-replica slices.
//!
//! # Admission policy
//!
//! The queue is **bounded** — [`ServerOptions::queue_capacity`] per
//! healthy replica — with a *reject-when-full* policy, decided in one
//! locked check: [`StreamServer::submit`] never blocks the caller, and a
//! submission that finds the queue at its bound is rejected with the
//! typed [`AccelError::QueueFull`] (carrying the depth and the bound) and
//! counted in [`ServerStats::rejected`].  Rejection is load shedding, not
//! failure: the client sees exactly which limit it hit and can retry,
//! back off or go elsewhere, while the server's memory stays bounded no
//! matter how fast clients submit — the property a network front-end
//! needs.  [`StreamServer::queue_snapshot`] exposes the live queue depth
//! and recent drain rate (windowed over the last [`DRAIN_WINDOW`]
//! requests per replica) so that front-end
//! (`snn-net`) can attach a concrete *retry-after* hint to every
//! rejection.
//!
//! # Completion
//!
//! Every submission carries a tag and a [`CompletionSink`]; when it
//! settles, the dispatcher sends a tagged [`Completion`] through the sink
//! and then invokes the sink's waker.  [`StreamServer::submit_tagged`]
//! is that mechanism in the open — the path an event-driven front-end
//! uses: the `snn-net` reactor hands the dispatcher a waker that writes
//! one byte into its wake pipe, keeps hundreds of inferences in flight
//! across its connections, and never parks a thread per request.
//! [`StreamServer::submit`] is the blocking adaptor over it: the returned
//! [`Ticket`] owns a private one-shot sink whose waker does nothing, and
//! [`Ticket::wait`] blocks on its receiver.
//!
//! # Graceful degradation
//!
//! Each replica's dispatcher runs under a supervisor: a panic that escapes
//! the per-request unwind guard kills only that replica.  The supervisor
//! marks it unhealthy and settles its **in-flight** request with the
//! typed [`AccelError::ReplicaDown`] — that client gets an immediate
//! answer and can resubmit.  Nothing else is stranded: what is still
//! queued is served by the surviving replicas, the admission bound
//! shrinks with the healthy count, and [`ServerStats::healthy_replicas`]
//! drops below [`ServerStats::replicas`]: healthy but degraded, not dead.
//! Only when the last replica dies is the remainder of the queue settled
//! with [`AccelError::Serving`], which is also what new submissions then
//! get.

mod replica;
mod stats;

pub use stats::{
    drain_rate, QueueSnapshot, ReplicaStats, ServerStats, DEFAULT_RETRY_AFTER_MS, DRAIN_WINDOW,
    MAX_RETRY_AFTER_MS,
};

use crate::config::AcceleratorConfig;
use crate::exec::utilisation_from_program;
use crate::report::RunReport;
use crate::sim::Accelerator;
use crate::{AccelError, Result};
use replica::{
    all_replicas_down, error_outcome, relock, EngineShared, ReplicaShared, Submission,
    SubmissionQueue,
};
use snn_model::snn::SnnModel;
use snn_telemetry::{Phase, SpanRecorder};
use snn_tensor::Tensor;
use stats::StatsAccum;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Options of a [`StreamServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Maximum undispatched submissions the queue holds **per healthy
    /// replica**; at `queue_capacity × healthy replicas`
    /// [`StreamServer::submit`] rejects with [`AccelError::QueueFull`]
    /// (see the module docs on the admission policy).  Must be at least
    /// `1`: a zero capacity would reject every submission, so
    /// [`StreamServer::start_with`] refuses it with the typed
    /// [`AccelError::InvalidConfig`] instead of starting a server that can
    /// never serve (use [`StreamServer::shutdown`] to drain).
    pub queue_capacity: usize,
    /// Server-wide deadline on **queue wait**: a submission that has sat
    /// undispatched for this long is shed *before* compute with the typed
    /// [`AccelError::DeadlineExceeded`] (counted in
    /// [`ServerStats::deadline_sheds`]) instead of being computed late for
    /// a client that has given up.  `None` (the default) never sheds;
    /// per-request deadlines passed to [`StreamServer::submit_within`]
    /// tighten this bound but never loosen it.  A zero duration sheds
    /// every queued submission — useful in tests, degenerate in
    /// production.
    pub max_queue_wait: Option<Duration>,
    /// How many engine replicas serve the compiled model (default: the
    /// global thread budget, `snn_parallel::budget().total()`).  Each
    /// replica is one dispatcher thread taking one request at a time
    /// from the one shared queue.  Results are bit-identical for every
    /// value.  Must be in `1..=snn_parallel::MAX_THREADS`
    /// ([`AccelError::InvalidConfig`] otherwise).
    pub replicas: usize,
    /// Whether per-request span tracing is recorded (default: on, unless
    /// the environment sets `SNN_TRACE=0`).  Tracing is wait-free on the
    /// hot path — phase marks live on the submission itself and the only
    /// shared touch is one shard mutex at completion — with a documented
    /// overhead budget of <3% throughput versus tracing off, and results
    /// are bit-identical either way (pinned by tests).  See
    /// [`StreamServer::recorder`].
    pub trace: bool,
}

/// Default [`ServerOptions::queue_capacity`]: deep enough that a paced
/// client never notices, small enough to bound memory under abuse.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_queue_wait: None,
            replicas: snn_parallel::budget().total(),
            trace: snn_telemetry::trace_enabled_from_env(),
        }
    }
}

/// A settled submission, delivered through the channel half of a
/// [`CompletionSink`].
#[derive(Debug)]
pub struct Completion {
    /// The caller-chosen tag passed to [`StreamServer::submit_tagged`].
    pub tag: u64,
    /// The inference outcome.
    pub result: Result<RunReport>,
}

/// The delivery side of a submission.
///
/// Built with [`CompletionSink::new`], which returns the sink (handed to
/// [`StreamServer::submit_tagged`], clonable) and the receiver the caller
/// drains.  When an inference settles, the dispatcher pushes a
/// [`Completion`] into the channel **and then** invokes the waker — so a
/// reactor blocked in `poll(2)` can use the waker to write one byte into a
/// wake pipe and is guaranteed to observe the completion after waking.  No
/// thread ever blocks on a reply channel.
#[derive(Clone)]
pub struct CompletionSink {
    pub(crate) sender: mpsc::Sender<Completion>,
    pub(crate) waker: Arc<dyn Fn() + Send + Sync>,
}

impl fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionSink").finish_non_exhaustive()
    }
}

impl CompletionSink {
    /// Creates a sink and its completion receiver.  `waker` is called by
    /// the dispatcher thread after every completion it enqueues; it must be
    /// cheap and must not block (e.g. a non-blocking one-byte pipe write).
    pub fn new(waker: Arc<dyn Fn() + Send + Sync>) -> (Self, mpsc::Receiver<Completion>) {
        let (sender, receiver) = mpsc::channel();
        (CompletionSink { sender, waker }, receiver)
    }
}

/// A pending inference, the blocking adaptor over the completion sink:
/// resolved by [`Ticket::wait`] (blocking) or polled with
/// [`Ticket::try_wait`] (non-blocking).
#[derive(Debug)]
pub struct Ticket {
    /// The receiving half of this ticket's private one-shot sink.
    receiver: mpsc::Receiver<Completion>,
}

impl Ticket {
    fn dead() -> AccelError {
        AccelError::Serving {
            context: "server shut down before the inference completed".to_string(),
        }
    }

    /// Blocks until the inference completes and returns its report.
    ///
    /// # Errors
    ///
    /// Propagates execution errors, or [`AccelError::Serving`] when the
    /// server shut down before this inference was dispatched.
    pub fn wait(self) -> Result<RunReport> {
        self.receiver.recv().map_err(|_| Self::dead())?.result
    }

    /// Non-blocking poll: returns the report if the inference has settled,
    /// `None` while it is still queued or executing.
    ///
    /// The result is delivered **once**: after `try_wait` returns `Some`,
    /// later calls (and [`Ticket::wait`]) see the ticket as dead and report
    /// [`AccelError::Serving`].  Event loops that poll tickets should drop
    /// the ticket on `Some`.
    pub fn try_wait(&self) -> Option<Result<RunReport>> {
        match self.receiver.try_recv() {
            Ok(completion) => Some(completion.result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(Self::dead())),
        }
    }
}

/// The waker of every [`Ticket`]'s private sink: nobody is asleep in a
/// poller, the waiter blocks on the channel itself.
fn ticket_waker() -> Arc<dyn Fn() + Send + Sync> {
    static NOOP: OnceLock<Arc<dyn Fn() + Send + Sync>> = OnceLock::new();
    Arc::clone(NOOP.get_or_init(|| Arc::new(|| {})))
}

/// Streaming inference server.  See the module docs.
pub struct StreamServer {
    engine: Arc<EngineShared>,
    replicas: Vec<Arc<ReplicaShared>>,
    dispatchers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamServer")
            .field("options", &self.engine.options)
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

impl StreamServer {
    /// Starts a server for `model` on an accelerator with `config` and
    /// default [`ServerOptions`].  The model is compiled once, up front.
    ///
    /// # Errors
    ///
    /// Returns an error when the model cannot be mapped onto the
    /// configuration.
    pub fn start(config: AcceleratorConfig, model: SnnModel) -> Result<Self> {
        Self::start_with(config, model, ServerOptions::default())
    }

    /// Starts a server with explicit options: the model is compiled once
    /// and [`ServerOptions::replicas`] engine replicas are spawned over
    /// the shared program and the shared queue.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for degenerate options — a
    /// `queue_capacity` of `0` (every submission would be rejected),
    /// `replicas` of `0` (no engine could ever serve) or above
    /// `snn_parallel::MAX_THREADS` (one thread and one trace ring each,
    /// checked before any exists) — and otherwise the errors of
    /// [`StreamServer::start`].
    pub fn start_with(
        config: AcceleratorConfig,
        model: SnnModel,
        options: ServerOptions,
    ) -> Result<Self> {
        if options.queue_capacity == 0 {
            return Err(AccelError::InvalidConfig {
                context: "ServerOptions::queue_capacity is 0: every submission would be \
                          rejected (shut the server down to drain it instead)"
                    .to_string(),
            });
        }
        if options.replicas == 0 {
            return Err(AccelError::InvalidConfig {
                context: "ServerOptions::replicas is 0: no engine replica could ever serve \
                          a submission"
                    .to_string(),
            });
        }
        if options.replicas > snn_parallel::MAX_THREADS {
            return Err(AccelError::InvalidConfig {
                context: format!(
                    "ServerOptions::replicas is {}: at most {} dispatcher threads",
                    options.replicas,
                    snn_parallel::MAX_THREADS
                ),
            });
        }
        let accel = Accelerator::new(config);
        let program = accel.compile(&model)?;
        let engine = Arc::new(EngineShared {
            accel,
            model,
            program,
            options,
            queue: Mutex::new(SubmissionQueue::default()),
            ready: Condvar::new(),
            healthy: (0..options.replicas)
                .map(|_| AtomicBool::new(true))
                .collect(),
            recorder: Arc::new(SpanRecorder::new(options.replicas, options.trace)),
        });
        let mut replicas = Vec::with_capacity(options.replicas);
        let mut dispatchers = Vec::with_capacity(options.replicas);
        for index in 0..options.replicas {
            let shared = Arc::new(ReplicaShared {
                index,
                engine: Arc::clone(&engine),
                stats: Mutex::new(StatsAccum {
                    recent: VecDeque::with_capacity(DRAIN_WINDOW),
                    ..StatsAccum::default()
                }),
                in_flight: Mutex::default(),
                started: Instant::now(),
            });
            replicas.push(Arc::clone(&shared));
            let handle = thread::Builder::new()
                .name(format!("snn-serve-rep{index}"))
                .spawn(move || replica::run(&shared))
                .expect("spawn replica dispatcher thread");
            dispatchers.push(handle);
        }
        Ok(StreamServer {
            engine,
            replicas,
            dispatchers,
            started: Instant::now(),
        })
    }

    /// The server's span recorder: per-replica phase histograms and the
    /// ring buffer of completed [`snn_telemetry::RequestTrace`]s.  A
    /// front-end drains it for the JSONL trace export and renders its
    /// histograms into the Prometheus exposition.  Disabled
    /// ([`ServerOptions::trace`] false) it records nothing and the
    /// serving path takes none of the trace's clock reads.
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.engine.recorder
    }

    /// Enqueues one input for inference and returns its [`Ticket`].
    ///
    /// Never blocks: admission is governed by the bounded-queue policy in
    /// the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::QueueFull`] when the queue already holds
    /// [`ServerOptions::queue_capacity`] undispatched inputs per healthy
    /// replica (the rejection is also counted in
    /// [`ServerStats::rejected`]), and [`AccelError::Serving`] when the
    /// server has begun shutting down or no replica is healthy.
    pub fn submit(&self, input: Tensor<f32>) -> Result<Ticket> {
        self.submit_within(input, None)
    }

    /// Like [`StreamServer::submit`] with a per-request **queue-wait
    /// deadline**: if the submission is still undispatched after
    /// `deadline`, it is shed before compute and the ticket resolves with
    /// [`AccelError::DeadlineExceeded`] (counted in
    /// [`ServerStats::deadline_sheds`]).  The effective deadline is the
    /// tighter of `deadline` and [`ServerOptions::max_queue_wait`]; `None`
    /// defers entirely to the server-wide bound.
    ///
    /// # Errors
    ///
    /// Admission errors exactly as [`StreamServer::submit`]; the deadline
    /// only governs what happens after admission.
    pub fn submit_within(&self, input: Tensor<f32>, deadline: Option<Duration>) -> Result<Ticket> {
        let (sink, receiver) = CompletionSink::new(ticket_waker());
        // Tickets are traced under a recorder-assigned id.
        let tag = self.engine.recorder.next_request_id();
        self.enqueue(input, tag, sink, deadline)?;
        Ok(Ticket { receiver })
    }

    /// Enqueues one input whose result is delivered as a [`Completion`]
    /// carrying `tag` through `sink`'s channel: no thread waits on it; the
    /// dispatcher pushes the completion and invokes the sink's waker.
    /// This is how an event-loop front-end (the `snn-net` reactor) keeps
    /// many inferences in flight per connection without parking a thread
    /// on each.  `tag` is also the request id the trace is recorded under,
    /// so callers keep tags unique.  `deadline` is the per-request
    /// queue-wait deadline of [`StreamServer::submit_within`]; an expired
    /// submission **does** produce a completion — carrying
    /// [`AccelError::DeadlineExceeded`] — because the front-end needs to
    /// answer the request it already accepted.
    ///
    /// # Errors
    ///
    /// [`AccelError::QueueFull`] and [`AccelError::Serving`] exactly as
    /// [`StreamServer::submit`]; a rejected submission produces **no**
    /// completion, so callers settle the request from the error in hand.
    pub fn submit_tagged(
        &self,
        input: Tensor<f32>,
        tag: u64,
        sink: &CompletionSink,
        deadline: Option<Duration>,
    ) -> Result<()> {
        self.enqueue(input, tag, sink.clone(), deadline)
    }

    /// Admission: one locked check, then push and wake one dispatcher.
    /// `enqueued_at` is both the deadline's clock zero and the trace
    /// start; a traced request adds the Route and QueueWait reads.
    fn enqueue(
        &self,
        input: Tensor<f32>,
        tag: u64,
        sink: CompletionSink,
        deadline: Option<Duration>,
    ) -> Result<()> {
        let enqueued_at = Instant::now();
        let options = &self.engine.options;
        let recorder = &self.engine.recorder;
        let traced = recorder.enabled();
        let mut trace = recorder.begin(tag);
        let deadline = match (deadline, options.max_queue_wait) {
            (Some(request), Some(server)) => Some(request.min(server)),
            (Some(request), None) => Some(request),
            (None, server) => server,
        };
        if traced {
            trace.enter(Phase::Route, enqueued_at.elapsed());
        }
        let refusal = {
            let mut queue = relock(&self.engine.queue);
            let healthy = self.engine.healthy_replicas();
            let queued = queue.jobs.len();
            let capacity = options.queue_capacity.saturating_mul(healthy);
            if queue.shutdown {
                AccelError::Serving {
                    context: "server is shutting down and no longer accepts submissions"
                        .to_string(),
                }
            } else if healthy == 0 {
                all_replicas_down()
            } else if queued >= capacity {
                queue.rejected += 1;
                AccelError::QueueFull { queued, capacity }
            } else {
                trace.queue_depth_at_route = Some(u32::try_from(queued).unwrap_or(u32::MAX));
                if traced {
                    trace.enter(Phase::QueueWait, enqueued_at.elapsed());
                }
                queue.jobs.push_back(Submission {
                    input,
                    tag,
                    sink,
                    enqueued_at,
                    deadline,
                    trace,
                });
                drop(queue);
                self.engine.ready.notify_one();
                return Ok(());
            }
        };
        if traced {
            recorder.complete(trace, error_outcome(&refusal), enqueued_at, Instant::now());
        }
        Err(refusal)
    }

    /// Submits all `inputs` and waits for all results, in order.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered — including an admission
    /// rejection, which cancels the not-yet-submitted remainder; already
    /// accepted inferences still complete server-side.
    pub fn run_all(&self, inputs: &[Tensor<f32>]) -> Result<Vec<RunReport>> {
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|i| self.submit(i.clone()))
            .collect::<Result<_>>()?;
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Cheap point-in-time queue-load snapshot: the queue's depth, its
    /// admission bound ([`ServerOptions::queue_capacity`] per **healthy**
    /// replica) and the healthy replicas' recent drain rates summed — the
    /// inputs of a retry-after hint.  All zeros when no replica is
    /// healthy.  Takes the queue lock and each replica's stats lock
    /// briefly (never two at once) and allocates nothing.
    pub fn queue_snapshot(&self) -> QueueSnapshot {
        let depth = relock(&self.engine.queue).jobs.len();
        let mut snapshot = QueueSnapshot {
            depth,
            capacity: 0,
            drain_rate_ips: 0.0,
        };
        for replica in &self.replicas {
            if self.engine.healthy[replica.index].load(Ordering::SeqCst) {
                snapshot.capacity = snapshot
                    .capacity
                    .saturating_add(self.engine.options.queue_capacity);
                snapshot.drain_rate_ips += relock(&replica.stats).drain_rate_ips(replica.started);
            }
        }
        snapshot
    }

    /// How many replica dispatchers are alive and pulling from the queue —
    /// the lock-free health probe a front-end polls.
    pub fn healthy_replicas(&self) -> usize {
        self.engine.healthy_replicas()
    }

    /// Snapshot of the serving statistics: aggregate counters plus the
    /// per-replica slices (see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let options = &self.engine.options;
        let per_replica: Vec<ReplicaStats> = self
            .replicas
            .iter()
            .map(|replica| {
                let accum = relock(&replica.stats);
                ReplicaStats {
                    index: replica.index,
                    healthy: self.engine.healthy[replica.index].load(Ordering::SeqCst),
                    completed: accum.completed,
                    errors: accum.errors,
                    panics: accum.panics,
                    deadline_sheds: accum.deadline_sheds,
                    drain_rate_ips: accum.drain_rate_ips(replica.started),
                }
            })
            .collect();
        let rejected = relock(&self.engine.queue).rejected;
        let completed: u64 = per_replica.iter().map(|r| r.completed).sum();
        let errors: u64 = per_replica.iter().map(|r| r.errors).sum();
        ServerStats {
            completed,
            errors,
            largest_batch: usize::from(completed + errors > 0),
            rejected,
            panics: per_replica.iter().map(|r| r.panics).sum(),
            deadline_sheds: per_replica.iter().map(|r| r.deadline_sheds).sum(),
            queue: self.queue_snapshot(),
            queue_capacity: options.queue_capacity,
            replicas: self.replicas.len(),
            healthy_replicas: per_replica.iter().filter(|r| r.healthy).count(),
            per_replica,
            thread_budget: snn_parallel::budget().total(),
            elapsed_s: self.started.elapsed().as_secs_f64(),
            utilisation: utilisation_from_program(self.engine.accel.config(), &self.engine.program),
        }
    }

    /// Drains the queue, stops every replica dispatcher and returns the
    /// final statistics.  Queued-but-undispatched submissions are still
    /// served; submissions after shutdown starts are not.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        relock(&self.engine.queue).shutdown = true;
        self.engine.ready.notify_all();
        for handle in self.dispatchers.drain(..) {
            // Replica panics are caught by the in-thread supervisor, so a
            // join error would mean the supervisor itself died; nothing is
            // left to salvage from that thread either way.
            let _ = handle.join();
        }
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deliberate crash triggers for fault-injection builds.  Compiled only
/// with the `fault-injection` feature; release builds pay nothing.
///
/// Two sentinels with distinct blast radii:
///
/// * the **poison pill** ([`poison::PILL_BITS`]) panics *inside* the
///   per-request unwind guard, exercising the request-level
///   `EnginePanic` isolation path — one inference fails, the replica
///   survives;
/// * the **kill pill** ([`poison::KILL_BITS`]) panics *outside* that
///   guard, in the dispatcher itself, exercising the replica supervisor —
///   the whole replica dies, its in-flight request settles with
///   [`AccelError::ReplicaDown`], and sibling replicas keep serving.
///
/// Both sentinels are quiet NaNs, so they round-trip bit-exactly through
/// the `snn-net` wire protocol and can be injected by a remote chaos
/// client.
#[cfg(feature = "fault-injection")]
pub mod poison {
    use snn_tensor::Tensor;

    /// Bit pattern of the per-request sentinel: a quiet NaN with a
    /// recognizable payload, so no legitimate input (finite activations)
    /// collides.
    pub const PILL_BITS: u32 = 0x7fc0_dead;

    /// Bit pattern of the replica-killing sentinel (a different quiet-NaN
    /// payload than [`PILL_BITS`]).
    pub const KILL_BITS: u32 = 0x7fc1_dead;

    /// The poison-pill value a test writes into an input's first element.
    pub fn pill() -> f32 {
        f32::from_bits(PILL_BITS)
    }

    /// The kill-pill value a test writes into an input's first element to
    /// bring down the whole replica that dequeues it.
    pub fn kill_pill() -> f32 {
        f32::from_bits(KILL_BITS)
    }

    /// Panics when `input` leads with the poison-pill sentinel.  Called
    /// inside the dispatcher's per-request unwind guard.
    pub(crate) fn check(input: &Tensor<f32>) {
        if input.as_slice().first().map(|v| v.to_bits()) == Some(PILL_BITS) {
            panic!("fault-injection poison pill in input");
        }
    }

    /// Panics when `input` leads with the kill-pill sentinel.  Called
    /// **outside** the per-request guard, so the unwind escapes the dispatch
    /// loop and lands in the replica supervisor.
    pub(crate) fn check_kill(input: &Tensor<f32>) {
        if input.as_slice().first().map(|v| v.to_bits()) == Some(KILL_BITS) {
            panic!("fault-injection kill pill: replica dispatcher going down");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
    use snn_model::params::Parameters;
    use snn_model::zoo;

    fn tiny_setup(time_steps: usize) -> (SnnModel, Vec<Tensor<f32>>) {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 11).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..6)
            .map(|i| {
                let values: Vec<f32> = (0..144)
                    .map(|j| ((i * 17 + j * 5) % 100) as f32 / 100.0)
                    .collect();
                Tensor::from_vec(vec![1, 12, 12], values).unwrap()
            })
            .collect();
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let model = convert(
            &net,
            &params,
            &stats,
            ConversionConfig {
                weight_bits: 3,
                time_steps,
            },
        )
        .unwrap();
        (model, inputs)
    }

    #[test]
    fn served_reports_match_solo_runs_bit_exactly() {
        let (model, inputs) = tiny_setup(4);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let served = server.run_all(&inputs).unwrap();
        let accel = Accelerator::new(config);
        for (report, input) in served.iter().zip(&inputs) {
            let solo = accel.run(&model, input).unwrap();
            assert_eq!(report, &solo);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.largest_batch, 1, "every dispatch is one request");
        assert_eq!(stats.mean_batch(), 1.0);
        assert!(!stats.utilisation.is_empty());
    }

    #[test]
    fn replicated_server_matches_single_replica_bit_exactly() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let solo = Accelerator::new(config);
        let server = StreamServer::start_with(
            config,
            model.clone(),
            ServerOptions {
                replicas: 2,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let served = server.run_all(&inputs).unwrap();
        for (report, input) in served.iter().zip(&inputs) {
            assert_eq!(report, &solo.run(&model, input).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!(stats.replicas, 2);
        assert_eq!(stats.healthy_replicas, 2);
        assert_eq!(stats.per_replica.len(), 2);
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(
            stats.per_replica.iter().map(|r| r.completed).sum::<u64>(),
            stats.completed,
            "aggregate counters are the sum of the replica slices"
        );
        assert!(stats.per_replica.iter().all(|r| r.healthy));
    }

    #[test]
    fn zero_replicas_are_rejected_at_construction() {
        let (model, _) = tiny_setup(3);
        match StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                replicas: 0,
                ..ServerOptions::default()
            },
        ) {
            Err(AccelError::InvalidConfig { context }) => {
                assert!(context.contains("ServerOptions"), "context: {context}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn bad_inputs_error_without_stalling_the_server() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let bad = server
            .submit(Tensor::filled(vec![1, 8, 8], 0.5f32))
            .unwrap();
        let good = server.submit(inputs[0].clone()).unwrap();
        assert!(bad.wait().is_err());
        assert!(good.wait().is_ok());
        let stats = server.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn unmappable_model_is_rejected_at_startup() {
        let (model, _) = tiny_setup(3);
        let config = AcceleratorConfig {
            conv_units: 0,
            ..AcceleratorConfig::default()
        };
        assert!(StreamServer::start(config, model).is_err());
    }

    #[test]
    fn shutdown_before_dispatch_resolves_tickets_with_an_error_or_result() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let ticket = server.submit(inputs[0].clone()).unwrap();
        // Shutdown drains the queue first, so this ticket resolves with a
        // report rather than hanging.
        let stats = server.shutdown();
        assert!(ticket.wait().is_ok());
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn degenerate_options_are_rejected_at_construction() {
        for options in [
            ServerOptions {
                queue_capacity: 0,
                ..ServerOptions::default()
            },
            ServerOptions {
                replicas: snn_parallel::MAX_THREADS + 1,
                ..ServerOptions::default()
            },
        ] {
            let (model, _) = tiny_setup(3);
            match StreamServer::start_with(AcceleratorConfig::default(), model, options) {
                Err(AccelError::InvalidConfig { context }) => {
                    assert!(context.contains("ServerOptions"), "context: {context}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn full_queue_rejects_with_typed_error_and_counts() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                queue_capacity: 1,
                replicas: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        // Submitting is orders of magnitude faster than inference, so a
        // tight loop must fill the one-slot queue long before the bounded
        // attempt cap: once the dispatcher is busy with an earlier input
        // and one more waits, the next submission is shed.
        let mut tickets = Vec::new();
        let mut rejection = None;
        for _ in 0..10_000 {
            match server.submit(inputs[0].clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(err) => {
                    rejection = Some(err);
                    break;
                }
            }
        }
        match rejection.expect("a rejection within the attempt cap") {
            AccelError::QueueFull { queued, capacity } => {
                assert_eq!(queued, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A full queue yields a positive retry hint.
        let snapshot = server.queue_snapshot();
        assert_eq!(snapshot.capacity, 1);
        if snapshot.is_full() {
            assert!(snapshot.retry_after_ms() >= 1);
        }
        // Accepted inferences still complete.
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.rejected >= 1);
        assert!(stats.completed >= 1);
    }

    #[test]
    fn queue_snapshot_reports_depth_capacity_and_drain_rate() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let bound = DEFAULT_QUEUE_CAPACITY * server.healthy_replicas();
        let before = server.queue_snapshot();
        assert_eq!(before.capacity, bound);
        assert!(!before.is_full());
        assert_eq!(before.retry_after_ms(), 0, "empty queue: retry now");
        server.run_all(&inputs).unwrap();
        let after = server.queue_snapshot();
        assert_eq!(after.depth, 0, "run_all drained everything");
        assert!(after.drain_rate_ips > 0.0, "served work implies a rate");
        let stats = server.shutdown();
        assert_eq!(stats.queue.capacity, bound);
    }

    #[test]
    fn retry_hint_math_covers_the_fallbacks() {
        let empty = QueueSnapshot {
            depth: 0,
            capacity: 8,
            drain_rate_ips: 100.0,
        };
        assert_eq!(empty.retry_after_ms(), 0);
        let unmeasured = QueueSnapshot {
            depth: 3,
            capacity: 8,
            drain_rate_ips: 0.0,
        };
        assert_eq!(unmeasured.retry_after_ms(), DEFAULT_RETRY_AFTER_MS);
        let typical = QueueSnapshot {
            depth: 5,
            capacity: 8,
            drain_rate_ips: 50.0,
        };
        // 5 inferences at 50/s = 100 ms.
        assert_eq!(typical.retry_after_ms(), 100);
        let glacial = QueueSnapshot {
            depth: 1000,
            capacity: 1000,
            drain_rate_ips: 0.001,
        };
        assert_eq!(glacial.retry_after_ms(), MAX_RETRY_AFTER_MS);
    }

    #[test]
    fn try_wait_polls_without_blocking_and_matches_wait() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let ticket = server.submit(inputs[0].clone()).unwrap();
        // Poll until it settles (bounded, far beyond any plausible run).
        let mut polled = None;
        for _ in 0..20_000 {
            if let Some(result) = ticket.try_wait() {
                polled = Some(result);
                break;
            }
            thread::sleep(std::time::Duration::from_micros(200));
        }
        let report = polled
            .expect("inference settles within the poll cap")
            .unwrap();
        let solo = Accelerator::new(config).run(&model, &inputs[0]).unwrap();
        assert_eq!(report, solo, "polled result equals the blocking oracle");
        // The result was delivered once; the drained ticket is dead.
        match ticket.try_wait() {
            Some(Err(AccelError::Serving { .. })) => {}
            other => panic!("expected a dead ticket, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn tagged_submissions_complete_through_the_sink_with_a_wake_per_completion() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let wakes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let wakes_in_waker = Arc::clone(&wakes);
        let (sink, completions) = CompletionSink::new(Arc::new(move || {
            wakes_in_waker.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        for (tag, input) in inputs.iter().enumerate() {
            server
                .submit_tagged(input.clone(), tag as u64, &sink, None)
                .unwrap();
        }
        let mut seen = vec![false; inputs.len()];
        let accel = Accelerator::new(config);
        for _ in 0..inputs.len() {
            let completion = completions
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("completion arrives");
            let tag = completion.tag as usize;
            assert!(!seen[tag], "tag {tag} delivered twice");
            seen[tag] = true;
            let report = completion.result.unwrap();
            let solo = accel.run(&model, &inputs[tag]).unwrap();
            assert_eq!(report, solo, "tagged result equals the solo oracle");
        }
        assert!(seen.iter().all(|&s| s), "every tag completed");
        // The wake follows the enqueue, so the last completion can be in
        // hand before its wake has been sent: count them once shutdown has
        // joined the dispatcher.
        let stats = server.shutdown();
        assert_eq!(
            wakes.load(std::sync::atomic::Ordering::SeqCst),
            inputs.len(),
            "one wake per completion, sent after the enqueue"
        );
        assert_eq!(stats.completed, inputs.len() as u64);
    }

    #[test]
    fn tagged_rejections_produce_no_completion() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                queue_capacity: 1,
                replicas: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for tag in 0..10_000 {
            match server.submit_tagged(inputs[0].clone(), tag, &sink, None) {
                Ok(()) => accepted += 1,
                Err(AccelError::QueueFull { .. }) => {
                    rejected += 1;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected >= 1, "the one-slot queue must shed");
        // Exactly the accepted submissions complete; the rejection never
        // surfaces in the completion channel.
        let mut settled = 0u64;
        while let Ok(completion) = completions.recv_timeout(std::time::Duration::from_secs(60)) {
            completion.result.unwrap();
            settled += 1;
            if settled == accepted {
                break;
            }
        }
        assert_eq!(settled, accepted);
        server.shutdown();
    }

    #[test]
    fn snapshots_and_stats_are_monotone_under_load() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .cycle()
            .take(12)
            .map(|input| server.submit(input.clone()).unwrap())
            .collect();
        // Interleave snapshots with the draining queue: the cumulative
        // counters never step backwards and the live depth stays within the
        // configured bound at every observation.
        let mut last = server.stats();
        for ticket in tickets {
            ticket.wait().unwrap();
            let snapshot = server.queue_snapshot();
            assert!(snapshot.depth <= snapshot.capacity);
            assert_eq!(
                snapshot.capacity,
                DEFAULT_QUEUE_CAPACITY * server.healthy_replicas()
            );
            let stats = server.stats();
            assert!(stats.completed >= last.completed, "completed is monotone");
            assert!(stats.errors >= last.errors, "errors is monotone");
            assert!(stats.rejected >= last.rejected, "rejected is monotone");
            assert!(stats.elapsed_s >= last.elapsed_s, "elapsed is monotone");
            last = stats;
        }
        let final_stats = server.shutdown();
        assert_eq!(final_stats.completed, 12);
    }

    #[test]
    fn zero_max_queue_wait_sheds_everything_before_compute() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_queue_wait: Some(Duration::ZERO),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .take(3)
            .map(|input| server.submit(input.clone()).unwrap())
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                Err(AccelError::DeadlineExceeded { deadline_ms, .. }) => {
                    assert_eq!(deadline_ms, 0);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.deadline_sheds, 3);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.errors, 0, "sheds are backpressure, not errors");
    }

    #[test]
    fn per_request_deadline_sheds_only_the_impatient_submission() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        // Keep the dispatcher busy so the impatient submission queues.
        let busy = server.submit(inputs[0].clone()).unwrap();
        let impatient = server
            .submit_within(inputs[1].clone(), Some(Duration::ZERO))
            .unwrap();
        let patient = server.submit_within(inputs[2].clone(), None).unwrap();
        busy.wait().unwrap();
        match impatient.wait() {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            // A second dispatcher (the default on a budget above one) may
            // take it at once, before any wait; then nothing sheds.
            // Accept either, but the patient submission must always
            // complete.
            Ok(_) => {}
            other => panic!("expected DeadlineExceeded or a report, got {other:?}"),
        }
        patient.wait().unwrap();
        server.shutdown();
    }

    #[test]
    fn tagged_deadline_sheds_deliver_a_completion() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                max_queue_wait: Some(Duration::ZERO),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        server
            .submit_tagged(inputs[0].clone(), 7, &sink, None)
            .unwrap();
        let completion = completions
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("shed submissions still complete through the sink");
        assert_eq!(completion.tag, 7);
        match completion.result {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = server.shutdown();
        assert!(stats.deadline_sheds >= 1);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn engine_panic_fails_one_item_and_the_server_survives() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start(config, model.clone()).unwrap();
        let mut poisoned_values = inputs[0].as_slice().to_vec();
        poisoned_values[0] = poison::pill();
        let poisoned = Tensor::from_vec(vec![1, 12, 12], poisoned_values).unwrap();
        let bad = server.submit(poisoned).unwrap();
        let good = server.submit(inputs[1].clone()).unwrap();
        match bad.wait() {
            Err(AccelError::EnginePanic { context }) => {
                assert!(context.contains("poison pill"), "context: {context}");
            }
            other => panic!("expected EnginePanic, got {other:?}"),
        }
        // The sibling and a fresh submission both complete, bit-exactly.
        let report = good.wait().unwrap();
        let solo = Accelerator::new(config).run(&model, &inputs[1]).unwrap();
        assert_eq!(report, solo);
        let fresh = server.submit(inputs[2].clone()).unwrap();
        fresh.wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.errors, 1, "the panic counts as an error too");
        assert_eq!(stats.completed, 2);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killed_replica_strands_only_its_requests_while_the_sibling_serves() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig::default();
        let server = StreamServer::start_with(
            config,
            model.clone(),
            ServerOptions {
                replicas: 2,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let mut kill_values = inputs[0].as_slice().to_vec();
        kill_values[0] = poison::kill_pill();
        let kill = Tensor::from_vec(vec![1, 12, 12], kill_values).unwrap();
        let doomed = server.submit(kill).unwrap();
        match doomed.wait() {
            Err(AccelError::ReplicaDown { replica, context }) => {
                assert!(replica < 2, "replica index in range: {replica}");
                assert!(context.contains("dispatcher died"), "context: {context}");
            }
            other => panic!("expected ReplicaDown, got {other:?}"),
        }
        // One replica is gone; the sibling keeps serving, bit-exactly.
        assert_eq!(server.healthy_replicas(), 1);
        let solo = Accelerator::new(config);
        for input in &inputs {
            let report = server.submit(input.clone()).unwrap().wait().unwrap();
            assert_eq!(report, solo.run(&model, input).unwrap());
        }
        let stats = server.shutdown();
        assert_eq!(stats.replicas, 2);
        assert_eq!(stats.healthy_replicas, 1);
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(
            stats.per_replica.iter().filter(|r| !r.healthy).count(),
            1,
            "exactly one replica died"
        );
        assert_eq!(stats.queue.depth, 0, "nothing was left queued");
        assert_eq!(
            stats.queue.capacity, DEFAULT_QUEUE_CAPACITY,
            "the admission bound shrank to the one healthy replica"
        );
    }

    #[cfg(feature = "fault-injection")]
    fn one_dispatcher() -> ServerOptions {
        ServerOptions {
            replicas: 1,
            ..ServerOptions::default()
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killing_the_last_replica_turns_new_submissions_into_serving_errors() {
        let (model, inputs) = tiny_setup(3);
        let server =
            StreamServer::start_with(AcceleratorConfig::default(), model, one_dispatcher())
                .unwrap();
        let mut kill_values = inputs[0].as_slice().to_vec();
        kill_values[0] = poison::kill_pill();
        let kill = Tensor::from_vec(vec![1, 12, 12], kill_values).unwrap();
        let doomed = server.submit(kill).unwrap();
        match doomed.wait() {
            Err(AccelError::ReplicaDown { replica: 0, .. }) => {}
            other => panic!("expected ReplicaDown, got {other:?}"),
        }
        assert_eq!(server.healthy_replicas(), 0);
        let snapshot = server.queue_snapshot();
        assert_eq!((snapshot.depth, snapshot.capacity), (0, 0));
        match server.submit(inputs[1].clone()) {
            Err(AccelError::Serving { context }) => {
                assert!(context.contains("down"), "context: {context}");
            }
            other => panic!("expected Serving, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.healthy_replicas, 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_kill_strands_only_the_in_flight_request_and_the_queue_settles_typed() {
        let (model, inputs) = tiny_setup(3);
        let server =
            StreamServer::start_with(AcceleratorConfig::default(), model, one_dispatcher())
                .unwrap();
        let mut kill = inputs[0].clone();
        kill.as_mut_slice()[0] = poison::kill_pill();
        let doomed = server.submit(kill).unwrap();
        // Whether these are queued before the only dispatcher dies (the
        // supervisor drains them) or arrive after (admission refuses
        // them), each gets the same typed `Serving` error.
        let followers = [inputs[1].clone(), inputs[2].clone()].map(|input| server.submit(input));
        match doomed.wait() {
            Err(AccelError::ReplicaDown { replica: 0, .. }) => {}
            other => panic!("expected ReplicaDown, got {other:?}"),
        }
        for follower in followers {
            match follower.and_then(Ticket::wait) {
                Err(AccelError::Serving { context }) => {
                    assert!(context.contains("down"), "context: {context}");
                }
                other => panic!("expected Serving, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.errors), (0, 0));
        assert_eq!(stats.queue.depth, 0);
    }

    #[test]
    fn an_unbounded_queue_capacity_saturates_instead_of_overflowing() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start_with(
            AcceleratorConfig::default(),
            model,
            ServerOptions {
                queue_capacity: usize::MAX,
                replicas: 2,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        server.submit(inputs[0].clone()).unwrap().wait().unwrap();
        assert_eq!(server.queue_snapshot().capacity, usize::MAX);
        assert_eq!(server.shutdown().completed, 1);
    }

    #[test]
    fn default_capacity_admits_normal_traffic_without_rejections() {
        let (model, inputs) = tiny_setup(3);
        let server = StreamServer::start(AcceleratorConfig::default(), model).unwrap();
        let served = server.run_all(&inputs).unwrap();
        assert_eq!(served.len(), inputs.len());
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_capacity, DEFAULT_QUEUE_CAPACITY);
    }
}
