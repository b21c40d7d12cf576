//! # snn-parallel
//!
//! A persistent worker pool with a global thread budget, used to run the
//! independent inferences of a batch side by side.  Requests are the only
//! unit of host parallelism: one inference runs on one thread from its
//! first layer to its last, because splitting a layer over threads only
//! ever measured slower (the numbers are in `ARCHITECTURE.md`), while
//! whole requests share nothing but the read-only model.  The budget is
//! also a serving engine's default dispatcher count: a server spreads its
//! requests over cores with one dispatcher thread per budgeted thread,
//! each running one request at a time, and never through [`par_map`].
//!
//! The container this workspace builds in has no registry access, so rayon
//! cannot be used.
//!
//! * **[`ThreadBudget`]** — one process-global budget (see [`budget`])
//!   decides how many threads the whole simulator may keep busy.  It is
//!   read once: the `SNN_THREADS` environment variable if set, else the
//!   machine's available parallelism, clamped to `1..=MAX_THREADS`.  A
//!   budget of one is strictly sequential and never starts the pool.
//! * **Persistent worker pool** — `total - 1` workers are spawned lazily on
//!   the first multi-block [`par_map`] and live for the rest of the
//!   process.  [`par_map`] splits its input into contiguous blocks and
//!   submits them as pool tasks; the calling thread *helps* by executing
//!   queued tasks while it waits, so pool-side compute concurrency never
//!   exceeds the budget no matter how many callers (concurrent batches,
//!   or a `par_map` nested inside another) submit at once.
//!
//! Work is always split into contiguous blocks, so results land exactly
//! where a sequential loop would put them and outputs are deterministic
//! regardless of the number of workers.
//!
//! A task that panics does not poison the pool: the panic is caught in the
//! worker, carried back to the submitting call, and resumed there.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Upper bound on pool worker threads, keeping memory overhead bounded for
/// the small layer workloads the simulator runs.
pub const MAX_THREADS: usize = 16;

/// Environment variable that pins the global thread budget (clamped to
/// `1..=MAX_THREADS`), read once at first use.
pub const THREADS_ENV: &str = "SNN_THREADS";

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// The process-global thread budget: how many threads the simulator may
/// keep busy in total (the caller of a [`par_map`] plus the pool workers
/// helping it).
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
}

/// The budget a host reporting `cores` gets under the [`THREADS_ENV`]
/// value `env`: the variable when it parses to a positive number, else
/// what the machine reports, clamped to `1..=MAX_THREADS` either way.
fn resolve(env: Option<&str>, cores: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&pinned| pinned > 0)
        .unwrap_or(cores)
        .clamp(1, MAX_THREADS)
}

impl ThreadBudget {
    /// Creates a budget of `total` threads (clamped to `1..=MAX_THREADS`).
    ///
    /// Intended for tests; production code uses the global [`budget`].
    pub fn new(total: usize) -> Self {
        ThreadBudget {
            total: total.clamp(1, MAX_THREADS),
        }
    }

    fn from_env() -> Self {
        let cores = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        ThreadBudget::new(resolve(std::env::var(THREADS_ENV).ok().as_deref(), cores))
    }

    /// Total number of threads this budget allows.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The process-global [`ThreadBudget`], initialized on first use from
/// [`THREADS_ENV`] or the machine's available parallelism.
pub fn budget() -> &'static ThreadBudget {
    static BUDGET: OnceLock<ThreadBudget> = OnceLock::new();
    BUDGET.get_or_init(ThreadBudget::from_env)
}

/// Runs `f` under `catch_unwind` and converts a panic into an `Err`
/// carrying the panic payload's message — the isolation primitive a
/// supervisor uses to fail *one* unit of work instead of unwinding into
/// its own loop.
///
/// [`par_map`] deliberately re-raises task panics on the caller so
/// library misuse stays loud; a serving dispatcher that must survive a
/// poisoned input wraps each request in `catch_panic_message` and maps
/// the message to a typed error instead.  `&str` and `String`
/// payloads (everything `panic!` produces) are extracted verbatim; other
/// payload types degrade to a placeholder.
pub fn catch_panic_message<T, F>(f: F) -> Result<T, String>
where
    F: FnOnce() -> T,
{
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(message) = payload.downcast_ref::<&str>() {
            (*message).to_string()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "panic payload of non-string type".to_string()
        }
    })
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed unit of work accepted by [`run_tasks`].
type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

fn pool() -> &'static PoolShared {
    static POOL: OnceLock<&'static PoolShared> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        }));
        // The submitting thread always helps, so `total - 1` workers give a
        // total compute concurrency equal to the budget.
        for index in 0..budget().total().saturating_sub(1) {
            thread::Builder::new()
                .name(format!("snn-pool-{index}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        shared
    })
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_ready.wait(queue).expect("pool queue wait");
            }
        };
        // Jobs are wrapped in `catch_unwind` at submission, so this call
        // never unwinds into the worker loop.
        job();
    }
}

struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new(tasks: usize) -> Self {
        ScopeState {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finished(&self) -> bool {
        *self.remaining.lock().expect("scope lock") == 0
    }

    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("scope lock");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait_finished(&self) {
        let mut remaining = self.remaining.lock().expect("scope lock");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("scope wait");
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("scope panic lock");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn resume_panic(&self) {
        if let Some(payload) = self.panic.lock().expect("scope panic lock").take() {
            panic::resume_unwind(payload);
        }
    }
}

/// Erases the borrow lifetime of a task so it can sit in the pool's
/// `'static` job queue; [`run_tasks`] is the only caller.
#[allow(unsafe_code)]
fn erase_lifetime<'env>(task: Task<'env>) -> Job {
    // SAFETY: the transmute changes nothing but the lifetime parameter of
    // the trait object, and no borrow held by the task outlives
    // `run_tasks`: it does not return until the scope latch has counted
    // every wrapper down, panicking ones included, so each task has
    // finished executing (and been dropped) before its borrows expire.
    unsafe { std::mem::transmute::<Task<'env>, Job>(task) }
}

/// Runs the tasks of one [`par_map`] on the shared worker pool and returns
/// when all of them have finished.
///
/// The calling thread participates: while its tasks are pending it executes
/// queued tasks itself (its own or other callers'), so concurrency stays
/// within the global [`ThreadBudget`] even when `run_tasks` calls nest or
/// several serving replicas submit at once.  Tasks must not block on
/// anything except their own nested `run_tasks` calls.
///
/// If a task panics, the panic is re-raised on the calling thread after all
/// tasks of this call have settled.
fn run_tasks(tasks: Vec<Task<'_>>) {
    let scope = Arc::new(ScopeState::new(tasks.len()));
    let shared = pool();
    {
        let mut queue = shared.queue.lock().expect("pool queue lock");
        for task in tasks {
            let job = erase_lifetime(task);
            let scope = Arc::clone(&scope);
            queue.push_back(Box::new(move || {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                    scope.record_panic(payload);
                }
                scope.finish_one();
            }));
        }
    }
    shared.job_ready.notify_all();
    // Help while waiting: execute queued jobs until this scope completes.
    // When the queue is momentarily empty, the remaining tasks of this
    // scope are running on other threads, so blocking on the latch is safe.
    loop {
        if scope.finished() {
            break;
        }
        let job = shared.queue.lock().expect("pool queue lock").pop_front();
        match job {
            Some(job) => job(),
            None => scope.wait_finished(),
        }
    }
    scope.resume_panic();
}

// ---------------------------------------------------------------------------
// The data-parallel map
// ---------------------------------------------------------------------------

/// Splits `len` items into at most `threads` contiguous block ranges of
/// near-equal size.  Returns `(start, end)` pairs covering `0..len`.
fn block_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for worker in 0..workers {
        let size = base + usize::from(worker < extra);
        if size == 0 {
            break;
        }
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// Maps `f` over `items` in up to `threads` contiguous blocks submitted to
/// the shared worker pool, preserving input order in the output.
///
/// With one block (one item, `threads <= 1`) or a global budget of one
/// this is a plain sequential map on the calling thread: no task is boxed
/// and the pool is not started.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let ranges = block_ranges(items.len(), threads);
    if ranges.len() <= 1 || budget().total() == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    {
        let f = &f;
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(ranges.len());
        // Ranges are contiguous from zero, so the result buffer can be
        // peeled off block by block.
        let mut tail: &mut [Option<U>] = &mut results;
        for &(start, end) in &ranges {
            let (block, rest) = tail.split_at_mut(end - start);
            tail = rest;
            tasks.push(Box::new(move || {
                for (offset, slot) in block.iter_mut().enumerate() {
                    let index = start + offset;
                    *slot = Some(f(index, &items[index]));
                }
            }));
        }
        run_tasks(tasks);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything_in_order() {
        for len in 0..40 {
            for threads in 1..6 {
                let ranges = block_ranges(len, threads);
                let mut expected_start = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, expected_start);
                    assert!(end > start);
                    expected_start = end;
                }
                assert_eq!(expected_start, len);
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..101).collect();
        let sequential: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let parallel = par_map(&items, threads, |_, v| v * v + 1);
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn par_map_passes_correct_indices() {
        let items = vec![(); 37];
        let indices = par_map(&items, 4, |i, _| i);
        assert_eq!(indices, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, v| *v).is_empty());
    }

    #[test]
    fn nested_par_map_draws_from_one_budget() {
        // Scopes nest: the inner calls run on the same pool the outer call
        // submitted to, so this must neither deadlock nor produce wrong
        // results.
        let batch: Vec<u64> = (0..8).collect();
        let result = par_map(&batch, 8, |_, &item| {
            let inner: Vec<u64> = (0..64).map(|c| item * 100 + c).collect();
            par_map(&inner, 8, |_, &v| v * 2).iter().sum::<u64>()
        });
        let expected: Vec<u64> = batch
            .iter()
            .map(|&item| (0..64u64).map(|c| (item * 100 + c) * 2).sum())
            .collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn concurrent_scopes_from_many_threads_complete() {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                thread::spawn(move || {
                    let items: Vec<u64> = (0..200).map(|i| i + t).collect();
                    let doubled = par_map(&items, 4, |_, v| v * 2);
                    assert_eq!(doubled[10], (10 + t) * 2);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("scope thread");
        }
    }

    #[test]
    fn panics_propagate_to_the_caller_and_do_not_poison_the_pool() {
        let items: Vec<u32> = (0..50).collect();
        let result = panic::catch_unwind(|| {
            par_map(&items, 4, |_, &v| {
                if v == 33 {
                    panic!("boom at {v}");
                }
                v
            })
        });
        assert!(result.is_err());
        // The pool keeps working after a panicking scope.
        let ok = par_map(&items, 4, |_, &v| v + 1);
        assert_eq!(ok[49], 50);
    }

    #[test]
    fn catch_panic_message_extracts_str_and_string_payloads() {
        assert_eq!(catch_panic_message(|| 7), Ok(7));
        let literal = catch_panic_message::<(), _>(|| panic!("static boom"));
        assert_eq!(literal, Err("static boom".to_string()));
        let formatted = catch_panic_message::<(), _>(|| panic!("boom {}", 42));
        assert_eq!(formatted, Err("boom 42".to_string()));
        let odd = catch_panic_message::<(), _>(|| panic::panic_any(17u32));
        assert!(odd.unwrap_err().contains("non-string"));
    }

    #[test]
    fn budget_clamps_to_supported_range() {
        assert_eq!(ThreadBudget::new(0).total(), 1);
        assert_eq!(ThreadBudget::new(1000).total(), MAX_THREADS);
    }

    #[test]
    fn the_budget_is_the_variable_or_what_the_machine_reports() {
        for (env, cores, expected) in [
            (None, 1, 1),
            (None, 4, 4),
            (None, 64, MAX_THREADS),
            (Some("1"), 8, 1),
            (Some(" 2 "), 8, 2),
            (Some("99"), 2, MAX_THREADS),
            (Some("0"), 3, 3),
            (Some(""), 3, 3),
            (Some("x"), 3, 3),
        ] {
            assert_eq!(resolve(env, cores), expected, "{env:?} on {cores} cores");
        }
        assert!((1..=MAX_THREADS).contains(&budget().total()));
    }
}
