//! Tracing allocates nothing per request.  A counting global allocator
//! tallies the allocations of the thread under test; once the recorder's
//! rings have wrapped, thousands of complete record lifecycles — served,
//! rejected and failed, each served one amended with its write stall —
//! must perform none.  The same file pins the record's size and the
//! offset width it relies on.

use snn_telemetry::{
    ErrorCode, Outcome, Phase, RejectScope, RequestTrace, SpanRecorder, DEFAULT_TRACE_CAPACITY,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Allocations made by this thread (the test harness runs tests on
    /// parallel threads, which must not count against each other).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a const-initialised thread local without a destructor, so
// bumping it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// One request's trace from admission to publication, cycling through a
/// served request on either of two replicas (plus its write stall), a
/// queue-full rejection and an engine panic.
fn lifecycle(recorder: &SpanRecorder, id: u64) {
    let start = Instant::now();
    let mut trace = recorder.begin(id);
    trace.enter(Phase::Route, us(1));
    trace.queue_depth_at_route = Some(3);
    let outcome = match id % 3 {
        0 => Outcome::Rejected {
            scope: RejectScope::Queue,
        },
        1 => {
            trace.enter(Phase::QueueWait, us(2));
            trace.replica = Some(1);
            trace.enter(Phase::BatchAssembly, us(40));
            trace.enter(Phase::Compute, us(41));
            Outcome::Error {
                code: ErrorCode::EnginePanic,
            }
        }
        _ => {
            trace.enter(Phase::QueueWait, us(2));
            trace.replica = Some((id % 2) as u32);
            trace.enter(Phase::BatchAssembly, us(40));
            trace.enter(Phase::Compute, us(41));
            Outcome::Scores { total_cycles: id }
        }
    };
    recorder.complete(trace, outcome, start, start + us(60));
    if matches!(outcome, Outcome::Scores { .. }) {
        recorder.record_write_stall(id, us(5));
    }
}

#[test]
fn record_lifecycles_allocate_nothing_once_the_rings_have_wrapped() {
    let recorder = SpanRecorder::new(2, true);
    // Three shards (two replicas and the unrouted one); every shard's ring
    // fills and evicts before counting starts.
    let warm_up = 6 * 3 * DEFAULT_TRACE_CAPACITY as u64;
    for id in 0..warm_up {
        lifecycle(&recorder, id);
    }
    let before = allocations();
    for id in warm_up..warm_up + 10_000 {
        lifecycle(&recorder, id);
    }
    let allocated = allocations() - before;
    assert_eq!(recorder.open_spans(), 0);
    assert_eq!(
        allocated, 0,
        "10 000 traced requests allocated {allocated} times"
    );
    assert_eq!(recorder.drain().len(), 3 * DEFAULT_TRACE_CAPACITY);
}

#[test]
fn the_record_is_at_most_96_bytes() {
    assert!(std::mem::size_of::<RequestTrace>() <= 96);
}

/// VGG-11 at about 7 ms an inference behind a 1024-deep queue waits over
/// 7 s, past what a `u32` of nanoseconds holds: the offsets must not wrap.
#[test]
fn a_ten_second_queue_wait_round_trips_through_jsonl() {
    let recorder = SpanRecorder::new(1, true);
    let start = Instant::now();
    let mut trace = recorder.begin(1);
    trace.enter(Phase::Route, us(1));
    trace.enter(Phase::QueueWait, us(2));
    trace.replica = Some(0);
    trace.enter(Phase::BatchAssembly, us(2) + Duration::from_secs(10));
    trace.enter(Phase::Compute, us(3) + Duration::from_secs(10));
    let outcome = Outcome::Scores { total_cycles: 1 };
    recorder.complete(trace, outcome, start, start + Duration::from_millis(10_007));
    let [trace] = recorder.drain()[..] else {
        panic!("expected one trace");
    };
    assert_eq!(trace.phase_seconds(Phase::QueueWait), Some(10.0));
    let parsed = RequestTrace::from_json_line(&trace.to_json_line());
    assert_eq!(parsed, Some(trace));
}
