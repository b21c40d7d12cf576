//! Property tests pinning the queue-snapshot drain-rate math
//! ([`snn_accel::serve::drain_rate`]) against a hand-stepped model.
//!
//! The model replays completion records like the ones the dispatcher
//! accumulates — `(completion instant, inferences settled)` pairs capped
//! at [`DRAIN_WINDOW`] — and recomputes the windowed
//! completion-to-completion rate independently, using the identical
//! `Duration::as_secs_f64` arithmetic so agreement is **bitwise**, not
//! approximate.  The fallback ladder is pinned explicitly: fewer than two
//! windowed records → lifetime average; zero-span window → lifetime
//! average; zero post-oldest items → lifetime average; nothing ever
//! settled → `0.0`.  The rate must always be finite and non-negative, and
//! the counters feeding it behave monotonically (more settled inferences
//! in the same span never lower it).

use proptest::prelude::*;
use snn_accel::serve::{drain_rate, QueueSnapshot, DRAIN_WINDOW, MAX_RETRY_AFTER_MS};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Replays completion events the way the dispatcher keeps them: push
/// `(instant, items)` and cap the window at [`DRAIN_WINDOW`].
fn window_of(base: Instant, events: &[(u64, u64)]) -> VecDeque<(Instant, u64)> {
    let mut recent = VecDeque::new();
    let mut offset = 0u64;
    for &(gap_us, items) in events {
        offset += gap_us;
        recent.push_back((base + Duration::from_micros(offset), items));
        if recent.len() > DRAIN_WINDOW {
            recent.pop_front();
        }
    }
    recent
}

/// The hand-stepped model: same window semantics, independently coded.
fn model_rate(recent: &VecDeque<(Instant, u64)>, settled: u64, elapsed: Duration) -> f64 {
    if !recent.is_empty() {
        let (oldest, oldest_items) = *recent.front().unwrap();
        let (newest, _) = *recent.back().unwrap();
        let span = (newest - oldest).as_secs_f64();
        let mut items = 0u64;
        for &(_, n) in recent.iter() {
            items += n;
        }
        items -= oldest_items;
        if span > 0.0 && items > 0 {
            return items as f64 / span;
        }
    }
    if elapsed.as_secs_f64() > 0.0 && settled > 0 {
        return settled as f64 / elapsed.as_secs_f64();
    }
    0.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any sequence of completion events (including gaps of zero
    /// microseconds and records settling zero items), the production rate
    /// equals the hand-stepped model bit-for-bit and is finite and
    /// non-negative.
    #[test]
    fn drain_rate_matches_hand_stepped_model(
        // Up to 600 events exercises the 256-entry cap more than twice over.
        events in proptest::collection::vec((0u64..2_000_000, 0u64..50), 0..600),
        lifetime_settled in 0u64..10_000,
        lifetime_us in 0u64..100_000_000,
    ) {
        let base = Instant::now();
        let recent = window_of(base, &events);
        prop_assert!(recent.len() <= DRAIN_WINDOW, "window is capped");
        let elapsed = Duration::from_micros(lifetime_us);
        let rate = drain_rate(&recent, lifetime_settled, elapsed);
        let expected = model_rate(&recent, lifetime_settled, elapsed);
        prop_assert_eq!(rate.to_bits(), expected.to_bits(),
            "production {} != model {}", rate, expected);
        prop_assert!(rate.is_finite() && rate >= 0.0);
    }

    /// The windowed rate is monotone in the settled count: settling more
    /// inferences over the same completion span never lowers the rate.
    #[test]
    fn more_items_in_the_same_span_never_lower_the_rate(
        gaps in proptest::collection::vec(1u64..1_000_000, 2..10),
        items in proptest::collection::vec(1u64..50, 10),
        boost in 1u64..10,
    ) {
        let base = Instant::now();
        let events: Vec<(u64, u64)> = gaps.iter().enumerate()
            .map(|(i, &gap)| (gap, items[i]))
            .collect();
        let boosted: Vec<(u64, u64)> = events.iter().enumerate()
            // Boosting any record except the oldest (whose items are
            // excluded from the completion-to-completion count) adds
            // settled work to the same span.
            .map(|(i, &(gap, n))| (gap, if i == 1 { n + boost } else { n }))
            .collect();
        let lifetime = Duration::from_secs(1);
        let baseline = drain_rate(&window_of(base, &events), 100, lifetime);
        let raised = drain_rate(&window_of(base, &boosted), 100 + boost, lifetime);
        prop_assert!(raised >= baseline,
            "boosted rate {} < baseline {}", raised, baseline);
    }

    /// Retry-after hints derived from the rate are always sane: zero only
    /// for an empty queue, clamped to one minute, and never panicking for
    /// any rate the estimator can produce.
    #[test]
    fn retry_after_is_clamped_and_zero_only_when_empty(
        depth in 0usize..100_000,
        capacity in 1usize..100_000,
        events in proptest::collection::vec((0u64..1_000, 0u64..50), 0..40),
        lifetime_us in 0u64..10_000_000,
        lifetime_settled in 0u64..10_000,
    ) {
        let base = Instant::now();
        let rate = drain_rate(
            &window_of(base, &events),
            lifetime_settled,
            Duration::from_micros(lifetime_us),
        );
        let snapshot = QueueSnapshot { depth, capacity, drain_rate_ips: rate };
        let hint = snapshot.retry_after_ms();
        if depth == 0 {
            prop_assert_eq!(hint, 0);
        } else {
            prop_assert!(hint >= 1);
            prop_assert!(hint <= MAX_RETRY_AFTER_MS);
        }
    }
}

#[test]
fn fallback_ladder_is_pinned() {
    let base = Instant::now();
    let lifetime = Duration::from_secs(2);

    // Empty window, nothing ever settled: terminal 0.0.
    assert_eq!(drain_rate(&VecDeque::new(), 0, lifetime), 0.0);
    // Empty window but lifetime work: lifetime average.
    assert_eq!(drain_rate(&VecDeque::new(), 10, lifetime), 5.0);
    // Lifetime work but zero elapsed (first-instant snapshot): 0.0, not a
    // division by zero.
    assert_eq!(drain_rate(&VecDeque::new(), 10, Duration::ZERO), 0.0);

    // A single windowed record spans zero time: lifetime fallback.
    let single = window_of(base, &[(1_000, 7)]);
    assert_eq!(drain_rate(&single, 10, lifetime), 5.0);

    // Two records at the same instant (zero span): lifetime fallback.
    let zero_span = window_of(base, &[(1_000, 3), (0, 4)]);
    assert_eq!(drain_rate(&zero_span, 10, lifetime), 5.0);

    // Zero items after the oldest record (the window start settles work,
    // the rest shed/settled nothing): lifetime fallback, not 0/span.
    let zero_items = window_of(base, &[(1_000, 3), (500, 0), (500, 0)]);
    assert_eq!(drain_rate(&zero_items, 10, lifetime), 5.0);

    // The real windowed path: 4 + 5 items over exactly 1 s.
    let windowed = window_of(base, &[(0, 3), (500_000, 4), (500_000, 5)]);
    assert_eq!(drain_rate(&windowed, 999, lifetime), 9.0);

    // An idle lull after the last completion must NOT decay the rate: the
    // window is completion-to-completion, independent of "now".
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(drain_rate(&windowed, 999, lifetime), 9.0);
}

#[test]
fn window_cap_drops_oldest_batches() {
    let base = Instant::now();
    // 300 records, 1 ms apart, 2 items each: the window keeps the newest
    // 256, so the span is 255 ms and the counted items 255 * 2.
    let events: Vec<(u64, u64)> = (0..300).map(|_| (1_000, 2)).collect();
    let recent = window_of(base, &events);
    assert_eq!(recent.len(), DRAIN_WINDOW);
    let rate = drain_rate(&recent, 600, Duration::from_secs(1));
    let expected = (255.0 * 2.0) / Duration::from_micros(255_000).as_secs_f64();
    assert_eq!(rate.to_bits(), expected.to_bits());
}
