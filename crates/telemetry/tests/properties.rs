//! Property-pins for the telemetry crate: histogram bucket math against
//! a hand-stepped model, Prometheus exposition-format conformance for
//! the rendered series, JSONL round-trip over arbitrary traces, and the
//! JSONL wire format itself as golden lines.
//!
//! The bucket layout is a pure function (`bucket_upper_bound`,
//! `bucket_index`), so the model here recomputes placement by walking
//! the bounds linearly and the histogram state by replaying every
//! observation into a flat vector — any drift between the two is a
//! layout change that must be deliberate (it would silently re-bucket
//! every dashboard).

use proptest::prelude::*;
use snn_telemetry::trace::{ErrorCode, Outcome, RejectScope, RequestTrace, PHASES, PHASE_COUNT};
use snn_telemetry::{
    bucket_index, bucket_upper_bound, render_histogram, LatencyHistogram, BUCKET_COUNT,
};
use std::time::Duration;

/// The hand-stepped placement model: the first bound at or above the
/// sample wins; anything past the last finite bound (or NaN) is `+Inf`.
fn model_bucket(seconds: f64) -> usize {
    if seconds.is_nan() {
        return BUCKET_COUNT;
    }
    let mut i = 0;
    while i < BUCKET_COUNT {
        if seconds <= bucket_upper_bound(i) {
            return i;
        }
        i += 1;
    }
    BUCKET_COUNT
}

/// Shapes a `(kind, magnitude)` pair into an interesting sample:
/// sub-microsecond, mid-range, beyond the last bound, zero, or negative
/// (clock anomaly).  The vendored proptest has no `prop_oneof`, so the
/// mixing happens here, in plain code.
fn shape_sample(kind: usize, magnitude: f64) -> f64 {
    match kind % 5 {
        0 => 1e-9 + magnitude * 1e-6,     // below / at the first bound
        1 => magnitude * 100.0,           // the meat of the range
        2 => 40.0 + magnitude * 1e4,      // past the last finite bound
        3 => 0.0,                         // exact zero
        _ => -1e-3 * (magnitude + 0.001), // negative: clamps to bucket 0
    }
}

/// Lowercase label text from a byte vector (no string strategies in the
/// vendored proptest).
fn label_from(bytes: &[u8]) -> String {
    bytes.iter().map(|b| char::from(b'a' + (b % 26))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucket bounds are strictly monotone and exactly log2-spaced, so
    /// every sample lands in exactly one bucket: the one the model picks.
    #[test]
    fn every_sample_lands_in_exactly_one_bucket(
        kind in 0usize..5,
        magnitude in 0.0f64..1.0,
    ) {
        for i in 1..BUCKET_COUNT {
            prop_assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
            prop_assert!(
                (bucket_upper_bound(i) / bucket_upper_bound(i - 1) - 2.0).abs() < 1e-12
            );
        }
        let s = shape_sample(kind, magnitude);
        let i = bucket_index(s);
        prop_assert_eq!(i, model_bucket(s));
        prop_assert!(i <= BUCKET_COUNT);
        if i < BUCKET_COUNT {
            prop_assert!(s <= bucket_upper_bound(i));
            if i > 0 {
                prop_assert!(s > bucket_upper_bound(i - 1));
            }
        } else {
            prop_assert!(s > bucket_upper_bound(BUCKET_COUNT - 1));
        }
    }

    /// Replaying observations into a flat model reproduces the
    /// histogram's counts, sum and count exactly; bucket counts always
    /// total the sample count (the `+Inf` catch-all leaks nothing), and
    /// merging two histograms equals observing the concatenation.
    #[test]
    fn histogram_state_matches_replayed_model(
        first in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..64),
        second in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..64),
    ) {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut model_counts = vec![0u64; BUCKET_COUNT + 1];
        let mut model_sum = 0.0f64;
        for &(kind, magnitude) in &first {
            let s = shape_sample(kind, magnitude);
            a.observe(s);
            model_counts[model_bucket(s)] += 1;
            model_sum += s;
        }
        for &(kind, magnitude) in &second {
            let s = shape_sample(kind, magnitude);
            b.observe(s);
            model_counts[model_bucket(s)] += 1;
            model_sum += s;
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), (first.len() + second.len()) as u64);
        prop_assert_eq!(a.counts().iter().sum::<u64>(), a.count());
        prop_assert_eq!(a.counts().as_slice(), model_counts.as_slice());
        prop_assert!((a.sum() - model_sum).abs() <= 1e-9 * model_sum.abs().max(1.0));

        // Quantiles are monotone in q and bounded by the bucket range.
        if !a.is_empty() {
            let p50 = a.quantile(0.5);
            let p99 = a.quantile(0.99);
            let p999 = a.quantile(0.999);
            prop_assert!(p50 <= p99 && p99 <= p999);
            prop_assert!(p999 <= bucket_upper_bound(BUCKET_COUNT - 1));
        }
    }

    /// Exposition conformance for any rendered histogram: one HELP and
    /// one TYPE line, cumulative non-decreasing `_bucket` series ending
    /// in `le="+Inf"` equal to `_count`, and every line either a comment
    /// or a `name{...} value` sample of that family.
    #[test]
    fn rendered_exposition_is_conformant(
        samples in proptest::collection::vec((0usize..5, 0.0f64..1.0), 0..32),
        label_bytes in proptest::collection::vec(0u8..255, 0..12),
    ) {
        let mut h = LatencyHistogram::new();
        for &(kind, magnitude) in &samples {
            h.observe(shape_sample(kind, magnitude));
        }
        let label = label_from(&label_bytes);
        let mut out = String::new();
        render_histogram(
            &mut out,
            "snn_test_seconds",
            "Test histogram.",
            &[(Some(("replica", label.clone())), h.clone())],
        );
        let lines: Vec<&str> = out.lines().collect();
        prop_assert_eq!(lines[0], "# HELP snn_test_seconds Test histogram.");
        prop_assert_eq!(lines[1], "# TYPE snn_test_seconds histogram");
        prop_assert_eq!(
            lines.iter().filter(|l| l.starts_with('#')).count(), 2,
            "exactly one HELP and one TYPE line"
        );

        let mut previous = 0u64;
        let mut bucket_lines = 0usize;
        let mut last_le = String::new();
        for line in &lines[2..] {
            prop_assert!(
                line.starts_with("snn_test_seconds_bucket{")
                    || line.starts_with("snn_test_seconds_sum{")
                    || line.starts_with("snn_test_seconds_count{"),
                "unexpected line {:?}", line
            );
            if let Some(rest) = line.strip_prefix("snn_test_seconds_bucket{") {
                bucket_lines += 1;
                let (labels, value) = rest.rsplit_once("} ").unwrap();
                prop_assert!(labels.starts_with("replica=\""));
                last_le = labels
                    .rsplit("le=\"")
                    .next()
                    .unwrap()
                    .trim_end_matches('"')
                    .to_string();
                let cumulative: u64 = value.parse().unwrap();
                prop_assert!(cumulative >= previous, "cumulative counts never decrease");
                previous = cumulative;
            }
        }
        prop_assert_eq!(bucket_lines, BUCKET_COUNT + 1);
        prop_assert_eq!(last_le.as_str(), "+Inf");
        prop_assert_eq!(previous, h.count(), "+Inf bucket equals _count");
        let count_line = *lines.last().unwrap();
        let count_suffix = format!(" {}", h.count());
        let count_matches = count_line.ends_with(&count_suffix);
        prop_assert!(count_matches, "count line mismatch: {:?}", count_line);
    }

    /// Any trace the recorder can produce — a prefix of the pipeline
    /// phases, an optional write stall, every closed outcome label —
    /// survives the JSONL round trip exactly, and a line whose label is
    /// outside the closed sets does not parse.
    #[test]
    fn jsonl_round_trips_arbitrary_traces(
        request_id in 0u64..u64::MAX / 2,
        unix_ms in 0u64..4_000_000_000_000,
        replica in proptest::option::of(0u32..8),
        depth in proptest::option::of(0u32..1024),
        entered in 1usize..=5,
        spans_ns in proptest::collection::vec(0u64..100_000_000_000, 6..=6),
        stalled in proptest::bool::ANY,
        outcome_pick in 0usize..7,
        label_bytes in proptest::collection::vec(0u8..255, 1..12),
        cycles in 0u64..1_000_000_000,
    ) {
        let outcome = match outcome_pick {
            0 => Outcome::Scores { total_cycles: cycles },
            1 | 2 => Outcome::Rejected { scope: RejectScope::ALL[outcome_pick - 1] },
            3..=5 => Outcome::Error { code: ErrorCode::ALL[outcome_pick - 3] },
            _ => Outcome::ReplicaDown,
        };
        let spans = std::array::from_fn(|p| {
            (p < entered || (p == 5 && stalled)).then_some(spans_ns[p])
        });
        let trace = closed_trace((request_id, unix_ms), (replica, depth), outcome, spans);
        let line = trace.to_json_line();
        prop_assert_eq!(RequestTrace::from_json_line(&line), Some(trace));

        let label = label_from(&label_bytes);
        let known = RejectScope::from_label(&label).is_some()
            || ErrorCode::from_label(&label).is_some();
        let relabelled = match outcome {
            Outcome::Rejected { scope } => Some(line.replace(
                &format!("\"scope\":\"{}\"", scope.label()),
                &format!("\"scope\":\"{label}\""),
            )),
            Outcome::Error { code } => Some(line.replace(
                &format!("\"code\":\"{}\"", code.label()),
                &format!("\"code\":\"{label}\""),
            )),
            _ => None,
        };
        if let (Some(relabelled), false) = (relabelled, known) {
            prop_assert_eq!(RequestTrace::from_json_line(&relabelled), None);
        }
    }
}

/// A closed trace whose phases took `spans_ns` in pipeline order: the
/// entered ones are a prefix of the first five, the sixth is the
/// write stall.
fn closed_trace(
    (request_id, unix_ms): (u64, u64),
    placed: (Option<u32>, Option<u32>),
    outcome: Outcome,
    spans_ns: [Option<u64>; PHASE_COUNT],
) -> RequestTrace {
    let mut trace = RequestTrace::new(request_id);
    trace.unix_ms = unix_ms;
    (trace.replica, trace.queue_depth_at_route) = placed;
    let mut at = 0;
    for p in 1..5 {
        if spans_ns[p].is_none() {
            break;
        }
        at += spans_ns[p - 1].unwrap();
        trace.enter(PHASES[p], Duration::from_nanos(at));
    }
    let settled: u64 = spans_ns[..5].iter().flatten().sum();
    trace.close(outcome, Duration::from_nanos(settled));
    if let Some(stall) = spans_ns[5] {
        trace.append_write_stall(Duration::from_nanos(stall));
    }
    trace
}

/// The JSONL wire format, pinned byte for byte for every outcome the
/// server emits: scrapers and the stand-alone benchmark parse these
/// lines.
#[test]
fn jsonl_lines_match_the_golden_wire_format() {
    let scope = |scope| Outcome::Rejected { scope };
    let code = |code| Outcome::Error { code };
    #[rustfmt::skip]
    let cases = [
        (closed_trace((7, 1_760_000_000_123), (Some(1), Some(3)), Outcome::Scores { total_cycles: 31_392 },
            [Some(1_234), Some(567), Some(2_345_678), Some(8_901), Some(15_432_109), Some(45_678)]),
         r#"{"request_id":7,"unix_ms":1760000000123,"replica":1,"queue_depth_at_route":3,"outcome":"scores","total_cycles":31392,"duration_us":17788.489,"phases":{"admission_us":1.234,"route_us":0.5670000000000001,"queue_wait_us":2345.678,"batch_assembly_us":8.901,"compute_us":15432.108999999999,"write_stall_us":45.678}}"#),
        (closed_trace((8, 1_760_000_000_124), (None, None), scope(RejectScope::Queue),
            [Some(999), Some(1_500), None, None, None, None]),
         r#"{"request_id":8,"unix_ms":1760000000124,"outcome":"rejected","scope":"queue","duration_us":2.499,"phases":{"admission_us":0.9990000000000001,"route_us":1.5}}"#),
        (closed_trace((9, 1_760_000_010_125), (Some(0), Some(1023)), scope(RejectScope::Deadline),
            [Some(812), Some(433), Some(10_000_000_007), None, None, Some(12_345)]),
         r#"{"request_id":9,"unix_ms":1760000010125,"replica":0,"queue_depth_at_route":1023,"outcome":"rejected","scope":"deadline","duration_us":10000001.252,"phases":{"admission_us":0.812,"route_us":0.43300000000000005,"queue_wait_us":10000000.007000001,"write_stall_us":12.344999999999999}}"#),
        (closed_trace((u64::MAX - 1, 1_760_000_000_126), (Some(0), Some(0)), code(ErrorCode::EnginePanic),
            [Some(700), Some(300), Some(41_000), Some(2_100), Some(1_000_000_001), Some(3)]),
         r#"{"request_id":18446744073709551614,"unix_ms":1760000000126,"replica":0,"queue_depth_at_route":0,"outcome":"error","code":"engine_panic","duration_us":1000044.101,"phases":{"admission_us":0.7,"route_us":0.3,"queue_wait_us":41,"batch_assembly_us":2.0999999999999996,"compute_us":1000000.001,"write_stall_us":0.003}}"#),
        (closed_trace((10, 1_760_000_000_127), (None, Some(5)), code(ErrorCode::Serving),
            [Some(640), Some(210), Some(77_777_777), None, None, None]),
         r#"{"request_id":10,"unix_ms":1760000000127,"queue_depth_at_route":5,"outcome":"error","code":"serving","duration_us":77778.62700000001,"phases":{"admission_us":0.64,"route_us":0.21,"queue_wait_us":77777.777}}"#),
        (closed_trace((11, 1_760_000_000_128), (None, None), code(ErrorCode::Serving),
            [Some(1), Some(2), None, None, None, None]),
         r#"{"request_id":11,"unix_ms":1760000000128,"outcome":"error","code":"serving","duration_us":0.003,"phases":{"admission_us":0.001,"route_us":0.002}}"#),
        (closed_trace((12, 1_760_000_000_129), (Some(1), Some(17)), code(ErrorCode::BadRequest),
            [Some(903), Some(451), Some(12_000), Some(5_000), Some(333_333), Some(9_999)]),
         r#"{"request_id":12,"unix_ms":1760000000129,"replica":1,"queue_depth_at_route":17,"outcome":"error","code":"bad_request","duration_us":351.687,"phases":{"admission_us":0.903,"route_us":0.451,"queue_wait_us":12,"batch_assembly_us":5,"compute_us":333.333,"write_stall_us":9.999}}"#),
        (closed_trace((13, 1_760_000_000_130), (Some(0), Some(2)), Outcome::ReplicaDown,
            [Some(1_100), Some(550), Some(88_000), Some(3_300), Some(4_567_890), None]),
         r#"{"request_id":13,"unix_ms":1760000000130,"replica":0,"queue_depth_at_route":2,"outcome":"replica_down","duration_us":4660.84,"phases":{"admission_us":1.1,"route_us":0.55,"queue_wait_us":88,"batch_assembly_us":3.3000000000000003,"compute_us":4567.889999999999}}"#),
    ];
    for (trace, line) in cases {
        assert_eq!(trace.to_json_line(), line);
        assert_eq!(RequestTrace::from_json_line(line), Some(trace));
    }
}
