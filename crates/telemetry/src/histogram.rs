//! Fixed log-spaced latency histograms with pure-function bucket math.
//!
//! The serving stack records request-phase latencies into these
//! histograms on the hot path, so the representation is a flat array of
//! counters: no allocation per observation, merging is element-wise
//! addition, and the bucket layout is a **pure function** of the bucket
//! index ([`bucket_upper_bound`]) so property tests can pin the math
//! against a hand-stepped model without constructing a histogram at all.
//!
//! Buckets are log2-spaced seconds: bucket `i` covers
//! `(bound(i-1), bound(i)]` with `bound(i) = 1 µs · 2^i`, giving
//! [`BUCKET_COUNT`] finite buckets from 1 µs to ~33.6 s plus a `+Inf`
//! catch-all — wide enough for a queue-wait under chaos, fine enough that
//! a p99 read off the histogram is within a factor of 2 of the truth.

/// Number of finite buckets.  The `+Inf` catch-all is stored separately
/// (index [`BUCKET_COUNT`] in [`LatencyHistogram::counts`]).
pub const BUCKET_COUNT: usize = 26;

/// Upper bound (inclusive) of finite bucket `i`, in seconds:
/// `1 µs · 2^i`.  A pure function so tests can verify the layout
/// independently of any histogram instance.
///
/// # Panics
///
/// Panics when `i >= BUCKET_COUNT` — there is no finite bound past the
/// last bucket, only the `+Inf` catch-all.
pub fn bucket_upper_bound(i: usize) -> f64 {
    assert!(i < BUCKET_COUNT, "bucket {i} has no finite upper bound");
    1e-6 * (1u64 << i) as f64
}

/// The bucket a sample of `seconds` lands in: the smallest `i` with
/// `seconds <= bucket_upper_bound(i)`, or [`BUCKET_COUNT`] (the `+Inf`
/// bucket) when the sample exceeds every finite bound.  Negative samples
/// (a clock anomaly) land in bucket 0; NaN lands in `+Inf` — every
/// sample lands in exactly one bucket.
pub fn bucket_index(seconds: f64) -> usize {
    if seconds.is_nan() {
        return BUCKET_COUNT;
    }
    for i in 0..BUCKET_COUNT {
        if seconds <= bucket_upper_bound(i) {
            return i;
        }
    }
    BUCKET_COUNT
}

/// A fixed-layout latency histogram: per-bucket counts plus the running
/// sum and count that Prometheus `_sum`/`_count` series report.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// `counts[i]` samples fell in bucket `i`; `counts[BUCKET_COUNT]` is
    /// the `+Inf` catch-all.
    counts: [u64; BUCKET_COUNT + 1],
    sum: f64,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKET_COUNT + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one sample of `seconds`.
    pub fn observe(&mut self, seconds: f64) {
        self.counts[bucket_index(seconds)] += 1;
        // NaN would poison the running sum without making the count lie.
        if !seconds.is_nan() {
            self.sum += seconds;
        }
        self.count += 1;
    }

    /// Adds every sample of `other` into `self` (element-wise; the bucket
    /// layout is fixed, so merging is exact).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Whether no sample has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-bucket counts (`+Inf` last).
    pub fn counts(&self) -> &[u64; BUCKET_COUNT + 1] {
        &self.counts
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) in seconds by linear
    /// interpolation inside the bucket holding the target rank.  Returns
    /// `0.0` for an empty histogram; a rank landing in the `+Inf` bucket
    /// reports the last finite bound (the histogram cannot resolve
    /// further).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank, 1-based: the ceil matches the usual "at least q of
        // the mass at or below the value" definition.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKET_COUNT {
            let in_bucket = self.counts[i];
            if seen + in_bucket >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_upper_bound(i - 1)
                };
                let upper = bucket_upper_bound(i);
                let fraction = (rank - seen) as f64 / in_bucket as f64;
                return lower + (upper - lower) * fraction;
            }
            seen += in_bucket;
        }
        bucket_upper_bound(BUCKET_COUNT - 1)
    }
}

/// Escapes a Prometheus label value: backslash, double quote and newline
/// must be backslash-escaped inside the `label="value"` syntax.
pub fn escape_label_value(value: &str) -> String {
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

/// Renders one Prometheus histogram metric: a single `# HELP`/`# TYPE`
/// header followed by the cumulative `_bucket`, `_sum` and `_count`
/// series of every labelled histogram in `series` (label `None` renders
/// an unlabelled series).  Empty histograms are still rendered — a
/// scraper distinguishes "no samples yet" from "series missing".
pub fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(Option<(&str, String)>, LatencyHistogram)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (label, histogram) in series {
        let label_prefix = match label {
            Some((key, value)) => format!("{key}=\"{}\",", escape_label_value(value)),
            None => String::new(),
        };
        let mut cumulative = 0u64;
        for (i, &count) in histogram.counts().iter().enumerate() {
            cumulative += count;
            let le = if i < BUCKET_COUNT {
                bucket_upper_bound(i).to_string()
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!(
                "{name}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let label_block = match label {
            Some((key, value)) => format!("{{{key}=\"{}\"}}", escape_label_value(value)),
            None => String::new(),
        };
        out.push_str(&format!("{name}_sum{label_block} {}\n", histogram.sum()));
        out.push_str(&format!(
            "{name}_count{label_block} {}\n",
            histogram.count()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_log_spaced_and_monotone() {
        assert!((bucket_upper_bound(0) - 1e-6).abs() < 1e-18);
        for i in 1..BUCKET_COUNT {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
            assert!((bucket_upper_bound(i) / bucket_upper_bound(i - 1) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_land_where_the_bounds_say() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(1.1e-6), 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT);
        assert_eq!(bucket_index(f64::NAN), BUCKET_COUNT);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(
            bucket_index(bucket_upper_bound(BUCKET_COUNT - 1) * 1.01),
            BUCKET_COUNT
        );
    }

    #[test]
    fn observe_merge_and_quantile_agree_with_a_flat_model() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let samples = [1e-6, 5e-6, 1e-3, 0.25, 40.0];
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.observe(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), samples.len() as u64);
        assert!((a.sum() - samples.iter().sum::<f64>()).abs() < 1e-9);
        assert_eq!(a.counts().iter().sum::<u64>(), a.count());
        // 40 s exceeds the last finite bound.
        assert_eq!(a.counts()[BUCKET_COUNT], 1);
        // The median sample (1 ms) sits in its bucket's range.
        let p50 = a.quantile(0.5);
        assert!(p50 > 1e-4 && p50 <= 1.1e-3, "p50 = {p50}");
        assert_eq!(LatencyHistogram::new().quantile(0.99), 0.0);
    }

    #[test]
    fn label_escaping_covers_the_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
