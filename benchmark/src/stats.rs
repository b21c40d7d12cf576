//! The benchmark's own arithmetic: percentiles, the quiet-decile estimator
//! and the spread figures the bounds are judged against.

/// Sorts a sample ascending (all values are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Percentile `q` in `0.0..=1.0` of an ascending-sorted sample, linearly
/// interpolated between the two nearest ranks (the "inclusive" method of
/// Python's `statistics.quantiles`), so a series `0..=100` has p10 = 10.
/// An empty sample reads NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which block of a run stands for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The quiet decile: p10 of the blocks for a lower-is-better metric,
    /// p90 for a higher-is-better one — the blocks the neighbours on this
    /// shared host disturbed least.  For the engine workloads, where one
    /// caller runs alone and interference can only add time.
    QuietDecile,
    /// The median block.  For the TCP workloads, where a block ends on a
    /// batch of replies, so its throughput scatters both ways around the
    /// run's level and the share of "lucky" blocks drifts with the host.
    Median,
}

impl Estimator {
    /// How far from the good end of the sorted blocks the estimate sits.
    fn quantile(self) -> f64 {
        match self {
            Estimator::QuietDecile => 0.10,
            Estimator::Median => 0.50,
        }
    }

    /// `p10`/`p90`/`p50`, for the notes.
    pub fn label(self, better: Better) -> &'static str {
        match (self, better) {
            (Estimator::QuietDecile, Better::Lower) => "p10",
            (Estimator::QuietDecile, Better::Higher) => "p90",
            (Estimator::Median, _) => "p50",
        }
    }
}

/// Per-block values of one host-time metric, reduced to the figure the run
/// reports and the two notes printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// The estimate (see [`Estimator`]).
    pub value: f64,
    /// Median block (a note, not gated).
    pub median: f64,
    /// Worst block (a note, not gated).
    pub worst: f64,
    /// Blocks summarised.
    pub blocks: usize,
}

/// Reduces per-block values to the estimate plus notes.
pub fn summarise_blocks(per_block: &[f64], better: Better, estimator: Estimator) -> BlockSummary {
    let s = sorted(per_block.to_vec());
    let q = estimator.quantile();
    let (value, worst) = match better {
        Better::Lower => (percentile(&s, q), s.last().copied().unwrap_or(f64::NAN)),
        Better::Higher => (
            percentile(&s, 1.0 - q),
            s.first().copied().unwrap_or(f64::NAN),
        ),
    };
    BlockSummary {
        value,
        median: percentile(&s, 0.5),
        worst,
        blocks: s.len(),
    }
}

/// Run-to-run spread of a set of runs: the distance between the first and
/// third quartile as a share of the median (quartiles by the exclusive
/// method, as Python's `statistics.quantiles(values, n=4)` computes them).
/// Fewer than two values have no spread (`None`).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 in 1-based ranks, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let med = percentile(&s, 0.5);
    if med == 0.0 {
        return Some(if s[0] == s[n - 1] { 0.0 } else { f64::INFINITY });
    }
    Some(((quartile(3) - quartile(1)) / med).abs())
}

/// A tiny deterministic generator (SplitMix64) for the benchmark's own
/// schedules: phases, input order.  Not the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_series() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 0.0);
        assert_eq!(percentile(&s, 0.10), 10.0);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // Interpolates between ranks.
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quiet_decile_picks_the_undisturbed_side() {
        // 100 blocks: 1.00 .. 1.99 ms; a noisy neighbour can only add time.
        let blocks: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) / 100.0).collect();
        let lower = summarise_blocks(&blocks, Better::Lower, Estimator::QuietDecile);
        assert!((lower.value - 1.099).abs() < 1e-9);
        assert!((lower.median - 1.495).abs() < 1e-9);
        assert_eq!(lower.worst, 1.99);
        assert_eq!(lower.blocks, 100);
        let higher = summarise_blocks(&blocks, Better::Higher, Estimator::QuietDecile);
        assert!((higher.value - 1.891).abs() < 1e-9);
        assert_eq!(higher.worst, 1.0);
        let median = summarise_blocks(&blocks, Better::Higher, Estimator::Median);
        assert!((median.value - 1.495).abs() < 1e-9);
        assert_eq!(Estimator::QuietDecile.label(Better::Higher), "p90");
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0, 4.0, 4.0]).unwrap(), 0.0);
        assert!(iqr_share(&[4.0]).is_none());
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
