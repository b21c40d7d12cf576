//! `snn-benchmark compare`: two sets of result files, metric by metric.
//!
//! Every ratio is printed with its base.  A metric whose own run-to-run
//! spread (within either set) exceeds its bound is **unresolved**, not
//! unchanged — unless every run of one side beats every run of the other.

use crate::report::{find_def, RunResult};
use crate::stats::{self, Better};
use std::process::ExitCode;

/// What the comparison says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Flat,
    /// The sets' own spread exceeds the bound: the difference, or its
    /// absence, cannot be told from noise.
    Unresolved,
    /// A metric without a bound (per-layer): ratio only.
    Unbounded,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Flat => "flat",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// Run-to-run spread of one side: the quartile distance over the median
/// from four runs up, the full range over the median for two or three.
pub fn spread(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 | 1 => None,
        2 | 3 => {
            let s = stats::sorted(values.to_vec());
            let median = stats::percentile(&s, 0.5);
            Some(if median == 0.0 {
                if s[0] == s[s.len() - 1] {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((s[s.len() - 1] - s[0]) / median).abs()
            })
        }
        _ => stats::iqr_share(values),
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub base: f64,
    pub other: f64,
    pub bound: Option<f64>,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub verdict: Verdict,
}

/// Compares the values of one metric in set A (the base) and set B.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unbounded;
    };
    let (base, other) = (stats::median(a), stats::median(b));
    // Signed so that positive means B is worse.
    let worse_by = match better {
        Better::Lower => other - base,
        Better::Higher => base - other,
    } / base.abs();
    let worst_spread = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    if worst_spread > bound {
        let range = |v: &[f64]| {
            v.iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
        };
        let ((a_min, a_max), (b_min, b_max)) = (range(a), range(b));
        let (b_always_better, b_always_worse) = match better {
            Better::Lower => (b_max < a_min, b_min > a_max),
            Better::Higher => (b_min > a_max, b_max < a_min),
        };
        return match (b_always_better, b_always_worse) {
            (true, _) if -worse_by > bound => Verdict::Better,
            (_, true) if worse_by > bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if base == other {
        Verdict::Flat
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Flat
    }
}

/// Compares two sets of runs of one workload.
pub fn compare_sets(a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let values = |set: &[RunResult], name: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|r| {
                r.metrics
                    .iter()
                    .chain(r.extras.iter())
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            })
            .collect()
    };
    a[0].metrics
        .iter()
        .chain(a[0].extras.iter())
        .filter_map(|m| {
            let (va, vb) = (values(a, &m.name), values(b, &m.name));
            if va.is_empty() || vb.is_empty() {
                return None;
            }
            let def = find_def(&m.name);
            let better = def.map_or(Better::Lower, |d| d.better);
            let bound = def.and_then(|d| d.bound);
            Some(Row {
                name: m.name.clone(),
                unit: m.unit.clone(),
                base: stats::median(&va),
                other: stats::median(&vb),
                bound,
                spread_a: spread(&va),
                spread_b: spread(&vb),
                verdict: judge(&va, &vb, better, bound),
            })
        })
        .collect()
}

fn load(paths: &[String]) -> Result<Vec<RunResult>, String> {
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RunResult::from_json(&text).ok_or_else(|| format!("{path}: not a result file"))
        })
        .collect()
}

/// `compare [--same-code] <a.json>... [--vs <b.json>...]`; two files
/// without `--vs` are one run each.  Exits 1 when a bounded metric is
/// worse (with `--same-code`: when it differs either way).
pub fn main(args: &[String]) -> ExitCode {
    let same_code = args.iter().any(|a| a == "--same-code");
    let files: Vec<String> = args
        .iter()
        .filter(|a| *a != "--same-code")
        .cloned()
        .collect();
    let (a_paths, b_paths) = match files.iter().position(|a| a == "--vs") {
        Some(at) => (files[..at].to_vec(), files[at + 1..].to_vec()),
        None if files.len() == 2 => (files[..1].to_vec(), files[1..].to_vec()),
        None => (Vec::new(), Vec::new()),
    };
    if a_paths.is_empty() || b_paths.is_empty() {
        eprintln!("usage: snn-benchmark compare [--same-code] <a.json>... --vs <b.json>...");
        return ExitCode::from(2);
    }
    let (a, b) = match (load(&a_paths), load(&b_paths)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("snn-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let first = &a[0];
    if let Some(odd) = a.iter().chain(b.iter()).find(|r| {
        r.workload != first.workload || r.trace != first.trace || r.seconds != first.seconds
    }) {
        eprintln!(
            "snn-benchmark compare: {} trace={} seconds={} does not match {} trace={} seconds={}",
            odd.workload, odd.trace, odd.seconds, first.workload, first.trace, first.seconds
        );
        return ExitCode::from(2);
    }

    println!(
        "# {}: A = {} run(s) (base), B = {} run(s); ratio = B median / A median",
        first.workload,
        a.len(),
        b.len()
    );
    println!(
        "{:<34} {:>14} {:>14} {:<6} {:>8} {:>7} {:>9} {:>9}  verdict",
        "metric", "A (base)", "B", "unit", "B/A", "bound", "spread A", "spread B"
    );
    let share = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |s| format!("{s:.4}"));
    let rows = compare_sets(&a, &b);
    let mut failed = false;
    for row in &rows {
        println!(
            "{:<34} {:>14.6} {:>14.6} {:<6} {:>8.4} {:>7} {:>9} {:>9}  {}",
            row.name,
            row.base,
            row.other,
            row.unit,
            row.other / row.base,
            share(row.bound),
            share(row.spread_a),
            share(row.spread_b),
            row.verdict.name()
        );
        failed |= row.verdict == Verdict::Worse || (same_code && row.verdict == Verdict::Better);
    }
    let noisy = a.iter().chain(b.iter()).filter(|r| r.noisy).count();
    if noisy > 0 {
        println!(
            "# {noisy} of {} runs carry the noisy note",
            a.len() + b.len()
        );
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = |a: &[f64], b: &[f64]| judge(a, b, Better::Lower, Some(0.10));
        assert_eq!(lower(&[1.0], &[1.05]), Verdict::Flat);
        assert_eq!(lower(&[1.0], &[1.2]), Verdict::Worse);
        assert_eq!(lower(&[1.0], &[0.8]), Verdict::Better);
        let higher = |a: &[f64], b: &[f64]| judge(a, b, Better::Higher, Some(0.10));
        assert_eq!(higher(&[100.0], &[80.0]), Verdict::Worse);
        assert_eq!(higher(&[100.0], &[120.0]), Verdict::Better);
        assert_eq!(
            judge(&[1.0], &[2.0], Better::Lower, None),
            Verdict::Unbounded
        );
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        assert_eq!(
            judge(&[31392.0], &[31392.0], Better::Lower, Some(0.0)),
            Verdict::Flat
        );
        assert_eq!(
            judge(&[31392.0], &[31393.0], Better::Lower, Some(0.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &[5.0, 5.0, 5.0, 5.0],
                &[5.0, 5.0, 5.0, 5.0],
                Better::Lower,
                Some(0.0)
            ),
            Verdict::Flat
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_flat() {
        // Same median, but the runs of each side scatter by 40 %.
        let a = [0.8, 0.9, 1.0, 1.1, 1.2];
        let b = [0.85, 0.9, 1.0, 1.1, 1.25];
        assert_eq!(
            judge(&a, &b, Better::Lower, Some(0.10)),
            Verdict::Unresolved
        );
        // A 15 % loss inside that scatter is unresolved too.
        let c = [0.95, 1.05, 1.15, 1.25, 1.35];
        assert_eq!(
            judge(&a, &c, Better::Lower, Some(0.10)),
            Verdict::Unresolved
        );
        // Unless every run of one side beats every run of the other.
        let d = [0.4, 0.45, 0.5, 0.55, 0.6];
        assert_eq!(judge(&a, &d, Better::Lower, Some(0.10)), Verdict::Better);
        assert_eq!(judge(&d, &a, Better::Lower, Some(0.10)), Verdict::Worse);
    }

    #[test]
    fn small_sets_use_the_range_as_their_spread() {
        assert_eq!(spread(&[1.0]), None);
        assert!((spread(&[1.0, 1.2]).unwrap() - 0.2 / 1.1).abs() < 1e-12);
        assert!((spread(&[1.0, 1.1, 1.3]).unwrap() - 0.3 / 1.1).abs() < 1e-12);
        assert!(spread(&[1.0, 1.0, 1.0, 1.0, 9.0]).unwrap() > 0.0);
    }
}
