//! Benchmark trend checking: compares a freshly generated `BENCH_conv.json`
//! against the committed copy and gates the **same-session ratio keys**.
//!
//! The committed summary was measured on another day, on a host that has
//! drifted since, so an absolute `median_ns` row says as much about the
//! host as about the code.  A ratio whose numerator and denominator were
//! timed in one process does not have that problem — the drift cancels —
//! and those are the only keys compared.  [`RATIO_KEYS`] lists them with
//! their direction; a ratio that moves in its worse direction by more than
//! [`WARN_THRESHOLD`] warns and by more than [`FAIL_THRESHOLD`] fails.
//! Every other numeric key (the `results/<id>/median_ns` rows, sample
//! counts) is carried side by side as information and never gates.  Keys
//! present on one side only are reported as retired or new, so a renamed
//! key is visible rather than silently uncompared.
//!
//! The summary is written by the `conv_unit` bench itself, so the format is
//! ours; a tiny flattening JSON reader keeps this free of external
//! dependencies (the container has no registry access).

use std::fmt;

/// Worsening of a ratio key past which the trend check warns (20 %).
pub const WARN_THRESHOLD: f64 = 0.20;

/// Worsening of a ratio key past which the trend check fails (50 %): host
/// noise explains a few tens of percent even of a same-session ratio of
/// micro-benchmarks, not a halving.
pub const FAIL_THRESHOLD: f64 = 0.50;

/// Which way a ratio key improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are improvements (speed-ups).
    Higher,
    /// Smaller values are improvements (overheads).
    Lower,
}

/// The gated keys of `BENCH_conv.json`, by key prefix: dimensionless ratios
/// of two measurements taken in the same bench process.  A key the bench
/// adds without a line here fails `committed_summaries_parse`.
pub const RATIO_KEYS: &[(&str, Better)] = &[
    ("host_speedup_engine_vs_seed_reference", Better::Higher),
    ("product_sparsity_host_ratio", Better::Higher),
    ("product_sparsity_op_ratio", Better::Higher),
    ("simd_kernel_speedup_vs_scalar", Better::Higher),
    ("spike_block_speedup_vs_single", Better::Higher),
    ("level_epilogue_speedup_vs_reference", Better::Higher),
    ("tiling_overhead_", Better::Lower),
];

/// The direction of `id` if it is a gated ratio key.
fn direction(id: &str) -> Option<Better> {
    RATIO_KEYS
        .iter()
        .find(|(prefix, _)| id.starts_with(prefix))
        .map(|&(_, better)| better)
}

/// One numeric key of the two summaries, side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Flattened key path, e.g. `tiling_overhead_vgg_conv2_8KiB` or
    /// `results/conv_unit/bitplane_sparse/3/median_ns`.
    pub id: String,
    /// Committed previous value (`None`: the key is new).
    pub baseline: Option<f64>,
    /// Freshly measured value (`None`: the key is retired).
    pub fresh: Option<f64>,
}

impl Row {
    /// Fraction by which a gated ratio moved in its worse direction
    /// (negative: it improved).  `None` for every row that does not gate:
    /// keys outside [`RATIO_KEYS`] and keys present on one side only.
    pub fn worsened_by(&self) -> Option<f64> {
        let (then, now) = (self.baseline?, self.fresh?);
        let better = direction(&self.id)?;
        (then > 0.0).then(|| match better {
            Better::Higher => 1.0 - now / then,
            Better::Lower => now / then - 1.0,
        })
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.baseline, self.fresh) {
            (Some(then), Some(now)) if then > 0.0 => write!(
                f,
                "{}: {then} -> {now} ({:+.1}%)",
                self.id,
                100.0 * (now / then - 1.0)
            ),
            (Some(then), Some(now)) => write!(f, "{}: {then} -> {now}", self.id),
            (Some(then), None) => write!(f, "{}: {then} -> (retired)", self.id),
            (None, Some(now)) => write!(f, "{}: (new) -> {now}", self.id),
            (None, None) => write!(f, "{}", self.id),
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal flattening JSON reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn join(path: &str, key: &str) -> String {
    match (path.is_empty(), key.is_empty()) {
        (true, _) => key.to_string(),
        (_, true) => path.to_string(),
        _ => format!("{path}/{key}"),
    }
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    // The harness-written summaries only escape quotes and
                    // backslashes; pass anything else through verbatim.
                    if let Some(&esc) = self.bytes.get(self.pos) {
                        self.pos += 1;
                        out.push(esc as char);
                    }
                }
                _ => out.push(b as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_scalar(&mut self) -> Result<Option<f64>, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b',' || b == b'}' || b == b']' || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 scalar".to_string())?;
        if token.is_empty() {
            return Err(format!("empty scalar at byte {start}"));
        }
        // Numbers become rows; true/false/null carry nothing to compare.
        Ok(token.parse::<f64>().ok())
    }

    /// Parses one value, appending `(path, number)` pairs to `out`.
    /// Returns the value of an object's own `"id"` string field, if any.
    fn parse_value(
        &mut self,
        path: &str,
        out: &mut Vec<(String, f64)>,
    ) -> Result<Option<String>, String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(None);
                }
                let mut id = None;
                loop {
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    if key == "id" && self.peek() == Some(b'"') {
                        id = Some(self.parse_string()?);
                    } else {
                        self.parse_value(&join(path, &key), out)?;
                    }
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(id);
                        }
                        other => return Err(format!("bad object separator {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(None);
                }
                let mut index = 0usize;
                loop {
                    // A criterion result row names itself with an `"id"`
                    // string; keying the element by it (not by its index)
                    // matches rows across files whatever their order.
                    let mut element = Vec::new();
                    let name = self
                        .parse_value("", &mut element)?
                        .unwrap_or_else(|| index.to_string());
                    let prefix = join(path, &name);
                    out.extend(element.into_iter().map(|(k, v)| (join(&prefix, &k), v)));
                    index += 1;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(None);
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                self.parse_string()?;
                Ok(None)
            }
            Some(_) => {
                if let Some(number) = self.parse_scalar()? {
                    out.push((path.to_string(), number));
                }
                Ok(None)
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

/// Flattens every numeric field of one summary into `(key path, value)`
/// pairs, in file order, or describes the first malformed construct.
fn flatten(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    reader.parse_value("", &mut out)?;
    Ok(out)
}

/// Lines the two flattened summaries up by key: the fresh file's keys in
/// file order, then the keys only the baseline has.
fn compare(baseline: &[(String, f64)], fresh: &[(String, f64)]) -> Vec<Row> {
    let value_in = |side: &[(String, f64)], id: &str| {
        side.iter()
            .find(|(key, _)| key == id)
            .map(|&(_, value)| value)
    };
    let mut rows: Vec<Row> = fresh
        .iter()
        .map(|(id, now)| Row {
            id: id.clone(),
            baseline: value_in(baseline, id),
            fresh: Some(*now),
        })
        .collect();
    for (id, then) in baseline {
        if value_in(fresh, id).is_none() {
            rows.push(Row {
                id: id.clone(),
                baseline: Some(*then),
                fresh: None,
            });
        }
    }
    rows
}

/// What `bench_trend` concluded, and with it the process exit status.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No baseline exists: the first run of a new summary.  Passes.
    Skipped,
    /// Both files read; passes unless a ratio worsened past
    /// [`FAIL_THRESHOLD`].
    Compared(Vec<Row>),
    /// A malformed file on either side, or no ratio key to compare: a
    /// bench that did not write its record must not pass.  Fails.
    Unusable(String),
}

impl Verdict {
    /// Whether the process must exit non-zero.
    pub fn failed(&self) -> bool {
        match self {
            Verdict::Skipped => false,
            Verdict::Compared(rows) => rows
                .iter()
                .any(|row| row.worsened_by().is_some_and(|by| by > FAIL_THRESHOLD)),
            Verdict::Unusable(_) => true,
        }
    }
}

/// The whole check: `baseline` is the committed summary's text (`None` if
/// there is none yet), `fresh` the regenerated one's.
pub fn check(baseline: Option<&str>, fresh: &str) -> Verdict {
    let Some(baseline) = baseline else {
        return Verdict::Skipped;
    };
    let flat = |side: &str, text: &str| {
        flatten(text).map_err(|e| format!("malformed {side} summary: {e}"))
    };
    let rows = match (flat("baseline", baseline), flat("fresh", fresh)) {
        (Ok(baseline), Ok(fresh)) => compare(&baseline, &fresh),
        (Err(why), _) | (_, Err(why)) => return Verdict::Unusable(why),
    };
    if rows.iter().all(|row| row.worsened_by().is_none()) {
        return Verdict::Unusable(
            "the fresh summary shares no ratio key with the baseline: nothing was compared"
                .to_string(),
        );
    }
    Verdict::Compared(rows)
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = match self {
            Verdict::Skipped => return writeln!(f, "bench-trend: no baseline yet; skipping"),
            Verdict::Unusable(why) => return writeln!(f, "::error::bench-trend: {why}"),
            Verdict::Compared(rows) => rows,
        };
        writeln!(
            f,
            "bench-trend: same-session ratios (warn > {:.0}% worse, fail > {:.0}% worse)",
            100.0 * WARN_THRESHOLD,
            100.0 * FAIL_THRESHOLD
        )?;
        for row in rows {
            match row.worsened_by() {
                Some(by) if by > FAIL_THRESHOLD => writeln!(f, "::error::bench-trend: {row}")?,
                Some(by) if by > WARN_THRESHOLD => writeln!(f, "::warning::bench-trend: {row}")?,
                Some(_) => writeln!(f, "  {row}")?,
                None => {}
            }
        }
        writeln!(
            f,
            "bench-trend: not compared (retired or new keys; absolute medians from another day's host)"
        )?;
        for row in rows {
            // Of a result row's four fields only the median is printed.
            let shown = !row.id.starts_with("results/") || row.id.ends_with("/median_ns");
            if shown && row.worsened_by().is_none() {
                writeln!(f, "  {row}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
"workload": "lenet",
"host_speedup_engine_vs_seed_reference": {"T3": 20.0, "T6": 40.0},
"product_sparsity_host_ratio": {"T3": 0.86},
"tiling_overhead_vgg_conv2_8KiB": 1.05,
"results": [
  {"id": "conv_unit/bitplane_sparse/3", "median_ns": 450000.0, "mean_ns": 451000.0, "samples": 12},
  {"id": "pool_unit/avg", "median_ns": 22000.0, "mean_ns": 22500.0, "samples": 12}
]
}"#;

    fn rows_against_sample(fresh: &str) -> Vec<Row> {
        match check(Some(SAMPLE), fresh) {
            Verdict::Compared(rows) => rows,
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    fn row<'a>(rows: &'a [Row], id: &str) -> &'a Row {
        rows.iter()
            .find(|row| row.id == id)
            .unwrap_or_else(|| panic!("missing row {id}: {rows:?}"))
    }

    #[test]
    fn flattens_nested_keys_and_names_result_rows_by_id() {
        let pairs = flatten(SAMPLE).unwrap();
        let value = |id: &str| {
            pairs
                .iter()
                .find(|(key, _)| key == id)
                .unwrap_or_else(|| panic!("missing key {id}: {pairs:?}"))
                .1
        };
        assert!((value("host_speedup_engine_vs_seed_reference/T6") - 40.0).abs() < 1e-9);
        assert!((value("tiling_overhead_vgg_conv2_8KiB") - 1.05).abs() < 1e-9);
        // Result rows are keyed by their `"id"`, not their position.
        assert!((value("results/conv_unit/bitplane_sparse/3/median_ns") - 450000.0).abs() < 1e-9);
        assert!((value("results/pool_unit/avg/samples") - 12.0).abs() < 1e-9);
        // Strings are not rows.
        assert!(pairs.iter().all(|(key, _)| key != "workload"));
        assert!(pairs.iter().all(|(key, _)| !key.ends_with("/id")));
    }

    #[test]
    fn regressions_respect_direction_and_threshold() {
        // A speed-up that drops and an overhead that grows both worsen ...
        let rows = rows_against_sample(
            &SAMPLE
                .replace("\"T6\": 40.0", "\"T6\": 28.0")
                .replace("8KiB\": 1.05", "8KiB\": 1.365"),
        );
        let dropped = row(&rows, "host_speedup_engine_vs_seed_reference/T6");
        assert!((dropped.worsened_by().unwrap() - 0.30).abs() < 1e-9);
        let grew = row(&rows, "tiling_overhead_vgg_conv2_8KiB");
        assert!((grew.worsened_by().unwrap() - 0.30).abs() < 1e-9);
        // ... the untouched ratio does not, and each renders a readable line.
        let steady = row(&rows, "host_speedup_engine_vs_seed_reference/T3");
        assert!(steady.worsened_by().unwrap().abs() < 1e-9);
        assert!(dropped.to_string().contains("40 -> 28 (-30.0%)"));
        let report = Verdict::Compared(rows).to_string();
        assert_eq!(report.matches("::warning::").count(), 2, "{report}");
        assert!(!report.contains("::error::"), "{report}");
    }

    #[test]
    fn fail_threshold_separates_warnings_from_hard_failures() {
        // -30 %: a warning, the check still passes.
        let soft = check(
            Some(SAMPLE),
            &SAMPLE.replace("\"T3\": 0.86", "\"T3\": 0.602"),
        );
        assert!(!soft.failed());
        assert!(soft.to_string().contains("::warning::"));
        // -60 % of a speed-up, +60 % of an overhead: failures.
        for worse in [
            SAMPLE.replace("\"T3\": 0.86", "\"T3\": 0.344"),
            SAMPLE.replace("8KiB\": 1.05", "8KiB\": 1.68"),
        ] {
            let hard = check(Some(SAMPLE), &worse);
            assert!(hard.failed());
            assert!(hard.to_string().contains("::error::"));
        }
    }

    #[test]
    fn improvements_and_small_noise_do_not_trip() {
        let verdict = check(
            Some(SAMPLE),
            &SAMPLE
                .replace("\"T6\": 40.0", "\"T6\": 400.0") // 10x better
                .replace("8KiB\": 1.05", "8KiB\": 0.2") // far less overhead
                .replace("\"T3\": 0.86", "\"T3\": 0.78"), // -9 %
        );
        assert!(!verdict.failed());
        let report = verdict.to_string();
        assert!(!report.contains("::warning::") && !report.contains("::error::"));
    }

    #[test]
    fn new_and_retired_keys_are_reported() {
        // A rename shows up as one retired and one new key, never as silence.
        let rows = rows_against_sample(
            &SAMPLE.replace("product_sparsity_host_ratio", "product_sparsity_op_ratio"),
        );
        let retired = row(&rows, "product_sparsity_host_ratio/T3");
        assert_eq!((retired.baseline, retired.fresh), (Some(0.86), None));
        let new = row(&rows, "product_sparsity_op_ratio/T3");
        assert_eq!((new.baseline, new.fresh), (None, Some(0.86)));
        assert!(retired.worsened_by().is_none() && new.worsened_by().is_none());
        let report = Verdict::Compared(rows).to_string();
        assert!(report.contains("product_sparsity_host_ratio/T3: 0.86 -> (retired)"));
        assert!(report.contains("product_sparsity_op_ratio/T3: (new) -> 0.86"));
    }

    #[test]
    fn unclassified_numeric_keys_are_reported_not_dropped() {
        let fresh = SAMPLE.replace("\"workload\": \"lenet\"", "\"mystery_metric\": 7.0");
        let rows = rows_against_sample(&fresh);
        let mystery = row(&rows, "mystery_metric");
        assert_eq!(mystery.fresh, Some(7.0));
        assert!(mystery.worsened_by().is_none());
    }

    #[test]
    fn absolute_rows_never_gate_however_large_the_change() {
        let verdict = check(
            Some(SAMPLE),
            &SAMPLE.replace("\"median_ns\": 450000.0", "\"median_ns\": 45000000.0"),
        );
        assert!(!verdict.failed());
        let report = verdict.to_string();
        assert!(!report.contains("::warning::") && !report.contains("::error::"));
        // Printed side by side all the same.
        assert!(
            report.contains("results/conv_unit/bitplane_sparse/3/median_ns: 450000 -> 45000000")
        );
    }

    #[test]
    fn check_skips_only_a_missing_baseline_and_fails_closed() {
        // Exit 0: the first run of a new summary ...
        assert_eq!(check(None, SAMPLE), Verdict::Skipped);
        assert!(!Verdict::Skipped.failed());
        // ... and a comparison inside the tiers.
        assert!(!check(Some(SAMPLE), SAMPLE).failed());
        // Non-zero: a bench that crashed mid-write, on either side ...
        let truncated = &SAMPLE[..SAMPLE.len() / 2];
        assert!(matches!(
            check(Some(SAMPLE), truncated),
            Verdict::Unusable(_)
        ));
        assert!(matches!(
            check(Some(truncated), SAMPLE),
            Verdict::Unusable(_)
        ));
        assert!(check(Some(SAMPLE), truncated).failed());
        // ... or wrote a well-formed file with nothing to compare.
        for empty in ["{}", r#"{"results": [{"id": "a/b", "median_ns": 1.0}]}"#] {
            let verdict = check(Some(SAMPLE), empty);
            assert!(matches!(verdict, Verdict::Unusable(_)), "{empty}");
            assert!(verdict.failed() && verdict.to_string().starts_with("::error::"));
        }
    }

    #[test]
    fn committed_summaries_parse() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_conv.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_conv.json");
        let pairs = flatten(&text).unwrap();
        // Every top-level numeric key has a direction: a ratio the bench
        // adds without a `RATIO_KEYS` line fails here instead of vanishing
        // from the comparison.
        let (absolute, ratios): (Vec<_>, Vec<_>) = pairs
            .iter()
            .map(|(id, _)| id.as_str())
            .partition(|id| id.starts_with("results/"));
        assert!(!absolute.is_empty() && !ratios.is_empty());
        for id in ratios {
            assert!(direction(id).is_some(), "{id} is not in RATIO_KEYS");
        }
        assert!(!check(Some(&text), &text).failed());
    }
}
