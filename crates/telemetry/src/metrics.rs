//! One metric table, rendered as plaintext or as Prometheus exposition.
//!
//! A server enumerates its metrics **once**, as a [`MetricTable`]: scalar
//! rows, labelled families (the same rows once per reactor / replica /
//! unit) and latency histograms.  Both STATS formats render that table,
//! so they cannot disagree on which metrics exist:
//!
//! | | plaintext | Prometheus |
//! | --- | --- | --- |
//! | scalar | `name: value` | `# TYPE snn_name[_total] kind` + sample |
//! | family | `label[i]: name=value ...` per member | `snn_label_name[_total]{label="i"}` per row |
//! | histogram | `name_count:` / `name_sum:` over all series | full `_bucket`/`_sum`/`_count` series |

use crate::histogram::{escape_label_value, render_histogram, LatencyHistogram};
use std::fmt::Write;

/// How a [`Metric`] is typed in the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count; exposed with a `_total` suffix.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// A text value (e.g. a backend name).  Prometheus carries it as an
    /// extra label on a constant-`1` gauge, which needs a labelled family:
    /// a scalar info row is plaintext-only.
    Info,
}

/// One row of the table: a named, typed, already-formatted value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The plaintext key.
    pub name: &'static str,
    /// Prometheus type.
    pub kind: MetricKind,
    /// The value as both formats print it.
    pub value: String,
    /// Prometheus base name where it is not `name` (`units` is exposed as
    /// `snn_unit_count`).
    pub exposed_as: Option<&'static str>,
}

impl Metric {
    /// A row of `kind` named `name` in both formats.
    pub fn new(name: &'static str, kind: MetricKind, value: impl ToString) -> Self {
        Metric {
            name,
            kind,
            value: value.to_string(),
            exposed_as: None,
        }
    }

    /// Overrides the Prometheus base name.
    pub fn exposed_as(mut self, base: &'static str) -> Self {
        self.exposed_as = Some(base);
        self
    }

    /// `snn_[family_]base[_total]` and the `# TYPE` word.
    fn prometheus(&self, family: Option<&str>) -> (String, &'static str) {
        let base = self.exposed_as.unwrap_or(self.name);
        let family = family.map(|f| format!("{f}_")).unwrap_or_default();
        match self.kind {
            MetricKind::Counter => (format!("snn_{family}{base}_total"), "counter"),
            MetricKind::Gauge | MetricKind::Info => (format!("snn_{family}{base}"), "gauge"),
        }
    }
}

/// A labelled family: the same rows, once per member.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// The label key and plaintext line prefix (`reactor`, `replica`,
    /// `unit`).
    pub label: &'static str,
    /// `(label value, rows)` per member; every member lists the same row
    /// names in the same order.
    pub members: Vec<(String, Vec<Metric>)>,
}

/// A latency histogram with its labelled series.
#[derive(Debug, Clone)]
pub struct HistogramFamily {
    /// Metric name without the `snn_` prefix.
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// `(label, histogram)` per series; `None` renders unlabelled.
    pub series: Vec<(Option<(&'static str, String)>, LatencyHistogram)>,
}

/// Everything a STATS reply reports.
#[derive(Debug, Clone, Default)]
pub struct MetricTable {
    /// Unlabelled rows.
    pub scalars: Vec<Metric>,
    /// Labelled families.
    pub families: Vec<MetricFamily>,
    /// Latency histograms.
    pub histograms: Vec<HistogramFamily>,
}

/// Plaintext rendering: one `key: value` line per scalar and histogram
/// summary, one `label[i]: key=value ...` line per family member.
pub fn render_metrics_text(table: &MetricTable) -> String {
    let mut out = String::new();
    for metric in &table.scalars {
        let _ = writeln!(out, "{}: {}", metric.name, metric.value);
    }
    for histogram in &table.histograms {
        let count: u64 = histogram.series.iter().map(|(_, h)| h.count()).sum();
        let sum = histogram.series.iter().fold(0.0, |s, (_, h)| s + h.sum());
        let name = histogram.name;
        let _ = writeln!(out, "{name}_count: {count}\n{name}_sum: {sum}");
    }
    for family in &table.families {
        for (member, rows) in &family.members {
            let _ = write!(out, "{}[{member}]:", family.label);
            for metric in rows {
                let _ = write!(out, " {}={}", metric.name, metric.value);
            }
            out.push('\n');
        }
    }
    out
}

/// Prometheus exposition: `# TYPE` metadata plus `snn_`-prefixed metric
/// names, one sample per line — directly scrapeable.
pub fn render_metrics_prometheus(table: &MetricTable) -> String {
    let mut out = String::new();
    for metric in table.scalars.iter().filter(|m| m.kind != MetricKind::Info) {
        let (name, kind) = metric.prometheus(None);
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {}", metric.value);
    }
    for family in &table.families {
        let label = family.label;
        let rows = family.members.first().map_or(&[][..], |(_, rows)| rows);
        // Info series lead: they describe the members the samples after
        // them belong to.
        let (info, samples): (Vec<usize>, Vec<usize>) =
            (0..rows.len()).partition(|&row| rows[row].kind == MetricKind::Info);
        for row in info.into_iter().chain(samples) {
            let (name, kind) = rows[row].prometheus(Some(label));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (member, rows) in &family.members {
                let (member, metric) = (escape_label_value(member), &rows[row]);
                let _ = match metric.kind {
                    MetricKind::Info => {
                        let value = escape_label_value(&metric.value);
                        let key = metric.name;
                        writeln!(out, "{name}{{{label}=\"{member}\",{key}=\"{value}\"}} 1")
                    }
                    _ => writeln!(out, "{name}{{{label}=\"{member}\"}} {}", metric.value),
                };
            }
        }
    }
    for histogram in &table.histograms {
        let name = format!("snn_{}", histogram.name);
        render_histogram(&mut out, &name, histogram.help, &histogram.series);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::MetricKind::{Counter, Gauge, Info};
    use super::*;

    #[test]
    fn both_formats_render_the_same_rows() {
        let mut stall = LatencyHistogram::new();
        stall.observe(0.5);
        let table = MetricTable {
            scalars: vec![
                Metric::new("completed", Counter, 3),
                Metric::new("reactor_backend", Info, "epoll"),
            ],
            families: vec![MetricFamily {
                label: "unit",
                members: vec![(
                    "Linear".to_string(),
                    vec![
                        Metric::new("units", Gauge, 2).exposed_as("count"),
                        Metric::new("backend", Info, "poll"),
                        Metric::new("requests", Counter, 7),
                    ],
                )],
            }],
            histograms: vec![HistogramFamily {
                name: "reactor_write_stall_seconds",
                help: "Residency.",
                series: vec![(None, stall)],
            }],
        };
        assert_eq!(
            render_metrics_text(&table),
            "completed: 3\nreactor_backend: epoll\n\
             reactor_write_stall_seconds_count: 1\nreactor_write_stall_seconds_sum: 0.5\n\
             unit[Linear]: units=2 backend=poll requests=7\n"
        );
        let prom = render_metrics_prometheus(&table);
        assert!(prom.starts_with(
            "# TYPE snn_completed_total counter\nsnn_completed_total 3\n\
             # TYPE snn_unit_backend gauge\nsnn_unit_backend{unit=\"Linear\",backend=\"poll\"} 1\n\
             # TYPE snn_unit_count gauge\nsnn_unit_count{unit=\"Linear\"} 2\n\
             # TYPE snn_unit_requests_total counter\nsnn_unit_requests_total{unit=\"Linear\"} 7\n\
             # HELP snn_reactor_write_stall_seconds Residency.\n"
        ));
        assert!(prom.ends_with("snn_reactor_write_stall_seconds_count 1\n"));
    }
}
