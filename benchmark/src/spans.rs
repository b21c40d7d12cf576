//! Spans recorded by the benchmark around its calls into each layer: name,
//! start, end, the span that caused it and the request it belongs to.
//! Kept in memory during the traced pass and written as JSONL at exit.

use crate::json::Value;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Marks a span that belongs to no request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one thread of control.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.  Returns `f`'s result and the span's duration in
    /// milliseconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (out, self.spans[index].duration_ns() as f64 / 1e6)
    }

    /// [`Recorder::timed`] without the duration.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.timed(name, request, f).0
    }

    /// Records a span whose ends were observed elsewhere (a request's life
    /// seen by the generator); returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times_ns(&self.spans);
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let line = Value::Object(vec![
                ("span".to_string(), Value::Number(index as f64)),
                ("name".to_string(), Value::String(span.name.to_string())),
                (
                    "parent".to_string(),
                    span.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                ),
                (
                    "request".to_string(),
                    if span.request == NO_REQUEST {
                        Value::Null
                    } else {
                        Value::Number(span.request as f64)
                    },
                ),
                ("start_ns".to_string(), Value::Number(span.start_ns as f64)),
                ("end_ns".to_string(), Value::Number(span.end_ns as f64)),
                ("self_ns".to_string(), Value::Number(self_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if lo < hi {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            request: NO_REQUEST,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlaps the first child: union 10..50
            span(Some(0), 90, 140), // sticks out of the parent: clipped to 90..100
            span(Some(1), 12, 18),  // grandchild: the root does not see it
        ];
        assert_eq!(self_times_ns(&spans), [50, 14, 30, 50, 6]);
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut rec = Recorder::new();
        let out = rec.scope("outer", 7, |rec| {
            rec.scope("inner", 7, |_| std::hint::black_box(3)) + 1
        });
        assert_eq!(out, 4);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let extra = rec.add("request", None, 9, 5, 25);
        assert_eq!(rec.spans()[extra].duration_ns(), 20);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut rec = Recorder::new();
        rec.scope("outer", NO_REQUEST, |rec| rec.scope("inner", 3, |_| ()));
        let path = crate::out_dir().join(format!("test-spans-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("request"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[1].get("request").unwrap().as_f64(), Some(3.0));
    }
}
