//! Spans around the calls the benchmark makes into each layer. Kept in
//! memory and written out when the traced pass ends; nothing here runs
//! during the end-to-end pass.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Single-threaded span recorder: the open spans form a stack, so a new
/// span's parent is whatever is on top.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` returns its result and the bytes it
    /// produced; it gets the tracer back to open child spans.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        bytes_in: usize,
        f: impl FnOnce(&mut Tracer) -> (R, usize),
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            bytes_in: bytes_in as u64,
            bytes_out: 0,
        });
        self.open.push(id);
        let (result, bytes_out) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].bytes_out = bytes_out as u64;
        result
    }

    /// A span with no children: times one call into a layer.
    pub fn call<R>(&mut self, name: &str, bytes_in: usize, f: impl FnOnce() -> (R, usize)) -> R {
        self.span(name, bytes_in, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether `id` is `root` or lies below it.
    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Seconds and bytes in/out summed over the spans called `name` under
    /// the first span called `root`.
    pub fn total(&self, root: &str, name: &str) -> (f64, u64, u64) {
        let Some(root) = self.find(root) else { return (0.0, 0, 0) };
        self.spans
            .iter()
            .filter(|s| s.name == name && self.is_under(s.id, root))
            .fold((0.0, 0, 0), |(t, i, o), s| (t + s.secs(), i + s.bytes_in, o + s.bytes_out))
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .collect();
        (span.end_ns - span.start_ns) - covered_ns(children)
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self.spans.iter().map(|s| {
            Value::obj([
                ("id", Value::Num(s.id as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("name", Value::str(&s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("self_ns", Value::Num(self.self_ns(s.id) as f64)),
                ("bytes_in", Value::Num(s.bytes_in as f64)),
                ("bytes_out", Value::Num(s.bytes_out as f64)),
            ])
        });
        Value::obj([("workload", Value::str(workload)), ("spans", Value::Arr(spans.collect()))])
    }
}

/// Length of the union of `intervals` (children of a span may overlap once
/// a layer runs them on several threads; they do not today).
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.into(), start_ns, end_ns, bytes_in: 10, bytes_out: 5 }
    }

    fn fixed() -> Tracer {
        Tracer {
            origin: Instant::now(),
            open: Vec::new(),
            spans: vec![
                span(0, None, "replay", 0, 100),
                span(1, Some(0), "chunk[0]", 10, 60),
                span(2, Some(1), "speck.encode", 10, 30),
                span(3, Some(1), "wavelet.forward", 35, 55),
                span(4, Some(0), "chunk[1]", 60, 90),
                span(5, Some(4), "speck.encode", 62, 82),
                span(6, None, "other", 100, 120),
                span(7, Some(6), "speck.encode", 100, 110),
            ],
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = fixed();
        assert_eq!(t.self_ns(0), 100 - 50 - 30);
        assert_eq!(t.self_ns(1), 50 - 20 - 20);
        assert_eq!(t.self_ns(2), 20);
        // A span and its children account for all of its time.
        let children: u64 = [1, 4].iter().map(|&c| t.spans[c].end_ns - t.spans[c].start_ns).sum();
        assert_eq!(t.self_ns(0) + children, 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30), (22, 25)]), 25);
        assert_eq!(covered_ns(vec![]), 0);
    }

    #[test]
    fn totals_are_scoped_to_a_root() {
        let t = fixed();
        let (secs, bytes_in, bytes_out) = t.total("replay", "speck.encode");
        assert!((secs - 40e-9).abs() < 1e-15);
        assert_eq!((bytes_in, bytes_out), (20, 10));
        assert!((t.total("other", "speck.encode").0 - 10e-9).abs() < 1e-15);
        assert_eq!(t.total("missing", "speck.encode"), (0.0, 0, 0));
    }

    #[test]
    fn recorded_spans_nest_and_carry_bytes() {
        let mut t = Tracer::default();
        let out = t.span("outer", 8, |t| {
            let inner = t.call("inner", 4, || (7, 2));
            (inner + 1, 3)
        });
        assert_eq!(out, 8);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].bytes_in, s[0].bytes_out, s[1].bytes_out), (8, 3, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
