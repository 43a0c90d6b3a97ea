//! In-memory spans around calls into the program's layers.
//!
//! Each span records its name, start, end, parent span and a
//! per-request id, plus a work count (values, points or evaluations)
//! for per-unit rates. Spans stay in memory while the run measures and
//! are written out when it ends. A layer's self time is its span minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `prob.json.decode`.
    pub name: &'static str,
    /// Start, in ns since the tracer origin.
    pub start: u64,
    /// End, in ns since the tracer origin.
    pub end: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u64,
    /// Units of work the call did (0 when not counted).
    pub work: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer whose times count from `origin`, so tracers of several
    /// threads share one time axis.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Appends another tracer's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording `work` units done inside it.
    pub fn close(&mut self, id: usize, work: u64) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
            span.work = work;
        }
    }

    /// Runs `f` inside a span of `work` units and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        work: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id, work);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"work\":{}}}",
                s.name, s.start, s.end, s.req, s.work
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| children.get_mut(p)) {
            slot.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of self time, work and span count.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, in ns.
    pub self_ns: u64,
    /// Summed work units.
    pub work: u64,
}

impl Totals {
    /// Self time per unit of work, in ns (0 without work).
    pub fn ns_per_unit(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }

    /// Mean self time per span, in µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Work units per second of self time (0 without time).
    pub fn per_second(&self) -> f64 {
        if self.self_ns == 0 {
            0.0
        } else {
            self.work as f64 / (self.self_ns as f64 / 1e9)
        }
    }
}

/// Aggregates self time and work per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.work += s.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // sticks out: clipped to 90..100
            span("leaf", 12, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 20 - 8);
        assert_eq!(st[2], 25);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 8);
    }

    #[test]
    fn totals_group_by_name_with_work() {
        let mut spans = vec![span("x", 0, 10, None), span("x", 20, 50, None)];
        spans[0].work = 5;
        spans[1].work = 15;
        let t = totals(&spans)["x"];
        assert_eq!(
            t,
            Totals {
                count: 2,
                self_ns: 40,
                work: 20
            }
        );
        assert!((t.ns_per_unit() - 2.0).abs() < 1e-12);
        assert!((t.mean_us() - 0.02).abs() < 1e-12);
        assert!((t.per_second() - 5e8).abs() < 1.0);
    }

    #[test]
    fn tracer_nests_spans_and_writes_parseable_lines() {
        let mut tr = Tracer::default();
        let root = tr.open("root", None, 7);
        let v = tr.time("child", Some(root), 7, 3, || 41 + 1);
        tr.close(root, 0);
        assert_eq!(v, 42);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        for line in tr.to_json_lines().lines() {
            let doc = sysunc::prob::json::parse(line).expect("span line parses");
            assert_eq!(doc.get("req").and_then(|j| j.as_u64()), Some(7));
        }
    }
}
