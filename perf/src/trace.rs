//! In-memory spans recorded from the benchmark's side of each public call
//! into the store: name, start, end, parent and request id. One client
//! thread drives every workload, so spans nest on a plain stack.
//!
//! Every span updates its name's aggregate; the full records of the first
//! [`KEEP_REQUESTS`] requests are kept and written out as JSON lines when
//! the run ends. A span's self time is its duration minus its children's.

use std::io::Write;
use std::time::Instant;

/// Requests whose full span records are kept for the span file.
pub const KEEP_REQUESTS: u64 = 100_000;

/// Handle of an interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(u16);

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in microseconds (0 when the name never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What a workload loop needs from tracing. [`Off`] compiles to nothing,
/// so the untraced loops carry no tracing cost at all.
pub trait Spans {
    /// Whether spans are recorded; lets a loop pick the decomposed calls.
    const ON: bool;
    fn name(&mut self, name: &'static str) -> Name;
    /// Open a span under the innermost open one; with none open this
    /// starts a new request.
    fn enter(&mut self, name: Name);
    /// Close the innermost open span.
    fn exit(&mut self);
    /// A span round one call.
    fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

/// Tracing disabled.
pub struct Off;

impl Spans for Off {
    const ON: bool = false;
    fn name(&mut self, _: &'static str) -> Name {
        Name(0)
    }
    #[inline(always)]
    fn enter(&mut self, _: Name) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

struct Frame {
    name: Name,
    id: u64,
    start_ns: u64,
    children_ns: u64,
}

/// Tracing enabled.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    requests: u64,
    next_id: u64,
    /// Requests whose children covered less than [`COVERAGE_FLOOR`] of it.
    under_covered: u64,
}

/// Share of a request span its child spans should cover.
pub const COVERAGE_FLOOR: f64 = 0.95;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(2 * KEEP_REQUESTS as usize),
            requests: 0,
            next_id: 0,
            under_covered: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The aggregate of `name` (zero when it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.aggs[i])
            .unwrap_or_default()
    }

    /// Requests started so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests whose child spans covered less than [`COVERAGE_FLOOR`].
    pub fn under_covered(&self) -> u64 {
        self.under_covered
    }

    /// Spans kept for the span file.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of all request time that child spans covered.
    pub fn coverage(&self, request_names: &[&str]) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for name in request_names {
            let a = self.agg(name);
            total += a.total_ns;
            own += a.self_ns;
        }
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }

    /// Write the kept spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.req, s.id, parent, self.names[s.name.0 as usize], s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        w.flush()
    }
}

impl Spans for Tracer {
    const ON: bool = true;

    fn name(&mut self, name: &'static str) -> Name {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.aggs.push(Agg::default());
                self.names.len() - 1
            });
        Name(u16::try_from(i).expect("a handful of span names"))
    }

    fn enter(&mut self, name: Name) {
        if self.stack.is_empty() {
            self.requests += 1;
        }
        self.next_id += 1;
        self.stack.push(Frame {
            name,
            id: self.next_id,
            start_ns: self.now_ns(),
            children_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let f = self.stack.pop().expect("exit without enter");
        let dur = end_ns - f.start_ns;
        let self_ns = dur.saturating_sub(f.children_ns);
        let agg = &mut self.aggs[f.name.0 as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += dur;
                Some(p.id)
            }
            None => {
                if (self_ns as f64) > (1.0 - COVERAGE_FLOOR) * dur as f64 {
                    self.under_covered += 1;
                }
                None
            }
        };
        if self.requests <= KEEP_REQUESTS {
            self.spans.push(Span {
                req: self.requests,
                id: f.id,
                parent,
                name: f.name,
                start_ns: f.start_ns,
                end_ns,
                self_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let mut t = Tracer::new();
        let (req, a, b, c) = (t.name("req"), t.name("a"), t.name("b"), t.name("c"));
        t.enter(req);
        spin(20_000);
        t.enter(a);
        spin(20_000);
        t.span(c, || spin(20_000)); // nested under a
        t.exit();
        t.span(b, || spin(20_000)); // sibling of a
        t.exit();

        let by_name = |n: Name| t.spans().iter().find(|s| s.name == n).expect("span kept");
        let (sr, sa, sb, sc) = (by_name(req), by_name(a), by_name(b), by_name(c));
        assert_eq!(sr.parent, None);
        assert_eq!(sa.parent, Some(sr.id));
        assert_eq!(sb.parent, Some(sr.id));
        assert_eq!(sc.parent, Some(sa.id));
        assert!(t.spans().iter().all(|s| s.req == 1));
        // Self time is the span minus its direct children only: the
        // grandchild is already inside `a`.
        let dur = |s: &Span| s.end_ns - s.start_ns;
        assert_eq!(sr.self_ns, dur(sr) - dur(sa) - dur(sb));
        assert_eq!(sa.self_ns, dur(sa) - dur(sc));
        assert_eq!(sc.self_ns, dur(sc));
        assert!(sr.self_ns >= 20_000 && sa.self_ns >= 20_000);
        // Siblings do not overlap and lie inside the parent.
        assert!(sa.end_ns <= sb.start_ns && sb.end_ns <= sr.end_ns);
        // Aggregates match the records.
        assert_eq!(t.agg("a").total_ns, dur(sa));
        assert_eq!(t.agg("req").self_ns, sr.self_ns);
        assert_eq!(t.agg("never").count, 0);
        // A quarter of the request is its own: under the 95 % floor.
        assert_eq!(t.under_covered(), 1);
        let cov = t.coverage(&["req"]);
        assert!(cov > 0.5 && cov < 0.95, "coverage {cov}");

        // The next top-level span is a new request.
        t.span(req, || ());
        assert_eq!(t.requests(), 2);
        assert_eq!(t.spans().last().expect("kept").req, 2);
    }

    #[test]
    fn span_file_is_one_json_object_per_line() {
        let mut t = Tracer::new();
        let (req, a) = (t.name("req"), t.name("a"));
        t.enter(req);
        t.span(a, || ());
        t.exit();
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = sqlgraph_json::parse(lines[0]).expect("json");
        assert_eq!(child.get("name").and_then(|j| j.as_str()), Some("a"));
        assert_eq!(child.get("parent").and_then(|j| j.as_i64()), Some(1));
        let root = sqlgraph_json::parse(lines[1]).expect("json");
        assert!(root.get("parent").expect("key").is_null());
    }

    #[test]
    fn off_records_nothing() {
        let mut off = Off;
        let n = off.name("x");
        assert_eq!(off.span(n, || 7), 7);
    }
}
