//! In-memory span trace of a traced pass: the harness opens a span
//! around each call into a layer's public API, keeps the spans in
//! memory, and writes them out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `cell` names the cell-run the span belongs to
/// (empty for pass-level spans), so spans of one cell-run share it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cell: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread; the innermost open span is the
/// parent of the next one opened.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, cell: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            cell: cell.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// its direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Total self time, in seconds, of every span called `name`.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(spans, s.id))
        .sum::<u64>() as f64
        / 1e9
}

/// How many spans are called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Share of span `root`'s duration spent outside any leaf span below
/// it — time the trace cannot attribute to a layer.
pub fn untraced_share(spans: &[Span], root: usize) -> f64 {
    let has_child = |id: usize| spans.iter().any(|s| s.parent == Some(id));
    let below_root = |mut id: usize| loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let unattributed: u64 = spans
        .iter()
        .filter(|s| has_child(s.id) && below_root(s.id))
        .map(|s| self_ns(spans, s.id))
        .sum();
    unattributed as f64 / spans[root].dur_ns().max(1) as f64
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"cell\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.name,
            s.cell.replace('\\', "\\\\").replace('"', "\\\""),
            s.start_ns,
            s.end_ns
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: String::new(),
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_interval() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "cell", 10, 90),
            span(2, Some(1), "topo.build", 10, 30),
            span(3, Some(1), "core.record", 40, 80),
            // Overlaps span 3 and runs past the parent: only 80..90 is new.
            span(4, Some(1), "core.replay", 70, 95),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        // cell 10..90 minus 10..30, 40..80, 80..90.
        assert_eq!(self_ns(&spans, 1), 10);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_secs(&spans, "core.record"), 40e-9);
        assert_eq!(count(&spans, "cell"), 1);
        // pass self 20 + cell self 10 over a 100 ns pass.
        assert!((untraced_share(&spans, 0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_by_open_order_and_writes_jsonl() {
        let mut tr = Tracer::new();
        let pass = tr.open("pass", "");
        let got = tr.span("topo.build", "FIFO \"x\"", || 7);
        tr.close(pass);
        assert_eq!(got, 7);
        assert_eq!(tr.spans[1].parent, Some(pass));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let text = to_jsonl(&tr.spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\": 0, \"parent\": null, \"name\": \"pass\""));
        assert!(text.contains("\"cell\": \"FIFO \\\"x\\\"\""));
    }
}
