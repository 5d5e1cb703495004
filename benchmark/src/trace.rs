//! In-memory spans recorded from the benchmark's own call sites.
//!
//! A span is `(name, start, end, parent, op)`: the benchmark opens one
//! around every call into a layer, the compile observer opens one per
//! compiler phase, and the control-channel wrapper records one per
//! message. Spans of one operation share its `op` id. Nothing is written
//! until the run ends; a disabled tracer records nothing, which is how
//! the untraced half of a `--trace 1` run measures the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Which instance the span worked on (empty below an op's root span).
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The duration the callee itself reported for this interval, where
    /// it reports one (a compiler phase's `elapsed`). The compiler
    /// interleaves some phases and announces them back to back, so its
    /// own figure can differ from the announced interval.
    pub reported_ns: Option<u64>,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The callee's own figure where it gave one, else the interval.
    pub fn reported_or_duration_ns(&self) -> u64 {
        self.reported_ns.unwrap_or_else(|| self.duration_ns())
    }
}

#[derive(Default)]
struct Inner {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

pub struct Tracer {
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            inner: Mutex::default(),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer mutex poisoned: a span callback panicked")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn set_enabled(&self, on: bool) {
        self.lock().enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Start a new operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.lock().op += 1;
    }

    /// Open a span under the innermost open one. `None` when disabled.
    pub fn begin(&self, name: &'static str, label: &str) -> Option<u32> {
        let now = self.now_ns();
        let mut g = self.lock();
        if !g.enabled {
            return None;
        }
        let id = g.spans.len() as u32;
        let (parent, op) = (g.open.last().copied(), g.op);
        g.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns: now,
            end_ns: now,
            reported_ns: None,
            parent,
            op,
        });
        g.open.push(id);
        Some(id)
    }

    /// Close a span returned by [`Tracer::begin`] (and any span opened
    /// inside it that an early return left open).
    pub fn end(&self, id: Option<u32>) {
        self.end_reported(id, None);
    }

    /// [`Tracer::end`], also recording the duration the callee reported.
    pub fn end_reported(&self, id: Option<u32>, reported: Option<std::time::Duration>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let mut g = self.lock();
        while let Some(open) = g.open.pop() {
            g.spans[open as usize].end_ns = now;
            if open == id {
                g.spans[open as usize].reported_ns = reported.map(|d| d.as_nanos() as u64);
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, label);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-finished interval as a child of the innermost
    /// open span (control messages: the wrapper times the inner call).
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let mut g = self.lock();
        if !g.enabled {
            return;
        }
        let (parent, op) = (g.open.last().copied(), g.op);
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        g.spans.push(Span {
            name,
            label: String::new(),
            start_ns: rel(start),
            end_ns: rel(end),
            reported_ns: None,
            parent,
            op,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, 0u64);
            for (lo, hi) in kids {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Share of the wall time of the spans named `root` that their child
/// spans account for — how much of the primary operation the trace
/// explains.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut total, mut unexplained) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == root {
            total += s.duration_ns();
            unexplained += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    (total - unexplained) as f64 / total as f64
}

/// Write one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let own = self_times(spans);
    for (id, (s, own)) in spans.iter().zip(own).enumerate() {
        let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let (parent, reported) = (or_null(s.parent.map(u64::from)), or_null(s.reported_ns));
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"self_ns\":{own},\"reported_ns\":{reported},\"parent\":{parent},\"op\":{}}}",
            s.name,
            s.label.replace(['"', '\\'], "'"),
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            label: String::new(),
            start_ns: start,
            end_ns: end,
            reported_ns: None,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            // Overlaps the first child by ten: only 40..60 is new cover.
            span(30, 60, Some(0)),
            span(35, 38, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 27, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn coverage_is_covered_share_of_the_named_roots() {
        let mut spans = vec![span(0, 100, None), span(0, 90, Some(0))];
        spans[0].name = "root";
        assert!((coverage(&spans, "root") - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_groups_by_op() {
        let t = Tracer::default();
        assert_eq!(t.begin("off", ""), None);
        t.set_enabled(true);
        t.next_op();
        t.span("outer", "x", || {
            t.span("inner", "", || {});
            let now = Instant::now();
            t.leaf("msg", now, now);
        });
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 1),
                ("inner", Some(0), 1),
                ("msg", Some(0), 1)
            ]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(by_name(&spans)["outer"].0, 1);
    }
}
