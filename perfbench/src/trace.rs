//! In-memory span recording for the traced run, and the accounting the
//! benchmark reports from it: self time per layer and the share of each
//! unit of work that layer spans cover.
//!
//! A span's layer is its name up to the first `.` (`nlp.annotate` belongs
//! to `nlp`). Root spans (no parent) are units of work or probes and
//! belong to the benchmark itself. Spans of one unit share a trace id.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's clock: every timing the benchmark takes reads it here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(no-wall-clock): measuring wall time is what the benchmark is for
}

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to; `bench` for root spans.
    pub fn layer(&self) -> &'static str {
        if self.parent.is_none() {
            return "bench";
        }
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    pub trace: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

/// Collects spans from any thread; they stay in memory until written out.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The tracer-relative time of an instant taken elsewhere.
    pub fn at_ns(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh id, usable as a span or trace id.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a root span, which opens a new trace.
    pub fn root(&self, name: &'static str) -> Open {
        let id = self.fresh_id();
        Open {
            id,
            trace: id,
            parent: None,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Starts a child of `parent`, in the parent's trace.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            id: self.fresh_id(),
            trace: parent.trace,
            parent: Some(parent.id),
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span now and keeps it.
    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.keep(vec![span.clone()]);
        span
    }

    /// Records a finished child of `parent` with explicit times, for
    /// spans timed by a worker that buffers its own spans.
    pub fn finished(&self, parent: &Open, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: self.fresh_id(),
            parent: Some(parent.id),
            trace: parent.trace,
            name,
            start_ns,
            end_ns,
        }
    }

    /// Keeps a batch of finished spans.
    pub fn keep(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker") // lint:allow(no-panic-in-lib): a worker that panicked already failed the run
            .extend(spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker") // lint:allow(no-panic-in-lib): a worker that panicked already failed the run
            .clone()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

fn children_of(spans: &[Span]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    children
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its children cover. Children running on parallel workers
/// may overlap each other; the union counts once. Summing self time over
/// worker threads can exceed wall time.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get(&span.id)
            .map_or(0, |c| union_ns(c.clone(), span.start_ns, span.end_ns));
        *by_layer.entry(span.layer()).or_default() += (span.duration_ns() - covered) as f64 * 1e-9;
    }
    by_layer
}

/// How much of the named root spans their direct children cover:
/// `(covered seconds, wall seconds)`, summed over those roots.
pub fn coverage(spans: &[Span], root_name: &str) -> (f64, f64) {
    let children = children_of(spans);
    let mut covered = 0u64;
    let mut wall = 0u64;
    for root in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root_name)
    {
        wall += root.duration_ns();
        covered += children
            .get(&root.id)
            .map_or(0, |c| union_ns(c.clone(), root.start_ns, root.end_ns));
    }
    (covered as f64 * 1e-9, wall as f64 * 1e-9)
}

/// The spans as JSON lines, one object per span, for the trace file.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.trace,
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        // A 100 ns unit whose two workers overlap (10..60 and 20..80) and
        // an encode (85..95): children cover 80 ns, leaving 20 ns of its own.
        let spans = vec![
            span(1, None, "mine", 0, 100),
            span(2, Some(1), "nlp.annotate", 10, 60),
            span(3, Some(1), "nlp.annotate", 20, 80),
            span(4, Some(1), "wire.encode", 85, 95),
        ];
        let layers = self_seconds_by_layer(&spans);
        assert!((layers["bench"] - 20e-9).abs() < 1e-15);
        assert!((layers["nlp"] - 110e-9).abs() < 1e-15);
        assert!((layers["wire"] - 10e-9).abs() < 1e-15);
        let (covered, wall) = coverage(&spans, "mine");
        assert!((covered - 80e-9).abs() < 1e-15);
        assert!((wall - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_links_children_to_their_root() {
        let tracer = Tracer::default();
        let root = tracer.root("update");
        let child = tracer.child(&root, "core.apply_delta");
        let child = tracer.close(child);
        let root = tracer.close(root);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.layer(), "core");
        assert_eq!(root.layer(), "bench");
        assert_eq!(tracer.spans().len(), 2);
        assert!(to_json_lines(&tracer.spans()).contains("\"layer\":\"core\""));
    }
}
