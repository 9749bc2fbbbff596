//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (one operation = one job or one query, its spans share the operation
//! id). Spans are kept in memory and written out when the run ends;
//! with tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(None);
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.0,
            op,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end = self.now();
            self.lock()[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        r
    }

    /// Records an interval measured elsewhere (the benchmark's own client
    /// timestamps) as a closed span.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        from: Instant,
        to: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start: at(from),
            end: at(to),
            parent: parent.0,
            op,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per span name over the spans `keep` selects: each span's
/// duration minus the part of its interval that its children cover
/// (overlapping children count once).
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        if !keep(s) {
            continue;
        }
        let own = s.end.saturating_sub(s.start);
        let covered = covered_within(kids, s.start, s.end);
        *out.entry(s.name).or_default() += own - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The spans as JSON lines, for writing out at the end of the run.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start, s.end, s.op
        );
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            // Overlapping children cover [10, 50] once; the third is
            // clipped to its parent's end.
            span("core.fst", 10, 30, Some(0)),
            span("core.fst", 20, 50, Some(0)),
            span("miner", 90, 120, Some(0)),
            // A grandchild only reduces its own parent's self time.
            span("core.pexp", 12, 18, Some(1)),
        ];
        let t = self_times(&spans, |_| true);
        assert_eq!(t["op"], 100 - 40 - 10);
        assert_eq!(t["core.fst"], (20 - 6) + 30);
        assert_eq!(t["miner"], 30);
        assert_eq!(t["core.pexp"], 6);
        // Filtering selects spans but keeps their children's coverage.
        let only_op = self_times(&spans, |s| s.name == "op");
        assert_eq!(only_op.into_iter().collect::<Vec<_>>(), vec![("op", 50)]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let root = tracer.open("op", SpanId::ROOT, 1);
        assert_eq!(tracer.span("core.pexp", root, 1, || 7), 7);
        tracer.close(root);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        let root = tracer.open("op", SpanId::ROOT, 1);
        tracer.span("core.pexp", root, 1, || ());
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
