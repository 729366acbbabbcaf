//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it and the
//! request it belongs to. Each thread owns one [`Tracer`]; spans stay in
//! memory and are written out once the run has ended. With tracing off the
//! workloads pass `None` and no span is recorded.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span, returned by [`enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    pub thread: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(thread: &'static str, origin: Instant) -> Tracer {
        Tracer {
            thread,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: spans opened from here on share its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the origin to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Open a span named `name` on `tracer`, if tracing is on.
pub fn enter(tracer: &mut Option<Tracer>, name: &'static str) -> Open {
    Open(tracer.as_mut().map(|t| t.open(name)))
}

/// Close a span opened by [`enter`].
pub fn exit(tracer: &mut Option<Tracer>, open: Open) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), open.0) {
        t.close(id);
    }
}

/// Run `f` inside a span named `name`.
pub fn span<R>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = enter(tracer, name);
    let out = f();
    exit(tracer, open);
    out
}

/// Start a new request on `tracer`, if tracing is on.
pub fn next_request(tracer: &mut Option<Tracer>) {
    if let Some(t) = tracer.as_mut() {
        t.next_request();
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Time within `[lo, hi]` that no top-level span covers.
pub fn unattributed(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let top = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end));
    (hi - lo) - covered(top, lo, hi)
}

/// Self times grouped by span name, in nanoseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

/// Write every span of every tracer as one JSON object per line.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        let selfs = self_times(&t.spans);
        for (s, self_ns) in t.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                t.thread, s.id, s.request, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered([(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered([(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered([(10, 20), (0, 5)], 0, 100), 15);
        assert_eq!(covered(Vec::new(), 0, 100), 0);
        // Touching intervals do not double count their shared point.
        assert_eq!(covered([(0, 10), (10, 20)], 0, 100), 20);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ c [50,60].
        let spans = vec![
            mk(0, None, "root", 0, 100),
            mk(1, Some(0), "a", 10, 40),
            mk(2, Some(1), "b", 20, 30),
            mk(3, Some(0), "c", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of one thread's spans add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children overlap on [30,40] and the second runs past the
        // parent's end: the parent is covered on [20,50] only.
        let spans = vec![
            mk(0, None, "root", 0, 50),
            mk(1, Some(0), "x", 20, 40),
            mk(2, Some(0), "y", 30, 70),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn unattributed_is_the_window_minus_top_level_spans() {
        let spans = vec![
            mk(0, None, "a", 10, 20),
            mk(1, Some(0), "b", 12, 18),
            mk(2, None, "c", 30, 45),
        ];
        assert_eq!(unattributed(&spans, 0, 50), 25);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut tracer = Some(Tracer::new("test", Instant::now()));
        let outer = enter(&mut tracer, "outer");
        let value = super::span(&mut tracer, "inner", || 7);
        exit(&mut tracer, outer);
        assert_eq!(value, 7);
        let spans = tracer.expect("tracing on").spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off: Option<Tracer> = None;
        assert_eq!(super::span(&mut off, "inner", || 3), 3);
    }
}
