//! In-memory spans for the traced run.
//!
//! A span is a timed call into one layer, made from the benchmark's own
//! code: name, start, end, the span that caused it, and the request it
//! belongs to. Spans sit in a buffer sized up front and are written out
//! once the run is over. A *replay* span times a call made again, after
//! the fact, on the same input (the dependence-graph build inside the
//! scheduler, or the server's side of a round trip); it names the span
//! it stands inside but lies outside that span's interval, so it never
//! counts toward the parent's coverage.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer, allocated up front; callers stop tracing
/// requests before it would have to grow.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer of `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer { epoch, spans: Vec::with_capacity(capacity) }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32, request: u64) -> u32 {
        self.push(Span { name, start_ns, end_ns, parent, request, replay: false })
    }

    pub fn record_replay(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32, request: u64) -> u32 {
        self.push(Span { name, start_ns, end_ns, parent, request, replay: true })
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn push(&mut self, span: Span) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span ids fit u32");
        self.spans.push(span);
        id
    }
}

/// Concatenates span buffers, shifting each buffer's parent ids past
/// the spans before it.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for buffer in buffers {
        let offset = u32::try_from(out.len()).expect("span ids fit u32");
        out.extend(buffer.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its (non-replay) children cover. Children are clipped to the
/// parent's interval and overlapping children are counted once, so a
/// self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans.iter().filter(|s| s.parent != NO_PARENT && !s.replay) {
        children[span.parent as usize].push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` within `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.clamp(reach, end);
        let e = e.clamp(s, end);
        total += e - s;
        reach = reach.max(e);
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
    pub duration_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.duration_ns += span.duration_ns();
    }
    out
}

/// Writes spans as tab-separated lines: id, parent (-1 for a root),
/// request, name, start and end in ns from the run's epoch, and 1 for a
/// replay.
pub fn write_tsv(w: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns\treplay")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        writeln!(w, "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}", s.request, s.name, s.start_ns, s.end_ns, u8::from(s.replay))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0, replay: false }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span("root", 0, 100, NO_PARENT), span("a", 10, 30, 0), span("b", 40, 45, 0)];
        assert_eq!(self_times(&spans), vec![75, 20, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [span("root", 0, 100, NO_PARENT), span("a", 10, 50, 0), span("b", 30, 60, 0)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn remainder_is_never_negative() {
        // A child reaching outside its parent (clock skew across
        // threads, a mis-nested record) is clipped to the parent.
        let spans = [span("root", 10, 20, NO_PARENT), span("a", 0, 30, 0), span("b", 12, 25, 0)];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = [span("root", 10, 20, NO_PARENT), span("a", 25, 40, 0)];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn replay_children_do_not_cover_their_parent() {
        let mut spans = vec![span("root", 0, 100, NO_PARENT), span("sched", 10, 60, 0)];
        spans.push(Span { replay: true, ..span("deps", 10, 40, 1) });
        assert_eq!(self_times(&spans), vec![50, 50, 30]);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = [
            span("root", 0, 1000, NO_PARENT),
            span("a", 100, 400, 0),
            span("a.x", 150, 200, 1),
            span("a.y", 250, 390, 1),
            span("b", 500, 990, 0),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["a"], NameTotals { count: 1, self_ns: 110, duration_ns: 300 });
    }

    #[test]
    fn merge_shifts_parents_past_earlier_buffers() {
        let epoch = Instant::now();
        let mut first = Tracer::new(epoch, 4);
        let root = first.record("r", 0, 5, NO_PARENT, 1);
        first.record("c", 1, 2, root, 1);
        let mut second = Tracer::new(epoch, 4);
        let root = second.record("r", 0, 5, NO_PARENT, 2);
        second.record("c", 1, 2, root, 2);
        let merged = merge(vec![first.into_spans(), second.into_spans()]);
        assert_eq!(merged.iter().map(|s| s.parent).collect::<Vec<_>>(), vec![NO_PARENT, 0, NO_PARENT, 2]);
    }
}
