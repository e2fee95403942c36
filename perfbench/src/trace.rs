//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name (`layer.call`), a start, an end, its parent span and
//! a request id (0 unless the span belongs to one remote query). Spans
//! stay in memory while the benchmark runs and are written out once, at
//! exit. A layer's self time is its spans' durations minus the part of
//! each interval that child spans cover; request spans (request id ≠ 0)
//! overlap the pumps that serve them, so they are reported but never
//! subtracted as children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span handle: an index into the tracer's span list.
pub type SpanId = u32;

/// The root every phase span hangs from.
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the run clock started.
    pub start: u64,
    /// End, same clock.
    pub end: u64,
    /// Enclosing span, or [`ROOT`].
    pub parent: SpanId,
    /// Remote query request id, 0 for everything else.
    pub req: u64,
}

/// The run clock plus the span list. With tracing off, [`start`]
/// returns 0 without reading the clock and [`end`] records nothing.
///
/// [`start`]: Tracer::start
/// [`end`]: Tracer::end
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(on: bool) -> Self {
        Self { epoch: Instant::now(), on, spans: Vec::new() }
    }

    /// Nanoseconds on the run clock.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Marks the start of a span (0 when off).
    #[inline]
    pub fn start(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    /// Records a span that started at `start` and ends now.
    #[inline]
    pub fn end(&mut self, name: &'static str, start: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let end = self.now();
        self.record(Span { name, start, end, parent, req: 0 })
    }

    /// Records a finished span as given.
    pub fn record(&mut self, span: Span) -> SpanId {
        if !self.on {
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a phase span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start = self.start();
        self.record(Span { name, start, end: start, parent, req: 0 })
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end = now;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`id,parent,name,req,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id,parent,name,req,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{i},{parent},{},{},{},{}", s.name, s.req, s.start, s.end)?;
        }
        Ok(())
    }
}

/// Self time per span name: duration minus the union of its child
/// spans' intervals (request spans excluded from the children).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT && s.req == 0 {
            if let Some(c) = children.get_mut(s.parent as usize) {
                c.push((s.start, s.end));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = union_len(kids, s.start, s.end);
        *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The layer a span name belongs to: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId, req: u64) -> Span {
        Span { name, start, end, parent, req }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("run.phase", 0, 100, ROOT, 0),
            span("net.a", 10, 30, 0, 0),
            span("net.b", 20, 40, 0, 0),     // overlaps a: union 10..40
            span("query.req", 0, 100, 0, 7), // a request span: not a child
            span("ingest.c", 90, 120, 0, 0), // clipped to the parent
        ];
        let st = self_time_by_name(&spans);
        assert_eq!(st["run.phase"], 100 - 30 - 10);
        assert_eq!(st["net.a"], 20);
        assert_eq!(st["net.b"], 20);
        assert_eq!(st["query.req"], 100);
        assert_eq!(layer_of("net.collector"), "net");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.start();
        assert_eq!(s, 0);
        assert_eq!(t.end("x.y", s, ROOT), ROOT);
        assert!(t.spans().is_empty());
    }
}
