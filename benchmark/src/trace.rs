//! Benchmark-side span tracing.
//!
//! Spans are recorded from the benchmark's own call sites — around every call
//! it makes into a layer of the program — never from inside the program. Each
//! span keeps its name, start, end and parent; all spans of one benchmark
//! process share one trace id. Spans stay in memory until the process writes
//! them out at exit, and per-name self time (duration minus the part covered
//! by child spans) is computed from them afterwards.
//!
//! A disabled tracer records nothing: `span` costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    trace_id: u64,
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

/// RAII guard closing its span on drop.
pub struct Span<'t> {
    tracer: Option<&'t Tracer>,
    index: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let now = tracer.now_ns();
            tracer.spans.borrow_mut()[self.index].end_ns = now;
            let popped = tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.index), "spans close in LIFO order");
        }
    }
}

impl Tracer {
    pub fn new(trace_id: u64) -> Self {
        Self {
            trace_id,
            origin: Instant::now(),
            enabled: false,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.enabled {
            return Span { tracer: None, index: 0 };
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(SpanRecord { name, parent, start_ns: self.now_ns(), end_ns: 0 });
        self.open.borrow_mut().push(index);
        Span { tracer: Some(self), index }
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0f64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_s[parent] += span.secs();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_s) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += span.secs();
            entry.self_s += span.secs() - children;
        }
        totals
    }

    /// Total time of the direct children of every span named `parent`, by
    /// child name.
    pub fn child_totals(&self, parent: &str) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut totals = BTreeMap::new();
        for span in spans.iter() {
            if span.parent.is_some_and(|p| spans[p].name == parent) {
                *totals.entry(span.name).or_insert(0.0) += span.secs();
            }
        }
        totals
    }

    /// Writes every span as one tab-separated line:
    /// `trace_id index parent name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace_id\tindex\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.borrow().iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{:016x}\t{index}\t{parent}\t{}\t{}\t{}",
                self.trace_id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(1);
        tracer.set_enabled(true);
        {
            let _outer = tracer.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = tracer.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!(outer.total_s >= outer.self_s + inner.total_s - 1e-9);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert_eq!(tracer.child_totals("outer").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(1);
        drop(tracer.span("x"));
        assert!(tracer.totals().is_empty());
    }
}
