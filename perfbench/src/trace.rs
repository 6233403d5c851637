//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`. Every op gets a root span
//! named `op`; each call into a layer made while the op runs becomes a child
//! span named after the layer. Spans stay in memory until the run ends,
//! when [`Tracer::write_jsonl`] writes them out and [`Tracer::self_times`]
//! derives each layer's self time (duration minus the part covered by its
//! children).
//!
//! Work counters are recorded at the same boundaries: [`Tracer::count`]
//! adds to a named total and [`Tracer::max`] keeps a named maximum.
//!
//! A disabled tracer records nothing and takes no clock readings, so the
//! untraced end-to-end runs pay only a branch per layer call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one caller thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            maxima: BTreeMap::new(),
        }
    }

    /// A tracer sharing `self`'s time origin (for another caller thread).
    pub fn sibling(&self) -> Tracer {
        Tracer { epoch: self.epoch, ..Tracer::new(self.enabled) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` as op `op` (a root `op` span when tracing).
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.op = op;
        let id = self.begin("op");
        let r = f(self);
        self.end(id);
        r
    }

    /// Runs `f` as one call into `layer`.
    pub fn layer<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin(layer);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the maximum `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let m = self.maxima.entry(name).or_insert(v);
            *m = m.max(v);
        }
    }

    /// A counter's total (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// A maximum (0 when never recorded).
    pub fn maximum(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another thread's spans and counters into this tracer (parents
    /// re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.maxima {
            let m = self.maxima.entry(k).or_insert(v);
            *m = m.max(v);
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Total duration per span name, in nanoseconds.
    pub fn busy_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.op(7, |t| {
            t.layer("lang", || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.layer("sim", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let busy = t.busy_times();
        let own = t.self_times();
        assert!(busy["op"] >= busy["lang"] + busy["sim"]);
        assert_eq!(own["op"], busy["op"] - busy["lang"] - busy["sim"]);
        assert_eq!(own["lang"], busy["lang"]);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.op(1, |t| t.layer("lang", || 41 + 1));
        t.count("lang.calls", 1.0);
        t.max("runtime.max_occupancy", 3.0);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.counted("lang.calls"), 0.0);
        assert_eq!(t.maximum("runtime.max_occupancy"), 0.0);
    }

    #[test]
    fn counters_sum_and_maxima_merge() {
        let mut a = Tracer::new(true);
        a.count("sim.reactions", 2.0);
        a.max("runtime.max_occupancy", 3.0);
        let mut b = a.sibling();
        b.count("sim.reactions", 5.0);
        b.max("runtime.max_occupancy", 1.0);
        a.absorb(b);
        assert_eq!(a.counted("sim.reactions"), 7.0);
        assert_eq!(a.maximum("runtime.max_occupancy"), 3.0);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let mut a = Tracer::new(true);
        a.op(1, |t| t.layer("wire", || ()));
        let mut b = a.sibling();
        b.op(2, |t| t.layer("wire", || ()));
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
    }
}
