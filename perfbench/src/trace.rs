//! Spans recorded by the benchmark around each public call it makes.
//!
//! Every operation is a root `op` span carrying its id and class; the
//! calls it makes into the engine or client are child spans. Untraced,
//! only the root's wall time is taken (that is the latency the
//! end-to-end metrics report). Traced, spans stay in memory and are
//! written out when the run ends; self times are derived from them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the recording tracer's spans.
#[derive(Debug, Clone)]
pub struct Span {
    pub thread: u8,
    pub op: u64,
    pub class: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    thread: u8,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
    /// Time spent on tracing itself: span pushes and counter snapshots.
    overhead_ns: u64,
}

impl Tracer {
    pub fn new(on: bool, thread: u8, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            overhead_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one operation as a root span; returns its result, its id and
    /// its wall time in milliseconds.
    pub fn op<R>(
        &mut self,
        class: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64, f64) {
        let id = self.next_op;
        self.next_op += 1;
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, id, t.elapsed().as_secs_f64() * 1e3);
        }
        let idx = self.push(id, class, "op");
        let r = f(self);
        let ms = self.pop(idx) as f64 / 1e6;
        (r, id, ms)
    }

    /// Run `f` as a child of the innermost open span (a no-op wrapper
    /// when tracing is off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let parent = *self.open.last().expect("child spans run inside an op");
        let (op, class) = (self.spans[parent].op, self.spans[parent].class);
        let idx = self.push(op, class, name);
        let r = f(self);
        self.pop(idx);
        r
    }

    /// Duration of the most recently closed span called `name` (0 when
    /// tracing is off).
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, Span::dur_ns)
    }

    /// Run tracing-only work (counter snapshots) and charge its time to
    /// the tracing overhead. Returns `None` when tracing is off.
    pub fn bookkeeping<R>(&mut self, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        let r = f();
        self.overhead_ns += t.elapsed().as_nanos() as u64;
        Some(r)
    }

    fn push(&mut self, op: u64, class: &'static str, name: &'static str) -> usize {
        let t = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            thread: self.thread,
            op,
            class,
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.overhead_ns += t.elapsed().as_nanos() as u64;
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Close span `idx`; returns its duration in nanoseconds.
    fn pop(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let t = Instant::now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in stack order");
        self.spans[idx].end_ns = end;
        self.overhead_ns += t.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns()
    }

    /// Hand the recorded spans and overhead to the run's trace.
    pub fn finish(self, into: &mut Trace) {
        let base = into.spans.len();
        into.spans.extend(self.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        into.overhead_ns += self.overhead_ns;
    }
}

/// All spans of a run, merged across threads.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub overhead_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span run one after another).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name over all classes.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        self.totals(None)
    }

    /// Totals per span name over the operations of one class.
    pub fn by_name_in(&self, class: &str) -> BTreeMap<&'static str, NameTotals> {
        self.totals(Some(class))
    }

    fn totals(&self, class: Option<&str>) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            if class.is_some_and(|c| c != s.class) {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        out
    }

    pub fn ops(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).count() as u64
    }

    /// Sum of all self times against the sum of root (`op`) durations:
    /// the share of operation wall time the spans account for.
    pub fn accounted(&self) -> (u64, u64) {
        let selfs: u64 = self.self_times().iter().sum();
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        (selfs, roots)
    }

    /// Stderr table: per span name, count, mean total and mean self time.
    pub fn describe(&self) -> String {
        let (selfs, roots) = self.accounted();
        let mut s = format!(
            "  spans {}  ops {}  self times account for {:.3}% of op wall time\n",
            self.spans.len(),
            self.ops(),
            100.0 * selfs as f64 / roots.max(1) as f64
        );
        for (name, t) in self.by_name() {
            s.push_str(&format!(
                "  span {name:<18} n {:>7}  mean {:>9.3} ms  self {:>9.3} ms  self share {:>6.2}%\n",
                t.count,
                t.total_ns as f64 / t.count as f64 / 1e6,
                t.self_ns as f64 / t.count as f64 / 1e6,
                100.0 * t.self_ns as f64 / roots.max(1) as f64,
            ));
        }
        s
    }

    /// Write one JSON object per span (with its derived self time).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"parent\": {parent}, \"thread\": {}, \"op\": {}, \"class\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.thread, s.op, s.class, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_account_for_op_wall_time() {
        let mut tr = Tracer::new(true, 0, Instant::now());
        let (v, id, _) = tr.op("c", |tr| {
            tr.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", |tr| tr.span("b.inner", |_| 7))
        });
        assert_eq!((v, id), (7, 0));
        let mut trace = Trace::default();
        tr.finish(&mut trace);
        let (selfs, roots) = trace.accounted();
        assert_eq!(selfs, roots);
        let names = trace.by_name();
        assert_eq!(names["op"].count, 1);
        assert!(names["a"].self_ns >= 2_000_000);
        assert_eq!(trace.spans[3].parent, Some(2));
    }

    #[test]
    fn untraced_ops_still_time() {
        let mut tr = Tracer::new(false, 0, Instant::now());
        let (_, _, ms) = tr.op("c", |tr| {
            tr.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            })
        });
        assert!(ms >= 1.0);
        assert!(tr.bookkeeping(|| 1).is_none());
        let mut trace = Trace::default();
        tr.finish(&mut trace);
        assert!(trace.spans.is_empty());
    }
}
