//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded around each call into a layer of the workspace, from
//! the benchmark's side of the call. Each span holds its name, start and
//! end (ns since the tracer's epoch), its parent span and the op it belongs
//! to. Spans and counters stay in memory while the workload runs and are
//! written out once, at exit. With tracing off every call is a plain call:
//! no clock read, no allocation, no lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::cpu_ms;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The name of every op's root span. Its self time is the benchmark's own
/// glue between layer calls.
pub const ROOT: &str = "op";

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans and per-op counters while enabled.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<(u64, &'static str, f64)>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs one op under a root span and returns its result with its
    /// latency in ms: the process CPU time the op took ([`cpu_ms`]), with
    /// one op in flight. It is measured whether or not tracing is on; spans
    /// keep wall-clock time.
    pub fn op<T>(&self, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = cpu_ms();
        let value = self.layer(ROOT, op, f);
        (value, cpu_ms() - start)
    }

    /// Runs `f` as one call into the layer `name`.
    pub fn layer<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span { id, parent, op, name, start_ns: start, end_ns: end };
        self.spans.lock().expect("span buffer poisoned by a panicking op").push(span);
        value
    }

    /// Records a per-op count read at a layer boundary.
    pub fn count(&self, op: u64, name: &'static str, value: impl Into<f64>) {
        if self.enabled() {
            let mut counters = self.counters.lock().expect("counter buffer poisoned");
            counters.push((op, name, value.into()));
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Per-op totals of each counter, keyed by counter name.
    pub fn counts_by_op(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for &(op, name, value) in self.counters.lock().expect("counter buffer poisoned").iter() {
            *out.entry(name).or_default().entry(op).or_default() += value;
        }
        out
    }

    /// Writes every span and counter as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":"{}","id":{},"parent":{},"op":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        for (name, by_op) in self.counts_by_op() {
            for (op, value) in by_op {
                writeln!(out, r#"{{"counter":"{name}","op":{op},"value":{value}}}"#)?;
            }
        }
        out.flush()
    }
}

/// Self time of each layer per op: a span's duration minus the part its
/// child spans cover, summed over the op's spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let ms = own as f64 / 1e6;
        *out.entry(s.name).or_default().entry(s.op).or_default() += ms;
    }
    out
}

/// Total duration of each op's root span, in ms.
pub fn op_totals(spans: &[Span]) -> BTreeMap<u64, f64> {
    spans
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| (s.op, (s.end_ns - s.start_ns) as f64 / 1e6))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.op(7, || {
            tr.layer("outer", 7, || {
                tr.layer("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == ROOT).unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, Some(root.id));
        assert_eq!(inner.parent, Some(outer.id));
        let own = self_times(&spans);
        assert!(own["inner"][&7] >= 2.0);
        assert!(own["outer"][&7] < own["inner"][&7]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        let (v, _) = tr.op(1, || tr.layer("x", 1, || 5));
        tr.count(1, "c", 3.0);
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
        assert!(tr.counts_by_op().is_empty());
    }
}
