//! Spans the benchmark records around its calls into each layer. They are
//! kept in memory and written out when the run ends; the program under
//! test records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name, start, end (nanoseconds since the tracer's
/// origin), the span that caused it, and the trace (round or request
/// stream) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Spans open on this thread, innermost last: the parent of the next.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span store. Spans on one thread nest; a span opened on another
/// thread (the pipeline's engine thread) starts its own tree.
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    trace: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(0),
            trace: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start a new trace: later spans carry its id.
    pub fn begin_trace(&self) -> u32 {
        self.trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            trace: self.trace.load(Ordering::Relaxed),
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        result
    }

    /// The spans of trace `trace`, in completion order.
    pub fn spans_of(&self, trace: u32) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.trace == trace).copied().collect()
    }

    /// Write every span as TSV: id, parent, trace, name, start, end.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\ttrace\tname\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when tracing, bare otherwise.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-name totals of one trace.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Span durations, ascending.
    pub durations_ns: Vec<u64>,
    /// Duration minus the time covered by child spans, summed.
    pub self_ns: u64,
}

impl Layer {
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }

    pub fn max_ns(&self) -> u64 {
        self.durations_ns.last().copied().unwrap_or(0)
    }

    /// Median duration (upper median for even counts).
    pub fn p50_ns(&self) -> u64 {
        self.durations_ns
            .get(self.durations_ns.len() / 2)
            .copied()
            .unwrap_or(0)
    }
}

/// Aggregate spans by name. Children of one parent run one after another
/// on the parent's thread, so their durations sum to the covered time.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let layer = out.entry(s.name).or_default();
        layer.durations_ns.push(s.ns());
        layer.self_ns += s.ns() - child_ns.get(&s.id).copied().unwrap_or(0);
    }
    for layer in out.values_mut() {
        layer.durations_ns.sort_unstable();
    }
    out
}
