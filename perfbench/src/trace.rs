//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code around calls into each library layer; the
//! library itself is never instrumented.
//!
//! A span's parent is the innermost span open on the recording thread,
//! or — on a thread the library spawned (a fork/join worker) — the
//! innermost span the calling thread opened with [`Tracer::enter`].

use crate::clock::now_ns;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One closed span. Ids start at 1; parent 0 is the root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request the span worked for, when one request owns it.
    pub request: Option<u64>,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
}

static THREADS: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    static THREAD: u32 = THREADS.fetch_add(1, Ordering::Relaxed);
}

/// This thread's number in span records.
pub fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// Collects spans from every thread of the process.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// Innermost span the calling thread holds open with `enter`.
    ambient: AtomicU32,
}

/// An open span; records itself when dropped.
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    request: Option<u64>,
    prev_current: u32,
    prev_ambient: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn open(&self, name: &'static str, request: Option<u64>, shared: bool) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let local = CURRENT.with(Cell::get);
        let parent = if local != 0 {
            local
        } else {
            self.ambient.load(Ordering::Relaxed)
        };
        CURRENT.with(|c| c.set(id));
        let prev_ambient = shared.then(|| self.ambient.swap(id, Ordering::Relaxed));
        Open {
            tracer: self,
            id,
            parent,
            name,
            start_ns: now_ns(),
            request,
            prev_current: local,
            prev_ambient,
        }
    }

    /// Opens a span on the current thread.
    pub fn span(&self, name: &'static str, request: Option<u64>) -> Open<'_> {
        self.open(name, request, false)
    }

    /// Opens a span on the calling thread that also parents spans
    /// recorded meanwhile on worker threads the library spawns.
    pub fn enter(&self, name: &'static str, request: Option<u64>) -> Open<'_> {
        self.open(name, request, true)
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned")
            .clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"request\":{request}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(self.prev_current));
        if let Some(prev) = self.prev_ambient {
            self.tracer.ambient.store(prev, Ordering::Relaxed);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
            thread: thread_index(),
        };
        // A poisoned lock only means another thread panicked mid-push;
        // the run is failing anyway, so drop the span instead of
        // panicking inside a destructor.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name totals derived from a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its
/// duration minus the part of its interval its children cover; children
/// on parallel threads overlap, so their union is subtracted.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Prints total and self time per span name.
pub fn print_totals(spans: &[Span]) {
    println!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, t) in totals_by_name(spans) {
        println!(
            "{name:<24} {:>9} {:>12.6} {:>12.6}",
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        );
    }
}

/// Writes the spans to `perfbench/out/trace-<workload>.jsonl` under the
/// working directory. A failed write is reported, not fatal: the spans
/// have already been reduced to metrics.
pub fn write_out(tracer: &Tracer, workload: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

/// Fork/join worker time, seen through the `name` spans the workers
/// record.
#[derive(Debug, Clone, Copy)]
pub struct ForkJoin {
    /// Summed worker busy time.
    pub busy_ns: u64,
    /// `workers × region wall − busy`, over `workers × region wall`.
    pub idle_frac: f64,
}

/// Measures [`ForkJoin`] time. A span on the `main` thread ran inline,
/// so it is a region of its own with one worker busy. Spans on any
/// other thread belong to a fork: each worker thread is active from its
/// first span's start to its last span's end, and threads whose
/// activity overlaps form one region (forks spawn fresh scoped threads,
/// so a thread never spans two regions).
pub fn fork_join(spans: &[Span], name: &str, main: u32, workers: u64) -> ForkJoin {
    let (mut capacity, mut busy) = (0u64, 0u64);
    let mut per_thread: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if s.thread == main {
            let d = s.end_ns.saturating_sub(s.start_ns);
            capacity += workers * d;
            busy += d;
        } else {
            let a = per_thread.entry(s.thread).or_insert((s.start_ns, s.end_ns));
            a.0 = a.0.min(s.start_ns);
            a.1 = a.1.max(s.end_ns);
        }
    }
    let mut active: Vec<(u64, u64)> = per_thread.into_values().collect();
    active.sort_unstable();
    let mut i = 0;
    while i < active.len() {
        let (lo, mut hi) = active[i];
        let mut j = i;
        while j < active.len() && (j == i || active[j].0 < hi) {
            hi = hi.max(active[j].1);
            busy += active[j].1 - active[j].0;
            j += 1;
        }
        capacity += workers * (hi - lo);
        i = j;
    }
    ForkJoin {
        busy_ns: busy,
        idle_frac: if capacity == 0 {
            0.0
        } else {
            1.0 - busy as f64 / capacity as f64
        },
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two children overlap on [20, 30); together they cover [10, 40).
        let spans = [
            span(1, 0, 0, 0, 100),
            span(2, 1, 0, 10, 30),
            span(3, 1, 1, 20, 40),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["outer"].total_ns, 100);
        assert_eq!(totals["outer"].self_ns, 70);
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["inner"].self_ns, 40);
    }

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns,
            end_ns,
            request: None,
            thread,
        }
    }

    #[test]
    fn idle_share_counts_inline_regions_and_fork_imbalance() {
        // Inline on the main thread (0) for 10 ns: one of two workers
        // idle. Then a fork of threads 1 and 2 over [20, 40): thread 2
        // works only [20, 30).
        let spans = [
            span(1, 9, 0, 0, 10),
            span(2, 9, 1, 20, 30),
            span(3, 9, 1, 30, 40),
            span(4, 9, 2, 20, 30),
        ];
        let fj = fork_join(&spans, "inner", 0, 2);
        // Capacity 2·10 + 2·20 = 60; busy 10 + 20 + 10 = 40.
        assert_eq!(fj.busy_ns, 40);
        assert!((fj.idle_frac - 20.0 / 60.0).abs() < 1e-12, "{fj:?}");
    }

    #[test]
    fn worker_thread_spans_attach_to_the_entered_span() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.enter("outer", Some(7));
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.span("worker", None)));
            });
            drop(tracer.span("local", None));
        }
        let spans = tracer.spans();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.request, Some(7));
        for name in ["worker", "local"] {
            let s = spans.iter().find(|s| s.name == name).expect("child span");
            assert_eq!(s.parent, outer.id, "{name}");
        }
    }
}
