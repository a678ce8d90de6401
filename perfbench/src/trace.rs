//! In-memory spans recorded around calls into the program's layers.
//!
//! The benchmark never instruments the program itself: it wraps the
//! public seams the engine calls through — the [`Scheduler`] behind
//! `control::Centralized` and the [`TelemetrySink`] around the daemon's
//! `MetricsSink` — and times its own calls into `Engine`, the protocol
//! functions and the `Client`. Spans stay in memory until the run ends
//! and are then written out as one tab-separated line each.

use gurita_model::{CoflowId, JobId};
use gurita_sim::sched::{Assignment, Observation, Oracle, QueuePolicy, Scheduler};
use gurita_sim::telemetry::{EpochSample, TelemetrySink, TraceRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.step`.
    pub name: &'static str,
    /// Start, in ns since the tracer origin.
    pub start: u64,
    /// End, in ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records properly nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Last epoch sample seen by a [`TimedSink`].
    pub last_epoch: Option<EpochSample>,
    /// Coflows presented to `assign`, summed over calls.
    pub assign_coflows: u64,
    /// `queue_policy` calls so far; the runtime makes one per rate
    /// recomputation.
    pub policy_calls: u64,
}

/// The tracer shared between the benchmark loop and the wrappers the
/// engine calls into. The engine runs on one thread (`threads = 1`).
pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Self {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            last_epoch: None,
            assign_coflows: 0,
            policy_calls: 0,
        }))
    }

    /// Starts a new repetition: later spans carry run id `run`, and the
    /// per-run counters reset.
    pub fn begin_run(&mut self, run: u32) {
        assert!(self.stack.is_empty(), "run started inside an open span");
        self.run = run;
        self.last_epoch = None;
        self.assign_coflows = 0;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end = self.now();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as `run id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(tracer: &Shared, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit(id);
    out
}

/// Runs `f` inside a span named `name` when there is a tracer.
pub fn maybe<T>(tracer: Option<&Shared>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => timed(t, name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-name totals over the spans of one run.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub busy: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Totals per span name for run `run`.
pub fn totals(spans: &[Span], selfs: &[u64], run: u32) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        if s.run != run {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy += s.dur();
        t.self_ns += own;
    }
    out
}

/// Summed duration of the spans of run `run` whose parent is named
/// `parent` and whose own name starts with `prefix`.
pub fn child_time(spans: &[Span], run: u32, parent: &str, prefix: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.run == run && s.name.starts_with(prefix))
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::dur)
        .sum()
}

/// Wraps the flagship scheduler so every `assign` and `queue_policy`
/// call is a `core.*` span. Placed inside `control::Centralized`, it is
/// exactly the scheduler the centralized plane would call.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Shared,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Scheduler>, tracer: Shared) -> Self {
        Self { inner, tracer }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }
    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment {
        self.tracer.borrow_mut().assign_coflows += obs.coflows.len() as u64;
        let inner = &mut self.inner;
        timed(&self.tracer, "core.assign", || inner.assign(obs, oracle))
    }
    fn reprioritizes_live_flows(&self) -> bool {
        self.inner.reprioritizes_live_flows()
    }
    fn queue_policy(&mut self, obs: &Observation) -> QueuePolicy {
        self.tracer.borrow_mut().policy_calls += 1;
        let inner = &mut self.inner;
        timed(&self.tracer, "core.queue_policy", || {
            inner.queue_policy(obs)
        })
    }
    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        self.inner.on_coflow_completed(coflow, job, now);
    }
    fn on_job_completed(&mut self, job: JobId, now: f64) {
        self.inner.on_job_completed(job, now);
    }
}

/// Wraps a telemetry sink so every `record` call is a
/// `telemetry.record` span, and keeps the last epoch sample for the
/// `bandwidth.*` counters.
pub struct TimedSink<S: TelemetrySink> {
    inner: S,
    tracer: Shared,
}

impl<S: TelemetrySink> TimedSink<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Shared) -> Self {
        Self { inner, tracer }
    }
}

impl<S: TelemetrySink> std::fmt::Debug for TimedSink<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedSink")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn record(&mut self, rec: &TraceRecord) {
        let inner = &mut self.inner;
        timed(&self.tracer, "telemetry.record", || inner.record(rec));
        if let TraceRecord::Epoch(sample) = rec {
            self.tracer.borrow_mut().last_epoch = Some(sample.clone());
        }
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
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
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("runtime.step", 0, 100, None),
            span("core.assign", 10, 30, Some(0)),
            span("telemetry.record", 40, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![75, 20, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("c", 30, 70, Some(0)),
            span("d", 60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("runtime.step", 0, 100, None),
            span("core.assign", 10, 60, Some(0)),
            span("telemetry.record", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn step_self_plus_child_time_equals_busy() {
        let spans = vec![
            span("runtime.step", 0, 100, None),
            span("core.assign", 10, 30, Some(0)),
            span("telemetry.record", 40, 45, Some(0)),
            span("runtime.step", 100, 150, None),
            span("core.queue_policy", 120, 121, Some(3)),
        ];
        let selfs = self_times(&spans);
        let t = totals(&spans, &selfs, 0);
        let step = &t["runtime.step"];
        let core = child_time(&spans, 0, "runtime.step", "core.");
        let tele = child_time(&spans, 0, "runtime.step", "telemetry.");
        assert_eq!((step.busy, step.self_ns, core, tele), (150, 124, 21, 5));
        assert_eq!(step.self_ns + core + tele, step.busy);
    }

    #[test]
    fn tracer_nests_spans_and_tags_runs() {
        let tr = Tracer::shared();
        tr.borrow_mut().begin_run(3);
        let outer = tr.borrow_mut().enter("runtime.step");
        timed(&tr, "core.assign", || ());
        tr.borrow_mut().exit(outer);
        let t = tr.borrow();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|x| x.run == 3 && x.start <= x.end));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
