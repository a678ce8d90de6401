//! Zero-overhead instrumentation: lifecycle tracing, epoch-sampled time
//! series, and a Chrome `trace_event` (Perfetto-loadable) exporter.
//!
//! The engine owns a `Probe` (crate-private) that forwards structured
//! [`TraceRecord`]s to a caller-supplied [`TelemetrySink`]. Telemetry is
//! **observational only**: probes read engine state, never schedule
//! events, and never touch any value that feeds a scheduling decision —
//! a run with a sink attached produces a [`crate::stats::RunResult`]
//! bit-for-bit identical to the same run without one (property-tested in
//! `tests/tests/telemetry.rs`).
//!
//! Telemetry is armed only when **both** hold:
//!
//! 1. [`crate::runtime::SimConfig::telemetry`] is `Some(TelemetryConfig)`;
//! 2. a sink is handed to the run (the `sink` argument of
//!    [`crate::runtime::Simulation::try_run`], or
//!    [`crate::runtime::Engine::online_traced`]).
//!
//! Otherwise every probe call site reduces to one branch on a `None`
//! option — no allocation, no sampling, no per-flow work — so the
//! default configuration pays nothing for the layer's existence. Armed,
//! the layer costs about 200–300 ns per record: perfbench's
//! `telemetry.overhead_frac` puts it at 0.06 of run time on its fig7
//! workload and 0.27 on fig6 (medians of seeds 1–3 on a 2-vCPU host),
//! an upper bound that includes perfbench's own spans.
//!
//! The starvation watch (contiguous zero-rate time per active coflow) is
//! deliberately *not* part of this module's on/off switch: it feeds
//! [`crate::stats::CoflowResult::starved_total`] and must be identical
//! whether or not a sink is attached, so the engine maintains it
//! unconditionally (two comparisons per rate write).

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Telemetry knobs, carried in [`crate::runtime::SimConfig::telemetry`].
///
/// `SimConfig::telemetry = None` (the default) disables the layer
/// entirely; `Some(TelemetryConfig::default())` enables it with epoch
/// samples at the scheduler tick interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Seconds between [`EpochSample`]s. `0.0` (the default) samples at
    /// the run's `tick_interval`. Sampling piggybacks on processed
    /// events — it never schedules events of its own — so on an idle
    /// stretch the next sample lands with the next event.
    pub sample_interval: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_interval: 0.0,
        }
    }
}

/// One structured telemetry record, emitted in simulation-time order.
///
/// Serialized as an externally tagged JSON object (one line per record
/// in [`JsonlSink`]): `{"FlowStart":{"t":0.5,...}}`. Every payload
/// carries the simulation time `t` as its first field. Identifiers are
/// raw indices (`FlowId::index()` etc.) so downstream tooling needs no
/// knowledge of the model crate's newtypes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A flow opened (its coflow activated). `parked` flags flows born
    /// during an outage with no live path.
    FlowStart {
        /// Simulation time.
        t: f64,
        /// Flow index.
        flow: usize,
        /// Owning coflow index.
        coflow: usize,
        /// Owning job index.
        job: usize,
        /// Sender host index.
        src: usize,
        /// Receiver host index.
        dst: usize,
        /// Flow volume in bytes.
        bytes: f64,
        /// Started parked on a dead path (waits for a recovery).
        parked: bool,
    },
    /// A live flow lost its last live path and parked at zero rate.
    FlowPark {
        /// Simulation time.
        t: f64,
        /// Flow index.
        flow: usize,
        /// Owning coflow index.
        coflow: usize,
    },
    /// A parked flow resumed after a recovery.
    FlowResume {
        /// Simulation time.
        t: f64,
        /// Flow index.
        flow: usize,
        /// Owning coflow index.
        coflow: usize,
        /// The resume moved the flow onto a fresh path.
        rerouted: bool,
    },
    /// A flow delivered its last byte.
    FlowComplete {
        /// Simulation time.
        t: f64,
        /// Flow index.
        flow: usize,
        /// Owning coflow index.
        coflow: usize,
        /// Flow volume in bytes.
        bytes: f64,
    },
    /// A coflow activated (all DAG children completed).
    CoflowActivate {
        /// Simulation time.
        t: f64,
        /// Coflow index.
        coflow: usize,
        /// Owning job index.
        job: usize,
        /// DAG vertex within the job.
        dag_vertex: usize,
        /// Number of flows.
        width: usize,
        /// Total bytes across the coflow's flows.
        bytes: f64,
    },
    /// A coflow completed; carries its final starvation account.
    CoflowComplete {
        /// Simulation time.
        t: f64,
        /// Coflow index.
        coflow: usize,
        /// Owning job index.
        job: usize,
        /// Coflow completion time (activation → completion).
        cct: f64,
        /// Total time the active coflow spent at zero aggregate rate.
        starved_total: f64,
        /// Longest contiguous zero-rate interval.
        starved_max: f64,
    },
    /// A starvation interval closed: the coflow had been at zero
    /// aggregate rate for `dur` seconds ending at `t`. Only intervals of
    /// positive width are reported.
    CoflowStarved {
        /// Simulation time the interval ended.
        t: f64,
        /// Coflow index.
        coflow: usize,
        /// Interval width in seconds.
        dur: f64,
    },
    /// A job's last root coflow completed.
    JobComplete {
        /// Simulation time.
        t: f64,
        /// Job index.
        job: usize,
        /// Job completion time (arrival → completion).
        jct: f64,
    },
    /// A priority table moved a coflow between queues.
    PriorityMove {
        /// Simulation time.
        t: f64,
        /// Coflow index.
        coflow: usize,
        /// Previous queue index.
        from: usize,
        /// New queue index.
        to: usize,
    },
    /// A delayed priority table reached the hosts
    /// (see [`crate::runtime::SimConfig::control_latency`]).
    ControlDelivered {
        /// Simulation time of delivery.
        t: f64,
        /// The control plane's update token.
        token: u64,
        /// Measured decision age: delivery time minus the time the table
        /// was computed. Equals the configured `control_latency` unless
        /// the plane re-schedules tokens.
        staleness: f64,
    },
    /// A scheduled fault was applied, with the engine's reaction.
    FaultApplied {
        /// Simulation time.
        t: f64,
        /// Flows moved to a fresh path.
        rerouted: usize,
        /// Flows left with no live path and parked.
        parked: usize,
        /// Parked flows resumed by this recovery.
        resumed: usize,
    },
    /// A control-plane table delivery was lost to the channel's drop
    /// probability (control-fault runs only).
    ControlDropped {
        /// Simulation time of the (failed) transmission.
        t: f64,
        /// Destination host index.
        host: usize,
        /// Sequence number of the lost table.
        seq: u64,
    },
    /// A host rejected a delivered table as stale or duplicate by
    /// sequence number.
    ControlDeduped {
        /// Simulation time of the rejection.
        t: f64,
        /// Host index.
        host: usize,
        /// Sequence number of the rejected delivery.
        seq: u64,
    },
    /// The coordinator retransmitted an unacked table.
    ControlRetransmit {
        /// Simulation time of the retransmission.
        t: f64,
        /// Destination host index.
        host: usize,
        /// Sequence number being retransmitted.
        seq: u64,
        /// Retry attempt (1 = first retransmission).
        attempt: u32,
    },
    /// A host applied a sequence-numbered table.
    ControlApplied {
        /// Simulation time of application.
        t: f64,
        /// Host index.
        host: usize,
        /// Sequence number applied.
        seq: u64,
    },
    /// A host left the degraded (local-fallback) state: it had been
    /// scheduling on local decisions for `dur` seconds ending at `t`.
    ControlDegraded {
        /// Simulation time the degraded window closed.
        t: f64,
        /// Host index.
        host: usize,
        /// Window width in seconds.
        dur: f64,
    },
    /// A host's scheduling agent crashed (scheduled control fault).
    AgentCrashed {
        /// Simulation time.
        t: f64,
        /// Host index.
        host: usize,
    },
    /// A crashed agent restarted with empty state.
    AgentRestarted {
        /// Simulation time.
        t: f64,
        /// Host index.
        host: usize,
    },
    /// The coordinator partition state changed.
    Partition {
        /// Simulation time.
        t: f64,
        /// `true` when the partition starts, `false` when it heals.
        active: bool,
    },
    /// An epoch-sampled snapshot of queue/link/allocator state.
    Epoch(EpochSample),
}

impl TraceRecord {
    /// The record's simulation time.
    pub fn time(&self) -> f64 {
        match self {
            TraceRecord::FlowStart { t, .. }
            | TraceRecord::FlowPark { t, .. }
            | TraceRecord::FlowResume { t, .. }
            | TraceRecord::FlowComplete { t, .. }
            | TraceRecord::CoflowActivate { t, .. }
            | TraceRecord::CoflowComplete { t, .. }
            | TraceRecord::CoflowStarved { t, .. }
            | TraceRecord::JobComplete { t, .. }
            | TraceRecord::PriorityMove { t, .. }
            | TraceRecord::ControlDelivered { t, .. }
            | TraceRecord::FaultApplied { t, .. }
            | TraceRecord::ControlDropped { t, .. }
            | TraceRecord::ControlDeduped { t, .. }
            | TraceRecord::ControlRetransmit { t, .. }
            | TraceRecord::ControlApplied { t, .. }
            | TraceRecord::ControlDegraded { t, .. }
            | TraceRecord::AgentCrashed { t, .. }
            | TraceRecord::AgentRestarted { t, .. }
            | TraceRecord::Partition { t, .. } => *t,
            TraceRecord::Epoch(s) => s.t,
        }
    }
}

/// One sampled snapshot of the engine's dynamic state. Samples are taken
/// after event processing whenever at least `sample_interval` seconds of
/// simulation time have passed since the previous sample.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Simulation time of the sample.
    pub t: f64,
    /// Events processed so far.
    pub events: u64,
    /// Pending events in the event queue.
    pub event_queue_depth: usize,
    /// Open (uncompleted) flows, including parked ones.
    pub active_flows: usize,
    /// Flows currently parked on dead paths.
    pub parked_flows: usize,
    /// Active (incomplete) coflows.
    pub active_coflows: usize,
    /// Active coflows currently at zero aggregate rate (see the
    /// starvation watch in [`crate::stats::CoflowResult`]).
    pub starved_coflows: usize,
    /// Open unparked flows per priority queue (SPQ/WRR queue index).
    pub queue_occupancy: Vec<usize>,
    /// Fraction of the total allocated rate served per queue; all zeros
    /// when nothing is flowing.
    pub queue_service_share: Vec<f64>,
    /// Links carrying at least one flow with a finite nonzero rate.
    pub links_busy: usize,
    /// Max over busy links of `rate_sum / effective_capacity`.
    pub max_link_utilization: f64,
    /// Mean utilization over busy links (0 when none are busy).
    pub mean_link_utilization: f64,
    /// Priority tables computed but not yet delivered to the hosts
    /// (decentralized planes with nonzero `control_latency`; 0 for
    /// centralized planes).
    pub pending_control_updates: usize,
    /// Links currently degraded or failed by the fault overlay.
    pub degraded_links: usize,
    /// Cumulative full-pass rate recomputations (discipline changes,
    /// weights-only passes included, or `force_full_recompute`).
    pub alloc_full_passes: u64,
    /// Cumulative incremental (dirty-component) recomputations.
    pub alloc_incremental_passes: u64,
    /// Cumulative flows re-rated across all recomputations — the
    /// incremental BFS component sizes, summed.
    pub alloc_component_flows: u64,
    /// Cumulative dirty seed links consumed by incremental passes.
    pub alloc_seed_links: u64,
    /// Distinct links touched by the most recent recompute epoch,
    /// summed over its per-component allocator calls in component-index
    /// order (the allocator's dense-remap widths).
    pub alloc_touched_links: usize,
    /// Water-filling passes run by the most recent recompute epoch (one
    /// per non-empty priority queue under SPQ, one under WRR, per
    /// component), summed over its per-component calls.
    pub alloc_waterfill_passes: u64,
    /// Cumulative `Allocator::allocate_into` calls, one per component
    /// re-rated: every component of a full pass, the components a
    /// weights-only pass keeps (see `alloc_skipped_components`), the
    /// dirty components of an incremental pass. With
    /// `alloc_incremental_passes` this yields the mean component count
    /// per epoch — the available intra-run parallelism (see
    /// [`SimConfig::threads`](crate::runtime::SimConfig::threads)).
    #[serde(default)]
    pub alloc_component_calls: u64,
    /// Cumulative recompute epochs fanned across the worker pool (0
    /// when `SimConfig::threads` is 1 or every epoch stayed below the
    /// dispatch threshold).
    #[serde(default)]
    pub alloc_parallel_epochs: u64,
    /// Cumulative components a weights-only full pass left unrated: they
    /// sit in one queue and cross no dirty link, so a change of WRR
    /// weights cannot move their rates. Not counted in
    /// `alloc_component_calls`; the two sum to the components the full
    /// passes would otherwise have re-rated.
    #[serde(default)]
    pub alloc_skipped_components: u64,
}

/// Receives [`TraceRecord`]s from an instrumented run.
///
/// Contract: `record` is called in simulation-time order; `flush` is
/// called exactly once, after the run drains (including on error paths
/// that return a partial result — but not on panics; the file sinks
/// carry their own drop-time safety nets: [`JsonlSink`]'s buffered
/// writer flushes on drop, and [`ChromeTraceSink`] writes its buffered
/// document from `Drop` if `flush` never ran). Sinks must not assume
/// anything about wall-clock time and must not fail the run: IO errors
/// are held internally (see [`JsonlSink::finish`]).
pub trait TelemetrySink: std::fmt::Debug {
    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);
    /// The run is over; write out buffered state.
    fn flush(&mut self) {}
}

/// Crate-private probe state owned by the engine: the sink (if armed),
/// the sampling cadence, cumulative allocator counters, and the
/// issue-time map backing ControlUpdate staleness measurement. All
/// fields are touched only when `on()` — the disabled path carries the
/// struct but never writes it.
#[derive(Debug)]
pub(crate) struct Probe<'a> {
    pub(crate) sink: Option<&'a mut dyn TelemetrySink>,
    pub(crate) sample_interval: f64,
    pub(crate) next_sample: f64,
    /// ControlUpdate token → simulation time the table was computed.
    pub(crate) control_issued: HashMap<u64, f64>,
    pub(crate) full_passes: u64,
    pub(crate) incremental_passes: u64,
    pub(crate) component_flows: u64,
    pub(crate) seed_links: u64,
    pub(crate) component_calls: u64,
    pub(crate) parallel_epochs: u64,
    pub(crate) skipped_components: u64,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(sink: Option<&'a mut dyn TelemetrySink>, sample_interval: f64) -> Self {
        Self {
            sink,
            sample_interval,
            next_sample: 0.0,
            control_issued: HashMap::new(),
            full_passes: 0,
            incremental_passes: 0,
            component_flows: 0,
            seed_links: 0,
            component_calls: 0,
            parallel_epochs: 0,
            skipped_components: 0,
        }
    }

    /// Whether telemetry is armed. Every probe call site branches on
    /// this first; when `false` the layer costs exactly this check.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.sink.is_some()
    }

    pub(crate) fn emit(&mut self, rec: &TraceRecord) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(rec);
        }
    }

    pub(crate) fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }
}

/// In-memory sink: collects every record. The reference sink for tests
/// and programmatic consumers.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every record received, in emission order.
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected epoch samples, in order.
    pub fn samples(&self) -> impl Iterator<Item = &EpochSample> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Epoch(s) => Some(s),
            _ => None,
        })
    }

    /// Lifecycle events (everything but epoch samples), in order.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records
            .iter()
            .filter(|r| !matches!(r, TraceRecord::Epoch(_)))
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// Counting sink that discards record contents — the cheapest possible
/// "telemetry on" sink, which runs the armed layer (record construction
/// and dispatch) with nothing behind it; the 48-pod gate test
/// (`crates/experiments/tests/large_smoke.rs`) times it against the
/// disabled path.
#[derive(Debug, Default)]
pub struct NullSink {
    /// Number of records received.
    pub records: u64,
}

impl NullSink {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TelemetrySink for NullSink {
    fn record(&mut self, _rec: &TraceRecord) {
        self.records += 1;
    }
}

/// Fans every record out to several sinks (e.g. JSONL + Chrome trace in
/// one run).
#[derive(Debug, Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn TelemetrySink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink to the fan-out.
    #[must_use]
    pub fn with(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The wrapped sinks, for post-run inspection.
    pub fn into_sinks(self) -> Vec<Box<dyn TelemetrySink>> {
        self.sinks
    }
}

impl TelemetrySink for MultiSink {
    fn record(&mut self, rec: &TraceRecord) {
        for s in &mut self.sinks {
            s.record(rec);
        }
    }
    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// Streams records as JSON Lines: one externally tagged [`TraceRecord`]
/// object per line, written through a buffered file writer.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    out: Option<std::io::BufWriter<std::fs::File>>,
    error: Option<std::io::Error>,
    records: u64,
}

impl JsonlSink {
    /// Creates (truncates) `path` for writing.
    ///
    /// # Errors
    ///
    /// Any file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(Self {
            path,
            out: Some(std::io::BufWriter::new(file)),
            error: None,
            records: 0,
        })
    }

    /// Flushes and reports the first IO error hit during the run, if
    /// any. Call after the run; the sink is unusable afterwards.
    ///
    /// # Errors
    ///
    /// The first write/flush error encountered.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(mut out) = self.out.take() {
            out.flush()?;
        }
        Ok(self.path)
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Some(out) = self.out.as_mut() {
            let line = match serde_json::to_string(rec) {
                Ok(l) => l,
                Err(e) => {
                    self.error = Some(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("serialize trace record: {e:?}"),
                    ));
                    return;
                }
            };
            if let Err(e) = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
            {
                self.error = Some(e);
                return;
            }
            self.records += 1;
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Exports the run as a Chrome `trace_event` JSON file — the format
/// Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
/// directly. See EXPERIMENTS.md for capture instructions.
///
/// Mapping (timestamps in microseconds of simulation time):
///
/// * coflows → complete (`"X"`) slices on pid 1, one track per coflow;
/// * flows → complete slices on pid 2, one track per flow;
/// * starvation intervals → complete slices on pid 3, per coflow;
/// * ControlUpdate deliveries → instant (`"i"`) events on pid 1;
/// * control faults (pid 4): drops/retransmits/partition edges as
///   instants, degraded windows and agent crash→restart windows as
///   complete slices, one track per host;
/// * epoch samples → counter (`"C"`) tracks on pid 1 (active flows,
///   event-queue depth, starved coflows, mean link utilization).
///
/// Events buffer in memory and are written at [`TelemetrySink::flush`];
/// open-ended spans (flows alive at the end of a partial run) are
/// dropped, matching Chrome's own handling of unterminated slices.
#[derive(Debug)]
pub struct ChromeTraceSink {
    path: PathBuf,
    events: Vec<Value>,
    /// flow index → (start time, coflow).
    open_flows: HashMap<usize, (f64, usize)>,
    /// coflow index → activation time.
    open_coflows: HashMap<usize, f64>,
    /// host index → agent crash time (open crash windows).
    open_crashes: HashMap<usize, f64>,
    error: Option<std::io::Error>,
    /// Set once [`TelemetrySink::flush`] has written the file, so the
    /// [`Drop`] safety net does not clobber it with an empty document.
    flushed: bool,
}

const TRACE_PID_COFLOWS: f64 = 1.0;
const TRACE_PID_FLOWS: f64 = 2.0;
const TRACE_PID_STARVATION: f64 = 3.0;
const TRACE_PID_CONTROL: f64 = 4.0;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A complete ("X") trace event: a slice from `start` to `end` seconds.
fn slice(name: String, cat: &str, pid: f64, tid: f64, start: f64, end: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", Value::Str(cat.to_owned())),
        ("ph", Value::Str("X".to_owned())),
        ("ts", Value::Num(start * 1e6)),
        ("dur", Value::Num((end - start).max(0.0) * 1e6)),
        ("pid", Value::Num(pid)),
        ("tid", Value::Num(tid)),
    ])
}

/// An instant ("i") event on the control-faults process.
fn control_instant(name: String, t: f64, tid: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", Value::Str("control-fault".to_owned())),
        ("ph", Value::Str("i".to_owned())),
        ("s", Value::Str("g".to_owned())),
        ("ts", Value::Num(t * 1e6)),
        ("pid", Value::Num(TRACE_PID_CONTROL)),
        ("tid", Value::Num(tid)),
    ])
}

/// A counter ("C") sample on its own named track.
fn counter(name: &str, t: f64, value: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("ph", Value::Str("C".to_owned())),
        ("ts", Value::Num(t * 1e6)),
        ("pid", Value::Num(TRACE_PID_COFLOWS)),
        ("args", obj(vec![("value", Value::Num(value))])),
    ])
}

impl ChromeTraceSink {
    /// Buffers a trace destined for `path`; the file is created at
    /// flush time.
    pub fn new(path: impl AsRef<Path>) -> Self {
        let mut events = Vec::new();
        for (pid, name) in [
            (TRACE_PID_COFLOWS, "coflows"),
            (TRACE_PID_FLOWS, "flows"),
            (TRACE_PID_STARVATION, "starvation"),
            (TRACE_PID_CONTROL, "control-faults"),
        ] {
            events.push(obj(vec![
                ("name", Value::Str("process_name".to_owned())),
                ("ph", Value::Str("M".to_owned())),
                ("pid", Value::Num(pid)),
                ("args", obj(vec![("name", Value::Str(name.to_owned()))])),
            ]));
        }
        Self {
            path: path.as_ref().to_path_buf(),
            events,
            open_flows: HashMap::new(),
            open_coflows: HashMap::new(),
            open_crashes: HashMap::new(),
            error: None,
            flushed: false,
        }
    }

    /// Reports the flush error, if any, and returns the output path.
    ///
    /// # Errors
    ///
    /// The error [`TelemetrySink::flush`] hit, if any.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.flushed = true; // consuming the sink ends its lifecycle
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.path)),
        }
    }
}

impl TelemetrySink for ChromeTraceSink {
    fn record(&mut self, rec: &TraceRecord) {
        match *rec {
            TraceRecord::FlowStart {
                t, flow, coflow, ..
            } => {
                self.open_flows.insert(flow, (t, coflow));
            }
            TraceRecord::FlowComplete { t, flow, .. } => {
                if let Some((start, coflow)) = self.open_flows.remove(&flow) {
                    self.events.push(slice(
                        format!("flow {flow} (coflow {coflow})"),
                        "flow",
                        TRACE_PID_FLOWS,
                        flow as f64,
                        start,
                        t,
                    ));
                }
            }
            TraceRecord::CoflowActivate { t, coflow, .. } => {
                self.open_coflows.insert(coflow, t);
            }
            TraceRecord::CoflowComplete { t, coflow, job, .. } => {
                if let Some(start) = self.open_coflows.remove(&coflow) {
                    self.events.push(slice(
                        format!("coflow {coflow} (job {job})"),
                        "coflow",
                        TRACE_PID_COFLOWS,
                        coflow as f64,
                        start,
                        t,
                    ));
                }
            }
            TraceRecord::CoflowStarved { t, coflow, dur } => {
                self.events.push(slice(
                    format!("starved (coflow {coflow})"),
                    "starvation",
                    TRACE_PID_STARVATION,
                    coflow as f64,
                    t - dur,
                    t,
                ));
            }
            TraceRecord::ControlDelivered {
                t,
                token,
                staleness,
            } => {
                self.events.push(obj(vec![
                    ("name", Value::Str(format!("control update {token}"))),
                    ("cat", Value::Str("control".to_owned())),
                    ("ph", Value::Str("i".to_owned())),
                    ("s", Value::Str("g".to_owned())),
                    ("ts", Value::Num(t * 1e6)),
                    ("pid", Value::Num(TRACE_PID_COFLOWS)),
                    ("tid", Value::Num(0.0)),
                    (
                        "args",
                        obj(vec![("staleness_us", Value::Num(staleness * 1e6))]),
                    ),
                ]));
            }
            TraceRecord::ControlDropped { t, host, seq } => {
                self.events.push(control_instant(
                    format!("drop seq {seq} (host {host})"),
                    t,
                    host as f64,
                ));
            }
            TraceRecord::ControlRetransmit {
                t,
                host,
                seq,
                attempt,
            } => {
                self.events.push(control_instant(
                    format!("retry {attempt} seq {seq} (host {host})"),
                    t,
                    host as f64,
                ));
            }
            TraceRecord::ControlDegraded { t, host, dur } => {
                self.events.push(slice(
                    format!("degraded (host {host})"),
                    "control-fault",
                    TRACE_PID_CONTROL,
                    host as f64,
                    t - dur,
                    t,
                ));
            }
            TraceRecord::AgentCrashed { t, host } => {
                self.open_crashes.insert(host, t);
            }
            TraceRecord::AgentRestarted { t, host } => {
                if let Some(start) = self.open_crashes.remove(&host) {
                    self.events.push(slice(
                        format!("agent crashed (host {host})"),
                        "control-fault",
                        TRACE_PID_CONTROL,
                        host as f64,
                        start,
                        t,
                    ));
                }
            }
            TraceRecord::Partition { t, active } => {
                let name = if active {
                    "partition start"
                } else {
                    "partition end"
                };
                self.events.push(control_instant(name.to_owned(), t, -1.0));
            }
            TraceRecord::Epoch(ref s) => {
                self.events
                    .push(counter("active_flows", s.t, s.active_flows as f64));
                self.events.push(counter(
                    "event_queue_depth",
                    s.t,
                    s.event_queue_depth as f64,
                ));
                self.events
                    .push(counter("starved_coflows", s.t, s.starved_coflows as f64));
                self.events.push(counter(
                    "mean_link_utilization",
                    s.t,
                    s.mean_link_utilization,
                ));
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        self.flushed = true;
        let doc = obj(vec![
            ("traceEvents", Value::Seq(std::mem::take(&mut self.events))),
            ("displayTimeUnit", Value::Str("ms".to_owned())),
        ]);
        let json = match serde_json::to_string(&doc) {
            Ok(j) => j,
            Err(e) => {
                self.error = Some(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("serialize chrome trace: {e:?}"),
                ));
                return;
            }
        };
        if let Err(e) = std::fs::write(&self.path, json) {
            self.error = Some(e);
        }
    }
}

/// Safety net for abnormal exits: a sink dropped without
/// [`TelemetrySink::flush`] (a panic unwinding the run, a daemon loop
/// aborting early) still writes whatever it buffered, so a partial
/// trace survives for debugging. The happy path is unaffected —
/// `flush` marks the sink done and the `Drop` becomes a no-op. Errors
/// here are swallowed: panicking in `Drop` during an unwind would
/// abort the process.
impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        if !self.flushed {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_start(t: f64, flow: usize) -> TraceRecord {
        TraceRecord::FlowStart {
            t,
            flow,
            coflow: 0,
            job: 0,
            src: 0,
            dst: 1,
            bytes: 100.0,
            parked: false,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let sample = EpochSample {
            t: 1.5,
            events: 10,
            event_queue_depth: 3,
            active_flows: 2,
            parked_flows: 0,
            active_coflows: 1,
            starved_coflows: 0,
            queue_occupancy: vec![2, 0],
            queue_service_share: vec![1.0, 0.0],
            links_busy: 4,
            max_link_utilization: 1.0,
            mean_link_utilization: 0.5,
            pending_control_updates: 0,
            degraded_links: 0,
            alloc_full_passes: 1,
            alloc_incremental_passes: 5,
            alloc_component_flows: 9,
            alloc_seed_links: 12,
            alloc_touched_links: 4,
            alloc_waterfill_passes: 2,
            alloc_component_calls: 6,
            alloc_parallel_epochs: 2,
            alloc_skipped_components: 40,
        };
        for rec in [
            flow_start(0.25, 7),
            TraceRecord::CoflowStarved {
                t: 2.0,
                coflow: 3,
                dur: 0.5,
            },
            TraceRecord::ControlDelivered {
                t: 1.0,
                token: 42,
                staleness: 0.01,
            },
            TraceRecord::ControlDropped {
                t: 1.1,
                host: 4,
                seq: 9,
            },
            TraceRecord::ControlDeduped {
                t: 1.2,
                host: 4,
                seq: 8,
            },
            TraceRecord::ControlRetransmit {
                t: 1.3,
                host: 4,
                seq: 9,
                attempt: 2,
            },
            TraceRecord::ControlApplied {
                t: 1.4,
                host: 4,
                seq: 9,
            },
            TraceRecord::ControlDegraded {
                t: 1.5,
                host: 4,
                dur: 0.25,
            },
            TraceRecord::AgentCrashed { t: 1.6, host: 5 },
            TraceRecord::AgentRestarted { t: 1.7, host: 5 },
            TraceRecord::Partition {
                t: 1.8,
                active: true,
            },
            TraceRecord::Epoch(sample),
        ] {
            let json = serde_json::to_string(&rec).unwrap();
            let back: TraceRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn memory_sink_separates_events_from_samples() {
        let mut sink = MemorySink::new();
        sink.record(&flow_start(0.0, 1));
        sink.record(&TraceRecord::Epoch(EpochSample {
            t: 0.5,
            events: 1,
            event_queue_depth: 0,
            active_flows: 1,
            parked_flows: 0,
            active_coflows: 1,
            starved_coflows: 0,
            queue_occupancy: vec![1],
            queue_service_share: vec![1.0],
            links_busy: 2,
            max_link_utilization: 0.9,
            mean_link_utilization: 0.9,
            pending_control_updates: 0,
            degraded_links: 0,
            alloc_full_passes: 1,
            alloc_incremental_passes: 0,
            alloc_component_flows: 1,
            alloc_seed_links: 2,
            alloc_touched_links: 2,
            alloc_waterfill_passes: 1,
            alloc_component_calls: 1,
            alloc_parallel_epochs: 0,
            alloc_skipped_components: 0,
        }));
        assert_eq!(sink.events().count(), 1);
        assert_eq!(sink.samples().count(), 1);
    }

    #[test]
    fn chrome_sink_emits_slices_and_counters() {
        let dir = std::env::temp_dir().join("gurita_chrome_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut sink = ChromeTraceSink::new(&path);
        sink.record(&TraceRecord::CoflowActivate {
            t: 0.0,
            coflow: 0,
            job: 0,
            dag_vertex: 0,
            width: 1,
            bytes: 100.0,
        });
        sink.record(&flow_start(0.0, 1));
        sink.record(&TraceRecord::FlowComplete {
            t: 1.0,
            flow: 1,
            coflow: 0,
            bytes: 100.0,
        });
        sink.record(&TraceRecord::CoflowComplete {
            t: 1.0,
            coflow: 0,
            job: 0,
            cct: 1.0,
            starved_total: 0.0,
            starved_max: 0.0,
        });
        sink.flush();
        let written = std::fs::read_to_string(sink.finish().unwrap()).unwrap();
        let doc: Value = serde_json::from_str(&written).unwrap();
        let Value::Map(fields) = &doc else {
            panic!("trace must be a JSON object");
        };
        let (_, events) = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents present");
        let Value::Seq(events) = events else {
            panic!("traceEvents must be an array");
        };
        // 4 process_name metadata + flow slice + coflow slice.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn chrome_sink_maps_control_fault_records() {
        let dir = std::env::temp_dir().join("gurita_chrome_control_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut sink = ChromeTraceSink::new(&path);
        sink.record(&TraceRecord::ControlDropped {
            t: 0.5,
            host: 2,
            seq: 1,
        });
        sink.record(&TraceRecord::ControlRetransmit {
            t: 0.6,
            host: 2,
            seq: 1,
            attempt: 1,
        });
        sink.record(&TraceRecord::AgentCrashed { t: 1.0, host: 3 });
        sink.record(&TraceRecord::AgentRestarted { t: 2.0, host: 3 });
        sink.record(&TraceRecord::ControlDegraded {
            t: 3.0,
            host: 2,
            dur: 0.5,
        });
        sink.record(&TraceRecord::Partition {
            t: 4.0,
            active: true,
        });
        // Applied/deduped records are counters-only (no chrome mapping).
        sink.record(&TraceRecord::ControlApplied {
            t: 4.5,
            host: 2,
            seq: 2,
        });
        sink.flush();
        let written = std::fs::read_to_string(sink.finish().unwrap()).unwrap();
        let doc: Value = serde_json::from_str(&written).unwrap();
        let Value::Map(fields) = &doc else {
            panic!("trace must be a JSON object");
        };
        let (_, events) = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents present");
        let Value::Seq(events) = events else {
            panic!("traceEvents must be an array");
        };
        // 4 metadata + drop + retry + crash slice + degraded slice +
        // partition instant.
        assert_eq!(events.len(), 9);
    }
}
