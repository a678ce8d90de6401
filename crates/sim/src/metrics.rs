//! Bridge from the telemetry stream to live metrics: a
//! [`MetricsSink`] that folds [`TraceRecord`]s into lock-free
//! `gurita-metrics` instruments as the run executes.
//!
//! The split of responsibilities mirrors the armed/disabled telemetry
//! contract (see [`crate::telemetry`]):
//!
//! * the **engine** owns the sink mutably (like any other
//!   `TelemetrySink`) and pays one trait call per lifecycle record —
//!   only when telemetry is armed;
//! * the **reader** (the daemon's serve loop, a scrape handler) holds
//!   the same instruments through the shared
//!   [`Registry`] `Arc` and can snapshot at
//!   any instant without stopping or coordinating with the run.
//!
//! The sink is purely observational: it never feeds anything back into
//! the engine, so an armed run's `RunResult` is bit-for-bit identical
//! to the disabled run (property-tested in
//! `tests/tests/telemetry.rs`).
//!
//! Series naming follows the `gurita_*` convention with base units in
//! seconds/bytes, per the Prometheus guidelines. Distributions
//! (queue-wait, JCT, CCT, CCT slowdown) are labelled by the paper's
//! seven job size categories (`category="I".."VII"`).

use crate::telemetry::{TelemetrySink, TraceRecord};
use gurita_metrics::{BucketSpec, Counter, Gauge, Histogram, Registry};
use gurita_model::SizeCategory;
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning for [`MetricsSink`].
#[derive(Debug, Clone, Copy)]
pub struct MetricsConfig {
    /// Reference bandwidth in bytes/second used to turn a CCT into a
    /// slowdown factor (`cct / (bytes / ref_bandwidth)`). `0.0`
    /// disables the slowdown histogram (raw CCT is always recorded).
    /// Daemons pass the fabric's host NIC capacity.
    pub ref_bandwidth: f64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self { ref_bandwidth: 0.0 }
    }
}

/// Per-category histogram family: one `Arc<Histogram>` per
/// [`SizeCategory`], indexable by category.
struct PerCategory {
    by_cat: Vec<Arc<Histogram>>,
}

impl PerCategory {
    fn register(reg: &Registry, name: &str, help: &str, spec: BucketSpec) -> Self {
        Self {
            by_cat: SizeCategory::ALL
                .iter()
                .map(|c| reg.histogram(name, help, &[("category", c.label())], spec))
                .collect(),
        }
    }

    fn observe(&self, cat: SizeCategory, v: f64) {
        self.by_cat[cat.index()].observe(v);
    }
}

/// A [`TelemetrySink`] that aggregates the lifecycle stream into live
/// Prometheus-style series registered in a shared
/// [`Registry`].
///
/// Registered families:
///
/// | family | kind | labels | source |
/// |---|---|---|---|
/// | `gurita_job_queue_wait_seconds` | histogram | `category` | arrival → first coflow activation |
/// | `gurita_jct_seconds` | histogram | `category` | [`TraceRecord::JobComplete`] |
/// | `gurita_cct_seconds` | histogram | `category` | [`TraceRecord::CoflowComplete`] |
/// | `gurita_cct_slowdown` | histogram | `category` | CCT ÷ ideal transfer time (needs `ref_bandwidth`) |
/// | `gurita_coflow_starvation_seconds` | gauge (cumulative) | — | [`TraceRecord::CoflowStarved`] |
/// | `gurita_coflow_starvation_events_total` | counter | — | idem |
/// | `gurita_jobs_completed_total`, `gurita_coflows_completed_total`, `gurita_flows_completed_total` | counter | — | lifecycle records |
/// | `gurita_priority_moves_total`, `gurita_faults_applied_total` | counter | — | idem |
/// | `gurita_control_*_total` | counter | — | PR 6 control-resilience ledger |
/// | `gurita_control_degraded_seconds`, `gurita_partition_active` | gauge | — | idem |
/// | `gurita_alloc_*`, `gurita_event_queue_depth`, `gurita_active_*` | gauge | — | [`TraceRecord::Epoch`] samples |
pub struct MetricsSink {
    cfg: MetricsConfig,
    // Distributions.
    queue_wait: PerCategory,
    jct: PerCategory,
    cct: PerCategory,
    slowdown: PerCategory,
    // Lifecycle counters.
    jobs_completed: Arc<Counter>,
    coflows_completed: Arc<Counter>,
    flows_completed: Arc<Counter>,
    priority_moves: Arc<Counter>,
    faults_applied: Arc<Counter>,
    // Starvation.
    starvation_seconds: Arc<Gauge>,
    starvation_events: Arc<Counter>,
    // Control-resilience ledger.
    control_delivered: Arc<Counter>,
    control_dropped: Arc<Counter>,
    control_deduped: Arc<Counter>,
    control_retransmits: Arc<Counter>,
    control_applied: Arc<Counter>,
    control_degraded_windows: Arc<Counter>,
    control_degraded_seconds: Arc<Gauge>,
    agent_crashes: Arc<Counter>,
    agent_restarts: Arc<Counter>,
    partitions: Arc<Counter>,
    partition_active: Arc<Gauge>,
    // Epoch-sampled engine state.
    event_queue_depth: Arc<Gauge>,
    active_flows: Arc<Gauge>,
    parked_flows: Arc<Gauge>,
    active_coflows: Arc<Gauge>,
    starved_coflows: Arc<Gauge>,
    alloc_full_passes: Arc<Gauge>,
    alloc_incremental_passes: Arc<Gauge>,
    alloc_parallel_epochs: Arc<Gauge>,
    alloc_component_flows: Arc<Gauge>,
    alloc_touched_links: Arc<Gauge>,
    alloc_waterfill_passes: Arc<Gauge>,
    // Sink-local bookkeeping (bounded: entries are removed when their
    // job/coflow completes).
    job_first_activate: HashMap<usize, f64>,
    job_bytes: HashMap<usize, f64>,
    coflow_bytes: HashMap<usize, f64>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("ref_bandwidth", &self.cfg.ref_bandwidth)
            .field("jobs_completed", &self.jobs_completed.get())
            .field("coflows_completed", &self.coflows_completed.get())
            .finish_non_exhaustive()
    }
}

impl MetricsSink {
    /// Registers every series in `registry` and returns the sink. The
    /// caller keeps (a clone of) the registry `Arc` for snapshots; the
    /// sink holds only instrument handles.
    pub fn new(registry: &Registry, cfg: MetricsConfig) -> Self {
        let secs = BucketSpec::seconds();
        let ratio = BucketSpec::ratio();
        let c = |name: &str, help: &str| registry.counter(name, help, &[]);
        let g = |name: &str, help: &str| registry.gauge(name, help, &[]);
        Self {
            cfg,
            queue_wait: PerCategory::register(
                registry,
                "gurita_job_queue_wait_seconds",
                "Time from job arrival to its first coflow activation.",
                secs,
            ),
            jct: PerCategory::register(
                registry,
                "gurita_jct_seconds",
                "Job completion time (arrival to last root coflow).",
                secs,
            ),
            cct: PerCategory::register(
                registry,
                "gurita_cct_seconds",
                "Coflow completion time (activation to completion).",
                secs,
            ),
            slowdown: PerCategory::register(
                registry,
                "gurita_cct_slowdown",
                "CCT divided by the ideal transfer time at the reference bandwidth.",
                ratio,
            ),
            jobs_completed: c("gurita_jobs_completed_total", "Jobs completed."),
            coflows_completed: c("gurita_coflows_completed_total", "Coflows completed."),
            flows_completed: c("gurita_flows_completed_total", "Flows completed."),
            priority_moves: c(
                "gurita_priority_moves_total",
                "Coflow moves between priority queues.",
            ),
            faults_applied: c("gurita_faults_applied_total", "Scheduled faults applied."),
            starvation_seconds: g(
                "gurita_coflow_starvation_seconds",
                "Cumulative seconds active coflows spent at zero aggregate rate.",
            ),
            starvation_events: c(
                "gurita_coflow_starvation_events_total",
                "Closed zero-rate starvation intervals.",
            ),
            control_delivered: c(
                "gurita_control_delivered_total",
                "Priority tables delivered to hosts.",
            ),
            control_dropped: c(
                "gurita_control_drops_total",
                "Control-plane deliveries lost to the lossy channel.",
            ),
            control_deduped: c(
                "gurita_control_deduped_total",
                "Deliveries rejected as stale or duplicate.",
            ),
            control_retransmits: c(
                "gurita_control_retransmits_total",
                "Coordinator retransmissions of unacked tables.",
            ),
            control_applied: c(
                "gurita_control_applied_total",
                "Sequence-numbered tables applied by hosts.",
            ),
            control_degraded_windows: c(
                "gurita_control_degraded_windows_total",
                "Closed local-fallback (degraded) windows.",
            ),
            control_degraded_seconds: g(
                "gurita_control_degraded_seconds",
                "Cumulative seconds hosts spent scheduling on local decisions.",
            ),
            agent_crashes: c("gurita_agent_crashes_total", "Host agent crashes."),
            agent_restarts: c("gurita_agent_restarts_total", "Host agent restarts."),
            partitions: c("gurita_partitions_total", "Coordinator partitions started."),
            partition_active: g(
                "gurita_partition_active",
                "1 while the coordinator is partitioned.",
            ),
            event_queue_depth: g("gurita_event_queue_depth", "Pending simulation events."),
            active_flows: g("gurita_active_flows", "Open flows, including parked."),
            parked_flows: g("gurita_parked_flows", "Flows parked on dead paths."),
            active_coflows: g("gurita_active_coflows", "Active (incomplete) coflows."),
            starved_coflows: g(
                "gurita_starved_coflows",
                "Active coflows currently at zero aggregate rate.",
            ),
            alloc_full_passes: g(
                "gurita_alloc_full_passes",
                "Cumulative full-pass rate recomputations.",
            ),
            alloc_incremental_passes: g(
                "gurita_alloc_incremental_passes",
                "Cumulative incremental (dirty-component) recomputations.",
            ),
            alloc_parallel_epochs: g(
                "gurita_alloc_parallel_epochs",
                "Cumulative recompute epochs fanned across the worker pool.",
            ),
            alloc_component_flows: g(
                "gurita_alloc_touched_flows",
                "Cumulative flows re-rated across all recomputations.",
            ),
            alloc_touched_links: g(
                "gurita_alloc_touched_links",
                "Distinct links touched by the most recent recompute epoch.",
            ),
            alloc_waterfill_passes: g(
                "gurita_alloc_waterfill_passes",
                "Water-filling passes run by the most recent recompute epoch.",
            ),
            job_first_activate: HashMap::new(),
            job_bytes: HashMap::new(),
            coflow_bytes: HashMap::new(),
        }
    }
}

impl TelemetrySink for MetricsSink {
    fn record(&mut self, rec: &TraceRecord) {
        match rec {
            TraceRecord::CoflowActivate {
                t,
                coflow,
                job,
                bytes,
                ..
            } => {
                self.job_first_activate.entry(*job).or_insert(*t);
                *self.job_bytes.entry(*job).or_insert(0.0) += *bytes;
                self.coflow_bytes.insert(*coflow, *bytes);
            }
            TraceRecord::CoflowComplete { coflow, cct, .. } => {
                self.coflows_completed.inc();
                let bytes = self.coflow_bytes.remove(coflow).unwrap_or(0.0);
                let cat = SizeCategory::of_bytes(bytes);
                self.cct.observe(cat, *cct);
                if self.cfg.ref_bandwidth > 0.0 && bytes > 0.0 {
                    let ideal = bytes / self.cfg.ref_bandwidth;
                    if ideal > 0.0 {
                        self.slowdown.observe(cat, *cct / ideal);
                    }
                }
            }
            TraceRecord::CoflowStarved { dur, .. } => {
                self.starvation_events.inc();
                self.starvation_seconds.add(*dur);
            }
            TraceRecord::JobComplete { t, job, jct } => {
                self.jobs_completed.inc();
                let bytes = self.job_bytes.remove(job).unwrap_or(0.0);
                let cat = SizeCategory::of_bytes(bytes);
                self.jct.observe(cat, *jct);
                let arrival = *t - *jct;
                if let Some(first) = self.job_first_activate.remove(job) {
                    self.queue_wait.observe(cat, (first - arrival).max(0.0));
                }
            }
            TraceRecord::FlowComplete { .. } => self.flows_completed.inc(),
            TraceRecord::PriorityMove { .. } => self.priority_moves.inc(),
            TraceRecord::FaultApplied { .. } => self.faults_applied.inc(),
            TraceRecord::ControlDelivered { .. } => self.control_delivered.inc(),
            TraceRecord::ControlDropped { .. } => self.control_dropped.inc(),
            TraceRecord::ControlDeduped { .. } => self.control_deduped.inc(),
            TraceRecord::ControlRetransmit { .. } => self.control_retransmits.inc(),
            TraceRecord::ControlApplied { .. } => self.control_applied.inc(),
            TraceRecord::ControlDegraded { dur, .. } => {
                self.control_degraded_windows.inc();
                self.control_degraded_seconds.add(*dur);
            }
            TraceRecord::AgentCrashed { .. } => self.agent_crashes.inc(),
            TraceRecord::AgentRestarted { .. } => self.agent_restarts.inc(),
            TraceRecord::Partition { active, .. } => {
                if *active {
                    self.partitions.inc();
                }
                self.partition_active.set(if *active { 1.0 } else { 0.0 });
            }
            TraceRecord::Epoch(s) => {
                self.event_queue_depth.set(s.event_queue_depth as f64);
                self.active_flows.set(s.active_flows as f64);
                self.parked_flows.set(s.parked_flows as f64);
                self.active_coflows.set(s.active_coflows as f64);
                self.starved_coflows.set(s.starved_coflows as f64);
                self.alloc_full_passes.set(s.alloc_full_passes as f64);
                self.alloc_incremental_passes
                    .set(s.alloc_incremental_passes as f64);
                self.alloc_parallel_epochs
                    .set(s.alloc_parallel_epochs as f64);
                self.alloc_component_flows
                    .set(s.alloc_component_flows as f64);
                self.alloc_touched_links.set(s.alloc_touched_links as f64);
                self.alloc_waterfill_passes
                    .set(s.alloc_waterfill_passes as f64);
            }
            TraceRecord::FlowStart { .. }
            | TraceRecord::FlowPark { .. }
            | TraceRecord::FlowResume { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_metrics::encode::prometheus_text;

    fn rec_sink() -> (Arc<Registry>, MetricsSink) {
        let reg = Arc::new(Registry::new());
        let sink = MetricsSink::new(&reg, MetricsConfig { ref_bandwidth: 1e9 });
        (reg, sink)
    }

    #[test]
    fn lifecycle_records_land_in_series() {
        let (reg, mut sink) = rec_sink();
        sink.record(&TraceRecord::CoflowActivate {
            t: 1.0,
            coflow: 0,
            job: 0,
            dag_vertex: 0,
            width: 2,
            bytes: 50.0e6,
        });
        sink.record(&TraceRecord::CoflowComplete {
            t: 3.0,
            coflow: 0,
            job: 0,
            cct: 2.0,
            starved_total: 0.0,
            starved_max: 0.0,
        });
        sink.record(&TraceRecord::JobComplete {
            t: 3.0,
            job: 0,
            jct: 2.5,
        });
        sink.record(&TraceRecord::CoflowStarved {
            t: 2.0,
            coflow: 0,
            dur: 0.75,
        });
        let snap = reg.snapshot();
        // 50 MB -> category I; jct 2.5s recorded there.
        let jct = snap.family("gurita_jct_seconds").expect("family");
        let s = jct.series_with("category", "I").expect("cat I");
        assert_eq!(s.histogram.as_ref().expect("histogram").count, 1);
        // queue wait = first activation (1.0) - arrival (3.0 - 2.5 = 0.5) = 0.5s
        let qw = snap
            .family("gurita_job_queue_wait_seconds")
            .expect("family")
            .series_with("category", "I")
            .expect("cat I")
            .histogram
            .clone()
            .expect("histogram");
        assert_eq!(qw.count, 1);
        assert!((qw.sum - 0.5).abs() < 1e-12, "sum = {}", qw.sum);
        // slowdown = cct / (bytes/ref_bw) = 2.0 / 0.05 = 40
        let sd = snap
            .family("gurita_cct_slowdown")
            .expect("family")
            .series_with("category", "I")
            .expect("cat I")
            .histogram
            .clone()
            .expect("histogram");
        assert_eq!(sd.count, 1);
        assert!((sd.sum - 40.0).abs() < 1e-9, "sum = {}", sd.sum);
        // starvation ledger
        assert_eq!(
            snap.family("gurita_coflow_starvation_events_total")
                .expect("family")
                .series[0]
                .value,
            1.0
        );
        assert!(
            (snap
                .family("gurita_coflow_starvation_seconds")
                .expect("family")
                .series[0]
                .value
                - 0.75)
                .abs()
                < 1e-12
        );
        // Bookkeeping is drained on completion.
        assert!(sink.job_bytes.is_empty());
        assert!(sink.coflow_bytes.is_empty());
        assert!(sink.job_first_activate.is_empty());
        // The whole registry encodes cleanly.
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE gurita_jct_seconds histogram"));
        assert!(text.contains("gurita_jobs_completed_total 1"));
    }

    #[test]
    fn control_ledger_counts() {
        let (reg, mut sink) = rec_sink();
        sink.record(&TraceRecord::ControlDropped {
            t: 0.1,
            host: 3,
            seq: 7,
        });
        sink.record(&TraceRecord::ControlRetransmit {
            t: 0.2,
            host: 3,
            seq: 7,
            attempt: 1,
        });
        sink.record(&TraceRecord::ControlApplied {
            t: 0.3,
            host: 3,
            seq: 7,
        });
        sink.record(&TraceRecord::ControlDegraded {
            t: 0.4,
            host: 3,
            dur: 0.25,
        });
        sink.record(&TraceRecord::Partition {
            t: 0.5,
            active: true,
        });
        sink.record(&TraceRecord::Partition {
            t: 0.6,
            active: false,
        });
        let snap = reg.snapshot();
        let get = |name: &str| snap.family(name).expect(name).series[0].value;
        assert_eq!(get("gurita_control_drops_total"), 1.0);
        assert_eq!(get("gurita_control_retransmits_total"), 1.0);
        assert_eq!(get("gurita_control_applied_total"), 1.0);
        assert_eq!(get("gurita_control_degraded_windows_total"), 1.0);
        assert!((get("gurita_control_degraded_seconds") - 0.25).abs() < 1e-12);
        assert_eq!(get("gurita_partitions_total"), 1.0);
        assert_eq!(get("gurita_partition_active"), 0.0);
    }

    #[test]
    fn epoch_samples_drive_gauges() {
        let (reg, mut sink) = rec_sink();
        let s = crate::telemetry::EpochSample {
            t: 5.0,
            event_queue_depth: 42,
            active_flows: 10,
            alloc_full_passes: 3,
            alloc_incremental_passes: 9,
            ..Default::default()
        };
        sink.record(&TraceRecord::Epoch(s));
        let snap = reg.snapshot();
        let get = |name: &str| snap.family(name).expect(name).series[0].value;
        assert_eq!(get("gurita_event_queue_depth"), 42.0);
        assert_eq!(get("gurita_active_flows"), 10.0);
        assert_eq!(get("gurita_alloc_full_passes"), 3.0);
        assert_eq!(get("gurita_alloc_incremental_passes"), 9.0);
    }
}
