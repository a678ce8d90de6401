//! Telemetry-layer integration tests: arming the probe must never
//! change simulation results (bit-for-bit, property-tested across
//! disciplines, faults, and control latency), traces must be
//! well-formed, and the starvation watch must reproduce the paper's §V
//! SPQ-vs-WRR contrast.

use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_metrics::Registry;
use gurita_model::{HostId, JobSpec};
use gurita_sim::faults::{FaultEvent, FaultSchedule};
use gurita_sim::metrics::{MetricsConfig, MetricsSink};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::{
    ChromeTraceSink, MemorySink, TelemetryConfig, TelemetrySink, TraceRecord,
};
use gurita_sim::topology::{FatTree, LinkId};
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn workload(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    JobGenerator::new(
        WorkloadConfig {
            num_jobs,
            num_hosts: 128,
            structure: StructureKind::FbTao,
            category_weights: [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0],
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate()
}

/// A schedule mixing brown-outs with hard link failure/recovery, so the
/// probe's park/resume/reroute paths are all exercised.
fn chaos_schedule() -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    for i in 0..8 {
        let host = HostId((i * 37) % 128);
        faults.push(0.1, FaultEvent::BrownoutHost { host, factor: 0.3 });
        faults.push(1.0, FaultEvent::RestoreHost { host });
    }
    faults.push(0.2, FaultEvent::FailLink { link: LinkId(300) });
    faults.push(0.9, FaultEvent::RecoverLink { link: LinkId(300) });
    faults
}

fn run_once(
    kind: SchedulerKind,
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    control_latency: f64,
    sink: Option<&mut MemorySink>,
) -> RunResult {
    let mut sim = Simulation::new(
        FatTree::new(8).unwrap(),
        SimConfig {
            control_latency,
            telemetry: sink.is_some().then(TelemetryConfig::default),
            ..SimConfig::default()
        },
    );
    let mut plane = kind.build_plane();
    let sink = sink.map(|s| s as &mut dyn TelemetrySink);
    sim.try_run(jobs.to_vec(), plane.as_mut(), faults, sink)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-overhead contract: a run with the telemetry layer armed
    /// produces a bit-for-bit identical [`RunResult`] to the same run
    /// without it — under SPQ and WRR service, mid-run faults, and
    /// nonzero control latency.
    #[test]
    fn armed_telemetry_never_changes_results(
        seed in 0u64..1000,
        latency_step in 0usize..3,
    ) {
        let jobs = workload(6, seed);
        let faults = chaos_schedule();
        let latency = [0.0, 0.002, 0.008][latency_step];
        // WRR, SPQ, and the decentralized plane (the only one that
        // defers tables through ControlUpdate events, where latency
        // actually bites).
        for kind in [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaLocal,
        ] {
            let plain = run_once(kind, &jobs, &faults, latency, None);
            let mut sink = MemorySink::new();
            let traced = run_once(kind, &jobs, &faults, latency, Some(&mut sink));
            prop_assert_eq!(&plain, &traced, "telemetry changed the result");
            prop_assert!(!sink.records.is_empty(), "armed run emitted no records");
        }
    }
}

/// Like [`run_once`] with telemetry armed, but streaming into a live
/// [`MetricsSink`] — the daemon's aggregation path.
fn run_with_metrics(
    kind: SchedulerKind,
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    control_latency: f64,
    sink: &mut MetricsSink,
) -> RunResult {
    let mut sim = Simulation::new(
        FatTree::new(8).unwrap(),
        SimConfig {
            control_latency,
            telemetry: Some(TelemetryConfig::default()),
            ..SimConfig::default()
        },
    );
    let mut plane = kind.build_plane();
    sim.try_run(jobs.to_vec(), plane.as_mut(), faults, Some(sink))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The purely-observational contract of the live-metrics bridge: a
    /// run aggregating into an armed [`MetricsSink`] produces a
    /// bit-for-bit identical [`RunResult`] to the untraced run, and the
    /// registry's completion counters agree with the result.
    #[test]
    fn armed_metrics_sink_never_changes_results(
        seed in 0u64..1000,
        latency_step in 0usize..3,
    ) {
        let jobs = workload(6, seed);
        let faults = chaos_schedule();
        let latency = [0.0, 0.002, 0.008][latency_step];
        for kind in [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaLocal,
        ] {
            let plain = run_once(kind, &jobs, &faults, latency, None);
            let registry = Arc::new(Registry::new());
            let mut sink = MetricsSink::new(
                &registry,
                MetricsConfig { ref_bandwidth: 1.25e9 },
            );
            let traced = run_with_metrics(kind, &jobs, &faults, latency, &mut sink);
            prop_assert_eq!(&plain, &traced, "metrics aggregation changed the result");
            let snap = registry.snapshot();
            let done = snap
                .family("gurita_jobs_completed_total")
                .expect("counter registered")
                .series[0]
                .value;
            prop_assert_eq!(done as usize, traced.jobs.len(), "registry missed completions");
            // JCT observations must cover every job across categories.
            let jct: u64 = snap
                .family("gurita_jct_seconds")
                .expect("histogram registered")
                .series
                .iter()
                .filter_map(|s| s.histogram.as_ref())
                .map(|h| h.count)
                .sum();
            prop_assert_eq!(jct as usize, traced.jobs.len(), "JCT histogram incomplete");
        }
    }
}

#[test]
fn trace_is_well_formed_and_staleness_matches_latency() {
    const LATENCY: f64 = 0.004;
    let jobs = workload(8, 7);
    let mut sink = MemorySink::new();
    // The decentralized plane: the one that defers tables through
    // ControlUpdate events, so deliveries (and staleness) are observable.
    let result = run_once(
        SchedulerKind::GuritaLocal,
        &jobs,
        &chaos_schedule(),
        LATENCY,
        Some(&mut sink),
    );

    // Lifecycle pairing: every flow/coflow/job that starts completes,
    // and the counts agree with the RunResult.
    let count = |f: &dyn Fn(&TraceRecord) -> bool| sink.records.iter().filter(|r| f(r)).count();
    let starts = count(&|r| matches!(r, TraceRecord::FlowStart { .. }));
    let completes = count(&|r| matches!(r, TraceRecord::FlowComplete { .. }));
    assert_eq!(starts, completes, "unbalanced flow start/complete");
    assert!(starts > 0);
    assert_eq!(
        count(&|r| matches!(r, TraceRecord::CoflowActivate { .. })),
        result.coflows.len()
    );
    assert_eq!(
        count(&|r| matches!(r, TraceRecord::CoflowComplete { .. })),
        result.coflows.len()
    );
    assert_eq!(
        count(&|r| matches!(r, TraceRecord::JobComplete { .. })),
        result.jobs.len()
    );
    assert!(
        count(&|r| matches!(r, TraceRecord::Epoch(_))) > 0,
        "no epoch samples"
    );
    assert!(
        count(&|r| matches!(r, TraceRecord::FaultApplied { .. })) > 0,
        "no fault records"
    );

    // Control deliveries carry the configured latency as staleness.
    let mut deliveries = 0;
    for r in &sink.records {
        if let TraceRecord::ControlDelivered { staleness, .. } = r {
            assert!(
                (staleness - LATENCY).abs() < 1e-9,
                "staleness {staleness} != latency {LATENCY}"
            );
            deliveries += 1;
        }
    }
    assert!(deliveries > 0, "nonzero latency produced no deliveries");

    // Records stream in simulation-time order, and epoch samples stay
    // within the run.
    let mut last = 0.0f64;
    for s in sink.samples() {
        assert!(s.t >= last - 1e-12, "epoch samples out of order");
        assert!(s.t <= result.makespan + 1e-9);
        last = s.t;
    }

    // Every record serializes to a single-key (externally tagged) JSON
    // object — the JSONL schema consumers parse.
    const TAGS: &[&str] = &[
        "FlowStart",
        "FlowPark",
        "FlowResume",
        "FlowComplete",
        "CoflowActivate",
        "CoflowComplete",
        "CoflowStarved",
        "JobComplete",
        "PriorityMove",
        "ControlDelivered",
        "FaultApplied",
        "Epoch",
    ];
    for r in &sink.records {
        let line = serde_json::to_string(r).unwrap();
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let serde::Value::Map(fields) = v else {
            panic!("record is not a JSON object: {line}");
        };
        assert_eq!(fields.len(), 1, "record is not externally tagged: {line}");
        assert!(
            TAGS.contains(&fields[0].0.as_str()),
            "unknown record tag: {line}"
        );
    }
}

#[test]
fn chrome_trace_export_is_loadable_json() {
    let path = std::env::temp_dir().join("gurita_telemetry_test.trace.json");
    let mut sink = ChromeTraceSink::new(&path);
    let scenario = Scenario::trace_driven(StructureKind::FbTao, 4, 42);
    let _ = scenario.run_traced(SchedulerKind::Gurita, &mut sink);
    let written = sink.finish().unwrap();
    let text = std::fs::read_to_string(&written).unwrap();
    std::fs::remove_file(&written).ok();
    let v: serde::Value = serde_json::from_str(&text).unwrap();
    let serde::Value::Map(top) = v else {
        panic!("trace is not a JSON object");
    };
    let (_, events) = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .expect("traceEvents field");
    let serde::Value::Seq(events) = events else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty(), "empty Chrome trace");
}

/// The Drop safety net: a ChromeTraceSink that is dropped without an
/// explicit `flush()`/`finish()` still writes its trace, so daemon
/// shutdown paths (and unwinds) cannot silently lose a capture.
#[test]
fn chrome_trace_sink_flushes_on_drop() {
    let path = std::env::temp_dir().join(format!(
        "gurita_drop_flush-{}.trace.json",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    {
        let mut sink = ChromeTraceSink::new(&path);
        let scenario = Scenario::trace_driven(StructureKind::FbTao, 2, 7);
        let _ = scenario.run_traced(SchedulerKind::Gurita, &mut sink);
        // No flush()/finish(): dropping the sink must write the file.
    }
    let text = std::fs::read_to_string(&path).expect("drop wrote the trace");
    std::fs::remove_file(&path).ok();
    let v: serde::Value = serde_json::from_str(&text).expect("trace parses");
    let serde::Value::Map(top) = v else {
        panic!("trace is not a JSON object");
    };
    assert!(top.iter().any(|(k, _)| k == "traceEvents"));
}

/// Same net under a panic: the unwind drops the sink, the partial
/// trace survives on disk.
#[test]
fn chrome_trace_sink_survives_panic() {
    let path = std::env::temp_dir().join(format!(
        "gurita_panic_flush-{}.trace.json",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let target = path.clone();
    let outcome = std::panic::catch_unwind(move || {
        let mut sink = ChromeTraceSink::new(&target);
        let scenario = Scenario::trace_driven(StructureKind::FbTao, 2, 7);
        let _ = scenario.run_traced(SchedulerKind::Gurita, &mut sink);
        panic!("operator-visible failure after a traced run");
    });
    assert!(outcome.is_err(), "the closure must panic");
    let text = std::fs::read_to_string(&path).expect("unwind flushed the trace");
    std::fs::remove_file(&path).ok();
    assert!(text.contains("traceEvents"), "partial trace lost on panic");
}

/// The paper's §V observation, now measurable: strict priority starves
/// low-priority coflows while WRR's guaranteed shares do not — on the
/// same workload with the same thresholds.
#[test]
fn spq_starves_where_wrr_does_not() {
    let scenario = Scenario::trace_driven(StructureKind::FbTao, 4, 42);
    let spq = scenario.run(SchedulerKind::GuritaSpq);
    let wrr = scenario.run(SchedulerKind::Gurita);
    assert!(
        spq.total_starvation() > 0.0,
        "SPQ showed no starvation on the contended trace"
    );
    assert!(spq.max_starvation() > 0.0);
    assert_eq!(wrr.total_starvation(), 0.0, "WRR starved a coflow");
    // Per-coflow invariants: the longest interval never exceeds the
    // total, and a coflow cannot starve longer than it was active.
    for c in &spq.coflows {
        assert!(c.starved_max <= c.starved_total + 1e-12);
        assert!(c.starved_total <= c.cct() + 1e-9, "starved beyond lifetime");
    }
}
