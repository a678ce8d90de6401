//! Release-mode gate for the 48-pod large-fabric fast path.
//!
//! Runs the gate workload — 40 bursty FB-Tao jobs, seed 42, on the full
//! 27,648-host fat-tree under Gurita — four ways: serial, with the
//! intra-run component pool (`threads: 0`, one worker per core), and
//! with telemetry armed into a counting [`NullSink`] and into a live
//! [`MetricsSink`]. It checks that the run drains and exercises the path
//! arena, that every variant's `RunResult` is bit-for-bit the serial
//! one, and that the variants stay within their wall-time bounds:
//!
//! * parallel/serial throughput ≥ 2.0 with 4+ cores, ≥ 0.9 otherwise
//!   (the pool must never cost 10% even with little to fan out to);
//! * each armed run ≥ 0.5× serial throughput (a sanity bound that holds
//!   on noisy runners; the telemetry cost itself is measured by the
//!   repository benchmark, perfbench's `telemetry.overhead_frac`).
//!
//! Every variant runs [`REPS`] times, interleaved, and is judged on its
//! fastest run, so one noisy sample cannot fail the gate.
//!
//! `#[ignore]`d by default: the runs take about half a minute in release mode
//! and much longer under `cargo test`'s default debug profile. CI runs
//! it with `cargo test --release -- --ignored` in a time-boxed job.

use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_metrics::Registry;
use gurita_sim::control::Centralized;
use gurita_sim::faults::FaultSchedule;
use gurita_sim::metrics::{MetricsConfig, MetricsSink};
use gurita_sim::pool::effective_threads;
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::{NullSink, TelemetryConfig, TelemetrySink};
use gurita_sim::topology::FatTree;
use gurita_workload::dags::StructureKind;
use std::time::{Duration, Instant};

/// Timed repetitions per variant.
const REPS: usize = 5;

/// One gate run: `threads` workers, telemetry armed iff `sink` is given.
fn run(
    scenario: &Scenario,
    threads: usize,
    sink: Option<&mut dyn TelemetrySink>,
) -> (RunResult, Duration) {
    let jobs = scenario.jobs();
    let fabric = FatTree::new(scenario.pods).expect("valid pods");
    let mut sim = Simulation::new(
        fabric,
        SimConfig {
            tick_interval: scenario.tick_interval,
            threads,
            telemetry: sink.is_some().then(TelemetryConfig::default),
            ..SimConfig::default()
        },
    );
    let mut sched = SchedulerKind::Gurita.build();
    let mut plane = Centralized::new(sched.as_mut());
    let start = Instant::now();
    let result = sim
        .try_run(jobs, &mut plane, &FaultSchedule::new(), sink)
        .expect("gate run failed");
    (result, start.elapsed())
}

#[test]
#[ignore = "release-mode 48-pod gate; run with --ignored"]
fn large_fabric_gate() {
    let scenario = Scenario::bursty(StructureKind::FbTao, 40, 48, 42);
    let (serial, _) = run(&scenario, 1, None); // warm-up

    assert_eq!(serial.jobs.len(), 40, "all jobs must complete");
    assert!(serial.makespan > 0.0);
    assert!(serial.events > 0);
    assert!(
        serial.path_arena_unique > 0,
        "routes must be interned through the arena"
    );
    assert!(serial.path_arena_interns >= serial.path_arena_unique as u64);
    assert!((0.0..=1.0).contains(&serial.path_arena_hit_rate));
    assert!(
        serial.path_arena_storage_bytes > 0,
        "interned routes must account for their backing storage"
    );

    let registry = Registry::new();
    let mut metrics = MetricsSink::new(
        &registry,
        MetricsConfig {
            ref_bandwidth: 1.25e9,
        },
    );
    let mut null = NullSink::new();
    let mut best = [Duration::MAX; 4];
    for _ in 0..REPS {
        let runs = [
            run(&scenario, 1, None),
            run(&scenario, 0, None),
            run(&scenario, 1, Some(&mut null)),
            run(&scenario, 1, Some(&mut metrics)),
        ];
        for (i, (result, wall)) in runs.into_iter().enumerate() {
            let name = ["serial", "parallel", "NullSink-armed", "MetricsSink-armed"][i];
            assert!(result == serial, "{name} run changed the result");
            best[i] = best[i].min(wall);
        }
    }
    assert!(null.records > 0, "armed run emitted no records");

    // Same events in every run, so throughput ratios are inverse wall
    // time ratios.
    let speedup = |i: usize| best[0].as_secs_f64() / best[i].as_secs_f64();
    let cores = effective_threads(0);
    let parallel = speedup(1);
    let floor = if cores >= 4 { 2.0 } else { 0.9 };
    println!(
        "48-pod gate: {} events, serial {:.3} s ({:.0} events/s); \
         parallel {parallel:.2}x on {cores} cores, NullSink {:.2}x, MetricsSink {:.2}x",
        serial.events,
        best[0].as_secs_f64(),
        serial.events as f64 / best[0].as_secs_f64(),
        speedup(2),
        speedup(3),
    );
    assert!(
        parallel >= floor,
        "component pool: {parallel:.2}x on {cores} cores (need >= {floor}x)"
    );
    for (i, name) in [(2, "telemetry"), (3, "metrics")] {
        assert!(
            speedup(i) >= 0.5,
            "armed {name} too slow: {:.2}x of serial",
            speedup(i)
        );
    }
}
