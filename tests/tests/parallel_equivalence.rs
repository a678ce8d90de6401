//! The intra-run parallelism determinism contract, property-tested:
//! `SimConfig::threads` must never change a [`RunResult`] — not to a
//! tolerance, **bit-for-bit** (`RunResult` equality, which covers every
//! completion time, rate-derived statistic, fault record, and counter).
//!
//! Why exact equality is the right bar (and not the 1e-9 bound the
//! incremental-vs-full tests use): at every thread count the engine
//! waterfills the same per-component subproblems — serial mode loops
//! over the components, parallel mode fans them across the pool — and
//! each per-component call is a pure function of its component's
//! demands. Parallelism only reorders *which thread* computes a
//! component, never what any component computes, so the merged rates
//! are structurally identical. The matrix crosses thread counts
//! {2, 4, 8} with SPQ and WRR disciplines, mid-run fabric faults,
//! decentralized control latencies {0, 1 ms, 10 ms}, and an armed
//! telemetry layer (composing the zero-overhead and zero-thread-drift
//! contracts). Flagship Gurita's default runs, whose weights-only passes
//! keep clean one-queue components' rates, are also pinned against
//! `force_full_recompute`.

use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_model::{HostId, JobSpec};
use gurita_sim::faults::{FaultEvent, FaultSchedule};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::{MemorySink, TelemetryConfig, TelemetrySink};
use gurita_sim::topology::{FatTree, LinkId};
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};
use proptest::prelude::*;

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

/// Brown-outs plus a hard link failure/recovery, so reroute, park, and
/// overlay-scaled capacities all land inside the parallel window.
fn chaos_schedule() -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    for i in 0..6 {
        let host = HostId((i * 37) % 128);
        faults.push(0.1, FaultEvent::BrownoutHost { host, factor: 0.4 });
        faults.push(0.9, FaultEvent::RestoreHost { host });
    }
    faults.push(0.2, FaultEvent::FailLink { link: LinkId(300) });
    faults.push(0.8, FaultEvent::RecoverLink { link: LinkId(300) });
    faults
}

fn run_once(
    kind: SchedulerKind,
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    control_latency: f64,
    threads: usize,
    telemetry: bool,
) -> RunResult {
    run_once_cfg(
        kind,
        jobs,
        faults,
        control_latency,
        threads,
        telemetry,
        false,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_once_cfg(
    kind: SchedulerKind,
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    control_latency: f64,
    threads: usize,
    telemetry: bool,
    force_full: bool,
) -> RunResult {
    let mut sim = Simulation::new(
        FatTree::new(8).unwrap(),
        SimConfig {
            control_latency,
            threads,
            telemetry: telemetry.then(TelemetryConfig::default),
            force_full_recompute: force_full,
            collect_link_stats: force_full, // exercise byte accounting too
            ..SimConfig::default()
        },
    );
    let mut plane = kind.build_plane();
    let mut sink = MemorySink::new();
    let sink = telemetry.then_some(&mut sink as &mut dyn TelemetrySink);
    sim.try_run(jobs.to_vec(), plane.as_mut(), faults, sink)
        .unwrap()
}

/// Flagship Gurita, serial, differing from the default config only in
/// `force_full_recompute`.
fn run_gurita(jobs: &[JobSpec], faults: &FaultSchedule, force_full: bool) -> RunResult {
    let mut sim = Simulation::new(
        FatTree::new(8).unwrap(),
        SimConfig {
            force_full_recompute: force_full,
            ..SimConfig::default()
        },
    );
    let mut plane = SchedulerKind::Gurita.build_plane();
    sim.try_run(jobs.to_vec(), plane.as_mut(), faults, None)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Flagship Gurita shifts its starvation-mitigation WRR weights at
    /// every decision, so a default run re-rates only the components
    /// that mix queues or cross a dirty link on most passes. It must
    /// equal the run that re-rates every component on every pass, bit
    /// for bit, with and without mid-run faults.
    #[test]
    fn gurita_default_matches_forced_full_bitwise(
        seed in 0u64..1_000,
        jobs in 6usize..14,
        with_faults in 0usize..2,
    ) {
        let jobs = workload(jobs, seed);
        let faults = if with_faults == 1 {
            chaos_schedule()
        } else {
            FaultSchedule::new()
        };
        let default = run_gurita(&jobs, &faults, false);
        let full = run_gurita(&jobs, &faults, true);
        prop_assert!(
            default == full,
            "default diverged from forced-full (faults {with_faults})"
        );
    }

    /// Serial (`threads = 1`) vs pooled (`threads ∈ {2, 4, 8}`) runs
    /// must produce bit-for-bit identical [`RunResult`]s across
    /// scheduler kind (SPQ-based Gurita, WRR ablation, decentralized
    /// Gurita@local), control latency, mid-run faults, and the armed
    /// telemetry layer.
    #[test]
    fn parallel_runs_match_serial_bitwise(
        seed in 0u64..1_000,
        jobs in 6usize..14,
        kind_idx in 0usize..3,
        latency_idx in 0usize..3,
        with_faults in 0usize..2,
        telemetry in 0usize..2,
    ) {
        let (with_faults, telemetry) = (with_faults == 1, telemetry == 1);
        let kinds = [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaLocal,
        ];
        let latencies = [0.0, 0.001, 0.01];
        let kind = kinds[kind_idx];
        let latency = latencies[latency_idx];
        let jobs = workload(jobs, seed);
        let faults = if with_faults {
            chaos_schedule()
        } else {
            FaultSchedule::new()
        };
        let serial = run_once(kind, &jobs, &faults, latency, 1, telemetry);
        for threads in [2usize, 4, 8] {
            let parallel = run_once(kind, &jobs, &faults, latency, threads, telemetry);
            prop_assert!(
                serial == parallel,
                "threads={threads} diverged from serial for {kind:?} \
                 (latency {latency}, faults {with_faults}, telemetry {telemetry})"
            );
        }
    }

    /// Same contract with `force_full_recompute` on: every event now
    /// triggers a *full* pass, which since PR 9 flows through the same
    /// per-component collection and fan-out as incremental epochs (the
    /// pool fans components or streams the discovery BFS against the
    /// waterfill). `collect_link_stats` rides along so the fanned
    /// advance's chunk-ordered byte merge is pinned on the same runs.
    /// Crosses SPQ-based Gurita, the WRR ablation, and decentralized
    /// Gurita@local with mid-run faults — threads {2, 4, 8} must stay
    /// bit-for-bit equal to serial.
    #[test]
    fn forced_full_passes_match_serial_bitwise(
        seed in 0u64..1_000,
        jobs in 6usize..12,
        kind_idx in 0usize..3,
        with_faults in 0usize..2,
    ) {
        let with_faults = with_faults == 1;
        let kinds = [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaLocal,
        ];
        let kind = kinds[kind_idx];
        let jobs = workload(jobs, seed);
        let faults = if with_faults {
            chaos_schedule()
        } else {
            FaultSchedule::new()
        };
        let serial = run_once_cfg(kind, &jobs, &faults, 0.0, 1, false, true);
        for threads in [2usize, 4, 8] {
            let parallel = run_once_cfg(kind, &jobs, &faults, 0.0, threads, false, true);
            prop_assert!(
                serial == parallel,
                "forced-full threads={threads} diverged from serial for {kind:?} \
                 (faults {with_faults})"
            );
        }
    }
}

/// The auto setting (`threads = 0`) resolves to the host's core count
/// and must obey the same contract — pinned deterministically through
/// the [`Scenario`] plumbing the experiment binaries use.
/// Oversubscription (`threads` far beyond the core count) is taken
/// literally and must still be bit-for-bit: determinism cannot depend
/// on workers actually running concurrently.
#[test]
fn oversubscribed_threads_match_serial() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = workload(8, 77);
    let serial = run_once(
        SchedulerKind::Gurita,
        &jobs,
        &FaultSchedule::new(),
        0.0,
        1,
        false,
    );
    let oversubscribed = run_once(
        SchedulerKind::Gurita,
        &jobs,
        &FaultSchedule::new(),
        0.0,
        cores + 8,
        false,
    );
    assert!(
        serial == oversubscribed,
        "threads={} diverged from serial",
        cores + 8
    );
}

#[test]
fn scenario_threads_auto_matches_serial() {
    let serial = Scenario::trace_driven(StructureKind::FbTao, 10, 33).run(SchedulerKind::Gurita);
    let mut auto = Scenario::trace_driven(StructureKind::FbTao, 10, 33);
    auto.threads = 0;
    let parallel = auto.run(SchedulerKind::Gurita);
    assert!(
        serial == parallel,
        "auto-threaded scenario run diverged from serial"
    );
}
