//! Control-plane fault-tolerance integration tests: the zero-fault
//! bit-for-bit identity, deterministic replay under chaos, graceful
//! degradation, up-front profile validation, and the telemetry
//! surfacing of fault events.

use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_model::HostId;
use gurita_sim::faults::{AgentCrash, ControlFaults, FaultSchedule, PartitionWindow};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::telemetry::{MemorySink, TraceRecord};
use gurita_sim::topology::FatTree;
use gurita_sim::SimError;
use gurita_workload::dags::StructureKind;

fn scenario(structure: StructureKind, jobs: usize, seed: u64) -> Scenario {
    let mut s = Scenario::trace_driven(structure, jobs, seed);
    // Light tail so the suite runs quickly; mice/elephant contrast is
    // preserved.
    s.workload.category_weights = [0.40, 0.25, 0.15, 0.08, 0.12, 0.0, 0.0];
    s
}

/// A deliberately nasty — but valid — profile: lossy channel, one agent
/// crash that later recovers, and a coordinator partition window.
fn chaos_profile(seed: u64) -> ControlFaults {
    ControlFaults {
        drop_prob: 0.25,
        duplicate_prob: 0.10,
        reorder_prob: 0.10,
        reorder_delay: 2e-3,
        seed,
        staleness_bound: 0.1,
        crashes: vec![AgentCrash {
            host: HostId(3),
            at: 0.05,
            restart_after: Some(0.1),
        }],
        partitions: vec![PartitionWindow {
            start: 0.2,
            duration: 0.05,
        }],
        ..ControlFaults::default()
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// The acceptance identity, as a property over workloads: arming a
    /// zero-fault (null) control-fault profile must leave both ported
    /// decentralized schemes bit-for-bit identical to the unarmed plane
    /// at every control latency — the fault machinery may not perturb a
    /// fault-free run.
    #[test]
    fn zero_fault_armed_is_bit_for_bit_identical(
        seed in 0u64..1000,
        jobs in 6usize..12,
        latency_idx in 0usize..3,
        aalo: bool,
    ) {
        let latency = [0.0f64, 1e-3, 10e-3][latency_idx];
        let kind = if aalo {
            SchedulerKind::AaloLocal
        } else {
            SchedulerKind::GuritaLocal
        };
        let mut plain = scenario(StructureKind::FbTao, jobs, seed);
        plain.control_latency = latency;
        let mut armed = plain.clone();
        armed.control_faults = Some(ControlFaults::default());
        let a = plain.run(kind);
        let b = armed.run(kind);
        proptest::prop_assert_eq!(
            &a,
            &b,
            "{:?} diverged under a null fault profile at latency {}",
            kind,
            latency
        );
    }
}

#[test]
fn fault_armed_replay_is_deterministic() {
    let mut s = scenario(StructureKind::FbTao, 20, 9);
    s.control_latency = 1e-3;
    s.control_faults = Some(chaos_profile(17));
    let a = s.run(SchedulerKind::GuritaLocal);
    let b = s.run(SchedulerKind::GuritaLocal);
    assert_eq!(a, b, "same seed and profile must replay bit-for-bit");
    assert!(
        a.control.messages_sent > 0,
        "the lossy channel was exercised"
    );
}

#[test]
fn chaos_completes_every_job_with_bounded_slowdown_and_counters() {
    let mut fresh = scenario(StructureKind::FbTao, 20, 3);
    fresh.control_latency = 1e-3;
    let mut chaotic = fresh.clone();
    chaotic.control_faults = Some(chaos_profile(5));
    let f = fresh.run(SchedulerKind::GuritaLocal);
    let c = chaotic.run(SchedulerKind::GuritaLocal);
    assert_eq!(c.jobs.len(), f.jobs.len(), "faults must not lose jobs");
    // The fault-free run carries zero resilience accounting; the
    // chaotic one must show its scars.
    assert_eq!(f.control, Default::default());
    assert!(c.control.messages_sent > 0);
    assert!(
        c.control.messages_dropped > 0,
        "25% drop must hit something"
    );
    assert_eq!(c.control.agent_crashes, 1);
    assert_eq!(c.control.agent_restarts, 1);
    assert_eq!(c.control.partitions, 1);
    // Graceful degradation, not collapse: chaos may cost, but the run
    // stays within an order of magnitude of the healthy one.
    assert!(
        c.avg_jct() <= f.avg_jct() * 10.0,
        "chaos slowdown unbounded: {} vs {}",
        c.avg_jct(),
        f.avg_jct()
    );
    assert!(
        c.avg_jct() >= f.avg_jct() * 0.5,
        "chaos should not implausibly beat the healthy run: {} vs {}",
        c.avg_jct(),
        f.avg_jct()
    );
}

fn rejected(faults: ControlFaults) -> bool {
    let fabric = FatTree::new(4).expect("valid pod count");
    let mut sim = Simulation::new(
        fabric,
        SimConfig {
            control_faults: Some(faults),
            ..SimConfig::default()
        },
    );
    let mut plane = SchedulerKind::GuritaLocal.build_plane();
    matches!(
        sim.try_run(Vec::new(), plane.as_mut(), &FaultSchedule::new(), None),
        Err(SimError::InvalidFault { .. })
    )
}

#[test]
fn invalid_control_fault_profiles_are_rejected_up_front() {
    assert!(rejected(ControlFaults {
        drop_prob: 1.5,
        ..ControlFaults::default()
    }));
    assert!(rejected(ControlFaults {
        backoff_factor: 0.5,
        ..ControlFaults::default()
    }));
    assert!(rejected(ControlFaults {
        crashes: vec![AgentCrash {
            host: HostId(1_000_000),
            at: 0.0,
            restart_after: None,
        }],
        ..ControlFaults::default()
    }));
    assert!(rejected(ControlFaults {
        partitions: vec![PartitionWindow {
            start: 0.0,
            duration: 0.0,
        }],
        ..ControlFaults::default()
    }));
}

#[test]
fn traced_chaos_surfaces_fault_records_without_perturbing_results() {
    let mut s = scenario(StructureKind::FbTao, 15, 7);
    s.control_latency = 1e-3;
    s.control_faults = Some(chaos_profile(11));
    let untraced = s.run(SchedulerKind::GuritaLocal);
    let mut sink = MemorySink::new();
    let traced = s.run_traced(SchedulerKind::GuritaLocal, &mut sink);
    assert_eq!(untraced, traced, "telemetry must never perturb scheduling");
    let has = |pred: &dyn Fn(&TraceRecord) -> bool| sink.records.iter().any(pred);
    assert!(
        has(&|r| matches!(r, TraceRecord::ControlApplied { .. })),
        "tables that survive the channel must be recorded as applied"
    );
    assert!(
        has(&|r| matches!(r, TraceRecord::ControlDropped { .. })),
        "dropped transmissions must be recorded"
    );
    assert!(
        has(&|r| matches!(r, TraceRecord::AgentCrashed { .. }))
            && has(&|r| matches!(r, TraceRecord::AgentRestarted { .. })),
        "the scheduled crash/restart must be recorded"
    );
    assert!(
        has(&|r| matches!(r, TraceRecord::Partition { .. })),
        "partition windows must be recorded"
    );
}
