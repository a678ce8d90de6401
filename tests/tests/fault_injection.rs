//! Failure-injection integration tests: schedulers must remain correct
//! (drain everything, conserve bytes) when parts of the fabric brown
//! out — statically at construction or dynamically mid-run, including
//! hard link failures with rerouting/parking and later recovery.

use gurita_experiments::roster::SchedulerKind;
use gurita_model::HostId;
use gurita_sim::faults::{DegradedFabric, FaultEvent, FaultSchedule};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::topology::{Fabric, FatTree};
use gurita_workload::chaos::{ChaosConfig, ChaosGenerator};
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};

fn workload(seed: u64) -> Vec<gurita_model::JobSpec> {
    JobGenerator::new(
        WorkloadConfig {
            num_jobs: 10,
            num_hosts: 128,
            structure: StructureKind::FbTao,
            category_weights: [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0],
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate()
}

fn degraded(fraction_of_hosts: f64, factor: f64) -> DegradedFabric<FatTree> {
    let fabric = FatTree::new(8).unwrap();
    let n = 128;
    (0..((n as f64 * fraction_of_hosts) as usize)).fold(DegradedFabric::new(fabric), |f, i| {
        f.with_degraded_host(HostId((i * 37) % n), factor)
    })
}

#[test]
fn all_schedulers_survive_brownouts() {
    let jobs = workload(31);
    for kind in SchedulerKind::PAPER_SET {
        let mut sim = Simulation::new(degraded(0.25, 0.2), SimConfig::default());
        let mut sched = kind.build();
        let res = sim.run(jobs.clone(), sched.as_mut());
        assert_eq!(res.jobs.len(), 10, "{kind:?} lost jobs under faults");
        let total: f64 = jobs.iter().map(|j| j.total_bytes()).sum();
        let delivered: f64 = res.coflows.iter().map(|c| c.bytes).sum();
        assert!(
            (delivered - total).abs() / total < 1e-9,
            "{kind:?} lost bytes"
        );
    }
}

#[test]
fn mid_run_degrade_restore_conserves_bytes_for_every_scheduler() {
    // A brown-out that arrives *during* the run and lifts again: every
    // paper-set scheduler must still drain all jobs and conserve bytes
    // to within 1e-9 relative error.
    let jobs = workload(33);
    let mut faults = FaultSchedule::new();
    for i in 0..32 {
        let host = HostId((i * 37) % 128);
        faults.push(0.2, FaultEvent::BrownoutHost { host, factor: 0.2 });
        faults.push(1.5, FaultEvent::RestoreHost { host });
    }
    for kind in SchedulerKind::PAPER_SET {
        let mut sim = Simulation::new(FatTree::new(8).unwrap(), SimConfig::default());
        let mut plane = kind.build_plane();
        let res = sim
            .try_run(jobs.clone(), plane.as_mut(), &faults, None)
            .unwrap_or_else(|e| panic!("{kind:?} failed under degrade/restore: {e}"));
        assert_eq!(res.jobs.len(), jobs.len(), "{kind:?} lost jobs");
        let total: f64 = jobs.iter().map(|j| j.total_bytes()).sum();
        let delivered: f64 = res.coflows.iter().map(|c| c.bytes).sum();
        assert!(
            (delivered - total).abs() / total < 1e-9,
            "{kind:?} lost bytes: {delivered} vs {total}"
        );
        assert_eq!(res.faults.len(), 64, "{kind:?} missed fault events");
    }
}

#[test]
fn fail_recover_cycle_reroutes_or_parks_without_budget_exhaustion() {
    // Hard-fail a host uplink mid-run, recover it later. Flows through
    // that NIC cannot be rerouted (it is the host's only egress), so
    // they must park and resume — never spinning the event loop into
    // EventBudgetExhausted.
    let jobs = workload(34);
    let mut faults = FaultSchedule::new();
    for h in [0usize, 5, 9] {
        faults.push(0.1, FaultEvent::FailHost { host: HostId(h) });
        faults.push(2.0, FaultEvent::RecoverHost { host: HostId(h) });
    }
    for kind in SchedulerKind::PAPER_SET {
        let mut sim = Simulation::new(FatTree::new(8).unwrap(), SimConfig::default());
        let mut plane = kind.build_plane();
        let res = sim
            .try_run(jobs.clone(), plane.as_mut(), &faults, None)
            .unwrap_or_else(|e| panic!("{kind:?} failed under fail/recover: {e}"));
        assert_eq!(res.jobs.len(), jobs.len(), "{kind:?} lost jobs");
        // Every parked flow must have resumed (the run drained).
        assert_eq!(
            res.flows_parked, res.flows_resumed,
            "{kind:?} left flows parked"
        );
    }
}

#[test]
fn chaos_acceptance_brownout_plus_core_link_failure() {
    // The issue's acceptance scenario: 25% of hosts browned out mid-run,
    // one core-facing link hard-failed, both recovered later. Every
    // paper-set scheduler must drain all jobs, conserve bytes to 1e-9
    // relative error, and finish without panics or budget exhaustion.
    let jobs = workload(35);
    let fabric = FatTree::new(8).unwrap();
    let sample_path = fabric.path(HostId(0), HostId(127), 0).unwrap();
    let core_link = sample_path[sample_path.len() / 2];
    let faults = ChaosGenerator::new(
        ChaosConfig {
            num_hosts: 128,
            brownout_fraction: 0.25,
            severity: 0.2,
            start: 0.2,
            duration: 1.5,
            fail_links: vec![core_link],
        },
        35,
    )
    .generate();
    let total: f64 = jobs.iter().map(|j| j.total_bytes()).sum();
    for kind in SchedulerKind::PAPER_SET {
        let mut sim = Simulation::new(fabric.clone(), SimConfig::default());
        let mut plane = kind.build_plane();
        let res = sim
            .try_run(jobs.clone(), plane.as_mut(), &faults, None)
            .unwrap_or_else(|e| panic!("{kind:?} failed the chaos scenario: {e}"));
        assert_eq!(res.jobs.len(), jobs.len(), "{kind:?} lost jobs");
        let delivered: f64 = res.coflows.iter().map(|c| c.bytes).sum();
        assert!(
            (delivered - total).abs() / total < 1e-9,
            "{kind:?} lost bytes: {delivered} vs {total}"
        );
        // The fault timeline is recorded for post-hoc correlation: every
        // fault that fired before the run drained, in time order. (Events
        // scheduled after the last completion are moot and unrecorded.)
        assert!(!res.faults.is_empty(), "{kind:?} recorded no faults");
        assert!(res.faults.len() <= faults.len());
        assert!(res.faults.windows(2).all(|w| w[0].at <= w[1].at));
        // A drained run cannot leave flows parked.
        assert_eq!(
            res.flows_parked, res.flows_resumed,
            "{kind:?} left flows parked"
        );
    }
}

#[test]
fn degradation_never_speeds_the_network_up() {
    let jobs = workload(32);
    let run = |fabric: DegradedFabric<FatTree>| {
        let mut sim = Simulation::new(fabric, SimConfig::default());
        let mut sched = SchedulerKind::Gurita.build();
        sim.run(jobs.clone(), sched.as_mut())
    };
    let healthy = run(degraded(0.0, 1.0));
    let browned = run(degraded(0.3, 0.2));
    // Every job's completion time is at least its healthy one (capacity
    // only shrank and scheduling inputs are identical observations of a
    // slower network — allow a small scheduling-noise slack).
    assert!(
        browned.avg_jct() >= healthy.avg_jct() * 0.95,
        "brownouts should not reduce avg JCT: {} vs {}",
        browned.avg_jct(),
        healthy.avg_jct()
    );
}

#[test]
fn single_hot_link_degradation_is_localized() {
    // Degrading one host NIC must not disturb jobs that never touch it.
    use gurita_model::units::MB;
    use gurita_model::{CoflowSpec, FlowSpec, JobDag, JobSpec};
    let untouched = JobSpec::new(
        0,
        0.0,
        vec![CoflowSpec::new(vec![FlowSpec::new(
            HostId(10),
            HostId(11),
            8.0 * MB,
        )])],
        JobDag::chain(1).unwrap(),
    )
    .unwrap();
    let through_fault = JobSpec::new(
        1,
        0.0,
        vec![CoflowSpec::new(vec![FlowSpec::new(
            HostId(0),
            HostId(1),
            8.0 * MB,
        )])],
        JobDag::chain(1).unwrap(),
    )
    .unwrap();
    let fabric = DegradedFabric::new(FatTree::with_capacity(4, MB).unwrap())
        .with_degraded_host(HostId(1), 0.5);
    let mut sim = Simulation::new(fabric, SimConfig::default());
    let mut sched = SchedulerKind::Pfs.build();
    let res = sim.run(vec![untouched, through_fault], &mut *sched);
    let j0 = res.jobs.iter().find(|j| j.id.index() == 0).unwrap();
    let j1 = res.jobs.iter().find(|j| j.id.index() == 1).unwrap();
    assert!(
        (j0.jct - 8.0).abs() < 1e-6,
        "unaffected job at line rate: {}",
        j0.jct
    );
    assert!(
        (j1.jct - 16.0).abs() < 1e-6,
        "affected job at half rate: {}",
        j1.jct
    );
}
