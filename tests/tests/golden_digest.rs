//! Bit identity against recorded constants. Each test runs one small
//! simulation and hashes every job's JCT and completion time, every
//! coflow's CCT and the makespan (FNV-1a over `f64::to_bits`, records
//! sorted by id) into one 64-bit digest that must equal the constant
//! recorded for it.
//!
//! The equivalence suites compare two configurations of the *same*
//! code; these digests compare the code against its own past. A change
//! that is meant to leave results untouched (a refactor of the rate
//! recompute, a new index, a deleted mechanism) must leave every digest
//! as it is. A change that is meant to move results re-records them and
//! says why.

use gurita_experiments::roster::SchedulerKind;
use gurita_model::{HostId, JobSpec};
use gurita_sim::faults::{AgentCrash, ControlFaults, FaultEvent, FaultSchedule, PartitionWindow};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::topology::{Fabric, FatTree, LinkId};
use gurita_workload::arrivals::ArrivalProcess;
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn digest(res: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut jobs: Vec<_> = res.jobs.iter().collect();
    jobs.sort_by_key(|j| j.id);
    for j in jobs {
        feed(j.jct);
        feed(j.completed_at);
    }
    let mut coflows: Vec<_> = res.coflows.iter().collect();
    coflows.sort_by_key(|c| c.id);
    for c in coflows {
        feed(c.cct());
    }
    feed(res.makespan);
    h
}

/// `num_jobs` FB-Tao jobs on the 128 hosts of a k=8 fat-tree, arriving
/// in bursts of 10 jobs 2 µs apart, with bursts 0.5 s apart on average.
fn bursty_jobs(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    JobGenerator::new(
        WorkloadConfig {
            num_jobs,
            num_hosts: 128,
            structure: StructureKind::FbTao,
            arrivals: ArrivalProcess::Bursty {
                burst_size: 10,
                intra_gap: 2e-6,
                inter_gap: 0.5,
            },
            category_weights: [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0],
            ..WorkloadConfig::default()
        },
        seed,
    )
    .generate()
}

fn run(
    kind: SchedulerKind,
    fabric: FatTree,
    jobs: Vec<JobSpec>,
    faults: &FaultSchedule,
    force_full_recompute: bool,
) -> RunResult {
    let config = SimConfig {
        force_full_recompute,
        ..SimConfig::default()
    };
    run_with(kind, fabric, jobs, faults, config)
}

fn run_with(
    kind: SchedulerKind,
    fabric: FatTree,
    jobs: Vec<JobSpec>,
    faults: &FaultSchedule,
    config: SimConfig,
) -> RunResult {
    let mut sim = Simulation::new(fabric, config);
    let mut plane = kind.build_plane();
    sim.try_run(jobs, plane.as_mut(), faults, None).unwrap()
}

/// Fails the uplinks of hosts 0–7 (their flows park, then resume) and
/// the core uplinks of the aggregation switch above host 0 (flows of
/// pod 0 reroute through the others), each for a while.
fn park_and_reroute_faults(fabric: &FatTree) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    let mut agg_core: Vec<LinkId> = Vec::new();
    for host in 0..8 {
        let paths: Vec<Vec<LinkId>> = (0..16)
            .map(|salt| fabric.path(HostId(host), HostId(100), salt).unwrap())
            .collect();
        faults.push(0.2, FaultEvent::FailLink { link: paths[0][0] });
        faults.push(1.5, FaultEvent::RecoverLink { link: paths[0][0] });
        if host == 0 {
            agg_core = paths
                .iter()
                .filter(|p| p[1] == paths[0][1])
                .map(|p| p[2])
                .collect();
        }
    }
    agg_core.sort_unstable_by_key(|l| l.index());
    agg_core.dedup();
    for &link in &agg_core {
        faults.push(0.3, FaultEvent::FailLink { link });
        faults.push(2.5, FaultEvent::RecoverLink { link });
    }
    faults
}

/// Flagship Gurita shifts its WRR weights with queue loads, so nearly
/// every recomputation in this run is a weights-only pass.
#[test]
fn gurita_bursty_k8_digest() {
    let res = run(
        SchedulerKind::Gurita,
        FatTree::new(8).unwrap(),
        bursty_jobs(30, 7),
        &FaultSchedule::new(),
        false,
    );
    assert_eq!(res.jobs.len(), 30);
    assert_eq!(
        digest(&res),
        0x9805_1c31_ec5f_0485,
        "{:#018x}",
        digest(&res)
    );
}

/// Aalo under strict priority takes incremental passes, through link
/// failures that park, reroute and resume flows.
#[test]
fn aalo_link_failures_digest() {
    let fabric = FatTree::new(8).unwrap();
    let faults = park_and_reroute_faults(&fabric);
    let res = run(
        SchedulerKind::Aalo,
        fabric,
        bursty_jobs(30, 11),
        &faults,
        false,
    );
    assert_eq!(res.jobs.len(), 30);
    assert!(
        res.flows_parked > 0 && res.flows_resumed > 0 && res.flows_rerouted > 0,
        "parked {} resumed {} rerouted {}",
        res.flows_parked,
        res.flows_resumed,
        res.flows_rerouted
    );
    assert_eq!(
        digest(&res),
        0xd7f6_9f28_9f9e_e069,
        "{:#018x}",
        digest(&res)
    );
}

/// The same run as `gurita_bursty_k8_digest` with every pass a full
/// one: the same digest.
#[test]
fn gurita_forced_full_digest() {
    let res = run(
        SchedulerKind::Gurita,
        FatTree::new(8).unwrap(),
        bursty_jobs(30, 7),
        &FaultSchedule::new(),
        true,
    );
    assert_eq!(res.jobs.len(), 30);
    assert_eq!(
        digest(&res),
        0x9805_1c31_ec5f_0485,
        "{:#018x}",
        digest(&res)
    );
}

/// Gurita under the decentralized plane with a 5 ms control latency:
/// every table reaches the hosts through a delayed control timer, so
/// the hosts act on stale priorities between deliveries.
#[test]
fn gurita_local_delayed_digest() {
    let res = run_with(
        SchedulerKind::GuritaLocal,
        FatTree::new(8).unwrap(),
        bursty_jobs(30, 7),
        &FaultSchedule::new(),
        SimConfig {
            control_latency: 5e-3,
            ..SimConfig::default()
        },
    );
    assert_eq!(res.jobs.len(), 30);
    assert_eq!(
        digest(&res),
        0x95a5_9487_9847_25ff,
        "{:#018x}",
        digest(&res)
    );
}

/// Aalo under the decentralized plane with a lossy control channel, an
/// agent that crashes and restarts, and a coordinator partition. The
/// partition outlasts the staleness bound, so hosts fall back to
/// deciding from their own flows.
#[test]
fn aalo_local_control_faults_digest() {
    let faults = ControlFaults {
        drop_prob: 0.2,
        duplicate_prob: 0.1,
        reorder_prob: 0.1,
        reorder_delay: 2e-3,
        seed: 5,
        staleness_bound: 0.05,
        crashes: vec![AgentCrash {
            host: HostId(3),
            at: 0.1,
            restart_after: Some(0.3),
        }],
        partitions: vec![PartitionWindow {
            start: 0.6,
            duration: 0.3,
        }],
        ..ControlFaults::default()
    };
    let res = run_with(
        SchedulerKind::AaloLocal,
        FatTree::new(8).unwrap(),
        bursty_jobs(30, 11),
        &FaultSchedule::new(),
        SimConfig {
            control_latency: 1e-3,
            control_faults: Some(faults),
            ..SimConfig::default()
        },
    );
    assert_eq!(res.jobs.len(), 30);
    assert_eq!(res.control.agent_crashes, 1);
    assert_eq!(res.control.agent_restarts, 1);
    assert_eq!(res.control.partitions, 1);
    assert!(res.control.messages_dropped > 0);
    assert!(
        res.control.degraded_entries > 0,
        "no host fell back to local decisions"
    );
    assert_eq!(
        digest(&res),
        0x549d_fae4_a4d5_2f43,
        "{:#018x}",
        digest(&res)
    );
}
