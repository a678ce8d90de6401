//! Property test: component-incremental rate recomputation must agree
//! with the from-scratch full pass (`SimConfig::force_full_recompute`)
//! on every completion time — under strict-priority and
//! weighted-round-robin queue policies, and across fault-overlay
//! capacity changes (brownouts, degradations, hard failures) injected
//! mid-run. A WRR scheduler whose weights shift at every decision, as
//! Gurita's starvation-mitigation weights do, pins the weights-only
//! pass: it re-rates only the components that mix queues or cross a
//! dirty link and keeps every other component's rates.
//!
//! Since PR 9 the two modes share one canonical allocation shape — one
//! waterfill call per connected flow↔link component, whether the pass
//! re-waterfills everything or only the dirty components — so each
//! component's demand set is identical in both modes and the agreement
//! is **bitwise**: the old merged full pass (whose EPS-slack
//! stale-candidate recheck coupled freeze order across components at
//! exact floating-point ties, bounding agreement at ~1e-9 relative) is
//! gone. `check_equivalent` asserts exact equality accordingly; the
//! relative form is kept for the error messages' readability.

use gurita_model::{units::MB, CoflowSpec, FlowSpec, HostId, JobDag, JobSpec};
use gurita_sim::control::Centralized;
use gurita_sim::faults::{FaultEvent, FaultSchedule};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::sched::{Assignment, FifoScheduler, Observation, Oracle, QueuePolicy, Scheduler};
use gurita_sim::stats::RunResult;
use gurita_sim::topology::{Fabric, FatTree, LinkId};
use proptest::prelude::*;

const PODS: usize = 4;
const HOSTS: usize = 16; // k=4 fat-tree: k^3/4 hosts.

/// Minimal WRR scheduler: spreads coflows across queues round-robin and
/// serves them with fixed weights, so runs exercise the
/// `Discipline::WeightedRoundRobin` allocator path.
struct WrrScheduler {
    queues: usize,
}

impl Scheduler for WrrScheduler {
    fn name(&self) -> String {
        "wrr-test".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.queues
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Assignment {
        obs.coflows
            .iter()
            .map(|c| (c.job.index() + c.dag_vertex) % self.queues)
            .collect()
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        QueuePolicy::Weighted(vec![8.0, 4.0, 2.0, 1.0])
    }
}

/// WRR scheduler whose weights shift at every decision: each `assign`
/// re-derives them from a decision counter and the queue loads it saw
/// (state accumulated at decision time, as the `queue_policy` contract
/// allows), so back-to-back recomputations see a new weight vector and
/// incremental runs take the weights-only pass.
struct ShiftingWrrScheduler {
    weights: Vec<f64>,
    decisions: usize,
}

impl Scheduler for ShiftingWrrScheduler {
    fn name(&self) -> String {
        "shifting-wrr-test".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.weights.len()
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Assignment {
        let nq = self.weights.len();
        let queues: Assignment = obs
            .coflows
            .iter()
            .map(|c| (c.job.index() + c.dag_vertex) % nq)
            .collect();
        let mut load = vec![0usize; nq];
        for &q in &queues {
            load[q] += 1;
        }
        self.decisions += 1;
        for (q, w) in self.weights.iter_mut().enumerate() {
            let base = (8 >> q) as f64;
            *w = base * (1.0 + 0.25 * load[q] as f64) + ((self.decisions + q) % 3) as f64;
        }
        queues
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        QueuePolicy::Weighted(self.weights.clone())
    }
}

fn shifting_wrr() -> ShiftingWrrScheduler {
    ShiftingWrrScheduler {
        weights: vec![1.0; 4],
        decisions: 0,
    }
}

/// One drawn job: arrival plus a chain of single-flow stages.
type JobDraw = (f64, Vec<(usize, usize, f64)>);

fn build_jobs(draws: &[JobDraw]) -> Vec<JobSpec> {
    draws
        .iter()
        .enumerate()
        .map(|(i, (arrival, flows))| {
            let coflows: Vec<CoflowSpec> = flows
                .iter()
                .map(|&(src, dst, mb)| {
                    let dst = if dst == src { (dst + 1) % HOSTS } else { dst };
                    CoflowSpec::new(vec![FlowSpec::new(HostId(src), HostId(dst), mb * MB)])
                })
                .collect();
            let dag = JobDag::chain(coflows.len()).expect("non-empty chain");
            JobSpec::new(i, *arrival, coflows, dag).expect("valid job")
        })
        .collect()
}

/// A fault script around `start`: a host brownout with recovery, one
/// degraded host-facing link, and a hard NIC-link failure that later
/// recovers (exercising reroute/park/resume on top of scale changes).
fn build_faults(start: f64, factor: f64, host: usize) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    faults
        .push(
            start,
            FaultEvent::BrownoutHost {
                host: HostId(host),
                factor,
            },
        )
        .push(
            start + 0.1,
            FaultEvent::FailLink {
                link: LinkId(HOSTS + host),
            },
        )
        .push(
            start + 0.3,
            FaultEvent::DegradeLink {
                link: LinkId((host + 1) % HOSTS),
                factor,
            },
        )
        .push(
            start + 0.8,
            FaultEvent::RecoverLink {
                link: LinkId(HOSTS + host),
            },
        )
        .push(start + 1.0, FaultEvent::RestoreHost { host: HostId(host) })
        .push(
            start + 1.3,
            FaultEvent::RestoreLink {
                link: LinkId((host + 1) % HOSTS),
            },
        );
    faults
}

fn run_one(jobs: &[JobSpec], faults: &FaultSchedule, wrr: bool, full: bool) -> RunResult {
    let fabric = FatTree::new(PODS).expect("valid pod count");
    if wrr {
        run_with(fabric, jobs, faults, &mut WrrScheduler { queues: 4 }, full)
    } else {
        run_with(fabric, jobs, faults, &mut FifoScheduler::new(4), full)
    }
}

/// A fabric slow enough (10 MB/s links) that the drawn jobs' flows
/// overlap for tenths of a second: many flows share links at once, and
/// the fault script lands while they do.
fn slow_fabric() -> FatTree {
    FatTree::with_capacity(PODS, 10.0 * MB).expect("valid pod count")
}

fn run_with(
    fabric: FatTree,
    jobs: &[JobSpec],
    faults: &FaultSchedule,
    scheduler: &mut dyn Scheduler,
    full: bool,
) -> RunResult {
    assert_eq!(fabric.num_hosts(), HOSTS);
    let mut sim = Simulation::new(
        fabric,
        SimConfig {
            force_full_recompute: full,
            ..SimConfig::default()
        },
    );
    sim.try_run(
        jobs.to_vec(),
        &mut Centralized::new(scheduler),
        faults,
        None,
    )
    .expect("simulation failed")
}

fn rel_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Asserts the two runs completed the same jobs/coflows at bit-for-bit
/// equal times. Returns an error message for `prop_assert!`-style
/// reporting.
fn check_equivalent(inc: &RunResult, full: &RunResult) -> Result<(), String> {
    if inc.jobs.len() != full.jobs.len() || inc.coflows.len() != full.coflows.len() {
        return Err(format!(
            "completion counts diverged: {}/{} jobs, {}/{} coflows",
            inc.jobs.len(),
            full.jobs.len(),
            inc.coflows.len(),
            full.coflows.len()
        ));
    }
    let mut inc_jobs = inc.jobs.clone();
    let mut full_jobs = full.jobs.clone();
    inc_jobs.sort_by_key(|j| j.id.index());
    full_jobs.sort_by_key(|j| j.id.index());
    for (a, b) in inc_jobs.iter().zip(&full_jobs) {
        if a.id != b.id || !rel_close(a.jct, b.jct) || !rel_close(a.completed_at, b.completed_at) {
            return Err(format!(
                "job {:?} diverged: jct {} vs {}, completed {} vs {}",
                a.id, a.jct, b.jct, a.completed_at, b.completed_at
            ));
        }
    }
    let mut inc_cf = inc.coflows.clone();
    let mut full_cf = full.coflows.clone();
    inc_cf.sort_by_key(|c| (c.job.index(), c.dag_vertex));
    full_cf.sort_by_key(|c| (c.job.index(), c.dag_vertex));
    for (a, b) in inc_cf.iter().zip(&full_cf) {
        if a.job != b.job
            || a.dag_vertex != b.dag_vertex
            || !rel_close(a.cct(), b.cct())
            || !rel_close(a.completed_at, b.completed_at)
        {
            return Err(format!(
                "coflow {:?}/{} diverged: cct {} vs {}",
                a.job,
                a.dag_vertex,
                a.cct(),
                b.cct()
            ));
        }
    }
    if !rel_close(inc.makespan, full.makespan) {
        return Err(format!(
            "makespan diverged: {} vs {}",
            inc.makespan, full.makespan
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_matches_full_under_spq(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_one(&jobs, &faults, false, false);
        let full = run_one(&jobs, &faults, false, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_under_wrr(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_one(&jobs, &faults, true, false);
        let full = run_one(&jobs, &faults, true, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_under_shifting_wrr_weights(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=10,
        ),
        start in 0.1f64..2.0,
        factor in 0.2f64..0.9,
        host in 0..HOSTS,
    ) {
        let jobs = build_jobs(&draws);
        let faults = build_faults(start, factor, host);
        let inc = run_with(slow_fabric(), &jobs, &faults, &mut shifting_wrr(), false);
        let full = run_with(slow_fabric(), &jobs, &faults, &mut shifting_wrr(), true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }

    #[test]
    fn incremental_matches_full_without_faults(
        draws in prop::collection::vec(
            (0.0f64..1.5, prop::collection::vec((0..HOSTS, 0..HOSTS, 0.2f64..4.0), 1..=3)),
            2..=6,
        ),
    ) {
        let jobs = build_jobs(&draws);
        let faults = FaultSchedule::new();
        let inc = run_one(&jobs, &faults, false, false);
        let full = run_one(&jobs, &faults, false, true);
        prop_assert!(
            check_equivalent(&inc, &full).is_ok(),
            "{}",
            check_equivalent(&inc, &full).unwrap_err()
        );
    }
}
