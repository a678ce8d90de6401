//! The Gurita scheduler: Least-Blocking-Effect-First (Algorithm 1).
//!
//! [`GuritaScheduler`] is the deployable, decentralized design: it reads
//! only receiver-side observations (bytes received per open connection,
//! open-connection counts, dependency depth learned from parent→child
//! invocations), estimates each coflow's blocking effect
//! Ψ̂ = ω̂ × L̂_max × Ŵ × κ̂, aggregates per job stage, and maps
//! Ψ̂_J(s) through exponentially-spaced thresholds onto the switch
//! priority queues. Rule 4 is satisfied with the AVA critical-path
//! estimate; starvation is mitigated by emulating SPQ with WRR weights
//! derived from priority-queue waiting times.
//!
//! The runtime enforces the paper's TCP-reordering discipline for this
//! scheduler: live flows are only ever demoted; priority raises apply to
//! subsequently started flows.

use crate::ava::AvaEstimator;
use crate::blocking::{coflow_blocking_effect, BlockingParams, CoflowFacts};
use crate::hr::DelayedDecision;
use crate::starvation::{wrr_weights, LoadEstimator};
use crate::thresholds::ThresholdLadder;
use gurita_model::{units, CoflowId, JobId};
use gurita_sim::sched::{Observation, Oracle, QueuePolicy, Scheduler};
use std::collections::HashMap;

/// Configuration of the decentralized Gurita scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct GuritaConfig {
    /// Number of switch priority queues (the evaluation uses 4; today's
    /// commodity switches support 8).
    pub num_queues: usize,
    /// Base threshold θ_0 in Ψ units (bytes × flows).
    pub threshold_base: f64,
    /// Exponential spacing factor between consecutive thresholds.
    pub threshold_factor: f64,
    /// Blocking-effect parameters (β, κ floor, γ, rule set).
    pub blocking: BlockingParams,
    /// Cap on coflows flagged as critical per job (the paper bounds the
    /// count by the number of critical paths, < 5 in production).
    pub critical_path_cap: usize,
    /// Emulate SPQ with WRR to mitigate starvation (paper §IV.B). When
    /// false, plain strict priority is used.
    pub starvation_mitigation: bool,
    /// EWMA smoothing for the per-queue arrival-rate estimator.
    pub load_alpha: f64,
    /// Reference capacity (bytes/sec) that per-queue loads are
    /// normalized by — one NIC line rate in the evaluation.
    pub reference_capacity: f64,
    /// Head-receiver coordination latency: a priority decision computed
    /// at time t takes effect at t + latency (see [`crate::hr`]).
    /// Default 0 — the paper's simulation applies decisions at δ
    /// granularity with no extra propagation delay.
    pub decision_latency: f64,
}

impl Default for GuritaConfig {
    fn default() -> Self {
        Self {
            num_queues: 4,
            threshold_base: 1.0e7,
            threshold_factor: 20.0,
            blocking: BlockingParams::default(),
            critical_path_cap: 5,
            starvation_mitigation: true,
            load_alpha: 0.3,
            reference_capacity: units::GBPS_10,
            decision_latency: 0.0,
        }
    }
}

impl GuritaConfig {
    /// Validates all parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (see field docs).
    pub fn validate(&self) {
        assert!(
            (1..=8).contains(&self.num_queues),
            "commodity switches support 1..=8 queues, got {}",
            self.num_queues
        );
        assert!(self.threshold_base > 0.0, "threshold base must be positive");
        assert!(
            self.threshold_factor > 1.0,
            "threshold factor must exceed 1"
        );
        self.blocking.validate();
        assert!(
            self.critical_path_cap >= 1,
            "critical-path cap must be >= 1"
        );
        assert!(
            self.load_alpha > 0.0 && self.load_alpha <= 1.0,
            "load alpha must be in (0, 1]"
        );
        assert!(self.reference_capacity > 0.0, "capacity must be positive");
        assert!(
            self.decision_latency >= 0.0 && self.decision_latency.is_finite(),
            "decision latency must be non-negative"
        );
    }
}

/// The decentralized Gurita scheduler. See the module docs.
#[derive(Debug)]
pub struct GuritaScheduler {
    config: GuritaConfig,
    ladder: ThresholdLadder,
    /// Per-job AVA over observed per-coflow L̂_max (critical-path
    /// estimation).
    ava: HashMap<JobId, AvaEstimator>,
    /// Last observed L̂_max per active coflow (fed into AVA on
    /// completion).
    last_lmax: HashMap<CoflowId, f64>,
    /// Bytes observed per coflow at the previous decision point, plus
    /// the queue the coflow was assigned (arrival-rate estimation).
    last_bytes: HashMap<CoflowId, (f64, usize)>,
    /// Per-coflow HR decision pipelines (propagation latency).
    decisions: HashMap<CoflowId, DelayedDecision>,
    loads: LoadEstimator,
}

impl GuritaScheduler {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GuritaConfig::validate`]).
    pub fn new(config: GuritaConfig) -> Self {
        config.validate();
        let ladder = ThresholdLadder::exponential(
            config.num_queues,
            config.threshold_base,
            config.threshold_factor,
        );
        let loads = LoadEstimator::new(
            config.num_queues,
            config.load_alpha,
            config.reference_capacity,
        );
        Self {
            config,
            ladder,
            ava: HashMap::new(),
            last_lmax: HashMap::new(),
            last_bytes: HashMap::new(),
            decisions: HashMap::new(),
            loads,
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &GuritaConfig {
        &self.config
    }

    /// Flags up to `critical_path_cap` coflows per job whose observed
    /// L̂_max exceeds the job's AVA mean — the practical Rule 4 test.
    fn critical_flags(&self, obs: &Observation) -> Vec<bool> {
        let mut flags = vec![false; obs.coflows.len()];
        for job in &obs.jobs {
            let Some(ava) = self.ava.get(&job.id) else {
                continue;
            };
            let mut candidates: Vec<(usize, f64)> = job
                .active_coflows
                .iter()
                .map(|&ci| (ci, obs.coflows[ci].max_flow_bytes_received))
                .filter(|&(_, lmax)| ava.is_above_mean(lmax))
                .collect();
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("observed bytes are finite"));
            for &(ci, _) in candidates.iter().take(self.config.critical_path_cap) {
                flags[ci] = true;
            }
        }
        flags
    }
}

impl Scheduler for GuritaScheduler {
    fn name(&self) -> String {
        "gurita".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.config.num_queues
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Vec<usize> {
        // 1. Per-coflow blocking effects from receiver-side estimates.
        let flags = self.critical_flags(obs);
        let psis: Vec<f64> = obs
            .coflows
            .iter()
            .zip(&flags)
            .map(|(c, &cp)| {
                let facts = CoflowFacts {
                    l_max: c.max_flow_bytes_received,
                    l_avg: c.avg_flow_bytes_received(),
                    width: c.open_flows,
                    completed_stages: c.dag_stage,
                    total_stages: None,
                    on_critical_path: cp,
                };
                coflow_blocking_effect(&facts, &self.config.blocking)
            })
            .collect();
        // 2. Aggregate Ψ_J(s) per (job, stage): a coflow is prioritized
        // by its job-stage aggregate, so sibling coflows in the same
        // stage share a fate (the paper's Ψ_J(s) = Σ Ψ_c).
        let mut stage_sum: HashMap<(JobId, usize), f64> = HashMap::new();
        for (c, &psi) in obs.coflows.iter().zip(&psis) {
            *stage_sum.entry((c.job, c.dag_stage)).or_insert(0.0) += psi;
        }
        // 3. Thresholds → queues, and bookkeeping for the rate estimator
        // and critical-path AVA.
        let mut assignment = Vec::with_capacity(obs.coflows.len());
        let mut queue_bytes = vec![0.0; self.config.num_queues];
        let latency = self.config.decision_latency;
        for c in &obs.coflows {
            let psi_js = stage_sum[&(c.job, c.dag_stage)];
            let target = self.ladder.queue_for(psi_js);
            let queue = self
                .decisions
                .entry(c.id)
                .or_insert_with(|| DelayedDecision::new(0))
                .decide(obs.now, latency, target);
            assignment.push(queue);
            let (prev_bytes, prev_queue) =
                self.last_bytes.get(&c.id).copied().unwrap_or((0.0, queue));
            queue_bytes[prev_queue] += (c.bytes_received - prev_bytes).max(0.0);
            self.last_bytes.insert(c.id, (c.bytes_received, queue));
            self.last_lmax.insert(c.id, c.max_flow_bytes_received);
        }
        self.loads.record(obs.now, &queue_bytes);
        assignment
    }

    fn queue_policy(&mut self, _obs: &Observation) -> QueuePolicy {
        if self.config.starvation_mitigation {
            QueuePolicy::Weighted(wrr_weights(&self.loads.loads()))
        } else {
            QueuePolicy::Strict
        }
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, _now: f64) {
        if let Some(lmax) = self.last_lmax.remove(&coflow) {
            self.ava.entry(job).or_default().observe(lmax);
        }
        self.last_bytes.remove(&coflow);
        self.decisions.remove(&coflow);
    }

    fn on_job_completed(&mut self, job: JobId, _now: f64) {
        self.ava.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag, JobSpec};
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::sched::FifoScheduler;
    use gurita_sim::topology::BigSwitch;

    const MB: f64 = units::MB;

    fn config() -> GuritaConfig {
        GuritaConfig {
            reference_capacity: 1.0 * MB,
            threshold_base: 2.0e5,
            threshold_factor: 10.0,
            ..GuritaConfig::default()
        }
    }

    fn sim() -> Simulation<BigSwitch> {
        Simulation::new(
            BigSwitch::new(16, 1.0 * MB),
            SimConfig {
                tick_interval: 0.05,
                ..SimConfig::default()
            },
        )
    }

    fn single_coflow_job(id: usize, flows: Vec<FlowSpec>) -> JobSpec {
        JobSpec::new(
            id,
            0.0,
            vec![CoflowSpec::new(flows)],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    /// Heterogeneous mix (the regime the paper's gains come from): one
    /// wide elephant job blocking a downlink plus several mice. LBEF
    /// demotes the elephant once its blocking effect crosses the first
    /// threshold, letting the mice finish near their ideal times, which
    /// lowers the average JCT versus per-flow fair sharing.
    /// No information-agnostic scheduler can separate jobs that arrived
    /// together (equal attained service), so — like the paper's trace
    /// scenarios — the gains appear once elephants have accumulated
    /// blocking effect before mice arrive.
    #[test]
    fn blocking_aware_mix_beats_fair_sharing() {
        // Elephant: 5 flows x 10 MB into host 9, arrives first; mice:
        // 1 MB singletons arriving once the elephant is established.
        let elephant = single_coflow_job(
            0,
            (0..5)
                .map(|i| FlowSpec::new(HostId(i), HostId(9), 10.0 * MB))
                .collect(),
        );
        let mice: Vec<JobSpec> = (1..5)
            .map(|j| {
                single_coflow_job(j, vec![FlowSpec::new(HostId(4 + j), HostId(9), 1.0 * MB)])
                    .with_arrival(2.0 + 0.5 * j as f64)
            })
            .collect();
        let mut jobs = vec![elephant];
        jobs.extend(mice);

        let fair = sim().run(jobs.clone(), &mut FifoScheduler::new(1));
        let mut gurita = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let blocked_aware = sim().run(jobs, &mut gurita);
        assert!(
            blocked_aware.avg_jct() < 0.8 * fair.avg_jct(),
            "gurita {} should clearly beat fair {}",
            blocked_aware.avg_jct(),
            fair.avg_jct()
        );
    }

    #[test]
    fn late_mouse_preempts_established_elephant() {
        // The elephant arrives at t=0 and accumulates blocking effect;
        // a 1 MB mouse arriving at t=5 must finish near its ideal 1 s
        // instead of the 2 s fair sharing would give it.
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 100.0 * MB)]);
        let mouse = single_coflow_job(1, vec![FlowSpec::new(HostId(1), HostId(9), 1.0 * MB)])
            .with_arrival(5.0);
        let mut gurita = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let res = sim().run(vec![elephant, mouse], &mut gurita);
        let mouse_jct = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap().jct;
        assert!(
            mouse_jct < 1.3,
            "mouse should finish near 1s under LBEF, took {mouse_jct}"
        );
    }

    #[test]
    fn starvation_mitigation_keeps_low_priority_moving() {
        // Continuous high-priority pressure; with WRR emulation the big
        // demoted job must still make progress (finite completion with
        // bounded stretch).
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 50.0 * MB)]);
        let mice: Vec<JobSpec> = (1..6)
            .map(|j| {
                JobSpec::new(
                    j,
                    (j - 1) as f64 * 10.0,
                    vec![CoflowSpec::new(vec![FlowSpec::new(
                        HostId(1),
                        HostId(9),
                        5.0 * MB,
                    )])],
                    JobDag::chain(1).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let mut jobs = vec![elephant];
        jobs.extend(mice);
        let mut with_wrr = GuritaScheduler::new(config());
        let res = sim().run(jobs, &mut with_wrr);
        assert_eq!(res.jobs.len(), 6);
    }

    #[test]
    fn new_coflows_start_at_highest_priority() {
        let mut g = GuritaScheduler::new(config());
        let obs = Observation {
            now: 0.0,
            coflows: vec![gurita_sim::sched::CoflowObs {
                id: CoflowId(0),
                job: JobId(0),
                dag_vertex: 0,
                dag_stage: 0,
                activated_at: 0.0,
                open_flows: 3,
                bytes_received: 0.0,
                max_flow_bytes_received: 0.0,
                flows: vec![],
            }],
            jobs: vec![gurita_sim::sched::JobObs {
                id: JobId(0),
                arrival: 0.0,
                completed_coflows: 0,
                completed_stages: 0,
                completed_bytes: 0.0,
                bytes_received: 0.0,
                active_coflows: vec![0],
            }],
        };
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        assert_eq!(g.assign(&obs, &oracle), vec![0]);
    }

    #[test]
    fn heavy_stage_gets_demoted() {
        let mut g = GuritaScheduler::new(config());
        let mk = |id: usize, lmax: f64, bytes: f64, width: usize| gurita_sim::sched::CoflowObs {
            id: CoflowId(id),
            job: JobId(id),
            dag_vertex: 0,
            dag_stage: 0,
            activated_at: 0.0,
            open_flows: width,
            bytes_received: bytes,
            max_flow_bytes_received: lmax,
            flows: vec![],
        };
        let obs = Observation {
            now: 1.0,
            coflows: vec![
                mk(0, 0.05 * MB, 0.1 * MB, 2),
                mk(1, 100.0 * MB, 900.0 * MB, 40),
            ],
            jobs: vec![
                gurita_sim::sched::JobObs {
                    id: JobId(0),
                    arrival: 0.0,
                    completed_coflows: 0,
                    completed_stages: 0,
                    completed_bytes: 0.0,
                    bytes_received: 0.1 * MB,
                    active_coflows: vec![0],
                },
                gurita_sim::sched::JobObs {
                    id: JobId(1),
                    arrival: 0.0,
                    completed_coflows: 0,
                    completed_stages: 0,
                    completed_bytes: 0.0,
                    bytes_received: 900.0 * MB,
                    active_coflows: vec![1],
                },
            ],
        };
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        let a = g.assign(&obs, &oracle);
        assert_eq!(a[0], 0, "tiny stage stays at top priority");
        assert!(a[1] > 0, "blocking stage must be demoted, got {:?}", a);
    }

    #[test]
    fn multi_stage_small_job_beats_tbs_intuition() {
        // A 3-stage job with tiny per-stage bytes vs a single-stage job
        // with the same total: Gurita should not punish the deep job.
        let deep = JobSpec::new(
            0,
            0.0,
            (0..3)
                .map(|s| CoflowSpec::new(vec![FlowSpec::new(HostId(s), HostId(9), 2.0 * MB)]))
                .collect(),
            JobDag::chain(3).unwrap(),
        )
        .unwrap();
        let flat = single_coflow_job(1, vec![FlowSpec::new(HostId(5), HostId(9), 6.0 * MB)]);
        let mut g = GuritaScheduler::new(GuritaConfig {
            starvation_mitigation: false,
            ..config()
        });
        let res = sim().run(vec![deep, flat], &mut g);
        assert_eq!(res.jobs.len(), 2);
        let deep_jct = res.jobs.iter().find(|j| j.id == JobId(0)).unwrap().jct;
        // Ideal deep JCT alone is 6s; with contention it must stay well
        // under double the ideal because each stage is tiny.
        assert!(deep_jct < 12.0, "deep job took {deep_jct}");
    }

    #[test]
    fn decision_latency_defers_demotion() {
        // With a large HR latency, the established elephant's demotion
        // is deferred, so a late mouse sees fair sharing for longer and
        // finishes later than with instantaneous decisions.
        let build = |latency: f64| {
            GuritaScheduler::new(GuritaConfig {
                starvation_mitigation: false,
                decision_latency: latency,
                ..config()
            })
        };
        let elephant = single_coflow_job(0, vec![FlowSpec::new(HostId(0), HostId(9), 100.0 * MB)]);
        // The mouse arrives while the slow HR's demotion message is
        // still in flight (sent ~0.5s, latency 3s), so it shares the
        // link fairly until ~3.5s under the slow configuration.
        let mouse = single_coflow_job(1, vec![FlowSpec::new(HostId(1), HostId(9), 1.0 * MB)])
            .with_arrival(2.0);
        let fast = {
            let mut g = build(0.0);
            sim().run(vec![elephant.clone(), mouse.clone()], &mut g)
        };
        let slow = {
            let mut g = build(3.0);
            sim().run(vec![elephant, mouse], &mut g)
        };
        let jct = |r: &gurita_sim::stats::RunResult| {
            r.jobs.iter().find(|j| j.id == JobId(1)).unwrap().jct
        };
        assert!(
            jct(&slow) > jct(&fast) + 0.2,
            "latency should visibly delay the mouse: {} vs {}",
            jct(&slow),
            jct(&fast)
        );
    }

    #[test]
    fn config_validation_rejects_bad_queues() {
        let cfg = GuritaConfig {
            num_queues: 9,
            ..GuritaConfig::default()
        };
        assert!(std::panic::catch_unwind(|| GuritaScheduler::new(cfg)).is_err());
    }

    #[test]
    fn completion_hooks_clean_state() {
        let mut g = GuritaScheduler::new(config());
        g.last_lmax.insert(CoflowId(5), 3.0);
        g.last_bytes.insert(CoflowId(5), (3.0, 1));
        g.on_coflow_completed(CoflowId(5), JobId(2), 1.0);
        assert!(g.last_lmax.is_empty());
        assert!(g.last_bytes.is_empty());
        assert_eq!(g.ava[&JobId(2)].count(), 1);
        g.on_job_completed(JobId(2), 2.0);
        assert!(g.ava.is_empty());
    }

    #[test]
    fn assign_survives_the_denying_oracle() {
        let mut g = GuritaScheduler::new(GuritaConfig::default());
        assert!(g
            .assign(&Observation::default(), &Oracle::deny())
            .is_empty());
        assert!(!g.reprioritizes_live_flows());
    }
}
