//! Aalo: efficient coflow scheduling without prior knowledge
//! (Chowdhury & Stoica, SIGCOMM'15).
//!
//! Aalo implements Discretized Coflow-Aware Least-Attained Service
//! (D-CLAS): a central coordinator tracks every coflow's accumulated
//! bytes sent and demotes the coflow down exponentially-spaced priority
//! queues as the count grows. Following the paper's evaluation setup,
//! "Aalo's additional delay from managing centralized system is not
//! considered … information on job is made available instantaneously to
//! the centralized controller": centralized, our Aalo sees every flow's
//! sent bytes at once and re-prioritizes live flows freely. D-CLAS needs
//! no prior knowledge, so it ranks from the observed bytes alone and
//! never reads the oracle; the same scheduler therefore also runs under
//! the decentralized control plane (`aalo@local`), where it sees only
//! what the hosts observe.
//!
//! Aalo schedules at coflow granularity: each coflow of a multi-stage
//! job re-enters the highest queue when it starts — its *own* bytes
//! reset, but the coordinator has no notion of per-stage blocking,
//! width, or critical path, which is where Gurita differentiates.

use gurita_sim::sched::{Observation, Oracle, Scheduler};
use gurita_sim::thresholds::ThresholdLadder;

/// Aalo configuration (defaults follow the Aalo paper: exponential
/// spacing E = 10 with a 10 MB first queue; 4 queues in the Gurita
/// evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct AaloConfig {
    /// Number of priority queues.
    pub num_queues: usize,
    /// First demotion threshold on the coflow's sent bytes.
    pub threshold_base: f64,
    /// Exponential spacing between thresholds.
    pub threshold_factor: f64,
}

impl Default for AaloConfig {
    fn default() -> Self {
        Self {
            num_queues: 4,
            threshold_base: 10.0e6,
            threshold_factor: 10.0,
        }
    }
}

/// The Aalo (D-CLAS) scheduler.
#[derive(Debug)]
pub struct Aalo {
    config: AaloConfig,
    ladder: ThresholdLadder,
}

impl Aalo {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= num_queues <= 8`, the base is positive, and
    /// the factor exceeds 1.
    pub fn new(config: AaloConfig) -> Self {
        assert!(
            (1..=8).contains(&config.num_queues),
            "queues must be in 1..=8"
        );
        let ladder = ThresholdLadder::exponential(
            config.num_queues,
            config.threshold_base,
            config.threshold_factor,
        );
        Self { config, ladder }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &AaloConfig {
        &self.config
    }
}

impl Scheduler for Aalo {
    fn name(&self) -> String {
        "aalo".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.config.num_queues
    }

    fn reprioritizes_live_flows(&self) -> bool {
        true // central coordinator updates priorities everywhere
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Vec<usize> {
        obs.coflows
            .iter()
            .map(|c| {
                // The coflow's sent bytes, Σ over its flows of the bytes
                // received. The runtime observes an open flow's bytes as
                // size − remaining, so this is the exact count.
                let sent: f64 = c.flows.iter().map(|f| f.bytes_received).sum();
                self.ladder.queue_for(sent)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{units::MB, CoflowSpec, FlowSpec, HostId, JobDag, JobId, JobSpec};
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::topology::BigSwitch;

    fn sim() -> Simulation<BigSwitch> {
        Simulation::new(
            BigSwitch::new(16, MB),
            SimConfig {
                tick_interval: 0.05,
                ..SimConfig::default()
            },
        )
    }

    fn job(id: usize, arrival: f64, bytes: f64, src: usize) -> JobSpec {
        JobSpec::new(
            id,
            arrival,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(src),
                HostId(9),
                bytes,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn late_mouse_beats_established_elephant() {
        let jobs = vec![job(0, 0.0, 60.0 * MB, 0), job(1, 8.0, 1.0 * MB, 1)];
        let mut a = Aalo::new(AaloConfig {
            threshold_base: 2.0 * MB,
            ..AaloConfig::default()
        });
        let res = sim().run(jobs, &mut a);
        let mouse = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap();
        assert!(
            mouse.jct < 1.2,
            "D-CLAS must favor the mouse: {}",
            mouse.jct
        );
    }

    #[test]
    fn per_stage_bytes_reset_between_coflows() {
        // A 2-stage job: heavy stage 1, tiny stage 2. Aalo's stage-2
        // coflow starts back at the top queue because D-CLAS counts per
        // coflow — verify through the simulation completing with a tiny
        // stage-2 CCT even while a competitor hogs the link.
        let deep = JobSpec::new(
            0,
            0.0,
            vec![
                CoflowSpec::new(vec![FlowSpec::new(HostId(0), HostId(9), 30.0 * MB)]),
                CoflowSpec::new(vec![FlowSpec::new(HostId(9), HostId(10), 0.5 * MB)]),
            ],
            JobDag::chain(2).unwrap(),
        )
        .unwrap();
        let hog = job(1, 0.0, 60.0 * MB, 1);
        let mut a = Aalo::new(AaloConfig {
            threshold_base: 2.0 * MB,
            ..AaloConfig::default()
        });
        let res = sim().run(vec![deep, hog], &mut a);
        let stage2 = res
            .coflows
            .iter()
            .find(|c| c.job == JobId(0) && c.dag_vertex == 1)
            .unwrap();
        assert!(
            stage2.cct() < 1.0,
            "fresh stage must restart at top priority: {}",
            stage2.cct()
        );
    }

    #[test]
    fn ranks_by_observed_bytes_under_the_denying_oracle() {
        use gurita_sim::sched::{CoflowObs, FlowObs};
        let mut aalo = Aalo::new(AaloConfig::default());
        let obs = Observation {
            now: 1.0,
            coflows: vec![
                CoflowObs {
                    id: gurita_model::CoflowId(0),
                    job: JobId(0),
                    dag_vertex: 0,
                    dag_stage: 0,
                    activated_at: 0.0,
                    open_flows: 1,
                    bytes_received: 50.0 * MB,
                    max_flow_bytes_received: 50.0 * MB,
                    flows: vec![FlowObs {
                        id: gurita_model::FlowId(0),
                        src: HostId(0),
                        bytes_received: 50.0 * MB,
                        open: true,
                    }],
                },
                CoflowObs {
                    id: gurita_model::CoflowId(1),
                    job: JobId(1),
                    dag_vertex: 0,
                    dag_stage: 0,
                    activated_at: 0.5,
                    open_flows: 1,
                    bytes_received: 1.0 * MB,
                    max_flow_bytes_received: 1.0 * MB,
                    flows: vec![FlowObs {
                        id: gurita_model::FlowId(1),
                        src: HostId(1),
                        bytes_received: 1.0 * MB,
                        open: true,
                    }],
                },
            ],
            jobs: Vec::new(),
        };
        // The denying oracle must never be touched.
        let queues = aalo.assign(&obs, &Oracle::deny());
        assert_eq!(queues.len(), 2);
        let elephant = queues[0];
        let mouse = queues[1];
        assert!(
            mouse < elephant,
            "D-CLAS demotes by sent bytes: mouse q{mouse} vs elephant q{elephant}"
        );
    }

    #[test]
    fn equal_simultaneous_jobs_tie() {
        let jobs = vec![job(0, 0.0, 5.0 * MB, 0), job(1, 0.0, 5.0 * MB, 1)];
        let mut a = Aalo::new(AaloConfig::default());
        let res = sim().run(jobs, &mut a);
        let jcts: Vec<f64> = res.jobs.iter().map(|j| j.jct).collect();
        assert!((jcts[0] - jcts[1]).abs() < 0.2, "{jcts:?}");
    }
}
