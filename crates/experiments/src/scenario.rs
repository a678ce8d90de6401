//! Scenario plumbing: fabric + workload + scheduler replay.
//!
//! A [`Scenario`] pins a fat-tree size, a workload configuration, and a
//! seed; [`Scenario::run_all`] replays the *byte-identical* workload
//! under every requested scheduler so that differences in the results
//! are attributable to scheduling alone.

use crate::roster::SchedulerKind;
use gurita_model::JobSpec;
use gurita_sim::faults::{ControlFaults, FaultSchedule};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::{TelemetryConfig, TelemetrySink};
use gurita_sim::topology::FatTree;
use gurita_workload::arrivals::ArrivalProcess;
use gurita_workload::dags::StructureKind;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};
use parking_lot::Mutex;

/// One evaluation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Fat-tree pod count (8 for the trace scenarios, 48 for the paper's
    /// large-scale bursty run).
    pub pods: usize,
    /// Workload parameters (structure, arrivals, category mix…).
    pub workload: WorkloadConfig,
    /// Workload seed.
    pub seed: u64,
    /// Scheduler update interval δ.
    pub tick_interval: f64,
    /// Decision-propagation latency for decentralized kinds (see
    /// [`SimConfig::control_latency`]). Ignored by centralized planes.
    pub control_latency: f64,
    /// Optional control-plane fault profile (lossy channels, agent
    /// crashes, coordinator partitions — see
    /// [`gurita_sim::faults::ControlFaults`]). `None` runs the fault-free
    /// control plane.
    pub control_faults: Option<ControlFaults>,
    /// Intra-run worker threads for the engine's rate recomputation
    /// (see [`SimConfig::threads`]): `1` = serial (the default), `0` =
    /// one per available core. Results are bit-for-bit identical at
    /// every setting.
    pub threads: usize,
}

impl Scenario {
    /// A trace-driven scenario on the 8-pod fabric (Figures 5–6): steady
    /// Poisson arrivals of `num_jobs` jobs shaped by `structure`.
    pub fn trace_driven(structure: StructureKind, num_jobs: usize, seed: u64) -> Self {
        let pods = 8;
        let hosts = pods * pods * pods / 4;
        Self {
            name: format!("trace/{structure:?}"),
            pods,
            workload: WorkloadConfig {
                num_jobs,
                num_hosts: hosts,
                structure,
                arrivals: ArrivalProcess::Poisson { mean_gap: 0.02 },
                ..WorkloadConfig::default()
            },
            seed,
            tick_interval: 10e-3,
            control_latency: 0.0,
            control_faults: None,
            threads: 1,
        }
    }

    /// A bursty scenario (Figure 5's `-b` columns and Figure 7): jobs
    /// arrive in batches with 2 µs intra-burst gaps on a fabric of
    /// `pods` pods.
    pub fn bursty(structure: StructureKind, num_jobs: usize, pods: usize, seed: u64) -> Self {
        let hosts = pods * pods * pods / 4;
        Self {
            name: format!("burst/{structure:?}/k{pods}"),
            pods,
            workload: WorkloadConfig {
                num_jobs,
                num_hosts: hosts,
                structure,
                arrivals: ArrivalProcess::Bursty {
                    burst_size: 25,
                    intra_gap: 2e-6,
                    inter_gap: 4.0,
                },
                ..WorkloadConfig::default()
            },
            seed,
            tick_interval: 10e-3,
            control_latency: 0.0,
            control_faults: None,
            threads: 1,
        }
    }

    /// Generates the scenario's workload (deterministic per seed).
    pub fn jobs(&self) -> Vec<JobSpec> {
        JobGenerator::new(self.workload.clone(), self.seed).generate()
    }

    /// Runs one scheduler over the scenario's workload.
    ///
    /// # Panics
    ///
    /// Panics if the fabric cannot be built or the simulation fails (see
    /// [`Simulation::try_run`]).
    pub fn run(&self, kind: SchedulerKind) -> RunResult {
        self.run_with_jobs(kind, self.jobs(), &FaultSchedule::new(), None)
    }

    /// Runs one scheduler with the telemetry layer armed, streaming
    /// every [`gurita_sim::telemetry::TraceRecord`] into `sink`. The
    /// returned [`RunResult`] is bit-for-bit what [`Scenario::run`]
    /// produces — telemetry never perturbs scheduling.
    ///
    /// # Panics
    ///
    /// Same as [`Scenario::run`].
    pub fn run_traced(&self, kind: SchedulerKind, sink: &mut dyn TelemetrySink) -> RunResult {
        self.run_with_jobs(kind, self.jobs(), &FaultSchedule::new(), Some(sink))
    }

    /// The one run path: telemetry is armed exactly when a sink is given.
    fn run_with_jobs(
        &self,
        kind: SchedulerKind,
        jobs: Vec<JobSpec>,
        faults: &FaultSchedule,
        sink: Option<&mut dyn TelemetrySink>,
    ) -> RunResult {
        let fabric = FatTree::new(self.pods).expect("valid pod count");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: self.tick_interval,
                control_latency: self.control_latency,
                control_faults: self.control_faults.clone(),
                threads: self.threads,
                telemetry: sink.is_some().then(TelemetryConfig::default),
                ..SimConfig::default()
            },
        );
        let mut plane = kind.build_plane();
        let mut result = sim
            .try_run(jobs, plane.as_mut(), faults, sink)
            .expect("simulation failed; see SimError for details");
        result.scheduler = kind.label().to_owned();
        result
    }

    /// Replays the byte-identical workload under every scheduler,
    /// returning results in `kinds` order. Runs are spread across
    /// threads (scoped; results collected through a mutex) — on a
    /// single-core host this degrades gracefully to sequential
    /// execution.
    pub fn run_all(&self, kinds: &[SchedulerKind]) -> Vec<RunResult> {
        self.run_all_with_faults(kinds, &FaultSchedule::new())
    }

    /// [`Scenario::run_all`] with a fault schedule injected into every
    /// run, so scheduler comparisons under faults stay byte-identical
    /// on both the workload and the fault script.
    pub fn run_all_with_faults(
        &self,
        kinds: &[SchedulerKind],
        faults: &FaultSchedule,
    ) -> Vec<RunResult> {
        let jobs = self.jobs();
        let slots: Mutex<Vec<Option<RunResult>>> = Mutex::new(vec![None; kinds.len()]);
        crossbeam::scope(|scope| {
            for (i, &kind) in kinds.iter().enumerate() {
                let jobs = jobs.clone();
                let slots = &slots;
                scope.spawn(move |_| {
                    let result = self.run_with_jobs(kind, jobs, faults, None);
                    slots.lock()[i] = Some(result);
                });
            }
        })
        .expect("scenario worker panicked");
        slots
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every scheduler produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(structure: StructureKind) -> Scenario {
        let mut s = Scenario::trace_driven(structure, 12, 5);
        s.workload.category_weights = [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0];
        s
    }

    #[test]
    fn workload_is_deterministic() {
        let s = tiny(StructureKind::FbTao);
        let a = s.jobs();
        let b = s.jobs();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_bytes(), y.total_bytes());
        }
    }

    #[test]
    fn run_all_completes_every_job_for_every_scheduler() {
        let s = tiny(StructureKind::TpcDs);
        let results = s.run_all(&[SchedulerKind::Pfs, SchedulerKind::Gurita]);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(
                r.jobs.len(),
                12,
                "{} completed {}",
                r.scheduler,
                r.jobs.len()
            );
        }
        assert_eq!(results[0].scheduler, "PFS");
        assert_eq!(results[1].scheduler, "Gurita");
    }

    #[test]
    fn bursty_scenario_generates_bursts() {
        let s = Scenario::bursty(StructureKind::FbTao, 30, 4, 2);
        let jobs = s.jobs();
        // First burst: tightly packed arrivals.
        let gap = jobs[1].arrival() - jobs[0].arrival();
        assert!(gap <= 2.1e-6, "intra-burst gap {gap}");
    }
}
