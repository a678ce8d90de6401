//! Streaming job sources: iterator-of-arrivals feeding the online
//! engine.
//!
//! The offline harness materializes a whole workload up front
//! (`Vec<JobSpec>`) and hands it to `Simulation::run`. Service mode
//! inverts that: a [`JobSource`] yields jobs one at a time in arrival
//! order, and [`run_streamed`] pumps them into a steppable
//! [`Engine`] as the virtual clock reaches each arrival — at any moment
//! the engine holds at most one not-yet-arrived spec, so the paper's
//! 10k-job bursty trace no longer has to live in memory.
//!
//! Streaming is free of observable effects: [`run_streamed`] over
//! [`JobGenerator::stream`](crate::generator::JobGenerator::stream)
//! produces a [`RunResult`](gurita_sim::stats::RunResult) bit-for-bit
//! identical to the offline run of
//! [`JobGenerator::generate`](crate::generator::JobGenerator::generate)
//! (pinned by tests here and the cross-scheduler property suite).

use gurita_model::JobSpec;
use gurita_sim::runtime::{Engine, StepOutcome};
use gurita_sim::topology::Fabric;
use gurita_sim::SimError;

#[allow(unused_imports)] // doc links
use gurita_sim::runtime::SimConfig;

/// A stream of jobs in non-decreasing arrival order.
///
/// Implemented by every `Iterator<Item = JobSpec>` via the blanket
/// impl, so a materialized `Vec<JobSpec>` plugs in with `.into_iter()`
/// and the lazy
/// [`JobStream`](crate::generator::JobStream) plugs in directly. The
/// trait exists (rather than using `Iterator` bounds everywhere) so
/// daemon-side code can hold a `Box<dyn JobSource>` without naming the
/// concrete iterator type.
pub trait JobSource {
    /// The next job to admit, or `None` when the source is exhausted.
    /// Arrivals must be non-decreasing.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// Bounds on the number of jobs remaining, `(lower, upper)`;
    /// `upper` is `None` when unknown (e.g. an unbounded live source).
    fn jobs_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

impl<I: Iterator<Item = JobSpec>> JobSource for I {
    fn next_job(&mut self) -> Option<JobSpec> {
        self.next()
    }

    fn jobs_hint(&self) -> (usize, Option<usize>) {
        self.size_hint()
    }
}

/// Pumps `source` through an online engine to completion: each job is
/// submitted, then the engine runs up to that job's arrival before the
/// next spec is pulled — the engine never holds more than one
/// not-yet-arrived spec, and specs of completed jobs are dropped by the
/// engine, so peak memory tracks the *active* job set rather than the
/// trace length.
///
/// The caller constructs the engine ([`Engine::online`]) and finalizes
/// it ([`Engine::finish`]) — so telemetry, fault schedules, and
/// mid-pump inspection all compose. The popped event sequence is
/// identical to seeding every job up front, hence bit-for-bit equal to
/// the offline `Simulation::run` of the materialized workload.
///
/// # Errors
///
/// Whatever the engine's stepping returns — see
/// [`Engine::submit_job`] and [`Engine::step`]. On error the engine is
/// left at the failure point (finishable for a partial result).
pub fn run_streamed<F: Fabric>(
    engine: &mut Engine<'_, F>,
    source: &mut dyn JobSource,
) -> Result<(), SimError> {
    while let Some(job) = source.next_job() {
        let arrival = job.arrival();
        engine.submit_job(job)?;
        engine.run_until(arrival)?;
    }
    match engine.run_to_drained()? {
        StepOutcome::Drained => Ok(()),
        // Unreachable in practice: with every source job submitted, the
        // queue only runs dry once all of them completed.
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::dags::StructureKind;
    use crate::generator::{JobGenerator, WorkloadConfig};
    use gurita_model::units::MB;
    use gurita_sim::control::Centralized;
    use gurita_sim::faults::FaultSchedule;
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::sched::FifoScheduler;
    use gurita_sim::topology::BigSwitch;

    fn config(n: usize) -> WorkloadConfig {
        WorkloadConfig {
            num_jobs: n,
            num_hosts: 32,
            structure: StructureKind::ProductionMix,
            arrivals: ArrivalProcess::Bursty {
                burst_size: 5,
                intra_gap: 2e-6,
                inter_gap: 0.5,
            },
            // Mice-heavy mix: the default weights include multi-TB
            // category-VII jobs, which would dominate the suite's
            // wall-clock for no extra coverage here.
            category_weights: [0.6, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0],
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn stream_yields_exactly_what_generate_materializes() {
        let eager = JobGenerator::new(config(30), 11).generate();
        let mut stream = JobGenerator::new(config(30), 11).stream();
        let mut lazy = Vec::new();
        // Pull through the trait object path the daemon would use.
        let source: &mut dyn JobSource = &mut stream;
        assert_eq!(source.jobs_hint(), (30, Some(30)));
        while let Some(j) = source.next_job() {
            lazy.push(j);
        }
        assert_eq!(eager.len(), lazy.len());
        for (a, b) in eager.iter().zip(&lazy) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.arrival(), b.arrival());
            assert_eq!(a.total_bytes(), b.total_bytes());
            assert_eq!(a.num_flows(), b.num_flows());
        }
    }

    #[test]
    fn streamed_run_is_bit_for_bit_offline() {
        let fabric = BigSwitch::new(32, 1250.0 * MB); // 10 Gbit/s NICs
        let sim_config = SimConfig::default();

        let jobs = JobGenerator::new(config(20), 7).generate();
        let mut sched = FifoScheduler::new(1);
        let offline = Simulation::new(fabric.clone(), sim_config.clone()).run(jobs, &mut sched);

        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &sim_config, &mut plane, &FaultSchedule::new()).unwrap();
        let mut stream = JobGenerator::new(config(20), 7).stream();
        run_streamed(&mut engine, &mut stream).unwrap();
        let streamed = engine.finish();

        assert_eq!(offline, streamed, "streamed pump must be bit-for-bit");
    }

    #[test]
    fn vec_sources_plug_in_via_into_iter() {
        let jobs = JobGenerator::new(config(5), 3).generate();
        let mut source = jobs.clone().into_iter();
        let mut n = 0;
        while let Some(j) = JobSource::next_job(&mut source) {
            assert_eq!(j.id(), jobs[n].id());
            n += 1;
        }
        assert_eq!(n, 5);
    }
}
