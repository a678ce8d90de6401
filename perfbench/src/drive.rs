//! Drives one engine through its public API the way the daemon does:
//! jobs go in through `Engine::submit_job`, the engine runs in slices
//! of [`SLICE`] events, and after each slice the read side of a `stats`
//! request is timed.

use crate::report::{ms, secs};
use crate::trace::{maybe, Shared, TimedScheduler, TimedSink};
use gurita_experiments::roster::SchedulerKind;
use gurita_metrics::Registry as MetricsRegistry;
use gurita_model::{JobId, JobSpec};
use gurita_sim::control::{Centralized, ControlPlane};
use gurita_sim::faults::FaultSchedule;
use gurita_sim::metrics::{MetricsConfig, MetricsSink};
use gurita_sim::runtime::{Engine, JobPhase, SimConfig, StepOutcome};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::TelemetrySink;
use gurita_sim::topology::Fabric;
use gurita_sim::SimError;
use std::hint::black_box;
use std::time::Instant;

/// Events per slice between harvests and queries: a quarter of the
/// daemon's as-fast-as-possible slice, so that the shortest offline
/// workload still yields enough queries for a p95.
const SLICE: u64 = 128;

/// When jobs enter the engine.
#[derive(Debug, Clone, Copy)]
pub enum Admission {
    /// Every job before the first step: the offline batch run, bit for
    /// bit (the engine's admission invariant).
    AllAtStart,
    /// The next job each time the engine drains: a client the engine
    /// keeps up with, as the daemon is at an offered rate it sustains.
    WhenDrained,
}

/// Wall-clock figures of one engine run.
#[derive(Debug)]
pub struct Rep {
    /// Seconds spent submitting before the first step.
    pub submit_s: f64,
    /// Seconds from the first step until drained.
    pub drain_s: f64,
    /// Latency of each `Engine::submit_job` call, ms.
    pub submit_ms: Vec<f64>,
    /// Latency of each between-slice query, ms.
    pub query_ms: Vec<f64>,
    /// Longest slice, ms: the longest a request arriving mid-slice
    /// would wait for the engine.
    pub slice_max_ms: f64,
    /// Durations of traced steps during which `queue_policy` ran, µs.
    pub recompute_us: Vec<f64>,
    /// Durations of the other traced steps, µs.
    pub light_us: Vec<f64>,
    /// The engine's result.
    pub result: RunResult,
}

/// The read side of a daemon `stats` request: every job's phase plus
/// the engine counters.
fn engine_error(e: SimError) -> String {
    format!("engine: {e}")
}

fn stats_query<F: Fabric>(engine: &Engine<'_, F>, jobs: usize) -> usize {
    let running = (0..jobs)
        .filter(|&id| matches!(engine.job_phase(JobId(id)), JobPhase::Running { .. }))
        .count();
    running
        + engine.pending_events()
        + engine.open_flows()
        + engine.open_coflows()
        + usize::from(engine.drained())
        + engine.events_processed() as usize
}

/// Runs `jobs` on `fabric` under `Gurita` until every job completed. An armed
/// `config.telemetry` records into a `MetricsSink`, as the daemon's
/// does. With a tracer, the scheduler and the sink are wrapped in
/// `core.*` and `telemetry.*` spans, and every `submit_job` and `step`
/// call is a span.
pub fn run<F: Fabric>(
    jobs: Vec<JobSpec>,
    admission: Admission,
    fabric: &F,
    config: &SimConfig,
    ref_bandwidth: f64,
    tracer: Option<&Shared>,
) -> Result<Rep, String> {
    let mut plane: Box<dyn ControlPlane> = match tracer {
        None => SchedulerKind::Gurita.build_plane(),
        Some(t) => Box::new(Centralized::new(TimedScheduler::new(
            SchedulerKind::Gurita.build(),
            t.clone(),
        ))),
    };
    let metrics = MetricsRegistry::new();
    let mut sink: Option<Box<dyn TelemetrySink>> = config.telemetry.as_ref().map(|_| {
        let inner = MetricsSink::new(&metrics, MetricsConfig { ref_bandwidth });
        match tracer {
            None => Box::new(inner) as Box<dyn TelemetrySink>,
            Some(t) => Box::new(TimedSink::new(inner, t.clone())),
        }
    });
    let faults = FaultSchedule::new();
    let mut engine = match sink.as_deref_mut() {
        None => Engine::online(fabric, config, plane.as_mut(), &faults),
        Some(sink) => Engine::online_traced(fabric, config, plane.as_mut(), &faults, sink),
    }
    .map_err(engine_error)?;

    let t0 = Instant::now();
    let n = jobs.len();
    let mut pending = jobs.into_iter();
    let mut submit_ms = Vec::with_capacity(n);
    let mut submit = |engine: &mut Engine<'_, F>, job: JobSpec| -> Result<(), String> {
        let t = Instant::now();
        maybe(tracer, "runtime.submit_job", || engine.submit_job(job)).map_err(engine_error)?;
        submit_ms.push(ms(t));
        Ok(())
    };
    let upfront = match admission {
        Admission::AllAtStart => n,
        Admission::WhenDrained => 1,
    };
    for job in pending.by_ref().take(upfront) {
        submit(&mut engine, job)?;
    }
    let submit_s = secs(t0);

    let t1 = Instant::now();
    let (mut recompute_us, mut light_us, mut query_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut slice_max_ms = 0.0f64;
    loop {
        let slice = Instant::now();
        let outcome = match tracer {
            None => engine.run_for(SLICE).map_err(engine_error)?,
            Some(t) => {
                let mut outcome = StepOutcome::Advanced;
                for _ in 0..SLICE {
                    let policies = t.borrow().policy_calls;
                    let id = t.borrow_mut().enter("runtime.step");
                    let stepped = engine.step();
                    let mut tr = t.borrow_mut();
                    tr.exit(id);
                    let us = tr.spans()[id].dur() as f64 / 1e3;
                    if tr.policy_calls > policies {
                        recompute_us.push(us);
                    } else {
                        light_us.push(us);
                    }
                    outcome = stepped.map_err(engine_error)?;
                    if outcome != StepOutcome::Advanced {
                        break;
                    }
                }
                outcome
            }
        };
        slice_max_ms = slice_max_ms.max(ms(slice));
        match outcome {
            StepOutcome::Advanced => {
                let t = Instant::now();
                black_box(stats_query(&engine, n));
                query_ms.push(ms(t));
            }
            StepOutcome::Drained => match pending.next() {
                Some(job) => submit(&mut engine, job)?,
                None => break,
            },
            StepOutcome::Idle => return Err("engine idle with jobs outstanding".into()),
        }
    }
    let drain_s = secs(t1);
    let result = engine.finish();
    Ok(Rep {
        submit_s,
        drain_s,
        submit_ms,
        query_ms,
        slice_max_ms,
        recompute_us,
        light_us,
        result,
    })
}
