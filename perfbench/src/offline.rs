//! The offline workloads: a paper-shaped trace run to completion under
//! the flagship `Gurita` scheduler, as a batch.
//!
//! An untraced run simulates distinct instances of the workload — the
//! trace of [`instance_seed`]`(seed, k)` for `k = 0, 1, …` — until at
//! least [`MIN_INSTANCES`] are done and `--seconds` have passed, so that
//! its throughput averages over several traces rather than resting on
//! one. The JCT fingerprint is instance 0's, so it does not depend on
//! how many fit. The end-to-end timings are rescaled to the nominal host
//! of [`crate::calibrate`], timed before every instance.

use crate::calibrate::{Kernel, NOMINAL_S};
use crate::daemon::{named, protocol_frames};
use crate::drive::{self, Admission, Rep};
use crate::inputs::{instance_seed, workload};
use crate::report::{
    engine_layers, jct_checks, peak_rss_mb, report_fingerprint, same_bits, secs, service_layers,
    Checks, Metrics, ServiceFigures, TracedRun,
};
use crate::stats::median;
use crate::trace::{maybe, Shared, Tracer};
use gurita_experiments::scenario::Scenario;
use gurita_model::units::GBPS_10;
use gurita_sim::runtime::SimConfig;
use gurita_sim::telemetry::TelemetryConfig;
use gurita_sim::topology::FatTree;
use gurita_workload::dags::StructureKind;
use std::time::Instant;

/// Jobs in the Fig. 7 prefix: the paper's 48-pod bursty shape, cut to
/// what repeats within one run (the 10,000-job run takes hours).
const FIG7_JOBS: usize = 150;

/// Jobs in the Fig. 6 "CD-t" run.
const FIG6_JOBS: usize = 400;

/// Instances an untraced run simulates at least.
pub const MIN_INSTANCES: usize = 3;

/// The scenario a workload name selects, or `None` for a name that is
/// not an offline workload. Its seed is replaced per instance.
pub fn scenario(workload: &str) -> Option<Scenario> {
    match workload {
        "fig7_k48_burst" => Some(Scenario::bursty(StructureKind::FbTao, FIG7_JOBS, 48, 0)),
        "fig6_k8_tpcds" => Some(Scenario::trace_driven(StructureKind::TpcDs, FIG6_JOBS, 0)),
        _ => None,
    }
}

/// One instance: generate, build, submit, run until every job is done.
struct Instance {
    generate_s: f64,
    build_s: f64,
    rep: Rep,
}

impl Instance {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.rep.submit_s
    }
}

fn once(sc: &Scenario, seed: u64, tracer: Option<&Shared>) -> Result<Instance, String> {
    let t = Instant::now();
    let jobs = maybe(tracer, "workload.generate", || workload(&sc.workload, seed));
    let generate_s = secs(t);
    let t = Instant::now();
    let fabric =
        maybe(tracer, "topology.build", || FatTree::new(sc.pods)).map_err(|e| e.to_string())?;
    let build_s = secs(t);
    let config = SimConfig {
        tick_interval: sc.tick_interval,
        threads: 1,
        telemetry: tracer.map(|_| TelemetryConfig::default()),
        ..SimConfig::default()
    };
    let rep = drive::run(
        jobs,
        Admission::AllAtStart,
        &fabric,
        &config,
        GBPS_10,
        tracer,
    )?;
    Ok(Instance {
        generate_s,
        build_s,
        rep,
    })
}

/// Untraced instances of workload `name`, each after a timing of the
/// calibration kernel: the end-to-end metrics, rescaled to the nominal
/// host.
pub fn end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let sc = &scenario(name).expect("caller checked the workload name");
    let n = sc.workload.num_jobs;
    let kernel = Kernel::new();
    let start = Instant::now();
    let (mut kernel_s, mut jobs_per_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    while jobs_per_s.len() < MIN_INSTANCES || secs(start) < seconds {
        let k = jobs_per_s.len() as u64;
        kernel_s.push(kernel.measure());
        let r = once(sc, instance_seed(seed, k), None)?;
        jct_checks(&r.rep.result, n, checks);
        if k == 0 {
            report_fingerprint(name, seed, &r.rep.result);
        }
        eprintln!(
            "  instance {k}: {} events in {:.3} s; kernel {:.4} s",
            r.rep.result.events,
            r.rep.drain_s,
            kernel_s[kernel_s.len() - 1]
        );
        jobs_per_s.push(n as f64 / r.rep.drain_s);
        setup_s.push(r.setup_s());
    }
    let speed = median(&kernel_s) / NOMINAL_S;
    eprintln!(
        "{name}: {} instances; on this host {} jobs/s and {} s set-up; \
         the nominal host is {speed}x as fast",
        jobs_per_s.len(),
        median(&jobs_per_s),
        median(&setup_s)
    );
    let mut m = Metrics::default();
    m.push("jobs_per_s", median(&jobs_per_s) * speed, "1/s");
    m.push("setup_s", median(&setup_s) / speed, "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(m)
}

/// Untraced/traced pairs of instance 0 for `seconds`: the per-layer
/// metrics. The `client`, `server` and `registry` figures are their
/// in-process counterparts from the untraced runs: `Engine::submit_job`
/// and the between-slice query for submit and read requests, the run to
/// drained for `drain`, the longest slice for the longest wait, and no
/// late requests or held submits. Returns the tracer holding every span.
pub fn per_layer(
    name: &str,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<(Metrics, Shared), String> {
    let sc = &scenario(name).expect("caller checked the workload name");
    let run_seed = seed;
    let seed = instance_seed(seed, 0);
    let tracer = Tracer::shared();
    let start = Instant::now();
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut service = ServiceFigures::default();
    while runs.is_empty() || secs(start) < seconds {
        let plain = once(sc, seed, None)?;
        let p = &plain.rep;
        service.submit_ms.extend(&p.submit_ms);
        service.query_ms.extend(&p.query_ms);
        service.drain_s.push(p.drain_s);
        service.lag_max_ms.push(p.slice_max_ms);
        service
            .events_per_s
            .push(p.result.events as f64 / p.drain_s);
        service.held_at_submit.push(0.0);
        let id = runs.len() as u32;
        tracer.borrow_mut().begin_run(id);
        let traced = once(sc, seed, Some(&tracer))?;
        jct_checks(&traced.rep.result, sc.workload.num_jobs, checks);
        if runs.is_empty() {
            report_fingerprint(name, run_seed, &traced.rep.result);
        }
        checks.check(same_bits(&plain.rep.result, &traced.rep.result), || {
            "traced run differs from the untraced run".into()
        });
        let run = TracedRun::new(
            id,
            &plain.rep,
            traced.rep,
            &tracer,
            traced.generate_s,
            traced.build_s,
        );
        if let Some(first) = runs.first() {
            checks.check(first.counts() == run.counts(), || {
                "traced counts differ between repetitions".into()
            });
        }
        runs.push(run);
    }
    let mut m = engine_layers(&runs, tracer.borrow().spans(), checks);
    let jobs = named(workload(&sc.workload, seed), |_| Vec::new());
    m.0.extend(protocol_frames(&jobs, &tracer, checks).0);
    m.0.extend(service_layers(&service).0);
    Ok((m, tracer))
}
