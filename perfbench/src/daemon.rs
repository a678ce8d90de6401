//! `guritad_stream`: the online-arrivals traffic served in-process by
//! `daemon::server::serve` with its defaults, driven open loop over one
//! connection.
//!
//! One client thread sends requests on a fixed schedule, one every
//! `1 / RATE` seconds: each submit followed by a read (`queue`, `stats`,
//! `metrics` in turn), then `drain`. Each request is
//! timed from when it was due, so a stall also counts against the
//! requests queued behind it. A run starts a fresh daemon per instance
//! of the stream until `--seconds` have passed.
//!
//! The daemon owns its engine, so the engine-side layers are measured
//! on a replay of instance 0: the daemon's fabric, configuration,
//! scheduler and always-armed `MetricsSink`, each job submitted when
//! the engine has drained the one before — the daemon at an offered
//! rate it keeps up with.

use crate::calibrate::{Kernel, NOMINAL_S};
use crate::drive::{self, Admission, Rep};
use crate::inputs::{instance_seed, workload};
use crate::report::{
    engine_layers, jct_checks, ms, peak_rss_mb, report_fingerprint, same_bits, secs,
    service_layers, Checks, Metrics, ServiceFigures, TracedRun,
};
use crate::stats::median;
use crate::trace::{maybe, Shared, Tracer};
use gurita_daemon::client::Client;
use gurita_daemon::protocol::{read_line, write_line, Request};
use gurita_daemon::server::{serve, DaemonConfig, ServeReport};
use gurita_experiments::roster::SchedulerKind;
use gurita_model::JobSpec;
use gurita_sim::runtime::SimConfig;
use gurita_sim::telemetry::TelemetryConfig;
use gurita_sim::topology::BigSwitch;
use gurita_workload::arrivals::ArrivalProcess;
use gurita_workload::generator::WorkloadConfig;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Hosts of the daemon's big-switch fabric.
const HOSTS: usize = 128;

/// Jobs per instance of the stream.
const JOBS: usize = 60;

/// Offered request rate, requests per second.
const RATE: f64 = 10.0;

/// A request sent more than this after it was due counts as late.
const LATE_MS: f64 = 1.0;

/// A job with its client-side name and the names it depends on.
pub type NamedJob = (String, Vec<String>, JobSpec);

/// Names `jobs` as a client would: `job-00000`, …
pub fn named(jobs: Vec<JobSpec>, deps: impl Fn(usize) -> Vec<String>) -> Vec<NamedJob> {
    jobs.into_iter()
        .enumerate()
        .map(|(i, job)| (format!("job-{i:05}"), deps(i), job))
        .collect()
}

/// The E13 online-arrivals stream: bursty ProductionMix jobs on the
/// 128-host fabric.
fn stream(seed: u64) -> Vec<JobSpec> {
    let config = WorkloadConfig {
        num_jobs: JOBS,
        num_hosts: HOSTS,
        arrivals: ArrivalProcess::Bursty {
            burst_size: 8,
            intra_gap: 2e-6,
            inter_gap: 0.05,
        },
        ..WorkloadConfig::default()
    };
    workload(&config, seed)
}

/// Every 5th job depends on its predecessor and every 50th on its two
/// predecessors, as in E13.
fn e13_deps(i: usize) -> Vec<String> {
    if i > 1 && i.is_multiple_of(50) {
        vec![format!("job-{:05}", i - 1), format!("job-{:05}", i - 2)]
    } else if i > 0 && i.is_multiple_of(5) {
        vec![format!("job-{:05}", i - 1)]
    } else {
        Vec::new()
    }
}

/// One request of the open-loop plan.
#[derive(Clone, Copy)]
enum Op {
    Submit(usize),
    Queue,
    Stats,
    Metrics,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Submit(_) => "client.submit",
            Op::Queue => "client.queue",
            Op::Stats => "client.stats",
            Op::Metrics => "client.metrics",
        }
    }
}

/// Each submit followed by a read, the reads cycling through `queue`,
/// `stats` and `metrics`.
fn plan() -> Vec<Op> {
    let reads = [Op::Queue, Op::Stats, Op::Metrics];
    (0..JOBS)
        .flat_map(|i| [Op::Submit(i), reads[i % reads.len()]])
        .collect()
}

/// What one daemon lifetime measured.
struct Live {
    stream_s: f64,
    drain_s: f64,
    completed: usize,
    submit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    late: usize,
    requests: usize,
    lag_max_ms: f64,
    events: u64,
    held_at_submit: usize,
}

/// Sleeps until shortly before `due`, then spins, so that the send time
/// does not carry the sleep's wake-up overshoot.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn connect(socket: &Path) -> io::Result<Client> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// The daemon under test: the defaults, on the workload's fabric, with
/// the flagship scheduler and one engine thread.
fn start() -> (PathBuf, std::thread::JoinHandle<io::Result<ServeReport>>) {
    let socket = PathBuf::from(format!("guritad-{}.sock", std::process::id()));
    let config = DaemonConfig {
        socket: socket.clone(),
        hosts: HOSTS,
        scheduler: SchedulerKind::Gurita,
        threads: 1,
        ..DaemonConfig::default()
    };
    (socket, std::thread::spawn(move || serve(&config)))
}

/// Daemon starts timed per run for `setup_s`.
const SETUP_SAMPLES: usize = 15;

/// One set-up: generate instance `seed`'s jobs and start a daemon until
/// its socket takes a connection; then check that it answers and shut it
/// down. The first reply itself is left out: it waits 0 or 5 ms on the
/// daemon's accept poll by a race between the acceptor's first poll and
/// the connect, which swung the median start-to-reply time between 0.5
/// and 5.6 ms from run to run.
fn setup_once(seed: u64) -> io::Result<f64> {
    let t = Instant::now();
    black_box(named(stream(seed), e13_deps));
    let (socket, daemon) = start();
    let mut client = connect(&socket)?;
    let setup_s = secs(t);
    client.ping()?;
    client.shutdown()?;
    daemon
        .join()
        .map_err(|_| io::Error::other("daemon thread panicked"))??;
    Ok(setup_s)
}

/// Generates instance `seed`, starts a daemon, streams the jobs at it on
/// the open-loop plan and drains it. The drain must account for every
/// submit, and every job must complete with a finite JCT.
fn live(seed: u64, tracer: Option<&Shared>, checks: &mut Checks) -> io::Result<Live> {
    let jobs = named(stream(seed), e13_deps);
    let (socket, daemon) = start();
    let result = stream_to(&jobs, &socket, tracer, checks);
    if result.is_err() {
        // The stream broke off before `drain`: stop the daemon so that
        // joining it cannot hang. A daemon that never bound has exited.
        let _ = Client::connect(&socket).and_then(|mut c| c.shutdown());
    }
    let report = daemon
        .join()
        .map_err(|_| io::Error::other("daemon thread panicked"))?;
    let mut live = result?;
    let report = report?;
    checks.check(report.completed.len() == jobs.len(), || {
        format!(
            "daemon completed {} of {} jobs",
            report.completed.len(),
            jobs.len()
        )
    });
    for (name, _, jct) in &report.completed {
        checks.check(jct.is_finite() && *jct > 0.0, || {
            format!("{name} has JCT {jct}")
        });
    }
    live.completed = report.completed.len();
    Ok(live)
}

fn stream_to(
    jobs: &[NamedJob],
    socket: &Path,
    tracer: Option<&Shared>,
    checks: &mut Checks,
) -> io::Result<Live> {
    let mut client = connect(socket)?;
    client.ping()?;
    let mut submit_ms = Vec::with_capacity(jobs.len());
    let mut query_ms = Vec::new();
    let (mut late, mut lag_max_ms, mut held_at_submit) = (0usize, 0.0f64, 0usize);
    let ops = plan();
    let period = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    for (k, &op) in ops.iter().enumerate() {
        let due = start + period * u32::try_from(k).expect("plan fits in u32");
        wait_until(due);
        let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        lag_max_ms = lag_max_ms.max(lag);
        if lag > LATE_MS {
            late += 1;
        }
        let ok = maybe(tracer, op.span(), || match op {
            Op::Submit(i) => {
                let (name, deps, job) = &jobs[i];
                client.submit(name, deps, job).map(|view| {
                    if view.state == "held" {
                        held_at_submit += 1;
                    }
                })
            }
            Op::Queue => client.queue().map(drop),
            Op::Stats => client.stats().map(drop),
            Op::Metrics => client.metrics().map(drop),
        });
        let latency = due.elapsed().as_secs_f64() * 1e3;
        match op {
            Op::Submit(_) => submit_ms.push(latency),
            _ => query_ms.push(latency),
        }
        checks.check(ok.is_ok(), || format!("request {k} failed: {ok:?}"));
    }
    let t = Instant::now();
    let stats = maybe(tracer, "client.drain", || client.drain());
    let drain_s = secs(t);
    let stream_s = secs(start);
    checks.check(stats.is_ok(), || format!("drain failed: {stats:?}"));
    let stats = stats?;
    checks.check(
        stats.jobs_done == jobs.len()
            && stats.jobs_held == 0
            && stats.jobs_cancelled == 0
            && stats.drained,
        || format!("drain does not account for every submit: {stats:?}"),
    );
    Ok(Live {
        stream_s,
        drain_s,
        completed: 0,
        submit_ms,
        query_ms,
        late,
        requests: ops.len(),
        lag_max_ms,
        events: stats.events,
        held_at_submit,
    })
}

/// Daemon lifetimes over successive instances for `seconds`: the
/// end-to-end metrics.
pub fn end_to_end(seed: u64, seconds: f64, checks: &mut Checks) -> io::Result<Metrics> {
    let kernel = Kernel::new();
    let start = Instant::now();
    let (mut kernel_s, mut lives) = (Vec::new(), Vec::new());
    while lives.is_empty() || secs(start) < seconds {
        kernel_s.push(kernel.measure());
        lives.push(live(instance_seed(seed, lives.len() as u64), None, checks)?);
    }
    kernel_s.push(kernel.measure());
    let setups = (0..SETUP_SAMPLES as u64)
        .map(|k| setup_once(instance_seed(seed, k)))
        .collect::<io::Result<Vec<f64>>>()?;
    let speed = median(&kernel_s) / NOMINAL_S;
    eprintln!(
        "guritad_stream: {} instances; on this host {} s set-up; \
         the nominal host is {speed}x as fast",
        lives.len(),
        median(&setups)
    );
    let mut m = Metrics::default();
    m.median(
        "jobs_per_s",
        lives.iter().map(|l| l.completed as f64 / l.stream_s),
        "1/s",
    );
    m.push("setup_s", median(&setups) / speed, "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    // The live daemon's JCTs depend on when each submit lands; the
    // replay of instance 0 is deterministic and carries the fingerprint.
    let (_, rep) = replay(stream(instance_seed(seed, 0)), None)?;
    jct_checks(&rep.result, JOBS, checks);
    report_fingerprint("guritad_stream", seed, &rep.result);
    Ok(m)
}

/// One replay of the daemon's engine on `jobs`.
fn replay(jobs: Vec<JobSpec>, tracer: Option<&Shared>) -> io::Result<(f64, Rep)> {
    let t = Instant::now();
    let daemon = DaemonConfig::default();
    let fabric = maybe(tracer, "topology.build", || {
        BigSwitch::new(HOSTS, daemon.capacity)
    });
    let build_s = secs(t);
    let config = SimConfig {
        tick_interval: daemon.tick_interval,
        threads: 1,
        control_latency: daemon.control_latency,
        telemetry: Some(TelemetryConfig::default()),
        ..SimConfig::default()
    };
    let rep = drive::run(
        jobs,
        Admission::WhenDrained,
        &fabric,
        &config,
        daemon.capacity,
        tracer,
    )
    .map_err(io::Error::other)?;
    Ok((build_s, rep))
}

/// Encodes each job as the submit frame a client sends and decodes it
/// back through the daemon's line protocol, timing both.
pub fn protocol_frames(jobs: &[NamedJob], tracer: &Shared, checks: &mut Checks) -> Metrics {
    let mut bytes = 0usize;
    let mut encode_us = Vec::with_capacity(jobs.len());
    let mut decode_us = Vec::with_capacity(jobs.len());
    let mut buf = Vec::new();
    for (name, deps, job) in jobs {
        let req = Request {
            cmd: "submit".into(),
            name: Some(name.clone()),
            depends_on: deps.clone(),
            job: Some(job.clone()),
        };
        buf.clear();
        let t = Instant::now();
        let written = maybe(Some(tracer), "protocol.write_line", || {
            write_line(&mut buf, &req)
        });
        encode_us.push(ms(t) * 1e3);
        bytes += buf.len();
        let t = Instant::now();
        let back: io::Result<Option<Request>> = maybe(Some(tracer), "protocol.read_line", || {
            read_line(&mut buf.as_slice())
        });
        decode_us.push(ms(t) * 1e3);
        checks.check(
            written.is_ok() && back.ok().flatten().as_ref() == Some(&req),
            || format!("submit frame of {name} does not round-trip"),
        );
    }
    let mut m = Metrics::default();
    m.push(
        "protocol.frame_bytes",
        bytes as f64 / jobs.len() as f64,
        "B",
    );
    m.median("protocol.encode_us", encode_us, "us");
    m.median("protocol.decode_us", decode_us, "us");
    m
}

/// For `seconds`: a daemon lifetime of instance 0 with `client.*` spans,
/// then an untraced and a traced replay of its engine. The per-layer
/// metrics.
pub fn per_layer(seed: u64, seconds: f64, checks: &mut Checks) -> io::Result<(Metrics, Shared)> {
    let run_seed = seed;
    let seed = instance_seed(seed, 0);
    let tracer = Tracer::shared();
    let start = Instant::now();
    let mut lives: Vec<Live> = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    while runs.is_empty() || secs(start) < seconds {
        let id = runs.len() as u32;
        tracer.borrow_mut().begin_run(id);
        lives.push(live(seed, Some(&tracer), checks)?);
        let (_, plain) = replay(stream(seed), None)?;
        tracer.borrow_mut().begin_run(id);
        let t = Instant::now();
        let jobs = maybe(Some(&tracer), "workload.generate", || stream(seed));
        let generate_s = secs(t);
        let (build_s, traced) = replay(jobs, Some(&tracer))?;
        jct_checks(&traced.result, JOBS, checks);
        if runs.is_empty() {
            report_fingerprint("guritad_stream", run_seed, &traced.result);
        }
        checks.check(same_bits(&plain.result, &traced.result), || {
            "traced replay differs from the untraced replay".into()
        });
        let run = TracedRun::new(id, &plain, traced, &tracer, generate_s, build_s);
        if let Some(first) = runs.first() {
            checks.check(first.counts() == run.counts(), || {
                "traced counts differ between repetitions".into()
            });
        }
        runs.push(run);
    }
    let mut m = engine_layers(&runs, tracer.borrow().spans(), checks);
    m.0.extend(protocol_frames(&named(stream(seed), e13_deps), &tracer, checks).0);
    let requests: usize = lives.iter().map(|l| l.requests).sum();
    let late: usize = lives.iter().map(|l| l.late).sum();
    let service = ServiceFigures {
        late_frac: late as f64 / requests as f64,
        lag_max_ms: lives.iter().map(|l| l.lag_max_ms).collect(),
        submit_ms: lives.iter().flat_map(|l| l.submit_ms.clone()).collect(),
        query_ms: lives.iter().flat_map(|l| l.query_ms.clone()).collect(),
        drain_s: lives.iter().map(|l| l.drain_s).collect(),
        events_per_s: lives.iter().map(|l| l.events as f64 / l.stream_s).collect(),
        held_at_submit: lives.iter().map(|l| l.held_at_submit as f64).collect(),
    };
    m.0.extend(service_layers(&service).0);
    Ok((m, tracer))
}
