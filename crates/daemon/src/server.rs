//! The `guritad` server: a live engine behind a Unix domain socket.
//!
//! # Thread model
//!
//! [`serve`] owns the fabric, configuration, control plane, and
//! [`Engine`] on its own stack frame — the engine borrows all three, so
//! nothing crosses a thread boundary. Socket handling runs on side
//! threads (one acceptor plus one handler per connection) that translate
//! protocol lines into `Cmd` values over an mpsc channel; each command
//! carries its own reply sender. The serve loop alternates between
//! draining commands and stepping the engine, so a `queue` request is
//! answered between events with the live registry view — the
//! steppable-core refactor is what makes mid-run queries cheap.
//!
//! # Virtual-time pacing
//!
//! With `pace == 0` the engine runs as fast as possible, yielding to
//! the command channel every `ASAP_SLICE` events. With `pace = r`
//! the virtual clock is held to `r` simulated seconds per wall-clock
//! second: the loop computes the current wall-time horizon and calls
//! [`Engine::run_until`], sleeping on the command channel in between —
//! so a demo daemon can be watched in real time (`pace = 1`) or a
//! year of arrivals replayed in minutes (`pace = 1e6`). A `drain`
//! lifts the pace: submissions are closed at that point, so the
//! remaining jobs are flushed as fast as possible.

use crate::metrics_http::serve_metrics_http;
use crate::protocol::{read_line, write_line, DaemonStats, JobView, Request, Response};
use crate::registry::{GateState, Registry, SubmitOutcome};
use gurita_experiments::roster::SchedulerKind;
use gurita_metrics::{Gauge, Registry as MetricsRegistry};
use gurita_model::{JobId, JobSpec};
use gurita_sim::faults::FaultSchedule;
use gurita_sim::metrics::{MetricsConfig, MetricsSink};
use gurita_sim::runtime::{Engine, JobPhase, SimConfig};
use gurita_sim::telemetry::{ChromeTraceSink, JsonlSink, MultiSink, TelemetryConfig};
use gurita_sim::topology::BigSwitch;
use gurita_sim::SimError;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events stepped per slice in as-fast-as-possible mode before the loop
/// re-checks the command channel. Large enough to amortize the channel
/// poll, small enough that a `gctl` query never waits noticeably.
const ASAP_SLICE: u64 = 512;

/// How long the serve loop sleeps on the command channel when the
/// engine has nothing to do (or is ahead of the pacing horizon).
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// Daemon configuration, assembled by the `guritad` binary from CLI
/// flags (and by tests directly).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path. A stale file at this path is replaced.
    pub socket: PathBuf,
    /// Hosts in the simulated big-switch fabric.
    pub hosts: usize,
    /// Per-host NIC capacity in bytes/second.
    pub capacity: f64,
    /// Scheduling scheme (any roster kind, including `*Local`).
    pub scheduler: SchedulerKind,
    /// Simulated seconds per wall-clock second; `0` = as fast as
    /// possible.
    pub pace: f64,
    /// Engine worker threads (`0` = one per core, see
    /// `gurita_sim::pool::effective_threads`).
    pub threads: usize,
    /// Scheduler update interval δ (seconds).
    pub tick_interval: f64,
    /// Decision-propagation latency for decentralized schemes.
    pub control_latency: f64,
    /// TCP address (`host:port`) for the Prometheus scrape endpoint;
    /// `None` disables the HTTP listener (the Unix-socket `metrics`
    /// command is always available).
    pub metrics_addr: Option<String>,
    /// Path prefix for trace capture: writes `<prefix>.events.jsonl`
    /// and `<prefix>.trace.json` (Perfetto), flushed on drain/shutdown
    /// and best-effort on panic.
    pub trace_out: Option<PathBuf>,
    /// Where to snapshot the metrics registry as JSON on drain/shutdown
    /// (`None` skips the artifact).
    pub metrics_out: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            socket: PathBuf::from("/tmp/guritad.sock"),
            hosts: 32,
            capacity: gurita_model::units::GBPS_10,
            scheduler: SchedulerKind::Gurita,
            pace: 0.0,
            threads: 1,
            tick_interval: 5e-3,
            control_latency: 0.0,
            metrics_addr: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Parses a scheduler name as printed by
/// [`SchedulerKind::label`], case-insensitively.
pub fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    const ALL: [SchedulerKind; 13] = [
        SchedulerKind::Gurita,
        SchedulerKind::GuritaSpq,
        SchedulerKind::GuritaNoOmega,
        SchedulerKind::GuritaNoKappa,
        SchedulerKind::GuritaNoCriticalPath,
        SchedulerKind::GuritaPlus,
        SchedulerKind::Pfs,
        SchedulerKind::Baraat,
        SchedulerKind::Stream,
        SchedulerKind::Aalo,
        SchedulerKind::VarysSebf,
        SchedulerKind::GuritaLocal,
        SchedulerKind::AaloLocal,
    ];
    ALL.into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(name))
}

/// A parsed request plus the channel to answer it on.
struct Cmd {
    req: Request,
    reply: mpsc::Sender<Response>,
}

/// Final accounting returned by [`serve`] after drain/shutdown.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Snapshot of the daemon counters at exit.
    pub stats: DaemonStats,
    /// Jobs completed, in completion order (name, id, jct).
    pub completed: Vec<(String, usize, f64)>,
}

/// Runs the daemon until a `drain` or `shutdown` request. Binds the
/// socket, spawns the acceptor, and then owns the engine on this
/// thread until every registered job is terminal (drain) or
/// immediately (shutdown).
///
/// # Errors
///
/// Socket binding/cleanup failures and engine-level [`SimError`]s
/// (mapped to `io::ErrorKind::Other`).
pub fn serve(config: &DaemonConfig) -> io::Result<ServeReport> {
    let fabric = BigSwitch::new(config.hosts, config.capacity);
    // The daemon always arms telemetry: the live `MetricsSink` is what
    // makes `metrics`/`gctl top` answerable mid-run. Offline batch
    // runs keep the zero-overhead disabled path; service mode pays the
    // armed layer (<3% at gate scale, see BENCH_sim.json
    // `events_per_sec_metrics`).
    let sim_config = SimConfig {
        tick_interval: config.tick_interval,
        threads: config.threads,
        control_latency: config.control_latency,
        telemetry: Some(TelemetryConfig::default()),
        ..SimConfig::default()
    };
    let mut plane = config.scheduler.build_plane();
    let faults = FaultSchedule::default();

    // Metrics registry shared three ways: the engine-side sink records
    // into it, the serve loop sets health gauges, and the HTTP scrape
    // thread snapshots it — all lock-free on the instrument side.
    let metrics = Arc::new(MetricsRegistry::new());
    let mut sink = MultiSink::new().with(Box::new(MetricsSink::new(
        &metrics,
        MetricsConfig {
            ref_bandwidth: config.capacity,
        },
    )));
    if let Some(prefix) = &config.trace_out {
        let jsonl = PathBuf::from(format!("{}.events.jsonl", prefix.display()));
        let chrome = PathBuf::from(format!("{}.trace.json", prefix.display()));
        sink = sink
            .with(Box::new(JsonlSink::create(&jsonl)?))
            .with(Box::new(ChromeTraceSink::new(&chrome)));
    }
    let mut engine =
        Engine::online_traced(&fabric, &sim_config, plane.as_mut(), &faults, &mut sink)
            .map_err(sim_to_io)?;

    // Socket + acceptor. Stale socket files from a crashed daemon are
    // removed; a *live* daemon on the same path loses its listener,
    // which matches systemd-style "last writer wins" socket handling.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Cmd>();
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, tx, stop))
    };
    let scraper = match &config.metrics_addr {
        Some(addr) => {
            let (handle, local) =
                serve_metrics_http(addr, Arc::clone(&metrics), Arc::clone(&stop))?;
            eprintln!("guritad: metrics on http://{local}/metrics");
            Some(handle)
        }
        None => None,
    };

    let report = run_loop(&mut engine, &rx, config, &metrics);

    // Epilogue — runs on clean exits *and* on engine errors surfaced
    // through `report`: flush the armed sinks (JSONL/Chrome land on
    // disk here) and snapshot the metrics registry for offline
    // analysis. Panics skip this path; the sinks' Drop safety nets
    // still write what they buffered.
    let _ = engine.finish();
    if let Some(path) = &config.metrics_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let json = serde_json::to_string_pretty(&metrics.snapshot())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?;
        std::fs::write(path, json)?;
    }

    stop.store(true, Ordering::SeqCst);
    drop(rx);
    let _ = acceptor.join();
    if let Some(handle) = scraper {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&config.socket);
    report
}

/// Engine-loop health gauges, refreshed by the serve loop: throughput
/// over a sliding wall-clock window, pacing lag, event backlog, and
/// registry gate counts. Readers (scrape thread, `metrics` command)
/// see whatever the last refresh wrote — exactly the staleness a
/// Prometheus gauge implies.
struct HealthGauges {
    events_per_sec: Arc<Gauge>,
    pace_lag: Arc<Gauge>,
    pending_events: Arc<Gauge>,
    vtime: Arc<Gauge>,
    jobs_held: Arc<Gauge>,
    jobs_queued: Arc<Gauge>,
    jobs_running: Arc<Gauge>,
    jobs_done: Arc<Gauge>,
    jobs_cancelled: Arc<Gauge>,
    /// (wall time, cumulative events) samples spanning the window.
    window: VecDeque<(Instant, u64)>,
    last_refresh: Option<Instant>,
}

/// Sliding window over which `gurita_engine_events_per_sec` is
/// computed.
const HEALTH_WINDOW: Duration = Duration::from_secs(5);

/// Minimum wall time between health-gauge refreshes; keeps the gauge
/// writes off the per-slice hot path.
const HEALTH_REFRESH: Duration = Duration::from_millis(100);

impl HealthGauges {
    fn new(reg: &MetricsRegistry) -> Self {
        let g = |name: &str, help: &str| reg.gauge(name, help, &[]);
        Self {
            events_per_sec: g(
                "gurita_engine_events_per_sec",
                "Engine throughput over a 5s sliding wall-clock window.",
            ),
            pace_lag: g(
                "gurita_engine_pace_lag_seconds",
                "Paced mode: how far virtual time trails the pacing horizon.",
            ),
            pending_events: g(
                "gurita_engine_pending_events",
                "Events pending in the engine's event queue.",
            ),
            vtime: g("gurita_engine_vtime_seconds", "Current virtual time."),
            jobs_held: g("gurita_registry_jobs_held", "Jobs gated on dependencies."),
            jobs_queued: g(
                "gurita_registry_jobs_queued",
                "Jobs admitted, arrival pending.",
            ),
            jobs_running: g(
                "gurita_registry_jobs_running",
                "Jobs actively moving bytes.",
            ),
            jobs_done: g("gurita_registry_jobs_done", "Jobs completed."),
            jobs_cancelled: g("gurita_registry_jobs_cancelled", "Jobs cancelled."),
            window: VecDeque::new(),
            last_refresh: None,
        }
    }

    /// Refreshes every gauge from the live engine/registry, rate-limited
    /// to [`HEALTH_REFRESH`] unless `force`d (queries force so a
    /// single-shot `gctl top` never reads stale zeros).
    fn refresh<F: gurita_sim::topology::Fabric>(
        &mut self,
        engine: &Engine<'_, F>,
        registry: &Registry,
        config: &DaemonConfig,
        started: Instant,
        force: bool,
    ) {
        let now = Instant::now();
        if !force {
            if let Some(last) = self.last_refresh {
                if now.duration_since(last) < HEALTH_REFRESH {
                    return;
                }
            }
        }
        self.last_refresh = Some(now);

        let events = engine.events_processed();
        self.window.push_back((now, events));
        while let Some(&(t, _)) = self.window.front() {
            if now.duration_since(t) > HEALTH_WINDOW && self.window.len() > 2 {
                self.window.pop_front();
            } else {
                break;
            }
        }
        if let (Some(&(t0, e0)), true) = (self.window.front(), self.window.len() >= 2) {
            let dt = now.duration_since(t0).as_secs_f64();
            if dt > 0.0 {
                self.events_per_sec.set((events - e0) as f64 / dt);
            }
        }
        let lag = if config.pace > 0.0 {
            (started.elapsed().as_secs_f64() * config.pace - engine.now()).max(0.0)
        } else {
            0.0
        };
        self.pace_lag.set(lag);
        self.pending_events.set(engine.pending_events() as f64);
        self.vtime.set(engine.now());
        let stats = snapshot(engine, registry);
        self.jobs_held.set(stats.jobs_held as f64);
        self.jobs_queued.set(stats.jobs_queued as f64);
        self.jobs_running.set(stats.jobs_running as f64);
        self.jobs_done.set(stats.jobs_done as f64);
        self.jobs_cancelled.set(stats.jobs_cancelled as f64);
    }
}

fn sim_to_io(e: SimError) -> io::Error {
    io::Error::other(format!("engine: {e}"))
}

fn accept_loop(listener: UnixListener, tx: mpsc::Sender<Cmd>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, tx);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_WAIT);
            }
            Err(_) => break,
        }
    }
}

/// One connection: requests in, responses out, strictly in order.
fn handle_connection(stream: UnixStream, tx: mpsc::Sender<Cmd>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(req) = read_line::<Request, _>(&mut reader)? {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(Cmd {
                req,
                reply: reply_tx,
            })
            .is_err()
        {
            // Serve loop exited (drain finished): tell the client.
            write_line(&mut writer, &Response::err("daemon is shutting down"))?;
            break;
        }
        let resp = reply_rx
            .recv()
            .unwrap_or_else(|_| Response::err("daemon exited before replying"));
        write_line(&mut writer, &resp)?;
    }
    Ok(())
}

/// The sim-thread main loop: drain commands, step, harvest, repeat.
fn run_loop<F: gurita_sim::topology::Fabric>(
    engine: &mut Engine<'_, F>,
    rx: &mpsc::Receiver<Cmd>,
    config: &DaemonConfig,
    metrics: &MetricsRegistry,
) -> io::Result<ServeReport> {
    let mut registry = Registry::new();
    let mut harvested = 0usize; // cursor into engine.completed_jobs()
    let mut draining: Option<mpsc::Sender<Response>> = None;
    let started = Instant::now();
    let mut health = HealthGauges::new(metrics);
    let mut ctx = CmdCtx {
        config,
        metrics,
        started,
    };

    loop {
        // 1. Serve every queued command (non-blocking).
        let mut shutdown = false;
        while let Ok(cmd) = rx.try_recv() {
            if handle_cmd(
                cmd,
                engine,
                &mut registry,
                &mut draining,
                &mut health,
                &mut ctx,
            ) {
                shutdown = true;
            }
        }
        if shutdown {
            break;
        }

        // 2. Advance virtual time. A drain flushes at full speed even
        //    when paced: submissions are closed, so there is nothing
        //    left to watch in real time — only jobs to finish.
        let advanced = if config.pace <= 0.0 || draining.is_some() {
            engine.run_for(ASAP_SLICE).map_err(sim_to_io)?;
            engine.pending_events() > 0
        } else {
            let horizon = started.elapsed().as_secs_f64() * config.pace;
            engine.run_until(horizon).map_err(sim_to_io)?;
            false // paced mode always waits for the wall clock below
        };

        // 3. Harvest completions and release gated children, then
        //    refresh the health gauges (rate-limited internally).
        harvest(engine, &mut registry, &mut harvested).map_err(sim_to_io)?;
        health.refresh(engine, &registry, config, started, false);

        // 4. Drain bookkeeping: once every registered job is terminal
        //    and the engine is quiet, answer the pending drain and exit.
        if draining.is_some() && registry.all_terminal() && engine.drained() {
            let reply = draining.take().expect("checked is_some");
            let mut stats = snapshot(engine, &registry);
            stats.makespan = Some(engine.now());
            let done = engine.completed_jobs();
            if !done.is_empty() {
                stats.avg_jct = Some(done.iter().map(|j| j.jct).sum::<f64>() / done.len() as f64);
            }
            let _ = reply.send(Response {
                ok: true,
                stats: Some(stats),
                ..Response::default()
            });
            break;
        }

        // 5. Idle-wait on the channel when there is nothing to step, so
        //    a quiescent daemon costs ~0 CPU.
        if !advanced {
            match rx.recv_timeout(IDLE_WAIT) {
                Ok(cmd) => {
                    if handle_cmd(
                        cmd,
                        engine,
                        &mut registry,
                        &mut draining,
                        &mut health,
                        &mut ctx,
                    ) {
                        break;
                    }
                    harvest(engine, &mut registry, &mut harvested).map_err(sim_to_io)?;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    let completed = engine
        .completed_jobs()
        .iter()
        .map(|j| {
            let name = registry
                .entries()
                .get(j.id.index())
                .map_or_else(|| j.id.to_string(), |e| e.name.clone());
            (name, j.id.index(), j.jct)
        })
        .collect();
    let stats = snapshot(engine, &registry);
    Ok(ServeReport { stats, completed })
}

/// Read-only context `handle_cmd` needs beyond the engine/registry:
/// the daemon config (for pace-lag), the metrics registry, and the
/// loop start instant.
struct CmdCtx<'c> {
    config: &'c DaemonConfig,
    metrics: &'c MetricsRegistry,
    started: Instant,
}

/// Applies one command. Returns `true` when the loop must exit
/// immediately (shutdown).
fn handle_cmd<F: gurita_sim::topology::Fabric>(
    cmd: Cmd,
    engine: &mut Engine<'_, F>,
    registry: &mut Registry,
    draining: &mut Option<mpsc::Sender<Response>>,
    health: &mut HealthGauges,
    ctx: &mut CmdCtx<'_>,
) -> bool {
    let Cmd { req, reply } = cmd;
    let resp = match req.cmd.as_str() {
        "ping" => Response::ok(),
        "metrics" => {
            // Force-refresh so a one-shot scrape sees current health.
            health.refresh(engine, registry, ctx.config, ctx.started, true);
            Response {
                ok: true,
                metrics: Some(ctx.metrics.snapshot()),
                ..Response::default()
            }
        }
        "submit" => {
            if draining.is_some() {
                Response::err("daemon is draining: submissions closed")
            } else {
                do_submit(req, engine, registry)
            }
        }
        "status" => match req.name.as_deref().and_then(|n| registry.get(n)) {
            Some(entry) => Response {
                ok: true,
                job: Some(view(engine, registry, entry.id)),
                ..Response::default()
            },
            None => Response::err(format!(
                "unknown job `{}`",
                req.name.as_deref().unwrap_or("<missing name>")
            )),
        },
        "queue" => Response {
            ok: true,
            jobs: Some(
                (0..registry.entries().len())
                    .map(|i| view(engine, registry, i))
                    .collect(),
            ),
            ..Response::default()
        },
        "cancel" => {
            let Some(name) = req.name.as_deref() else {
                return finish_reply(reply, Response::err("cancel requires a name"));
            };
            match registry.cancel(name) {
                Ok(out) => {
                    if let Some(id) = out.engine_cancel {
                        engine.cancel_job(JobId(id));
                    }
                    let id = registry.get(name).expect("just cancelled").id;
                    Response {
                        ok: true,
                        job: Some(view(engine, registry, id)),
                        ..Response::default()
                    }
                }
                Err(e) => Response::err(e),
            }
        }
        "stats" => Response {
            ok: true,
            stats: Some(snapshot(engine, registry)),
            ..Response::default()
        },
        "drain" => {
            if draining.is_some() {
                Response::err("already draining")
            } else {
                *draining = Some(reply);
                return false; // reply deferred until terminal
            }
        }
        "shutdown" => {
            let _ = reply.send(Response::ok());
            return true;
        }
        other => Response::err(format!("unknown command `{other}`")),
    };
    finish_reply(reply, resp)
}

fn finish_reply(reply: mpsc::Sender<Response>, resp: Response) -> bool {
    let _ = reply.send(resp); // client may have hung up: not our problem
    false
}

fn do_submit<F: gurita_sim::topology::Fabric>(
    req: Request,
    engine: &mut Engine<'_, F>,
    registry: &mut Registry,
) -> Response {
    let Some(name) = req.name.as_deref() else {
        return Response::err("submit requires a name");
    };
    let Some(job) = req.job.as_ref() else {
        return Response::err("submit requires a job spec");
    };
    // Validate before registering: a held job is only handed to the
    // engine when its parents complete, and a rejection then would
    // stop the serve loop. The registry assigns dense ids, so the next
    // entry's index is the id this job will be admitted under.
    if let Err(e) = engine.check_job(&job.with_id(registry.entries().len())) {
        return Response::err(format!("invalid job: {e}"));
    }
    match registry.submit(name, req.depends_on, job) {
        Ok(SubmitOutcome::Ready(id, spec)) => match admit(engine, registry, id, &spec) {
            Ok(()) => Response {
                ok: true,
                job: Some(view(engine, registry, id)),
                ..Response::default()
            },
            Err(e) => Response::err(format!("admission failed: {e}")),
        },
        Ok(SubmitOutcome::Held(id)) => Response {
            ok: true,
            job: Some(view(engine, registry, id)),
            ..Response::default()
        },
        Err(e) => Response::err(e),
    }
}

/// Admits a released spec into the engine at the current virtual time
/// (client-side arrivals in the future are honored; past ones clamp).
fn admit<F: gurita_sim::topology::Fabric>(
    engine: &mut Engine<'_, F>,
    registry: &mut Registry,
    id: usize,
    spec: &JobSpec,
) -> Result<(), SimError> {
    engine.submit_job(spec.clone())?;
    registry.mark_admitted(id, engine.now());
    Ok(())
}

/// Pulls newly completed jobs out of the engine, marks them done in the
/// registry, and admits any children this releases. Loops because an
/// admitted child could in principle already be complete (zero-volume
/// jobs complete at admission time only after events run, so one pass
/// per call is enough in practice — the loop is for the cursor).
fn harvest<F: gurita_sim::topology::Fabric>(
    engine: &mut Engine<'_, F>,
    registry: &mut Registry,
    harvested: &mut usize,
) -> Result<(), SimError> {
    while *harvested < engine.completed_jobs().len() {
        let jr = &engine.completed_jobs()[*harvested];
        let (id, at) = (jr.id.index(), jr.completed_at);
        *harvested += 1;
        if id >= registry.entries().len() {
            continue; // not a registry job (defensive; should not happen)
        }
        for (child, spec) in registry.complete(id, at) {
            admit(engine, registry, child, &spec)?;
        }
    }
    Ok(())
}

/// Builds the client view of registry job `id`, refining the registry's
/// `Admitted` into `queued`/`running` from the live engine phase.
fn view<F: gurita_sim::topology::Fabric>(
    engine: &Engine<'_, F>,
    registry: &Registry,
    id: usize,
) -> JobView {
    let entry = &registry.entries()[id];
    let (state, completed_coflows, completed_at) = match entry.state {
        GateState::Held => ("held".to_string(), 0, None),
        GateState::Cancelled => ("cancelled".to_string(), 0, None),
        GateState::Done => ("done".to_string(), entry.total_coflows, entry.completed_at),
        GateState::Admitted => match engine.job_phase(JobId(id)) {
            JobPhase::Pending => ("queued".to_string(), 0, None),
            JobPhase::Running { progress } => {
                ("running".to_string(), progress.completed_coflows, None)
            }
            // The registry completes at the next harvest; report the
            // engine's truth in the interim.
            JobPhase::Completed { at } => ("done".to_string(), entry.total_coflows, Some(at)),
            JobPhase::Cancelled => ("cancelled".to_string(), 0, None),
            JobPhase::NotSubmitted => ("queued".to_string(), 0, None),
        },
    };
    JobView {
        name: entry.name.clone(),
        id,
        state,
        depends_on: entry.deps.clone(),
        completed_coflows,
        total_coflows: entry.total_coflows,
        admitted_at: entry.admitted_at,
        completed_at,
    }
}

fn snapshot<F: gurita_sim::topology::Fabric>(
    engine: &Engine<'_, F>,
    registry: &Registry,
) -> DaemonStats {
    let mut queued = 0usize;
    let mut running = 0usize;
    let mut done = 0usize;
    for e in registry.entries() {
        match e.state {
            GateState::Admitted => match engine.job_phase(JobId(e.id)) {
                JobPhase::Running { .. } => running += 1,
                JobPhase::Completed { .. } => done += 1,
                _ => queued += 1,
            },
            GateState::Done => done += 1,
            _ => {}
        }
    }
    DaemonStats {
        vtime: engine.now(),
        events: engine.events_processed(),
        open_flows: engine.open_flows(),
        open_coflows: engine.open_coflows(),
        pending_events: engine.pending_events(),
        jobs_held: registry.count(GateState::Held),
        jobs_queued: queued,
        jobs_running: running,
        jobs_done: done,
        jobs_cancelled: registry.count(GateState::Cancelled),
        drained: engine.drained(),
        makespan: None,
        avg_jct: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_labels_parse_back() {
        assert_eq!(parse_scheduler("Gurita"), Some(SchedulerKind::Gurita));
        assert_eq!(parse_scheduler("pfs"), Some(SchedulerKind::Pfs));
        assert_eq!(
            parse_scheduler("gurita@local"),
            Some(SchedulerKind::GuritaLocal)
        );
        assert_eq!(parse_scheduler("nope"), None);
    }
}
