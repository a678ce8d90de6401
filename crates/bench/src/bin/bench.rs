//! Performance-trajectory tracker: times the simulator's two hot paths
//! and records the numbers in `results/BENCH_sim.json` so regressions
//! (and wins) are visible across PRs.
//!
//! Measured:
//!
//! * **events/sec** — the full event loop on the k=8 fat-tree with the
//!   FB-Tao trace-driven workload (the sweep scenario) under the
//!   evaluation-tuned Gurita scheduler;
//! * **allocate ns/flow** — the water-filling allocator on a 1024-flow
//!   Facebook-style mix, fresh-allocation and reused-scratch variants,
//!   under both SPQ and WRR;
//! * **advance ns/flow** — the per-event flow-advance sweep over the
//!   engine's SoA hot-state layout, with a pre-PR-9 AoS layout A/B
//!   alongside (see [`advance_benches`]);
//! * **control plane ns/flow** — the decentralized hot path: merging
//!   per-host reports back into a cluster observation
//!   (`merge_reports`), plus the full event loop under `Gurita@local`
//!   (events/sec) so the per-host observation-building overhead is
//!   tracked against the centralized number.
//!
//! Flags: `--jobs N` (event-loop workload size), `--seed N`.

use gurita_bench::{timed_run, BenchMeta};
use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_experiments::{args, report};
use gurita_model::HostId;
use gurita_sim::bandwidth::{allocate, Allocator, Demand, Discipline};
use gurita_sim::metrics::{MetricsConfig, MetricsSink};
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::telemetry::{NullSink, TelemetryConfig};
use gurita_sim::topology::{Fabric, FatTree, LinkId};
use gurita_workload::dags::StructureKind;
use serde::Serialize;
use std::time::Instant;

/// The recorded benchmark snapshot.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Provenance: schema version, git commit, rustc, capture time.
    meta: BenchMeta,
    /// Event-loop scenario description.
    scenario: String,
    /// Jobs in the event-loop workload.
    jobs: usize,
    /// Workload seed.
    seed: u64,
    /// Simulated events processed.
    events: u64,
    /// Event-loop wall-clock seconds.
    elapsed_sec: f64,
    /// Simulated events per wall-clock second.
    events_per_sec: f64,
    /// Water-filling cost per flow, nanoseconds, per variant.
    allocate_ns_per_flow: Vec<(String, f64)>,
    /// Flow-advance sweep cost, nanoseconds per flow: the engine's SoA
    /// hot-state layout (`soa`, the gated number) against the pre-PR-9
    /// AoS layout (`aos`), plus their ratio (`aos_over_soa`). See
    /// [`advance_benches`].
    advance_ns_per_flow: Vec<(String, f64)>,
    /// Decentralized control-plane costs: `merge_reports` ns/flow over
    /// a synthetic 64-host report set, and the `Gurita@local` event
    /// loop in events/sec over the same workload as the centralized
    /// number above.
    control_plane: Vec<(String, f64)>,
    /// Large-fabric gate: the 48-pod bursty scenario (see
    /// [`large_bench`]).
    large: LargeBench,
}

/// The 48-pod large-fabric benchmark gate: a bursty FB-Tao workload on
/// the full 27,648-host fat-tree under Gurita, recording throughput,
/// path-arena effectiveness, and memory high-water mark. Fixed at 40
/// jobs / seed 42 so the recorded number is comparable across PRs
/// regardless of `--jobs`/`--seed`.
#[derive(Debug, Serialize)]
struct LargeBench {
    /// Scenario description.
    scenario: String,
    /// Fat-tree pod count (k = 48).
    pods: usize,
    /// Jobs in the workload.
    jobs: usize,
    /// Workload seed.
    seed: u64,
    /// Simulated events processed.
    events: u64,
    /// Measured-run wall-clock seconds.
    wall_sec: f64,
    /// Simulated events per wall-clock second.
    events_per_sec: f64,
    /// Same run with the telemetry layer armed into a counting
    /// [`NullSink`] — the armed layer's intrinsic overhead (record
    /// construction + dispatch + epoch sampling). Results are asserted
    /// bit-for-bit identical to the untraced run.
    events_per_sec_telemetry: f64,
    /// Trace records the armed run emitted.
    telemetry_records: u64,
    /// Same run with a live [`MetricsSink`] armed — the full
    /// aggregation cost (category lookup, histogram binning, atomic
    /// updates) the daemon pays for live metrics. Results are asserted
    /// bit-for-bit identical; CI gates the aggregation within 3% of
    /// `events_per_sec_telemetry`, the armed discard-sink baseline
    /// (see `bench-smoke`).
    events_per_sec_metrics: f64,
    /// Same run with the intra-run component pool armed
    /// (`SimConfig::threads = 0`, one worker per available core).
    /// Results are asserted bit-for-bit identical to the serial run.
    events_per_sec_parallel: f64,
    /// `events_per_sec_parallel / events_per_sec` — ≈1.0 on a
    /// single-core host (the pool is bypassed), >1 on multi-core
    /// runners. CI gates on this ratio (see `bench-parallel`).
    parallel_speedup: f64,
    /// Effective worker count of the parallel run
    /// (`effective_threads(0)`).
    threads_used: usize,
    /// Distinct interned paths in the engine's arena at end of run.
    path_arena_unique: usize,
    /// Path-arena backing storage (interned link ids + span table),
    /// bytes. Replaces the v2 `path_arena_hit_rate` gauge, which is
    /// structurally 0 at this scale — the per-flow ECMP salt spreads
    /// host pairs across (k/2)² = 576 distinct routes, so 40 bursty
    /// jobs never re-intern a path (see DESIGN.md, "Scaling to 48
    /// pods"). Storage can actually move: it tracks how much path state
    /// the interning keeps resident, and drops if dedup improves.
    path_arena_storage_bytes: usize,
    /// Process peak RSS (`VmHWM`) after the runs, bytes; 0 when
    /// `/proc/self/status` is unavailable.
    peak_rss_bytes: u64,
}

/// Reads the process peak-RSS high-water mark from `/proc/self/status`
/// (`VmHWM`, reported in kB). Returns 0 on non-Linux or parse failure.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Runs the 48-pod gate scenario: warm-up, a measured serial run, and
/// A/B runs with the intra-run component pool, telemetry and live
/// metrics armed — every variant's `RunResult` must be bit-for-bit
/// identical.
fn large_bench() -> LargeBench {
    const JOBS: usize = 40;
    const SEED: u64 = 42;
    let scenario = Scenario::bursty(StructureKind::FbTao, JOBS, 48, SEED);
    let jobs = scenario.jobs();
    let run = |threads: usize| {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                threads,
                ..SimConfig::default()
            },
        );
        let mut sched = SchedulerKind::Gurita.build();
        sim.run(jobs.clone(), sched.as_mut())
    };
    let _ = run(1);
    let (result, tp) = timed_run(|| run(1));
    // Parallel A/B: the same run fanning each epoch's disjoint dirty
    // components across one worker per core. The determinism contract
    // (`SimConfig::threads`) says the results are bit-for-bit those of
    // the serial run; assert it at gate scale on every capture.
    let threads_used = gurita_sim::pool::effective_threads(0);
    let (par_result, par_tp) = timed_run(|| run(0));
    assert!(
        result == par_result,
        "parallel recomputation must produce identical results"
    );
    // Armed-telemetry A/B: same run streaming into a counting discard
    // sink. Measures the armed layer's intrinsic cost and pins the
    // bit-for-bit contract at gate scale.
    let mut sink = NullSink::new();
    let (traced_result, traced_tp) = timed_run(|| {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                telemetry: Some(TelemetryConfig::default()),
                ..SimConfig::default()
            },
        );
        let mut sched = SchedulerKind::Gurita.build();
        sim.run_traced(jobs.clone(), sched.as_mut(), &mut sink)
    });
    assert!(
        result == traced_result,
        "telemetry must not change the result"
    );
    // Armed-metrics A/B: the daemon's live-aggregation path — every
    // lifecycle record folded into lock-free histograms/counters as it
    // streams. Pins both the <3% overhead budget (gated in CI) and the
    // purely-observational contract at gate scale.
    let registry = std::sync::Arc::new(gurita_metrics::Registry::new());
    let mut metrics_sink = MetricsSink::new(
        &registry,
        MetricsConfig {
            ref_bandwidth: 1.25e9,
        },
    );
    let (metrics_result, metrics_tp) = timed_run(|| {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                telemetry: Some(TelemetryConfig::default()),
                ..SimConfig::default()
            },
        );
        let mut sched = SchedulerKind::Gurita.build();
        sim.run_traced(jobs.clone(), sched.as_mut(), &mut metrics_sink)
    });
    assert!(
        result == metrics_result,
        "live metrics aggregation must not change the result"
    );
    LargeBench {
        scenario: scenario.name.clone(),
        pods: scenario.pods,
        jobs: JOBS,
        seed: SEED,
        events: result.events,
        wall_sec: tp.wall_sec,
        events_per_sec: tp.events_per_sec,
        events_per_sec_telemetry: traced_tp.events_per_sec,
        telemetry_records: sink.records,
        events_per_sec_metrics: metrics_tp.events_per_sec,
        events_per_sec_parallel: par_tp.events_per_sec,
        parallel_speedup: if tp.events_per_sec > 0.0 {
            par_tp.events_per_sec / tp.events_per_sec
        } else {
            0.0
        },
        threads_used,
        path_arena_unique: result.path_arena_unique,
        path_arena_storage_bytes: result.path_arena_storage_bytes,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Times `merge_reports` reassembling a 64-host split of 128 coflows ×
/// 16 flows (2048 flows total) — the per-decision cost the
/// decentralized plane adds on top of observation building.
fn merge_benches() -> Vec<(String, f64)> {
    use gurita_model::{CoflowId, FlowId, JobId};
    use gurita_sim::control::{merge_reports, HostReport, LocalObservation};
    use gurita_sim::sched::{CoflowObs, FlowObs, JobObs};

    const HOSTS: usize = 64;
    const COFLOWS: usize = 128;
    const FLOWS_PER_COFLOW: usize = 16;
    const ITERS: u32 = 200;
    let reports: Vec<HostReport> = (0..HOSTS)
        .map(|h| {
            let coflows: Vec<CoflowObs> = (0..COFLOWS)
                .filter(|c| c % HOSTS <= h) // uneven split across hosts
                .map(|c| {
                    let flows: Vec<FlowObs> = (0..FLOWS_PER_COFLOW)
                        .filter(|f| (c + f) % 4 == h % 4)
                        .map(|f| FlowObs {
                            id: FlowId(c * FLOWS_PER_COFLOW + f),
                            bytes_received: (c * f) as f64 * 1.0e3,
                            open: f % 5 != 0,
                        })
                        .collect();
                    let bytes: f64 = flows.iter().map(|f| f.bytes_received).sum();
                    CoflowObs {
                        id: CoflowId(c),
                        job: JobId(c / 4),
                        dag_vertex: c % 4,
                        dag_stage: c % 3,
                        activated_at: c as f64 * 1e-3,
                        open_flows: flows.iter().filter(|f| f.open).count(),
                        bytes_received: bytes,
                        max_flow_bytes_received: flows
                            .iter()
                            .map(|f| f.bytes_received)
                            .fold(0.0, f64::max),
                        flows,
                    }
                })
                .filter(|c| !c.flows.is_empty())
                .collect();
            let mut jobs: Vec<JobObs> = Vec::new();
            for (ci, c) in coflows.iter().enumerate() {
                match jobs.iter_mut().find(|j| j.id == c.job) {
                    Some(j) => {
                        j.bytes_received += c.bytes_received;
                        j.active_coflows.push(ci);
                    }
                    None => jobs.push(JobObs {
                        id: c.job,
                        arrival: 0.0,
                        completed_coflows: 0,
                        completed_stages: 0,
                        completed_bytes: 0.0,
                        bytes_received: c.bytes_received,
                        active_coflows: vec![ci],
                    }),
                }
            }
            jobs.sort_unstable_by_key(|j| j.id);
            HostReport::verbatim(LocalObservation {
                host: HostId(h),
                now: 1.0,
                coflows,
                jobs,
            })
        })
        .collect();
    let total_flows: usize = reports
        .iter()
        .flat_map(|r| &r.coflows)
        .map(|c| c.flows.len())
        .sum();
    let start = Instant::now();
    let mut merged_flows = 0usize;
    for _ in 0..ITERS {
        let merged = merge_reports(1.0, &reports);
        merged_flows = merged.coflows.iter().map(|c| c.flows.len()).sum();
    }
    assert_eq!(merged_flows, total_flows, "merge must not drop flows");
    let ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS) / total_flows as f64;
    vec![(
        format!("merge_reports_{HOSTS}hosts_{total_flows}flows_ns_per_flow"),
        ns,
    )]
}

/// Deterministic pseudo-random flow set over a k-pod fat-tree (same
/// generator as the `bandwidth` criterion bench).
fn flow_paths(k: usize, flows: usize) -> Vec<Vec<LinkId>> {
    let ft = FatTree::new(k).expect("valid k");
    let h = ft.num_hosts();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..flows)
        .map(|_| {
            let s = (next() % h as u64) as usize;
            let mut d = (next() % h as u64) as usize;
            if d == s {
                d = (d + 1) % h;
            }
            ft.path(HostId(s), HostId(d), next()).expect("hosts valid")
        })
        .collect()
}

fn time_allocate(label: &str, iters: u32, per_call_flows: usize, f: impl FnMut()) -> (String, f64) {
    let mut f = f;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters) / per_call_flows as f64;
    (label.to_owned(), ns)
}

fn allocator_benches() -> Vec<(String, f64)> {
    const FLOWS: usize = 1024;
    const ITERS: u32 = 50;
    let paths = flow_paths(8, FLOWS);
    let demands: Vec<Demand<'_>> = paths
        .iter()
        .enumerate()
        .map(|(i, p)| Demand {
            path: p,
            queue: i % 4,
        })
        .collect();
    let ft = FatTree::new(8).expect("valid k");
    let spq = Discipline::StrictPriority { num_queues: 4 };
    let wrr = Discipline::WeightedRoundRobin {
        weights: vec![8.0, 4.0, 2.0, 1.0],
    };
    let mut out = Vec::new();
    out.push(time_allocate("spq_1024_fresh", ITERS, FLOWS, || {
        allocate(&demands, |l| ft.link_capacity(l), &spq);
    }));
    out.push(time_allocate("wrr_1024_fresh", ITERS, FLOWS, || {
        allocate(&demands, |l| ft.link_capacity(l), &wrr);
    }));
    let mut alloc = Allocator::new(ft.num_links());
    let mut rates = vec![0.0; FLOWS];
    out.push(time_allocate("spq_1024_reused", ITERS, FLOWS, || {
        alloc.allocate_into(
            demands.as_slice(),
            |l| ft.link_capacity(l),
            &spq,
            &mut rates,
        );
    }));
    out.push(time_allocate("wrr_1024_reused", ITERS, FLOWS, || {
        alloc.allocate_into(
            demands.as_slice(),
            |l| ft.link_capacity(l),
            &wrr,
            &mut rates,
        );
    }));
    out
}

/// A/B microbenchmark for the per-event flow-advance sweep (the same
/// update `Engine::advance_span` applies): struct-of-arrays hot state —
/// one dense `rate` array zipped against one dense `remaining` array —
/// versus the pre-PR-9 array-of-structs layout, where the two hot f64s
/// shared a ~96-byte `FlowState` with the cold identity/bookkeeping
/// fields and every step strided past the payload. Identical arithmetic
/// per element (guarded multiply-min-subtract), identical element
/// count; only the memory layout differs, so the ratio isolates the
/// SoA win the engine's serial sweep gets before any fan-out.
fn advance_benches() -> Vec<(String, f64)> {
    const FLOWS: usize = 65_536;
    const ITERS: u32 = 2_000;
    const DT: f64 = 0.5;

    /// The pre-PR-9 hot+cold flow record, field-for-field sized like
    /// the old `FlowState` (ids/hosts as usize, `PathRef` as two u32s).
    struct FlowAos {
        rate: f64,
        remaining: f64,
        _path: (u32, u32),
        _coflow: usize,
        _id: usize,
        _src: usize,
        _dst: usize,
        _size: f64,
        _queue: usize,
        _fresh: bool,
        _parked: bool,
        _stamp: u64,
    }

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Rates mix zero (parked), modest, and large values; `remaining`
    // is big enough that ITERS sweeps never clamp a flow to zero, so
    // both layouts do exactly the same arithmetic every iteration.
    let rate: Vec<f64> = (0..FLOWS)
        .map(|_| match next() % 8 {
            0 => 0.0,
            r => (r * 1000) as f64 + (next() % 997) as f64,
        })
        .collect();
    let start_remaining = 1.0e15;

    let mut remaining: Vec<f64> = vec![start_remaining; FLOWS];
    let t0 = Instant::now();
    for _ in 0..ITERS {
        for (r, rem) in rate.iter().zip(remaining.iter_mut()) {
            let moved = if *r > 0.0 && r.is_finite() {
                (*r * DT).min(*rem)
            } else {
                0.0
            };
            *rem -= moved;
        }
    }
    let soa_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS) / FLOWS as f64;
    let soa_sum: f64 = std::hint::black_box(&remaining).iter().sum();

    let mut flows: Vec<FlowAos> = rate
        .iter()
        .enumerate()
        .map(|(i, &r)| FlowAos {
            rate: r,
            remaining: start_remaining,
            _path: (i as u32, 5),
            _coflow: i / 16,
            _id: i,
            _src: i % 1024,
            _dst: (i * 7) % 1024,
            _size: start_remaining,
            _queue: i % 4,
            _fresh: false,
            _parked: false,
            _stamp: i as u64,
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        for f in flows.iter_mut() {
            let moved = if f.rate > 0.0 && f.rate.is_finite() {
                (f.rate * DT).min(f.remaining)
            } else {
                0.0
            };
            f.remaining -= moved;
        }
    }
    let aos_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS) / FLOWS as f64;
    let aos_sum: f64 = std::hint::black_box(&flows)
        .iter()
        .map(|f| f.remaining)
        .sum();
    assert!(
        soa_sum == aos_sum,
        "layouts must perform identical arithmetic ({soa_sum} vs {aos_sum})"
    );

    vec![
        ("soa".to_owned(), soa_ns),
        ("aos".to_owned(), aos_ns),
        (
            "aos_over_soa".to_owned(),
            if soa_ns > 0.0 { aos_ns / soa_ns } else { 0.0 },
        ),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match args::parse(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let scenario = Scenario::trace_driven(StructureKind::FbTao, opts.jobs, opts.seed);
    let jobs = scenario.jobs();

    // Warm-up run (page in code and workload), then the measured run.
    let run = || {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                ..SimConfig::default()
            },
        );
        let mut sched = SchedulerKind::Gurita.build();
        sim.run(jobs.clone(), sched.as_mut())
    };
    let _ = run();
    let (result, tp) = timed_run(run);

    // The same workload under the decentralized plane: per-host view
    // building + report merge + ControlUpdate plumbing on every
    // decision point (latency 0 keeps results comparable).
    let run_local = || {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                ..SimConfig::default()
            },
        );
        let mut plane = SchedulerKind::GuritaLocal.build_plane();
        sim.run_control(jobs.clone(), plane.as_mut())
    };
    let _ = run_local();
    let (_, local_tp) = timed_run(run_local);

    let mut control_plane = merge_benches();
    control_plane.push((
        "gurita_local_events_per_sec".to_owned(),
        local_tp.events_per_sec,
    ));

    let rep = BenchReport {
        meta: BenchMeta::capture(),
        scenario: scenario.name.clone(),
        jobs: opts.jobs,
        seed: opts.seed,
        events: result.events,
        elapsed_sec: tp.wall_sec,
        events_per_sec: tp.events_per_sec,
        allocate_ns_per_flow: allocator_benches(),
        advance_ns_per_flow: advance_benches(),
        control_plane,
        large: large_bench(),
    };
    println!(
        "event loop: {} events in {:.3}s -> {:.0} events/sec",
        rep.events, rep.elapsed_sec, rep.events_per_sec
    );
    for (label, ns) in &rep.allocate_ns_per_flow {
        println!("allocate {label}: {ns:.1} ns/flow");
    }
    for (label, v) in &rep.advance_ns_per_flow {
        println!("advance {label}: {v:.3} ns/flow");
    }
    for (label, v) in &rep.control_plane {
        println!("control plane {label}: {v:.1}");
    }
    println!(
        "large ({} pods, {} jobs): {} events in {:.3}s -> {:.0} events/sec \
         (telemetry armed: {:.0} over {} records, \
         metrics armed: {:.0}, parallel x{}: {:.0} = {:.2}x), \
         arena {} unique / {:.1} KiB, peak RSS {:.1} MiB",
        rep.large.pods,
        rep.large.jobs,
        rep.large.events,
        rep.large.wall_sec,
        rep.large.events_per_sec,
        rep.large.events_per_sec_telemetry,
        rep.large.telemetry_records,
        rep.large.events_per_sec_metrics,
        rep.large.threads_used,
        rep.large.events_per_sec_parallel,
        rep.large.parallel_speedup,
        rep.large.path_arena_unique,
        rep.large.path_arena_storage_bytes as f64 / 1024.0,
        rep.large.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    match report::write_results_file("BENCH_sim.json", &report::to_json(&rep)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
