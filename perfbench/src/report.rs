//! Output checks, metric assembly and the per-layer arithmetic shared
//! by every workload.

use crate::drive::Rep;
use crate::stats::{median, percentile, sorted, tail_percentile, tail_supported};
use crate::trace::{self, Shared, Span};
use gurita_sim::stats::RunResult;
use gurita_sim::telemetry::EpochSample;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, printed with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Output checks and requests, counted against the number attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made plus requests sent.
    pub attempted: u64,
    /// Checks that failed plus requests that failed or were refused.
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Every job completed, each with a finite positive JCT: one check for
/// the count and one per job.
pub fn jct_checks(result: &RunResult, jobs: usize, checks: &mut Checks) {
    checks.check(result.jobs.len() == jobs, || {
        format!("{} of {jobs} jobs completed", result.jobs.len())
    });
    for j in &result.jobs {
        checks.check(j.jct.is_finite() && j.jct > 0.0, || {
            format!("job {} has JCT {}", j.id.index(), j.jct)
        });
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a over `(job id, JCT bits)` in completion order: equal exactly
/// when every job's JCT is bit-for-bit equal.
pub fn jct_fingerprint(result: &RunResult) -> u64 {
    fnv(result
        .jobs
        .iter()
        .flat_map(|j| [j.id.index() as u64, j.jct.to_bits()]))
}

/// Recorded JCT fingerprints of instance 0, one `workload seed
/// fingerprint` line each.
const RECORDED: &str = include_str!("../fingerprints.tsv");

/// Prints the JCT fingerprint of `workload`'s instance 0 at `seed` and
/// whether it matches the recorded one, so a change can show that the
/// simulated statistics did not move. A mismatch is reported, not
/// failed: a change that means to alter scheduling alters it.
pub fn report_fingerprint(workload: &str, seed: u64, result: &RunResult) {
    let fp = format!("{:016x}", jct_fingerprint(result));
    let seed_text = seed.to_string();
    let recorded = RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed_text)
        .map(|f| f[2] == fp);
    let verdict = match recorded {
        None => "none recorded",
        Some(true) => "matches the recorded one",
        Some(false) => "DIFFERS from the recorded one",
    };
    eprintln!("{workload} seed {seed}: jct fingerprint {fp} ({verdict})");
}

/// Every simulated figure of a result as raw bits: job and coflow
/// completion records, makespan and event count.
fn result_bits(r: &RunResult) -> Vec<u64> {
    let mut v = vec![r.makespan.to_bits(), r.events, r.jobs.len() as u64];
    for j in &r.jobs {
        v.extend([
            j.id.index() as u64,
            j.arrival.to_bits(),
            j.completed_at.to_bits(),
            j.jct.to_bits(),
            j.total_bytes.to_bits(),
        ]);
    }
    for c in &r.coflows {
        v.extend([
            c.id.index() as u64,
            c.activated_at.to_bits(),
            c.completed_at.to_bits(),
            c.bytes.to_bits(),
            c.starved_total.to_bits(),
        ]);
    }
    v
}

/// Whether two results agree bit for bit.
pub fn same_bits(a: &RunResult, b: &RunResult) -> bool {
    result_bits(a) == result_bits(b)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metrics in the order they are added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one value.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }

    /// Adds the median of `values`.
    pub fn median(
        &mut self,
        name: &'static str,
        values: impl IntoIterator<Item = f64>,
        unit: &'static str,
    ) {
        let v: Vec<f64> = values.into_iter().collect();
        self.push(name, median(&v), unit);
    }

    /// Adds percentile `p` of `samples`. A tail percentile with fewer
    /// than ten samples beyond it is replaced by the highest one that
    /// has them (the median if none has), and the substitution is
    /// reported on stderr.
    pub fn percentile(&mut self, name: &'static str, samples: &[f64], p: f64, unit: &'static str) {
        let sorted = sorted(samples);
        let used = if p <= 50.0 || tail_supported(sorted.len(), p) {
            p
        } else {
            tail_percentile(sorted.len()).unwrap_or(50.0)
        };
        let value = if sorted.is_empty() {
            f64::NAN
        } else {
            percentile(&sorted, used)
        };
        let note = if used == p {
            String::new()
        } else {
            format!(", reported at p{used}")
        };
        eprintln!("  {name}: {value} {unit} (n = {}{note})", sorted.len());
        self.push(name, value, unit);
    }
}

/// What one traced repetition measured beyond its spans.
#[derive(Debug)]
pub struct TracedRun {
    /// Span run id.
    pub run: u32,
    /// Wall seconds of the run phase untraced (the reference for the
    /// tracing overhead).
    pub plain_s: f64,
    /// Wall seconds of the same phase traced.
    pub traced_s: f64,
    /// Workload generation seconds.
    pub generate_s: f64,
    /// Fabric build seconds.
    pub build_s: f64,
    /// `Engine::submit_job` latencies, µs.
    pub submit_us: Vec<f64>,
    /// Engine events processed.
    pub events: u64,
    /// Durations of steps during which `queue_policy` ran, µs.
    pub recompute_us: Vec<f64>,
    /// Durations of the other steps, µs.
    pub light_us: Vec<f64>,
    /// Coflows presented to `assign`, summed.
    pub assign_coflows: u64,
    /// Last epoch sample the sink saw.
    pub epoch: Option<EpochSample>,
    /// Mean JCT of the traced run, simulated seconds.
    pub avg_jct: f64,
}

impl TracedRun {
    /// Collects traced repetition `run` (with its untraced twin `plain`)
    /// and the counters its wrappers left in `tracer`.
    pub fn new(
        run: u32,
        plain: &Rep,
        traced: Rep,
        tracer: &Shared,
        generate_s: f64,
        build_s: f64,
    ) -> Self {
        let tr = tracer.borrow();
        Self {
            run,
            plain_s: plain.drain_s,
            traced_s: traced.drain_s,
            generate_s,
            build_s,
            submit_us: traced.submit_ms.iter().map(|v| v * 1e3).collect(),
            events: traced.result.events,
            recompute_us: traced.recompute_us,
            light_us: traced.light_us,
            assign_coflows: tr.assign_coflows,
            epoch: tr.last_epoch.clone(),
            avg_jct: traced.result.avg_jct(),
        }
    }

    /// The counts that must repeat exactly between repetitions.
    pub fn counts(&self) -> (u64, usize, u64, Option<[u64; 4]>) {
        (
            self.events,
            self.recompute_us.len(),
            self.avg_jct.to_bits(),
            self.epoch.as_ref().map(|e| {
                [
                    e.alloc_full_passes,
                    e.alloc_incremental_passes,
                    e.alloc_component_calls,
                    e.alloc_component_flows,
                ]
            }),
        )
    }
}

/// The `workload`, `topology`, `sim`, `runtime`, `core`, `bandwidth`
/// and `telemetry` metrics: counts, percentiles and the mean JCT from
/// the first repetition (the caller checks that the counts repeat),
/// totals and shares as medians over repetitions. Checks that every
/// repetition's step self time plus its `core` and `telemetry` child
/// time is its step busy time.
pub fn engine_layers(runs: &[TracedRun], spans: &[Span], checks: &mut Checks) -> Metrics {
    let selfs = trace::self_times(spans);
    let first = &runs[0];
    let mut step_busy = Vec::new();
    let mut step_self = Vec::new();
    let mut recompute_share = Vec::new();
    let mut core_share = Vec::new();
    let mut assign_s = Vec::new();
    let mut record_ns = Vec::new();
    let mut records = 0u64;
    let mut assign_calls = 0u64;
    for r in runs {
        let t = trace::totals(spans, &selfs, r.run);
        let get = |name: &str| t.get(name).cloned().unwrap_or_default();
        let step = get("runtime.step");
        let core = trace::child_time(spans, r.run, "runtime.step", "core.");
        let tele = trace::child_time(spans, r.run, "runtime.step", "telemetry.");
        checks.check(step.self_ns + core + tele == step.busy, || {
            format!(
                "run {}: step self {} + core {core} + telemetry {tele} != busy {} ns",
                r.run, step.self_ns, step.busy
            )
        });
        step_busy.push(step.busy as f64 / 1e9);
        step_self.push(step.self_ns as f64 / 1e9);
        let recompute_ns: f64 = r.recompute_us.iter().sum::<f64>() * 1e3;
        recompute_share.push(recompute_ns / step.busy as f64);
        core_share.push(core as f64 / step.busy as f64);
        let assign = get("core.assign");
        assign_s.push(assign.busy as f64 / 1e9);
        let rec = get("telemetry.record");
        record_ns.push(rec.busy as f64 / rec.count.max(1) as f64);
        if r.run == first.run {
            records = rec.count;
            assign_calls = assign.count;
        }
    }
    let mut m = Metrics::default();
    m.median(
        "workload.generate_s",
        runs.iter().map(|r| r.generate_s),
        "s",
    );
    m.median("topology.build_s", runs.iter().map(|r| r.build_s), "s");
    m.push("sim.avg_jct_s", first.avg_jct, "s");
    m.percentile("runtime.submit_us_p50", &first.submit_us, 50.0, "us");
    m.push("runtime.steps", first.events as f64, "count");
    m.median(
        "runtime.events_per_s",
        runs.iter().map(|r| r.events as f64 / r.plain_s),
        "1/s",
    );
    m.median("runtime.step_busy_s", step_busy, "s");
    m.median("runtime.step_self_s", step_self, "s");
    m.push(
        "runtime.recompute_steps",
        first.recompute_us.len() as f64,
        "count",
    );
    m.median("runtime.recompute_time_share", recompute_share, "ratio");
    m.percentile(
        "runtime.recompute_step_us_p50",
        &first.recompute_us,
        50.0,
        "us",
    );
    m.percentile(
        "runtime.recompute_step_us_p99",
        &first.recompute_us,
        99.0,
        "us",
    );
    m.percentile("runtime.light_step_us_p50", &first.light_us, 50.0, "us");
    m.push("core.assign_calls", assign_calls as f64, "count");
    m.median("core.assign_s", assign_s, "s");
    let assign_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.run == first.run && s.name == "core.assign")
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    m.percentile("core.assign_us_p99", &assign_us, 99.0, "us");
    m.push(
        "core.coflows_per_assign",
        first.assign_coflows as f64 / assign_calls.max(1) as f64,
        "count",
    );
    m.median("core.time_share", core_share, "ratio");
    let e = first.epoch.clone().unwrap_or_default();
    let passes = (e.alloc_full_passes + e.alloc_incremental_passes).max(1) as f64;
    m.push("bandwidth.full_passes", e.alloc_full_passes as f64, "count");
    m.push(
        "bandwidth.incremental_passes",
        e.alloc_incremental_passes as f64,
        "count",
    );
    m.push(
        "bandwidth.full_pass_share",
        e.alloc_full_passes as f64 / passes,
        "ratio",
    );
    m.push(
        "bandwidth.components_per_pass",
        e.alloc_component_calls as f64 / passes,
        "count",
    );
    m.push(
        "bandwidth.flows_per_pass",
        e.alloc_component_flows as f64 / passes,
        "count",
    );
    m.push("telemetry.records", records as f64, "count");
    m.median("telemetry.record_ns", record_ns, "ns");
    m.median(
        "telemetry.overhead_frac",
        runs.iter().map(|r| r.traced_s / r.plain_s - 1.0),
        "ratio",
    );
    m
}

/// What a workload's client saw, for the `client`, `server` and
/// `registry` layers.
#[derive(Debug, Default)]
pub struct ServiceFigures {
    /// Requests sent more than the lateness threshold after they were
    /// due, over requests sent.
    pub late_frac: f64,
    /// Longest wait a request met before it could be sent or answered,
    /// per repetition, ms.
    pub lag_max_ms: Vec<f64>,
    /// Submit latencies, ms.
    pub submit_ms: Vec<f64>,
    /// Read-request latencies, ms.
    pub query_ms: Vec<f64>,
    /// Drain wall times, s.
    pub drain_s: Vec<f64>,
    /// Engine events per wall second while serving, per repetition.
    pub events_per_s: Vec<f64>,
    /// Submits the registry held on dependencies, per repetition.
    pub held_at_submit: Vec<f64>,
}

/// The `client`, `server` and `registry` metrics.
pub fn service_layers(f: &ServiceFigures) -> Metrics {
    let mut m = Metrics::default();
    m.percentile("client.submit_p50_ms", &f.submit_ms, 50.0, "ms");
    m.percentile("client.submit_p95_ms", &f.submit_ms, 95.0, "ms");
    m.percentile("client.query_p95_ms", &f.query_ms, 95.0, "ms");
    m.median("client.drain_s", f.drain_s.iter().copied(), "s");
    m.push("client.late_frac", f.late_frac, "ratio");
    m.median("client.lag_max_ms", f.lag_max_ms.iter().copied(), "ms");
    m.median("server.events_per_s", f.events_per_s.iter().copied(), "1/s");
    m.median(
        "registry.held_at_submit",
        f.held_at_submit.iter().copied(),
        "count",
    );
    m
}
