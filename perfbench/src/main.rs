//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7_k48_burst|fig6_k8_tpcds|guritad_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload untraced for `--seconds` and prints
//! the end-to-end metrics; `--trace 1` runs untraced/traced pairs and
//! prints the per-layer metrics, writing every span to
//! `perfbench/out/<workload>.spans.tsv`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). See `perfbench/README.md`.

mod calibrate;
mod daemon;
mod drive;
mod inputs;
mod offline;
mod report;
mod stats;
mod trace;

use report::{Checks, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Shared;

const USAGE: &str = "usage: perfbench --workload <fig7_k48_burst|fig6_k8_tpcds|guritad_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let (metrics, tracer): (Metrics, Option<Shared>) = match args.workload.as_str() {
        "guritad_stream" if args.trace => {
            let (m, t) = daemon::per_layer(seed, seconds, checks).map_err(|e| e.to_string())?;
            (m, Some(t))
        }
        "guritad_stream" => (
            daemon::end_to_end(seed, seconds, checks).map_err(|e| e.to_string())?,
            None,
        ),
        name if offline::scenario(name).is_none() => {
            return Err(format!("unknown workload {name}"))
        }
        name if args.trace => {
            let (m, t) = offline::per_layer(name, seed, seconds, checks)?;
            (m, Some(t))
        }
        name => (offline::end_to_end(name, seed, seconds, checks)?, None),
    };
    if let Some(t) = tracer {
        let path = PathBuf::from(format!("{}.spans.tsv", args.workload));
        t.borrow()
            .write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "spans: {} written to perfbench/out/{}",
            t.borrow().spans().len(),
            path.display()
        );
    }
    Ok(metrics)
}

/// The result line: every metric with all the digits `f64` prints.
fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spans, daemon sockets and other run files stay in perfbench/out.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::env::set_current_dir(&out)) {
        eprintln!("cannot use {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let mut checks = Checks::default();
    let mut metrics = match run(&args, &mut checks) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &mut metrics.0 {
        checks.check(m.value.is_finite(), || format!("{} is {}", m.name, m.value));
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    eprintln!(
        "{}: failed_frac {} ({} of {} checks and requests failed)",
        args.workload,
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
