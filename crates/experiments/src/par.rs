//! Scoped-thread fan-out for embarrassingly parallel experiment cells.
//!
//! Sweep points, chaos cells, and figure scenarios are independent
//! simulations over deterministic workloads, so running them
//! concurrently changes wall-clock time and nothing else: results are
//! written into per-index slots, preserving the sequential order
//! regardless of scheduling. Built on `std::thread::scope` — no
//! thread-pool dependency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--par` setting: `0` means "one worker per available
/// core", anything else is taken literally.
///
/// Delegates to [`gurita_sim::pool::effective_threads`] so the harness's
/// inter-run fan-out and the engine's intra-run fan-out
/// (`SimConfig::threads`) share one auto-detection rule and can never
/// disagree about what "auto" means.
pub fn effective_par(par: usize) -> usize {
    gurita_sim::pool::effective_threads(par)
}

/// Runs `f(0..n)` across at most `par` worker threads (`0` = auto) and
/// returns the results in index order. With one worker (or one item)
/// this degrades to a plain sequential loop on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_run<R, F>(par: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = effective_par(par).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                slots.lock().expect("no cell panics holding the lock")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("no cell panics holding the lock")
        .into_iter()
        .map(|r| r.expect("every cell produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = par_run(4, 32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = par_run(1, 9, |i| format!("cell-{i}"));
        let par = par_run(3, 9, |i| format!("cell-{i}"));
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(par_run(4, 0, |i| i).is_empty());
        assert_eq!(par_run(0, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn auto_par_resolves_to_at_least_one() {
        assert!(effective_par(0) >= 1);
        assert_eq!(effective_par(3), 3);
    }

    #[test]
    fn par_shares_the_engine_auto_detection_rule() {
        // `--par 0` and `SimConfig { threads: 0 }` must resolve
        // identically — the two layers share one rule by construction.
        assert_eq!(
            effective_par(0),
            gurita_sim::pool::effective_threads(0),
            "harness and engine disagree about what `auto` means"
        );
    }

    #[test]
    fn oversubscribed_par_is_literal_and_correct() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_par(cores + 16), cores + 16, "no clamping");
        // More workers than items: the fan-out caps at the item count
        // and still returns every result in index order.
        let out = par_run(cores + 16, 5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }
}
