//! Persistent worker pool for deterministic intra-run parallelism.
//!
//! The simulator's rate recomputation (`gurita_sim::runtime`, behind
//! `SimConfig::threads`) fans the disjoint flow↔link components of one
//! recompute epoch across a fixed set of long-lived worker threads. A
//! recompute epoch is a few microseconds to a few milliseconds of work,
//! so the pool is built for *cheap dispatch*, not generality:
//!
//! * Workers are spawned once per engine and parked on a condvar
//!   between epochs — no per-epoch `thread::spawn` (~40–80 µs each,
//!   which would eat the entire win at ~150 µs/event).
//! * The caller participates as worker slot `0`, so `threads = n`
//!   means `n` CPUs busy, not `n + 1`.
//! * Tasks are claimed from a shared counter under a mutex; component
//!   waterfills are microseconds-scale, so one uncontended lock per
//!   claim is noise.
//!
//! Determinism is the caller's contract, not the pool's: tasks write to
//! disjoint output slots, so the *values* produced are independent of
//! which worker runs which task or in what order — the pool only
//! changes wall-clock time. See the "Intra-run parallelism" section of
//! DESIGN.md.
//!
//! This crate is the workspace's one island of `unsafe`: every other
//! crate carries `#![forbid(unsafe_code)]`. The one erasure a persistent
//! pool over borrowed data needs — the lifetime-erased private task
//! pointer — lives here behind a safe-to-audit invariant. Callers keep
//! per-slot scratch behind uncontended per-slot mutexes.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Resolves a thread-count setting: `0` means "one worker per available
/// core" (`std::thread::available_parallelism`, 1 when unknown),
/// anything else is taken literally.
///
/// This is the single auto-detection rule shared by the simulator's
/// `SimConfig::threads` and the experiment harness's `--par` fan-out
/// (`experiments::par`), so intra-run and inter-run parallelism can
/// never disagree about what "auto" means.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Lifetime-erased pointer to the current batch's task closure.
///
/// Safety: the pointer is only dereferenced by workers between the
/// batch's publication and its completion, and [`WorkerPool::run`] does
/// not return (and therefore the closure cannot be dropped) until every
/// task of the batch has finished. `Send` is sound because the pointee
/// is required to be `Sync` at the only construction site.
struct TaskPtr(*const (dyn Fn(usize, usize) + Sync));
unsafe impl Send for TaskPtr {}

struct State {
    /// Monotone batch counter; workers compare against their last seen
    /// value so a spurious wakeup never re-runs an old batch.
    batch: u64,
    /// The in-flight batch's closure; `None` between batches.
    task: Option<TaskPtr>,
    /// Tasks in the current batch.
    n: usize,
    /// Next unclaimed task index.
    next: usize,
    /// Tasks that have finished running (successfully or by panic).
    completed: usize,
    /// A task panicked; re-raised by [`WorkerPool::run`] on the caller.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new batch (or shutdown).
    work: Condvar,
    /// The dispatching caller waits here for batch completion.
    done: Condvar,
}

/// A fixed-size pool of parked worker threads executing one batch of
/// index-addressed tasks at a time.
///
/// [`WorkerPool::run`]`(n, f)` invokes `f(worker_slot, task_index)` for
/// every `task_index in 0..n`, spread across `threads` workers (the
/// caller participates as slot `0`; spawned workers use slots
/// `1..threads`). Callers rely on two invariants:
///
/// * **Slot exclusivity** — at any instant, at most one thread is
///   executing `f` with a given `worker_slot`, so per-slot scratch
///   (e.g. one `Allocator` per slot) is data-race free.
/// * **Batch confinement** — `run` returns only after every task has
///   returned, so `f` may capture references to the caller's stack.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total workers (the calling thread
    /// counts as one; `threads - 1` OS threads are spawned). `threads`
    /// is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                batch: 0,
                task: None,
                n: 0,
                next: 0,
                completed: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gurita-pool-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total worker slots, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(worker_slot, task_index)` for every index in `0..n` and
    /// returns when all invocations have finished.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (the payload is replaced; workers
    /// survive and the pool stays usable).
    pub fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        let batch = {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            debug_assert!(st.task.is_none(), "run() is not reentrant");
            // Safety: erases the borrow's lifetime. The closure outlives
            // every dereference because `run` does not return (and the
            // borrow cannot end) until `completed == n`.
            let f_static: &'static (dyn Fn(usize, usize) + Sync) =
                unsafe { std::mem::transmute(f) };
            st.task = Some(TaskPtr(f_static));
            st.n = n;
            st.next = 0;
            st.completed = 0;
            st.batch += 1;
            st.batch
        };
        self.shared.work.notify_all();
        // Participate as slot 0 until the claim counter runs dry.
        drain_tasks(&self.shared, 0, batch, f);
        let panicked = {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            while st.completed < st.n {
                st = self.shared.done.wait(st).expect("pool mutex poisoned");
            }
            st.task = None;
            std::mem::replace(&mut st.panicked, false)
        };
        if panicked {
            panic!("worker pool task panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("pool mutex poisoned")
            .shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and runs tasks of batch `batch` until none remain. The batch
/// check matters: a straggler returning from its last task after the
/// dispatcher has already published the *next* batch must not claim
/// into it with the stale closure. Panics in `f` are recorded, counted
/// as completed, and swallowed so the sibling tasks still finish and
/// the dispatcher can re-raise.
fn drain_tasks(shared: &Shared, slot: usize, batch: u64, f: &(dyn Fn(usize, usize) + Sync)) {
    loop {
        let i = {
            let mut st = shared.state.lock().expect("pool mutex poisoned");
            if st.batch != batch || st.next >= st.n {
                return;
            }
            let i = st.next;
            st.next += 1;
            i
        };
        let ok = catch_unwind(AssertUnwindSafe(|| f(slot, i))).is_ok();
        let mut st = shared.state.lock().expect("pool mutex poisoned");
        if !ok {
            st.panicked = true;
        }
        st.completed += 1;
        if st.completed == st.n {
            shared.done.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().expect("pool mutex poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.task.is_some() && st.batch != seen {
                    break;
                }
                st = shared.work.wait(st).expect("pool mutex poisoned");
            }
            seen = st.batch;
            st.task.as_ref().expect("batch published").0
        };
        // Safety: the dispatcher keeps the closure alive until
        // `completed == n`, and we only reach `completed == n` after
        // this worker's final `f` call returns (see `TaskPtr`).
        let f = unsafe { &*task };
        drain_tasks(shared, slot, seen, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn auto_detection_resolves_zero_to_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn auto_detection_edge_cases() {
        // `0` resolves to available_parallelism — and on a box where
        // that probe fails it must still land on a usable count (the
        // contract is ≥ 1, never 0; a 1-core box resolves to exactly
        // its core count).
        let auto = effective_threads(0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto, cores);
        assert!(auto >= 1, "auto must never resolve to zero workers");
        // Oversubscription is taken literally, not clamped: asking for
        // more threads than cores is a valid (if unwise) setting.
        let oversubscribed = cores + 8;
        assert_eq!(effective_threads(oversubscribed), oversubscribed);
        assert_eq!(effective_threads(usize::MAX), usize::MAX);
    }

    #[test]
    fn oversubscribed_pool_still_runs_every_task() {
        // More workers than the machine has cores: correctness must
        // not depend on threads actually running in parallel.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = WorkerPool::new(cores + 3);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(97, &|_, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 3, 64, 257] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, &|_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{n}");
        }
    }

    #[test]
    fn worker_slots_stay_in_range_and_exclusive() {
        let pool = WorkerPool::new(3);
        let in_use: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let ran = AtomicUsize::new(0);
        pool.run(100, &|slot, _| {
            assert!(slot < 3);
            // A second thread inside this slot would find the flag set.
            assert!(
                !in_use[slot].swap(true, Ordering::AcqRel),
                "slot {slot} entered twice at once"
            );
            // Hold the slot long enough for sibling workers to overlap.
            std::thread::sleep(std::time::Duration::from_micros(200));
            ran.fetch_add(1, Ordering::Relaxed);
            in_use[slot].store(false, Ordering::Release);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let sum = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(10, &|_, i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 45 * 50);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicUsize::new(0);
        pool.run(16, &|slot, i| {
            assert_eq!(slot, 0);
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|_, i| {
                assert!(i != 5, "boom");
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the dispatcher");
        // The pool must remain usable after a task panic.
        let sum = AtomicUsize::new(0);
        pool.run(4, &|_, i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }
}
