//! The simulation event loop.
//!
//! [`Simulation::run`] drives a set of [`JobSpec`]s through the fabric
//! under a pluggable [`Scheduler`]:
//!
//! 1. when a job arrives, its DAG's leaf coflows activate and their flows
//!    open;
//! 2. flows progress fluidly at rates computed by
//!    [`crate::bandwidth::allocate`] under the scheduler's queue
//!    assignment and service policy;
//! 3. when all flows of a coflow finish, the coflow completes; parents
//!    whose children have all completed activate immediately (so
//!    parallel chains advance independently, as the paper requires);
//! 4. the job completes when all its root coflows do.
//!
//! The scheduler is consulted after every event batch and at a periodic
//! δ tick (the paper's receiver→head-receiver update interval). Priority
//! changes respect the paper's TCP-reordering rule unless the scheduler
//! opts out: live flows may be demoted immediately, promotions apply
//! only to flows that start later.

use crate::bandwidth::{Allocator, Demands, Discipline};
use crate::control::{Centralized, ControlInput, ControlPlane, LocalObservation};
use crate::faults::{
    resalt_live_path, ControlFaultEvent, ControlFaults, FaultOverlay, FaultSchedule, TimedFault,
};
use crate::pool::{effective_threads, WorkerPool};
use crate::sched::{CoflowObs, FlowObs, JobObs, Observation, Oracle, QueuePolicy, Scheduler};
use crate::stats::{CoflowResult, FaultRecord, JobResult, RunResult};
use crate::telemetry::{EpochSample, Probe, TelemetryConfig, TelemetrySink, TraceRecord};
use crate::topology::{Fabric, LinkId, PathArena, PathRef};
use crate::SimError;
use gurita_model::{CoflowId, FlowId, HostId, JobId, JobSpec};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Mutex;

/// Simulation tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Scheduler update interval δ in seconds (the paper's periodic
    /// receiver→HR update). Default: 5 ms.
    pub tick_interval: f64,
    /// Safety bound on processed events; the run aborts with
    /// [`SimError::EventBudgetExhausted`] beyond it. Default: 100 million.
    pub max_events: u64,
    /// A flow completes when its remaining volume drops to or below this
    /// many bytes. Default: 0.1 bytes — far below a packet, so completion
    /// times are exact to sub-microsecond at any realistic rate, while
    /// avoiding the floating-point stall of a vanishing residue.
    pub completion_eps: f64,
    /// Collect per-link byte counters into
    /// [`RunResult::link_bytes`]. Off by default (it adds `O(path)`
    /// work per flow per event).
    pub collect_link_stats: bool,
    /// Disable component-incremental rate recomputation and re-waterfill
    /// every flow after every event, as the pre-incremental engine did.
    /// Off by default; useful as a safety valve and as the reference
    /// behavior for equivalence tests. Full passes use the *same
    /// canonical per-component semantics* as incremental ones: every
    /// unparked flow is grouped into its connected flow↔link component
    /// and each component is waterfilled independently, so the freeze
    /// order inside a component never depends on how the pass was
    /// triggered. (Before PR 9 a full pass was one merged waterfill,
    /// whose `EPS`-slack stale-candidate recheck could couple freeze
    /// order across independent components at exact floating-point ties
    /// — incremental agreed with it only to ~1e-9 relative. The merged
    /// path is gone; both modes now produce identical rates.)
    pub force_full_recompute: bool,
    /// Worker threads for intra-run parallel work: the disjoint
    /// flow↔link components of one recompute epoch — incremental *or*
    /// full-pass — are waterfilled concurrently on a scoped worker
    /// pool, each with its own [`Allocator`] scratch, and merged in
    /// component-index order, and the per-event flow-advance sweep fans
    /// over fixed index-ordered chunks of the flow table. Component
    /// discovery always runs on the calling thread, before allocation.
    /// `1` (the default) runs everything on the calling thread; `0`
    /// resolves to one worker per available core (see
    /// [`crate::pool::effective_threads`]).
    ///
    /// Results are **bit-for-bit identical** at every thread count:
    /// every epoch waterfills per component (components are disjoint by
    /// construction, so each call sees exactly the same demand
    /// subsequence, link capacities, and discipline regardless of where
    /// or when it runs), and the fanned advance updates each flow
    /// independently with link-byte accounting merged in chunk order.
    /// Parallelism only changes wall-clock time — pinned by the
    /// serial-vs-parallel equality property tests, including forced
    /// full passes.
    pub threads: usize,
    /// Decision-propagation latency of a decentralized control plane, in
    /// seconds: a fresh priority table computed from merged per-host
    /// reports reaches the sender hosts this much later (as a timed
    /// `ControlUpdate` event), so hosts act on a *stale* view in the
    /// interim. `0` (the default) delivers instantaneously with no event
    /// traffic — result-identical to the centralized adapter for ported
    /// schemes. Ignored by [`crate::control::Centralized`].
    pub control_latency: f64,
    /// Arms the telemetry layer (see [`crate::telemetry`]): lifecycle
    /// event tracing and epoch-sampled time series, delivered to the
    /// sink passed to [`Simulation::try_run`] or
    /// [`Engine::online_traced`]. `None` (the default) disables all
    /// instrumentation — runs pay one branch per probe site and nothing
    /// else. Telemetry never perturbs scheduling: results are bit-for-
    /// bit identical with it on or off.
    pub telemetry: Option<TelemetryConfig>,
    /// Control-plane fault profile (see
    /// [`crate::faults::ControlFaults`]): lossy coordinator↔host
    /// channels, scheduled agent crashes, and coordinator partition
    /// windows, driven deterministically through the event loop. `None`
    /// (the default) or a null profile leaves the control plane on its
    /// exact legacy path. Ignored by [`crate::control::Centralized`]
    /// (an in-band controller has no separate control channel).
    pub control_faults: Option<ControlFaults>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            tick_interval: 5e-3,
            max_events: 100_000_000,
            completion_eps: 0.1,
            collect_link_stats: false,
            force_full_recompute: false,
            threads: 1,
            control_latency: 0.0,
            telemetry: None,
            control_faults: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    JobArrival(JobId),
    Tick,
    Completion {
        generation: u64,
    },
    /// Apply `fault_schedule[index]` to the fabric overlay.
    Fault {
        index: usize,
    },
    /// A delayed priority table reaches the hosts: hand `token` back to
    /// [`ControlPlane::deliver`] (see [`SimConfig::control_latency`]).
    ControlUpdate {
        token: u64,
    },
    /// A control-protocol timer (table delivery, ack receipt, or retry
    /// check under an armed fault profile): hand `token` back to
    /// [`ControlPlane::on_timer`].
    ControlTimer {
        token: u64,
    },
    /// Apply `control_timeline[index]` (agent crash/restart, partition
    /// edge) via [`ControlPlane::control_fault`].
    ControlFault {
        index: usize,
    },
}

#[derive(Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Cold per-flow state: identity, endpoints, queue assignment, and
/// lifecycle flags — everything the per-event sweeps do *not* touch.
/// The hot fields (rate, remaining, path, coflow id) live in the
/// index-aligned struct-of-arrays [`FlowHot`] block so the per-event
/// `advance_to` sweep and the completion/BFS scans stay cache-dense;
/// `flows[pos]` and `hot.*[pos]` always describe the same flow.
#[derive(Debug)]
struct FlowState {
    id: FlowId,
    src: HostId,
    dst: HostId,
    size: f64,
    queue: usize,
    fresh: bool,
    /// The flow's path crosses a hard-failed link and no detour exists;
    /// it holds its delivered bytes at zero rate until a recovery.
    parked: bool,
    /// Bumped every time the flow's rate is set; completion-index
    /// entries carry the stamp they were pushed under and go stale when
    /// it moves on.
    stamp: u64,
}

/// Hot per-flow state, struct-of-arrays: the four fields the per-event
/// hot loops read or write for *every* open flow. Splitting them out of
/// [`FlowState`] keeps each sweep's working set at 8 bytes per flow per
/// array instead of dragging the whole ~64-byte record through cache:
///
/// * `advance_to` sweeps `rate` × `remaining` (plus `path` with link
///   stats armed) — now a branch-poor, vectorizable kernel over dense
///   `f64` lanes, and independently fan-able in index chunks;
/// * the completion filter scans `remaining` / `path`;
/// * the dirty-component BFS and the demand views walk `path`;
/// * coflow attribution on completion/park reads `coflow`.
///
/// All four vectors are index-aligned with `Engine::flows` and mutate
/// in lock-step (`push` / `swap_remove`), so a flow-table position
/// indexes every array interchangeably.
#[derive(Debug, Default)]
struct FlowHot {
    rate: Vec<f64>,
    remaining: Vec<f64>,
    /// Interned route; resolve against the engine's [`PathArena`].
    path: Vec<PathRef>,
    coflow: Vec<CoflowId>,
}

impl FlowHot {
    fn push(&mut self, rate: f64, remaining: f64, path: PathRef, coflow: CoflowId) {
        self.rate.push(rate);
        self.remaining.push(remaining);
        self.path.push(path);
        self.coflow.push(coflow);
    }

    /// Removes position `pos` in lock-step with a
    /// `flows.swap_remove(pos)`, returning the removed hot fields.
    fn swap_remove(&mut self, pos: usize) -> (f64, f64, PathRef, CoflowId) {
        (
            self.rate.swap_remove(pos),
            self.remaining.swap_remove(pos),
            self.path.swap_remove(pos),
            self.coflow.swap_remove(pos),
        )
    }
}

/// Lazy completion-index entry: the predicted absolute finish time of a
/// flow at its current rate (`t_set + remaining_at_set / rate`, which is
/// invariant while the rate holds). Min-time first; stale entries
/// (superseded stamp or completed flow) are skipped on pop.
#[derive(Debug)]
struct FinishCand {
    time: f64,
    flow: FlowId,
    stamp: u64,
}

impl PartialEq for FinishCand {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.flow == other.flow && self.stamp == other.stamp
    }
}
impl Eq for FinishCand {}
impl PartialOrd for FinishCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishCand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, flow id) for deterministic tie order.
        // Finish times are non-negative and never NaN (`now +
        // remaining / rate` with `rate > 0`), so `total_cmp` — a
        // branch-free integer comparison — matches `partial_cmp`'s
        // numeric order exactly.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.flow.index().cmp(&self.flow.index()))
            .then_with(|| other.stamp.cmp(&self.stamp))
    }
}

/// Which rates the next recomputation must refresh. Events accumulate
/// seed links (the links they touched); the recompute pass expands them
/// to the affected flow↔link component(s). On a discipline change the
/// pass starts from the full partition instead, and a weights-only pass
/// still re-rates every component the seeds touch.
#[derive(Debug, Default)]
struct DirtyRates {
    /// Anything to do at all?
    any: bool,
    /// Recompute every flow (discipline/policy change or explicit
    /// request); `links` is irrelevant when set.
    full: bool,
    /// Seed link indices touched since the last recomputation
    /// (unsorted, may contain duplicates — the BFS dedups).
    links: Vec<usize>,
}

impl DirtyRates {
    fn mark_path(&mut self, path: &[LinkId]) {
        self.any = true;
        if !self.full {
            self.links.extend(path.iter().map(|l| l.index()));
        }
    }

    fn mark_link(&mut self, l: LinkId) {
        self.any = true;
        if !self.full {
            self.links.push(l.index());
        }
    }
}

/// Zero-copy [`Demands`] view over a subset of the engine's flow table:
/// demand `i` is flow-table position `subset[i]`. Paths come from the
/// hot SoA block, queues from the cold records; building one costs
/// three borrows, never a `Vec<Demand>` per event.
struct FlowDemandView<'a> {
    flows: &'a [FlowState],
    paths: &'a [PathRef],
    subset: &'a [usize],
    arena: &'a PathArena,
}

impl Demands for FlowDemandView<'_> {
    fn len(&self) -> usize {
        self.subset.len()
    }
    fn path(&self, i: usize) -> &[LinkId] {
        self.arena.get(self.paths[self.subset[i]])
    }
    fn queue(&self, i: usize) -> usize {
        self.flows[self.subset[i]].queue
    }
}

#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    id: FlowId,
    /// Sender host — the host whose agent observes this flow under a
    /// decentralized control plane.
    src: HostId,
    bytes_done: f64,
    open: bool,
}

#[derive(Debug)]
struct CoflowState {
    id: CoflowId,
    job: JobId,
    dag_vertex: usize,
    dag_stage: usize,
    activated_at: f64,
    open_flows: usize,
    queue: usize,
    total_bytes: f64,
    /// All flows of the coflow (open and completed); completed entries
    /// retain their final byte counts for receiver-side observation.
    flows: Vec<FlowRecord>,
    // ---- starvation watch (see `crate::telemetry` module docs) ----
    /// Open flows currently holding a usable rate (`> FLOWING_EPS`).
    /// Purely observational — scheduling never reads it.
    flowing: usize,
    /// Start of the current zero-rate interval, `None` while flowing.
    /// Coflows are born starved (rates arrive with the same event's
    /// recomputation, so the initial interval has zero width unless the
    /// coflow starts parked or outprioritized).
    starved_since: Option<f64>,
    /// Sum of closed zero-rate intervals.
    starved_total: f64,
    /// Longest closed zero-rate interval.
    starved_max: f64,
}

#[derive(Debug)]
struct JobState {
    arrival: f64,
    /// Remaining (uncompleted) children per DAG vertex.
    pending_children: Vec<usize>,
    completed: Vec<bool>,
    completed_coflows: usize,
    /// `max completed stage + 1`, i.e. the count of fully entered stages.
    completed_stages: usize,
    remaining_coflows: usize,
    /// Bytes received by already-completed coflows.
    completed_bytes: f64,
    /// Flows of this job rerouted around failed links.
    fault_reroutes: usize,
    /// Flows of this job parked on failed links.
    fault_parks: usize,
}

/// A flow-level datacenter simulation over a fabric.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Simulation<F: Fabric> {
    fabric: F,
    config: SimConfig,
}

impl<F: Fabric> Simulation<F> {
    /// Creates a simulation over `fabric` with the given configuration.
    pub fn new(fabric: F, config: SimConfig) -> Self {
        Self { fabric, config }
    }

    /// Borrow the underlying fabric.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Runs `jobs` to completion under `scheduler` and returns the
    /// completion records — [`Simulation::try_run`] with the scheduler
    /// wrapped in [`Centralized`], no faults and no telemetry sink.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`]: if the event budget is exhausted (see
    /// [`SimConfig`]), if a job references a host outside the fabric, or
    /// if the scheduler returns a malformed assignment.
    pub fn run(&mut self, jobs: Vec<JobSpec>, scheduler: &mut dyn Scheduler) -> RunResult {
        let mut plane = Centralized::new(scheduler);
        self.try_run(jobs, &mut plane, &FaultSchedule::new(), None)
            .expect("simulation failed; see SimError for details")
    }

    /// Runs `jobs` to completion under an explicit [`ControlPlane`]
    /// while injecting `faults` at their scheduled times — the general
    /// entry point. A classic [`Scheduler`] runs as
    /// [`Centralized::new(scheduler)`](Centralized::new), bit-for-bit
    /// the decisions [`Simulation::run`] makes; decentralized schemes
    /// use [`crate::control::Decentralized`] (see
    /// [`SimConfig::control_latency`]).
    ///
    /// See [`crate::faults`] for the fault model: degradations scale
    /// link capacities in place; hard failures reroute affected flows
    /// over fresh ECMP paths (delivered bytes preserved) or park them
    /// until the matching recovery. Pass `&FaultSchedule::new()` for
    /// none.
    ///
    /// `sink` receives telemetry (see [`crate::telemetry`]), armed only
    /// when [`SimConfig::telemetry`] is `Some`; with it `None` the sink
    /// receives nothing. Either way the returned result is bit-for-bit
    /// what the run without a sink produces.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidFault`] if the schedule references unknown
    ///   links/hosts, uses a factor outside `(0, 1]`, or carries a
    ///   non-finite/negative time, or if `config.control_faults` fails
    ///   validation;
    /// * [`SimError::UnknownHost`] if a flow endpoint is outside the
    ///   fabric;
    /// * [`SimError::StrandedFlows`] if every in-flight flow ends up
    ///   parked on failed links with no recovery, arrival, or further
    ///   fault scheduled;
    /// * [`SimError::EventBudgetExhausted`] if the run does not finish
    ///   within `config.max_events` events.
    pub fn try_run(
        &mut self,
        jobs: Vec<JobSpec>,
        plane: &mut dyn ControlPlane,
        faults: &FaultSchedule,
        sink: Option<&mut dyn TelemetrySink>,
    ) -> Result<RunResult, SimError> {
        faults.validate(&self.fabric)?;
        if let Some(cf) = &self.config.control_faults {
            cf.validate(self.fabric.num_hosts())?;
        }
        // Reborrow so the sink's trait-object lifetime can shrink to the
        // engine's.
        let sink = sink.map(|s| s as &mut dyn TelemetrySink);
        Engine::new(&self.fabric, &self.config, jobs, plane, faults, sink).run()
    }
}

/// A flow counts toward its coflow's `flowing` tally when its rate
/// exceeds this. Matches the completion index's "will complete" rate
/// threshold so the starvation watch and the event loop agree on what
/// "progress" means. Infinite rates (empty-path flows under a full
/// recompute) count as flowing.
const FLOWING_EPS: f64 = 1e-15;

/// Minimum total flows in a multi-component epoch before the pool is
/// woken (below it, condvar wakeup latency exceeds the waterfill work).
/// Purely a wall-clock heuristic: the serial fallback is the same
/// per-component loop, so the threshold can never change results.
const PAR_MIN_FLOWS: usize = 32;

/// Minimum open flows before the per-event advance sweep fans across
/// the pool. The sweep costs ~1 ns/flow, so below a few thousand flows
/// the condvar wakeup would eat the win. Wall-clock heuristic only:
/// each flow's update is independent, so the serial sweep and any
/// chunking produce bit-identical state.
const PAR_MIN_ADVANCE_FLOWS: usize = 1024;

/// Floor on the fanned advance sweep's chunk width (flows per task), so
/// a pathological `threads ≫ flows` setting cannot shred the sweep into
/// cache-line-sized tasks.
const MIN_ADVANCE_CHUNK: usize = 256;

/// Union-find `find` with path halving; indices are flow-table
/// positions, roots satisfy `parent[x] == x`. Used by the full-pass
/// component grouping (see [`Engine::collect_full_components`]).
#[inline]
fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Dense flow-id → flow-table position map. Flow ids are handed out
/// densely by `Engine::next_flow_id`, so indexed slots beat a hash map
/// on the hot lookups (completion validation, dirty-component walks,
/// finish-heap compaction); `NONE` marks finished or unindexed ids.
#[derive(Debug, Default)]
struct FlowPosMap {
    slots: Vec<u32>,
}

impl FlowPosMap {
    const NONE: u32 = u32::MAX;

    fn get(&self, fid: FlowId) -> Option<usize> {
        match self.slots.get(fid.index()) {
            Some(&p) if p != Self::NONE => Some(p as usize),
            _ => None,
        }
    }

    fn insert(&mut self, fid: FlowId, pos: usize) {
        let i = fid.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Self::NONE);
        }
        self.slots[i] = u32::try_from(pos).expect("flow table fits u32 positions");
    }

    fn remove(&mut self, fid: FlowId) -> Option<usize> {
        match self.slots.get_mut(fid.index()) {
            Some(p) if *p != Self::NONE => {
                let old = *p as usize;
                *p = Self::NONE;
                Some(old)
            }
            _ => None,
        }
    }
}

/// What a stepping call observed about the engine's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was processed (or a bounded run stopped with events
    /// still pending); the simulation can keep stepping.
    Advanced,
    /// Every submitted job has completed and no flow is in flight. An
    /// online engine stays usable: submitting another job un-drains it.
    Drained,
    /// Nothing to do: the event queue is empty (or, for
    /// [`Engine::run_until`], holds only events past the horizon) while
    /// jobs are still outstanding — the engine is waiting for
    /// submissions or for the horizon to move.
    Idle,
}

/// Live progress of a running job (see [`Engine::job_phase`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Coflows completed so far.
    pub completed_coflows: usize,
    /// Total coflows in the job's DAG.
    pub total_coflows: usize,
    /// Bytes of completed coflows.
    pub completed_bytes: f64,
    /// Total bytes across the whole job.
    pub total_bytes: f64,
}

/// Lifecycle phase of a job id inside a (possibly still running)
/// engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobPhase {
    /// Never submitted to this engine.
    NotSubmitted,
    /// Submitted; arrival event not yet processed.
    Pending,
    /// Activated and moving bytes.
    Running {
        /// Coflow/byte progress at the current virtual time.
        progress: JobProgress,
    },
    /// All coflows completed.
    Completed {
        /// Virtual time of completion.
        at: f64,
    },
    /// Cancelled via [`Engine::cancel_job`].
    Cancelled,
}

/// The live simulation core: a steppable discrete-event engine.
///
/// The offline entry points ([`Simulation::run`] and
/// [`Simulation::try_run`]) construct
/// one internally, seed it with the whole workload, and drive it to
/// completion. Service mode constructs one with [`Engine::online`] and
/// drives it incrementally: [`Engine::submit_job`] admits work
/// mid-simulation through the same dirty-link incremental recompute an
/// arrival event uses, [`Engine::step`] / [`Engine::run_until`] /
/// [`Engine::run_for`] advance the clock, and [`Engine::finish`]
/// produces the [`RunResult`].
///
/// **Admission invariant** (property-tested): submitting the entire
/// workload via [`Engine::submit_job`] before the first step and then
/// running to drain yields a `RunResult` bit-for-bit identical to the
/// offline run of the same workload — event seq numbers, f64
/// accumulation order, everything.
pub struct Engine<'a, F: Fabric> {
    fabric: &'a F,
    config: &'a SimConfig,
    plane: &'a mut dyn ControlPlane,
    specs: HashMap<JobId, JobSpec>,

    queue: BinaryHeap<Event>,
    seq: u64,
    now: f64,
    events: u64,

    /// Fault / control-timeline events are pushed lazily on the first
    /// step so that pre-start [`Engine::submit_job`] calls receive the
    /// same seq numbers the offline constructor would assign.
    started: bool,
    /// Online engines skip the stranded-flow fail-fast (new submissions
    /// can arrive over the socket at any time, so "no arrival or
    /// recovery scheduled" does not imply a livelock) and accept
    /// submissions after a transient drain.
    online: bool,
    /// Jobs cancelled via [`Engine::cancel_job`]; pending arrival events
    /// for these ids are skipped.
    cancelled: HashSet<JobId>,
    /// Completion times of finished jobs (status queries + duplicate-id
    /// rejection after the spec is dropped).
    completed_at: HashMap<JobId, f64>,

    /// Shared interned path storage; every `FlowHot::path` entry
    /// resolves here. ECMP on a fat-tree yields few distinct routes, so
    /// the arena stays small while flows come and go.
    arena: PathArena,

    flows: Vec<FlowState>,
    /// Hot per-flow fields, index-aligned with `flows` (see [`FlowHot`]).
    hot: FlowHot,
    flow_pos: FlowPosMap,
    next_flow_id: usize,
    next_coflow_id: usize,

    coflows: HashMap<CoflowId, CoflowState>,
    active_coflows: Vec<CoflowId>,
    jobs_state: HashMap<JobId, JobState>,

    completion_generation: u64,
    dirty: DirtyRates,
    tick_pending: bool,
    /// Dense per-link byte counters (indexed by link id), populated only
    /// when [`SimConfig::collect_link_stats`] is set — one fabric-sized
    /// array beats the old `HashMap<usize, f64>`'s per-flow-per-link
    /// `entry()` probe in the advance sweep by an order of magnitude.
    /// Empty (never allocated) with stats off.
    link_bytes: Vec<f64>,

    fault_schedule: Vec<TimedFault>,
    overlay: FaultOverlay,
    /// Expanded control-fault timeline (crashes/partitions), indexed by
    /// `EventKind::ControlFault` events. Empty unless armed.
    control_timeline: Vec<(f64, ControlFaultEvent)>,

    // ---- hot-path scratch (reused across events; see DESIGN.md) ----
    /// Dense-array water-filling allocator, sized to the fabric.
    allocator: Allocator,
    /// Discipline used by the previous recomputation. A change of queue
    /// count forces a full pass; any other change is a weights-only pass,
    /// which re-rates only the components that mix queues or touch a
    /// dirty link (see [`Engine::retain_moved_components`]).
    last_discipline: Option<Discipline>,
    /// link index → flows whose path crosses it. Entries are tombstoned
    /// lazily: a listed flow may have completed, parked, or rerouted
    /// away; readers validate against `flow_pos`/`path` and compact.
    link_flows: Vec<Vec<FlowId>>,
    /// Epoch stamps for BFS visited-sets (avoid O(L)/O(F) clears).
    link_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    mark_epoch: u64,
    /// BFS worklist of link indices (scratch).
    bfs_stack: Vec<usize>,
    /// Full-pass union-find scratch: per-flow-position parent pointers
    /// (see [`Engine::collect_full_components`]).
    uf_parent: Vec<u32>,
    /// Full-pass scratch: link index → representative flow position of
    /// the flows seen crossing it this epoch (valid iff `link_mark`
    /// carries the current epoch).
    link_owner: Vec<u32>,
    /// Full-pass scratch: component sizes accumulated at union-find
    /// roots, converted in place into the scatter cursors.
    uf_counts: Vec<u32>,
    /// Full-pass scratch: unparked flow positions in ascending order,
    /// collected during the union sweep so the numbering and scatter
    /// sweeps skip parked entries without touching cold flow state.
    uf_live: Vec<u32>,
    /// Topology generation: bumped whenever the component structure's
    /// inputs change — a flow enters or leaves the table (positions
    /// shift on `swap_remove`), parks or resumes, or reroutes to a new
    /// path. Discipline changes and capacity overlays do NOT bump it:
    /// they change rates, never which flows share links.
    topo_gen: u64,
    /// `topo_gen` the cached full partition below was computed at;
    /// `u64::MAX` = no cached partition.
    full_gen: u64,
    /// Cached full-pass partition members (see
    /// [`Engine::collect_full_components`]): flagship Gurita shifts WRR
    /// weights with queue loads, so back-to-back weights-only passes
    /// over an unchanged topology are the common case and reuse this
    /// instead of re-running the union-find sweeps.
    full_comp: Vec<usize>,
    /// Cached full-pass partition bounds (pairs with `full_comp`).
    full_bounds: Vec<usize>,
    /// Flow positions under recomputation, grouped by connected
    /// component: component `c` is `component[comp_bounds[c] ..
    /// comp_bounds[c + 1]]`, each group sorted ascending (scratch).
    component: Vec<usize>,
    /// Component group boundaries into `component`; `comp_bounds[0] ==
    /// 0` always, one extra entry per non-empty component (scratch).
    comp_bounds: Vec<usize>,
    /// Rate output buffer for the allocator (scratch).
    rate_buf: Vec<f64>,
    /// Recycled per-chunk sparse `(link, bytes)` accumulators for the
    /// fanned stats-on advance sweep (scratch).
    advance_stat_bufs: Vec<Vec<(u32, f64)>>,
    /// Effective intra-run worker count (see [`SimConfig::threads`]).
    threads: usize,
    /// Parked worker threads for parallel recomputation; `None` when
    /// `threads == 1`.
    pool: Option<WorkerPool>,
    /// One waterfill scratch [`Allocator`] per pool worker slot, built
    /// lazily on the first parallel dispatch (each is fabric-sized).
    /// Each mutex is only ever locked by the worker owning the slot, so
    /// it is uncontended by construction.
    worker_alloc: Vec<Mutex<Allocator>>,
    /// Links touched / waterfill passes summed over the most recent
    /// recompute epoch's allocator calls, in component-index order —
    /// the telemetry view stays coherent whether the epoch ran
    /// per-component serial or fanned over the pool.
    last_alloc_touched: usize,
    last_alloc_passes: u64,
    /// Lazy completion index: predicted finish times keyed by rate stamp.
    finish_heap: BinaryHeap<FinishCand>,
    /// Global counter backing `FlowState::stamp`.
    rate_stamp: u64,

    result: RunResult,
    remaining_jobs: usize,

    /// Telemetry probe; armed only when [`SimConfig::telemetry`] is set
    /// *and* a sink was handed to the engine. Disarmed it
    /// costs one branch per probe site.
    probe: Probe<'a>,
}

impl<'a, F: Fabric> Engine<'a, F> {
    fn new(
        fabric: &'a F,
        config: &'a SimConfig,
        jobs: Vec<JobSpec>,
        plane: &'a mut dyn ControlPlane,
        faults: &FaultSchedule,
        sink: Option<&'a mut dyn TelemetrySink>,
    ) -> Self {
        let mut queue = BinaryHeap::new();
        let mut seq = 0u64;
        let remaining_jobs = jobs.len();
        let mut specs = HashMap::with_capacity(jobs.len());
        for job in jobs {
            queue.push(Event {
                time: job.arrival(),
                seq,
                kind: EventKind::JobArrival(job.id()),
            });
            seq += 1;
            specs.insert(job.id(), job);
        }
        let fault_schedule = faults.events().to_vec();
        let mut control_timeline = Vec::new();
        if let Some(cf) = &config.control_faults {
            // Arm even a null profile (the plane ignores it) so the
            // plumbing is uniform; only non-null profiles change
            // behavior or schedule events.
            plane.arm_control_faults(cf);
            if !cf.is_null() {
                control_timeline = cf.timeline();
            }
        }
        // Fault / control-timeline events are pushed by `ensure_started`
        // on the first step, after any pre-start online submissions, so
        // both admission paths assign identical event seq numbers.
        let scheduler_name = plane.name();
        let sample_interval = config.telemetry.as_ref().map_or(config.tick_interval, |t| {
            if t.sample_interval > 0.0 {
                t.sample_interval
            } else {
                config.tick_interval
            }
        });
        let probe = Probe::new(
            if config.telemetry.is_some() {
                sink
            } else {
                None
            },
            sample_interval,
        );
        let threads = effective_threads(config.threads);
        Self {
            fabric,
            config,
            plane,
            specs,
            queue,
            seq,
            now: 0.0,
            events: 0,
            started: false,
            online: false,
            cancelled: HashSet::new(),
            completed_at: HashMap::new(),
            arena: PathArena::new(),
            flows: Vec::new(),
            hot: FlowHot::default(),
            flow_pos: FlowPosMap::default(),
            next_flow_id: 0,
            next_coflow_id: 0,
            coflows: HashMap::new(),
            active_coflows: Vec::new(),
            jobs_state: HashMap::new(),
            completion_generation: 0,
            dirty: DirtyRates::default(),
            tick_pending: false,
            link_bytes: if config.collect_link_stats {
                vec![0.0; fabric.num_links()]
            } else {
                Vec::new()
            },
            fault_schedule,
            overlay: FaultOverlay::new(),
            control_timeline,
            allocator: Allocator::new(fabric.num_links()),
            last_discipline: None,
            link_flows: vec![Vec::new(); fabric.num_links()],
            link_mark: vec![0; fabric.num_links()],
            flow_mark: Vec::new(),
            mark_epoch: 0,
            bfs_stack: Vec::new(),
            uf_parent: Vec::new(),
            link_owner: vec![0; fabric.num_links()],
            uf_counts: Vec::new(),
            uf_live: Vec::new(),
            topo_gen: 0,
            full_gen: u64::MAX,
            full_comp: Vec::new(),
            full_bounds: Vec::new(),
            component: Vec::new(),
            comp_bounds: Vec::new(),
            rate_buf: Vec::new(),
            advance_stat_bufs: Vec::new(),
            threads,
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            worker_alloc: Vec::new(),
            last_alloc_touched: 0,
            last_alloc_passes: 0,
            finish_heap: BinaryHeap::new(),
            rate_stamp: 0,
            result: RunResult {
                scheduler: scheduler_name,
                ..RunResult::default()
            },
            remaining_jobs,
            probe,
        }
    }

    /// Creates an empty online engine over `fabric`: no jobs are
    /// seeded; admit work with [`Engine::submit_job`] and advance with
    /// [`Engine::step`] / [`Engine::run_until`] / [`Engine::run_for`].
    /// `faults` may carry a link/host fault schedule to inject (pass
    /// `&FaultSchedule::new()` for none); control-plane faults arm from
    /// `config.control_faults` exactly like the offline path.
    ///
    /// Online engines skip the stranded-flow fail-fast: with a live
    /// submission socket, "no arrival scheduled" does not imply the run
    /// can never drain.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] if `faults` or
    /// `config.control_faults` fail validation against the fabric.
    pub fn online(
        fabric: &'a F,
        config: &'a SimConfig,
        plane: &'a mut dyn ControlPlane,
        faults: &FaultSchedule,
    ) -> Result<Self, SimError> {
        faults.validate(fabric)?;
        if let Some(cf) = &config.control_faults {
            cf.validate(fabric.num_hosts())?;
        }
        let mut engine = Self::new(fabric, config, Vec::new(), plane, faults, None);
        engine.online = true;
        Ok(engine)
    }

    /// [`Engine::online`] with telemetry delivered to `sink` (armed only
    /// when `config.telemetry` is set, mirroring the `sink` argument of
    /// [`Simulation::try_run`]).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::online`].
    pub fn online_traced(
        fabric: &'a F,
        config: &'a SimConfig,
        plane: &'a mut dyn ControlPlane,
        faults: &FaultSchedule,
        sink: &'a mut dyn TelemetrySink,
    ) -> Result<Self, SimError> {
        faults.validate(fabric)?;
        if let Some(cf) = &config.control_faults {
            cf.validate(fabric.num_hosts())?;
        }
        let mut engine = Self::new(fabric, config, Vec::new(), plane, faults, Some(sink));
        engine.online = true;
        Ok(engine)
    }

    fn run(mut self) -> Result<RunResult, SimError> {
        let outcome = self.run_to_drained();
        // Flush even when the run errors out: the partial trace up to
        // the failure is exactly what one wants for debugging it.
        self.probe.flush();
        outcome?;
        Ok(self.into_result())
    }

    /// Finalizes the engine into its [`RunResult`]: flushes any armed
    /// telemetry sink and stamps makespan, event count, the control
    /// plane's resilience ledger, and the path-arena diagnostics. The
    /// service-mode counterpart of the offline epilogue — call after
    /// [`Engine::run_to_drained`] (or at daemon shutdown, for a partial
    /// result covering everything completed so far).
    pub fn finish(mut self) -> RunResult {
        self.probe.flush();
        self.into_result()
    }

    fn into_result(mut self) -> RunResult {
        self.result.makespan = self.now;
        self.result.events = self.events;
        if let Some(res) = self.plane.resilience(self.now) {
            self.result.control = res;
        }
        self.result.path_arena_unique = self.arena.unique_paths();
        self.result.path_arena_interns = self.arena.interns();
        self.result.path_arena_hit_rate = self.arena.hit_rate();
        self.result.path_arena_storage_bytes = self.arena.storage_bytes();
        if self.config.collect_link_stats {
            // Dense counters → sparse report: links that never moved a
            // byte are omitted (as the old hash-map accumulator omitted
            // links never touched). The stable sort on an index-ordered
            // input makes equal-byte ties deterministic, index-ascending.
            let mut v: Vec<(usize, f64)> = self
                .link_bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b != 0.0)
                .map(|(l, &b)| (l, b))
                .collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("byte counts are finite"));
            self.result.link_bytes = v;
        }
        self.result
    }

    /// Pushes the deferred fault / control-timeline events on the first
    /// step. Deferral (rather than pushing in the constructor) is what
    /// makes the admission invariant hold: pre-start `submit_job` calls
    /// consume seq numbers first, exactly like the offline constructor's
    /// arrival loop, and the fault/control events follow.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.fault_schedule.len() {
            self.queue.push(Event {
                time: self.fault_schedule[index].at,
                seq: self.seq,
                kind: EventKind::Fault { index },
            });
            self.seq += 1;
        }
        for index in 0..self.control_timeline.len() {
            self.queue.push(Event {
                time: self.control_timeline[index].0,
                seq: self.seq,
                kind: EventKind::ControlFault { index },
            });
            self.seq += 1;
        }
    }

    /// Runs the engine until every submitted job has completed (or the
    /// queue runs dry). Identical event ordering to the historical
    /// monolithic run loop; the offline entry points call this.
    pub fn run_to_drained(&mut self) -> Result<StepOutcome, SimError> {
        self.ensure_started();
        loop {
            match self.step_inner()? {
                StepOutcome::Advanced => {}
                done => return Ok(done),
            }
        }
    }

    /// Processes every pending event with timestamp `<= horizon`, then
    /// stops. The virtual clock ([`Engine::now`]) lands on the last
    /// processed event — it is never advanced past an event-free gap, so
    /// interleaving `run_until` calls with [`Engine::submit_job`] yields
    /// the same fluid-flow arithmetic (bit-for-bit) as one uninterrupted
    /// run. Drives the daemon's virtual-time pacing.
    pub fn run_until(&mut self, horizon: f64) -> Result<StepOutcome, SimError> {
        self.ensure_started();
        loop {
            match self.queue.peek().map(|e| e.time) {
                Some(t) if t <= horizon => {
                    // Keep draining even past a transient drain: stale
                    // ticks/completions inside the horizon are popped so
                    // the queue stays clean between submissions.
                    self.step_inner()?;
                }
                _ => {
                    return Ok(if self.drained() {
                        StepOutcome::Drained
                    } else {
                        StepOutcome::Idle
                    });
                }
            }
        }
    }

    /// Processes at most `max_steps` events — the daemon's
    /// as-fast-as-possible slice, bounded so command handling stays
    /// responsive. Returns [`StepOutcome::Advanced`] when the budget was
    /// exhausted with events still pending.
    pub fn run_for(&mut self, max_steps: u64) -> Result<StepOutcome, SimError> {
        self.ensure_started();
        for _ in 0..max_steps {
            match self.step_inner()? {
                StepOutcome::Advanced => {}
                done => return Ok(done),
            }
        }
        Ok(StepOutcome::Advanced)
    }

    /// Processes exactly one pending event (arrival, tick, completion,
    /// fault, or control message) and everything that cascades from it:
    /// completion harvesting, the scheduler decision point, and the
    /// incremental rate recompute.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.ensure_started();
        self.step_inner()
    }

    fn step_inner(&mut self) -> Result<StepOutcome, SimError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(if self.drained() {
                StepOutcome::Drained
            } else {
                StepOutcome::Idle
            });
        };
        self.events += 1;
        if self.events > self.config.max_events {
            return Err(SimError::EventBudgetExhausted {
                max_events: self.config.max_events,
            });
        }
        debug_assert!(ev.time + 1e-12 >= self.now, "time must not run backwards");
        self.advance_to(ev.time);
        match ev.kind {
            EventKind::JobArrival(id) => {
                if self.cancelled.contains(&id) {
                    // Cancelled before arrival; the spec is gone and
                    // `remaining_jobs` was adjusted at cancel time.
                    return Ok(StepOutcome::Advanced);
                }
                self.activate_job(id)?;
            }
            EventKind::Tick => {
                self.tick_pending = false;
            }
            EventKind::Completion { generation } => {
                if generation != self.completion_generation {
                    // Stale prediction superseded by a rate change;
                    // skip the decision point like the historical
                    // loop's `continue`.
                    return Ok(StepOutcome::Advanced);
                }
            }
            EventKind::Fault { index } => self.apply_fault(index)?,
            EventKind::ControlUpdate { token } => {
                // The scheduled table becomes the hosts' current
                // view; the uniform decision point below applies it.
                let _ = self.plane.deliver(token);
                if self.probe.on() {
                    if let Some(issued) = self.probe.control_issued.remove(&token) {
                        self.probe.emit(&TraceRecord::ControlDelivered {
                            t: self.now,
                            token,
                            staleness: self.now - issued,
                        });
                    }
                }
            }
            EventKind::ControlTimer { token } => {
                // A protocol step (delivery/ack/retry) under an
                // armed fault profile; any applied table reaches
                // the flows at the decision point below.
                let fx = self.plane.on_timer(token, self.now);
                self.push_control_timers(&fx.timers);
                if self.probe.on() {
                    for rec in &fx.trace {
                        self.probe.emit(rec);
                    }
                }
            }
            EventKind::ControlFault { index } => {
                let event = self.control_timeline[index].1;
                let trace = self.plane.control_fault(&event, self.now);
                if self.probe.on() {
                    for rec in &trace {
                        self.probe.emit(rec);
                    }
                }
            }
        }
        self.harvest_completions()?;
        self.reassign_priorities();
        if self.dirty.any {
            self.recompute_rates();
        }
        self.schedule_followups();
        if self.probe.on() {
            self.maybe_sample();
        }
        if self.drained() {
            return Ok(StepOutcome::Drained);
        }
        if !self.online {
            self.check_stranded()?;
        }
        Ok(StepOutcome::Advanced)
    }

    /// Admits a job into the running simulation. The job's arrival event
    /// is scheduled at `max(spec.arrival, now)` (a spec dated in the
    /// past is re-stamped to the current virtual time, so its JCT
    /// measures from admission); activation then flows through the exact
    /// same dirty-link incremental recompute a constructor-seeded
    /// arrival uses — admission cost is proportional to the touched
    /// network component, not the cluster.
    ///
    /// # Errors
    ///
    /// Those of [`Engine::check_job`], which runs first: a rejected job
    /// leaves the engine untouched.
    pub fn submit_job(&mut self, spec: JobSpec) -> Result<JobId, SimError> {
        self.check_job(&spec)?;
        let id = spec.id();
        let spec = if spec.arrival() < self.now {
            spec.with_arrival(self.now)
        } else {
            spec
        };
        self.queue.push(Event {
            time: spec.arrival(),
            seq: self.seq,
            kind: EventKind::JobArrival(id),
        });
        self.seq += 1;
        self.specs.insert(id, spec);
        self.remaining_jobs += 1;
        Ok(id)
    }

    /// Checks that [`Engine::submit_job`] would accept `spec`, without
    /// admitting it. Lets a caller that holds a job back (e.g. behind
    /// unmet dependencies) reject it at submission instead of at
    /// release.
    ///
    /// # Errors
    ///
    /// * [`SimError::DuplicateJob`] if the id was ever submitted before
    ///   (pending, running, completed, or cancelled);
    /// * [`SimError::InvalidJob`] if the arrival time is negative or not
    ///   finite, or a flow size is not positive and finite (a NaN would
    ///   otherwise reach the event heap, whose order treats it as equal
    ///   to every time);
    /// * [`SimError::UnknownHost`] if a flow endpoint is outside the
    ///   fabric.
    pub fn check_job(&self, spec: &JobSpec) -> Result<(), SimError> {
        let id = spec.id();
        if self.specs.contains_key(&id)
            || self.completed_at.contains_key(&id)
            || self.cancelled.contains(&id)
        {
            return Err(SimError::DuplicateJob { job: id.index() });
        }
        let invalid = |reason: String| SimError::InvalidJob {
            job: id.index(),
            reason,
        };
        let arrival = spec.arrival();
        if !(arrival.is_finite() && arrival >= 0.0) {
            return Err(invalid(format!(
                "arrival {arrival} is not a finite time >= 0"
            )));
        }
        let num_hosts = self.fabric.num_hosts();
        for cf in spec.coflows() {
            for fl in cf.flows() {
                if !(fl.bytes.is_finite() && fl.bytes > 0.0) {
                    return Err(invalid(format!(
                        "flow size {} is not positive and finite",
                        fl.bytes
                    )));
                }
                for host in [fl.src, fl.dst] {
                    if host.index() >= num_hosts {
                        return Err(SimError::UnknownHost {
                            host: host.index(),
                            num_hosts,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Cancels a job: a pending job simply never activates; a running
    /// job's open flows are torn down (freed capacity redistributes via
    /// the incremental recompute) and its partial coflow statistics are
    /// discarded. Returns `false` if the id is unknown, already
    /// completed, or already cancelled.
    pub fn cancel_job(&mut self, id: JobId) -> bool {
        if self.jobs_state.contains_key(&id) {
            let cids: Vec<CoflowId> = self
                .active_coflows
                .iter()
                .copied()
                .filter(|c| self.coflows[c].job == id)
                .collect();
            for cid in cids {
                let state = self.coflows.remove(&cid).expect("active coflow");
                self.active_coflows.retain(|&c| c != cid);
                for rec in &state.flows {
                    if !rec.open {
                        continue;
                    }
                    let Some(pos) = self.flow_pos.remove(rec.id) else {
                        continue;
                    };
                    self.flows.swap_remove(pos);
                    let (_, _, path, _) = self.hot.swap_remove(pos);
                    self.topo_gen += 1;
                    if let Some(moved) = self.flows.get(pos) {
                        self.flow_pos.insert(moved.id, pos);
                    }
                    // Freed capacity redistributes; stale finish-heap
                    // and link-index entries tombstone via `flow_pos`.
                    self.dirty.mark_path(self.arena.get(path));
                }
            }
            self.jobs_state.remove(&id);
            self.specs.remove(&id);
            self.cancelled.insert(id);
            self.remaining_jobs -= 1;
            self.result.jobs_cancelled += 1;
            self.dirty.any = true;
            true
        } else if self.specs.remove(&id).is_some() {
            // Not yet arrived: the queued arrival event is skipped when
            // it fires.
            self.cancelled.insert(id);
            self.remaining_jobs -= 1;
            self.result.jobs_cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Current virtual time: the timestamp of the last processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Pending events in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Flows currently in flight.
    pub fn open_flows(&self) -> usize {
        self.flows.len()
    }

    /// Coflows currently active.
    pub fn open_coflows(&self) -> usize {
        self.active_coflows.len()
    }

    /// Jobs submitted but not yet completed or cancelled.
    pub fn outstanding_jobs(&self) -> usize {
        self.remaining_jobs
    }

    /// Whether every submitted job has completed and no flow is in
    /// flight. A drained online engine accepts further submissions.
    pub fn drained(&self) -> bool {
        self.remaining_jobs == 0 && self.flows.is_empty()
    }

    /// Completion records of the jobs finished so far, in completion
    /// order. The daemon polls the tail of this slice to release
    /// dependent jobs.
    pub fn completed_jobs(&self) -> &[JobResult] {
        &self.result.jobs
    }

    /// Lifecycle phase of a job id, with live progress for running jobs.
    pub fn job_phase(&self, id: JobId) -> JobPhase {
        if let Some(&completed_at) = self.completed_at.get(&id) {
            return JobPhase::Completed { at: completed_at };
        }
        if self.cancelled.contains(&id) {
            return JobPhase::Cancelled;
        }
        if let Some(js) = self.jobs_state.get(&id) {
            let total_bytes = self.specs.get(&id).map_or(0.0, |s| s.total_bytes());
            return JobPhase::Running {
                progress: JobProgress {
                    completed_coflows: js.completed_coflows,
                    total_coflows: js.completed_coflows + js.remaining_coflows,
                    completed_bytes: js.completed_bytes,
                    total_bytes,
                },
            };
        }
        if self.specs.contains_key(&id) {
            return JobPhase::Pending;
        }
        JobPhase::NotSubmitted
    }

    /// Delivered bytes of the open flow at table position `pos`.
    fn bytes_done(&self, pos: usize) -> f64 {
        self.flows[pos].size - self.hot.remaining[pos]
    }

    /// Advances every flow's remaining volume to virtual time `t` at its
    /// current rate. The `collect_link_stats` branch is hoisted out of
    /// the per-flow loop into two loop variants, so the (default)
    /// stats-off path runs the dense [`Engine::advance_span`] kernel
    /// with zero per-flow branching on the config; both variants fan
    /// across the worker pool in fixed index-ordered chunks once the
    /// flow table is large enough to pay for a pool wakeup.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 && !self.flows.is_empty() {
            if self.config.collect_link_stats {
                self.advance_flows_stats(dt);
            } else {
                self.advance_flows(dt);
            }
        }
        self.now = t.max(self.now);
    }

    /// The flow-advance kernel over a span of the SoA block:
    /// `remaining[i] -= min(rate[i]·dt, remaining[i])` for positive
    /// finite rates. Written as an unconditional store with a selected
    /// operand (rather than a conditional store) over two dense `f64`
    /// lanes, so the loop vectorizes; the select reproduces the
    /// historical AoS guard bit-for-bit (`x - 0.0` is an f64 identity
    /// for every non-NaN `x`, including `-0.0`).
    fn advance_span(rate: &[f64], remaining: &mut [f64], dt: f64) {
        for (r, rem) in rate.iter().zip(remaining.iter_mut()) {
            let moved = if *r > 0.0 && r.is_finite() {
                (*r * dt).min(*rem)
            } else {
                0.0
            };
            *rem -= moved;
        }
    }

    /// Fixed chunk width for the fanned advance sweep: one index-ordered
    /// chunk per worker, floored so a chunk always carries enough flows
    /// to outweigh a task claim. Purely a wall-clock heuristic — each
    /// flow's update is independent of every other's, so chunk
    /// boundaries (and hence the thread count) cannot change results.
    fn advance_chunk(n: usize, threads: usize) -> usize {
        n.div_ceil(threads).max(MIN_ADVANCE_CHUNK)
    }

    /// Stats-off advance: the branch-free SoA sweep, fanned across the
    /// pool in fixed index-ordered chunks when the flow table is large
    /// enough. Every chunk's updates are elementwise-independent, so
    /// the fan-out is bit-for-bit identical to the serial sweep at any
    /// thread count.
    fn advance_flows(&mut self, dt: f64) {
        let n = self.flows.len();
        if n >= PAR_MIN_ADVANCE_FLOWS {
            if let Some(pool) = self.pool.as_ref() {
                let chunk = Self::advance_chunk(n, self.threads);
                let rate = &self.hot.rate;
                // Disjoint per-chunk `remaining` spans; task `c` locks
                // chunk `c` exactly once, so the mutexes are uncontended
                // bookkeeping for the borrow checker, not contention
                // points (same pattern as the component fan-out).
                let chunks: Vec<Mutex<&mut [f64]>> = self
                    .hot
                    .remaining
                    .chunks_mut(chunk)
                    .map(Mutex::new)
                    .collect();
                let task = |_slot: usize, c: usize| {
                    let mut rem = chunks[c].lock().expect("chunk lock poisoned");
                    let s = c * chunk;
                    Self::advance_span(&rate[s..s + rem.len()], &mut rem, dt);
                };
                pool.run(chunks.len(), &task);
                return;
            }
        }
        Self::advance_span(&self.hot.rate, &mut self.hot.remaining, dt);
    }

    /// Stats-on advance: the same sweep plus per-link byte accounting
    /// into the dense `link_bytes` array. The fanned variant records
    /// each chunk's `(link, bytes)` contributions in flow order into a
    /// per-chunk sparse accumulator and merges them chunk-by-chunk —
    /// chunks are index-ordered, so every link sees its additions in
    /// exactly the serial loop's flow order and the f64 sums are
    /// bit-for-bit identical at any thread count.
    fn advance_flows_stats(&mut self, dt: f64) {
        let n = self.flows.len();
        let fanned = n >= PAR_MIN_ADVANCE_FLOWS && self.pool.is_some();
        if fanned {
            let chunk = Self::advance_chunk(n, self.threads);
            let nchunks = n.div_ceil(chunk);
            let outs: Vec<Mutex<Vec<(u32, f64)>>> = (0..nchunks)
                .map(|_| Mutex::new(self.advance_stat_bufs.pop().unwrap_or_default()))
                .collect();
            let rate = &self.hot.rate;
            let path = &self.hot.path;
            let arena = &self.arena;
            let chunks: Vec<Mutex<&mut [f64]>> = self
                .hot
                .remaining
                .chunks_mut(chunk)
                .map(Mutex::new)
                .collect();
            let pool = self.pool.as_ref().expect("fanned implies pool");
            let task = |_slot: usize, c: usize| {
                let mut rem = chunks[c].lock().expect("chunk lock poisoned");
                let mut out = outs[c].lock().expect("stat buf lock poisoned");
                let s = c * chunk;
                for (i, rem) in rem.iter_mut().enumerate() {
                    let r = rate[s + i];
                    if r > 0.0 && r.is_finite() {
                        let moved = (r * dt).min(*rem);
                        *rem -= moved;
                        for l in arena.get(path[s + i]) {
                            out.push((l.index() as u32, moved));
                        }
                    }
                }
            };
            pool.run(nchunks, &task);
            for m in outs {
                let mut buf = m.into_inner().expect("stat buf lock poisoned");
                for &(l, b) in &buf {
                    self.link_bytes[l as usize] += b;
                }
                buf.clear();
                self.advance_stat_bufs.push(buf);
            }
        } else {
            for pos in 0..n {
                let r = self.hot.rate[pos];
                if r > 0.0 && r.is_finite() {
                    let moved = (r * dt).min(self.hot.remaining[pos]);
                    self.hot.remaining[pos] -= moved;
                    for l in self.arena.get(self.hot.path[pos]) {
                        self.link_bytes[l.index()] += moved;
                    }
                }
            }
        }
    }

    fn activate_job(&mut self, id: JobId) -> Result<(), SimError> {
        let spec = self.specs.get(&id).expect("arrival for unknown job");
        let dag = spec.dag();
        let n = dag.num_vertices();
        let state = JobState {
            arrival: spec.arrival(),
            pending_children: (0..n).map(|v| dag.children(v).len()).collect(),
            completed: vec![false; n],
            completed_coflows: 0,
            completed_stages: 0,
            remaining_coflows: n,
            completed_bytes: 0.0,
            fault_reroutes: 0,
            fault_parks: 0,
        };
        self.jobs_state.insert(id, state);
        for v in dag.leaves() {
            self.activate_coflow(id, v)?;
        }
        self.dirty.any = true;
        Ok(())
    }

    fn activate_coflow(&mut self, job: JobId, vertex: usize) -> Result<(), SimError> {
        let spec = &self.specs[&job];
        let cf_spec = spec.coflow(vertex);
        let dag_stage = spec.dag().stage_of(vertex);
        let id = CoflowId(self.next_coflow_id);
        self.next_coflow_id += 1;
        let mut state = CoflowState {
            id,
            job,
            dag_vertex: vertex,
            dag_stage,
            activated_at: self.now,
            open_flows: 0,
            queue: 0,
            total_bytes: cf_spec.total_bytes(),
            flows: Vec::with_capacity(cf_spec.width()),
            flowing: 0,
            // Born starved: every coflow starts at zero aggregate rate
            // until the first recomputation grants one of its flows
            // bandwidth. Coflows that complete instantly (empty or
            // host-local) close the interval at zero width.
            starved_since: Some(self.now),
            starved_total: 0.0,
            starved_max: 0.0,
        };
        for fs in cf_spec.flows() {
            let fid = FlowId(self.next_flow_id);
            self.next_flow_id += 1;
            // Route around hard-failed links; if every candidate path is
            // dead, the flow starts parked and waits for a recovery.
            let (path, parked) = if self.overlay.has_failures() {
                match resalt_live_path(
                    self.fabric,
                    &self.overlay,
                    &mut self.arena,
                    fid.index() as u64,
                    fs.src,
                    fs.dst,
                )? {
                    Some(p) => (p, false),
                    None => (
                        self.fabric.path_ref(
                            fs.src,
                            fs.dst,
                            fid.index() as u64,
                            &mut self.arena,
                        )?,
                        true,
                    ),
                }
            } else {
                (
                    self.fabric
                        .path_ref(fs.src, fs.dst, fid.index() as u64, &mut self.arena)?,
                    false,
                )
            };
            if parked {
                self.result.flows_parked += 1;
                let js = self.jobs_state.get_mut(&job).expect("job active");
                js.fault_parks += 1;
            }
            state.flows.push(FlowRecord {
                id: fid,
                src: fs.src,
                bytes_done: 0.0,
                open: true,
            });
            state.open_flows += 1;
            let flow = FlowState {
                id: fid,
                src: fs.src,
                dst: fs.dst,
                size: fs.bytes,
                queue: 0,
                fresh: true,
                parked,
                stamp: 0,
            };
            let pos = self.flows.len();
            self.flow_pos.insert(fid, pos);
            self.flows.push(flow);
            self.hot.push(0.0, fs.bytes, path, id);
            self.topo_gen += 1;
            if !parked {
                // One pass over the interned slice both seeds the dirty
                // set and indexes the flow under its links.
                let arena = &self.arena;
                let dirty = &mut self.dirty;
                let link_flows = &mut self.link_flows;
                dirty.any = true;
                for l in arena.get(path) {
                    let li = l.index();
                    if !dirty.full {
                        dirty.links.push(li);
                    }
                    link_flows[li].push(fid);
                }
            }
            if self.probe.on() {
                self.probe.emit(&TraceRecord::FlowStart {
                    t: self.now,
                    flow: fid.index(),
                    coflow: id.index(),
                    job: job.index(),
                    src: fs.src.index(),
                    dst: fs.dst.index(),
                    bytes: fs.bytes,
                    parked,
                });
            }
        }
        if self.probe.on() {
            self.probe.emit(&TraceRecord::CoflowActivate {
                t: self.now,
                coflow: id.index(),
                job: job.index(),
                dag_vertex: vertex,
                width: state.flows.len(),
                bytes: state.total_bytes,
            });
        }
        self.coflows.insert(id, state);
        self.active_coflows.push(id);
        self.dirty.any = true;
        Ok(())
    }

    /// Applies one scheduled fault: mutate the capacity overlay, then
    /// react to liveness changes (reroute/park on failures, resume on
    /// recoveries) and mark rates for recomputation.
    fn apply_fault(&mut self, index: usize) -> Result<(), SimError> {
        let tf = self.fault_schedule[index];
        let impact = self.overlay.apply(&tf.event, self.fabric.num_hosts());
        // Every link whose effective capacity changed seeds the next
        // incremental recomputation, even if no flow reroutes.
        for l in impact.changed_links() {
            self.dirty.mark_link(l);
        }
        let mut rec = FaultRecord {
            at: self.now,
            event: tf.event,
            rerouted: 0,
            parked: 0,
            resumed: 0,
        };
        if !impact.newly_dead.is_empty() {
            self.handle_link_failures(&mut rec)?;
        }
        if !impact.revived.is_empty() {
            self.handle_link_recoveries(&mut rec)?;
        }
        self.result.flows_rerouted += rec.rerouted;
        self.result.flows_parked += rec.parked;
        self.result.flows_resumed += rec.resumed;
        if self.probe.on() {
            self.probe.emit(&TraceRecord::FaultApplied {
                t: self.now,
                rerouted: rec.rerouted,
                parked: rec.parked,
                resumed: rec.resumed,
            });
        }
        self.result.faults.push(rec);
        self.dirty.any = true;
        Ok(())
    }

    /// Reroutes every live flow crossing a now-dead link onto a fresh
    /// ECMP path (delivered bytes preserved); flows with no live
    /// candidate path park at zero rate.
    fn handle_link_failures(&mut self, rec: &mut FaultRecord) -> Result<(), SimError> {
        let mut reroutes: Vec<(usize, PathRef)> = Vec::new();
        let mut parks: Vec<usize> = Vec::new();
        for pos in 0..self.flows.len() {
            let f = &self.flows[pos];
            if f.parked
                || !self
                    .overlay
                    .path_is_dead(self.arena.get(self.hot.path[pos]))
            {
                continue;
            }
            let (fid, src, dst) = (f.id, f.src, f.dst);
            match resalt_live_path(
                self.fabric,
                &self.overlay,
                &mut self.arena,
                fid.index() as u64,
                src,
                dst,
            )? {
                Some(path) => reroutes.push((pos, path)),
                None => parks.push(pos),
            }
        }
        for (pos, path) in reroutes {
            let old = self.hot.path[pos];
            self.dirty.mark_path(self.arena.get(old));
            self.hot.path[pos] = path;
            self.topo_gen += 1;
            self.dirty.mark_path(self.arena.get(path));
            self.index_flow(pos, true);
            rec.rerouted += 1;
            let job = self.coflows[&self.hot.coflow[pos]].job;
            self.jobs_state
                .get_mut(&job)
                .expect("job active")
                .fault_reroutes += 1;
        }
        for pos in parks {
            self.rate_stamp += 1;
            let stamp = self.rate_stamp;
            let path = self.hot.path[pos];
            self.dirty.mark_path(self.arena.get(path));
            let was_flowing = self.hot.rate[pos] > FLOWING_EPS;
            self.hot.rate[pos] = 0.0;
            let coflow = self.hot.coflow[pos];
            let f = &mut self.flows[pos];
            f.parked = true;
            self.topo_gen += 1;
            f.stamp = stamp; // invalidate any completion-index entry
            let fid = f.id;
            rec.parked += 1;
            let job = self.coflows[&coflow].job;
            self.jobs_state
                .get_mut(&job)
                .expect("job active")
                .fault_parks += 1;
            if was_flowing {
                // Parking zeroes the rate outside the recompute path, so
                // the starvation watch must see the loss here.
                self.coflow_rate_transition(coflow, false);
            }
            if self.probe.on() {
                self.probe.emit(&TraceRecord::FlowPark {
                    t: self.now,
                    flow: fid.index(),
                    coflow: coflow.index(),
                });
            }
        }
        Ok(())
    }

    /// Resumes parked flows whose stored path is live again, rerouting
    /// those whose path is still dead but now has a live alternative.
    fn handle_link_recoveries(&mut self, rec: &mut FaultRecord) -> Result<(), SimError> {
        let mut resumes: Vec<(usize, Option<PathRef>)> = Vec::new();
        for pos in 0..self.flows.len() {
            let f = &self.flows[pos];
            if !f.parked {
                continue;
            }
            if !self
                .overlay
                .path_is_dead(self.arena.get(self.hot.path[pos]))
            {
                resumes.push((pos, None));
            } else {
                let (fid, src, dst) = (f.id, f.src, f.dst);
                if let Some(path) = resalt_live_path(
                    self.fabric,
                    &self.overlay,
                    &mut self.arena,
                    fid.index() as u64,
                    src,
                    dst,
                )? {
                    resumes.push((pos, Some(path)));
                }
            }
        }
        for (pos, new_path) in resumes {
            {
                self.flows[pos].parked = false;
                self.topo_gen += 1;
                rec.resumed += 1;
                if let Some(path) = new_path {
                    self.hot.path[pos] = path;
                    rec.rerouted += 1;
                    let coflow = self.hot.coflow[pos];
                    let job = self.coflows[&coflow].job;
                    self.jobs_state
                        .get_mut(&job)
                        .expect("job active")
                        .fault_reroutes += 1;
                }
            }
            if self.probe.on() {
                self.probe.emit(&TraceRecord::FlowResume {
                    t: self.now,
                    flow: self.flows[pos].id.index(),
                    coflow: self.hot.coflow[pos].index(),
                    rerouted: new_path.is_some(),
                });
            }
            // The resumed flow (possibly on a new path) joins the
            // allocation again; its links seed the recomputation.
            let path = self.hot.path[pos];
            self.dirty.mark_path(self.arena.get(path));
            self.index_flow(pos, true);
        }
        Ok(())
    }

    /// Detects the unrecoverable state where every in-flight flow is
    /// parked and nothing scheduled (arrival or fault) can change that;
    /// reports eagerly instead of ticking to `EventBudgetExhausted`.
    fn check_stranded(&self) -> Result<(), SimError> {
        if !self.overlay.has_failures()
            || self.flows.is_empty()
            || !self.flows.iter().all(|f| f.parked)
        {
            return Ok(());
        }
        let can_change = self
            .queue
            .iter()
            .any(|e| matches!(e.kind, EventKind::JobArrival(_) | EventKind::Fault { .. }));
        if can_change {
            Ok(())
        } else {
            Err(SimError::StrandedFlows {
                parked: self.flows.len(),
            })
        }
    }

    /// Completes every flow whose remaining volume has reached zero, and
    /// cascades coflow / job completions (activating parent coflows,
    /// which may themselves complete instantly if empty or host-local).
    fn harvest_completions(&mut self) -> Result<(), SimError> {
        loop {
            let mut completed_flow_ids: Vec<FlowId> = self
                .flows
                .iter()
                .enumerate()
                .filter(|&(pos, _)| {
                    self.hot.remaining[pos] <= self.config.completion_eps
                        || self.hot.path[pos].is_empty()
                })
                .map(|(_, f)| f.id)
                .collect();
            // Also: newly activated coflows may be empty (no flows).
            let empty_coflows: Vec<CoflowId> = self
                .active_coflows
                .iter()
                .copied()
                .filter(|c| self.coflows[c].flows.is_empty())
                .collect();
            if completed_flow_ids.is_empty() && empty_coflows.is_empty() {
                return Ok(());
            }
            completed_flow_ids.sort_unstable();
            let mut completed_coflows: Vec<CoflowId> = empty_coflows;
            for fid in completed_flow_ids {
                let pos = self.flow_pos.remove(fid).expect("flow indexed");
                let flow = self.flows.swap_remove(pos);
                let (rate, _, path, coflow) = self.hot.swap_remove(pos);
                self.topo_gen += 1;
                if let Some(moved) = self.flows.get(pos) {
                    self.flow_pos.insert(moved.id, pos);
                }
                // Freed capacity redistributes across the flow's links.
                self.dirty.mark_path(self.arena.get(path));
                let cf = self.coflows.get_mut(&coflow).expect("flow's coflow active");
                let rec = cf
                    .flows
                    .iter_mut()
                    .find(|r| r.id == fid)
                    .expect("flow recorded in coflow");
                rec.open = false;
                rec.bytes_done = flow.size;
                cf.open_flows -= 1;
                // A completing flow leaves the flowing set; if it was the
                // coflow's last source of bandwidth and siblings remain
                // open, a starvation interval opens here. (If the coflow
                // completes too, `complete_coflow` closes it at zero
                // width in the same instant.)
                if rate > FLOWING_EPS {
                    cf.flowing -= 1;
                    if cf.flowing == 0 {
                        cf.starved_since = Some(self.now);
                    }
                }
                if cf.open_flows == 0 {
                    completed_coflows.push(cf.id);
                }
                if self.probe.on() {
                    self.probe.emit(&TraceRecord::FlowComplete {
                        t: self.now,
                        flow: fid.index(),
                        coflow: coflow.index(),
                        bytes: flow.size,
                    });
                }
            }
            for cid in completed_coflows {
                self.complete_coflow(cid)?;
            }
            self.dirty.any = true;
        }
    }

    fn complete_coflow(&mut self, cid: CoflowId) -> Result<(), SimError> {
        let mut state = self.coflows.remove(&cid).expect("completing active coflow");
        self.active_coflows.retain(|&c| c != cid);
        // Close any open starvation interval at completion time. Coflows
        // that never received bandwidth (empty, host-local, or finished
        // while parked) carry their whole lifetime here.
        if let Some(since) = state.starved_since.take() {
            let dur = self.now - since;
            if dur > 0.0 {
                state.starved_total += dur;
                state.starved_max = state.starved_max.max(dur);
                if self.probe.on() {
                    self.probe.emit(&TraceRecord::CoflowStarved {
                        t: self.now,
                        coflow: cid.index(),
                        dur,
                    });
                }
            }
        }
        self.result.coflows.push(CoflowResult {
            id: cid,
            job: state.job,
            dag_vertex: state.dag_vertex,
            activated_at: state.activated_at,
            completed_at: self.now,
            bytes: state.total_bytes,
            starved_total: state.starved_total,
            starved_max: state.starved_max,
        });
        if self.probe.on() {
            self.probe.emit(&TraceRecord::CoflowComplete {
                t: self.now,
                coflow: cid.index(),
                job: state.job.index(),
                cct: self.now - state.activated_at,
                starved_total: state.starved_total,
                starved_max: state.starved_max,
            });
        }
        self.plane.on_coflow_completed(cid, state.job, self.now);
        let job_id = state.job;
        let vertex = state.dag_vertex;
        let to_activate: Vec<usize>;
        let job_done: bool;
        {
            let js = self.jobs_state.get_mut(&job_id).expect("job active");
            js.completed[vertex] = true;
            js.completed_coflows += 1;
            js.remaining_coflows -= 1;
            js.completed_stages = js.completed_stages.max(state.dag_stage + 1);
            js.completed_bytes += state.total_bytes;
            let dag = self.specs[&job_id].dag();
            to_activate = dag
                .parents(vertex)
                .iter()
                .copied()
                .filter(|&p| {
                    let js2 = &mut *js;
                    js2.pending_children[p] -= 1;
                    js2.pending_children[p] == 0
                })
                .collect();
            job_done = js.remaining_coflows == 0;
        }
        for p in to_activate {
            self.activate_coflow(job_id, p)?;
        }
        if job_done {
            let spec = &self.specs[&job_id];
            let js = self.jobs_state.remove(&job_id).expect("job state");
            self.result.jobs.push(JobResult {
                id: job_id,
                arrival: js.arrival,
                completed_at: self.now,
                jct: self.now - js.arrival,
                total_bytes: spec.total_bytes(),
                num_stages: spec.num_stages(),
                fault_reroutes: js.fault_reroutes,
                fault_parks: js.fault_parks,
            });
            if self.probe.on() {
                self.probe.emit(&TraceRecord::JobComplete {
                    t: self.now,
                    job: job_id.index(),
                    jct: self.now - js.arrival,
                });
            }
            self.plane.on_job_completed(job_id, self.now);
            self.remaining_jobs -= 1;
            self.completed_at.insert(job_id, self.now);
            // Drop the spec: nothing reads it past completion (the
            // oracle only answers for active jobs), and releasing it
            // keeps a streamed online run's memory proportional to the
            // active set, not the history.
            self.specs.remove(&job_id);
        }
        Ok(())
    }

    fn build_observation(&self) -> Observation {
        let mut coflows = Vec::with_capacity(self.active_coflows.len());
        let mut job_index: HashMap<JobId, usize> = HashMap::new();
        let mut jobs: Vec<JobObs> = Vec::new();
        for (ci, cid) in self.active_coflows.iter().enumerate() {
            let cf = &self.coflows[cid];
            let mut flows = Vec::with_capacity(cf.flows.len());
            let mut bytes = 0.0f64;
            let mut max_flow = 0.0f64;
            for rec in &cf.flows {
                let done = if rec.open {
                    let pos = self.flow_pos.get(rec.id).expect("open flow indexed");
                    self.bytes_done(pos)
                } else {
                    rec.bytes_done
                };
                bytes += done;
                max_flow = max_flow.max(done);
                flows.push(FlowObs {
                    id: rec.id,
                    bytes_received: done,
                    open: rec.open,
                });
            }
            coflows.push(CoflowObs {
                id: cf.id,
                job: cf.job,
                dag_vertex: cf.dag_vertex,
                dag_stage: cf.dag_stage,
                activated_at: cf.activated_at,
                open_flows: cf.open_flows,
                bytes_received: bytes,
                max_flow_bytes_received: max_flow,
                flows,
            });
            let job_id = cf.job;
            let j = *job_index.entry(job_id).or_insert_with(|| {
                let js = &self.jobs_state[&job_id];
                jobs.push(JobObs {
                    id: job_id,
                    arrival: js.arrival,
                    completed_coflows: js.completed_coflows,
                    completed_stages: js.completed_stages,
                    bytes_received: js.completed_bytes,
                    completed_bytes: js.completed_bytes,
                    active_coflows: Vec::new(),
                });
                jobs.len() - 1
            });
            jobs[j].bytes_received += bytes;
            jobs[j].active_coflows.push(ci);
        }
        // Ascending-id order is an `Observation` invariant (binary
        // search in `Observation::job`); the accumulation above runs in
        // coflow order, so sorting afterwards changes no values.
        jobs.sort_unstable_by_key(|j| j.id);
        Observation {
            now: self.now,
            coflows,
            jobs,
        }
    }

    /// Splits the cluster state into per-host views: each sender host
    /// sees only the flows sourced there. Views preserve the global
    /// orders (coflows ascending by id, flows in creation order) so
    /// [`crate::control::merge_reports`] can reassemble the centralized
    /// observation exactly.
    fn build_local_views(&self) -> Vec<LocalObservation> {
        let mut host_slot: HashMap<HostId, usize> = HashMap::new();
        let mut views: Vec<LocalObservation> = Vec::new();
        for cid in &self.active_coflows {
            let cf = &self.coflows[cid];
            for rec in &cf.flows {
                let done = if rec.open {
                    let pos = self.flow_pos.get(rec.id).expect("open flow indexed");
                    self.bytes_done(pos)
                } else {
                    rec.bytes_done
                };
                let vi = *host_slot.entry(rec.src).or_insert_with(|| {
                    views.push(LocalObservation {
                        host: rec.src,
                        now: self.now,
                        coflows: Vec::new(),
                        jobs: Vec::new(),
                    });
                    views.len() - 1
                });
                let view = &mut views[vi];
                // A coflow's flows are contiguous in this loop, so if the
                // view already tracks it, it is the last entry.
                if view.coflows.last().map(|c| c.id) != Some(cf.id) {
                    view.coflows.push(CoflowObs {
                        id: cf.id,
                        job: cf.job,
                        dag_vertex: cf.dag_vertex,
                        dag_stage: cf.dag_stage,
                        activated_at: cf.activated_at,
                        open_flows: 0,
                        bytes_received: 0.0,
                        max_flow_bytes_received: 0.0,
                        flows: Vec::new(),
                    });
                }
                let c = view.coflows.last_mut().expect("just ensured");
                c.flows.push(FlowObs {
                    id: rec.id,
                    bytes_received: done,
                    open: rec.open,
                });
                c.bytes_received += done;
                c.max_flow_bytes_received = c.max_flow_bytes_received.max(done);
                c.open_flows += usize::from(rec.open);
            }
        }
        for view in &mut views {
            let mut job_index: HashMap<JobId, usize> = HashMap::new();
            for ci in 0..view.coflows.len() {
                let (job_id, bytes) = (view.coflows[ci].job, view.coflows[ci].bytes_received);
                let j = *job_index.entry(job_id).or_insert_with(|| {
                    let js = &self.jobs_state[&job_id];
                    view.jobs.push(JobObs {
                        id: job_id,
                        arrival: js.arrival,
                        completed_coflows: js.completed_coflows,
                        completed_stages: js.completed_stages,
                        bytes_received: js.completed_bytes,
                        completed_bytes: js.completed_bytes,
                        active_coflows: Vec::new(),
                    });
                    view.jobs.len() - 1
                });
                view.jobs[j].bytes_received += bytes;
                view.jobs[j].active_coflows.push(ci);
            }
            view.jobs.sort_unstable_by_key(|j| j.id);
        }
        views
    }

    fn reassign_priorities(&mut self) {
        if self.active_coflows.is_empty() {
            return;
        }
        let output = if self.plane.needs_local_views() {
            let views = self.build_local_views();
            self.plane.decide(ControlInput::Local {
                now: self.now,
                latency: self.config.control_latency,
                views,
            })
        } else {
            let obs = self.build_observation();
            let remaining = |fid: FlowId| self.flow_pos.get(fid).map(|pos| self.hot.remaining[pos]);
            let flow_size = |fid: FlowId| self.flow_pos.get(fid).map(|pos| self.flows[pos].size);
            let oracle = Oracle::new(&self.specs, &remaining, &flow_size);
            self.plane.decide(ControlInput::Global {
                obs: &obs,
                oracle: &oracle,
            })
        };
        self.apply_table(&output.assignments);
        self.apply_host_tables(&output.host_assignments);
        self.push_control_timers(&output.timers);
        if self.probe.on() {
            for rec in &output.trace {
                self.probe.emit(rec);
            }
        }
        if let Some(token) = output.schedule_update {
            self.queue.push(Event {
                time: self.now + self.config.control_latency,
                seq: self.seq,
                kind: EventKind::ControlUpdate { token },
            });
            self.seq += 1;
            if self.probe.on() {
                // Stamp the decision time so delivery can report the
                // measured staleness rather than the configured latency.
                self.probe.control_issued.insert(token, self.now);
            }
        }
    }

    /// Schedules `ControlTimer` events for the protocol steps a
    /// fault-armed plane requested: `(delay_from_now, token)` pairs.
    fn push_control_timers(&mut self, timers: &[(f64, u64)]) {
        for &(delay, token) in timers {
            self.queue.push(Event {
                time: self.now + delay,
                seq: self.seq,
                kind: EventKind::ControlTimer { token },
            });
            self.seq += 1;
        }
    }

    /// Applies a priority table to the flows it covers. Entries for
    /// coflows that completed while the table was in flight are skipped
    /// (a delayed table may be stale); active coflows absent from the
    /// table keep their current queues.
    fn apply_table(&mut self, table: &[(CoflowId, usize)]) {
        let nq = self.plane.num_queues();
        let relax = self.plane.reprioritizes_live_flows();
        for &(cid, queue) in table {
            assert!(
                queue < nq,
                "assigned queue {queue} out of range ({nq} queues)"
            );
            let Some(cf) = self.coflows.get_mut(&cid) else {
                continue; // completed before the table was delivered
            };
            let old_queue = cf.queue;
            cf.queue = queue;
            if old_queue != queue && self.probe.on() {
                self.probe.emit(&TraceRecord::PriorityMove {
                    t: self.now,
                    coflow: cid.index(),
                    from: old_queue,
                    to: queue,
                });
            }
            for rec in cf.flows.iter().filter(|r| r.open) {
                let pos = self.flow_pos.get(rec.id).expect("open flow indexed");
                let f = &mut self.flows[pos];
                let new_queue = if f.fresh || relax {
                    queue
                } else {
                    // Demotions (larger queue index) apply to live flows;
                    // promotions only affect flows started later.
                    f.queue.max(queue)
                };
                let changed = new_queue != f.queue;
                if changed {
                    f.queue = new_queue;
                }
                f.fresh = false;
                if changed {
                    // A queue change only affects the allocation through
                    // the flow's own links, so they suffice as seeds.
                    self.dirty.mark_path(self.arena.get(self.hot.path[pos]));
                }
            }
        }
    }

    /// Applies per-sender-host priority tables (fault-armed
    /// decentralized planes): for each `(host, table)` pair, only the
    /// flows *sourced at* that host take the table's queues, under the
    /// same demotion rule as [`Engine::apply_table`]. Coflow-level
    /// queue labels (and `PriorityMove` records) are reserved for the
    /// uniform path — under faults, hosts may legitimately disagree.
    fn apply_host_tables(&mut self, tables: &[(HostId, Vec<(CoflowId, usize)>)]) {
        if tables.is_empty() {
            return;
        }
        let nq = self.plane.num_queues();
        let relax = self.plane.reprioritizes_live_flows();
        for (host, table) in tables {
            for &(cid, queue) in table {
                assert!(
                    queue < nq,
                    "assigned queue {queue} out of range ({nq} queues)"
                );
                let Some(cf) = self.coflows.get_mut(&cid) else {
                    continue; // completed before the table landed
                };
                for rec in cf.flows.iter().filter(|r| r.open && r.src == *host) {
                    let pos = self.flow_pos.get(rec.id).expect("open flow indexed");
                    let f = &mut self.flows[pos];
                    let new_queue = if f.fresh || relax {
                        queue
                    } else {
                        f.queue.max(queue)
                    };
                    let changed = new_queue != f.queue;
                    if changed {
                        f.queue = new_queue;
                    }
                    f.fresh = false;
                    if changed {
                        self.dirty.mark_path(self.arena.get(self.hot.path[pos]));
                    }
                }
            }
        }
    }

    /// Adds `flows[pos]` to the link→flows index for every link on its
    /// path. With `dedup`, skips links that already list the flow (a
    /// rerouted path may share links with the stale entry's old path).
    fn index_flow(&mut self, pos: usize, dedup: bool) {
        let fid = self.flows[pos].id;
        let path = self.hot.path[pos];
        let arena = &self.arena;
        let link_flows = &mut self.link_flows;
        for l in arena.get(path) {
            let list = &mut link_flows[l.index()];
            if !dedup || !list.contains(&fid) {
                list.push(fid);
            }
        }
    }

    /// Expands the dirty seed links into the full set of flow positions
    /// whose rate can change — the connected components of the
    /// flow↔link bipartite graph containing any seed. Each seed that
    /// reaches unvisited links starts a fresh BFS, so `component` /
    /// `comp_bounds` come back *grouped by connected component* (in
    /// deterministic seed-discovery order, each group sorted ascending
    /// by flow-table position) — the unit of both per-component
    /// waterfilling and intra-run parallelism. Side effect: compacts
    /// stale `link_flows` entries it walks over.
    fn collect_component(&mut self) {
        self.component.clear();
        self.comp_bounds.clear();
        self.comp_bounds.push(0);
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        if self.flow_mark.len() < self.flows.len() {
            self.flow_mark.resize(self.flows.len(), 0);
        }
        self.bfs_stack.clear();
        // Split borrows: the BFS mutates the marks, its stack and the
        // `link_flows` lists while reading the flow table.
        let flows = &self.flows;
        let paths = &self.hot.path;
        let flow_pos = &self.flow_pos;
        let arena = &self.arena;
        let link_flows = &mut self.link_flows;
        let flow_mark = &mut self.flow_mark;
        let link_mark = &mut self.link_mark;
        let stack = &mut self.bfs_stack;
        let component = &mut self.component;
        for &seed in &self.dirty.links {
            if link_mark[seed] == epoch {
                continue; // joins a component already collected
            }
            link_mark[seed] = epoch;
            stack.push(seed);
            let start = component.len();
            while let Some(li) = stack.pop() {
                // Take the adjacency list out so we can mutate marks
                // while validating entries; put the compacted list back.
                let mut list = std::mem::take(&mut link_flows[li]);
                list.retain(|fid| {
                    let Some(pos) = flow_pos.get(*fid) else {
                        return false; // completed
                    };
                    let path = arena.get(paths[pos]);
                    if flows[pos].parked || !path.iter().any(|l| l.index() == li) {
                        return false; // parked or rerouted away
                    }
                    if flow_mark[pos] != epoch {
                        flow_mark[pos] = epoch;
                        component.push(pos);
                        for l in path {
                            let lj = l.index();
                            if link_mark[lj] != epoch {
                                link_mark[lj] = epoch;
                                stack.push(lj);
                            }
                        }
                    }
                    true
                });
                link_flows[li] = list;
            }
            if component.len() > start {
                // Ascending flow-table order within the component so its
                // demand sequence is independent of BFS visit order.
                component[start..].sort_unstable();
                self.comp_bounds.push(component.len());
            }
        }
        self.dirty.links.clear();
    }

    /// Full-pass variant of [`Engine::collect_component`]: every
    /// unparked flow joins some component, grouped with the *same
    /// canonical structure* an incremental pass would discover —
    /// components ordered by their lowest member position, each group's
    /// members ascending — so per-component waterfill order is
    /// canonical regardless of how the pass was triggered, full passes
    /// reuse the component fan-out, and forced-full runs match
    /// incremental ones exactly (see DESIGN.md "Hot path &
    /// complexity").
    ///
    /// Unlike the seed-link BFS, a full pass already knows its
    /// membership (every unparked flow), so grouping needs no adjacency
    /// lists, no per-entry `flow_pos` validation, and no sorting: three
    /// linear sweeps over the flow table with an epoch-stamped
    /// union-find keyed by each flow's own path. Flagship Gurita runs
    /// make this the hot path — WRR starvation-mitigation weights shift
    /// with queue loads, so most recomputations are weights-only passes,
    /// which take this partition and then keep only the components a
    /// weight change or a dirty link can move
    /// ([`Engine::retain_moved_components`]).
    ///
    /// The partition depends only on the topology (which unparked flows
    /// exist and which links their paths cross), never on disciplines,
    /// weights, priorities, or capacities — so it is cached under
    /// [`Engine::topo_gen`] and a discipline-only full pass reuses it
    /// outright. Debug builds re-derive and compare on every hit, so
    /// the equivalence suites would catch a missed `topo_gen` bump.
    /// A cache miss, and every debug-build hit, restamps `link_mark`, so
    /// a caller marks links only after this returns.
    fn collect_full_components(&mut self) {
        if self.full_gen == self.topo_gen {
            self.component.clear();
            self.component.extend_from_slice(&self.full_comp);
            self.comp_bounds.clear();
            self.comp_bounds.extend_from_slice(&self.full_bounds);
            #[cfg(debug_assertions)]
            {
                let cached_comp = std::mem::take(&mut self.component);
                let cached_bounds = std::mem::take(&mut self.comp_bounds);
                self.compute_full_partition();
                debug_assert_eq!(
                    cached_comp, self.component,
                    "stale full-partition cache: a topology mutation missed topo_gen"
                );
                debug_assert_eq!(
                    cached_bounds, self.comp_bounds,
                    "stale full-partition cache: a topology mutation missed topo_gen"
                );
            }
            return;
        }
        self.compute_full_partition();
        self.full_comp.clone_from(&self.component);
        self.full_bounds.clone_from(&self.comp_bounds);
        self.full_gen = self.topo_gen;
    }

    /// Weights-only pass filter over the full partition: keeps in
    /// `component` / `comp_bounds`, in canonical order, only the
    /// components whose flows span two or more queues or whose links
    /// include a dirty seed link, and returns how many it dropped.
    ///
    /// A dropped component sits in one queue, so its allocation never
    /// reads the weights (see [`Allocator::allocate_into`]); and it
    /// crosses no dirty link, so its flows, queues and capacities are
    /// those it was last rated with. Its rates are therefore bitwise what
    /// a re-rate would produce, and it keeps them, with their stamps and
    /// completion-index entries, exactly as an incremental pass leaves an
    /// untouched component.
    fn retain_moved_components(&mut self) -> usize {
        // Stamp the seeds only now: a partition cache miss re-runs the
        // union-find, which reuses `link_mark` under its own epoch.
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        for &li in &self.dirty.links {
            self.link_mark[li] = epoch;
        }
        let ncomp = self.comp_bounds.len() - 1;
        let (mut start, mut len, mut kept) = (0, 0, 0);
        for c in 0..ncomp {
            // `comp_bounds[c + 1]` is read before any write reaches it:
            // the write cursor `kept + 1` never passes `c + 1`.
            let end = self.comp_bounds[c + 1];
            let members = &self.component[start..end];
            let q0 = self.flows[members[0]].queue;
            let moved = members.iter().any(|&pos| {
                self.flows[pos].queue != q0
                    || self
                        .arena
                        .get(self.hot.path[pos])
                        .iter()
                        .any(|l| self.link_mark[l.index()] == epoch)
            });
            if moved {
                self.component.copy_within(start..end, len);
                len += end - start;
                kept += 1;
                self.comp_bounds[kept] = len;
            }
            start = end;
        }
        self.component.truncate(len);
        self.comp_bounds.truncate(kept + 1);
        ncomp - kept
    }

    /// Derives the canonical full partition into `component` /
    /// `comp_bounds` (see [`Engine::collect_full_components`]).
    fn compute_full_partition(&mut self) {
        let n = self.flows.len();
        debug_assert!(n < u32::MAX as usize, "flow positions fit u32");
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        // Sweep 1: union each flow with the flows sharing its links.
        // `link_owner[li]` caches a root position for link `li` this
        // epoch (validity gated by `link_mark`). Unions attach the
        // larger root under the smaller, so every root is its
        // component's lowest member and `uf_counts` accumulates
        // component sizes at the roots. Live positions are collected
        // once (`uf_live`) so the later sweeps skip the parked checks.
        self.uf_parent.clear();
        self.uf_parent.extend(0..n as u32);
        self.uf_counts.clear();
        self.uf_counts.resize(n, 1);
        self.uf_live.clear();
        for pos in 0..n {
            if self.flows[pos].parked {
                continue;
            }
            self.uf_live.push(pos as u32);
            // Unions only ever touch already-visited positions, so this
            // flow is still its own root when first reached.
            debug_assert_eq!(self.uf_parent[pos], pos as u32);
            let mut root = pos as u32;
            for l in self.arena.get(self.hot.path[pos]) {
                let li = l.index();
                if self.link_mark[li] == epoch {
                    let other = uf_find(&mut self.uf_parent, self.link_owner[li]);
                    if other != root {
                        if other < root {
                            self.uf_parent[root as usize] = other;
                            self.uf_counts[other as usize] += self.uf_counts[root as usize];
                            root = other;
                        } else {
                            self.uf_parent[other as usize] = root;
                            self.uf_counts[root as usize] += self.uf_counts[other as usize];
                        }
                    }
                    // Refresh the owner to the merged root: later flows
                    // on this link then resolve it in O(1).
                    self.link_owner[li] = root;
                } else {
                    self.link_mark[li] = epoch;
                    self.link_owner[li] = root;
                }
            }
        }
        // Sweep 2: roots are exactly the positions still parenting
        // themselves; scanning the live list ascending numbers
        // components by lowest member with no `find` at all. Each
        // root's count slot becomes its component's scatter cursor.
        self.comp_bounds.clear();
        self.comp_bounds.push(0);
        let mut acc = 0usize;
        for i in 0..self.uf_live.len() {
            let pos = self.uf_live[i] as usize;
            if self.uf_parent[pos] == pos as u32 {
                let start = acc;
                acc += self.uf_counts[pos] as usize;
                self.uf_counts[pos] = start as u32;
                self.comp_bounds.push(acc);
            }
        }
        debug_assert_eq!(acc, self.uf_live.len());
        // Sweep 3: scatter positions into their root's segment; the
        // ascending scan keeps each group's members ascending.
        self.component.clear();
        self.component.resize(acc, 0);
        for i in 0..self.uf_live.len() {
            let pos = self.uf_live[i];
            let root = uf_find(&mut self.uf_parent, pos) as usize;
            let cur = self.uf_counts[root] as usize;
            self.component[cur] = pos as usize;
            self.uf_counts[root] = cur as u32 + 1;
        }
    }

    /// Drops invalidated completion-index entries once garbage dominates,
    /// keeping the heap O(live flows) without an O(log n) delete.
    fn rebuild_finish_heap(&mut self) {
        let mut buf = std::mem::take(&mut self.finish_heap).into_vec();
        let flows = &self.flows;
        let flow_pos = &self.flow_pos;
        buf.retain(|c| {
            flow_pos
                .get(c.flow)
                .is_some_and(|pos| flows[pos].stamp == c.stamp)
        });
        self.finish_heap = BinaryHeap::from(buf);
    }

    fn recompute_rates(&mut self) {
        let full_requested = self.dirty.full || self.config.force_full_recompute;
        self.dirty.any = false;
        self.dirty.full = false;
        self.completion_generation += 1;
        if self.flows.is_empty() {
            self.dirty.links.clear();
            return;
        }
        // Planes derive weights from state accumulated at decision time
        // (always before rates are recomputed), so the policy query does
        // not need a fresh observation. See the `Scheduler::queue_policy`
        // contract.
        let discipline = match self.plane.queue_policy() {
            QueuePolicy::Strict => Discipline::StrictPriority {
                num_queues: self.plane.num_queues(),
            },
            QueuePolicy::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    self.plane.num_queues(),
                    "one WRR weight per queue required"
                );
                Discipline::WeightedRoundRobin { weights }
            }
        };
        // A discipline change (e.g. WRR weights shifted) re-weights every
        // flow everywhere: incremental seeds are insufficient, fall back
        // to a full pass. If the queue count held and no full pass was
        // requested, it is a weights-only pass: only components that mix
        // queues or cross a dirty link are re-rated (see
        // `retain_moved_components`).
        let changed = self.last_discipline.as_ref() != Some(&discipline);
        let full = full_requested || changed;
        let weights_only = !full_requested
            && changed
            && self
                .last_discipline
                .as_ref()
                .is_some_and(|d| d.num_queues() == discipline.num_queues());
        if self.probe.on() {
            if full {
                self.probe.full_passes += 1;
            } else {
                self.probe.incremental_passes += 1;
                self.probe.seed_links += self.dirty.links.len() as u64;
            }
        }
        self.last_discipline = Some(discipline.clone());
        self.rate_stamp += 1;
        let stamp = self.rate_stamp;
        if full {
            // Parked flows may have been holding a nonzero entry from
            // before parking in exotic orderings; pin them to zero as
            // the pre-incremental engine did.
            for pos in 0..self.flows.len() {
                if !self.flows[pos].parked {
                    continue;
                }
                let was_flowing = self.hot.rate[pos] > FLOWING_EPS;
                self.hot.rate[pos] = 0.0;
                self.flows[pos].stamp = stamp;
                if was_flowing {
                    let cid = self.hot.coflow[pos];
                    self.coflow_rate_transition(cid, false);
                }
            }
        }
        // Component discovery, then allocation: one waterfill for a lone
        // component, else the per-component loop, serial or fanned over
        // the pool — the same rates bit-for-bit either way.
        if full {
            self.collect_full_components();
            if weights_only {
                let skipped = self.retain_moved_components();
                if self.probe.on() {
                    self.probe.skipped_components += skipped as u64;
                }
            }
            self.dirty.links.clear();
        } else {
            self.collect_component();
        }
        if self.component.is_empty() {
            return;
        }
        self.rate_buf.clear();
        self.rate_buf.resize(self.component.len(), 0.0);
        let ncomp = self.comp_bounds.len() - 1;
        if ncomp == 1 {
            // One component: a single waterfill, on the engine's own
            // allocator — identical at every thread count.
            let view = FlowDemandView {
                flows: &self.flows,
                paths: &self.hot.path,
                subset: &self.component,
                arena: &self.arena,
            };
            let fabric = self.fabric;
            let overlay = &self.overlay;
            self.allocator.allocate_into(
                &view,
                |l| fabric.link_capacity(l) * overlay.scale(l),
                &discipline,
                &mut self.rate_buf,
            );
            self.last_alloc_touched = self.allocator.last_touched_links();
            self.last_alloc_passes = self.allocator.last_waterfill_passes();
        } else if self.pool.is_some() && self.component.len() >= PAR_MIN_FLOWS {
            self.recompute_components_parallel(&discipline);
        } else {
            // Per-component serial loop: the reference the pool
            // fan-out must match bit-for-bit. Components are disjoint
            // in both flows and links, so each call's inputs — and
            // hence its output rates — are independent of the other
            // components entirely.
            self.last_alloc_touched = 0;
            self.last_alloc_passes = 0;
            let fabric = self.fabric;
            for c in 0..ncomp {
                let (s, e) = (self.comp_bounds[c], self.comp_bounds[c + 1]);
                let view = FlowDemandView {
                    flows: &self.flows,
                    paths: &self.hot.path,
                    subset: &self.component[s..e],
                    arena: &self.arena,
                };
                let overlay = &self.overlay;
                self.allocator.allocate_into(
                    &view,
                    |l| fabric.link_capacity(l) * overlay.scale(l),
                    &discipline,
                    &mut self.rate_buf[s..e],
                );
                self.last_alloc_touched += self.allocator.last_touched_links();
                self.last_alloc_passes += self.allocator.last_waterfill_passes();
            }
        }
        let ncomp = self.comp_bounds.len() - 1;
        if self.probe.on() {
            self.probe.component_calls += ncomp as u64;
        }
        for i in 0..self.component.len() {
            let pos = self.component[i];
            let rate = self.rate_buf[i];
            let was_flowing = self.hot.rate[pos] > FLOWING_EPS;
            self.hot.rate[pos] = rate;
            self.flows[pos].stamp = stamp;
            if rate > 1e-15 && rate.is_finite() {
                self.finish_heap.push(FinishCand {
                    time: self.now + self.hot.remaining[pos] / rate,
                    flow: self.flows[pos].id,
                    stamp,
                });
            }
            let is_flowing = rate > FLOWING_EPS;
            if was_flowing != is_flowing {
                let cid = self.hot.coflow[pos];
                self.coflow_rate_transition(cid, is_flowing);
            }
        }
        if self.probe.on() {
            self.probe.component_flows += self.component.len() as u64;
        }
        if self.finish_heap.len() > 4 * self.flows.len() + 64 {
            self.rebuild_finish_heap();
        }
    }

    /// Fans the epoch's disjoint components across the worker pool:
    /// `f(worker_slot, component_index)` waterfills one component into
    /// its own `rate_buf` span using the slot's private [`Allocator`]
    /// scratch. Writes exactly what the serial per-component loop
    /// writes — the same rates into the same slices, and per-component
    /// diagnostics merged in component-index order — so results are
    /// bit-for-bit independent of scheduling (see
    /// [`SimConfig::threads`]).
    fn recompute_components_parallel(&mut self, discipline: &Discipline) {
        let ncomp = self.comp_bounds.len() - 1;
        let fabric = self.fabric;
        if self.worker_alloc.len() < self.threads {
            self.worker_alloc.resize_with(self.threads, || {
                Mutex::new(Allocator::new(fabric.num_links()))
            });
        }
        // Disjoint per-component output spans carved out of `rate_buf`.
        // Task `c` locks span `c` and worker slot `s` locks scratch `s`,
        // each exactly once per batch, so every lock below is
        // uncontended — the mutexes keep this fan-out inside the
        // crate-wide `forbid(unsafe_code)`; they are not synchronization
        // points.
        let mut spans: Vec<Mutex<(&mut [f64], usize, u64)>> = Vec::with_capacity(ncomp);
        let mut rest: &mut [f64] = &mut self.rate_buf;
        for w in self.comp_bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            rest = tail;
            spans.push(Mutex::new((head, 0, 0)));
        }
        let flows = &self.flows;
        let paths = &self.hot.path;
        let arena = &self.arena;
        let overlay = &self.overlay;
        let component = &self.component;
        let bounds = &self.comp_bounds;
        let scratch = &self.worker_alloc;
        let pool = self.pool.as_ref().expect("caller checked");
        let spans_ref = &spans;
        let task = move |slot: usize, c: usize| {
            let (s, e) = (bounds[c], bounds[c + 1]);
            let view = FlowDemandView {
                flows,
                paths,
                subset: &component[s..e],
                arena,
            };
            let mut alloc = scratch[slot].lock().expect("worker scratch poisoned");
            let mut out = spans_ref[c].lock().expect("span lock poisoned");
            let out = &mut *out;
            alloc.allocate_into(
                &view,
                |l| fabric.link_capacity(l) * overlay.scale(l),
                discipline,
                &mut *out.0,
            );
            out.1 = alloc.last_touched_links();
            out.2 = alloc.last_waterfill_passes();
        };
        pool.run(ncomp, &task);
        // Merge diagnostics in component-index order. Integer sums are
        // order-independent anyway; the explicit order documents the
        // contract the f64-free merge shares with the rate application
        // loop below (component-index order, always).
        let (mut touched, mut passes) = (0usize, 0u64);
        for m in spans {
            let (_, t, p) = m.into_inner().expect("span lock poisoned");
            touched += t;
            passes += p;
        }
        self.last_alloc_touched = touched;
        self.last_alloc_passes = passes;
        if self.probe.on() {
            self.probe.parallel_epochs += 1;
        }
    }

    /// Starvation-watch bookkeeping: one flow of `cid` crossed the
    /// [`FLOWING_EPS`] threshold. `gained` means zero → positive rate.
    /// Runs unconditionally — the starvation fields in
    /// [`CoflowResult`] never depend on whether telemetry is armed.
    fn coflow_rate_transition(&mut self, cid: CoflowId, gained: bool) {
        let Some(cf) = self.coflows.get_mut(&cid) else {
            return; // completed in this same instant; interval already closed
        };
        if gained {
            cf.flowing += 1;
            if cf.flowing == 1 {
                if let Some(since) = cf.starved_since.take() {
                    let dur = self.now - since;
                    if dur > 0.0 {
                        cf.starved_total += dur;
                        cf.starved_max = cf.starved_max.max(dur);
                        if self.probe.on() {
                            self.probe.emit(&TraceRecord::CoflowStarved {
                                t: self.now,
                                coflow: cid.index(),
                                dur,
                            });
                        }
                    }
                }
            }
        } else {
            cf.flowing -= 1;
            if cf.flowing == 0 {
                cf.starved_since = Some(self.now);
            }
        }
    }

    /// Emits an [`EpochSample`] when at least one sample interval of
    /// simulation time has passed since the previous one. Only called
    /// when the probe is armed, so the disabled path never pays for the
    /// snapshot below.
    fn maybe_sample(&mut self) {
        if self.now < self.probe.next_sample {
            return;
        }
        let sample = self.build_sample();
        self.probe.next_sample = self.now + self.probe.sample_interval;
        self.probe.emit(&TraceRecord::Epoch(sample));
    }

    /// Snapshots queue/link/coflow/allocator state into an
    /// [`EpochSample`]. Read-only: O(flows · path) once per sample
    /// interval, never on the disabled path.
    fn build_sample(&self) -> EpochSample {
        let nq = self.plane.num_queues();
        let mut queue_occupancy = vec![0usize; nq];
        let mut queue_rate = vec![0.0f64; nq];
        let mut parked_flows = 0usize;
        let mut link_rate: HashMap<usize, f64> = HashMap::new();
        for (pos, f) in self.flows.iter().enumerate() {
            if f.parked {
                parked_flows += 1;
                continue;
            }
            queue_occupancy[f.queue] += 1;
            let rate = self.hot.rate[pos];
            if rate > FLOWING_EPS && rate.is_finite() {
                queue_rate[f.queue] += rate;
                for l in self.arena.get(self.hot.path[pos]) {
                    *link_rate.entry(l.index()).or_insert(0.0) += rate;
                }
            }
        }
        let total_rate: f64 = queue_rate.iter().sum();
        let queue_service_share = if total_rate > 0.0 {
            queue_rate.iter().map(|r| r / total_rate).collect()
        } else {
            queue_rate
        };
        let mut max_util = 0.0f64;
        let mut util_sum = 0.0f64;
        // Sum in link-index order: HashMap iteration order varies per
        // process, and f64 addition is order-sensitive — an unordered
        // sum would make the mean differ across identical runs.
        let mut busy: Vec<usize> = link_rate.keys().copied().collect();
        busy.sort_unstable();
        for li in busy {
            let rate = link_rate[&li];
            let cap = self.fabric.link_capacity(LinkId(li)) * self.overlay.scale(LinkId(li));
            let util = if cap > 0.0 { rate / cap } else { 0.0 };
            max_util = max_util.max(util);
            util_sum += util;
        }
        let links_busy = link_rate.len();
        let starved_coflows = self
            .active_coflows
            .iter()
            .filter(|cid| {
                let cf = &self.coflows[cid];
                cf.open_flows > 0 && cf.flowing == 0
            })
            .count();
        EpochSample {
            t: self.now,
            events: self.events,
            event_queue_depth: self.queue.len(),
            active_flows: self.flows.len(),
            parked_flows,
            active_coflows: self.active_coflows.len(),
            starved_coflows,
            queue_occupancy,
            queue_service_share,
            links_busy,
            max_link_utilization: max_util,
            mean_link_utilization: if links_busy > 0 {
                util_sum / links_busy as f64
            } else {
                0.0
            },
            pending_control_updates: self.plane.pending_updates(),
            degraded_links: self.overlay.num_degraded() + self.overlay.num_dead(),
            alloc_full_passes: self.probe.full_passes,
            alloc_incremental_passes: self.probe.incremental_passes,
            alloc_component_flows: self.probe.component_flows,
            alloc_seed_links: self.probe.seed_links,
            alloc_touched_links: self.last_alloc_touched,
            alloc_waterfill_passes: self.last_alloc_passes,
            alloc_component_calls: self.probe.component_calls,
            alloc_parallel_epochs: self.probe.parallel_epochs,
            alloc_skipped_components: self.probe.skipped_components,
        }
    }

    fn schedule_followups(&mut self) {
        // Next completion, via the lazy completion index: pop entries
        // whose flow completed or whose rate was re-stamped since the
        // prediction was pushed; the top valid entry is the argmin. The
        // event time is recomputed from the flow's *current* state so it
        // is bit-identical to what a full scan over `flows` would find
        // (predictions are pushed before any `advance_to` drains
        // `remaining`, but `now + remaining/rate` is invariant along the
        // segment while the rate holds — up to the fresh division here).
        // The event time must be strictly after `now` in f64, or a
        // sub-epsilon residue would re-fire the same event with zero
        // progress forever; nudging by one ULP-scale step costs well
        // under a nanosecond of accuracy.
        let mut t_next = f64::INFINITY;
        while let Some(top) = self.finish_heap.peek() {
            match self.flow_pos.get(top.flow) {
                Some(pos) if self.flows[pos].stamp == top.stamp => {
                    debug_assert!(self.hot.rate[pos] > 1e-15);
                    t_next = self.now + self.hot.remaining[pos] / self.hot.rate[pos];
                    break;
                }
                _ => {
                    self.finish_heap.pop();
                }
            }
        }
        if t_next.is_finite() {
            let min_step = self.now.abs() * 1e-14 + 1e-12;
            if t_next <= self.now + min_step {
                t_next = self.now + min_step;
            }
            self.queue.push(Event {
                time: t_next,
                seq: self.seq,
                kind: EventKind::Completion {
                    generation: self.completion_generation,
                },
            });
            self.seq += 1;
        }
        // Next tick, while anything is in flight.
        if !self.tick_pending && !self.flows.is_empty() {
            self.queue.push(Event {
                time: self.now + self.config.tick_interval,
                seq: self.seq,
                kind: EventKind::Tick,
            });
            self.seq += 1;
            self.tick_pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoScheduler;
    use crate::topology::BigSwitch;
    use gurita_model::{units::MB, CoflowSpec, FlowSpec, HostId, JobDag};

    #[test]
    fn event_heap_pops_in_time_then_seq_order() {
        let mut q = BinaryHeap::new();
        for (time, seq) in [(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3), (0.5, 4)] {
            q.push(Event {
                time,
                seq,
                kind: EventKind::Tick,
            });
        }
        let order: Vec<(f64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(
            order,
            vec![(0.5, 4), (1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]
        );
    }

    fn single_flow_job(id: usize, arrival: f64, src: usize, dst: usize, bytes: f64) -> JobSpec {
        JobSpec::new(
            id,
            arrival,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(src),
                HostId(dst),
                bytes,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    fn big_switch_sim() -> Simulation<BigSwitch> {
        Simulation::new(BigSwitch::new(8, 1.0 * MB), SimConfig::default())
    }

    /// FIFO over `sim` with `faults` injected.
    fn try_run_fifo<F: Fabric>(
        sim: &mut Simulation<F>,
        jobs: Vec<JobSpec>,
        faults: &FaultSchedule,
    ) -> Result<RunResult, SimError> {
        let mut sched = FifoScheduler::new(1);
        sim.try_run(jobs, &mut Centralized::new(&mut sched), faults, None)
    }

    #[test]
    fn fanned_advance_matches_serial_with_link_stats() {
        // More open flows than `PAR_MIN_ADVANCE_FLOWS` so the chunked
        // advance sweep engages, with link stats on so the
        // chunk-ordered per-link byte merge sits on the hot path; as
        // completions drain the table below the threshold the serial
        // sweep takes over, so one run crosses both variants. The
        // fanned run must reproduce the serial `RunResult` — including
        // `link_bytes` — byte for byte.
        let hosts = 64;
        let n = PAR_MIN_ADVANCE_FLOWS + 200;
        let flows: Vec<FlowSpec> = (0..n)
            .map(|i| {
                let src = i % hosts;
                let mut dst = (i * 7 + 1) % hosts;
                if dst == src {
                    dst = (dst + 1) % hosts;
                }
                let bytes = (1.0 + (i % 97) as f64 * 0.13) * MB;
                FlowSpec::new(HostId(src), HostId(dst), bytes)
            })
            .collect();
        let job = JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(flows)],
            JobDag::chain(1).unwrap(),
        )
        .unwrap();
        let run = |threads: usize| {
            let mut sim = Simulation::new(
                BigSwitch::new(hosts, 1.0 * MB),
                SimConfig {
                    threads,
                    collect_link_stats: true,
                    ..SimConfig::default()
                },
            );
            sim.run(vec![job.clone()], &mut FifoScheduler::new(1))
        };
        let serial = run(1);
        let fanned = run(4);
        assert!(!serial.link_bytes.is_empty(), "link stats were collected");
        assert!(
            serial == fanned,
            "fanned advance diverged from the serial sweep"
        );
    }

    #[test]
    fn single_flow_completes_at_exact_time() {
        let mut sim = big_switch_sim();
        let res = sim.run(
            vec![single_flow_job(0, 0.0, 0, 1, 10.0 * MB)],
            &mut FifoScheduler::new(1),
        );
        assert_eq!(res.jobs.len(), 1);
        assert!(
            (res.jobs[0].jct - 10.0).abs() < 1e-6,
            "jct = {}",
            res.jobs[0].jct
        );
        assert_eq!(res.coflows.len(), 1);
    }

    #[test]
    fn two_flows_share_a_downlink() {
        // Both flows into host 2: each gets half the 1 MB/s downlink.
        let mut sim = big_switch_sim();
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 5.0 * MB),
            single_flow_job(1, 0.0, 1, 2, 5.0 * MB),
        ];
        let res = sim.run(jobs, &mut FifoScheduler::new(1));
        assert_eq!(res.jobs.len(), 2);
        for j in &res.jobs {
            assert!((j.jct - 10.0).abs() < 1e-6, "jct = {}", j.jct);
        }
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let mut sim = big_switch_sim();
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 2.0 * MB),
            single_flow_job(1, 0.0, 1, 2, 6.0 * MB),
        ];
        let res = sim.run(jobs, &mut FifoScheduler::new(1));
        // Fair share: both at 0.5 until t=4 (short done: 2MB at 0.5),
        // then long has 4MB left at full rate -> done at t=8.
        let j0 = res.jobs.iter().find(|j| j.id == JobId(0)).unwrap();
        let j1 = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap();
        assert!((j0.jct - 4.0).abs() < 1e-6, "short jct {}", j0.jct);
        assert!((j1.jct - 8.0).abs() < 1e-6, "long jct {}", j1.jct);
    }

    #[test]
    fn staggered_arrivals_are_respected() {
        let mut sim = big_switch_sim();
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 2.0 * MB),
            single_flow_job(1, 100.0, 1, 3, 2.0 * MB),
        ];
        let res = sim.run(jobs, &mut FifoScheduler::new(1));
        let j1 = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap();
        assert!((j1.completed_at - 102.0).abs() < 1e-6);
        assert!((j1.jct - 2.0).abs() < 1e-6);
    }

    #[test]
    fn chain_job_runs_stages_sequentially() {
        let coflows = vec![
            CoflowSpec::new(vec![FlowSpec::new(HostId(0), HostId(1), 3.0 * MB)]),
            CoflowSpec::new(vec![FlowSpec::new(HostId(1), HostId(2), 2.0 * MB)]),
        ];
        let job = JobSpec::new(0, 0.0, coflows, JobDag::chain(2).unwrap()).unwrap();
        let mut sim = big_switch_sim();
        let res = sim.run(vec![job], &mut FifoScheduler::new(1));
        assert!(
            (res.jobs[0].jct - 5.0).abs() < 1e-6,
            "jct {}",
            res.jobs[0].jct
        );
        assert_eq!(res.coflows.len(), 2);
        // Stage 1 activates exactly when stage 0 completes.
        let c0 = res.coflows.iter().find(|c| c.dag_vertex == 0).unwrap();
        let c1 = res.coflows.iter().find(|c| c.dag_vertex == 1).unwrap();
        assert!((c1.activated_at - c0.completed_at).abs() < 1e-9);
    }

    #[test]
    fn parallel_chains_advance_independently() {
        // Two chains joined by a root: chain A short, chain B long; A's
        // second stage must start before B's first finishes.
        let coflows = vec![
            CoflowSpec::new(vec![FlowSpec::new(HostId(0), HostId(1), 1.0 * MB)]), // A0
            CoflowSpec::new(vec![FlowSpec::new(HostId(1), HostId(2), 1.0 * MB)]), // A1
            CoflowSpec::new(vec![FlowSpec::new(HostId(3), HostId(4), 8.0 * MB)]), // B0
            CoflowSpec::new(vec![FlowSpec::new(HostId(4), HostId(5), 1.0 * MB)]), // B1
            CoflowSpec::new(vec![FlowSpec::new(HostId(5), HostId(6), 1.0 * MB)]), // root
        ];
        let dag = JobDag::new(5, &[(0, 1), (2, 3), (1, 4), (3, 4)]).unwrap();
        let job = JobSpec::new(0, 0.0, coflows, dag).unwrap();
        let mut sim = big_switch_sim();
        let res = sim.run(vec![job], &mut FifoScheduler::new(1));
        let a1 = res.coflows.iter().find(|c| c.dag_vertex == 1).unwrap();
        let b0 = res.coflows.iter().find(|c| c.dag_vertex == 2).unwrap();
        assert!(
            a1.activated_at < b0.completed_at,
            "parallel chain A stalled behind B"
        );
        // JCT: chain B dominates (8 + 1), then root (1): 10s total.
        assert!(
            (res.jobs[0].jct - 10.0).abs() < 1e-6,
            "jct {}",
            res.jobs[0].jct
        );
    }

    #[test]
    fn local_flows_complete_instantly() {
        let mut sim = big_switch_sim();
        let res = sim.run(
            vec![single_flow_job(0, 1.0, 3, 3, 4.0 * MB)],
            &mut FifoScheduler::new(1),
        );
        assert!(res.jobs[0].jct.abs() < 1e-9);
    }

    #[test]
    fn conservation_of_bytes() {
        let mut sim = big_switch_sim();
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 3.0 * MB),
            single_flow_job(1, 0.5, 1, 2, 4.0 * MB),
        ];
        let total: f64 = jobs.iter().map(|j| j.total_bytes()).sum();
        let res = sim.run(jobs, &mut FifoScheduler::new(1));
        let delivered: f64 = res.coflows.iter().map(|c| c.bytes).sum();
        assert!((delivered - total).abs() < 1.0);
    }

    #[test]
    fn event_budget_guard_fires() {
        let mut sim = Simulation::new(
            BigSwitch::new(8, 1.0 * MB),
            SimConfig {
                max_events: 2,
                ..SimConfig::default()
            },
        );
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 30.0 * MB),
            single_flow_job(1, 0.0, 1, 2, 30.0 * MB),
        ];
        let err = try_run_fifo(&mut sim, jobs, &FaultSchedule::new()).unwrap_err();
        assert_eq!(err, SimError::EventBudgetExhausted { max_events: 2 });
    }

    #[test]
    fn link_stats_account_carried_bytes() {
        let mut sim = Simulation::new(
            BigSwitch::new(8, 1.0 * MB),
            SimConfig {
                collect_link_stats: true,
                ..SimConfig::default()
            },
        );
        let res = sim.run(
            vec![single_flow_job(0, 0.0, 0, 1, 3.0 * MB)],
            &mut FifoScheduler::new(1),
        );
        // Uplink of host 0 and downlink of host 1 each carried ~3 MB.
        assert_eq!(res.link_bytes.len(), 2);
        for &(_, bytes) in &res.link_bytes {
            assert!((bytes - 3.0 * MB).abs() < 1.0, "carried {bytes}");
        }
        // Disabled by default.
        let mut sim = Simulation::new(BigSwitch::new(8, 1.0 * MB), SimConfig::default());
        let res = sim.run(
            vec![single_flow_job(0, 0.0, 0, 1, MB)],
            &mut FifoScheduler::new(1),
        );
        assert!(res.link_bytes.is_empty());
    }

    #[test]
    fn mid_run_degrade_and_restore_stretch_completion() {
        use crate::faults::{FaultEvent, FaultSchedule};
        // 10 MB at 1 MB/s; halve the path for t in [2, 6): 2 MB by t=2,
        // 2 MB more by t=6, remaining 6 MB at full rate -> done at t=12.
        let mut sim = big_switch_sim();
        let mut faults = FaultSchedule::new();
        faults
            .push(
                2.0,
                FaultEvent::BrownoutHost {
                    host: HostId(1),
                    factor: 0.5,
                },
            )
            .push(6.0, FaultEvent::RestoreHost { host: HostId(1) });
        let res = try_run_fifo(
            &mut sim,
            vec![single_flow_job(0, 0.0, 0, 1, 10.0 * MB)],
            &faults,
        )
        .unwrap();
        assert!(
            (res.jobs[0].jct - 12.0).abs() < 1e-6,
            "jct {}",
            res.jobs[0].jct
        );
        assert_eq!(res.faults.len(), 2);
        assert_eq!(res.flows_rerouted + res.flows_parked, 0);
    }

    #[test]
    fn failed_link_parks_flow_until_recovery() {
        use crate::faults::{FaultEvent, FaultSchedule};
        use crate::topology::LinkId;
        // BigSwitch has a single path per pair, so a hard failure cannot
        // be rerouted: the flow parks, holds its bytes, and resumes.
        // 10 MB: 3 MB by t=3, parked for [3, 8), done at 8 + 7 = 15.
        let mut sim = big_switch_sim();
        let mut faults = FaultSchedule::new();
        faults
            .push(3.0, FaultEvent::FailLink { link: LinkId(0) })
            .push(8.0, FaultEvent::RecoverLink { link: LinkId(0) });
        let res = try_run_fifo(
            &mut sim,
            vec![single_flow_job(0, 0.0, 0, 1, 10.0 * MB)],
            &faults,
        )
        .unwrap();
        assert!(
            (res.jobs[0].jct - 15.0).abs() < 1e-6,
            "jct {}",
            res.jobs[0].jct
        );
        assert_eq!(res.flows_parked, 1);
        assert_eq!(res.flows_resumed, 1);
        assert_eq!(res.jobs[0].fault_parks, 1);
        let fail = &res.faults[0];
        assert_eq!(fail.parked, 1);
        let recover = &res.faults[1];
        assert_eq!(recover.resumed, 1);
    }

    #[test]
    fn stranded_flows_error_when_no_recovery_is_scheduled() {
        use crate::faults::{FaultEvent, FaultSchedule};
        use crate::topology::LinkId;
        let mut sim = big_switch_sim();
        let mut faults = FaultSchedule::new();
        faults.push(1.0, FaultEvent::FailLink { link: LinkId(0) });
        let err = try_run_fifo(
            &mut sim,
            vec![single_flow_job(0, 0.0, 0, 1, 10.0 * MB)],
            &faults,
        )
        .unwrap_err();
        assert_eq!(err, SimError::StrandedFlows { parked: 1 });
    }

    #[test]
    fn invalid_schedule_is_rejected_up_front() {
        use crate::faults::{FaultEvent, FaultSchedule};
        use crate::topology::LinkId;
        let mut sim = big_switch_sim();
        let mut faults = FaultSchedule::new();
        faults.push(1.0, FaultEvent::FailLink { link: LinkId(999) });
        let err =
            try_run_fifo(&mut sim, vec![single_flow_job(0, 0.0, 0, 1, MB)], &faults).unwrap_err();
        assert!(matches!(err, SimError::InvalidFault { .. }), "{err}");
    }

    #[test]
    fn fat_tree_reroutes_around_a_failed_core_path() {
        use crate::faults::{FaultEvent, FaultSchedule};
        use crate::topology::FatTree;
        // Cross-pod traffic on a fat-tree has multiple ECMP paths; kill
        // one link of the flow's current path and the flow must move to
        // another path and still finish (no park, no stall).
        let fabric = FatTree::with_capacity(4, 1.0 * MB).unwrap();
        let flow_path = fabric.path(HostId(0), HostId(8), 0).unwrap();
        // Pick a core-facing link (not the first/last hop, which are the
        // hosts' only NICs).
        let mid = flow_path[1];
        let job = || vec![single_flow_job(0, 0.0, 0, 8, 10.0 * MB)];
        let healthy = {
            let mut sim = Simulation::new(fabric.clone(), SimConfig::default());
            sim.run(job(), &mut FifoScheduler::new(1))
        };
        let mut sim = Simulation::new(fabric, SimConfig::default());
        let mut faults = FaultSchedule::new();
        let mid_fault = healthy.jobs[0].jct / 2.0;
        faults
            .push(mid_fault, FaultEvent::FailLink { link: mid })
            .push(1e6, FaultEvent::RecoverLink { link: mid });
        let res = try_run_fifo(&mut sim, job(), &faults).unwrap();
        assert_eq!(res.jobs.len(), 1);
        assert_eq!(res.flows_rerouted, 1, "flow should re-salt, not park");
        assert_eq!(res.flows_parked, 0);
        assert_eq!(res.jobs[0].fault_reroutes, 1);
        // The detour has identical capacity, and delivered bytes are
        // preserved across the reroute: completion time is unchanged.
        assert!(
            (res.jobs[0].jct - healthy.jobs[0].jct).abs() < 1e-6,
            "jct {} vs healthy {}",
            res.jobs[0].jct,
            healthy.jobs[0].jct
        );
    }

    #[test]
    fn flows_activated_during_an_outage_route_around_it() {
        use crate::faults::{FaultEvent, FaultSchedule};
        use crate::topology::FatTree;
        let fabric = FatTree::with_capacity(4, 1.0 * MB).unwrap();
        let future_path = fabric.path(HostId(0), HostId(8), 0).unwrap();
        let mid = future_path[1];
        let job = |arrival: f64| vec![single_flow_job(0, arrival, 0, 8, 5.0 * MB)];
        let healthy = {
            let mut sim = Simulation::new(fabric.clone(), SimConfig::default());
            sim.run(job(0.0), &mut FifoScheduler::new(1))
        };
        let mut sim = Simulation::new(fabric, SimConfig::default());
        let mut faults = FaultSchedule::new();
        faults
            .push(0.5, FaultEvent::FailLink { link: mid })
            .push(1e6, FaultEvent::RecoverLink { link: mid });
        // Job arrives while the link is down; its natural path would
        // cross the dead link, so activation must pick a live detour and
        // run at full speed from the start.
        let res = try_run_fifo(&mut sim, job(1.0), &faults).unwrap();
        assert_eq!(res.flows_parked, 0);
        assert!(
            (res.jobs[0].jct - healthy.jobs[0].jct).abs() < 1e-6,
            "jct {} vs healthy {}",
            res.jobs[0].jct,
            healthy.jobs[0].jct
        );
    }

    #[test]
    fn makespan_and_event_counts_recorded() {
        let mut sim = big_switch_sim();
        let res = sim.run(
            vec![single_flow_job(0, 0.0, 0, 1, MB)],
            &mut FifoScheduler::new(1),
        );
        assert!(res.makespan >= 1.0 - 1e-6);
        assert!(res.events >= 2);
        assert_eq!(res.scheduler, "fifo");
    }

    // ---- steppable core / online admission ----

    fn online_fixture() -> (BigSwitch, SimConfig) {
        (BigSwitch::new(8, 1.0 * MB), SimConfig::default())
    }

    #[test]
    fn online_t0_submission_matches_offline_run() {
        let jobs = vec![
            single_flow_job(0, 0.0, 0, 2, 5.0 * MB),
            single_flow_job(1, 0.5, 1, 2, 5.0 * MB),
            single_flow_job(2, 2.0, 3, 4, 2.0 * MB),
        ];
        let mut sim = big_switch_sim();
        let mut sched = FifoScheduler::new(1);
        let offline = sim.run(jobs.clone(), &mut sched);

        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        for job in jobs {
            engine.submit_job(job).unwrap();
        }
        assert_eq!(engine.run_to_drained().unwrap(), StepOutcome::Drained);
        let online = engine.finish();
        assert_eq!(offline, online, "online t=0 path must be bit-for-bit");
    }

    #[test]
    fn mid_run_submission_is_admitted_and_completes() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 2, 5.0 * MB))
            .unwrap();
        // Run partway, then admit a second job dated in the past: its
        // arrival must clamp to the current virtual time.
        engine.run_until(2.0).unwrap();
        assert!(engine.now() > 0.0 && engine.now() <= 2.0);
        let id = engine
            .submit_job(single_flow_job(1, 0.0, 1, 2, 5.0 * MB))
            .unwrap();
        assert_eq!(engine.job_phase(id), JobPhase::Pending);
        assert_eq!(engine.run_to_drained().unwrap(), StepOutcome::Drained);
        let res = engine.finish();
        assert_eq!(res.jobs.len(), 2);
        let late = res.jobs.iter().find(|j| j.id == JobId(1)).unwrap();
        assert!(
            late.arrival >= 2.0 - 1e-9,
            "arrival clamped to admission time"
        );
        assert!((late.jct - (late.completed_at - late.arrival)).abs() < 1e-9);
    }

    #[test]
    fn duplicate_and_unknown_host_submissions_are_rejected() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 1, MB))
            .unwrap();
        assert_eq!(
            engine.submit_job(single_flow_job(0, 0.0, 2, 3, MB)),
            Err(SimError::DuplicateJob { job: 0 })
        );
        assert_eq!(
            engine.submit_job(single_flow_job(1, 0.0, 0, 99, MB)),
            Err(SimError::UnknownHost {
                host: 99,
                num_hosts: 8
            })
        );
        // The rejected submissions left the engine intact.
        assert_eq!(engine.outstanding_jobs(), 1);
        engine.run_to_drained().unwrap();
        assert_eq!(engine.finish().jobs.len(), 1);
    }

    #[test]
    fn non_finite_or_negative_submissions_are_rejected() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        // `FlowSpec`'s fields are public, as they are to serde: build
        // the sizes its constructor would refuse.
        let with_bytes = |id: usize, bytes: f64| {
            let flow = FlowSpec {
                src: HostId(0),
                dst: HostId(1),
                bytes,
            };
            JobSpec::new(
                id,
                0.0,
                vec![CoflowSpec::new(vec![flow])],
                JobDag::chain(1).unwrap(),
            )
            .unwrap()
        };
        let bad = [
            single_flow_job(0, -1.0, 0, 1, MB),
            single_flow_job(1, f64::NAN, 0, 1, MB),
            single_flow_job(2, f64::INFINITY, 0, 1, MB),
            with_bytes(3, f64::NAN),
            with_bytes(4, -MB),
            with_bytes(5, 0.0),
            with_bytes(6, f64::INFINITY),
        ];
        for spec in bad {
            let id = spec.id().index();
            match engine.submit_job(spec) {
                Err(SimError::InvalidJob { job, .. }) => assert_eq!(job, id),
                other => panic!("job {id} not rejected as invalid: {other:?}"),
            }
        }
        // Nothing was admitted, and the ids stay free for valid jobs.
        assert_eq!(engine.outstanding_jobs(), 0);
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 1, MB))
            .unwrap();
        engine.run_to_drained().unwrap();
        assert_eq!(engine.finish().jobs.len(), 1);
    }

    #[test]
    fn cancel_pending_and_running_jobs() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 2, 5.0 * MB))
            .unwrap();
        engine
            .submit_job(single_flow_job(1, 0.0, 1, 2, 5.0 * MB))
            .unwrap();
        engine
            .submit_job(single_flow_job(2, 50.0, 3, 4, MB))
            .unwrap();
        engine.run_until(1.0).unwrap();
        // Job 1 is running (sharing the host-2 downlink); job 2 pending.
        assert!(matches!(
            engine.job_phase(JobId(1)),
            JobPhase::Running { .. }
        ));
        assert!(engine.cancel_job(JobId(1)));
        assert_eq!(engine.job_phase(JobId(1)), JobPhase::Cancelled);
        assert!(engine.cancel_job(JobId(2)));
        assert!(!engine.cancel_job(JobId(2)), "double cancel is a no-op");
        assert!(!engine.cancel_job(JobId(9)), "unknown id is a no-op");
        assert_eq!(engine.run_to_drained().unwrap(), StepOutcome::Drained);
        let res = engine.finish();
        assert_eq!(res.jobs.len(), 1);
        assert_eq!(res.jobs_cancelled, 2);
        // With the competitor cancelled at t=1, job 0 has 4.5 MB left at
        // the full 1 MB/s: done at 5.5s, faster than the shared 7.5s.
        assert!(
            (res.jobs[0].jct - 5.5).abs() < 1e-6,
            "jct {}",
            res.jobs[0].jct
        );
    }

    #[test]
    fn drained_engine_accepts_further_submissions() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 1, MB))
            .unwrap();
        assert_eq!(engine.run_to_drained().unwrap(), StepOutcome::Drained);
        assert!(engine.drained());
        engine
            .submit_job(single_flow_job(1, 0.0, 1, 2, MB))
            .unwrap();
        assert!(!engine.drained());
        assert_eq!(engine.run_to_drained().unwrap(), StepOutcome::Drained);
        let res = engine.finish();
        assert_eq!(res.jobs.len(), 2);
        assert!(res.jobs[1].completed_at > res.jobs[0].completed_at);
    }

    #[test]
    fn run_until_honors_the_horizon() {
        let (fabric, config) = online_fixture();
        let mut sched = FifoScheduler::new(1);
        let mut plane = Centralized::new(&mut sched);
        let mut engine =
            Engine::online(&fabric, &config, &mut plane, &FaultSchedule::new()).unwrap();
        engine
            .submit_job(single_flow_job(0, 0.0, 0, 1, 10.0 * MB))
            .unwrap();
        engine
            .submit_job(single_flow_job(1, 20.0, 1, 2, MB))
            .unwrap();
        let out = engine.run_until(12.0).unwrap();
        assert_eq!(out, StepOutcome::Idle, "job 1 still outstanding");
        assert!(engine.now() <= 12.0);
        assert_eq!(
            engine.completed_jobs().len(),
            1,
            "job 0 done inside horizon"
        );
        assert!(matches!(
            engine.job_phase(JobId(0)),
            JobPhase::Completed { .. }
        ));
        assert_eq!(
            engine.run_until(f64::INFINITY).unwrap(),
            StepOutcome::Drained
        );
        assert_eq!(engine.finish().jobs.len(), 2);
    }
}
