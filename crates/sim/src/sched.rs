//! Scheduler interface.
//!
//! A coflow scheduler plugs into the simulation through [`Scheduler`].
//! After every event batch (arrivals, completions, periodic δ ticks —
//! the paper's receiver-to-head-receiver update interval) the runtime
//! presents an [`Observation`] and asks for a queue assignment per active
//! coflow.
//!
//! # Information model
//!
//! The [`Observation`] carries only what a *decentralized, receiver-side*
//! scheme can see in a real deployment (paper §IV.B "from concept to
//! practice"):
//!
//! * per-flow bytes received and open-connection status — visible at the
//!   receiver's NetFilter shim;
//! * per-coflow aggregates (open-connection count ≈ width Ŵ, largest
//!   observed flow ≈ L̂_max, bytes received) — aggregated at the head
//!   receiver from its peers;
//! * the coflow's depth in its job's dependency chain (`dag_stage`) and
//!   how many of the job's coflows have completed — receivers learn the
//!   dependency chain because parents invoke children and inform them of
//!   the head receiver.
//!
//! Clairvoyant/centralized schemes (the paper's Aalo setup and
//! GuritaPlus) additionally read the [`Oracle`], which exposes full job
//! specifications and exact per-flow remaining bytes. Decentralized
//! schedulers must not touch it; the split makes each scheme's
//! information usage explicit and auditable.

use gurita_model::{CoflowId, FlowId, HostId, JobId, JobSpec};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Receiver-side view of one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowObs {
    /// The flow's identifier.
    pub id: FlowId,
    /// The sending host: a receiver sees the sender of its connection.
    /// The decentralized control plane narrows observations by it.
    pub src: HostId,
    /// Bytes received so far.
    pub bytes_received: f64,
    /// Whether the connection is still open (the flow is active).
    pub open: bool,
}

/// Receiver-side view of one active coflow.
#[derive(Debug, Clone)]
pub struct CoflowObs {
    /// The coflow's identifier.
    pub id: CoflowId,
    /// The job the coflow belongs to.
    pub job: JobId,
    /// The coflow's vertex index within its job's DAG.
    pub dag_vertex: usize,
    /// Depth of the coflow in its dependency chain (0 = leaf). Receivers
    /// observe this by counting parent→child invocations; it equals the
    /// number of completed predecessor stages `s` in the blocking-effect
    /// estimate ω̂ = 1/(1+s).
    pub dag_stage: usize,
    /// Simulation time at which the coflow was activated.
    pub activated_at: f64,
    /// Number of currently open connections (the width estimate Ŵ).
    pub open_flows: usize,
    /// Total bytes received across all of the coflow's flows.
    pub bytes_received: f64,
    /// Largest per-flow bytes received observed so far (L̂_max).
    pub max_flow_bytes_received: f64,
    /// Per-flow observations.
    pub flows: Vec<FlowObs>,
}

impl CoflowObs {
    /// Mean bytes received per started flow (L̂_avg); 0 if no flows.
    pub fn avg_flow_bytes_received(&self) -> f64 {
        if self.flows.is_empty() {
            0.0
        } else {
            self.bytes_received / self.flows.len() as f64
        }
    }
}

/// Receiver-side view of one job with at least one active coflow.
#[derive(Debug, Clone)]
pub struct JobObs {
    /// The job's identifier.
    pub id: JobId,
    /// Arrival time of the job.
    pub arrival: f64,
    /// Number of the job's coflows that have completed so far.
    pub completed_coflows: usize,
    /// Highest DAG stage among completed coflows plus one; 0 if none —
    /// the "number of completed stages" the head receiver can count.
    pub completed_stages: usize,
    /// Total bytes received by the job so far, across all its coflows
    /// (the accumulated total-bytes-sent that TBS schedulers use).
    pub bytes_received: f64,
    /// Bytes received by the job's already-completed coflows — the part
    /// of [`JobObs::bytes_received`] not attributable to the active
    /// coflows. Exposed so a view narrowed to some hosts' flows can
    /// re-add the job's total from its kept coflows.
    pub completed_bytes: f64,
    /// Indexes into [`Observation::coflows`] of this job's active coflows.
    pub active_coflows: Vec<usize>,
}

/// Everything a scheduler may observe at a decision point.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Current simulation time.
    pub now: f64,
    /// All active coflows, in ascending [`CoflowId`] order.
    pub coflows: Vec<CoflowObs>,
    /// All jobs with at least one active coflow, in ascending [`JobId`]
    /// order (an invariant of the runtime's observation builders that
    /// [`Observation::job`] relies on).
    pub jobs: Vec<JobObs>,
}

impl Observation {
    /// Looks up a job observation by id.
    ///
    /// Binary-searches `jobs`, which the runtime keeps sorted by id; a
    /// hand-built observation with unsorted jobs may miss entries.
    pub fn job(&self, id: JobId) -> Option<&JobObs> {
        self.jobs
            .binary_search_by(|j| j.id.cmp(&id))
            .ok()
            .map(|i| &self.jobs[i])
    }
}

/// Clairvoyant side channel for centralized / idealized schedulers.
///
/// The paper grants Aalo "information on job … available instantaneously
/// to the centralized controller" and GuritaPlus "the total amount of
/// bytes sent per stage … \[and\] in-flight bytes". Decentralized schemes
/// must ignore this.
pub struct Oracle<'a> {
    pub(crate) jobs: &'a HashMap<JobId, JobSpec>,
    pub(crate) remaining: &'a dyn Fn(FlowId) -> Option<f64>,
    pub(crate) flow_size: &'a dyn Fn(FlowId) -> Option<f64>,
    /// Panic on any access (see [`Oracle::deny`]).
    pub(crate) deny: bool,
}

impl std::fmt::Debug for Oracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Oracle<'a> {
    /// Assembles an oracle from its parts. The runtime builds one per
    /// decision point; exposed publicly so external schedulers can be
    /// unit-tested against hand-built oracles.
    pub fn new(
        jobs: &'a HashMap<JobId, JobSpec>,
        remaining: &'a dyn Fn(FlowId) -> Option<f64>,
        flow_size: &'a dyn Fn(FlowId) -> Option<f64>,
    ) -> Self {
        Self {
            jobs,
            remaining,
            flow_size,
            deny: false,
        }
    }

    /// An oracle that panics on any access.
    ///
    /// The decentralized control plane hands this to its schedulers: a
    /// scheme that claims to run from local observations but reaches for
    /// clairvoyant state trips the panic immediately instead of silently
    /// cheating. The panic (rather than `None` answers) makes the
    /// information boundary an enforced contract, pinned by
    /// cross-scheduler tests.
    pub fn deny() -> Oracle<'static> {
        static EMPTY_JOBS: OnceLock<HashMap<JobId, JobSpec>> = OnceLock::new();
        fn no_lookup(_: FlowId) -> Option<f64> {
            None
        }
        Oracle {
            jobs: EMPTY_JOBS.get_or_init(HashMap::new),
            remaining: &no_lookup,
            flow_size: &no_lookup,
            deny: true,
        }
    }

    /// Whether this oracle denies all access (see [`Oracle::deny`]).
    pub fn is_denied(&self) -> bool {
        self.deny
    }

    #[track_caller]
    fn check_access(&self) {
        assert!(
            !self.deny,
            "oracle access denied: decentralized schedulers must decide \
             from local observations only"
        );
    }

    /// Full specification of a job (its DAG, coflows, and exact flow
    /// sizes).
    pub fn job_spec(&self, id: JobId) -> Option<&'a JobSpec> {
        self.check_access();
        self.jobs.get(&id)
    }

    /// Exact remaining (in-flight-unsent) bytes of an active flow.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.check_access();
        (self.remaining)(id)
    }

    /// Exact total size of a flow.
    pub fn flow_size(&self, id: FlowId) -> Option<f64> {
        self.check_access();
        (self.flow_size)(id)
    }
}

/// Queue assignment for the active coflows: `assignment[i]` is the queue
/// of `observation.coflows[i]`. Queue 0 is the highest priority.
pub type Assignment = Vec<usize>;

/// How the network serves the scheduler's queues.
#[derive(Debug, Clone, PartialEq)]
pub enum QueuePolicy {
    /// Strict priority queuing.
    Strict,
    /// WRR emulation of SPQ with explicit per-queue weights
    /// (len == number of queues, all positive).
    Weighted(Vec<f64>),
}

/// A coflow scheduler.
///
/// Implementations decide, at every event batch, which priority queue
/// each active coflow's traffic should use. The runtime enforces the
/// paper's TCP-reordering rule for decentralized schedulers: a live
/// flow's priority may be *lowered* immediately, but a raise only applies
/// to flows started afterwards (override
/// [`Scheduler::reprioritizes_live_flows`] to lift this, as the
/// centralized/idealized schemes do).
pub trait Scheduler {
    /// Display name of the scheduler (used in result tables).
    fn name(&self) -> String;

    /// Number of priority queues the scheduler uses. Commodity switches
    /// support 8; the paper's evaluation uses 4.
    fn num_queues(&self) -> usize;

    /// Produces a queue per active coflow.
    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment;

    /// Whether live flows may be re-prioritized in both directions
    /// (centralized / idealized schemes). Defaults to `false`.
    fn reprioritizes_live_flows(&self) -> bool {
        false
    }

    /// The service policy for this scheduler's queues. Defaults to strict
    /// priority. Gurita's starvation mitigation returns
    /// [`QueuePolicy::Weighted`] with waiting-time-derived weights.
    ///
    /// # Contract
    ///
    /// The runtime calls this once per rate recomputation, *after*
    /// [`Scheduler::assign`] for the same decision point — and passes
    /// `Observation::default()`, i.e. an **empty** observation (building
    /// a real one on the hot path would cost `O(flows)` per event).
    /// Implementations MUST NOT read `obs` here: derive weights from
    /// state accumulated during `assign`. Equivalently, the returned
    /// policy must be identical for any two observations between the
    /// same pair of `assign` calls (pinned by a roster-wide test in the
    /// experiments crate).
    fn queue_policy(&mut self, obs: &Observation) -> QueuePolicy {
        let _ = obs;
        QueuePolicy::Strict
    }

    /// Notifies the scheduler that a coflow completed (so it can retire
    /// per-coflow state).
    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        let _ = (coflow, job, now);
    }

    /// Notifies the scheduler that a job completed.
    fn on_job_completed(&mut self, job: JobId, now: f64) {
        let _ = (job, now);
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> String {
        (**self).name()
    }
    fn num_queues(&self) -> usize {
        (**self).num_queues()
    }
    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment {
        (**self).assign(obs, oracle)
    }
    fn reprioritizes_live_flows(&self) -> bool {
        (**self).reprioritizes_live_flows()
    }
    fn queue_policy(&mut self, obs: &Observation) -> QueuePolicy {
        (**self).queue_policy(obs)
    }
    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        (**self).on_coflow_completed(coflow, job, now)
    }
    fn on_job_completed(&mut self, job: JobId, now: f64) {
        (**self).on_job_completed(job, now)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn num_queues(&self) -> usize {
        (**self).num_queues()
    }
    fn assign(&mut self, obs: &Observation, oracle: &Oracle<'_>) -> Assignment {
        (**self).assign(obs, oracle)
    }
    fn reprioritizes_live_flows(&self) -> bool {
        (**self).reprioritizes_live_flows()
    }
    fn queue_policy(&mut self, obs: &Observation) -> QueuePolicy {
        (**self).queue_policy(obs)
    }
    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        (**self).on_coflow_completed(coflow, job, now)
    }
    fn on_job_completed(&mut self, job: JobId, now: f64) {
        (**self).on_job_completed(job, now)
    }
}

/// A trivial scheduler that places every coflow in one queue in FIFO
/// spirit — with a single queue this degenerates to per-flow fair sharing
/// and serves as the simulator's smoke-test scheduler.
#[derive(Debug, Clone)]
pub struct FifoScheduler {
    queues: usize,
}

impl FifoScheduler {
    /// Creates the scheduler with `queues` priority queues (all coflows
    /// are placed in queue 0).
    pub fn new(queues: usize) -> Self {
        assert!(queues >= 1, "at least one queue required");
        Self { queues }
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> String {
        "fifo".to_owned()
    }

    fn num_queues(&self) -> usize {
        self.queues
    }

    fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Assignment {
        vec![0; obs.coflows.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_assigns_queue_zero() {
        let mut s = FifoScheduler::new(4);
        let obs = Observation {
            now: 0.0,
            coflows: vec![
                CoflowObs {
                    id: CoflowId(0),
                    job: JobId(0),
                    dag_vertex: 0,
                    dag_stage: 0,
                    activated_at: 0.0,
                    open_flows: 1,
                    bytes_received: 0.0,
                    max_flow_bytes_received: 0.0,
                    flows: vec![],
                };
                3
            ],
            jobs: vec![],
        };
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        let oracle = Oracle::new(&jobs, &rem, &size);
        assert_eq!(s.assign(&obs, &oracle), vec![0, 0, 0]);
        assert_eq!(s.queue_policy(&obs), QueuePolicy::Strict);
        assert!(!s.reprioritizes_live_flows());
    }

    #[test]
    fn coflow_obs_average() {
        let c = CoflowObs {
            id: CoflowId(0),
            job: JobId(0),
            dag_vertex: 0,
            dag_stage: 0,
            activated_at: 0.0,
            open_flows: 2,
            bytes_received: 10.0,
            max_flow_bytes_received: 8.0,
            flows: vec![
                FlowObs {
                    id: FlowId(0),
                    src: HostId(0),
                    bytes_received: 8.0,
                    open: true,
                },
                FlowObs {
                    id: FlowId(1),
                    src: HostId(1),
                    bytes_received: 2.0,
                    open: true,
                },
            ],
        };
        assert_eq!(c.avg_flow_bytes_received(), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn fifo_requires_a_queue() {
        let _ = FifoScheduler::new(0);
    }

    fn job_obs(id: usize) -> JobObs {
        JobObs {
            id: JobId(id),
            arrival: 0.0,
            completed_coflows: 0,
            completed_stages: 0,
            bytes_received: 0.0,
            completed_bytes: 0.0,
            active_coflows: vec![],
        }
    }

    #[test]
    fn job_lookup_binary_searches_sorted_jobs() {
        let obs = Observation {
            now: 0.0,
            coflows: vec![],
            jobs: vec![job_obs(1), job_obs(4), job_obs(9), job_obs(12)],
        };
        for id in [1, 4, 9, 12] {
            assert_eq!(obs.job(JobId(id)).map(|j| j.id), Some(JobId(id)));
        }
        for id in [0, 2, 8, 13] {
            assert!(obs.job(JobId(id)).is_none());
        }
        assert!(Observation::default().job(JobId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "oracle access denied")]
    fn deny_oracle_panics_on_flow_size() {
        let _ = Oracle::deny().flow_size(FlowId(0));
    }

    #[test]
    #[should_panic(expected = "oracle access denied")]
    fn deny_oracle_panics_on_remaining_bytes() {
        let _ = Oracle::deny().remaining_bytes(FlowId(0));
    }

    #[test]
    #[should_panic(expected = "oracle access denied")]
    fn deny_oracle_panics_on_job_spec() {
        let _ = Oracle::deny().job_spec(JobId(0));
    }

    #[test]
    fn deny_oracle_reports_itself() {
        assert!(Oracle::deny().is_denied());
        let jobs = HashMap::new();
        let rem = |_| None;
        let size = |_| None;
        assert!(!Oracle::new(&jobs, &rem, &size).is_denied());
    }

    #[test]
    fn boxed_and_borrowed_schedulers_forward() {
        let boxed: Box<dyn Scheduler> = Box::new(FifoScheduler::new(4));
        assert_eq!(boxed.name(), "fifo");
        assert_eq!(boxed.num_queues(), 4);
        let mut fifo = FifoScheduler::new(2);
        let borrowed: &mut dyn Scheduler = &mut fifo;
        assert_eq!(Scheduler::name(&borrowed), "fifo");
        assert_eq!(Scheduler::num_queues(&borrowed), 2);
        assert!(!Scheduler::reprioritizes_live_flows(&borrowed));
        let obs = Observation::default();
        assert_eq!(borrowed.queue_policy(&obs), QueuePolicy::Strict);
        borrowed.on_coflow_completed(CoflowId(0), JobId(0), 0.0);
        borrowed.on_job_completed(JobId(0), 0.0);
    }
}
