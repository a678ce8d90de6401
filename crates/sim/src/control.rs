//! Control-plane layering: *who* computes priorities, from *which* view,
//! and *how* decisions reach the hosts.
//!
//! The paper's headline property is that Gurita is decentralized — each
//! sender host works from locally observable per-stage state, with no
//! centralized controller in the loop. This module makes that a
//! first-class, testable axis instead of a docstring claim:
//!
//! ```text
//!                    ┌────────────────────────────┐
//!    event loop ───▶ │        ControlPlane        │ ───▶ priority table
//!   (Observation,    └─────┬────────────────┬─────┘      (CoflowId → queue)
//!    Oracle)               │                │
//!                 ┌────────▼──────┐  ┌──────▼────────────────────────┐
//!                 │  Centralized  │  │         Decentralized         │
//!                 │  (wraps any   │  │  a head `Scheduler` decides   │
//!                 │  `Scheduler`, │  │  from what the live sender    │
//!                 │  global view  │  │  hosts observe, under a       │
//!                 │  plus oracle, │  │  denying oracle; the table    │
//!                 │  instant)     │  │  reaches the hosts after      │
//!                 └───────────────┘  │  `control_latency`, by a      │
//!                                    │  timer fired via `on_timer`   │
//!                                    └───────────────────────────────┘
//! ```
//!
//! Both planes take the same input, the runtime's one [`Observation`]
//! and its [`Oracle`], and drive the same [`Scheduler`] trait: only the
//! coordination differs.
//!
//! # Staleness model
//!
//! The decentralized plane separates *observing* from *acting*:
//!
//! * **Views** — each decision point, the plane narrows the observation
//!   to the flows sent by live hosts ([`crate::sched::FlowObs::src`]),
//!   re-adding every per-coflow and per-job total from zero in id order,
//!   and its head scheduler computes a fresh [`PriorityTable`] from that
//!   view with [`Oracle::deny`]. With no crashed host the view is the
//!   observation itself, less any coflow without flows.
//! * **Decision downlink** — with `control_latency > 0` the fresh table
//!   is *not* applied immediately: the plane holds it under a timer
//!   token and returns `(control_latency, token)` in
//!   [`ControlOutput::timers`]; when the runtime fires the timer,
//!   [`ControlPlane::on_timer`] makes the table current. Until
//!   delivery, hosts keep (re-)applying the **last delivered** table —
//!   i.e. they act on a stale view, the behavior that separates
//!   decentralized schemes from idealized instantaneous ones. Under an
//!   armed [`ControlFaults`] profile the same timer channel carries the
//!   lossy per-host protocol (deliveries, acks, retry checks), and a
//!   host whose table lags too long decides alone, from the view of its
//!   own flows (*local fallback*).
//!
//! Consecutive identical tables are deduplicated (no timer is scheduled
//! when the decision did not change), so the event count stays
//! proportional to actual priority churn.
//!
//! # Adapter guarantees
//!
//! [`Centralized`] is one global [`Observation`] plus the [`Oracle`],
//! one cluster-wide [`Scheduler::assign`], applied instantly.
//! [`Decentralized`] with `control_latency == 0` applies each fresh
//! table immediately and schedules no events, so for a scheme that
//! never reads the oracle it is **result-identical** to the same scheme
//! run centralized: the view's totals replay the observation's
//! additions in the same order, so they are bit-for-bit the same. Both
//! guarantees are pinned by cross-scheduler tests.

use crate::faults::{ControlFaultEvent, ControlFaults, SplitMix64};
use crate::sched::{CoflowObs, FlowObs, JobObs, Observation, Oracle, QueuePolicy, Scheduler};
use crate::stats::ControlResilience;
use crate::telemetry::TraceRecord;
use gurita_model::{CoflowId, HostId, JobId};
use std::collections::{BTreeMap, HashMap};

/// A priority decision: the queue for each listed coflow. Entries for
/// coflows that completed while the table was in flight are skipped at
/// application time; active coflows absent from the table keep their
/// current queue.
pub type PriorityTable = Vec<(CoflowId, usize)>;

/// What the plane wants done after a decision point
/// ([`ControlPlane::decide`]) or a timer ([`ControlPlane::on_timer`]).
/// The runtime applies every part the same way from either call.
#[derive(Debug, Default)]
pub struct ControlOutput {
    /// Queue assignments to apply *now*, cluster-wide (for the
    /// decentralized plane, the last *delivered* table — hosts acting
    /// on their stale view).
    pub assignments: PriorityTable,
    /// Per-sender-host tables, applied only to the flows *sourced at*
    /// each listed host. Populated only by fault-armed decentralized
    /// planes (where hosts may hold diverging tables); empty on every
    /// other path, where `assignments` applies cluster-wide.
    pub host_assignments: Vec<(HostId, PriorityTable)>,
    /// Timers to schedule: `(delay_from_now, token)` pairs. The runtime
    /// turns each into a `ControlTimer` event and routes it back through
    /// [`ControlPlane::on_timer`]. The decentralized plane uses them for
    /// delayed table delivery and, under a fault profile, for its
    /// ack/retry protocol; empty on instantaneous paths.
    pub timers: Vec<(f64, u64)>,
    /// Control-plane trace records; the runtime forwards them to the
    /// telemetry sink when one is armed. Built only on the delayed and
    /// fault paths, so instantaneous runs pay nothing.
    pub trace: Vec<TraceRecord>,
}

/// The coordination layer: turns runtime state into queue assignments.
///
/// Two implementations ship, both around a [`Scheduler`]:
/// [`Centralized`] (global view plus oracle, instant) and
/// [`Decentralized`] (sender-host views, denying oracle, delayed
/// delivery). The runtime drives either through this
/// object-safe interface: it calls [`ControlPlane::decide`] at every
/// decision point and [`ControlPlane::on_timer`] whenever a timer the
/// plane asked for fires, and applies the [`ControlOutput`] of both.
pub trait ControlPlane {
    /// Display name of the scheme (used in result tables).
    fn name(&self) -> String;

    /// Number of priority queues in the scheme's assignments.
    fn num_queues(&self) -> usize;

    /// Whether live flows may be re-prioritized in both directions.
    fn reprioritizes_live_flows(&self) -> bool {
        false
    }

    /// One decision point: from the cluster-wide observation, the
    /// oracle and the configured decision-propagation latency
    /// ([`crate::runtime::SimConfig::control_latency`]), return
    /// assignments to apply now and any timers to schedule (e.g. a
    /// delayed delivery).
    fn decide(&mut self, obs: &Observation, oracle: &Oracle<'_>, latency: f64) -> ControlOutput;

    /// Service policy for the scheme's queues, derived from
    /// `decide`-time state (see [`Scheduler::queue_policy`]'s contract:
    /// the runtime queries this once per rate recomputation with no
    /// observation available).
    fn queue_policy(&mut self) -> QueuePolicy {
        QueuePolicy::Strict
    }

    /// Priority tables computed but not yet delivered to the hosts —
    /// read by telemetry epoch samples, never by scheduling logic.
    /// Default: 0 (centralized planes deliver instantaneously).
    fn pending_updates(&self) -> usize {
        0
    }

    /// Arms a control-fault profile for the run. Default: ignore — the
    /// centralized plane models an in-band controller with no separate
    /// control channel, so control faults do not apply to it (only
    /// [`Decentralized`] implements this).
    fn arm_control_faults(&mut self, faults: &ControlFaults) {
        let _ = faults;
    }

    /// A timer the plane returned in [`ControlOutput::timers`] fired:
    /// run the step registered under `token` (a delayed table's
    /// delivery, or an ack receipt or retry check under a fault
    /// profile) and return what to apply, follow-up timers, and trace
    /// records. A table made current here reaches the flows at the
    /// decision point that follows in the same event. Unknown tokens
    /// are ignored. Default: nothing (the centralized plane never
    /// schedules timers).
    fn on_timer(&mut self, token: u64, now: f64) -> ControlOutput {
        let _ = (token, now);
        ControlOutput::default()
    }

    /// A scheduled [`ControlFaultEvent`] fired (agent crash/restart,
    /// partition edge). Returns trace records describing the
    /// transition. Default: ignore.
    fn control_fault(&mut self, event: &ControlFaultEvent, now: f64) -> Vec<TraceRecord> {
        let _ = (event, now);
        Vec::new()
    }

    /// End-of-run resilience counters, with any still-open degraded
    /// windows closed at `now`. `None` when the plane never armed a
    /// fault profile (the engine then leaves
    /// [`crate::stats::RunResult::control`] at its all-zero default).
    fn resilience(&self, now: f64) -> Option<ControlResilience> {
        let _ = now;
        None
    }

    /// Notifies the plane that a coflow completed.
    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        let _ = (coflow, job, now);
    }

    /// Notifies the plane that a job completed.
    fn on_job_completed(&mut self, job: JobId, now: f64) {
        let _ = (job, now);
    }
}

/// `scheduler`'s queue for each coflow of `obs`, as a table.
fn assign_table<S: Scheduler + ?Sized>(
    scheduler: &mut S,
    obs: &Observation,
    oracle: &Oracle<'_>,
) -> PriorityTable {
    let queues = scheduler.assign(obs, oracle);
    assert_eq!(
        queues.len(),
        obs.coflows.len(),
        "scheduler must assign a queue to every active coflow"
    );
    obs.coflows.iter().map(|c| c.id).zip(queues).collect()
}

/// The sender hosts of the flows in `obs`, ascending and distinct.
fn senders(obs: &Observation) -> Vec<HostId> {
    let mut hosts: Vec<HostId> = obs
        .coflows
        .iter()
        .flat_map(|c| c.flows.iter().map(|f| f.src))
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}

/// What the hosts that pass `keep` observe between them: `obs` narrowed
/// to the flows they send.
///
/// Coflows and their flows keep their ascending id order; a coflow none
/// of whose flows is kept is dropped, and so is a job none of whose
/// coflows is. Each coflow's byte sum, largest flow and open count are
/// re-added from zero over its kept flows, and each job's bytes are its
/// completed bytes plus its kept coflows' bytes, added in coflow order.
/// Those are the additions the runtime's observation builder makes, so
/// a view that keeps every sender carries bit-for-bit the observation's
/// totals.
fn sender_view(obs: &Observation, keep: impl Fn(HostId) -> bool) -> Observation {
    let mut coflows: Vec<CoflowObs> = Vec::new();
    // Observation coflow index → view coflow index.
    let mut kept: Vec<Option<usize>> = Vec::with_capacity(obs.coflows.len());
    for c in &obs.coflows {
        let flows: Vec<FlowObs> = c.flows.iter().filter(|f| keep(f.src)).copied().collect();
        if flows.is_empty() {
            kept.push(None);
            continue;
        }
        let mut bytes = 0.0f64;
        let mut max_flow = 0.0f64;
        let mut open = 0usize;
        for f in &flows {
            bytes += f.bytes_received;
            max_flow = max_flow.max(f.bytes_received);
            open += usize::from(f.open);
        }
        kept.push(Some(coflows.len()));
        coflows.push(CoflowObs {
            id: c.id,
            job: c.job,
            dag_vertex: c.dag_vertex,
            dag_stage: c.dag_stage,
            activated_at: c.activated_at,
            open_flows: open,
            bytes_received: bytes,
            max_flow_bytes_received: max_flow,
            flows,
        });
    }
    let jobs = obs
        .jobs
        .iter()
        .filter_map(|j| {
            let active: Vec<usize> = j.active_coflows.iter().filter_map(|&ci| kept[ci]).collect();
            if active.is_empty() {
                return None;
            }
            let mut bytes = j.completed_bytes;
            for &ci in &active {
                bytes += coflows[ci].bytes_received;
            }
            Some(JobObs {
                id: j.id,
                arrival: j.arrival,
                completed_coflows: j.completed_coflows,
                completed_stages: j.completed_stages,
                bytes_received: bytes,
                completed_bytes: j.completed_bytes,
                active_coflows: active,
            })
        })
        .collect();
    Observation {
        now: obs.now,
        coflows,
        jobs,
    }
}

/// The centralized coordination layer: wraps any [`Scheduler`] — one
/// global observation, one cluster-wide `assign`, applied instantly
/// (the `control_latency` knob does not apply; the paper grants
/// centralized schemes instantaneous information).
pub struct Centralized<S: Scheduler> {
    inner: S,
}

impl<S: Scheduler> Centralized<S> {
    /// Wraps a scheduler. `S` may be a concrete type, `&mut dyn
    /// Scheduler`, or `Box<dyn Scheduler>` (blanket impls forward).
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// Borrow the wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap the scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> ControlPlane for Centralized<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn reprioritizes_live_flows(&self) -> bool {
        self.inner.reprioritizes_live_flows()
    }

    fn decide(&mut self, obs: &Observation, oracle: &Oracle<'_>, _latency: f64) -> ControlOutput {
        ControlOutput {
            assignments: assign_table(&mut self.inner, obs, oracle),
            ..ControlOutput::default()
        }
    }

    fn queue_policy(&mut self) -> QueuePolicy {
        // Per the `Scheduler::queue_policy` contract the observation is
        // never read, so the empty default stands in for it.
        self.inner.queue_policy(&Observation::default())
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        self.inner.on_coflow_completed(coflow, job, now);
    }

    fn on_job_completed(&mut self, job: JobId, now: f64) {
        self.inner.on_job_completed(job, now);
    }
}

/// Per-host delivery channel state under a fault profile: what the host
/// has applied, when, and whether its agent is alive.
#[derive(Debug, Clone, Default)]
struct HostChannel {
    /// Highest sequence number the host has applied, `None` before the
    /// first successful delivery (and after a restart).
    applied_seq: Option<u64>,
    /// Time the applied table last matched the coordinator's latest
    /// decision (refreshed each unpartitioned decision point while the
    /// host is current — staleness measures lag behind the newest
    /// decision, not table age).
    applied_at: f64,
    /// The host's applied table; what it schedules on while not
    /// degraded.
    table: PriorityTable,
    /// Highest sequence number ever transmitted toward this host; the
    /// coordinator sends once per (host, seq) and lets retries redrive.
    sent_seq: u64,
    /// The host's agent is down: no reports, deliveries lost, frozen
    /// table.
    crashed: bool,
    /// Start of the host's open degraded (local-fallback) window.
    degraded_since: Option<f64>,
}

impl HostChannel {
    fn new(now: f64) -> Self {
        Self {
            applied_at: now,
            ..Self::default()
        }
    }
}

/// An in-flight control step, keyed by timer token.
#[derive(Debug, Clone)]
enum TimerPayload {
    /// A delayed table decided at `issued` reaches every host at once
    /// (the zero-fault path with `control_latency > 0`).
    Update { table: PriorityTable, issued: f64 },
    /// A table transmission arrives at `host`.
    Deliver {
        host: usize,
        seq: u64,
        table: PriorityTable,
    },
    /// The host's ack for `seq` arrives back at the coordinator.
    Ack { host: usize, seq: u64 },
    /// Ack-timeout check for transmission number `attempt` of `seq`.
    Retry { host: usize, seq: u64, attempt: u32 },
}

/// The plane's in-flight timers: one token space shared by delayed
/// deliveries and the fault protocol.
#[derive(Debug, Default)]
struct Timers {
    /// Timer token → pending step.
    payloads: HashMap<u64, TimerPayload>,
    next_token: u64,
}

impl Timers {
    fn mint_token(&mut self, payload: TimerPayload) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.payloads.insert(token, payload);
        token
    }
}

/// The armed control-fault machinery of a [`Decentralized`] plane.
/// Present only when a non-null [`ControlFaults`] profile was armed;
/// its absence keeps the legacy decide path untouched (the zero-fault
/// bit-for-bit guarantee).
struct FaultState {
    profile: ControlFaults,
    rng: SplitMix64,
    /// Host index → channel state, ordered for deterministic iteration.
    channels: BTreeMap<usize, HostChannel>,
    /// Sequence number of the newest decision.
    latest_seq: u64,
    /// The newest decided table (what retransmissions carry).
    latest_table: PriorityTable,
    /// Coordinator currently partitioned away.
    partitioned: bool,
    /// Channel one-way latency, captured from the decide input.
    latency: f64,
    /// Host index → highest acked sequence number.
    acked: HashMap<usize, u64>,
    resilience: ControlResilience,
}

impl FaultState {
    fn new(profile: ControlFaults) -> Self {
        Self {
            rng: SplitMix64::new(profile.seed),
            profile,
            channels: BTreeMap::new(),
            latest_seq: 0,
            latest_table: PriorityTable::new(),
            partitioned: false,
            latency: 0.0,
            acked: HashMap::new(),
            resilience: ControlResilience::default(),
        }
    }

    /// One transmission of `latest_table` toward `host` through the
    /// lossy channel: rolls drop/reorder/duplicate, schedules the
    /// delivery timer(s) that survive, and always schedules the
    /// ack-timeout check for this attempt with capped exponential
    /// backoff.
    fn transmit(
        &mut self,
        timers: &mut Timers,
        host: usize,
        seq: u64,
        attempt: u32,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.resilience.messages_sent += 1;
        let dropped = self.rng.next_f64() < self.profile.drop_prob;
        let reordered = self.rng.next_f64() < self.profile.reorder_prob;
        let duplicated = self.rng.next_f64() < self.profile.duplicate_prob;
        if dropped {
            self.resilience.messages_dropped += 1;
            out.trace
                .push(TraceRecord::ControlDropped { t: now, host, seq });
        } else {
            let delay = self.latency
                + if reordered {
                    self.profile.reorder_delay
                } else {
                    0.0
                };
            let table = self.latest_table.clone();
            let token = timers.mint_token(TimerPayload::Deliver { host, seq, table });
            out.timers.push((delay, token));
        }
        if duplicated {
            self.resilience.messages_duplicated += 1;
            let table = self.latest_table.clone();
            let token = timers.mint_token(TimerPayload::Deliver { host, seq, table });
            out.timers.push((self.latency, token));
        }
        let backoff = (self.profile.ack_timeout * self.profile.backoff_factor.powi(attempt as i32))
            .min(self.profile.max_backoff);
        let token = timers.mint_token(TimerPayload::Retry { host, seq, attempt });
        out.timers.push((backoff, token));
    }
}

/// The decentralized coordination layer: a designated *head*
/// [`Scheduler`] holding the scheme's decision state (mirroring the
/// paper's head-receiver role), plus one instance of the same scheme per
/// sender host for local fallback. Every scheduler decides under
/// [`Oracle::deny`]. See the [module docs](crate::control) for the
/// staleness model.
pub struct Decentralized {
    head: Box<dyn Scheduler>,
    factory: Box<dyn FnMut() -> Box<dyn Scheduler>>,
    /// One scheduler per sender host, minted on first sight; each
    /// decides only for its own host, in local fallback.
    agents: HashMap<HostId, Box<dyn Scheduler>>,
    /// The last table delivered to (and therefore acted on by) hosts.
    current: PriorityTable,
    /// The last table computed and either applied (zero latency) or
    /// sent for delayed delivery — used to dedup unchanged decisions.
    last_emitted: PriorityTable,
    /// In-flight timers: delayed deliveries and, when armed, the fault
    /// protocol's steps.
    timers: Timers,
    /// Armed control-fault machinery; `None` on the legacy path.
    faults: Option<FaultState>,
}

impl std::fmt::Debug for Decentralized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Decentralized")
            .field("head", &self.head.name())
            .field("agents", &self.agents.len())
            .field("pending", &self.pending_updates())
            .finish_non_exhaustive()
    }
}

impl Decentralized {
    /// Creates the plane from a scheduler factory. One scheduler is
    /// minted per sender host on first sight; one more (the first)
    /// becomes the head. All of them are the same scheme (the factory is
    /// the single source).
    pub fn new<F>(mut factory: F) -> Self
    where
        F: FnMut() -> Box<dyn Scheduler> + 'static,
    {
        let head = factory();
        Self {
            head,
            factory: Box::new(factory),
            agents: HashMap::new(),
            current: PriorityTable::new(),
            last_emitted: PriorityTable::new(),
            timers: Timers::default(),
            faults: None,
        }
    }

    /// Number of distinct sender hosts seen so far (agents minted).
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Tables currently in flight to the hosts: delayed deliveries plus,
    /// when a fault profile is armed, protocol deliveries still on the
    /// wire.
    pub fn pending_updates(&self) -> usize {
        self.timers
            .payloads
            .values()
            .filter(|p| {
                matches!(
                    p,
                    TimerPayload::Update { .. } | TimerPayload::Deliver { .. }
                )
            })
            .count()
    }

    /// The decision point under an armed fault profile: decide from
    /// the live hosts' view (unless partitioned), push the new table
    /// through the lossy ack/retry channel, and emit per-host tables
    /// down the degradation ladder — applied table → frozen table
    /// (crashed agent) → local fallback (staleness bound exceeded).
    /// `hosts` are the sender hosts of `obs`, ascending.
    fn decide_with_faults(
        &mut self,
        obs: &Observation,
        latency: f64,
        hosts: &[HostId],
    ) -> ControlOutput {
        let Self {
            head,
            agents,
            faults,
            timers,
            ..
        } = self;
        let fs = faults
            .as_mut()
            .expect("decide_with_faults requires an armed profile");
        fs.latency = latency;
        let now = obs.now;
        let mut out = ControlOutput::default();
        for h in hosts {
            fs.channels
                .entry(h.index())
                .or_insert_with(|| HostChannel::new(now));
        }

        if !fs.partitioned {
            // The head sees nothing of a crashed host's flows.
            let channels = &fs.channels;
            let live = sender_view(obs, |src| !channels[&src.index()].crashed);
            let table = assign_table(head.as_mut(), &live, &Oracle::deny());
            if table != fs.latest_table || fs.latest_seq == 0 {
                fs.latest_seq += 1;
                fs.latest_table = table;
            }
            let latest = fs.latest_seq;
            // Transmit to every live sender host that has not yet
            // been sent the newest table (covers fresh decisions and
            // newly-seen hosts catching up), and refresh the staleness
            // clock of hosts already current: staleness measures lag
            // behind the latest decision, so an unchanged table must
            // not age into spurious degradation.
            for h in hosts {
                let h = h.index();
                let ch = fs.channels.get_mut(&h).expect("channel minted above");
                if ch.crashed {
                    continue;
                }
                let needs_send = ch.sent_seq < latest;
                if needs_send {
                    ch.sent_seq = latest;
                }
                if ch.applied_seq == Some(latest) {
                    ch.applied_at = now;
                }
                if needs_send {
                    fs.transmit(timers, h, latest, 0, now, &mut out);
                }
            }
        }

        // Output pass: one table per present host, down the ladder.
        for &host in hosts {
            let h = host.index();
            let ch = fs.channels.get_mut(&h).expect("channel minted above");
            if ch.crashed {
                // Frozen: the crashed agent *is* the local scheduler,
                // so the host keeps its last-applied table.
                out.host_assignments.push((HostId(h), ch.table.clone()));
                continue;
            }
            let staleness = now - ch.applied_at;
            if staleness > fs.resilience.max_table_staleness {
                fs.resilience.max_table_staleness = staleness;
            }
            if staleness > fs.profile.staleness_bound {
                if ch.degraded_since.is_none() {
                    ch.degraded_since = Some(now);
                    fs.resilience.degraded_entries += 1;
                }
                // Local fallback: the host's own scheduler decides from
                // its own flows alone — the scheme run per host.
                let own = sender_view(obs, |src| src == host);
                let agent = agents.get_mut(&host).expect("agent minted on sight");
                let table = assign_table(agent.as_mut(), &own, &Oracle::deny());
                out.host_assignments.push((host, table));
            } else {
                if let Some(since) = ch.degraded_since.take() {
                    fs.resilience.degraded_time += now - since;
                    out.trace.push(TraceRecord::ControlDegraded {
                        t: now,
                        host: h,
                        dur: now - since,
                    });
                }
                out.host_assignments.push((HostId(h), ch.table.clone()));
            }
        }
        out
    }
}

impl ControlPlane for Decentralized {
    fn name(&self) -> String {
        format!("{}@local", self.head.name())
    }

    fn num_queues(&self) -> usize {
        self.head.num_queues()
    }

    fn reprioritizes_live_flows(&self) -> bool {
        self.head.reprioritizes_live_flows()
    }

    fn pending_updates(&self) -> usize {
        Decentralized::pending_updates(self)
    }

    fn arm_control_faults(&mut self, faults: &ControlFaults) {
        // A null profile can never perturb the run; leaving the legacy
        // path untouched is what pins the zero-fault bit-for-bit
        // identity (proptested in `tests/tests/control_faults.rs`).
        if !faults.is_null() {
            self.faults = Some(FaultState::new(faults.clone()));
        }
    }

    fn on_timer(&mut self, token: u64, now: f64) -> ControlOutput {
        let mut out = ControlOutput::default();
        let Some(payload) = self.timers.payloads.remove(&token) else {
            return out;
        };
        if let TimerPayload::Update { table, issued } = payload {
            // Every host now acts on this table; the decision point that
            // follows applies it.
            self.current = table;
            out.trace.push(TraceRecord::ControlDelivered {
                t: now,
                token,
                staleness: now - issued,
            });
            return out;
        }
        let fs = self
            .faults
            .as_mut()
            .expect("protocol timers need an armed profile");
        let timers = &mut self.timers;
        match payload {
            TimerPayload::Update { .. } => unreachable!("handled above"),
            TimerPayload::Deliver { host, seq, table } => {
                let ch = fs
                    .channels
                    .entry(host)
                    .or_insert_with(|| HostChannel::new(now));
                if ch.crashed {
                    // Lost on the floor of a dead agent; the restart
                    // resync (sent_seq reset) re-drives delivery.
                } else if ch.applied_seq.is_some_and(|a| a >= seq) {
                    fs.resilience.messages_deduped += 1;
                    out.trace
                        .push(TraceRecord::ControlDeduped { t: now, host, seq });
                } else {
                    ch.applied_seq = Some(seq);
                    ch.applied_at = now;
                    ch.table = table;
                    out.trace
                        .push(TraceRecord::ControlApplied { t: now, host, seq });
                    // The ack rides the same lossy channel back.
                    if fs.rng.next_f64() < fs.profile.drop_prob {
                        fs.resilience.acks_lost += 1;
                    } else {
                        let token = timers.mint_token(TimerPayload::Ack { host, seq });
                        out.timers.push((fs.latency, token));
                    }
                }
            }
            TimerPayload::Ack { host, seq } => {
                if fs.partitioned {
                    // The coordinator is unreachable; the ack is lost
                    // and the retry timer keeps driving.
                    fs.resilience.acks_lost += 1;
                } else {
                    let e = fs.acked.entry(host).or_insert(0);
                    *e = (*e).max(seq);
                }
            }
            TimerPayload::Retry { host, seq, attempt } => {
                let superseded = seq != fs.latest_seq;
                let acked = fs.acked.get(&host).is_some_and(|&a| a >= seq);
                let crashed = fs.channels.get(&host).is_some_and(|c| c.crashed);
                if superseded || acked || crashed {
                    // Nothing to redrive: a newer table took over, the
                    // host confirmed receipt, or the restart resync
                    // will re-send from the decision loop.
                } else if attempt >= fs.profile.max_retries {
                    fs.resilience.retries_abandoned += 1;
                } else {
                    fs.resilience.messages_retried += 1;
                    out.trace.push(TraceRecord::ControlRetransmit {
                        t: now,
                        host,
                        seq,
                        attempt: attempt + 1,
                    });
                    fs.transmit(timers, host, seq, attempt + 1, now, &mut out);
                }
            }
        }
        out
    }

    fn control_fault(&mut self, event: &ControlFaultEvent, now: f64) -> Vec<TraceRecord> {
        let mut trace = Vec::new();
        let Some(fs) = self.faults.as_mut() else {
            return trace;
        };
        match *event {
            ControlFaultEvent::AgentCrash { host } => {
                let h = host.index();
                let ch = fs
                    .channels
                    .entry(h)
                    .or_insert_with(|| HostChannel::new(now));
                ch.crashed = true;
                // A crashed host is frozen, not degraded: close any
                // open fallback window.
                if let Some(since) = ch.degraded_since.take() {
                    fs.resilience.degraded_time += now - since;
                    trace.push(TraceRecord::ControlDegraded {
                        t: now,
                        host: h,
                        dur: now - since,
                    });
                }
                fs.resilience.agent_crashes += 1;
                trace.push(TraceRecord::AgentCrashed { t: now, host: h });
            }
            ControlFaultEvent::AgentRestart { host } => {
                let h = host.index();
                let ch = fs
                    .channels
                    .entry(h)
                    .or_insert_with(|| HostChannel::new(now));
                ch.crashed = false;
                ch.applied_seq = None;
                ch.table = PriorityTable::new();
                ch.applied_at = now;
                ch.sent_seq = 0;
                fs.acked.remove(&h);
                fs.resilience.agent_restarts += 1;
                trace.push(TraceRecord::AgentRestarted { t: now, host: h });
            }
            ControlFaultEvent::PartitionStart => {
                fs.partitioned = true;
                fs.resilience.partitions += 1;
                trace.push(TraceRecord::Partition {
                    t: now,
                    active: true,
                });
            }
            ControlFaultEvent::PartitionEnd => {
                fs.partitioned = false;
                trace.push(TraceRecord::Partition {
                    t: now,
                    active: false,
                });
            }
        }
        trace
    }

    fn resilience(&self, now: f64) -> Option<ControlResilience> {
        let fs = self.faults.as_ref()?;
        let mut res = fs.resilience.clone();
        for ch in fs.channels.values() {
            if let Some(since) = ch.degraded_since {
                res.degraded_time += now - since;
            }
        }
        Some(res)
    }

    fn decide(&mut self, obs: &Observation, _oracle: &Oracle<'_>, latency: f64) -> ControlOutput {
        let hosts = senders(obs);
        for &h in &hosts {
            self.agents.entry(h).or_insert_with(|| (self.factory)());
        }
        if self.faults.is_some() {
            return self.decide_with_faults(obs, latency, &hosts);
        }
        let now = obs.now;
        let all = sender_view(obs, |_| true);
        let table = assign_table(self.head.as_mut(), &all, &Oracle::deny());
        if latency <= 0.0 {
            // Instantaneous delivery: no event traffic, each fresh table
            // acts immediately — result-identical to `Centralized` for
            // schemes that never read the oracle (pinned by tests).
            self.current = table;
            self.last_emitted.clone_from(&self.current);
            return ControlOutput {
                assignments: self.current.clone(),
                ..ControlOutput::default()
            };
        }
        // Hosts keep acting on the last *delivered* table — new flows of
        // known coflows are tagged with the stale priority, exactly what
        // a sender with a lagging view would do.
        let mut out = ControlOutput {
            assignments: self.current.clone(),
            ..ControlOutput::default()
        };
        if table != self.last_emitted {
            self.last_emitted.clone_from(&table);
            let token = self
                .timers
                .mint_token(TimerPayload::Update { table, issued: now });
            out.timers.push((latency, token));
        }
        out
    }

    fn queue_policy(&mut self) -> QueuePolicy {
        self.head.queue_policy(&Observation::default())
    }

    fn on_coflow_completed(&mut self, coflow: CoflowId, job: JobId, now: f64) {
        // Decision state lives in the head; the per-host schedulers only
        // ever decide in local fallback.
        self.head.on_coflow_completed(coflow, job, now);
    }

    fn on_job_completed(&mut self, job: JobId, now: f64) {
        self.head.on_job_completed(job, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::FlowId;

    fn flow(id: usize, src: usize, bytes: f64, open: bool) -> FlowObs {
        FlowObs {
            id: FlowId(id),
            src: HostId(src),
            bytes_received: bytes,
            open,
        }
    }

    fn coflow(id: usize, job: usize, flows: Vec<FlowObs>) -> CoflowObs {
        CoflowObs {
            id: CoflowId(id),
            job: JobId(job),
            dag_vertex: 0,
            dag_stage: 0,
            activated_at: 0.0,
            open_flows: flows.iter().filter(|f| f.open).count(),
            bytes_received: flows.iter().map(|f| f.bytes_received).sum(),
            max_flow_bytes_received: flows.iter().fold(0.0, |m, f| m.max(f.bytes_received)),
            flows,
        }
    }

    /// An observation of `coflows` (ascending ids), with each job's
    /// totals added up the way the runtime adds them.
    fn observation(now: f64, coflows: Vec<CoflowObs>, completed_bytes: f64) -> Observation {
        let mut jobs: Vec<JobObs> = Vec::new();
        for (ci, c) in coflows.iter().enumerate() {
            let j = match jobs.iter().position(|j| j.id == c.job) {
                Some(j) => j,
                None => {
                    jobs.push(JobObs {
                        id: c.job,
                        arrival: 0.0,
                        completed_coflows: 1,
                        completed_stages: 1,
                        bytes_received: completed_bytes,
                        completed_bytes,
                        active_coflows: Vec::new(),
                    });
                    jobs.len() - 1
                }
            };
            jobs[j].bytes_received += c.bytes_received;
            jobs[j].active_coflows.push(ci);
        }
        jobs.sort_unstable_by_key(|j| j.id);
        Observation { now, coflows, jobs }
    }

    #[test]
    fn sender_view_narrows_to_the_kept_hosts_flows() {
        // Coflow 7 is split across hosts 0 and 1; coflow 3 lives only on
        // host 1. Narrowed to host 0, coflow 3 and its job drop out and
        // coflow 7's totals cover host 0's flow alone.
        let obs = observation(
            1.5,
            vec![
                coflow(3, 1, vec![flow(5, 1, 1.0, true), flow(6, 1, 2.0, false)]),
                coflow(7, 2, vec![flow(10, 1, 8.0, true), flow(11, 0, 4.0, true)]),
            ],
            100.0,
        );
        let own = sender_view(&obs, |src| src == HostId(0));
        assert_eq!(own.now, 1.5);
        assert_eq!(own.coflows.len(), 1);
        let c7 = &own.coflows[0];
        assert_eq!(c7.id, CoflowId(7));
        assert_eq!(
            c7.flows.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![FlowId(11)]
        );
        assert_eq!(c7.bytes_received, 4.0);
        assert_eq!(c7.max_flow_bytes_received, 4.0);
        assert_eq!(c7.open_flows, 1);
        assert_eq!(own.jobs.len(), 1);
        assert_eq!(own.jobs[0].id, JobId(2));
        assert_eq!(own.jobs[0].bytes_received, 104.0);
        assert_eq!(own.jobs[0].completed_bytes, 100.0);
        assert_eq!(own.jobs[0].active_coflows, vec![0]);
        assert!(own.job(JobId(2)).is_some());
        assert!(own.job(JobId(1)).is_none());
        // Every sender kept: the observation itself, totals included.
        let all = sender_view(&obs, |_| true);
        assert_eq!(format!("{all:?}"), format!("{obs:?}"));
        assert_eq!(senders(&obs), vec![HostId(0), HostId(1)]);
    }

    #[test]
    fn sender_view_drops_coflows_without_flows() {
        let obs = observation(
            0.0,
            vec![
                coflow(0, 0, vec![]),
                coflow(1, 1, vec![flow(0, 2, 3.0, true)]),
            ],
            0.0,
        );
        let all = sender_view(&obs, |_| true);
        assert_eq!(all.coflows.len(), 1);
        assert_eq!(all.coflows[0].id, CoflowId(1));
        assert_eq!(all.jobs.len(), 1);
        assert_eq!(all.jobs[0].id, JobId(1));
        assert_eq!(all.jobs[0].active_coflows, vec![0]);
    }

    #[test]
    fn plane_takes_the_head_schedulers_identity() {
        let plane = Decentralized::new(|| Box::new(Counting));
        assert_eq!(plane.name(), "counting@local");
        assert_eq!(plane.num_queues(), 2);
        assert!(!plane.reprioritizes_live_flows());
    }

    /// Queue 1 for coflows past 5 bytes, queue 0 otherwise. Reaching
    /// for the oracle would panic: the plane hands out a denying one.
    struct Counting;

    impl Scheduler for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn num_queues(&self) -> usize {
            2
        }
        fn assign(&mut self, obs: &Observation, _oracle: &Oracle<'_>) -> Vec<usize> {
            obs.coflows
                .iter()
                .map(|c| usize::from(c.bytes_received > 5.0))
                .collect()
        }
    }

    /// One decision point at `now` over single-flow coflows `(host,
    /// coflow, bytes)`: coflow `i`'s one flow has id `i` and is sent by
    /// `host`.
    fn decide(
        plane: &mut Decentralized,
        now: f64,
        latency: f64,
        flows: &[(usize, usize, f64)],
    ) -> ControlOutput {
        let coflows = flows
            .iter()
            .map(|&(host, c, bytes)| coflow(c, 0, vec![flow(c, host, bytes, true)]))
            .collect();
        plane.decide(&observation(now, coflows, 0.0), &Oracle::deny(), latency)
    }

    #[test]
    fn zero_latency_applies_fresh_tables_without_events() {
        let mut plane = Decentralized::new(|| Box::new(Counting));
        let out = decide(&mut plane, 0.0, 0.0, &[(0, 0, 1.0), (1, 1, 9.0)]);
        assert_eq!(out.assignments, vec![(CoflowId(0), 0), (CoflowId(1), 1)]);
        assert!(out.timers.is_empty());
        assert_eq!(plane.num_agents(), 2);
        assert_eq!(plane.pending_updates(), 0);
    }

    #[test]
    fn positive_latency_delays_delivery_and_dedups() {
        let mut plane = Decentralized::new(|| Box::new(Counting));
        let decide = |plane: &mut Decentralized, now: f64| decide(plane, now, 0.01, &[(0, 0, 9.0)]);
        // First decision: nothing delivered yet, one delivery timer.
        let out = decide(&mut plane, 0.0);
        assert!(out.assignments.is_empty(), "nothing delivered yet");
        let &[(0.01, token)] = out.timers.as_slice() else {
            panic!("fresh table must schedule one delivery: {:?}", out.timers)
        };
        assert_eq!(plane.pending_updates(), 1);
        // Same decision again: deduplicated, no second timer.
        let out2 = decide(&mut plane, 0.005);
        assert!(out2.timers.is_empty(), "unchanged table re-scheduled");
        // Delivery makes the table current and reports its age; later
        // decisions apply it.
        let fired = plane.on_timer(token, 0.01);
        assert_eq!(plane.pending_updates(), 0);
        assert!(fired.timers.is_empty());
        assert!(
            matches!(fired.trace[..], [TraceRecord::ControlDelivered { t: 0.01, token: d, staleness: 0.01 }] if d == token),
            "{:?}",
            fired.trace
        );
        assert_eq!(decide(&mut plane, 0.02).assignments, vec![(CoflowId(0), 1)]);
        // Unknown (or already fired) tokens are ignored.
        assert!(
            plane.on_timer(999, 0.03).trace.is_empty(),
            "unknown token ignored"
        );
        assert!(plane.on_timer(token, 0.03).trace.is_empty());
        assert_eq!(decide(&mut plane, 0.04).assignments, vec![(CoflowId(0), 1)]);
    }

    fn armed_plane(profile: &ControlFaults) -> Decentralized {
        let mut plane = Decentralized::new(|| Box::new(Counting));
        plane.arm_control_faults(profile);
        plane
    }

    #[test]
    fn arming_a_null_profile_leaves_the_legacy_path() {
        let mut plane = Decentralized::new(|| Box::new(Counting));
        plane.arm_control_faults(&ControlFaults::default());
        assert!(plane.faults.is_none(), "null profile must not arm");
        assert!(plane.resilience(0.0).is_none());
        let out = decide(&mut plane, 0.0, 0.0, &[(0, 0, 9.0)]);
        assert_eq!(out.assignments, vec![(CoflowId(0), 1)]);
        assert!(out.host_assignments.is_empty());
        assert!(out.timers.is_empty());
    }

    #[test]
    fn duplicate_deliveries_are_deduped_by_sequence() {
        let profile = ControlFaults {
            duplicate_prob: 1.0,
            ack_timeout: 1.0,
            max_backoff: 1.0,
            ..ControlFaults::default()
        };
        let mut plane = armed_plane(&profile);
        let out = decide(&mut plane, 0.0, 0.01, &[(0, 0, 9.0)]);
        assert!(
            out.assignments.is_empty(),
            "fault path bypasses the uniform table"
        );
        // Original + duplicate delivery at the wire latency, plus the
        // ack-timeout retry check a full second out.
        assert_eq!(out.timers.len(), 3);
        let delivers: Vec<u64> = out
            .timers
            .iter()
            .filter(|&&(d, _)| d < 1.0)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(delivers.len(), 2);
        let fx = plane.on_timer(delivers[0], 0.01);
        assert!(
            fx.trace
                .iter()
                .any(|r| matches!(r, TraceRecord::ControlApplied { .. })),
            "first copy applies"
        );
        assert_eq!(fx.timers.len(), 1, "ack scheduled");
        let fx2 = plane.on_timer(delivers[1], 0.01);
        assert!(
            fx2.trace
                .iter()
                .any(|r| matches!(r, TraceRecord::ControlDeduped { .. })),
            "second copy deduped"
        );
        assert!(fx2.timers.is_empty(), "duplicates do not re-ack");
        let res = plane
            .resilience(0.02)
            .expect("armed plane reports resilience");
        assert_eq!(res.messages_sent, 1);
        assert_eq!(res.messages_duplicated, 1);
        assert_eq!(res.messages_deduped, 1);
        // The applied table lands as a per-host assignment next decision.
        let out2 = decide(&mut plane, 0.02, 0.01, &[(0, 0, 9.0)]);
        assert_eq!(
            out2.host_assignments,
            vec![(HostId(0), vec![(CoflowId(0), 1)])]
        );
    }

    #[test]
    fn retries_back_off_capped_and_abandon() {
        let profile = ControlFaults {
            drop_prob: 1.0,
            ack_timeout: 0.01,
            backoff_factor: 2.0,
            max_backoff: 0.03,
            max_retries: 3,
            ..ControlFaults::default()
        };
        let mut plane = armed_plane(&profile);
        let out = decide(&mut plane, 0.0, 0.0, &[(0, 0, 9.0)]);
        // Everything drops: the only timer is the attempt-0 retry check.
        assert_eq!(out.timers.len(), 1);
        let (mut delay, mut token) = out.timers[0];
        let mut delays = Vec::new();
        let mut now = 0.0;
        loop {
            delays.push(delay);
            now += delay;
            let fx = plane.on_timer(token, now);
            match fx.timers.as_slice() {
                [] => break,
                &[(d, t)] => {
                    delay = d;
                    token = t;
                }
                more => panic!("unexpected timers {more:?}"),
            }
        }
        // Exponential backoff, capped at max_backoff, abandoned after
        // max_retries redrives.
        assert_eq!(delays, vec![0.01, 0.02, 0.03, 0.03]);
        let res = plane.resilience(now).expect("armed");
        assert_eq!(res.messages_sent, 4);
        assert_eq!(res.messages_dropped, 4);
        assert_eq!(res.messages_retried, 3);
        assert_eq!(res.retries_abandoned, 1);
    }

    #[test]
    fn staleness_bound_degrades_to_local_scheduling() {
        let profile = ControlFaults {
            drop_prob: 1.0, // nothing ever lands
            staleness_bound: 0.05,
            ..ControlFaults::default()
        };
        let mut plane = armed_plane(&profile);
        let out = decide(&mut plane, 0.0, 0.01, &[(0, 0, 9.0)]);
        // Within the bound the (empty) applied table holds.
        assert_eq!(out.host_assignments, vec![(HostId(0), vec![])]);
        let out2 = decide(&mut plane, 0.1, 0.01, &[(0, 0, 9.0)]);
        // Past the bound the host's own scheduler decides from its own flows.
        assert_eq!(
            out2.host_assignments,
            vec![(HostId(0), vec![(CoflowId(0), 1)])]
        );
        let res = plane.resilience(0.2).expect("armed");
        assert_eq!(res.degraded_entries, 1);
        assert!(res.max_table_staleness >= 0.1);
        assert!(
            res.degraded_time >= 0.1 - 1e-9,
            "open degraded window accrues up to now: {}",
            res.degraded_time
        );
    }

    #[test]
    fn crash_freezes_table_and_restart_resyncs() {
        // Lossless channel; the (far-future) scheduled crash only makes
        // the profile non-null — the crash under test is injected by
        // hand below.
        let profile = ControlFaults {
            ack_timeout: 1.0,
            max_backoff: 1.0,
            crashes: vec![crate::faults::AgentCrash {
                host: HostId(0),
                at: 1e9,
                restart_after: None,
            }],
            ..ControlFaults::default()
        };
        let mut plane = armed_plane(&profile);
        let views = || [(0, 0, 9.0), (1, 1, 1.0)];
        let out = decide(&mut plane, 0.0, 0.01, &views());
        let delivers: Vec<u64> = out
            .timers
            .iter()
            .filter(|&&(d, _)| d < 1.0)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(delivers.len(), 2, "one delivery per host");
        for t in delivers {
            plane.on_timer(t, 0.01);
        }
        let table = vec![(CoflowId(0), 1), (CoflowId(1), 0)];
        let out1 = decide(&mut plane, 0.02, 0.01, &views());
        assert_eq!(
            out1.host_assignments,
            vec![(HostId(0), table.clone()), (HostId(1), table.clone())]
        );
        // Crash host 0: it stops reporting and keeps its frozen table
        // even as the cluster's decision moves on.
        plane.control_fault(&ControlFaultEvent::AgentCrash { host: HostId(0) }, 0.03);
        let shifted = || [(0, 0, 9.0), (1, 1, 7.0)];
        let out2 = decide(&mut plane, 0.04, 0.01, &shifted());
        assert_eq!(
            out2.host_assignments[0],
            (HostId(0), table.clone()),
            "frozen"
        );
        // Restart resyncs: the next decision re-drives delivery.
        plane.control_fault(&ControlFaultEvent::AgentRestart { host: HostId(0) }, 0.05);
        let out3 = decide(&mut plane, 0.06, 0.01, &shifted());
        assert!(
            out3.timers.iter().any(|&(d, _)| d < 1.0),
            "restarted host is re-sent the latest table"
        );
        let res = plane.resilience(0.06).expect("armed");
        assert_eq!(res.agent_crashes, 1);
        assert_eq!(res.agent_restarts, 1);
    }
}
