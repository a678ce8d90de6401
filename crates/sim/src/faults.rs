//! Fault injection: degraded fabrics and time-scheduled fault events.
//!
//! Datacenter links brown out (lossy optics, unbalanced LAGs, partial
//! switch failures) far more often than they fail cleanly — and real
//! incidents are *dynamic*: capacity sags mid-run, links die, and both
//! recover while jobs are in flight. Two layers model this:
//!
//! * **Static degradation** — [`DegradedFabric`] wraps any [`Fabric`]
//!   and scales selected links' capacities by per-link factors frozen at
//!   construction, for steady-state brown-out experiments.
//! * **Scheduled faults** — a [`FaultSchedule`] of timed [`FaultEvent`]s
//!   delivered through the simulator event loop
//!   ([`crate::runtime::Simulation::try_run`]). The engine
//!   maintains a [`FaultOverlay`] of live capacity factors and dead
//!   links; on a hard [`FaultEvent::FailLink`] it reroutes affected
//!   flows via ECMP re-salting (preserving bytes already delivered) and
//!   parks flows with no surviving path until the matching
//!   [`FaultEvent::RecoverLink`]. [`MutableFabric`] exposes the same
//!   overlay as a standalone [`Fabric`] for tests and tools.
//!
//! Degradations never touch routing (ECMP stays oblivious, exactly like
//! real unequal-capacity incidents); only hard failures do.

use crate::topology::{Fabric, LinkId, PathArena, PathRef};
use crate::SimError;
use gurita_model::HostId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A fabric with per-link capacity degradation factors.
///
/// # Example
///
/// ```
/// use gurita_sim::faults::DegradedFabric;
/// use gurita_sim::topology::{BigSwitch, Fabric, LinkId};
/// let base = BigSwitch::new(4, 100.0);
/// let faulty = DegradedFabric::new(base).with_degraded_link(LinkId(0), 0.25);
/// assert_eq!(faulty.link_capacity(LinkId(0)), 25.0);
/// assert_eq!(faulty.link_capacity(LinkId(1)), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct DegradedFabric<F> {
    inner: F,
    factors: HashMap<usize, f64>,
}

impl<F: Fabric> DegradedFabric<F> {
    /// Wraps a fabric with no degradations.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            factors: HashMap::new(),
        }
    }

    /// Degrades one link to `factor` of its capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1` (a zero-capacity link would stall
    /// every flow routed over it forever; model hard failures with a
    /// [`FaultSchedule`] instead) and the link exists. Use
    /// [`DegradedFabric::try_with_degraded_link`] for a fallible variant.
    pub fn with_degraded_link(self, link: LinkId, factor: f64) -> Self {
        self.try_with_degraded_link(link, factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DegradedFabric::with_degraded_link`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] if `factor` is outside `(0, 1]` or the
    /// link does not exist.
    pub fn try_with_degraded_link(mut self, link: LinkId, factor: f64) -> Result<Self, SimError> {
        validate_factor(factor)?;
        if link.index() >= self.inner.num_links() {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "link {} out of range (fabric has {} links)",
                    link.index(),
                    self.inner.num_links()
                ),
            });
        }
        self.factors.insert(link.index(), factor);
        Ok(self)
    }

    /// Degrades every link of `host`'s up/down pair (NIC brown-out) on
    /// fabrics following the convention that link `h` is host `h`'s
    /// uplink and link `num_hosts + h` its downlink (both provided
    /// fabrics do).
    ///
    /// # Panics
    ///
    /// Panics on an invalid factor or host. Use
    /// [`DegradedFabric::try_with_degraded_host`] for a fallible variant.
    pub fn with_degraded_host(self, host: HostId, factor: f64) -> Self {
        self.try_with_degraded_host(host, factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DegradedFabric::with_degraded_host`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] if `factor` is outside `(0, 1]` or the
    /// host does not exist.
    pub fn try_with_degraded_host(self, host: HostId, factor: f64) -> Result<Self, SimError> {
        let n = self.inner.num_hosts();
        if host.index() >= n {
            return Err(SimError::InvalidFault {
                reason: format!("host {host} out of range (fabric has {n} hosts)"),
            });
        }
        self.try_with_degraded_link(LinkId(host.index()), factor)?
            .try_with_degraded_link(LinkId(n + host.index()), factor)
    }

    /// Number of degraded links.
    pub fn num_degraded(&self) -> usize {
        self.factors.len()
    }

    /// Borrows the wrapped fabric.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: Fabric> Fabric for DegradedFabric<F> {
    fn num_hosts(&self) -> usize {
        self.inner.num_hosts()
    }

    fn num_links(&self) -> usize {
        self.inner.num_links()
    }

    fn link_capacity(&self, l: LinkId) -> f64 {
        let base = self.inner.link_capacity(l);
        match self.factors.get(&l.index()) {
            Some(&f) => base * f,
            None => base,
        }
    }

    fn path(&self, src: HostId, dst: HostId, salt: u64) -> Result<Vec<LinkId>, SimError> {
        self.inner.path(src, dst, salt)
    }

    fn path_ref(
        &self,
        src: HostId,
        dst: HostId,
        salt: u64,
        arena: &mut PathArena,
    ) -> Result<PathRef, SimError> {
        self.inner.path_ref(src, dst, salt, arena)
    }
}

fn validate_factor(factor: f64) -> Result<(), SimError> {
    if factor > 0.0 && factor <= 1.0 {
        Ok(())
    } else {
        Err(SimError::InvalidFault {
            reason: format!("degradation factor must be in (0, 1], got {factor}"),
        })
    }
}

/// One fault, applied instantaneously when its scheduled time is
/// reached.
///
/// Link-level events address a single directed link; host-level events
/// address both links of a host's up/down NIC pair. `Degrade`/`Brownout`
/// scale capacity (soft fault: routing untouched); `Fail` removes the
/// link entirely (hard fault: flows reroute or park).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Scale one link to `factor` of its base capacity.
    DegradeLink {
        /// The affected link.
        link: LinkId,
        /// Remaining fraction of capacity, in `(0, 1]`.
        factor: f64,
    },
    /// Remove any degradation from one link.
    RestoreLink {
        /// The affected link.
        link: LinkId,
    },
    /// Hard-fail one link: capacity drops to zero and flows routed over
    /// it are rerouted (fresh ECMP salts) or parked.
    FailLink {
        /// The affected link.
        link: LinkId,
    },
    /// Bring a hard-failed link back; parked flows resume.
    RecoverLink {
        /// The affected link.
        link: LinkId,
    },
    /// Scale both links of a host's NIC pair to `factor` (brown-out).
    BrownoutHost {
        /// The affected host.
        host: HostId,
        /// Remaining fraction of capacity, in `(0, 1]`.
        factor: f64,
    },
    /// Remove any degradation from a host's NIC pair.
    RestoreHost {
        /// The affected host.
        host: HostId,
    },
    /// Hard-fail both links of a host's NIC pair.
    FailHost {
        /// The affected host.
        host: HostId,
    },
    /// Bring a hard-failed host back; parked flows resume.
    RecoverHost {
        /// The affected host.
        host: HostId,
    },
}

impl FaultEvent {
    /// The directed links this event addresses on a fabric with
    /// `num_hosts` hosts (host events expand to the up/down pair).
    pub fn links(&self, num_hosts: usize) -> Vec<LinkId> {
        match *self {
            FaultEvent::DegradeLink { link, .. }
            | FaultEvent::RestoreLink { link }
            | FaultEvent::FailLink { link }
            | FaultEvent::RecoverLink { link } => vec![link],
            FaultEvent::BrownoutHost { host, .. }
            | FaultEvent::RestoreHost { host }
            | FaultEvent::FailHost { host }
            | FaultEvent::RecoverHost { host } => {
                vec![LinkId(host.index()), LinkId(num_hosts + host.index())]
            }
        }
    }

    /// Whether this event kills links (hard failure).
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            FaultEvent::FailLink { .. } | FaultEvent::FailHost { .. }
        )
    }

    /// Whether this event revives previously hard-failed links.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            FaultEvent::RecoverLink { .. } | FaultEvent::RecoverHost { .. }
        )
    }

    fn validate(&self, fabric: &impl Fabric) -> Result<(), SimError> {
        if let FaultEvent::DegradeLink { factor, .. } | FaultEvent::BrownoutHost { factor, .. } =
            self
        {
            validate_factor(*factor)?;
        }
        match *self {
            FaultEvent::BrownoutHost { host, .. }
            | FaultEvent::RestoreHost { host }
            | FaultEvent::FailHost { host }
            | FaultEvent::RecoverHost { host }
                if host.index() >= fabric.num_hosts() =>
            {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "host {host} out of range (fabric has {} hosts)",
                        fabric.num_hosts()
                    ),
                });
            }
            _ => {}
        }
        for l in self.links(fabric.num_hosts()) {
            if l.index() >= fabric.num_links() {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "link {} out of range (fabric has {} links)",
                        l.index(),
                        fabric.num_links()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A [`FaultEvent`] with its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Simulation time at which the fault applies, in seconds.
    pub at: f64,
    /// The fault.
    pub event: FaultEvent,
}

/// A time-ordered script of faults injected into a run.
///
/// Build one with [`FaultSchedule::push`] (any insertion order; the
/// engine sequences events by time) and pass it to
/// [`crate::runtime::Simulation::try_run`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule (equivalent to a healthy run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `event` at time `at`.
    pub fn push(&mut self, at: f64, event: FaultEvent) -> &mut Self {
        self.events.push(TimedFault { at, event });
        self
    }

    /// The scheduled faults, in insertion order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Builds a schedule from pre-collected events, validating every
    /// entry against `fabric` at construction instead of at run start:
    /// out-of-range host/link ids, bad factors, and non-finite times are
    /// rejected exactly as [`FaultSchedule::validate`] rejects them, and
    /// — unlike `push`, which accepts any insertion order — the
    /// timestamps must additionally be non-decreasing, so a generator
    /// emitting a time-ordered script finds ordering bugs here rather
    /// than as silently resequenced faults mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] describing the first offending entry
    /// or the first backwards timestamp.
    pub fn try_new(events: Vec<TimedFault>, fabric: &impl Fabric) -> Result<Self, SimError> {
        let schedule = Self { events };
        schedule.validate(fabric)?;
        for pair in schedule.events.windows(2) {
            if pair[1].at < pair[0].at {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "fault times must be non-decreasing, got {} after {}",
                        pair[1].at, pair[0].at
                    ),
                });
            }
        }
        Ok(schedule)
    }

    /// Checks every entry against `fabric`: links/hosts must exist,
    /// factors must lie in `(0, 1]`, times must be finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] describing the first offending entry.
    pub fn validate(&self, fabric: &impl Fabric) -> Result<(), SimError> {
        for tf in &self.events {
            if !tf.at.is_finite() || tf.at < 0.0 {
                return Err(SimError::InvalidFault {
                    reason: format!("fault time must be finite and >= 0, got {}", tf.at),
                });
            }
            tf.event.validate(fabric)?;
        }
        Ok(())
    }
}

/// Live capacity state accumulated from applied [`FaultEvent`]s:
/// per-link degradation factors plus the set of hard-failed links.
///
/// The runtime owns one per faulted run; [`MutableFabric`] packages one
/// with a base fabric for standalone use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOverlay {
    factors: HashMap<usize, f64>,
    dead: HashSet<usize>,
}

impl FaultOverlay {
    /// An overlay with no faults applied.
    pub fn new() -> Self {
        Self::default()
    }

    /// Multiplier on the base capacity of link `l`: `0.0` when the link
    /// is hard-failed, its degradation factor when browned out, `1.0`
    /// when healthy. The empty-overlay fast path matters: the engine
    /// queries every touched link on every rate recomputation, and
    /// healthy runs should not pay a hash lookup per query.
    pub fn scale(&self, l: LinkId) -> f64 {
        if self.dead.is_empty() && self.factors.is_empty() {
            return 1.0;
        }
        if self.dead.contains(&l.index()) {
            0.0
        } else {
            self.factors.get(&l.index()).copied().unwrap_or(1.0)
        }
    }

    /// Whether link `l` is hard-failed.
    pub fn is_dead(&self, l: LinkId) -> bool {
        !self.dead.is_empty() && self.dead.contains(&l.index())
    }

    /// Whether any link is hard-failed.
    pub fn has_failures(&self) -> bool {
        !self.dead.is_empty()
    }

    /// Whether `path` crosses a hard-failed link.
    pub fn path_is_dead(&self, path: &[LinkId]) -> bool {
        path.iter().any(|l| self.is_dead(*l))
    }

    /// Number of links currently degraded (browned out, not dead).
    pub fn num_degraded(&self) -> usize {
        self.factors.len()
    }

    /// Number of links currently hard-failed — read by telemetry epoch
    /// samples alongside [`FaultOverlay::num_degraded`].
    pub fn num_dead(&self) -> usize {
        self.dead.len()
    }

    /// Applies `event` (validated elsewhere) on a fabric with
    /// `num_hosts` hosts. Returns exactly which links changed, so the
    /// caller can invalidate only the rates the event actually touched
    /// (the runtime re-waterfills just the affected flow↔link
    /// component).
    pub fn apply(&mut self, event: &FaultEvent, num_hosts: usize) -> FaultImpact {
        let links = event.links(num_hosts);
        let mut impact = FaultImpact::default();
        for l in links {
            match event {
                FaultEvent::DegradeLink { factor, .. }
                | FaultEvent::BrownoutHost { factor, .. } => {
                    if self.factors.insert(l.index(), *factor) != Some(*factor) {
                        impact.rescaled.push(l);
                    }
                }
                FaultEvent::RestoreLink { .. } | FaultEvent::RestoreHost { .. } => {
                    if self.factors.remove(&l.index()).is_some() {
                        impact.rescaled.push(l);
                    }
                }
                FaultEvent::FailLink { .. } | FaultEvent::FailHost { .. } => {
                    if self.dead.insert(l.index()) {
                        impact.newly_dead.push(l);
                    }
                }
                FaultEvent::RecoverLink { .. } | FaultEvent::RecoverHost { .. } => {
                    if self.dead.remove(&l.index()) {
                        impact.revived.push(l);
                    }
                }
            }
        }
        impact
    }
}

/// Exactly which links one applied [`FaultEvent`] changed. Idempotent
/// re-applications (failing a dead link, restoring a healthy one,
/// re-degrading to the same factor) report nothing, so rate
/// invalidation stays proportional to real change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultImpact {
    /// Links that transitioned live → hard-failed.
    pub newly_dead: Vec<LinkId>,
    /// Links that transitioned hard-failed → live.
    pub revived: Vec<LinkId>,
    /// Links whose capacity scale changed without a liveness change
    /// (degradations applied or lifted).
    pub rescaled: Vec<LinkId>,
}

impl FaultImpact {
    /// Whether the event changed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.newly_dead.is_empty() && self.revived.is_empty() && self.rescaled.is_empty()
    }

    /// All changed links, in `newly_dead`, `revived`, `rescaled` order.
    pub fn changed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.newly_dead
            .iter()
            .chain(self.revived.iter())
            .chain(self.rescaled.iter())
            .copied()
    }
}

/// A fabric whose capacities change as faults are applied: a base
/// [`Fabric`] composed with a [`FaultOverlay`].
///
/// Hard-failed links report zero capacity; routing is delegated
/// unchanged (callers decide how to react to dead links, exactly as the
/// runtime does via rerouting/parking).
///
/// # Example
///
/// ```
/// use gurita_sim::faults::{FaultEvent, MutableFabric};
/// use gurita_sim::topology::{BigSwitch, Fabric, LinkId};
/// let mut fab = MutableFabric::new(BigSwitch::new(4, 100.0));
/// fab.apply(&FaultEvent::DegradeLink { link: LinkId(1), factor: 0.5 });
/// assert_eq!(fab.link_capacity(LinkId(1)), 50.0);
/// fab.apply(&FaultEvent::FailLink { link: LinkId(1) });
/// assert_eq!(fab.link_capacity(LinkId(1)), 0.0);
/// fab.apply(&FaultEvent::RecoverLink { link: LinkId(1) });
/// assert_eq!(fab.link_capacity(LinkId(1)), 50.0); // degradation persists
/// ```
#[derive(Debug, Clone)]
pub struct MutableFabric<F> {
    inner: F,
    overlay: FaultOverlay,
}

impl<F: Fabric> MutableFabric<F> {
    /// Wraps a healthy fabric.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            overlay: FaultOverlay::new(),
        }
    }

    /// Applies one fault event, mutating capacities in place. Returns
    /// exactly which links changed as a [`FaultImpact`].
    pub fn apply(&mut self, event: &FaultEvent) -> FaultImpact {
        let n = self.inner.num_hosts();
        self.overlay.apply(event, n)
    }

    /// The live fault state.
    pub fn overlay(&self) -> &FaultOverlay {
        &self.overlay
    }

    /// Borrows the wrapped fabric.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: Fabric> Fabric for MutableFabric<F> {
    fn num_hosts(&self) -> usize {
        self.inner.num_hosts()
    }

    fn num_links(&self) -> usize {
        self.inner.num_links()
    }

    fn link_capacity(&self, l: LinkId) -> f64 {
        self.inner.link_capacity(l) * self.overlay.scale(l)
    }

    fn path(&self, src: HostId, dst: HostId, salt: u64) -> Result<Vec<LinkId>, SimError> {
        self.inner.path(src, dst, salt)
    }

    fn path_ref(
        &self,
        src: HostId,
        dst: HostId,
        salt: u64,
        arena: &mut PathArena,
    ) -> Result<PathRef, SimError> {
        self.inner.path_ref(src, dst, salt, arena)
    }
}

/// Salt for re-route `attempt` of a flow with natural salt `base`:
/// attempt 0 is the flow's own path, later attempts perturb the salt
/// with a splitmix64-style odd multiplier. The sequence is part of the
/// simulator's determinism contract — both re-salt helpers and any A/B
/// representation must walk it identically.
fn resalt(base: u64, attempt: u64) -> u64 {
    if attempt == 0 {
        base
    } else {
        base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// How many fresh salts [`resalt_live_path`] tries after the natural one.
const RESALT_ATTEMPTS: u64 = 32;

/// Looks for an ECMP path between `src` and `dst` avoiding every
/// hard-failed link in `overlay`: the flow's natural salt (`base_salt`)
/// first, then fresh re-salts. Returns `None` when all candidates are
/// dead (e.g. the host's own NIC failed, or the fabric is
/// salt-oblivious). The surviving path is interned into `arena`.
pub fn resalt_live_path<F: Fabric + ?Sized>(
    fabric: &F,
    overlay: &FaultOverlay,
    arena: &mut PathArena,
    base_salt: u64,
    src: HostId,
    dst: HostId,
) -> Result<Option<PathRef>, SimError> {
    for attempt in 0..=RESALT_ATTEMPTS {
        let p = fabric.path_ref(src, dst, resalt(base_salt, attempt), arena)?;
        if !overlay.path_is_dead(arena.get(p)) {
            return Ok(Some(p));
        }
    }
    Ok(None)
}

/// Owned-path variant of [`resalt_live_path`], walking the exact same
/// salt sequence through [`Fabric::path`]. Exists so equivalence tests
/// can pin the two representations against each other.
pub fn resalt_live_path_vec<F: Fabric + ?Sized>(
    fabric: &F,
    overlay: &FaultOverlay,
    base_salt: u64,
    src: HostId,
    dst: HostId,
) -> Result<Option<Vec<LinkId>>, SimError> {
    for attempt in 0..=RESALT_ATTEMPTS {
        let p = fabric.path(src, dst, resalt(base_salt, attempt))?;
        if !overlay.path_is_dead(&p) {
            return Ok(Some(p));
        }
    }
    Ok(None)
}

/// Minimal splitmix64 stream used for the control-fault coin flips.
///
/// Self-contained so the fault model does not depend on the vendored
/// `rand` crate (which the `sim` crate deliberately avoids): same seed →
/// same stream on every platform, which is what makes fault-armed runs
/// replayable. The additive constant is the same odd multiplier the
/// private re-route `resalt` sequence uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A scheduled crash of one host's scheduling agent.
///
/// While crashed the agent neither reports local observations nor
/// applies delivered priority tables; its host keeps scheduling on the
/// last table the agent applied before dying. If `restart_after` is set
/// the agent comes back that many seconds later with empty state (it
/// re-syncs through the ordinary delivery protocol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentCrash {
    /// Host whose agent crashes.
    pub host: HostId,
    /// Crash time (simulation seconds).
    pub at: f64,
    /// Seconds after the crash at which the agent restarts; `None`
    /// means the agent stays down for the rest of the run.
    pub restart_after: Option<f64>,
}

/// A window during which the coordinator is unreachable.
///
/// While partitioned the coordinator neither collects reports nor emits
/// new tables, and acks sent to it are lost; deliveries already in
/// flight toward hosts still land. Hosts ride out the window on their
/// last-applied tables and fall back to local decisions once those
/// tables exceed the staleness bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Window start (simulation seconds).
    pub start: f64,
    /// Window length in seconds; must be positive.
    pub duration: f64,
}

/// One expanded entry of a [`ControlFaults`] timeline — the concrete
/// state transitions the engine replays as events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFaultEvent {
    /// The named host's agent goes down.
    AgentCrash {
        /// Host whose agent crashes.
        host: HostId,
    },
    /// The named host's agent comes back with empty state.
    AgentRestart {
        /// Host whose agent restarts.
        host: HostId,
    },
    /// The coordinator becomes unreachable.
    PartitionStart,
    /// The coordinator becomes reachable again.
    PartitionEnd,
}

/// Control-plane fault profile: lossy coordinator↔host channels plus
/// scheduled agent crashes and coordinator partitions.
///
/// All randomness comes from `seed` through [`SplitMix64`], so the same
/// profile over the same workload replays bit-for-bit. A profile where
/// [`ControlFaults::is_null`] holds arms nothing: the control plane
/// stays on its exact legacy delivery path and results are unchanged.
///
/// Not serializable on purpose: the profile rides inside
/// [`crate::runtime::SimConfig`] (itself non-serde), and the default
/// `staleness_bound` of `f64::INFINITY` has no JSON representation.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlFaults {
    /// Probability that any single control message (table delivery or
    /// ack) is dropped, in `[0, 1]`.
    pub drop_prob: f64,
    /// Probability that a table delivery is duplicated, in `[0, 1]`.
    pub duplicate_prob: f64,
    /// Probability that a table delivery is delayed by `reorder_delay`
    /// (arriving after messages sent later), in `[0, 1]`.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered deliveries, seconds.
    pub reorder_delay: f64,
    /// Seed of the fault coin-flip stream.
    pub seed: u64,
    /// Seconds the coordinator waits for an ack before retransmitting.
    pub ack_timeout: f64,
    /// Multiplier applied to the retry interval after each attempt;
    /// must be ≥ 1.
    pub backoff_factor: f64,
    /// Upper bound on the retry interval, seconds.
    pub max_backoff: f64,
    /// Retransmissions attempted before the coordinator gives up on a
    /// (host, table) pair.
    pub max_retries: u32,
    /// Seconds a host tolerates its applied table lagging the
    /// coordinator's latest decision before falling back to its own
    /// local (`Gurita@local`-style) decision. The default of
    /// `f64::INFINITY` never degrades.
    pub staleness_bound: f64,
    /// Scheduled agent crashes.
    pub crashes: Vec<AgentCrash>,
    /// Scheduled coordinator partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl Default for ControlFaults {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: 0.0,
            seed: 0,
            ack_timeout: 10e-3,
            backoff_factor: 2.0,
            max_backoff: 80e-3,
            max_retries: 5,
            staleness_bound: f64::INFINITY,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }
}

impl ControlFaults {
    /// True when the profile can never perturb a run: all probabilities
    /// zero and no crash or partition scheduled. The control plane
    /// treats a null profile exactly like no profile at all, which is
    /// what pins the zero-fault bit-for-bit identity.
    pub fn is_null(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// Checks the profile against a fabric of `num_hosts` hosts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] naming the first offending field:
    /// probabilities outside `[0, 1]`, non-finite or negative times,
    /// `backoff_factor < 1`, non-positive `ack_timeout`/`max_backoff`/
    /// `staleness_bound`, crash hosts out of range, or non-positive
    /// partition durations.
    pub fn validate(&self, num_hosts: usize) -> Result<(), SimError> {
        let prob = |name: &str, p: f64| -> Result<(), SimError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidFault {
                    reason: format!("{name} must be in [0, 1], got {p}"),
                });
            }
            Ok(())
        };
        prob("drop_prob", self.drop_prob)?;
        prob("duplicate_prob", self.duplicate_prob)?;
        prob("reorder_prob", self.reorder_prob)?;
        if !self.reorder_delay.is_finite() || self.reorder_delay < 0.0 {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "reorder_delay must be finite and >= 0, got {}",
                    self.reorder_delay
                ),
            });
        }
        if !self.ack_timeout.is_finite() || self.ack_timeout <= 0.0 {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "ack_timeout must be finite and > 0, got {}",
                    self.ack_timeout
                ),
            });
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "backoff_factor must be finite and >= 1, got {}",
                    self.backoff_factor
                ),
            });
        }
        if !self.max_backoff.is_finite() || self.max_backoff <= 0.0 {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "max_backoff must be finite and > 0, got {}",
                    self.max_backoff
                ),
            });
        }
        if self.staleness_bound.is_nan() || self.staleness_bound <= 0.0 {
            return Err(SimError::InvalidFault {
                reason: format!(
                    "staleness_bound must be > 0 (infinity allowed), got {}",
                    self.staleness_bound
                ),
            });
        }
        for crash in &self.crashes {
            if crash.host.index() >= num_hosts {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "crash host {} out of range for {num_hosts} hosts",
                        crash.host.index()
                    ),
                });
            }
            if !crash.at.is_finite() || crash.at < 0.0 {
                return Err(SimError::InvalidFault {
                    reason: format!("crash time must be finite and >= 0, got {}", crash.at),
                });
            }
            if let Some(ra) = crash.restart_after {
                if !ra.is_finite() || ra <= 0.0 {
                    return Err(SimError::InvalidFault {
                        reason: format!("restart_after must be finite and > 0, got {ra}"),
                    });
                }
            }
        }
        for window in &self.partitions {
            if !window.start.is_finite() || window.start < 0.0 {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "partition start must be finite and >= 0, got {}",
                        window.start
                    ),
                });
            }
            if !window.duration.is_finite() || window.duration <= 0.0 {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "partition duration must be finite and > 0, got {}",
                        window.duration
                    ),
                });
            }
        }
        Ok(())
    }

    /// Expands crashes and partitions into a time-sorted event list the
    /// engine schedules up front. The sort is stable, so same-time
    /// events replay in declaration order.
    pub fn timeline(&self) -> Vec<(f64, ControlFaultEvent)> {
        let mut events = Vec::new();
        for crash in &self.crashes {
            events.push((crash.at, ControlFaultEvent::AgentCrash { host: crash.host }));
            if let Some(ra) = crash.restart_after {
                events.push((
                    crash.at + ra,
                    ControlFaultEvent::AgentRestart { host: crash.host },
                ));
            }
        }
        for window in &self.partitions {
            events.push((window.start, ControlFaultEvent::PartitionStart));
            events.push((
                window.start + window.duration,
                ControlFaultEvent::PartitionEnd,
            ));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{SimConfig, Simulation};
    use crate::sched::FifoScheduler;
    use crate::topology::BigSwitch;
    use gurita_model::{units::MB, CoflowSpec, FlowSpec, JobDag, JobSpec};

    #[test]
    fn degradation_scales_capacity_only_where_applied() {
        let f = DegradedFabric::new(BigSwitch::new(4, 8.0))
            .with_degraded_link(LinkId(2), 0.5)
            .with_degraded_host(HostId(0), 0.25);
        assert_eq!(f.num_degraded(), 3);
        assert_eq!(f.link_capacity(LinkId(2)), 4.0);
        assert_eq!(f.link_capacity(LinkId(0)), 2.0);
        assert_eq!(f.link_capacity(LinkId(4)), 2.0);
        assert_eq!(f.link_capacity(LinkId(3)), 8.0);
        assert_eq!(f.num_hosts(), 4);
    }

    #[test]
    fn routing_is_unchanged() {
        let base = BigSwitch::new(4, 8.0);
        let f = DegradedFabric::new(base.clone()).with_degraded_link(LinkId(1), 0.1);
        assert_eq!(
            f.path(HostId(1), HostId(3), 9).unwrap(),
            base.path(HostId(1), HostId(3), 9).unwrap()
        );
    }

    #[test]
    fn flows_slow_down_through_degraded_links() {
        let job = JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(0),
                HostId(1),
                4.0 * MB,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap();
        let healthy = {
            let mut sim = Simulation::new(BigSwitch::new(4, MB), SimConfig::default());
            sim.run(vec![job.clone()], &mut FifoScheduler::new(1))
        };
        let degraded = {
            let fabric =
                DegradedFabric::new(BigSwitch::new(4, MB)).with_degraded_host(HostId(1), 0.5);
            let mut sim = Simulation::new(fabric, SimConfig::default());
            sim.run(vec![job], &mut FifoScheduler::new(1))
        };
        assert!((healthy.jobs[0].jct - 4.0).abs() < 1e-6);
        assert!((degraded.jobs[0].jct - 8.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_zero_factor() {
        let _ = DegradedFabric::new(BigSwitch::new(2, 1.0)).with_degraded_link(LinkId(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_link() {
        let _ = DegradedFabric::new(BigSwitch::new(2, 1.0)).with_degraded_link(LinkId(99), 0.5);
    }

    #[test]
    fn try_builders_report_instead_of_panicking() {
        let base = || DegradedFabric::new(BigSwitch::new(2, 1.0));
        let err = base().try_with_degraded_link(LinkId(0), 0.0).unwrap_err();
        assert!(matches!(err, SimError::InvalidFault { .. }), "{err}");
        let err = base().try_with_degraded_link(LinkId(99), 0.5).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        let err = base().try_with_degraded_host(HostId(7), 0.5).unwrap_err();
        assert!(err.to_string().contains("host"));
        let ok = base().try_with_degraded_host(HostId(1), 0.5).unwrap();
        assert_eq!(ok.num_degraded(), 2);
    }

    #[test]
    fn fault_event_links_expand_hosts() {
        let e = FaultEvent::BrownoutHost {
            host: HostId(3),
            factor: 0.5,
        };
        assert_eq!(e.links(8), vec![LinkId(3), LinkId(11)]);
        let e = FaultEvent::FailLink { link: LinkId(5) };
        assert_eq!(e.links(8), vec![LinkId(5)]);
        assert!(e.is_failure() && !e.is_recovery());
        assert!(FaultEvent::RecoverHost { host: HostId(0) }.is_recovery());
    }

    #[test]
    fn schedule_validation_catches_bad_entries() {
        let fab = BigSwitch::new(4, 1.0);
        let mut s = FaultSchedule::new();
        s.push(
            1.0,
            FaultEvent::DegradeLink {
                link: LinkId(0),
                factor: 0.5,
            },
        );
        assert!(s.validate(&fab).is_ok());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());

        let mut bad_factor = FaultSchedule::new();
        bad_factor.push(
            0.0,
            FaultEvent::BrownoutHost {
                host: HostId(0),
                factor: 1.5,
            },
        );
        assert!(matches!(
            bad_factor.validate(&fab),
            Err(SimError::InvalidFault { .. })
        ));

        let mut bad_link = FaultSchedule::new();
        bad_link.push(0.0, FaultEvent::FailLink { link: LinkId(400) });
        assert!(bad_link.validate(&fab).is_err());

        let mut bad_host = FaultSchedule::new();
        bad_host.push(0.0, FaultEvent::RestoreHost { host: HostId(9) });
        assert!(bad_host.validate(&fab).is_err());

        let mut bad_time = FaultSchedule::new();
        bad_time.push(-1.0, FaultEvent::RestoreLink { link: LinkId(0) });
        assert!(bad_time.validate(&fab).is_err());
    }

    #[test]
    fn try_new_rejects_bad_ids_and_backwards_time() {
        let fab = BigSwitch::new(4, 1.0);
        let ok = vec![
            TimedFault {
                at: 1.0,
                event: FaultEvent::FailLink { link: LinkId(0) },
            },
            TimedFault {
                at: 2.0,
                event: FaultEvent::RecoverLink { link: LinkId(0) },
            },
        ];
        assert_eq!(FaultSchedule::try_new(ok.clone(), &fab).unwrap().len(), 2);

        let mut out_of_range = ok.clone();
        out_of_range[1].event = FaultEvent::FailHost { host: HostId(99) };
        assert!(matches!(
            FaultSchedule::try_new(out_of_range, &fab),
            Err(SimError::InvalidFault { .. })
        ));

        let mut backwards = ok;
        backwards[1].at = 0.5;
        let err = FaultSchedule::try_new(backwards, &fab).unwrap_err();
        assert!(
            err.to_string().contains("non-decreasing"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn control_faults_default_is_null_and_valid() {
        let cf = ControlFaults::default();
        assert!(cf.is_null());
        assert!(cf.validate(8).is_ok());
        assert!(cf.timeline().is_empty());
        // Probabilities alone arm the profile.
        let armed = ControlFaults {
            drop_prob: 0.1,
            ..ControlFaults::default()
        };
        assert!(!armed.is_null());
    }

    #[test]
    fn control_faults_validation_catches_bad_fields() {
        let bad = |f: ControlFaults| {
            assert!(
                matches!(f.validate(8), Err(SimError::InvalidFault { .. })),
                "expected rejection of {f:?}"
            );
        };
        bad(ControlFaults {
            drop_prob: 1.5,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            duplicate_prob: -0.1,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            reorder_delay: f64::NAN,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            ack_timeout: 0.0,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            backoff_factor: 0.5,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            max_backoff: -1.0,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            staleness_bound: 0.0,
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            crashes: vec![AgentCrash {
                host: HostId(8),
                at: 0.0,
                restart_after: None,
            }],
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            crashes: vec![AgentCrash {
                host: HostId(0),
                at: 1.0,
                restart_after: Some(0.0),
            }],
            ..ControlFaults::default()
        });
        bad(ControlFaults {
            partitions: vec![PartitionWindow {
                start: 1.0,
                duration: 0.0,
            }],
            ..ControlFaults::default()
        });
        // Infinite staleness bound is the "never degrade" default.
        assert!(ControlFaults::default().validate(8).is_ok());
    }

    #[test]
    fn control_fault_timeline_expands_sorted() {
        let cf = ControlFaults {
            crashes: vec![AgentCrash {
                host: HostId(2),
                at: 3.0,
                restart_after: Some(1.0),
            }],
            partitions: vec![PartitionWindow {
                start: 0.5,
                duration: 3.0,
            }],
            ..ControlFaults::default()
        };
        assert_eq!(
            cf.timeline(),
            vec![
                (0.5, ControlFaultEvent::PartitionStart),
                (3.0, ControlFaultEvent::AgentCrash { host: HostId(2) }),
                (3.5, ControlFaultEvent::PartitionEnd),
                (4.0, ControlFaultEvent::AgentRestart { host: HostId(2) }),
            ]
        );
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn overlay_tracks_death_and_revival() {
        let mut o = FaultOverlay::new();
        let impact = o.apply(&FaultEvent::FailHost { host: HostId(1) }, 4);
        assert_eq!(impact.newly_dead, vec![LinkId(1), LinkId(5)]);
        assert!(o.is_dead(LinkId(1)) && o.is_dead(LinkId(5)));
        assert!(o.has_failures());
        assert_eq!(o.scale(LinkId(1)), 0.0);
        assert!(o.path_is_dead(&[LinkId(0), LinkId(5)]));
        // Double-fail is idempotent.
        let impact = o.apply(&FaultEvent::FailLink { link: LinkId(1) }, 4);
        assert!(impact.is_empty());
        let impact = o.apply(&FaultEvent::RecoverHost { host: HostId(1) }, 4);
        assert_eq!(impact.revived, vec![LinkId(1), LinkId(5)]);
        assert!(!o.has_failures());
        assert_eq!(o.scale(LinkId(1)), 1.0);
    }

    #[test]
    fn overlay_reports_rescaled_links_exactly() {
        let mut o = FaultOverlay::new();
        let degrade = FaultEvent::DegradeLink {
            link: LinkId(2),
            factor: 0.5,
        };
        let impact = o.apply(&degrade, 4);
        assert_eq!(impact.rescaled, vec![LinkId(2)]);
        assert!(impact.newly_dead.is_empty() && impact.revived.is_empty());
        assert_eq!(impact.changed_links().collect::<Vec<_>>(), vec![LinkId(2)]);
        // Re-degrading to the same factor changes nothing.
        assert!(o.apply(&degrade, 4).is_empty());
        // A different factor is a change again.
        let impact = o.apply(
            &FaultEvent::DegradeLink {
                link: LinkId(2),
                factor: 0.25,
            },
            4,
        );
        assert_eq!(impact.rescaled, vec![LinkId(2)]);
        // Restoring an undegraded link reports nothing; restoring the
        // degraded one reports it.
        assert!(o
            .apply(&FaultEvent::RestoreLink { link: LinkId(3) }, 4)
            .is_empty());
        let impact = o.apply(&FaultEvent::RestoreLink { link: LinkId(2) }, 4);
        assert_eq!(impact.rescaled, vec![LinkId(2)]);
        // Host brownout touches the up/down pair.
        let impact = o.apply(
            &FaultEvent::BrownoutHost {
                host: HostId(0),
                factor: 0.75,
            },
            4,
        );
        assert_eq!(impact.rescaled, vec![LinkId(0), LinkId(4)]);
    }

    #[test]
    fn mutable_fabric_layers_degradation_under_failure() {
        let mut fab = MutableFabric::new(BigSwitch::new(4, 100.0));
        fab.apply(&FaultEvent::BrownoutHost {
            host: HostId(0),
            factor: 0.25,
        });
        assert_eq!(fab.link_capacity(LinkId(0)), 25.0);
        fab.apply(&FaultEvent::FailLink { link: LinkId(0) });
        assert_eq!(fab.link_capacity(LinkId(0)), 0.0);
        assert_eq!(fab.link_capacity(LinkId(4)), 25.0);
        fab.apply(&FaultEvent::RecoverLink { link: LinkId(0) });
        assert_eq!(fab.link_capacity(LinkId(0)), 25.0);
        fab.apply(&FaultEvent::RestoreHost { host: HostId(0) });
        assert_eq!(fab.link_capacity(LinkId(0)), 100.0);
        assert_eq!(fab.overlay().num_degraded(), 0);
        assert_eq!(fab.num_hosts(), 4);
        assert_eq!(fab.num_links(), 8);
        assert!(fab
            .path(HostId(0), HostId(1), 3)
            .unwrap()
            .contains(&LinkId(0)));
        assert_eq!(fab.inner().num_hosts(), 4);
    }

    #[test]
    fn schedule_serializes_round_trip() {
        let mut s = FaultSchedule::new();
        s.push(
            0.5,
            FaultEvent::DegradeLink {
                link: LinkId(3),
                factor: 0.25,
            },
        )
        .push(2.0, FaultEvent::FailHost { host: HostId(1) });
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
