//! Weighted max-min ("water-filling") bandwidth allocation.
//!
//! The simulator is a fluid model: at any instant every active flow
//! transmits at a rate determined by the network's service discipline.
//! Within a priority class, flows share capacity max-min fairly — the
//! standard flow-level approximation of many TCP flows in steady state
//! (the paper: "we implement a rate limiter that behaves like TCP").
//!
//! Two service disciplines are provided:
//!
//! * [`Discipline::StrictPriority`] — strict priority queuing (SPQ), the
//!   built-in commodity-switch feature Gurita and Stream use to enforce
//!   scheduling decisions: all capacity goes to the highest backlogged
//!   priority on each link; lower priorities receive leftovers only.
//! * [`Discipline::WeightedRoundRobin`] — Gurita's starvation mitigation:
//!   SPQ is *emulated* with WRR so that "lower priority traffic transmits
//!   at a much lower rate than higher priority traffic" instead of
//!   starving. On each link, backlogged queue `q` receives a `w_q`
//!   fraction of capacity, shared max-min fairly among its flows
//!   (work-conserving: idle queues' shares are redistributed).
//!
//! The allocator is a progressive water-filling over per-(flow, link)
//! weights with a lazy min-heap of bottleneck candidates. One pass over
//! `F` flows costs `O(F · |path| · log F)` heap work. A reusable
//! [`Allocator`] builds a *dense per-call remap*: every link the demand
//! set touches gets a compact index, and all per-link state (residual
//! capacity, weight sums, WRR counts) lives in arrays sized by the
//! touched-link count, not the fabric. On a 48-pod fat-tree (165,888
//! links) an incremental recompute touches a few hundred links, so the
//! scratch stays cache-resident instead of striding through
//! multi-megabyte fabric-sized arrays; only the remap table itself is
//! fabric-sized, and it is epoch-stamped so no `O(L)` clear happens per
//! call. After warm-up no call allocates. The runtime additionally
//! restricts recomputation to the affected flow↔link component after
//! most events, so per-event cost is `O(C · |path| · log C)` in the
//! component size `C`, not the global flow count (see DESIGN.md, "Hot
//! path & complexity").

use crate::topology::LinkId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A flow's bandwidth demand: the links it traverses and the priority
/// queue it currently transmits in.
#[derive(Debug, Clone)]
pub struct Demand<'a> {
    /// Directed links traversed, in order. An empty path means a
    /// host-local transfer: the allocator reports `f64::INFINITY`.
    pub path: &'a [LinkId],
    /// Priority queue index: 0 is the *highest* priority.
    pub queue: usize,
}

/// Demand accessor used by [`Allocator::allocate_into`].
///
/// Abstracting over the storage lets callers allocate from their own
/// flow tables (as the runtime does, avoiding a per-event `Vec<Demand>`
/// rebuild) while `&[Demand]` keeps working for tests and tools.
pub trait Demands {
    /// Number of demands.
    fn len(&self) -> usize;
    /// Whether there are no demands.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Links traversed by demand `i`, in order.
    fn path(&self, i: usize) -> &[LinkId];
    /// Priority queue of demand `i` (0 = highest).
    fn queue(&self, i: usize) -> usize;
}

impl Demands for [Demand<'_>] {
    fn len(&self) -> usize {
        <[Demand<'_>]>::len(self)
    }
    fn path(&self, i: usize) -> &[LinkId] {
        self[i].path
    }
    fn queue(&self, i: usize) -> usize {
        self[i].queue
    }
}

/// Service discipline applied at every link.
#[derive(Debug, Clone, PartialEq)]
pub enum Discipline {
    /// Strict priority queuing with `num_queues` classes.
    StrictPriority {
        /// Number of priority classes (queue indexes are `0..num_queues`).
        num_queues: usize,
    },
    /// Weighted round robin: queue `q` of every link is served in
    /// proportion to `weights[q]` among the queues with traffic on that
    /// link. Weights must be positive and finite; only their ratios
    /// matter, so they need not sum to one. A demand set whose flows all
    /// sit in one queue is allocated without reading the weights at all
    /// (see [`Allocator::allocate_into`]).
    WeightedRoundRobin {
        /// Per-queue service weights (index 0 = highest priority queue).
        weights: Vec<f64>,
    },
}

impl Discipline {
    /// Number of queues this discipline serves.
    pub fn num_queues(&self) -> usize {
        match self {
            Discipline::StrictPriority { num_queues } => *num_queues,
            Discipline::WeightedRoundRobin { weights } => weights.len(),
        }
    }
}

const EPS: f64 = 1e-12;

/// Heap entry: candidate bottleneck rate for a flow (min-rate first).
///
/// Entries go stale when a link on the flow's path changes; since link
/// shares only ever increase as flows freeze, a stale entry can only
/// *under*estimate the flow's true candidate rate, so the pop-recheck-
/// repush loop in [`waterfill`] is sound.
#[derive(Debug)]
struct Candidate {
    rate: f64,
    flow: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.rate == other.rate
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the min rate on top.
        // Candidate rates are non-negative and never NaN (positive
        // weights times clamped-non-negative shares), so `total_cmp` —
        // a branch-free integer comparison — yields exactly the numeric
        // order `partial_cmp` would. Deliberately NO tie-break on flow
        // index: exact rate ties are pervasive in max-min sharing and an
        // extra compare here costs ~10% of 48-pod serial throughput. The
        // serial-vs-parallel equality contract doesn't need one — both
        // modes issue bit-identical heap operation sequences per
        // component, and a heap is deterministic given its inputs.
        other.rate.total_cmp(&self.rate)
    }
}

/// Reusable water-filling scratch state sized for a fabric with a fixed
/// number of dense link ids.
///
/// Per-link state is *component-local*: each [`Allocator::allocate_into`]
/// call remaps the links its demand set touches onto compact indices
/// `0..T` and works in `T`-sized arrays, so the hot scratch fits in
/// cache even when the fabric has hundreds of thousands of links. Only
/// the remap table is fabric-sized, cleared lazily via epoch stamps.
///
/// Construct one per fabric with [`Allocator::new`] and call
/// [`Allocator::allocate_into`] repeatedly: after warm-up no call
/// allocates. The one-shot [`allocate`] helper wraps a temporary
/// instance for convenience.
#[derive(Debug)]
pub struct Allocator {
    num_links: usize,
    /// Counter backing both the per-call and per-pass epochs; restarts
    /// at 1, with every stamp array zeroed, before it would wrap.
    epoch: u32,
    call_epoch: u32,
    /// Global link id → dense per-call index, valid iff the stamp equals
    /// the current call epoch.
    remap: Vec<u32>,
    remap_epoch: Vec<u32>,
    /// Dense residual capacities, one per touched link; initialized from
    /// `capacity` when a link is first remapped and persisting across the
    /// priority passes of one call.
    resid: Vec<f64>,
    /// Dense per-pass weight sums (stamped with the pass epoch).
    sum_w: Vec<f64>,
    sumw_epoch: Vec<u32>,
    /// Cached per-link fair shares `resid / sum_w`, refreshed when a
    /// freeze changes a link; valid for links stamped in the current
    /// pass.
    share: Vec<f64>,
    /// Links first touched in the current pass (dense indices; scratch).
    pass_links: Vec<u32>,
    /// Demand paths translated to dense link indices: demand `i` owns
    /// `dense_paths[spans[i].0 .. spans[i].0 + spans[i].1]`.
    dense_paths: Vec<u32>,
    spans: Vec<(u32, u32)>,
    queues: Vec<u32>,
    /// WRR per-(queue, dense link) backlogged-flow counts, laid out as
    /// `queue * touched + link`. Kept all-zero between calls; only the
    /// slots in `used_slots` are written and re-zeroed, so a call costs
    /// O(slots actually backlogged), not O(queues × touched links).
    counts: Vec<f64>,
    used_slots: Vec<usize>,
    idx: Vec<u32>,
    heap: BinaryHeap<Candidate>,
    /// A demand is frozen in the current pass iff its stamp equals the
    /// pass epoch.
    frozen_epoch: Vec<u32>,
}

impl Allocator {
    /// Creates scratch state for link ids in `0..num_links`.
    pub fn new(num_links: usize) -> Self {
        Self {
            num_links,
            epoch: 0,
            call_epoch: 0,
            remap: vec![0; num_links],
            remap_epoch: vec![0; num_links],
            resid: Vec::new(),
            sum_w: Vec::new(),
            sumw_epoch: Vec::new(),
            share: Vec::new(),
            pass_links: Vec::new(),
            dense_paths: Vec::new(),
            spans: Vec::new(),
            queues: Vec::new(),
            counts: Vec::new(),
            used_slots: Vec::new(),
            idx: Vec::new(),
            heap: BinaryHeap::new(),
            frozen_epoch: Vec::new(),
        }
    }

    /// Number of dense link ids this allocator is sized for.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Distinct links touched by the most recent
    /// [`Allocator::allocate_into`] call — the width of its dense remap.
    /// Free to read (the dense residual array retains that length
    /// between calls); 0 before the first call. Exposed for telemetry
    /// epoch samples.
    pub fn last_touched_links(&self) -> usize {
        self.resid.len()
    }

    /// Water-filling passes run by the most recent call: one per
    /// non-empty priority queue under SPQ, one total under WRR. Derived
    /// from the pass-epoch counter the allocator keeps anyway, so
    /// reading it costs nothing. 0 before the first call.
    pub fn last_waterfill_passes(&self) -> u64 {
        u64::from(self.epoch - self.call_epoch)
    }

    /// Computes per-demand rates into `rates` (one slot per demand, in
    /// order) under `discipline`, where link `l` has capacity
    /// `capacity(l)` bytes per second. Demands with an empty path get
    /// `f64::INFINITY` (they complete instantly in the fluid model).
    ///
    /// A demand set whose flows all sit in one queue is allocated with a
    /// single unit-weight waterfill under either discipline. Under WRR
    /// the per-(flow, link) weights `w_q / n_{q,l}` of such a set cancel
    /// from every candidate rate in exact arithmetic, so this is the same
    /// max-min allocation; computing it without the weights also makes
    /// its bits independent of them, which lets the engine keep a
    /// one-queue component's rates when only the weights change. Under
    /// SPQ it is exactly the pass the per-queue loop would run.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != demands.len()`, if a demand's queue
    /// index is `>= discipline.num_queues()`, if a path link's index is
    /// `>= self.num_links()`, or if a WRR weight is not positive and
    /// finite.
    pub fn allocate_into<D: Demands + ?Sized>(
        &mut self,
        demands: &D,
        capacity: impl Fn(LinkId) -> f64,
        discipline: &Discipline,
        rates: &mut [f64],
    ) {
        let n = demands.len();
        assert_eq!(rates.len(), n, "one rate slot per demand required");
        let nq = discipline.num_queues();
        rates.fill(f64::INFINITY);
        // A call takes one epoch plus at most one per queue.
        if u64::from(self.epoch) + nq as u64 + 1 > u64::from(u32::MAX) {
            self.remap_epoch.fill(0);
            self.sumw_epoch.fill(0);
            self.frozen_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.call_epoch = self.epoch;
        if self.frozen_epoch.len() < n {
            self.frozen_epoch.resize(n, 0);
        }
        // Dense remap: assign compact indices to the links this demand
        // set actually touches and translate every path once up front
        // (validation is folded into this single traversal). Residual
        // capacity is seeded at first touch and persists across the
        // priority passes below.
        self.resid.clear();
        self.dense_paths.clear();
        self.spans.clear();
        self.queues.clear();
        let mut one_queue = true;
        for i in 0..n {
            let q = demands.queue(i);
            assert!(q < nq, "demand queue {q} out of range ({nq} queues)");
            one_queue &= q == demands.queue(0);
            let start = self.dense_paths.len() as u32;
            for l in demands.path(i) {
                let li = l.index();
                assert!(
                    li < self.num_links,
                    "link {} out of range ({} links)",
                    li,
                    self.num_links
                );
                if self.remap_epoch[li] != self.call_epoch {
                    self.remap[li] = self.resid.len() as u32;
                    self.remap_epoch[li] = self.call_epoch;
                    self.resid.push(capacity(*l));
                }
                self.dense_paths.push(self.remap[li]);
            }
            self.spans
                .push((start, self.dense_paths.len() as u32 - start));
            self.queues.push(q as u32);
        }
        let touched = self.resid.len();
        if self.sum_w.len() < touched {
            self.sum_w.resize(touched, 0.0);
            self.sumw_epoch.resize(touched, 0);
            self.share.resize(touched, 0.0);
        }
        let Self {
            epoch,
            resid,
            sum_w,
            sumw_epoch,
            share,
            pass_links,
            dense_paths,
            spans,
            queues,
            counts,
            used_slots,
            idx,
            heap,
            frozen_epoch,
            ..
        } = self;
        let weights = match discipline {
            Discipline::WeightedRoundRobin { weights } => {
                for &w in weights {
                    assert!(w.is_finite() && w > 0.0, "WRR weights must be positive");
                }
                // The weights cancel in a one-queue set; leave them out.
                Some(weights).filter(|_| !one_queue)
            }
            Discipline::StrictPriority { .. } => None,
        };
        match weights {
            // Strict priority, or one queue under either discipline: one
            // unit-weight waterfill per non-empty queue, highest first,
            // each on the capacity the queues above it left over.
            None => {
                let classes = match queues.first() {
                    Some(&q) if one_queue => q as usize..q as usize + 1,
                    _ => 0..nq,
                };
                for q in classes {
                    idx.clear();
                    idx.extend(
                        (0..n)
                            .filter(|&i| queues[i] as usize == q && spans[i].1 > 0)
                            .map(|i| i as u32),
                    );
                    if !idx.is_empty() {
                        *epoch += 1;
                        waterfill(
                            spans,
                            dense_paths,
                            idx,
                            |_, _| 1.0,
                            *epoch,
                            resid,
                            sum_w,
                            sumw_epoch,
                            share,
                            pass_links,
                            heap,
                            frozen_epoch,
                            rates,
                        );
                    }
                }
            }
            Some(weights) => {
                // Per-link, per-queue flow counts to derive per-(flow,
                // link) weights w_q / n_{q,l}: each backlogged queue
                // receives its w_q share of the link, split max-min
                // among its flows.
                let slots = weights.len() * touched;
                if counts.len() < slots {
                    counts.resize(slots, 0.0);
                }
                used_slots.clear();
                for i in 0..n {
                    let (s, len) = spans[i];
                    let q = queues[i] as usize;
                    for &dli in &dense_paths[s as usize..(s + len) as usize] {
                        let slot = q * touched + dli as usize;
                        if counts[slot] == 0.0 {
                            used_slots.push(slot);
                        }
                        counts[slot] += 1.0;
                    }
                }
                // Turn the counts into the per-(queue, link) weights
                // w_q / n_{q,l} in place: the waterfill evaluates weights
                // many times per link, so dividing once here replaces a
                // division per evaluation with a load (same operands,
                // bit-identical result).
                for &slot in used_slots.iter() {
                    counts[slot] = weights[slot / touched] / counts[slot];
                }
                idx.clear();
                idx.extend((0..n).filter(|&i| spans[i].1 > 0).map(|i| i as u32));
                if !idx.is_empty() {
                    *epoch += 1;
                    let counts_ro = &*counts;
                    let queues = &*queues;
                    waterfill(
                        spans,
                        dense_paths,
                        idx,
                        |i: usize, li: usize| counts_ro[queues[i] as usize * touched + li],
                        *epoch,
                        resid,
                        sum_w,
                        sumw_epoch,
                        share,
                        pass_links,
                        heap,
                        frozen_epoch,
                        rates,
                    );
                }
                // Restore the all-zero invariant for the next call.
                for &slot in used_slots.iter() {
                    counts[slot] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
impl Allocator {
    /// The epoch counter, so a test can run across its wrap.
    pub(crate) fn epoch_mut(&mut self) -> &mut u32 {
        &mut self.epoch
    }
}

/// Computes per-flow rates for `demands` under `discipline`, where link
/// `l` has capacity `capacity(l)` bytes per second.
///
/// One-shot convenience wrapper over [`Allocator::allocate_into`] that
/// sizes a temporary allocator from the largest link index present.
/// Returns one rate per demand, in order. Flows with an empty path get
/// `f64::INFINITY` (they complete instantly in the fluid model).
///
/// # Panics
///
/// Panics if a demand's queue index is `>= discipline.num_queues()`, or
/// if a WRR weight is not positive and finite.
pub fn allocate(
    demands: &[Demand<'_>],
    capacity: impl Fn(LinkId) -> f64,
    discipline: &Discipline,
) -> Vec<f64> {
    let num_links = demands
        .iter()
        .flat_map(|d| d.path.iter())
        .map(|l| l.index() + 1)
        .max()
        .unwrap_or(0);
    let mut alloc = Allocator::new(num_links);
    let mut rates = vec![f64::INFINITY; demands.len()];
    alloc.allocate_into(demands, capacity, discipline, &mut rates);
    rates
}

/// One weighted water-filling pass over the demand subset `idx`,
/// against dense per-call link state (`resid`/`sum_w` are indexed by the
/// remapped link ids stored in `dense_paths`).
///
/// `resid` carries residual link capacities across passes (SPQ calls
/// this once per priority class; [`Allocator::allocate_into`] seeds each
/// touched link from `capacity` when remapping). Frozen flows'
/// consumption is subtracted from every link on their paths.
///
/// The freeze criterion is flow-centric: a flow's candidate rate is
/// `min over its links of w(f, l) * share(l)`, and the globally minimal
/// candidate freezes first. This is the correct generalization of
/// progressive filling when weights differ per (flow, link), as they do
/// under WRR: freezing by minimal *link share* can overcommit a link
/// where the flow carries a smaller weight. With per-flow candidate
/// freezing, `rate_f <= w(f, l) * share(l)` holds on every link of the
/// flow's path at freeze time, so shares are non-decreasing and no link
/// is ever oversubscribed.
#[allow(clippy::too_many_arguments)]
fn waterfill(
    spans: &[(u32, u32)],
    dense_paths: &[u32],
    idx: &[u32],
    weight: impl Fn(usize, usize) -> f64,
    pass_epoch: u32,
    resid: &mut [f64],
    sum_w: &mut [f64],
    sumw_epoch: &mut [u32],
    share: &mut [f64],
    pass_links: &mut Vec<u32>,
    heap: &mut BinaryHeap<Candidate>,
    frozen_epoch: &mut [u32],
    rates: &mut [f64],
) {
    let path = |f: usize| {
        let (s, len) = spans[f];
        &dense_paths[s as usize..(s + len) as usize]
    };
    pass_links.clear();
    for &fi in idx {
        let f = fi as usize;
        for &dli in path(f) {
            let li = dli as usize;
            if sumw_epoch[li] != pass_epoch {
                sum_w[li] = 0.0;
                sumw_epoch[li] = pass_epoch;
                pass_links.push(dli);
            }
            sum_w[li] += weight(f, li);
        }
    }
    // Cache each touched link's fair share. Candidate evaluation is the
    // hot loop (many evaluations per link), so replacing the division
    // with a load pays; the cache is refreshed whenever a freeze changes
    // a link, keeping every read bit-identical to computing on the fly.
    for &dli in pass_links.iter() {
        let li = dli as usize;
        share[li] = link_share(resid[li], sum_w[li]);
    }
    let candidate_rate = |share: &[f64], f: usize| -> f64 {
        path(f)
            .iter()
            .map(|&dli| weight(f, dli as usize) * share[dli as usize])
            .fold(f64::INFINITY, f64::min)
    };
    // Rebuild the heap by heapify (as `collect` would) into the retained
    // buffer so candidate ordering is reproducible and allocation-free.
    let mut buf = std::mem::take(heap).into_vec();
    buf.clear();
    buf.extend(idx.iter().map(|&fi| Candidate {
        rate: candidate_rate(share, fi as usize),
        flow: fi,
    }));
    *heap = BinaryHeap::from(buf);
    while let Some(cand) = heap.pop() {
        let f = cand.flow as usize;
        if frozen_epoch[f] == pass_epoch {
            continue;
        }
        // Link shares only grow, so a stale entry underestimates. If the
        // fresh value is no longer the minimum, re-queue it. When the
        // heap is empty this candidate is the last unfrozen flow and the
        // freshly recomputed value *is* its final rate — the flow always
        // freezes at `fresh`, never at the stale entry value.
        //
        // The EPS slack makes freeze *order* depend on which flows share
        // the call: at an exact tie, an unrelated flow's presence can
        // flip which side of the slack a comparison lands on. That is
        // why the engine gives every allocation the same canonical
        // shape — one `allocate_into` call per connected flow↔link
        // component, full passes included — so the demand set (and
        // hence every freeze decision) is identical no matter how a
        // recompute was triggered or scheduled.
        let fresh = candidate_rate(share, f);
        if let Some(top) = heap.peek() {
            if fresh > top.rate + EPS && fresh > cand.rate + EPS {
                heap.push(Candidate {
                    rate: fresh,
                    flow: cand.flow,
                });
                continue;
            }
        }
        frozen_epoch[f] = pass_epoch;
        let rate = if fresh.is_finite() {
            fresh.max(0.0)
        } else {
            0.0
        };
        rates[f] = rate;
        for &dli in path(f) {
            let li = dli as usize;
            resid[li] = (resid[li] - rate).max(0.0);
            sum_w[li] = (sum_w[li] - weight(f, li)).max(0.0);
            share[li] = link_share(resid[li], sum_w[li]);
        }
    }
}

/// Fair share of one link: residual capacity split over the remaining
/// weight, `INFINITY` when (effectively) no weight remains.
fn link_share(resid: f64, sum_w: f64) -> f64 {
    if sum_w <= EPS {
        f64::INFINITY
    } else {
        (resid / sum_w).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn caps_all(c: f64) -> impl Fn(LinkId) -> f64 {
        move |_| c
    }

    fn spq(n: usize) -> Discipline {
        Discipline::StrictPriority { num_queues: n }
    }

    #[test]
    fn single_link_equal_share() {
        let l = [LinkId(0)];
        let demands = vec![
            Demand { path: &l, queue: 0 },
            Demand { path: &l, queue: 0 },
            Demand { path: &l, queue: 0 },
        ];
        let rates = allocate(&demands, caps_all(9.0), &spq(1));
        for r in &rates {
            assert!((r - 3.0).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn local_flow_gets_infinite_rate() {
        let demands = vec![Demand {
            path: &[],
            queue: 0,
        }];
        let rates = allocate(&demands, caps_all(1.0), &spq(1));
        assert_eq!(rates[0], f64::INFINITY);
    }

    #[test]
    fn bottleneck_and_spillover() {
        // Flow A on links {0, 1}; flow B on {0}; flow C on {1}.
        // Link 0 cap 2, link 1 cap 10.
        let ab = [LinkId(0), LinkId(1)];
        let b = [LinkId(0)];
        let c = [LinkId(1)];
        let demands = vec![
            Demand {
                path: &ab,
                queue: 0,
            },
            Demand { path: &b, queue: 0 },
            Demand { path: &c, queue: 0 },
        ];
        let caps = |l: LinkId| if l.index() == 0 { 2.0 } else { 10.0 };
        let rates = allocate(&demands, caps, &spq(1));
        // Max-min: A and B split link 0 -> 1 each; C takes the rest of link 1 -> 9.
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 1.0).abs() < 1e-9);
        assert!((rates[2] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn last_popped_candidate_rechecks_fresh_rate_when_heap_is_empty() {
        // Flow A on {0} (cap 10), flow B on {0, 1} (link 1 cap 2).
        // B freezes first at 2 (bottlenecked on link 1); A's heap entry
        // (rate 5 = 10/2) is then stale and pops with the heap *empty*.
        // It must freeze at its freshly recomputed rate 8 (= 10 - 2),
        // not the stale candidate value 5.
        let a = [LinkId(0)];
        let b = [LinkId(0), LinkId(1)];
        let demands = vec![Demand { path: &a, queue: 0 }, Demand { path: &b, queue: 0 }];
        let caps = |l: LinkId| if l.index() == 0 { 10.0 } else { 2.0 };
        let rates = allocate(&demands, caps, &spq(1));
        assert!((rates[1] - 2.0).abs() < 1e-9, "B rate {}", rates[1]);
        assert!(
            (rates[0] - 8.0).abs() < 1e-9,
            "last candidate must freeze at its fresh rate, got {}",
            rates[0]
        );
    }

    #[test]
    fn strict_priority_starves_lower_class() {
        let l = [LinkId(0)];
        let demands = vec![Demand { path: &l, queue: 0 }, Demand { path: &l, queue: 1 }];
        let rates = allocate(&demands, caps_all(5.0), &spq(2));
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!(
            rates[1].abs() < 1e-9,
            "lower priority must starve, got {}",
            rates[1]
        );
    }

    #[test]
    fn strict_priority_leftover_flows_down() {
        // High-priority flow bottlenecked elsewhere leaves capacity.
        let high = [LinkId(0), LinkId(1)]; // link 1 cap 1 bottlenecks it
        let low = [LinkId(0)];
        let demands = vec![
            Demand {
                path: &high,
                queue: 0,
            },
            Demand {
                path: &low,
                queue: 1,
            },
        ];
        let caps = |l: LinkId| if l.index() == 1 { 1.0 } else { 4.0 };
        let rates = allocate(&demands, caps, &spq(2));
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wrr_respects_weights() {
        let l = [LinkId(0)];
        let demands = vec![Demand { path: &l, queue: 0 }, Demand { path: &l, queue: 1 }];
        let disc = Discipline::WeightedRoundRobin {
            weights: vec![3.0, 1.0],
        };
        let rates = allocate(&demands, caps_all(8.0), &disc);
        assert!((rates[0] - 6.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wrr_splits_within_queue() {
        let l = [LinkId(0)];
        let demands = vec![
            Demand { path: &l, queue: 0 },
            Demand { path: &l, queue: 0 },
            Demand { path: &l, queue: 1 },
        ];
        let disc = Discipline::WeightedRoundRobin {
            weights: vec![2.0, 2.0],
        };
        let rates = allocate(&demands, caps_all(8.0), &disc);
        // Queue 0 gets 4 split two ways; queue 1 gets 4.
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wrr_is_work_conserving() {
        // Only queue 1 backlogged: it should take the whole link.
        let l = [LinkId(0)];
        let demands = vec![Demand { path: &l, queue: 1 }];
        let disc = Discipline::WeightedRoundRobin {
            weights: vec![9.0, 1.0],
        };
        let rates = allocate(&demands, caps_all(4.0), &disc);
        assert!((rates[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn one_queue_rates_ignore_the_discipline_bitwise() {
        // Every demand in queue 2 (plus one local flow): SPQ and two
        // unrelated WRR weight vectors must agree to the last bit, the
        // property that lets the engine keep a one-queue component's
        // rates when only the weights change.
        let mut state = 777u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let link_ids: Vec<Vec<LinkId>> = (0..30)
            .map(|i| {
                let hops = if i == 0 { 0 } else { 1 + next() % 4 };
                (0..hops).map(|_| LinkId(next() % 12)).collect()
            })
            .collect();
        let demands: Vec<Demand<'_>> = link_ids
            .iter()
            .map(|p| Demand {
                path: p.as_slice(),
                queue: 2,
            })
            .collect();
        let cap = |l: LinkId| 1.0 + (l.index() % 5) as f64 / 3.0;
        let spq_rates = allocate(&demands, cap, &spq(4));
        for weights in [vec![8.0, 4.0, 2.0, 1.0], vec![0.3, 7.0, 1.7, 2.9]] {
            let disc = Discipline::WeightedRoundRobin { weights };
            let wrr_rates = allocate(&demands, cap, &disc);
            for (i, (a, b)) in spq_rates.iter().zip(&wrr_rates).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "demand {i}: {a} vs {b} under {disc:?}"
                );
            }
        }
        assert_eq!(spq_rates[0], f64::INFINITY);
    }

    #[test]
    fn no_link_exceeds_capacity_on_random_meshes() {
        // Deterministic pseudo-random demands over a small link set.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let link_ids: Vec<[LinkId; 3]> = (0..40)
            .map(|_| {
                [
                    LinkId(next() % 10),
                    LinkId(10 + next() % 10),
                    LinkId(20 + next() % 10),
                ]
            })
            .collect();
        let demands: Vec<Demand<'_>> = link_ids
            .iter()
            .map(|p| Demand {
                path: p.as_slice(),
                queue: next() % 3,
            })
            .collect();
        for disc in [
            spq(3),
            Discipline::WeightedRoundRobin {
                weights: vec![4.0, 2.0, 1.0],
            },
        ] {
            let rates = allocate(&demands, caps_all(10.0), &disc);
            let mut usage: HashMap<usize, f64> = HashMap::new();
            for (d, r) in demands.iter().zip(&rates) {
                assert!(r.is_finite() && *r >= 0.0);
                for l in d.path {
                    *usage.entry(l.index()).or_insert(0.0) += r;
                }
            }
            for (&l, &u) in &usage {
                assert!(u <= 10.0 + 1e-6, "link {l} over capacity: {u}");
            }
        }
    }

    #[test]
    fn reused_allocator_matches_fresh_allocation() {
        // One Allocator reused across many different demand sets (and
        // both disciplines) must produce exactly what a from-scratch
        // call computes: the epoch-stamped scratch may never leak state
        // between calls.
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut shared = Allocator::new(30);
        for round in 0..25 {
            let nflows = 1 + next() % 30;
            let link_ids: Vec<Vec<LinkId>> = (0..nflows)
                .map(|_| (0..(1 + next() % 4)).map(|_| LinkId(next() % 30)).collect())
                .collect();
            let demands: Vec<Demand<'_>> = link_ids
                .iter()
                .map(|p| Demand {
                    path: p.as_slice(),
                    queue: next() % 3,
                })
                .collect();
            let disc = if round % 2 == 0 {
                spq(3)
            } else {
                Discipline::WeightedRoundRobin {
                    weights: vec![5.0, 2.0, 1.0],
                }
            };
            let cap = move |l: LinkId| 1.0 + (l.index() % 7) as f64;
            let fresh = allocate(&demands, cap, &disc);
            let mut reused = vec![0.0; demands.len()];
            shared.allocate_into(&demands[..], cap, &disc, &mut reused);
            for (i, (a, b)) in fresh.iter().zip(&reused).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "round {round} flow {i}: fresh {a} vs reused {b}"
                );
            }
        }
    }

    #[test]
    fn epoch_wrap_leaves_rates_unchanged() {
        // An allocator whose epoch counter starts a few steps below
        // `u32::MAX` wraps within a few calls (an SPQ call takes one
        // epoch per non-empty queue on top of its own). Every call on
        // either side of the wrap must match a fresh allocator bitwise.
        let mut state = 4242u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut near_wrap = Allocator::new(30);
        near_wrap.epoch = u32::MAX - 7;
        let mut wrapped = false;
        for round in 0..12 {
            let link_ids: Vec<Vec<LinkId>> = (0..(1 + next() % 20))
                .map(|_| (0..(1 + next() % 4)).map(|_| LinkId(next() % 30)).collect())
                .collect();
            let demands: Vec<Demand<'_>> = link_ids
                .iter()
                .map(|p| Demand {
                    path: p.as_slice(),
                    queue: next() % 3,
                })
                .collect();
            let disc = if round % 2 == 0 {
                spq(3)
            } else {
                Discipline::WeightedRoundRobin {
                    weights: vec![5.0, 2.0, 1.0],
                }
            };
            let cap = move |l: LinkId| 1.0 + (l.index() % 7) as f64;
            let mut fresh = vec![0.0; demands.len()];
            Allocator::new(30).allocate_into(&demands[..], cap, &disc, &mut fresh);
            let mut rates = vec![0.0; demands.len()];
            near_wrap.allocate_into(&demands[..], cap, &disc, &mut rates);
            for (i, (a, b)) in fresh.iter().zip(&rates).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round} flow {i}: {a} vs {b}"
                );
            }
            wrapped |= near_wrap.epoch < 100;
        }
        assert!(wrapped, "the epoch counter never wrapped");
    }

    #[test]
    fn allocation_is_bottleneck_tight() {
        // Max-min property: every flow is saturated at some link.
        let p1 = [LinkId(0), LinkId(1)];
        let p2 = [LinkId(1), LinkId(2)];
        let p3 = [LinkId(2)];
        let demands = vec![
            Demand {
                path: &p1,
                queue: 0,
            },
            Demand {
                path: &p2,
                queue: 0,
            },
            Demand {
                path: &p3,
                queue: 0,
            },
        ];
        let rates = allocate(&demands, caps_all(6.0), &spq(1));
        let mut usage = [0.0f64; 3];
        for (d, r) in demands.iter().zip(&rates) {
            for l in d.path {
                usage[l.index()] += r;
            }
        }
        for (d, r) in demands.iter().zip(&rates) {
            let tight = d.path.iter().any(|l| usage[l.index()] >= 6.0 - 1e-6);
            assert!(tight, "flow with rate {r} not bottlenecked anywhere");
        }
    }

    #[test]
    #[should_panic(expected = "queue")]
    fn rejects_out_of_range_queue() {
        let l = [LinkId(0)];
        let demands = vec![Demand { path: &l, queue: 5 }];
        let _ = allocate(&demands, caps_all(1.0), &spq(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_wrr_weight() {
        let l = [LinkId(0)];
        let demands = [Demand { path: &l, queue: 0 }];
        let disc = Discipline::WeightedRoundRobin { weights: vec![0.0] };
        let _ = allocate(&demands, caps_all(1.0), &disc);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_link_outside_allocator_bounds() {
        let l = [LinkId(7)];
        let demands = [Demand { path: &l, queue: 0 }];
        let mut alloc = Allocator::new(4);
        let mut rates = vec![0.0];
        alloc.allocate_into(&demands[..], caps_all(1.0), &spq(1), &mut rates);
    }

    #[test]
    fn empty_demand_set_is_fine() {
        let rates = allocate(&[], caps_all(1.0), &spq(4));
        assert!(rates.is_empty());
    }
}
