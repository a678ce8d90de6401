//! Gurita: a decentralized coflow scheduler for multi-stage datacenter
//! jobs (reproduction of Susanto et al., IEEE ICDCS 2019).
//!
//! Gurita minimizes average job completion time (JCT) by scheduling the
//! coflows of multi-stage jobs according to their per-stage **blocking
//! effect** — a job's likelihood to delay the completion of other jobs —
//! instead of the total bytes sent (TBS) that prior schedulers
//! (Varys/Aalo/Baraat/Stream) rank by. The design follows four rules
//! derived from Johnson's classic flow-shop results (see [`rules`]):
//!
//! 1. prioritize job stages with fewer, shorter flows;
//! 2. avoid horizontal (many concurrent flows) and vertical (elephant
//!    flows) blocking;
//! 3. prioritize jobs in their final stage;
//! 4. prioritize coflows on a job's critical path.
//!
//! The crate provides:
//!
//! * [`blocking`] — the blocking-effect formula Ψ = ω·L·W·κ and its
//!   online estimator from receiver-side observations;
//! * [`thresholds`] — the exponentially-spaced Ψ→priority-queue mapping;
//! * [`ava`] — the Average Value Approximation estimator used to flag
//!   probable critical-path coflows without knowing the job structure;
//! * [`starvation`] — SPQ emulation via WRR with waiting-time-derived
//!   weights (Kleinrock priority-queue formulas);
//! * [`scheduler`] — [`scheduler::GuritaScheduler`], the deployable
//!   decentralized scheduler (Least-Blocking-Effect-First, Algorithm 1).
//!   It never reads the oracle, so the same scheduler runs under either
//!   control plane of `gurita_sim::control`: wrapped in `Centralized`,
//!   or as the head and per-host schedulers of `Decentralized`;
//! * [`plus`] — [`plus::GuritaPlus`], the idealized variant with exact
//!   per-stage information ahead of time (the paper's Figure 8 oracle).
//!
//! # Example
//!
//! ```
//! use gurita::scheduler::{GuritaConfig, GuritaScheduler};
//! use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag, JobSpec, units};
//! use gurita_sim::runtime::{SimConfig, Simulation};
//! use gurita_sim::topology::BigSwitch;
//!
//! let job = JobSpec::new(
//!     0,
//!     0.0,
//!     vec![CoflowSpec::new(vec![FlowSpec::new(
//!         HostId(0),
//!         HostId(1),
//!         2.0 * units::MB,
//!     )])],
//!     JobDag::chain(1)?,
//! )?;
//! let mut sim = Simulation::new(BigSwitch::new(4, units::GBPS_10), SimConfig::default());
//! let mut gurita = GuritaScheduler::new(GuritaConfig::default());
//! let result = sim.run(vec![job], &mut gurita);
//! assert_eq!(result.jobs.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ava;
pub mod blocking;
pub mod flowtable;
pub mod hr;
pub mod plus;
pub mod rules;
pub mod scheduler;
pub mod starvation;
pub mod thresholds;
