//! Flow-level discrete-event datacenter network simulator.
//!
//! This crate is the evaluation substrate of the Gurita reproduction: a
//! fluid (flow-level) simulator that, exactly like the paper's own,
//! "accounts for the flow arrival and departure events, rather than packet
//! sending and receiving events \[and\] updates the rate and the remaining
//! volume of each flow when an event occurs".
//!
//! # Components
//!
//! * [`topology`] — datacenter fabrics: the k-pod [`topology::FatTree`]
//!   (with ECMP multipathing) used in the evaluation, and the
//!   [`topology::BigSwitch`] non-blocking abstraction used for analysis;
//! * [`bandwidth`] — weighted max-min ("water-filling") bandwidth
//!   allocation with strict-priority-queue (SPQ) and weighted-round-robin
//!   (WRR) service disciplines;
//! * [`sched`] — the [`sched::Scheduler`] trait through which any coflow
//!   scheduler observes the system (receiver-side observations plus an
//!   explicit oracle side channel for centralized/clairvoyant schemes) and
//!   assigns priorities;
//! * [`control`] — the control-plane layering around one
//!   [`sched::Scheduler`]: [`control::Centralized`] (instantaneous
//!   global view plus the oracle) vs [`control::Decentralized`] (the
//!   same scheduler deciding from what the live sender hosts observe,
//!   under a denying oracle, with priority updates propagated through
//!   the event loop after a configurable latency);
//! * [`runtime`] — the event loop driving jobs through their coflow DAGs;
//! * [`stats`] — per-job/per-coflow completion records;
//! * [`telemetry`] — opt-in instrumentation: lifecycle event tracing,
//!   epoch-sampled queue/link/allocator time series, and a Chrome
//!   `trace_event` (Perfetto) exporter, all guaranteed not to perturb
//!   results.
//!
//! # Example
//!
//! ```
//! use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag, JobSpec, units};
//! use gurita_sim::runtime::{SimConfig, Simulation};
//! use gurita_sim::sched::FifoScheduler;
//! use gurita_sim::topology::FatTree;
//!
//! let fabric = FatTree::new(4)?;
//! let job = JobSpec::new(
//!     0,
//!     0.0,
//!     vec![CoflowSpec::new(vec![FlowSpec::new(
//!         HostId(0),
//!         HostId(8),
//!         10.0 * units::MB,
//!     )])],
//!     JobDag::chain(1)?,
//! )?;
//! let mut sim = Simulation::new(fabric, SimConfig::default());
//! let result = sim.run(vec![job], &mut FifoScheduler::new(1));
//! assert_eq!(result.jobs.len(), 1);
//! assert!(result.jobs[0].jct > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod control;
pub mod faults;
pub mod metrics;
pub use gurita_pool as pool;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod telemetry;
pub mod thresholds;
pub mod topology;

mod error;

pub use error::SimError;
