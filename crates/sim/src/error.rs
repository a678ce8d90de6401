//! Simulator error types.

use std::error::Error;
use std::fmt;

/// Error produced when constructing or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Fat-tree pod counts must be even and at least 2.
    InvalidPodCount {
        /// The rejected pod count.
        k: usize,
    },
    /// A flow references a host that does not exist in the fabric.
    UnknownHost {
        /// The out-of-range host index.
        host: usize,
        /// Number of hosts in the fabric.
        num_hosts: usize,
    },
    /// A scheduler requested more priority queues than the fabric's
    /// switches support.
    TooManyQueues {
        /// Queues requested.
        requested: usize,
        /// Queues supported.
        supported: usize,
    },
    /// The event loop exceeded its safety bound without draining all
    /// jobs; indicates a livelock (e.g. total starvation) or a bound set
    /// too low.
    EventBudgetExhausted {
        /// The configured maximum number of events.
        max_events: u64,
    },
    /// A fault schedule entry is invalid: unknown link or host, a
    /// degradation factor outside `(0, 1]`, or a non-finite/negative
    /// injection time.
    InvalidFault {
        /// Human-readable description of the rejected fault.
        reason: String,
    },
    /// Every in-flight flow is parked on failed links and no recovery,
    /// arrival, or further fault is scheduled: the run can never drain.
    /// Reported eagerly instead of spinning the event loop into
    /// [`SimError::EventBudgetExhausted`].
    StrandedFlows {
        /// Number of flows parked when the deadlock was detected.
        parked: usize,
    },
    /// An online submission reused a job id that was already submitted
    /// to the engine (pending, running, completed, or cancelled). Job
    /// ids are permanent within one engine's lifetime.
    DuplicateJob {
        /// The rejected job id index.
        job: usize,
    },
    /// A submitted job carries a value the engine cannot schedule: a
    /// non-finite or negative arrival time, or a flow size that is not
    /// positive and finite. Specs deserialized from the wire bypass the
    /// model constructors' checks, so the engine checks again.
    InvalidJob {
        /// The rejected job id index.
        job: usize,
        /// Human-readable description of the rejected value.
        reason: String,
    },
    /// The simulation configuration carries a value the event loop
    /// cannot run with: a tick interval that is not a finite time `> 0`,
    /// or a control latency that is not a finite time `>= 0`.
    InvalidConfig {
        /// Human-readable description of the rejected setting.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidPodCount { k } => {
                write!(f, "fat-tree pod count must be even and >= 2, got {k}")
            }
            SimError::UnknownHost { host, num_hosts } => {
                write!(f, "host {host} out of range (fabric has {num_hosts} hosts)")
            }
            SimError::TooManyQueues {
                requested,
                supported,
            } => write!(
                f,
                "scheduler requested {requested} priority queues but switches support {supported}"
            ),
            SimError::EventBudgetExhausted { max_events } => {
                write!(
                    f,
                    "event budget of {max_events} events exhausted before all jobs completed"
                )
            }
            SimError::InvalidFault { reason } => {
                write!(f, "invalid fault: {reason}")
            }
            SimError::StrandedFlows { parked } => {
                write!(
                    f,
                    "{parked} flow(s) parked on failed links with no recovery scheduled; run cannot drain"
                )
            }
            SimError::DuplicateJob { job } => {
                write!(f, "job id {job} was already submitted to this engine")
            }
            SimError::InvalidJob { job, reason } => {
                write!(f, "job {job} is invalid: {reason}")
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation config: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::InvalidPodCount { k: 3 }
            .to_string()
            .contains("even"));
        assert!(SimError::UnknownHost {
            host: 9,
            num_hosts: 4
        }
        .to_string()
        .contains("out of range"));
        assert!(SimError::TooManyQueues {
            requested: 10,
            supported: 8
        }
        .to_string()
        .contains("priority queues"));
        assert!(SimError::EventBudgetExhausted { max_events: 5 }
            .to_string()
            .contains("budget"));
        assert!(SimError::InvalidFault {
            reason: "factor 2.0 out of range".into()
        }
        .to_string()
        .contains("factor"));
        assert!(SimError::StrandedFlows { parked: 3 }
            .to_string()
            .contains("parked"));
        assert!(SimError::DuplicateJob { job: 7 }
            .to_string()
            .contains("already submitted"));
        assert!(SimError::InvalidJob {
            job: 2,
            reason: "arrival -1".into()
        }
        .to_string()
        .contains("invalid: arrival"));
        assert!(SimError::InvalidConfig {
            reason: "tick_interval 0".into()
        }
        .to_string()
        .contains("config: tick_interval"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
