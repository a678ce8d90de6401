//! Simulation result records.

use crate::faults::FaultEvent;
use gurita_model::{CoflowId, JobId, SizeCategory};
use serde::{Deserialize, Serialize};

/// Completion record of one coflow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoflowResult {
    /// The coflow's identifier.
    pub id: CoflowId,
    /// The owning job.
    pub job: JobId,
    /// DAG vertex index within the job.
    pub dag_vertex: usize,
    /// Time the coflow was activated (all children completed).
    pub activated_at: f64,
    /// Time the last flow of the coflow completed.
    pub completed_at: f64,
    /// Total bytes the coflow transferred.
    pub bytes: f64,
    /// Total time the coflow spent active at zero aggregate rate (every
    /// open flow parked or rated zero) — the paper's §V starvation
    /// observable. Maintained unconditionally (not gated by telemetry).
    #[serde(default)]
    pub starved_total: f64,
    /// Longest contiguous zero-rate interval while active.
    #[serde(default)]
    pub starved_max: f64,
}

impl CoflowResult {
    /// Coflow completion time (CCT): activation to completion.
    pub fn cct(&self) -> f64 {
        self.completed_at - self.activated_at
    }
}

/// Completion record of one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job's identifier.
    pub id: JobId,
    /// Arrival time.
    pub arrival: f64,
    /// Time the last root coflow completed.
    pub completed_at: f64,
    /// Job completion time (completion − arrival).
    pub jct: f64,
    /// Total bytes the job sent, used for Table 1 categorization.
    pub total_bytes: f64,
    /// Number of stages in the job.
    pub num_stages: usize,
    /// How many of this job's flows were rerouted around failed links.
    #[serde(default)]
    pub fault_reroutes: usize,
    /// How many of this job's flows were parked on failed links (each
    /// later resumed, or the run would not have drained).
    #[serde(default)]
    pub fault_parks: usize,
}

impl JobResult {
    /// The job's Table 1 size category.
    pub fn category(&self) -> SizeCategory {
        SizeCategory::of_bytes(self.total_bytes)
    }
}

/// One fault applied during a run and the engine's reaction to it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Simulation time at which the fault was applied.
    pub at: f64,
    /// The fault that was applied.
    pub event: FaultEvent,
    /// Flows moved to a fresh path when this fault hit (or when its
    /// recovery let a parked flow reroute).
    pub rerouted: usize,
    /// Flows left with no live path by this fault and parked.
    pub parked: usize,
    /// Parked flows that resumed because of this recovery.
    pub resumed: usize,
}

/// Control-plane resilience accounting for one run.
///
/// All counters stay zero unless the run armed a non-null
/// [`crate::faults::ControlFaults`] profile, so healthy results are
/// unchanged and legacy JSON (which lacks the field entirely) parses via
/// `serde(default)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlResilience {
    /// Table deliveries transmitted (first sends and retransmissions).
    pub messages_sent: u64,
    /// Table deliveries lost to the channel's drop probability.
    pub messages_dropped: u64,
    /// Table deliveries the channel duplicated.
    pub messages_duplicated: u64,
    /// Deliveries a host rejected as stale or duplicate by sequence
    /// number.
    pub messages_deduped: u64,
    /// Retransmissions triggered by ack timeouts.
    pub messages_retried: u64,
    /// (host, table) pairs the coordinator gave up on after
    /// `max_retries` retransmissions.
    pub retries_abandoned: u64,
    /// Acks lost in flight (channel drop or coordinator partition).
    pub acks_lost: u64,
    /// Agent crash events applied.
    pub agent_crashes: u64,
    /// Agent restart events applied.
    pub agent_restarts: u64,
    /// Coordinator partition windows entered.
    pub partitions: u64,
    /// Worst lag (seconds) any host's applied table had behind the
    /// coordinator's latest decision.
    pub max_table_staleness: f64,
    /// Total host-seconds spent degraded to local-only scheduling.
    pub degraded_time: f64,
    /// Number of times any host entered the degraded state.
    pub degraded_entries: u64,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    /// Per-job completion records, in completion order.
    pub jobs: Vec<JobResult>,
    /// Per-coflow completion records, in completion order.
    pub coflows: Vec<CoflowResult>,
    /// Simulation time at which the last job completed.
    pub makespan: f64,
    /// Number of events processed (diagnostics).
    pub events: u64,
    /// Timeline of faults applied during the run, with per-fault
    /// reroute/park/resume counts. Empty for healthy runs.
    #[serde(default)]
    pub faults: Vec<FaultRecord>,
    /// Total flow reroutes caused by hard link failures.
    #[serde(default)]
    pub flows_rerouted: usize,
    /// Total flows parked for lack of a live path.
    #[serde(default)]
    pub flows_parked: usize,
    /// Total parked flows resumed by recoveries.
    #[serde(default)]
    pub flows_resumed: usize,
    /// Distinct interned paths in the engine's path arena at end of run
    /// (diagnostics; see `gurita_sim::topology::PathArena`).
    #[serde(default)]
    pub path_arena_unique: usize,
    /// Total path-intern requests served over the run.
    #[serde(default)]
    pub path_arena_interns: u64,
    /// Fraction of intern requests answered from the arena cache
    /// (`1 - unique/interns`); 0 for runs with no interned paths.
    ///
    /// Scale-dependent: on small fabrics repeated host pairs collapse
    /// onto few ECMP routes and the rate is high, while at 48 pods the
    /// per-flow ECMP salt spreads (k/2)² = 576 routes per host pair and
    /// the rate is legitimately ~0 (measured diagnosis in DESIGN.md,
    /// "Scaling to 48 pods"). Prefer `path_arena_storage_bytes` for a
    /// gate metric that tracks arena growth meaningfully at scale.
    #[serde(default)]
    pub path_arena_hit_rate: f64,
    /// Resident bytes of interned path storage at end of run (links
    /// plus spans; see `gurita_sim::topology::PathArena::storage_bytes`).
    #[serde(default)]
    pub path_arena_storage_bytes: usize,
    /// Control-plane resilience counters; all zero unless the run armed
    /// a control-fault profile.
    #[serde(default)]
    pub control: ControlResilience,
    /// Jobs cancelled through the online admission API
    /// (`Engine::cancel_job`); always 0 for offline runs.
    #[serde(default)]
    pub jobs_cancelled: usize,
}

impl RunResult {
    /// Average job completion time across all jobs; 0 for an empty run.
    pub fn avg_jct(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.jobs.iter().map(|j| j.jct).sum::<f64>() / self.jobs.len() as f64
        }
    }

    /// Average coflow completion time across all coflows; 0 if none.
    pub fn avg_cct(&self) -> f64 {
        if self.coflows.is_empty() {
            0.0
        } else {
            self.coflows.iter().map(|c| c.cct()).sum::<f64>() / self.coflows.len() as f64
        }
    }

    /// Average JCT restricted to one size category; `None` when the
    /// category is empty.
    pub fn avg_jct_in(&self, cat: SizeCategory) -> Option<f64> {
        let v: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.category() == cat)
            .map(|j| j.jct)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// The worst single contiguous starvation interval any coflow saw
    /// (seconds at zero aggregate rate while active); 0 for empty runs
    /// and for runs where every coflow always held some rate.
    pub fn max_starvation(&self) -> f64 {
        self.coflows
            .iter()
            .map(|c| c.starved_max)
            .fold(0.0, f64::max)
    }

    /// Total starved time summed over all coflows.
    pub fn total_starvation(&self) -> f64 {
        self.coflows.iter().map(|c| c.starved_total).sum()
    }

    /// The `p`-th percentile of JCT (`0.0 ..= 1.0`); `None` on empty runs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn jct_percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.jobs.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.jobs.iter().map(|j| j.jct).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("JCTs are finite"));
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        Some(v[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::units::MB;

    fn job(id: usize, jct: f64, bytes: f64) -> JobResult {
        JobResult {
            id: JobId(id),
            arrival: 0.0,
            completed_at: jct,
            jct,
            total_bytes: bytes,
            num_stages: 1,
            fault_reroutes: 0,
            fault_parks: 0,
        }
    }

    #[test]
    fn averages() {
        let r = RunResult {
            scheduler: "x".into(),
            jobs: vec![job(0, 2.0, 10.0 * MB), job(1, 4.0, 200.0 * MB)],
            coflows: vec![],
            makespan: 4.0,
            ..RunResult::default()
        };
        assert_eq!(r.avg_jct(), 3.0);
        assert_eq!(r.avg_jct_in(SizeCategory::I), Some(2.0));
        assert_eq!(r.avg_jct_in(SizeCategory::II), Some(4.0));
        assert_eq!(r.avg_jct_in(SizeCategory::VII), None);
    }

    #[test]
    fn empty_run_is_benign() {
        let r = RunResult::default();
        assert_eq!(r.avg_jct(), 0.0);
        assert_eq!(r.avg_cct(), 0.0);
        assert_eq!(r.jct_percentile(0.5), None);
    }

    #[test]
    fn percentiles() {
        let r = RunResult {
            scheduler: "x".into(),
            jobs: (1..=100).map(|i| job(i, i as f64, MB)).collect(),
            coflows: vec![],
            makespan: 100.0,
            ..RunResult::default()
        };
        assert_eq!(r.jct_percentile(0.0), Some(1.0));
        assert_eq!(r.jct_percentile(1.0), Some(100.0));
        let median = r.jct_percentile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median));
    }

    #[test]
    fn cct_is_activation_relative() {
        let c = CoflowResult {
            id: CoflowId(0),
            job: JobId(0),
            dag_vertex: 0,
            activated_at: 3.0,
            completed_at: 7.5,
            bytes: MB,
            starved_total: 0.0,
            starved_max: 0.0,
        };
        assert_eq!(c.cct(), 4.5);
    }

    #[test]
    fn starvation_fields_survive_serde_and_default_when_absent() {
        let c = CoflowResult {
            id: CoflowId(1),
            job: JobId(0),
            dag_vertex: 2,
            activated_at: 1.0,
            completed_at: 9.0,
            bytes: MB,
            starved_total: 3.5,
            starved_max: 2.0,
        };
        let r = RunResult {
            scheduler: "x".into(),
            coflows: vec![c],
            ..RunResult::default()
        };
        let back: RunResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.max_starvation(), 2.0);
        assert_eq!(back.total_starvation(), 3.5);
        // Pre-telemetry coflow records (no starvation fields) still
        // parse: strip the new fields from the serialized form and
        // deserialize what a pre-PR-5 writer would have produced.
        let mut v = r.to_value();
        let serde::Value::Map(fields) = &mut v else {
            panic!("RunResult serializes as an object");
        };
        let (_, coflows) = fields
            .iter_mut()
            .find(|(k, _)| k == "coflows")
            .expect("coflows field");
        let serde::Value::Seq(coflows) = coflows else {
            panic!("coflows serializes as an array");
        };
        for c in coflows {
            let serde::Value::Map(cf) = c else {
                panic!("coflow serializes as an object");
            };
            cf.retain(|(k, _)| k != "starved_total" && k != "starved_max");
        }
        let old: RunResult = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(old.coflows[0].starved_total, 0.0);
        assert_eq!(old.coflows[0].starved_max, 0.0);
        assert_eq!(old.max_starvation(), 0.0);
    }

    #[test]
    fn fault_fields_survive_serde_and_default_when_absent() {
        use crate::topology::LinkId;
        let r = RunResult {
            scheduler: "x".into(),
            faults: vec![FaultRecord {
                at: 1.5,
                event: FaultEvent::FailLink { link: LinkId(2) },
                rerouted: 3,
                parked: 1,
                resumed: 0,
            }],
            flows_rerouted: 3,
            flows_parked: 1,
            ..RunResult::default()
        };
        let back: RunResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        // Pre-fault-model JSON (no fault fields) still deserializes, as
        // does the per-link byte report older results carry: unknown
        // keys are ignored.
        let legacy = r#"{"scheduler":"y","jobs":[],"coflows":[],"makespan":0,"events":0,
            "link_bytes":[[3,1000000.0]]}"#;
        let old: RunResult = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.scheduler, "y");
        assert!(old.faults.is_empty());
        assert_eq!(old.flows_parked, 0);
    }

    #[test]
    fn resilience_fields_survive_serde_and_default_when_absent() {
        let r = RunResult {
            scheduler: "x".into(),
            control: ControlResilience {
                messages_sent: 12,
                messages_dropped: 3,
                messages_retried: 2,
                max_table_staleness: 0.25,
                degraded_time: 1.5,
                degraded_entries: 1,
                ..ControlResilience::default()
            },
            ..RunResult::default()
        };
        let back: RunResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        // Results written before the control-fault model (no `control`
        // field) still parse: strip the field and reparse.
        let mut v = r.to_value();
        let serde::Value::Map(fields) = &mut v else {
            panic!("RunResult serializes as an object");
        };
        fields.retain(|(k, _)| k != "control");
        let old: RunResult = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(old.control, ControlResilience::default());
    }
}
