//! The scheduler roster used across all experiments.

use gurita::plus::GuritaPlus;
use gurita::rules::{Rule, RuleSet};
use gurita::scheduler::{GuritaConfig, GuritaScheduler};
use gurita_baselines::aalo::{Aalo, AaloConfig};
use gurita_baselines::baraat::{Baraat, BaraatConfig};
use gurita_baselines::pfs::PerFlowFairSharing;
use gurita_baselines::sebf::VarysSebf;
use gurita_baselines::stream::{Stream, StreamConfig};
use gurita_sim::control::{Centralized, ControlPlane, Decentralized};
use gurita_sim::sched::Scheduler;
use serde::{Deserialize, Serialize};

/// A scheduler selectable in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Gurita (decentralized LBEF with starvation mitigation).
    Gurita,
    /// Gurita with plain SPQ (no WRR starvation mitigation) — ablation.
    GuritaSpq,
    /// Gurita without the final-stage rule (ω ≡ 1) — ablation.
    GuritaNoOmega,
    /// Gurita without the κ size adjustment — ablation.
    GuritaNoKappa,
    /// Gurita without the critical-path discount — ablation.
    GuritaNoCriticalPath,
    /// GuritaPlus (exact per-stage in-flight bytes, Figure 8 oracle).
    GuritaPlus,
    /// Per-flow fair sharing (the baseline).
    Pfs,
    /// Baraat FIFO-LM.
    Baraat,
    /// Stream (TBS-based decentralized).
    Stream,
    /// Aalo (centralized D-CLAS with instantaneous global view).
    Aalo,
    /// Varys SEBF (clairvoyant extension baseline).
    VarysSebf,
    /// Gurita under the decentralized control plane (sender-host views,
    /// tables delivered after `control_latency`).
    GuritaLocal,
    /// Aalo under the decentralized control plane — D-CLAS from
    /// observed bytes only, no oracle.
    AaloLocal,
}

impl SchedulerKind {
    /// The paper's Figure 5–7 comparison set, Gurita first.
    pub const PAPER_SET: [SchedulerKind; 5] = [
        SchedulerKind::Gurita,
        SchedulerKind::Baraat,
        SchedulerKind::Pfs,
        SchedulerKind::Stream,
        SchedulerKind::Aalo,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Gurita => "Gurita",
            SchedulerKind::GuritaSpq => "Gurita-SPQ",
            SchedulerKind::GuritaNoOmega => "Gurita-noOmega",
            SchedulerKind::GuritaNoKappa => "Gurita-noKappa",
            SchedulerKind::GuritaNoCriticalPath => "Gurita-noCP",
            SchedulerKind::GuritaPlus => "GuritaPlus",
            SchedulerKind::Pfs => "PFS",
            SchedulerKind::Baraat => "Baraat",
            SchedulerKind::Stream => "Stream",
            SchedulerKind::Aalo => "Aalo",
            SchedulerKind::VarysSebf => "Varys-SEBF",
            SchedulerKind::GuritaLocal => "Gurita@local",
            SchedulerKind::AaloLocal => "Aalo@local",
        }
    }

    /// Whether the kind runs under the decentralized control plane
    /// (sender-host views, denying oracle, staleness-aware propagation).
    pub fn is_decentralized(self) -> bool {
        matches!(self, SchedulerKind::GuritaLocal | SchedulerKind::AaloLocal)
    }

    /// Builds the scheduler with evaluation-tuned parameters: 4 priority
    /// queues for the threshold schemes (the paper's setting), Aalo's
    /// recommended exponential spacing, and a Ψ ladder for Gurita chosen
    /// so its first demotion corresponds to the same 10 MB scale.
    ///
    /// # Panics
    ///
    /// Panics for the `*Local` kinds — they have no cluster-wide
    /// `Scheduler` form; use [`SchedulerKind::build_plane`].
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Gurita => Box::new(GuritaScheduler::new(gurita_config())),
            SchedulerKind::GuritaSpq => Box::new(GuritaScheduler::new(GuritaConfig {
                starvation_mitigation: false,
                ..gurita_config()
            })),
            SchedulerKind::GuritaNoOmega => {
                Box::new(GuritaScheduler::new(ablated(Rule::FinalStageFirst)))
            }
            SchedulerKind::GuritaNoKappa => {
                Box::new(GuritaScheduler::new(ablated(Rule::SmallStagesFirst)))
            }
            SchedulerKind::GuritaNoCriticalPath => {
                Box::new(GuritaScheduler::new(ablated(Rule::CriticalPathFirst)))
            }
            SchedulerKind::GuritaPlus => Box::new(GuritaPlus::new(gurita_config())),
            SchedulerKind::Pfs => Box::new(PerFlowFairSharing::new()),
            SchedulerKind::Baraat => Box::new(Baraat::new(BaraatConfig::default())),
            SchedulerKind::Stream => Box::new(Stream::new(StreamConfig::default())),
            SchedulerKind::Aalo => Box::new(Aalo::new(AaloConfig::default())),
            SchedulerKind::VarysSebf => Box::new(VarysSebf::new(8)),
            SchedulerKind::GuritaLocal | SchedulerKind::AaloLocal => panic!(
                "{} is a decentralized scheme: use build_plane()",
                self.label()
            ),
        }
    }

    /// Builds the control plane for this kind: the `*Local` kinds get a
    /// [`Decentralized`] plane around their centralized twin's scheduler
    /// (same evaluation-tuned parameters); everything else is wrapped in
    /// the [`Centralized`] adapter around [`SchedulerKind::build`].
    pub fn build_plane(self) -> Box<dyn ControlPlane> {
        match self {
            SchedulerKind::GuritaLocal => {
                Box::new(Decentralized::new(|| SchedulerKind::Gurita.build()))
            }
            SchedulerKind::AaloLocal => {
                Box::new(Decentralized::new(|| SchedulerKind::Aalo.build()))
            }
            _ => Box::new(Centralized::new(self.build())),
        }
    }
}

/// Gurita's evaluation configuration: Ψ thresholds spanning the mice-to-
/// elephant range of the trace (Ψ ≈ bytes × flows, so 1e7 ≈ a 10 MB
/// single-flow stage or a 1 MB ten-flow stage).
fn gurita_config() -> GuritaConfig {
    GuritaConfig {
        num_queues: 4,
        threshold_base: 1.0e7,
        threshold_factor: 30.0,
        ..GuritaConfig::default()
    }
}

fn ablated(rule: Rule) -> GuritaConfig {
    let mut cfg = gurita_config();
    cfg.blocking.rules = RuleSet::all().without(rule);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        for kind in [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaNoOmega,
            SchedulerKind::GuritaNoKappa,
            SchedulerKind::GuritaNoCriticalPath,
            SchedulerKind::GuritaPlus,
            SchedulerKind::Pfs,
            SchedulerKind::Baraat,
            SchedulerKind::Stream,
            SchedulerKind::Aalo,
            SchedulerKind::VarysSebf,
        ] {
            let s = kind.build();
            assert!(!s.name().is_empty());
            assert!(s.num_queues() >= 1);
            assert!(!kind.label().is_empty());
            assert!(!kind.is_decentralized());
        }
    }

    #[test]
    fn every_kind_builds_a_plane() {
        for kind in [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaNoOmega,
            SchedulerKind::GuritaNoKappa,
            SchedulerKind::GuritaNoCriticalPath,
            SchedulerKind::GuritaPlus,
            SchedulerKind::Pfs,
            SchedulerKind::Baraat,
            SchedulerKind::Stream,
            SchedulerKind::Aalo,
            SchedulerKind::VarysSebf,
            SchedulerKind::GuritaLocal,
            SchedulerKind::AaloLocal,
        ] {
            let p = kind.build_plane();
            assert!(!p.name().is_empty());
            assert!(p.num_queues() >= 1);
            assert_eq!(p.name().ends_with("@local"), kind.is_decentralized());
        }
    }

    #[test]
    #[should_panic(expected = "decentralized scheme")]
    fn local_kinds_have_no_cluster_wide_scheduler() {
        let _ = SchedulerKind::GuritaLocal.build();
    }

    /// The runtime hands `queue_policy` an `Observation::default()`
    /// (building a real one per recomputation would cost `O(flows)`),
    /// so the `Scheduler` trait contract requires the returned policy
    /// to be derived from `assign`-time state only. Drive two identical
    /// instances of every in-tree scheduler through the same `assign`,
    /// then ask one for its policy with an empty observation and the
    /// other with a populated one: the answers must match.
    #[test]
    fn queue_policy_ignores_the_observation() {
        use gurita_model::{
            CoflowId, CoflowSpec, FlowId, FlowSpec, HostId, JobDag, JobId, JobSpec,
        };
        use gurita_sim::sched::{CoflowObs, FlowObs, JobObs, Observation, Oracle};
        use std::collections::HashMap;

        let job = JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(0),
                HostId(1),
                1.0e6,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap();
        let jobs: HashMap<JobId, JobSpec> = [(JobId(0), job)].into_iter().collect();
        let remaining = |_: FlowId| Some(5.0e5);
        let flow_size = |_: FlowId| Some(1.0e6);
        let oracle = Oracle::new(&jobs, &remaining, &flow_size);
        let populated = Observation {
            now: 1.0,
            coflows: vec![CoflowObs {
                id: CoflowId(0),
                job: JobId(0),
                dag_vertex: 0,
                dag_stage: 0,
                activated_at: 0.0,
                open_flows: 1,
                bytes_received: 5.0e5,
                max_flow_bytes_received: 5.0e5,
                flows: vec![FlowObs {
                    id: FlowId(0),
                    src: HostId(0),
                    bytes_received: 5.0e5,
                    open: true,
                }],
            }],
            jobs: vec![JobObs {
                id: JobId(0),
                arrival: 0.0,
                completed_coflows: 0,
                completed_stages: 0,
                completed_bytes: 0.0,
                bytes_received: 5.0e5,
                active_coflows: vec![0],
            }],
        };

        for kind in [
            SchedulerKind::Gurita,
            SchedulerKind::GuritaSpq,
            SchedulerKind::GuritaNoOmega,
            SchedulerKind::GuritaNoKappa,
            SchedulerKind::GuritaNoCriticalPath,
            SchedulerKind::GuritaPlus,
            SchedulerKind::Pfs,
            SchedulerKind::Baraat,
            SchedulerKind::Stream,
            SchedulerKind::Aalo,
            SchedulerKind::VarysSebf,
        ] {
            let mut a = kind.build();
            let mut b = kind.build();
            assert_eq!(
                a.assign(&populated, &oracle),
                b.assign(&populated, &oracle),
                "{}: assign must be deterministic for this test to be meaningful",
                kind.label()
            );
            assert_eq!(
                a.queue_policy(&Observation::default()),
                b.queue_policy(&populated),
                "{}: queue_policy read the observation",
                kind.label()
            );
        }
    }

    #[test]
    fn paper_set_has_gurita_first() {
        assert_eq!(SchedulerKind::PAPER_SET[0], SchedulerKind::Gurita);
        assert_eq!(SchedulerKind::PAPER_SET.len(), 5);
    }
}
