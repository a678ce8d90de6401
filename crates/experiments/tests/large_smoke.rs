//! Release-mode smoke test for the 48-pod large-fabric fast path.
//!
//! Runs a small bursty FB-Tao workload on the full 27,648-host fat-tree
//! under Gurita and checks the run drains, the path arena was actually
//! exercised, and parallel component recomputation matches the serial
//! run bit-for-bit at this scale.
//!
//! `#[ignore]`d by default: the run takes a few seconds in release mode
//! and much longer under `cargo test`'s default debug profile. CI runs
//! it with `cargo test --release -- --ignored` in a time-boxed job.

use gurita_experiments::roster::SchedulerKind;
use gurita_experiments::scenario::Scenario;
use gurita_sim::runtime::{SimConfig, Simulation};
use gurita_sim::topology::FatTree;
use gurita_workload::dags::StructureKind;

#[test]
#[ignore = "release-mode 48-pod smoke; run with --ignored"]
fn large_fabric_smoke() {
    let scenario = Scenario::bursty(StructureKind::FbTao, 8, 48, 7);
    let jobs = scenario.jobs();
    let expected_jobs = jobs.len();
    let run = |threads: usize| {
        let fabric = FatTree::new(scenario.pods).expect("valid pods");
        let mut sim = Simulation::new(
            fabric,
            SimConfig {
                tick_interval: scenario.tick_interval,
                threads,
                ..SimConfig::default()
            },
        );
        let mut sched = SchedulerKind::Gurita.build();
        sim.run(jobs.clone(), sched.as_mut())
    };
    let result = run(1);
    assert_eq!(result.jobs.len(), expected_jobs, "all jobs must complete");
    assert!(result.makespan > 0.0);
    assert!(result.events > 0);
    assert!(
        result.path_arena_unique > 0,
        "routes must be interned through the arena"
    );
    assert!(result.path_arena_interns >= result.path_arena_unique as u64);
    assert!((0.0..=1.0).contains(&result.path_arena_hit_rate));
    assert!(
        result.path_arena_storage_bytes > 0,
        "interned routes must account for their backing storage"
    );
    let par_result = run(0);
    assert!(
        result == par_result,
        "parallel component recomputation must match serial bit-for-bit at 48 pods"
    );
}
