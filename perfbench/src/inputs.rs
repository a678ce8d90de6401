//! Workload inputs: a fixed, stratified job population per workload,
//! scheduled by the seed.
//!
//! The generator draws each job's Table 1 size category, its size, DAG,
//! widths and placement independently. A few multi-terabyte or very
//! wide jobs then carry most of a trace's simulated work, so two seeds
//! of the generator differ in cost by 2–3x and no run-to-run comparison
//! across seeds is possible. The benchmark therefore fixes each
//! workload's job population, as a trace file would: it is drawn once,
//! from [`TRACE_SEED`], stratified — each category holds its expected
//! share of the jobs, and its jobs are the generator's draws nearest
//! evenly spaced quantiles of its size range. The run's seed draws the
//! schedule: the arrival times and which arrival slot each job takes
//! (each category's jobs spread evenly over the trace, in seeded order
//! and with seeded jitter).

use gurita_model::JobSpec;
use gurita_workload::arrivals::ArrivalProcess;
use gurita_workload::generator::{JobGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed of instance `k` of a run seeded with `seed` (SplitMix64 of
/// the pair), so that instances of one run and runs of different seeds
/// all draw distinct traces.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Jobs per category by systematic sampling with offset `u` in
/// `[0, 1)`: category `c` gets `floor(S_c + u) - floor(S_{c-1} + u)`
/// jobs, where `S_c` is the expected count of categories `0..=c`. Each
/// count is the floor or the ceiling of its expected share, the counts
/// sum to `n`, and over a uniform `u` each count's mean is its expected
/// share exactly — a category too rare for one trace still appears in
/// its share of traces.
pub fn category_counts(weights: &[f64], n: usize, u: f64) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let mut expected = 0.0;
    let mut placed = 0usize;
    weights
        .iter()
        .enumerate()
        .map(|(c, w)| {
            expected += w / total * n as f64;
            let upto = if c + 1 == weights.len() {
                n
            } else {
                ((expected + u).floor() as usize).min(n)
            };
            let k = upto - placed;
            placed = upto;
            k
        })
        .collect()
}

/// Candidates drawn per job of a category, from which the jobs nearest
/// the category's size quantiles are kept.
const CANDIDATES_PER_JOB: usize = 8;

/// Seed of every workload's job population.
pub const TRACE_SEED: u64 = 2019;

/// `config.num_jobs` jobs in arrival order, ids `0..n`: the population
/// drawn from [`TRACE_SEED`] (each category's seeded
/// [`category_counts`] share, its jobs nearest evenly spaced size
/// quantiles), on the arrival schedule drawn from `seed`.
pub fn workload(config: &WorkloadConfig, seed: u64) -> Vec<JobSpec> {
    let n = config.num_jobs;
    let mut population = StdRng::seed_from_u64(TRACE_SEED);
    let mut schedule = StdRng::seed_from_u64(seed);
    let arrivals = config.arrivals.timestamps(&mut schedule, n);
    let counts = category_counts(&config.category_weights, n, population.gen_range(0.0..1.0));
    let mut keyed: Vec<(f64, JobSpec)> = Vec::with_capacity(n);
    for (c, &k) in counts.iter().enumerate() {
        if k == 0 {
            continue;
        }
        let mut weights = [0.0; 7];
        weights[c] = 1.0;
        let cfg = WorkloadConfig {
            num_jobs: k * CANDIDATES_PER_JOB,
            category_weights: weights,
            arrivals: ArrivalProcess::Simultaneous,
            ..config.clone()
        };
        let mut pool = JobGenerator::new(cfg, population.gen::<u64>()).generate();
        pool.sort_by(|a, b| a.total_bytes().total_cmp(&b.total_bytes()));
        let mut strata: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            strata.swap(i, schedule.gen_range(0..=i));
        }
        for (j, stratum) in strata.into_iter().enumerate() {
            let job = pool[(2 * j + 1) * pool.len() / (2 * k)].clone();
            let key = (stratum as f64 + schedule.gen_range(0.0..1.0)) / k as f64;
            keyed.push((key, job));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed
        .into_iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, ((_, job), at))| job.with_id(i).with_arrival(at))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_shares_and_sum_to_n() {
        let w = [0.50, 0.26, 0.13, 0.04, 0.045, 0.02, 0.005];
        assert_eq!(category_counts(&w, 200, 0.0), vec![100, 52, 26, 8, 9, 4, 1]);
        for u in [0.0, 0.3, 0.7, 0.999] {
            let c = category_counts(&w, 150, u);
            assert_eq!(c.iter().sum::<usize>(), 150);
            for (k, wk) in c.iter().zip(w) {
                let share = wk * 150.0;
                assert!(
                    *k as f64 >= share.floor() && *k as f64 <= share.ceil(),
                    "{c:?}"
                );
            }
        }
    }

    #[test]
    fn a_rare_category_appears_in_its_share_of_offsets() {
        let w = [0.75, 0.25];
        // 2 jobs: the second category expects 0.5 of a job.
        let with_rare = (0..1000)
            .filter(|i| category_counts(&w, 2, f64::from(*i) / 1000.0)[1] == 1)
            .count();
        assert_eq!(with_rare, 500);
    }

    #[test]
    fn workload_is_seeded_and_keeps_the_mix() {
        let cfg = WorkloadConfig {
            num_jobs: 40,
            num_hosts: 16,
            ..WorkloadConfig::default()
        };
        let a = workload(&cfg, 5);
        let b = workload(&cfg, 5);
        let c = workload(&cfg, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bytes = |t: &[JobSpec]| {
            let mut v: Vec<f64> = t.iter().map(JobSpec::total_bytes).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(bytes(&a), bytes(&c), "seeds share one population");
        for (i, job) in a.iter().enumerate() {
            assert_eq!(job.id().index(), i);
        }
        assert!(a.windows(2).all(|w| w[0].arrival() <= w[1].arrival()));
        let mut seen = [0usize; 7];
        for job in &a {
            seen[job.category().index()] += 1;
        }
        let total: usize = seen.iter().sum();
        assert_eq!(total, 40);
        for (k, w) in seen.iter().zip(cfg.category_weights) {
            assert!((*k as f64 - w * 40.0).abs() < 1.0, "{seen:?}");
        }
    }
}
