//! A fixed reference computation that measures how fast this host runs
//! right now.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes with the load of their other tenants (the same
//! 150-job fig7 instance ran in 4 s and in 7 s within one hour on the
//! 2-vCPU host the benchmark was tuned on, with no steal time
//! reported). The offline workloads therefore time this kernel before
//! every instance and rescale their timings to a nominal host on which
//! it takes [`NOMINAL_S`]. The kernel is the benchmark's own code,
//! never the program's, so a change to the program cannot move it: it
//! progressively fills (max-min fair shares) a fixed random set of flows
//! over shared links, the same kind of work the engine's rate
//! recomputation does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const LINKS: usize = 2048;
const FLOWS: usize = 8192;
const HOPS: usize = 6;
const ROUNDS: usize = 4;

/// The kernel's time on the nominal host, seconds: about its median on
/// the host the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.1;

/// A fixed flow set: each flow crosses `HOPS` links.
pub struct Kernel {
    paths: Vec<[u32; HOPS]>,
    capacity: Vec<f64>,
}

impl Kernel {
    /// The fixed instance (same on every host and run).
    pub fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(0x6b65_726e_656c);
        let paths = (0..FLOWS)
            .map(|_| std::array::from_fn(|_| rng.gen_range(0..LINKS as u32)))
            .collect();
        let capacity = (0..LINKS).map(|_| rng.gen_range(1.0..10.0)).collect();
        Self { paths, capacity }
    }

    /// Max-min fair rates of every flow, by progressive filling.
    fn fill(&self) -> f64 {
        let mut remaining = self.capacity.clone();
        let mut rate = vec![0.0f64; FLOWS];
        let mut frozen = vec![false; FLOWS];
        let mut active = vec![0u32; LINKS];
        for p in &self.paths {
            for &l in p {
                active[l as usize] += 1;
            }
        }
        let mut left = FLOWS;
        while left > 0 {
            let (mut bottleneck, mut share) = (usize::MAX, f64::INFINITY);
            for l in 0..LINKS {
                if active[l] > 0 {
                    let s = remaining[l] / f64::from(active[l]);
                    if s < share {
                        (bottleneck, share) = (l, s);
                    }
                }
            }
            for f in 0..FLOWS {
                if frozen[f] || !self.paths[f].contains(&(bottleneck as u32)) {
                    continue;
                }
                frozen[f] = true;
                left -= 1;
                rate[f] = share;
                for &l in &self.paths[f] {
                    remaining[l as usize] -= share;
                    active[l as usize] -= 1;
                }
            }
        }
        rate.iter().sum()
    }

    /// Wall seconds of one measurement: `ROUNDS` fills.
    pub fn measure(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(self.fill());
        }
        t.elapsed().as_secs_f64()
    }
}
