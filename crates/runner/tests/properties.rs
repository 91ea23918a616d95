//! Property tests pinning the runner's determinism contract: for random
//! netlists, thread counts 1/2/4/8 and arbitrary chunk sizes, the
//! parallel engines return results bit-identical to the serial engine.

use proptest::prelude::*;

use nanobound_gen::random::{random_dag, RandomDagConfig};
use nanobound_runner::{monte_carlo, try_grid_map, Exec, ThreadPool};
use nanobound_sim::NoisyConfig;

/// The thread counts the issue contract names explicitly.
const JOBS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_monte_carlo_is_jobs_invariant(
        (inputs, gates, outputs) in (2usize..8, 5usize..40, 1usize..4),
        max_fanin in prop::sample::select(vec![2usize, 3, 4]),
        dag_seed in any::<u64>(),
        epsilon in 0.0..=1.0f64,
        noise_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        patterns in 2usize..400,
        chunk in 1usize..128,
    ) {
        let netlist = random_dag(&RandomDagConfig {
            inputs,
            gates,
            max_fanin,
            outputs,
            seed: dag_seed,
        })
        .expect("valid random DAG parameters");
        let config = NoisyConfig::new(epsilon, noise_seed).expect("epsilon in [0, 1]");

        let reference = monte_carlo(
            &Exec::default(), &netlist, &config, patterns, pattern_seed, chunk,
        )
        .expect("serial reference run");
        for jobs in JOBS {
            let exec = Exec::new(ThreadPool::new(jobs).expect("supported worker count"));
            let out = monte_carlo(
                &exec, &netlist, &config, patterns, pattern_seed, chunk,
            )
            .expect("parallel run");
            // NoisyOutcome is all f64 rates: PartialEq here means the
            // merged tallies rounded identically, i.e. bit-identity.
            prop_assert_eq!(
                &out, &reference,
                "jobs={} patterns={} chunk={}", jobs, patterns, chunk
            );
        }
    }

    #[test]
    fn try_grid_map_fails_on_the_same_point_for_every_worker_count(
        points in 1usize..150,
        fail_stride in 2usize..20,
        offset in 0usize..20,
    ) {
        let xs: Vec<usize> = (0..points).collect();
        let f = |&x: &usize| -> Result<usize, usize> {
            if x >= offset && (x - offset) % fail_stride == 0 {
                Err(x)
            } else {
                Ok(x * 3)
            }
        };
        let reference: Result<Vec<usize>, usize> = xs.iter().map(f).collect();
        for jobs in JOBS {
            let pool = ThreadPool::new(jobs).expect("supported worker count");
            prop_assert_eq!(
                try_grid_map(&pool, &xs, f),
                reference.clone(),
                "jobs={}", jobs
            );
        }
    }

    #[test]
    fn map_indexed_is_an_identity_schedule(
        n in 0usize..500,
        jobs in 1usize..12,
    ) {
        let pool = ThreadPool::new(jobs).expect("supported worker count");
        let out = pool.map_indexed(n, |i| i);
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }
}
