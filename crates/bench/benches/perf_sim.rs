//! Criterion micro-benchmarks of the bit-parallel simulation engine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use nanobound_gen::iscas;
use nanobound_runner::{Exec, ThreadPool};
use nanobound_sim::{
    estimate_activity, evaluate_packed, monte_carlo, monte_carlo_tally, NoisyConfig, PatternSet,
    SimProgram,
};

fn bench_sim(c: &mut Criterion) {
    let mult = iscas::c6288_analog().unwrap(); // the suite's largest circuit
    let patterns = PatternSet::random(mult.input_count(), 4096, 7);

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(4096u64 * mult.gate_count() as u64));
    group.bench_function("packed_eval_c6288a_4096", |b| {
        b.iter(|| evaluate_packed(black_box(&mult), black_box(&patterns)).unwrap());
    });
    group.finish();

    c.bench_function("activity_c6288a_4096", |b| {
        b.iter(|| estimate_activity(black_box(&mult), 4096, 7).unwrap());
    });

    c.bench_function("noisy_montecarlo_c6288a_4096", |b| {
        let cfg = NoisyConfig::new(0.01, 5).unwrap();
        b.iter(|| monte_carlo(black_box(&mult), &cfg, 4096, 7).unwrap());
    });

    // Interpreted vs compiled, on the exact same chunk workload (the
    // two produce bit-identical tallies — see crates/sim/tests/
    // compiled.rs). Two ε regimes: at mask-sparse ε (one fault-mask RNG
    // draw per word) the executor dominates and the compiled tape wins
    // big; at mask-dense ε both engines are bound by the frozen
    // fault-mask RNG stream, which bit-identity forbids changing.
    for (label, eps) in [("sparse_eps0.25", 0.25), ("dense_eps0.01", 0.01)] {
        let cfg = NoisyConfig::new(eps, 5).unwrap();
        c.bench_function(&format!("mc_tally_interp_c6288a_4096_{label}"), |b| {
            b.iter(|| monte_carlo_tally(black_box(&mult), &cfg, 4096, 7).unwrap());
        });
        let program = SimProgram::compile(&mult);
        let mut scratch = program.scratch();
        c.bench_function(&format!("mc_tally_compiled_c6288a_4096_{label}"), |b| {
            b.iter(|| {
                program
                    .run_tally(black_box(&mut scratch), &cfg, 4096, 7)
                    .unwrap()
            });
        });
    }

    // Clean profiling eval (the figures pipeline's hot loop), both
    // engines.
    {
        let program = SimProgram::compile(&mult);
        let mut scratch = program.scratch();
        c.bench_function("clean_eval_compiled_c6288a_4096", |b| {
            b.iter(|| {
                program
                    .run_clean(black_box(&mut scratch), black_box(&patterns))
                    .unwrap();
            });
        });
    }

    // The sharded Monte-Carlo, serial vs all hardware threads: identical
    // work (32 chunks of 1024 patterns), identical output bits — the
    // speedup is the runner's whole value proposition. Expect ~Nx on an
    // N-core host for this embarrassingly parallel workload.
    let cfg = NoisyConfig::new(0.01, 5).unwrap();
    let sharded = |exec: &Exec<'_>| {
        nanobound_runner::monte_carlo(exec, black_box(&mult), &cfg, 32_768, 7, 1024).unwrap()
    };
    let serial = Exec::default();
    c.bench_function("noisy_mc_sharded_32k_jobs1", |b| {
        b.iter(|| sharded(&serial));
    });
    // Only meaningful (and only distinctly named) on multi-core hosts.
    let auto = Exec::new(ThreadPool::auto());
    if auto.pool.jobs() > 1 {
        c.bench_function(
            &format!("noisy_mc_sharded_32k_jobs{}", auto.pool.jobs()),
            |b| {
                b.iter(|| sharded(&auto));
            },
        );
    }

    c.bench_function("sensitivity_sampled_c6288a_256", |b| {
        b.iter(|| nanobound_sim::sensitivity::sampled(black_box(&mult), 256, 3).unwrap());
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
