//! Machine-readable engine benchmark: interpreted vs compiled
//! Monte-Carlo throughput per benchmark netlist.
//!
//! A plain binary (`harness = false`) that prints one JSON document to
//! stdout — `scripts/bench_json.sh` redirects it into `BENCH_7.json`,
//! the workspace's performance-trajectory artifact. Future PRs
//! regenerate the file and compare patterns/sec against it.
//!
//! Four workloads per netlist, both engines each:
//!
//! - `mc_sparse` — paired clean/noisy simulation at ε = 0.25. Under
//!   the v2 counter stream a dyadic ε still needs a single mix per
//!   mask word, so this measures the *executor* (graph walk,
//!   allocation, tally passes) rather than mask generation.
//! - `mc_dense` — the same work at ε = 0.01. Under the v1 sequential
//!   stream this regime was bounded by ~22 shared RNG draws per
//!   gate-word in both engines; the v2 stream's sparse geometric-gap
//!   plan costs ~1.6 draws per word, so the compiled side is executor
//!   -bound here too and the ratio is a multiple again.
//! - `clean` — the error-free profiling evaluation behind
//!   `figures`/`profile` (activity + sensitivity measurement).
//! - `activity` — the full activity profile (signal probabilities +
//!   switching activities per node). The compiled side exercises
//!   `SimProgram::estimate_activity`, whose tally loop reads the
//!   bulk-filled clean planes; the profile is cross-checked equal to
//!   the interpreted `estimate_activity` before timing.
//!
//! One cross-run workload on the largest hint-free benchmark:
//!
//! - `warm_sweep` — a leak-share grid swept twice through
//!   `profile_netlist` against an on-disk [`ProfileStore`].
//!   The cold pass measures activity/sensitivity once and reuses them
//!   for the rest of the grid (profile keys exclude ε, δ and
//!   leak-share); the warm pass reopens the store and must measure
//!   nothing at all — asserted on the layer counters before the
//!   timing is reported.
//!
//! The Monte-Carlo workloads run [`SHARDS`] chunk-sized shards per
//! call: the interpreted side loops `monte_carlo_tally` shard by
//! shard, the compiled side pushes `SimProgram::preferred_batch`-sized
//! groups through `run_tally_batch` — the same shapes the cached
//! runner drives in production. Every shard's batch tally is first
//! cross-checked bitwise against the interpreted oracle — a benchmark
//! run that drifted would be meaningless.

use std::time::Instant;

use nanobound_cache::{ProfileLayer, ProfileStore};
use nanobound_experiments::profiles::{profile_netlist, ProfileConfig};
use nanobound_gen::{standard_suite, Benchmark};
use nanobound_logic::Netlist;
use nanobound_runner::Exec;
use nanobound_sim::{
    estimate_activity, evaluate_packed, monte_carlo_tally, NoisyConfig, PatternSet, ShardSpec,
    SimProgram,
};

/// Patterns per shard — the workspace's DEFAULT_CHUNK.
const CHUNK: usize = 4096;
/// Shards per Monte-Carlo measurement call.
const SHARDS: usize = 4;
/// Minimum wall-clock per measurement.
const MIN_SECS: f64 = 0.2;
/// Minimum iterations per measurement.
const MIN_ITERS: u32 = 3;

/// Times the two engines interleaved — one interpreted call, one
/// compiled call, alternating — and returns patterns per second for
/// each. Interleaving matters on shared machines: the headline number
/// is the *ratio*, and alternating samples exposes both engines to
/// the same slow drift (thermal, noisy neighbors) instead of letting
/// it land entirely on whichever side was measured second.
fn paired_pps(per_call: usize, mut interp: impl FnMut(), mut compiled: impl FnMut()) -> (f64, f64) {
    interp(); // warm-up: fills caches and scratch arenas
    compiled();
    let start = Instant::now();
    let (mut interp_secs, mut compiled_secs) = (0.0f64, 0.0f64);
    let mut iters = 0u32;
    while iters < MIN_ITERS || start.elapsed().as_secs_f64() < 2.0 * MIN_SECS {
        let t = Instant::now();
        interp();
        interp_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        compiled();
        compiled_secs += t.elapsed().as_secs_f64();
        iters += 1;
    }
    let patterns = f64::from(iters) * per_call as f64;
    (patterns / interp_secs, patterns / compiled_secs)
}

struct EnginePair {
    interp_pps: f64,
    compiled_pps: f64,
}

impl EnginePair {
    fn speedup(&self) -> f64 {
        self.compiled_pps / self.interp_pps
    }

    fn json(&self) -> String {
        format!(
            "{{\"interp_patterns_per_sec\": {:.0}, \"compiled_patterns_per_sec\": {:.0}, \"speedup\": {:.2}}}",
            self.interp_pps,
            self.compiled_pps,
            self.speedup()
        )
    }
}

fn measure_mc(netlist: &Netlist, program: &SimProgram, eps: f64) -> EnginePair {
    let shards: Vec<ShardSpec> = (0..SHARDS as u64)
        .map(|i| ShardSpec {
            fault_seed: 5 + i,
            pattern_seed: 7 + i,
            patterns: CHUNK,
        })
        .collect();
    let mut scratch = program.scratch();
    let mut batch = vec![program.empty_tally(); SHARDS];
    let width = program.preferred_batch(CHUNK);
    // The contract behind the comparison: identical tallies, shard by
    // shard, before a single timing sample is taken.
    for (specs, tallies) in shards.chunks(width).zip(batch.chunks_mut(width)) {
        program
            .run_tally_batch(&mut scratch, eps, specs, tallies)
            .expect("compiled batch");
    }
    for (spec, tally) in shards.iter().zip(&batch) {
        let cfg = NoisyConfig::new(eps, spec.fault_seed).expect("valid epsilon");
        let reference = monte_carlo_tally(netlist, &cfg, spec.patterns, spec.pattern_seed)
            .expect("interpreted shard");
        assert_eq!(&reference, tally, "engines diverged — benchmark void");
    }

    let (interp_pps, compiled_pps) = paired_pps(
        SHARDS * CHUNK,
        || {
            for spec in &shards {
                let cfg = NoisyConfig::new(eps, spec.fault_seed).unwrap();
                drop(monte_carlo_tally(netlist, &cfg, spec.patterns, spec.pattern_seed).unwrap());
            }
        },
        || {
            for (specs, tallies) in shards.chunks(width).zip(batch.chunks_mut(width)) {
                program
                    .run_tally_batch(&mut scratch, eps, specs, tallies)
                    .unwrap();
            }
        },
    );
    EnginePair {
        interp_pps,
        compiled_pps,
    }
}

fn measure_clean(netlist: &Netlist, program: &SimProgram) -> EnginePair {
    let patterns = PatternSet::random(netlist.input_count(), CHUNK, 7);
    let mut scratch = program.scratch();
    let (interp_pps, compiled_pps) = paired_pps(
        CHUNK,
        || drop(evaluate_packed(netlist, &patterns).unwrap()),
        || program.run_clean(&mut scratch, &patterns).unwrap(),
    );
    EnginePair {
        interp_pps,
        compiled_pps,
    }
}

fn measure_activity_profile(netlist: &Netlist, program: &SimProgram) -> EnginePair {
    let mut scratch = program.scratch();
    // Same contract as the Monte-Carlo workloads: the compiled profile
    // must equal the interpreted one exactly before a timing sample is
    // taken.
    let reference = estimate_activity(netlist, CHUNK, 7).expect("interpreted activity");
    let bulk = program
        .estimate_activity(&mut scratch, CHUNK, 7)
        .expect("compiled activity");
    assert_eq!(
        reference, bulk,
        "activity profiles diverged — benchmark void"
    );

    let (interp_pps, compiled_pps) = paired_pps(
        CHUNK,
        || drop(estimate_activity(netlist, CHUNK, 7).unwrap()),
        || drop(program.estimate_activity(&mut scratch, CHUNK, 7).unwrap()),
    );
    EnginePair {
        interp_pps,
        compiled_pps,
    }
}

/// Leak-share grid for the cross-run sweep workload. The profile store
/// keys measurements on structure + sampling parameters only, so every
/// point after the first reuses the first point's measurements.
const SWEEP_GRID: [f64; 6] = [0.30, 0.38, 0.46, 0.54, 0.62, 0.70];

fn measure_warm_sweep(bench: &Benchmark) -> String {
    let root = std::env::temp_dir().join(format!("nanobound-perf-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let run = |store: &ProfileStore| {
        let exec = Exec {
            profiles: Some(store),
            ..Exec::default()
        };
        let start = Instant::now();
        for leak in SWEEP_GRID {
            let config = ProfileConfig {
                leak_share: leak,
                ..ProfileConfig::default()
            };
            let profiled = profile_netlist(&exec, &bench.netlist, bench.sensitivity_hint, &config);
            drop(profiled.expect("profile"));
        }
        start.elapsed().as_secs_f64()
    };

    let cold_store = ProfileStore::open(&root).expect("open profile store");
    let cold_secs = run(&cold_store);
    let cold_activity = cold_store.layer_stats(ProfileLayer::Activity);
    let cold_sensitivity = cold_store.layer_stats(ProfileLayer::Sensitivity);
    drop(cold_store);

    let warm_store = ProfileStore::open(&root).expect("reopen profile store");
    let warm_secs = run(&warm_store);
    let warm_activity = warm_store.layer_stats(ProfileLayer::Activity);
    let warm_sensitivity = warm_store.layer_stats(ProfileLayer::Sensitivity);
    // A warm sweep that re-measures anything would make the timing a
    // lie — the whole point is that the store carries the measurements
    // across runs.
    assert_eq!(warm_activity.measured, 0, "warm sweep re-measured activity");
    assert_eq!(
        warm_sensitivity.measured, 0,
        "warm sweep re-measured sensitivity"
    );
    let _ = std::fs::remove_dir_all(&root);

    format!(
        "{{\"netlist\": \"{}\", \"grid_points\": {}, \"cold_secs\": {:.4}, \"warm_secs\": {:.4}, \"speedup\": {:.2}, \"cold_activity_measured\": {}, \"cold_activity_reused\": {}, \"cold_sensitivity_measured\": {}, \"cold_sensitivity_reused\": {}, \"warm_activity_reused\": {}, \"warm_sensitivity_reused\": {}}}",
        bench.name,
        SWEEP_GRID.len(),
        cold_secs,
        warm_secs,
        cold_secs / warm_secs,
        cold_activity.measured,
        cold_activity.reused,
        cold_sensitivity.measured,
        cold_sensitivity.reused,
        warm_activity.reused,
        warm_sensitivity.reused,
    )
}

fn main() {
    let suite = standard_suite().expect("standard suite generates");
    let mut entries = Vec::new();
    let mut largest: Option<(String, usize, f64)> = None;
    for bench in &suite {
        let netlist = &bench.netlist;
        let program = SimProgram::compile(netlist);
        let sparse = measure_mc(netlist, &program, 0.25);
        let dense = measure_mc(netlist, &program, 0.01);
        let clean = measure_clean(netlist, &program);
        let activity = measure_activity_profile(netlist, &program);
        if largest
            .as_ref()
            .is_none_or(|(_, gates, _)| netlist.gate_count() > *gates)
        {
            largest = Some((bench.name.clone(), netlist.gate_count(), sparse.speedup()));
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"gates\": {}, \"inputs\": {}, \"mc_sparse\": {}, \"mc_dense\": {}, \"clean\": {}, \"activity\": {}}}",
            bench.name,
            netlist.gate_count(),
            netlist.input_count(),
            sparse.json(),
            dense.json(),
            clean.json(),
            activity.json(),
        ));
    }
    // The sweep wants a benchmark whose sensitivity is *measured* (no
    // analytic hint), so both profile layers show up in the counters;
    // among those, take the largest.
    let sweep_bench = suite
        .iter()
        .max_by_key(|b| (b.sensitivity_hint.is_none(), b.netlist.gate_count()))
        .expect("non-empty suite");
    let warm_sweep = measure_warm_sweep(sweep_bench);
    let (largest_name, largest_gates, largest_speedup) = largest.expect("non-empty suite");
    println!("{{");
    println!("  \"bench\": \"engines\",");
    println!("  \"pr\": 7,");
    println!("  \"chunk_patterns\": {CHUNK},");
    println!("  \"mc_shards\": {SHARDS},");
    println!("  \"batch_policy\": \"preferred_batch\",");
    println!("  \"mc_sparse_eps\": 0.25,");
    println!("  \"mc_dense_eps\": 0.01,");
    println!(
        "  \"largest_netlist\": {{\"name\": \"{largest_name}\", \"gates\": {largest_gates}, \"mc_sparse_speedup\": {largest_speedup:.2}}},"
    );
    println!("  \"warm_sweep\": {warm_sweep},");
    println!("  \"netlists\": [");
    println!("{}", entries.join(",\n"));
    println!("  ]");
    println!("}}");
}
