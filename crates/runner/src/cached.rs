//! Cache-aware variants of the parallel entry points.
//!
//! Every function here is the same pure computation as its uncached
//! sibling with one extra layer: before a shard is computed, the
//! [`ShardCache`] is consulted under a [`Fingerprint`] that captures the
//! complete experiment identity, and after a shard is computed its
//! result is written back. Because shard results are encoded bit-exactly
//! (integer tallies, `f64` bit patterns), a warm-cache run is
//! **byte-identical** to a cold run, to a `--no-cache` run and to
//! `--jobs 1` — the cache changes wall-clock time, never results.
//!
//! Passing `cache: None` makes every entry point identical to its
//! uncached sibling, so callers thread one optional through instead of
//! duplicating code paths.
//!
//! **Staleness and corruption.** The fingerprint hashes everything a
//! shard's result depends on (netlist structure, ε, master seeds, chunk
//! size, trial count, and the workspace [`FORMAT_VERSION`] salt), so a
//! parameter change addresses a different entry set instead of reading
//! stale data. Unreadable or corrupt entries are counted misses and
//! recomputed; decoded tallies are additionally cross-checked against
//! the live netlist before being merged, so even a fingerprint
//! collision cannot panic the merge.
//!
//! [`FORMAT_VERSION`]: nanobound_cache::FORMAT_VERSION

use std::sync::Arc;

use nanobound_cache::{CacheCodec, Fingerprint, ShardCache};
use nanobound_logic::Netlist;
use nanobound_sim::{
    monte_carlo_tally, EngineKind, NoisyConfig, NoisyOutcome, NoisyTally, ProgramCache, ShardSpec,
    SimError, SimProgram, SimScratch,
};

use crate::pool::ThreadPool;
use crate::seed::shard_seed;
use crate::shards::{tally_admissible, ShardPlan};

// Re-exported from `nanobound-sim`, where the layered fingerprints
// live so the compiled [`ProgramCache`] can address programs by the
// same structural identity the experiment caches use.
pub use nanobound_sim::{experiment_builder, netlist_fingerprint};

/// The fingerprint under which [`monte_carlo_sharded_cached`] stores its
/// chunk tallies (exposed so tests can corrupt specific entries).
#[must_use]
pub fn monte_carlo_fingerprint(
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
    chunk: usize,
) -> Fingerprint {
    // `experiment_builder` is byte-identical to the manual
    // FingerprintBuilder + netlist_fingerprint sequence this function
    // used before, so existing on-disk entries keep their addresses.
    let mut builder = experiment_builder("monte-carlo", netlist);
    builder.push_f64(config.epsilon);
    builder.push_u64(config.seed);
    builder.push_usize(patterns);
    builder.push_u64(pattern_seed);
    builder.push_usize(chunk);
    builder.finish()
}

/// [`monte_carlo_sharded`] with chunk tallies served from / written to
/// `cache`.
///
/// The merged [`NoisyOutcome`] is bit-identical to the uncached variant
/// for every mix of hits and misses: cached [`NoisyTally`] chunks carry
/// the same integer counts a fresh simulation would produce, and the
/// merge is the same chunk-ordered integer addition.
///
/// # Errors
///
/// Same as [`monte_carlo_sharded`]; cache failures of any kind degrade
/// to recomputation and are never surfaced as errors.
///
/// # Examples
///
/// ```
/// use nanobound_cache::ShardCache;
/// use nanobound_gen::parity;
/// use nanobound_runner::{monte_carlo_sharded, monte_carlo_sharded_cached, ThreadPool};
/// use nanobound_sim::NoisyConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("nanobound-runner-doc-cache");
/// # std::fs::remove_dir_all(&dir).ok();
/// let cache = ShardCache::open(&dir)?;
/// let tree = parity::parity_tree(8, 2)?;
/// let config = NoisyConfig::new(0.01, 7)?;
/// let pool = ThreadPool::serial();
///
/// let cold = monte_carlo_sharded_cached(&pool, &tree, &config, 10_000, 11, 512, Some(&cache))?;
/// let warm = monte_carlo_sharded_cached(&pool, &tree, &config, 10_000, 11, 512, Some(&cache))?;
/// let uncached = monte_carlo_sharded(&pool, &tree, &config, 10_000, 11, 512)?;
/// assert_eq!(cold, warm);
/// assert_eq!(cold, uncached);
/// assert!(cache.stats().hits > 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo_sharded_cached(
    pool: &ThreadPool,
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
    chunk: usize,
    cache: Option<&ShardCache>,
) -> Result<NoisyOutcome, SimError> {
    monte_carlo_sharded_cached_programs(
        pool,
        netlist,
        config,
        patterns,
        pattern_seed,
        chunk,
        cache,
        None,
    )
}

/// [`monte_carlo_sharded_cached`] with compiled [`SimProgram`]s served
/// from / written to `programs` — the entry point for long-lived
/// services that execute many experiments over the same netlists and
/// want warm requests to skip compilation entirely.
///
/// The evaluation backend is resolved per call from the
/// `NANOBOUND_ENGINE` environment variable ([`EngineKind::from_env`]):
/// the compiled engine by default, the interpreted oracle under
/// `NANOBOUND_ENGINE=interp`. Both produce **bit-identical** outcomes —
/// patterns replay the frozen `PatternSet::random` stream and fault
/// masks are pure functions of `(shard seed, gate, word)` under the v2
/// counter stream, identical regardless of engine, batching or
/// evaluation order — so cache entries, golden CSVs and `--jobs`
/// invariance hold across backends.
///
/// # Errors
///
/// Same as [`monte_carlo_sharded_cached`], plus a configuration error
/// for an unrecognized `NANOBOUND_ENGINE` value.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_sharded_cached_programs(
    pool: &ThreadPool,
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
    chunk: usize,
    cache: Option<&ShardCache>,
    programs: Option<&ProgramCache>,
) -> Result<NoisyOutcome, SimError> {
    // This is the single sharding pipeline: the uncached
    // [`monte_carlo_sharded`] delegates here with `cache: None`, so the
    // shard math, seed derivation and merge can never diverge between
    // the two entry points. The plan validates `patterns`/`chunk` and
    // owns the shard arithmetic shared with the cluster paths.
    let plan = ShardPlan::new(patterns, chunk)?;
    let engine = EngineKind::from_env()?;
    let fingerprint =
        cache.map(|_| monte_carlo_fingerprint(netlist, config, patterns, pattern_seed, chunk));
    // Pin the experiment for the duration of the run: a concurrent GC
    // sweep must not delete shards between this point and the merge.
    let _in_flight = match (cache, &fingerprint) {
        (Some(cache), Some(fingerprint)) => Some(cache.pin(*fingerprint)),
        _ => None,
    };
    let shards = plan.shard_count();

    // Validates a cached tally before merging: guard against entries
    // that verified and decoded but describe a different experiment
    // (only reachable via a fingerprint collision) — mismatches
    // recompute. The same predicate admits remote cluster results.
    let load_shard = |i: usize, len: usize| -> Option<NoisyTally> {
        let (cache, fingerprint) = (cache?, fingerprint.as_ref()?);
        let tally = cache.load_value::<NoisyTally>(fingerprint, i as u64)?;
        tally_admissible(netlist, &tally, len).then_some(tally)
    };

    if engine == EngineKind::Interp {
        let tallies: Vec<Result<NoisyTally, SimError>> = pool.map_indexed(shards, |i| {
            let len = plan.shard_patterns(i);
            if let Some(tally) = load_shard(i, len) {
                return Ok(tally);
            }
            let shard_config = NoisyConfig::new(config.epsilon, shard_seed(config.seed, i as u64))?;
            let tally = monte_carlo_tally(
                netlist,
                &shard_config,
                len,
                shard_seed(pattern_seed, i as u64),
            )?;
            if let (Some(cache), Some(fingerprint)) = (cache, &fingerprint) {
                cache.store_value(fingerprint, i as u64, &tally);
            }
            Ok(tally)
        });
        let mut merged: Option<NoisyTally> = None;
        for tally in tallies {
            let tally = tally?;
            match &mut merged {
                None => merged = Some(tally),
                Some(total) => total.merge(&tally),
            }
        }
        return Ok(merged
            .expect("patterns >= 2 yields at least one shard")
            .outcome());
    }

    // Compiled engine: one program per call (or shared through the
    // program cache), one scratch + running tally per worker. Shards
    // are executed [`SimProgram::preferred_batch`] at a time through
    // one tape pass (`SimProgram::run_tally_batch`) — legal because
    // the v2 fault stream derives each shard's masks as pure
    // functions of its own seed, so batching changes wall-clock,
    // never counts. Cache hits
    // within a group merge as-is; misses simulate batched and, with a
    // cache present, are stored individually so every shard stays a
    // relocatable unit. Integer tallies merge associatively and
    // commutatively, so the scheduling-dependent split between group
    // tallies and worker accumulators cannot change the merged counts.
    let program: Arc<SimProgram> = match programs {
        Some(cache) => cache.get_or_compile(netlist),
        None => Arc::new(SimProgram::compile(netlist)),
    };
    let batch = program.preferred_batch(chunk);
    let groups = shards.div_ceil(batch);
    let (group_tallies, workers) = pool.map_indexed_init(
        groups,
        || BatchWorker {
            scratch: program.scratch(),
            acc: program.empty_tally(),
            specs: Vec::with_capacity(batch),
            miss_idx: Vec::with_capacity(batch),
            fresh: Vec::with_capacity(batch),
        },
        |w, g| -> Result<Option<NoisyTally>, SimError> {
            let first = g * batch;
            let last = (first + batch).min(shards);
            w.specs.clear();
            w.miss_idx.clear();
            let mut group: Option<NoisyTally> = None;
            for i in first..last {
                let len = plan.shard_patterns(i);
                if let Some(tally) = load_shard(i, len) {
                    match &mut group {
                        None => group = Some(tally),
                        Some(total) => total.merge(&tally),
                    }
                } else {
                    w.miss_idx.push(i);
                    w.specs.push(ShardSpec {
                        fault_seed: shard_seed(config.seed, i as u64),
                        pattern_seed: shard_seed(pattern_seed, i as u64),
                        patterns: len,
                    });
                }
            }
            if !w.specs.is_empty() {
                w.fresh.clear();
                w.fresh.resize(w.specs.len(), program.empty_tally());
                program.run_tally_batch(&mut w.scratch, config.epsilon, &w.specs, &mut w.fresh)?;
                if let (Some(cache), Some(fingerprint)) = (cache, &fingerprint) {
                    for (&i, tally) in w.miss_idx.iter().zip(&w.fresh) {
                        cache.store_value(fingerprint, i as u64, tally);
                        match &mut group {
                            None => group = Some(tally.clone()),
                            Some(total) => total.merge(tally),
                        }
                    }
                } else {
                    for tally in &w.fresh {
                        w.acc.merge(tally);
                    }
                }
            }
            Ok(group)
        },
    );
    let mut merged = program.empty_tally();
    for tally in group_tallies {
        if let Some(tally) = tally? {
            merged.merge(&tally);
        }
    }
    for w in workers {
        merged.merge(&w.acc);
    }
    Ok(merged.outcome())
}

/// Per-worker state of the batched compiled pipeline.
struct BatchWorker {
    scratch: SimScratch,
    /// Running tally of cache-less groups (kept out of the per-group
    /// results so the no-cache hot path allocates nothing per group).
    acc: NoisyTally,
    /// Current group's miss specs, reused across groups.
    specs: Vec<ShardSpec>,
    /// Shard indices of `specs`, for cache storage.
    miss_idx: Vec<usize>,
    /// Freshly simulated tallies of the current group.
    fresh: Vec<NoisyTally>,
}

/// [`grid_map`](crate::grid_map) with per-cell results served from /
/// written to `cache` under `fingerprint`.
///
/// Cells are keyed by grid index, so `fingerprint` must capture the
/// grid itself and every parameter of `f` — use
/// [`nanobound_cache::FingerprintBuilder::push_f64s`] for the grid and push each
/// constant explicitly. Encoded cells round-trip bit-exactly, so the
/// result is identical to the uncached sweep for every hit/miss mix.
pub fn grid_map_cached<X, T, F>(
    pool: &ThreadPool,
    xs: &[X],
    fingerprint: &Fingerprint,
    cache: Option<&ShardCache>,
    f: F,
) -> Vec<T>
where
    X: Sync,
    T: CacheCodec + Send,
    F: Fn(&X) -> T + Sync,
{
    let _in_flight = cache.map(|cache| cache.pin(*fingerprint));
    pool.map_indexed(xs.len(), |i| {
        let Some(cache) = cache else { return f(&xs[i]) };
        if let Some(value) = cache.load_value::<T>(fingerprint, i as u64) {
            return value;
        }
        let value = f(&xs[i]);
        cache.store_value(fingerprint, i as u64, &value);
        value
    })
}

/// [`try_grid_map`](crate::try_grid_map) with per-cell caching: only
/// successful cells are cached; errors always recompute and keep the
/// lowest-indexed-error contract.
///
/// # Errors
///
/// Returns the error produced at the first (by index) failing grid
/// point, exactly like the uncached variant.
pub fn try_grid_map_cached<X, T, E, F>(
    pool: &ThreadPool,
    xs: &[X],
    fingerprint: &Fingerprint,
    cache: Option<&ShardCache>,
    f: F,
) -> Result<Vec<T>, E>
where
    X: Sync,
    T: CacheCodec + Send,
    E: Send,
    F: Fn(&X) -> Result<T, E> + Sync,
{
    let _in_flight = cache.map(|cache| cache.pin(*fingerprint));
    pool.map_indexed(xs.len(), |i| {
        let Some(cache) = cache else { return f(&xs[i]) };
        if let Some(value) = cache.load_value::<T>(fingerprint, i as u64) {
            return Ok(value);
        }
        let value = f(&xs[i])?;
        cache.store_value(fingerprint, i as u64, &value);
        Ok(value)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::monte_carlo_sharded;
    use nanobound_cache::FingerprintBuilder;
    use nanobound_logic::{GateKind, Netlist as Nl};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nanobound_runner_cached_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn xor_pair() -> Nl {
        let mut nl = Nl::new("xp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[a, g1]).unwrap();
        nl.add_output("y1", g1).unwrap();
        nl.add_output("y2", g2).unwrap();
        nl
    }

    #[test]
    fn none_cache_matches_uncached_exactly() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let pool = ThreadPool::serial();
        let plain = monte_carlo_sharded(&pool, &nl, &cfg, 10_000, 19, 512).unwrap();
        let cached = monte_carlo_sharded_cached(&pool, &nl, &cfg, 10_000, 19, 512, None).unwrap();
        assert_eq!(plain, cached);
    }

    #[test]
    fn warm_cache_is_bit_identical_across_jobs() {
        let dir = scratch("warm");
        let cache = ShardCache::open(&dir).unwrap();
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let reference =
            monte_carlo_sharded(&ThreadPool::serial(), &nl, &cfg, 10_000, 19, 512).unwrap();
        let cold = monte_carlo_sharded_cached(
            &ThreadPool::new(4).unwrap(),
            &nl,
            &cfg,
            10_000,
            19,
            512,
            Some(&cache),
        )
        .unwrap();
        assert_eq!(cold, reference);
        let cold_stats = cache.stats();
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, 20); // ceil(10000/512)
        for jobs in [1, 3, 8] {
            let warm = monte_carlo_sharded_cached(
                &ThreadPool::new(jobs).unwrap(),
                &nl,
                &cfg,
                10_000,
                19,
                512,
                Some(&cache),
            )
            .unwrap();
            assert_eq!(warm, reference, "jobs={jobs}");
        }
        assert_eq!(cache.stats().hits, 60);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compiled_pipeline_matches_interpreted_chunk_merge() {
        // The default (compiled) pipeline against a hand-rolled merge of
        // interpreted chunk tallies: bit-identical, for several worker
        // counts (per-worker accumulators must not change the sums).
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.07, 5).unwrap();
        let (patterns, chunk) = (5_000usize, 512usize);
        let mut merged: Option<NoisyTally> = None;
        for i in 0..patterns.div_ceil(chunk) {
            let len = chunk.min(patterns - i * chunk);
            let shard_config = NoisyConfig::new(0.07, shard_seed(5, i as u64)).unwrap();
            let tally =
                monte_carlo_tally(&nl, &shard_config, len, shard_seed(9, i as u64)).unwrap();
            match &mut merged {
                None => merged = Some(tally),
                Some(total) => total.merge(&tally),
            }
        }
        let expected = merged.unwrap().outcome();
        for jobs in [1, 3, 8] {
            let pool = ThreadPool::new(jobs).unwrap();
            let out = monte_carlo_sharded(&pool, &nl, &cfg, patterns, 9, chunk).unwrap();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn shared_program_cache_compiles_once_and_changes_nothing() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let pool = ThreadPool::serial();
        let plain = monte_carlo_sharded(&pool, &nl, &cfg, 10_000, 19, 512).unwrap();
        let programs = ProgramCache::new();
        for _ in 0..3 {
            let out = monte_carlo_sharded_cached_programs(
                &pool,
                &nl,
                &cfg,
                10_000,
                19,
                512,
                None,
                Some(&programs),
            )
            .unwrap();
            assert_eq!(out, plain);
        }
        assert_eq!(programs.len(), 1, "one structure, one compilation");
    }

    #[test]
    fn distinct_parameters_use_distinct_entries() {
        let nl = xor_pair();
        let base = monte_carlo_fingerprint(&nl, &NoisyConfig::new(0.05, 1).unwrap(), 1000, 2, 64);
        let other_eps =
            monte_carlo_fingerprint(&nl, &NoisyConfig::new(0.06, 1).unwrap(), 1000, 2, 64);
        let other_seed =
            monte_carlo_fingerprint(&nl, &NoisyConfig::new(0.05, 9).unwrap(), 1000, 2, 64);
        let other_chunk =
            monte_carlo_fingerprint(&nl, &NoisyConfig::new(0.05, 1).unwrap(), 1000, 2, 128);
        let mut all = vec![base, other_eps, other_seed, other_chunk];
        all.dedup();
        assert_eq!(all.len(), 4, "fingerprints collided: {all:?}");
    }

    #[test]
    fn structurally_different_netlists_have_different_fingerprints() {
        let a = xor_pair();
        let mut b = xor_pair();
        let extra = b.add_gate(GateKind::Not, &[b.inputs()[0]]).unwrap();
        b.add_output("y3", extra).unwrap();
        let cfg = NoisyConfig::new(0.1, 1).unwrap();
        assert_ne!(
            monte_carlo_fingerprint(&a, &cfg, 100, 1, 64),
            monte_carlo_fingerprint(&b, &cfg, 100, 1, 64)
        );
    }

    #[test]
    fn monte_carlo_fingerprint_is_frozen() {
        // Monte-Carlo shard entries on disk address by this value, so it
        // may change only together with a FORMAT_VERSION bump (which
        // salts every fingerprint). Two inputs, a constant, a `Buf` read
        // by two gates, two outputs.
        let mut nl = Nl::new("pin");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let g = nl.add_gate(GateKind::Nand, &[buf, b]).unwrap();
        let h = nl.add_gate(GateKind::Xor, &[buf, one]).unwrap();
        nl.add_output("y", g).unwrap();
        nl.add_output("z", h).unwrap();
        let cfg = NoisyConfig::new(0.01, 7).unwrap();
        assert_eq!(
            monte_carlo_fingerprint(&nl, &cfg, 4096, 11, 256).to_hex(),
            "3f92e3f60cad5f5a94a012b00b9ad1b9"
        );
    }

    #[test]
    fn names_do_not_change_the_fingerprint() {
        let mut a = Nl::new("one");
        let x = a.add_input("x");
        let g = a.add_gate(GateKind::Not, &[x]).unwrap();
        a.add_output("y", g).unwrap();
        let mut b = Nl::new("two");
        let x = b.add_input("renamed");
        let g = b.add_gate(GateKind::Not, &[x]).unwrap();
        b.add_output("other", g).unwrap();
        let fp = |nl: &Nl| {
            let mut builder = FingerprintBuilder::new("t");
            netlist_fingerprint(&mut builder, nl);
            builder.finish()
        };
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn cached_grid_map_roundtrips_and_matches_serial() {
        let dir = scratch("grid");
        let cache = ShardCache::open(&dir).unwrap();
        let fp = FingerprintBuilder::new("grid-test").finish();
        let xs: Vec<f64> = (0..57).map(|i| f64::from(i) * 0.25).collect();
        let f = |x: &f64| vec![x.sin(), x.cos()];
        let serial: Vec<Vec<f64>> = xs.iter().map(f).collect();
        let pool = ThreadPool::new(4).unwrap();
        let cold = grid_map_cached(&pool, &xs, &fp, Some(&cache), f);
        assert_eq!(cold, serial);
        let warm = grid_map_cached(&pool, &xs, &fp, Some(&cache), |_| -> Vec<f64> {
            panic!("warm run must not recompute any cell")
        });
        assert_eq!(warm, serial);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_grid_map_cached_keeps_the_error_contract_and_skips_caching_errors() {
        let dir = scratch("try_grid");
        let cache = ShardCache::open(&dir).unwrap();
        let fp = FingerprintBuilder::new("try-grid-test").finish();
        let xs: Vec<u64> = (0..32).collect();
        let pool = ThreadPool::new(4).unwrap();
        let out: Result<Vec<u64>, u64> = try_grid_map_cached(&pool, &xs, &fp, Some(&cache), |&x| {
            if x % 10 == 3 {
                Err(x)
            } else {
                Ok(x * 2)
            }
        });
        assert_eq!(out.unwrap_err(), 3);
        // Successes were cached; failures were not, and still fail warm.
        let out2: Result<Vec<u64>, u64> =
            try_grid_map_cached(&pool, &xs, &fp, Some(&cache), |&x| {
                assert_eq!(x % 10, 3, "cached cell {x} recomputed");
                Err(x)
            });
        assert_eq!(out2.unwrap_err(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
