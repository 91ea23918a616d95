//! The shard plan: the unit of relocatable Monte-Carlo work.
//!
//! A [`ShardPlan`] is the frozen division of one experiment's
//! `patterns` trials into `chunk`-sized shards. Each shard's random
//! streams are pure functions of `(master seed, shard index)` (via
//! [`shard_seed`]) and its tally merges by integer addition, so a shard
//! is *relocatable*: it can be computed by any worker of any process on
//! any machine and the merged outcome is bit-identical. That property
//! is what `nanobound cluster` distributes — a coordinator hands
//! [`ShardRange`]s to remote workers and merges whatever comes back, in
//! whatever order, without ever re-deriving a different result.
//!
//! [`monte_carlo_shard_tallies`] computes the per-shard tallies of one
//! range. It is the only Monte-Carlo executor in the crate: the worker
//! side of the cluster protocol, and the body of
//! [`monte_carlo`](crate::monte_carlo), which folds it over the whole
//! plan. [`tally_admissible`] is the single admission predicate for
//! tallies arriving from *outside* the live computation (cache entries,
//! remote workers): both paths cross-check against the live netlist
//! before merging, so a fingerprint collision, a forged cache entry or
//! a corrupt worker can force a recompute but never a wrong merge.

use std::sync::Arc;

use nanobound_cache::ShardCache;
use nanobound_logic::Netlist;
use nanobound_sim::{
    monte_carlo_tally, EngineKind, NoisyConfig, NoisyTally, ProgramCache, ShardSpec, SimError,
    SimProgram,
};

use crate::cached::monte_carlo_fingerprint;
use crate::pool::ThreadPool;
use crate::seed::shard_seed;

/// The frozen division of `patterns` trials into `chunk`-sized shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    patterns: usize,
    chunk: usize,
}

impl ShardPlan {
    /// Validates and freezes a plan.
    ///
    /// # Errors
    ///
    /// `patterns` must be at least 2 and `chunk` at least 1 — the same
    /// bounds every sharded Monte-Carlo entry point enforces.
    pub fn new(patterns: usize, chunk: usize) -> Result<Self, SimError> {
        if patterns < 2 {
            return Err(SimError::bad("patterns", patterns, "must be at least 2"));
        }
        if chunk == 0 {
            return Err(SimError::bad("chunk", chunk, "must be at least 1"));
        }
        Ok(ShardPlan { patterns, chunk })
    }

    /// Total trials of the experiment.
    #[must_use]
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Trials per full shard.
    #[must_use]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Number of shards (the last one may be short).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.patterns.div_ceil(self.chunk)
    }

    /// Trials of shard `shard` (< [`ShardPlan::shard_count`]).
    #[must_use]
    pub fn shard_patterns(&self, shard: usize) -> usize {
        self.chunk.min(self.patterns - shard * self.chunk)
    }

    /// Splits the whole plan with [`ShardRange::batches`].
    #[must_use]
    pub fn batches(&self, batch: usize) -> Vec<ShardRange> {
        ShardRange {
            first: 0,
            last: self.shard_count(),
        }
        .batches(batch)
        .collect()
    }
}

/// A half-open range `[first, last)` of shard indices — the unit of
/// work a cluster coordinator hands out and re-queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// First shard index of the range.
    pub first: usize,
    /// One past the last shard index.
    pub last: usize,
}

impl ShardRange {
    /// Number of shards in the range.
    #[must_use]
    pub fn len(&self) -> usize {
        self.last.saturating_sub(self.first)
    }

    /// Whether the range holds no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.last <= self.first
    }

    /// Splits the range into contiguous ranges of at most `batch`
    /// shards (a `batch` of 0 counts as 1) — the distribution
    /// granularity of the cluster coordinator.
    pub fn batches(self, batch: usize) -> impl Iterator<Item = ShardRange> {
        let batch = batch.max(1);
        (self.first..self.last)
            .step_by(batch)
            .map(move |first| ShardRange {
                first,
                last: first.saturating_add(batch).min(self.last),
            })
    }
}

/// Whether a tally that arrived from outside the live computation (a
/// cache entry, a remote worker) is admissible as shard result for a
/// `len`-trial shard of `netlist`.
///
/// The check guards the merge: [`NoisyTally::merge`] asserts matching
/// gate and output counts and adds with plain `+=`, so an inadmissible
/// tally must be treated as a miss (cache) or a counted worker failure
/// (cluster), never merged. Besides the shape, it requires the exact
/// invariants every real single-shard tally of either engine has: one
/// transition per consecutive pattern pair, no count of erroneous
/// patterns above `len`, and no toggle sum above one toggle per gate
/// per transition.
#[must_use]
pub fn tally_admissible(netlist: &Netlist, tally: &NoisyTally, len: usize) -> bool {
    let gates = netlist.gate_count();
    let trials = len as u64;
    let toggle_slots = (tally.transitions as u64).saturating_mul(gates as u64);
    tally.patterns == len
        && len.checked_sub(1) == Some(tally.transitions)
        && tally.gates == gates
        && tally.per_output_errors.len() == netlist.output_count()
        && tally.circuit_errors <= trials
        && tally
            .per_output_errors
            .iter()
            .all(|&errors| errors <= trials)
        && tally.clean_gate_toggles <= toggle_slots
        && tally.noisy_gate_toggles <= toggle_slots
}

/// Computes the per-shard tallies of `range` under `plan` — the worker
/// side of the cluster protocol.
///
/// Each returned tally is the bit-exact result of its shard, identical
/// to what any other process derives for the same
/// `(config, pattern_seed, plan)` — shards are relocatable by
/// construction. With a cache, shards are served from / written to
/// [`monte_carlo_fingerprint`], the address
/// [`monte_carlo`](crate::monte_carlo) uses too, so a cluster worker
/// warms the cache for later local runs and vice versa; the
/// fingerprint stays pinned against concurrent GC for the duration.
///
/// The evaluation backend is resolved per call from `NANOBOUND_ENGINE`
/// ([`EngineKind::from_env`]); both backends produce bit-identical
/// tallies.
///
/// # Errors
///
/// Invalid ranges, simulation failures, and a configuration error for
/// an unrecognized `NANOBOUND_ENGINE` value. Cache failures degrade to
/// recomputation, never errors.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_shard_tallies(
    pool: &ThreadPool,
    netlist: &Netlist,
    config: &NoisyConfig,
    plan: &ShardPlan,
    pattern_seed: u64,
    range: ShardRange,
    cache: Option<&ShardCache>,
    programs: Option<&ProgramCache>,
) -> Result<Vec<NoisyTally>, SimError> {
    if range.first > range.last || range.last > plan.shard_count() {
        return Err(SimError::bad(
            "shard range",
            format!("{}..{}", range.first, range.last),
            "must lie inside the plan's shard count",
        ));
    }
    if range.is_empty() {
        return Ok(Vec::new());
    }
    let engine = EngineKind::from_env()?;
    let fingerprint = cache.map(|_| {
        monte_carlo_fingerprint(netlist, config, plan.patterns(), pattern_seed, plan.chunk())
    });
    // Pin the experiment while shards are loaded, computed and stored:
    // a concurrent GC sweep must not reclaim them under us.
    let _in_flight = match (cache, &fingerprint) {
        (Some(cache), Some(fingerprint)) => Some(cache.pin(*fingerprint)),
        _ => None,
    };
    let load_shard = |i: usize, len: usize| -> Option<NoisyTally> {
        let (cache, fingerprint) = (cache?, fingerprint.as_ref()?);
        let tally = cache.load_value::<NoisyTally>(fingerprint, i as u64)?;
        tally_admissible(netlist, &tally, len).then_some(tally)
    };

    if engine == EngineKind::Interp {
        return pool
            .map_indexed(range.len(), |j| {
                let i = range.first + j;
                let len = plan.shard_patterns(i);
                if let Some(tally) = load_shard(i, len) {
                    return Ok(tally);
                }
                let shard_config =
                    NoisyConfig::new(config.epsilon, shard_seed(config.seed, i as u64))?;
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
            })
            .into_iter()
            .collect();
    }

    // Compiled engine: one program per call (or shared through the
    // program cache), one scratch per worker. Misses within a group run
    // through one batched tape pass — legal because the v2 fault stream
    // derives each shard's masks as pure functions of its own seed, so
    // batching changes wall-clock, never counts. Every computed shard
    // is stored individually, so each stays a relocatable unit.
    let program: Arc<SimProgram> = match programs {
        Some(cache) => cache.get_or_compile(netlist),
        None => Arc::new(SimProgram::compile(netlist)),
    };
    let batch = program.preferred_batch(plan.chunk());
    let groups = range.len().div_ceil(batch);
    let (group_tallies, _workers) = pool.map_indexed_init(
        groups,
        || program.scratch(),
        |scratch, g| -> Result<Vec<NoisyTally>, SimError> {
            let first = range.first + g * batch;
            let last = (first + batch).min(range.last);
            let mut out: Vec<Option<NoisyTally>> = Vec::with_capacity(last - first);
            let mut specs = Vec::new();
            let mut miss_pos = Vec::new();
            for i in first..last {
                let len = plan.shard_patterns(i);
                if let Some(tally) = load_shard(i, len) {
                    out.push(Some(tally));
                } else {
                    miss_pos.push(i - first);
                    specs.push(ShardSpec {
                        fault_seed: shard_seed(config.seed, i as u64),
                        pattern_seed: shard_seed(pattern_seed, i as u64),
                        patterns: len,
                    });
                    out.push(None);
                }
            }
            if !specs.is_empty() {
                let mut fresh = vec![program.empty_tally(); specs.len()];
                program.run_tally_batch(scratch, config.epsilon, &specs, &mut fresh)?;
                for (&pos, tally) in miss_pos.iter().zip(fresh) {
                    if let (Some(cache), Some(fingerprint)) = (cache, &fingerprint) {
                        cache.store_value(fingerprint, (first + pos) as u64, &tally);
                    }
                    out[pos] = Some(tally);
                }
            }
            Ok(out
                .into_iter()
                .map(|t| t.expect("every slot is a hit or a computed miss"))
                .collect())
        },
    );
    let mut tallies = Vec::with_capacity(range.len());
    for group in group_tallies {
        tallies.extend(group?);
    }
    Ok(tallies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::montecarlo::monte_carlo;
    use nanobound_logic::GateKind;

    fn xor_pair() -> Netlist {
        let mut nl = Netlist::new("xp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[a, g1]).unwrap();
        nl.add_output("y1", g1).unwrap();
        nl.add_output("y2", g2).unwrap();
        nl
    }

    #[test]
    fn plan_math_covers_every_pattern_exactly_once() {
        let plan = ShardPlan::new(10_000, 512).unwrap();
        assert_eq!(plan.shard_count(), 20);
        let total: usize = (0..plan.shard_count())
            .map(|i| plan.shard_patterns(i))
            .sum();
        assert_eq!(total, 10_000);
        assert_eq!(plan.shard_patterns(19), 10_000 - 19 * 512);
        assert!(ShardPlan::new(1, 512).is_err());
        assert!(ShardPlan::new(100, 0).is_err());
    }

    #[test]
    fn batches_tile_the_plan_contiguously() {
        let plan = ShardPlan::new(10_000, 512).unwrap();
        let whole = ShardRange {
            first: 0,
            last: plan.shard_count(),
        };
        for batch in [1, 3, 7, 20, 100] {
            let batches: Vec<ShardRange> = whole.batches(batch).collect();
            assert_eq!(batches[0].first, 0, "batch={batch}");
            assert_eq!(batches.last().unwrap().last, plan.shard_count());
            for pair in batches.windows(2) {
                assert_eq!(pair[0].last, pair[1].first, "batch={batch}");
                assert!(pair[0].len() <= batch);
            }
            assert_eq!(plan.batches(batch), batches);
        }
        // batch 0 is clamped, not a division by zero; a huge batch past
        // a nonzero start saturates instead of wrapping.
        assert_eq!(whole.batches(0).count(), plan.shard_count());
        let tail = ShardRange { first: 3, last: 9 };
        assert_eq!(tail.batches(usize::MAX).collect::<Vec<_>>(), [tail]);
    }

    #[test]
    fn range_tallies_merge_to_the_single_process_outcome() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let pool = ThreadPool::serial();
        let plan = ShardPlan::new(10_000, 512).unwrap();
        let reference = monte_carlo(&Exec::default(), &nl, &cfg, 10_000, 19, 512).unwrap();
        // Split the plan into uneven ranges, compute each independently
        // (as distinct cluster workers would), merge in a scrambled
        // order: bit-identical outcome.
        let mut merged: Option<NoisyTally> = None;
        for range in [
            ShardRange { first: 7, last: 20 },
            ShardRange { first: 0, last: 3 },
            ShardRange { first: 3, last: 7 },
        ] {
            let tallies =
                monte_carlo_shard_tallies(&pool, &nl, &cfg, &plan, 19, range, None, None).unwrap();
            assert_eq!(tallies.len(), range.len());
            for tally in &tallies {
                match &mut merged {
                    None => merged = Some(tally.clone()),
                    Some(total) => total.merge(tally),
                }
            }
        }
        assert_eq!(merged.unwrap().outcome(), reference);
    }

    #[test]
    fn range_tallies_are_admissible_and_cache_compatible() {
        let dir = std::env::temp_dir().join("nanobound_runner_shards_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ShardCache::open(&dir).unwrap();
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let pool = ThreadPool::serial();
        let plan = ShardPlan::new(5_000, 512).unwrap();
        let range = ShardRange {
            first: 0,
            last: plan.shard_count(),
        };
        let tallies =
            monte_carlo_shard_tallies(&pool, &nl, &cfg, &plan, 19, range, Some(&cache), None)
                .unwrap();
        for (i, tally) in tallies.iter().enumerate() {
            assert!(tally_admissible(&nl, tally, plan.shard_patterns(i)));
            assert!(!tally_admissible(&nl, tally, plan.shard_patterns(i) + 1));
        }
        // The shards landed under the merged pipeline's fingerprint:
        // a whole-experiment cached run is now all hits.
        let cached = Exec {
            cache: Some(&cache),
            ..Exec::default()
        };
        let warm = monte_carlo(&cached, &nl, &cfg, 5_000, 19, 512).unwrap();
        let cold = monte_carlo(&Exec::default(), &nl, &cfg, 5_000, 19, 512).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(cache.stats().hits as usize, plan.shard_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The computed tally of shard 0 of a 5,000-pattern, 512-chunk plan
    /// over [`xor_pair`], for forging variants of it.
    fn real_shard_tally(nl: &Netlist) -> NoisyTally {
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let plan = ShardPlan::new(5_000, 512).unwrap();
        let range = ShardRange { first: 0, last: 1 };
        let mut tallies = monte_carlo_shard_tallies(
            &ThreadPool::serial(),
            nl,
            &cfg,
            &plan,
            19,
            range,
            None,
            None,
        )
        .unwrap();
        tallies.pop().unwrap()
    }

    #[test]
    fn impossible_counts_are_inadmissible() {
        let nl = xor_pair();
        let real = real_shard_tally(&nl);
        assert!(tally_admissible(&nl, &real, 512));
        let slots = (511 * nl.gate_count()) as u64;
        let forged = |forge: &dyn Fn(&mut NoisyTally)| {
            let mut tally = real.clone();
            forge(&mut tally);
            tally
        };
        for (bound, tally) in [
            ("transitions", forged(&|t| t.transitions = 0)),
            ("circuit errors", forged(&|t| t.circuit_errors = 513)),
            (
                "per-output errors",
                forged(&|t| t.per_output_errors[1] = 513),
            ),
            (
                "clean toggles",
                forged(&|t| t.clean_gate_toggles = slots + 1),
            ),
            (
                "noisy toggles",
                forged(&|t| t.noisy_gate_toggles = slots + 1),
            ),
        ] {
            assert!(!tally_admissible(&nl, &tally, 512), "{bound} admitted");
        }
        // Each bound is inclusive: a tally at the limits is possible.
        let mut limit = real.clone();
        limit.circuit_errors = 512;
        limit.per_output_errors = vec![512; nl.output_count()];
        limit.clean_gate_toggles = slots;
        limit.noisy_gate_toggles = slots;
        assert!(tally_admissible(&nl, &limit, 512));
        // A huge transition count cannot overflow the toggle bound.
        let mut huge = real;
        huge.transitions = usize::MAX;
        huge.clean_gate_toggles = u64::MAX;
        assert!(!tally_admissible(&nl, &huge, 512));
    }

    #[test]
    fn forged_cache_entries_recompute_instead_of_merging() {
        // A correctly framed entry under the experiment's own address
        // whose counts no real shard can produce: more erroneous
        // patterns than patterns, no transitions, absurd toggles.
        let dir = std::env::temp_dir().join("nanobound_runner_shards_forged");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ShardCache::open(&dir).unwrap();
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let cold = monte_carlo(&Exec::default(), &nl, &cfg, 5_000, 19, 512).unwrap();

        let mut forged = real_shard_tally(&nl);
        forged.transitions = 0;
        forged.circuit_errors = 513;
        forged.clean_gate_toggles = 1 << 50;
        let fingerprint = monte_carlo_fingerprint(&nl, &cfg, 5_000, 19, 512);
        cache.store_value(&fingerprint, 0, &forged);

        let cached = Exec {
            cache: Some(&cache),
            ..Exec::default()
        };
        let warm = monte_carlo(&cached, &nl, &cfg, 5_000, 19, 512).unwrap();
        assert_eq!(warm, cold, "a forged entry changed the outcome");
        // The forgery was overwritten by the recomputed shard.
        let stored: NoisyTally = cache.load_value(&fingerprint, 0).unwrap();
        assert_eq!(stored, real_shard_tally(&nl));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_ranges_error_and_empty_ranges_are_empty() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let pool = ThreadPool::serial();
        let plan = ShardPlan::new(5_000, 512).unwrap();
        let bad = ShardRange { first: 0, last: 99 };
        assert!(monte_carlo_shard_tallies(&pool, &nl, &cfg, &plan, 19, bad, None, None).is_err());
        let empty = ShardRange { first: 3, last: 3 };
        let tallies =
            monte_carlo_shard_tallies(&pool, &nl, &cfg, &plan, 19, empty, None, None).unwrap();
        assert!(tallies.is_empty());
    }
}
