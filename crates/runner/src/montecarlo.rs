//! Chunked, deterministic parallel Monte-Carlo for noisy simulation.
//!
//! A `patterns`-trial experiment is split into fixed-size chunks. Chunk
//! `i` draws its input patterns and fault masks from RNGs seeded with
//! [`shard_seed`]`(seed, i)` — a pure function of the master seeds and
//! the chunk index — and produces an integer
//! [`NoisyTally`](nanobound_sim::NoisyTally). Tallies are merged with
//! plain integer addition, so the final outcome depends only on
//! `(netlist, config, patterns, pattern_seed, chunk)`, never on the
//! worker count or the steal schedule: `--jobs N` is byte-identical to
//! `--jobs 1`.
//!
//! The chunk size is part of the experiment's identity (it fixes the
//! RNG stream layout and the set of observed pattern transitions), so
//! callers that want reproducible artifacts must hold it constant —
//! [`DEFAULT_CHUNK`] is the workspace-wide convention.

use nanobound_logic::Netlist;
use nanobound_sim::{NoisyConfig, NoisyOutcome, SimError};

use crate::exec::Exec;
use crate::shards::{monte_carlo_shard_tallies, ShardPlan, ShardRange};

/// Workspace-wide default Monte-Carlo chunk size (patterns per shard).
///
/// 4096 patterns = 64 machine words per signal: large enough that the
/// per-chunk topological pass dominates scheduling overhead, small
/// enough that 8+ workers stay busy on the 10⁴–10⁵-trial runs the
/// experiments use.
pub const DEFAULT_CHUNK: usize = 4096;

/// Runs the paired clean/noisy Monte-Carlo experiment over `patterns`
/// random vectors, split into `chunk`-sized shards executed on
/// `exec.pool`.
///
/// Shard tallies come from [`monte_carlo_shard_tallies`] over the whole
/// plan, so they are served from / written to `exec.cache` and run on
/// `exec.programs`'s shared tape when those are present, and merge by
/// integer addition. Identical arguments therefore produce a
/// bit-identical [`NoisyOutcome`] for every pool size and every cache
/// state. The result is *not* the same stream as the serial
/// [`nanobound_sim::monte_carlo`] (which draws one unbroken RNG
/// sequence); the chunked layout is its own reproducibility contract.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `patterns < 2` or `chunk == 0`,
/// a configuration error for an unrecognized `NANOBOUND_ENGINE` value,
/// and propagates simulation failures (input-count mismatches) from the
/// shards. Cache failures degrade to recomputation, never errors.
///
/// # Examples
///
/// ```
/// use nanobound_cache::ShardCache;
/// use nanobound_gen::parity;
/// use nanobound_runner::{monte_carlo, Exec, ThreadPool, DEFAULT_CHUNK};
/// use nanobound_sim::NoisyConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("nanobound-runner-doc-cache");
/// # std::fs::remove_dir_all(&dir).ok();
/// let cache = ShardCache::open(&dir)?;
/// let tree = parity::parity_tree(8, 2)?;
/// let config = NoisyConfig::new(0.01, 7)?;
///
/// let serial = monte_carlo(&Exec::default(), &tree, &config, 20_000, 11, DEFAULT_CHUNK)?;
/// let cached = Exec { cache: Some(&cache), ..Exec::new(ThreadPool::new(4)?) };
/// let cold = monte_carlo(&cached, &tree, &config, 20_000, 11, DEFAULT_CHUNK)?;
/// let warm = monte_carlo(&cached, &tree, &config, 20_000, 11, DEFAULT_CHUNK)?;
/// assert_eq!(serial, cold);
/// assert_eq!(serial, warm);
/// assert!(cache.stats().hits > 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo(
    exec: &Exec<'_>,
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
    chunk: usize,
) -> Result<NoisyOutcome, SimError> {
    let plan = ShardPlan::new(patterns, chunk)?;
    let all = ShardRange {
        first: 0,
        last: plan.shard_count(),
    };
    let tallies = monte_carlo_shard_tallies(
        &exec.pool,
        netlist,
        config,
        &plan,
        pattern_seed,
        all,
        exec.cache,
        exec.programs,
    )?;
    let merged = tallies
        .into_iter()
        .reduce(|mut total, tally| {
            total.merge(&tally);
            total
        })
        .expect("patterns >= 2 yields at least one shard");
    Ok(merged.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use nanobound_logic::{GateKind, Netlist as Nl};

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
    fn jobs_do_not_change_the_outcome() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let reference = monte_carlo(&Exec::default(), &nl, &cfg, 10_000, 19, 512).unwrap();
        for jobs in [2, 3, 4, 8] {
            let exec = Exec::new(ThreadPool::new(jobs).unwrap());
            let out = monte_carlo(&exec, &nl, &cfg, 10_000, 19, 512).unwrap();
            assert_eq!(out, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn chunk_size_is_part_of_the_contract() {
        // Different chunkings lay out the RNG streams differently: the
        // outcomes are statistically equivalent but not bitwise equal.
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let exec = Exec::default();
        let a = monte_carlo(&exec, &nl, &cfg, 10_000, 19, 512).unwrap();
        let b = monte_carlo(&exec, &nl, &cfg, 10_000, 19, 1024).unwrap();
        assert_ne!(a, b);
        assert!((a.circuit_error_rate - b.circuit_error_rate).abs() < 0.02);
    }

    #[test]
    fn statistics_match_the_unsharded_engine() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.1, 3).unwrap();
        let exec = Exec::new(ThreadPool::new(4).unwrap());
        let sharded = monte_carlo(&exec, &nl, &cfg, 100_000, 5, 4096).unwrap();
        let plain = nanobound_sim::monte_carlo(&nl, &cfg, 100_000, 5).unwrap();
        assert!(
            (sharded.circuit_error_rate - plain.circuit_error_rate).abs() < 0.01,
            "sharded {} vs plain {}",
            sharded.circuit_error_rate,
            plain.circuit_error_rate
        );
        assert!((sharded.noisy_avg_gate_activity - plain.noisy_avg_gate_activity).abs() < 0.01);
    }

    #[test]
    fn tail_chunk_shorter_than_chunk_size_is_handled() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.2, 1).unwrap();
        // 10 patterns in chunks of 3: shards of 3, 3, 3, 1.
        let exec = Exec::new(ThreadPool::new(2).unwrap());
        let out = monte_carlo(&exec, &nl, &cfg, 10, 2, 3).unwrap();
        assert_eq!(out.patterns, 10);
        let serial = monte_carlo(&Exec::default(), &nl, &cfg, 10, 2, 3).unwrap();
        assert_eq!(out, serial);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.1, 0).unwrap();
        let exec = Exec::default();
        assert!(monte_carlo(&exec, &nl, &cfg, 1, 0, 64).is_err());
        assert!(monte_carlo(&exec, &nl, &cfg, 100, 0, 0).is_err());
    }
}
