//! Cache addressing of Monte-Carlo shards.
//!
//! [`monte_carlo_fingerprint`] is the address under which
//! [`monte_carlo`](crate::monte_carlo) and
//! [`monte_carlo_shard_tallies`](crate::monte_carlo_shard_tallies)
//! store chunk tallies in [`Exec::cache`](crate::Exec::cache). Tallies
//! are integer counts encoded bit-exactly, so a warm-cache run is
//! **byte-identical** to a cold run, to a run without a cache and to
//! `--jobs 1`: the cache changes wall-clock time, never results.
//!
//! **Staleness and corruption.** The fingerprint hashes everything a
//! shard's result depends on (netlist structure, ε, master seeds, chunk
//! size, trial count, and the workspace [`FORMAT_VERSION`] salt), so a
//! parameter change addresses a different entry set instead of reading
//! stale data. Unreadable or corrupt entries are counted misses and
//! recomputed; decoded tallies are additionally cross-checked against
//! the live netlist before being merged
//! ([`tally_admissible`](crate::tally_admissible)), so even a
//! fingerprint collision cannot panic the merge.
//!
//! [`FORMAT_VERSION`]: nanobound_cache::FORMAT_VERSION

use nanobound_cache::Fingerprint;
use nanobound_logic::Netlist;
use nanobound_sim::NoisyConfig;

// Re-exported from `nanobound-sim`, where the layered fingerprints
// live so the compiled [`ProgramCache`] can address programs by the
// same structural identity the experiment caches use.
pub use nanobound_sim::{experiment_builder, netlist_fingerprint};

/// The fingerprint under which [`monte_carlo`](crate::monte_carlo)
/// stores its chunk tallies (exposed so tests can corrupt specific
/// entries).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::montecarlo::monte_carlo;
    use crate::pool::ThreadPool;
    use crate::seed::shard_seed;
    use nanobound_cache::{FingerprintBuilder, ShardCache};
    use nanobound_logic::{GateKind, Netlist as Nl};
    use nanobound_sim::{monte_carlo_tally, NoisyTally, ProgramCache};

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
    fn warm_cache_is_bit_identical_across_jobs() {
        let dir = scratch("warm");
        let cache = ShardCache::open(&dir).unwrap();
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let reference = monte_carlo(&Exec::default(), &nl, &cfg, 10_000, 19, 512).unwrap();
        let with_cache = |jobs: usize| Exec {
            cache: Some(&cache),
            ..Exec::new(ThreadPool::new(jobs).unwrap())
        };
        let cold = monte_carlo(&with_cache(4), &nl, &cfg, 10_000, 19, 512).unwrap();
        assert_eq!(cold, reference);
        let cold_stats = cache.stats();
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, 20); // ceil(10000/512)
        for jobs in [1, 3, 8] {
            let warm = monte_carlo(&with_cache(jobs), &nl, &cfg, 10_000, 19, 512).unwrap();
            assert_eq!(warm, reference, "jobs={jobs}");
        }
        assert_eq!(cache.stats().hits, 60);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compiled_pipeline_matches_interpreted_chunk_merge() {
        // The default (compiled) pipeline against a hand-rolled merge of
        // interpreted chunk tallies: bit-identical, for several worker
        // counts.
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
            let exec = Exec::new(ThreadPool::new(jobs).unwrap());
            let out = monte_carlo(&exec, &nl, &cfg, patterns, 9, chunk).unwrap();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn shared_program_cache_compiles_once_and_changes_nothing() {
        let nl = xor_pair();
        let cfg = NoisyConfig::new(0.05, 17).unwrap();
        let plain = monte_carlo(&Exec::default(), &nl, &cfg, 10_000, 19, 512).unwrap();
        let programs = ProgramCache::new();
        let exec = Exec {
            programs: Some(&programs),
            ..Exec::default()
        };
        for _ in 0..3 {
            let out = monte_carlo(&exec, &nl, &cfg, 10_000, 19, 512).unwrap();
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
}
