//! Corruption-tolerance suite for the runner entry points with a cache.
//!
//! The cache's contract is that it can *never* change a result or crash
//! a run: a truncated, bit-flipped, oversized or garbage entry is a
//! counted miss, the shard recomputes, and the merged outcome stays
//! byte-identical to a cold (or uncached) run. These tests damage
//! on-disk entries mid-suite and assert exactly that.

use std::fs;
use std::path::PathBuf;

use nanobound_cache::ShardCache;
use nanobound_logic::{GateKind, Netlist};
use nanobound_runner::{monte_carlo, monte_carlo_fingerprint, Exec, ThreadPool};
use nanobound_sim::NoisyConfig;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nanobound_cache_corruption_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn xor_chain() -> Netlist {
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let mut node = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
    for _ in 0..4 {
        node = nl.add_gate(GateKind::Xor, &[node, a]).unwrap();
    }
    nl.add_output("y", node).unwrap();
    nl
}

const PATTERNS: usize = 6_000;
const CHUNK: usize = 512; // 12 shards: 11 full + 1 tail

#[test]
fn truncated_entries_recompute_to_identical_results() {
    let dir = scratch("truncate");
    let cache = ShardCache::open(&dir).unwrap();
    let nl = xor_chain();
    let cfg = NoisyConfig::new(0.03, 5).unwrap();
    let pool = ThreadPool::new(2).unwrap();
    let exec = Exec {
        cache: Some(&cache),
        ..Exec::new(pool)
    };

    let cold = monte_carlo(&exec, &nl, &cfg, PATTERNS, 7, CHUNK).unwrap();
    let uncached = monte_carlo(&Exec::new(pool), &nl, &cfg, PATTERNS, 7, CHUNK).unwrap();
    assert_eq!(cold, uncached);

    // Truncate a few entries at different depths: empty file, inside
    // the header, inside the payload.
    let fp = monte_carlo_fingerprint(&nl, &cfg, PATTERNS, 7, CHUNK);
    for (shard, keep) in [(0u64, 0usize), (3, 9), (11, 40)] {
        let path = cache.entry_path(&fp, shard);
        let bytes = fs::read(&path).unwrap();
        assert!(keep < bytes.len());
        fs::write(&path, &bytes[..keep]).unwrap();
    }

    let before = cache.stats();
    let warm = monte_carlo(&exec, &nl, &cfg, PATTERNS, 7, CHUNK).unwrap();
    assert_eq!(warm, cold, "corruption changed the outcome");
    let after = cache.stats();
    assert_eq!(
        after.misses - before.misses,
        3,
        "3 damaged shards must miss"
    );
    assert_eq!(after.hits - before.hits, 9, "undamaged shards must hit");

    // The damaged entries were rewritten: a third run is all hits.
    let third = monte_carlo(&exec, &nl, &cfg, PATTERNS, 7, CHUNK).unwrap();
    assert_eq!(third, cold);
    assert_eq!(cache.stats().hits - after.hits, 12);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_entries_recompute_to_identical_results() {
    let dir = scratch("bitflip");
    let cache = ShardCache::open(&dir).unwrap();
    let nl = xor_chain();
    let cfg = NoisyConfig::new(0.08, 21).unwrap();
    let exec = Exec {
        cache: Some(&cache),
        ..Exec::default()
    };

    let cold = monte_carlo(&exec, &nl, &cfg, PATTERNS, 9, CHUNK).unwrap();

    // Flip one bit in every entry — header bytes, checksum bytes and
    // payload bytes alike.
    let fp = monte_carlo_fingerprint(&nl, &cfg, PATTERNS, 9, CHUNK);
    let shards = PATTERNS.div_ceil(CHUNK) as u64;
    for shard in 0..shards {
        let path = cache.entry_path(&fp, shard);
        let mut bytes = fs::read(&path).unwrap();
        let target = (shard as usize * 7) % bytes.len();
        bytes[target] ^= 1 << (shard % 8);
        fs::write(&path, &bytes).unwrap();
    }

    let before = cache.stats();
    let warm = monte_carlo(&exec, &nl, &cfg, PATTERNS, 9, CHUNK).unwrap();
    assert_eq!(warm, cold, "bit flips changed the outcome");
    assert_eq!(
        cache.stats().misses - before.misses,
        shards,
        "every flipped entry must be rejected"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_and_oversized_entries_never_panic() {
    let dir = scratch("garbage");
    let cache = ShardCache::open(&dir).unwrap();
    let nl = xor_chain();
    let cfg = NoisyConfig::new(0.05, 3).unwrap();
    let fp = monte_carlo_fingerprint(&nl, &cfg, PATTERNS, 4, CHUNK);

    // Pre-seed hostile entries before any run: random noise, a valid
    // frame around garbage, an entry claiming an absurd payload length.
    fs::create_dir_all(cache.entry_path(&fp, 0).parent().unwrap()).unwrap();
    fs::write(cache.entry_path(&fp, 0), b"not a cache entry at all").unwrap();
    cache.store(&fp, 1, b"valid frame, invalid NoisyTally payload");
    let mut oversized = b"NBSC".to_vec();
    oversized.extend_from_slice(&1u32.to_le_bytes());
    oversized.extend_from_slice(&u64::MAX.to_le_bytes());
    oversized.extend_from_slice(&[0u8; 16]);
    fs::write(cache.entry_path(&fp, 2), &oversized).unwrap();

    let exec = Exec {
        cache: Some(&cache),
        ..Exec::default()
    };
    let out = monte_carlo(&exec, &nl, &cfg, PATTERNS, 4, CHUNK).unwrap();
    let reference = monte_carlo(&Exec::default(), &nl, &cfg, PATTERNS, 4, CHUNK).unwrap();
    assert_eq!(out, reference);
    fs::remove_dir_all(&dir).unwrap();
}
