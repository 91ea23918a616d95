//! Cross-run storage for ε-independent profile measurements.
//!
//! A `profile` request measures two things about a netlist: its
//! activity profile (signal probabilities + switching activity under
//! random patterns) and its Boolean sensitivity. Neither depends on the
//! fault rate ε — activity and sensitivity are functions of structure,
//! pattern count and seed only — yet an ε-grid sweep re-measured both
//! for every grid point because the only persistent store keyed on the
//! whole request. [`ProfileStore`] persists each measurement under an
//! experiment-layer fingerprint that deliberately *excludes* ε, so one
//! measurement serves the entire grid, across runs and processes.
//!
//! The store is a thin layer over [`ShardCache`] and intentionally
//! shares its **root directory** with the shard cache rather than
//! nesting a private subdirectory inside it: [`ShardCache::sweep`]
//! classifies every file under the root, and a foreign subdirectory
//! would be misread as garbage. Sharing the root keeps profile entries
//! first-class citizens of the same GC policy. Collisions are
//! impossible because fingerprints carry their domain tag, and the
//! atomic temp-file + rename write path makes two `ShardCache`
//! instances over one root safe.
//!
//! Per-[`ProfileLayer`] reuse counters make sharing observable — the
//! `profile` summary and the `stats` serve workload report them.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::CacheCodec;
use crate::fingerprint::Fingerprint;
use crate::store::{CacheStats, InFlightGuard, ShardCache};

/// Which ε-independent measurement a profile entry holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileLayer {
    /// Signal probabilities and switching activity (random patterns).
    Activity,
    /// Boolean sensitivity (sampled single-bit-flip analysis).
    Sensitivity,
}

/// Reuse counters of one [`ProfileLayer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileLayerStats {
    /// Measurements served from a previous run (or grid point).
    pub reused: u64,
    /// Lookups that fell through to a fresh measurement.
    pub measured: u64,
}

/// A persistent, corruption-tolerant store of ε-independent profile
/// measurements, keyed by experiment-layer fingerprints.
///
/// Inherits the shard cache's corruption contract wholesale: every
/// failure mode is a counted miss and a re-measurement, never an error
/// and never a wrong answer, so a warm sweep is byte-identical to a
/// cold one.
#[derive(Debug)]
pub struct ProfileStore {
    disk: ShardCache,
    activity_reused: AtomicU64,
    activity_measured: AtomicU64,
    sensitivity_reused: AtomicU64,
    sensitivity_measured: AtomicU64,
}

impl ProfileStore {
    /// Opens (creating if needed) a profile store rooted at `root` —
    /// normally the same directory as the shard cache, so that
    /// [`ShardCache::sweep`] classifies profile entries under one GC
    /// policy instead of misreading a nested directory as garbage.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the directory cannot
    /// be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(ProfileStore {
            disk: ShardCache::open(root)?,
            activity_reused: AtomicU64::new(0),
            activity_measured: AtomicU64::new(0),
            sensitivity_reused: AtomicU64::new(0),
            sensitivity_measured: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        self.disk.root()
    }

    /// Loads one measurement; `None` (a counted fresh-measurement) for
    /// absent, corrupt, stale-version or undecodable entries.
    #[must_use]
    pub fn load<T: CacheCodec>(&self, layer: ProfileLayer, fingerprint: &Fingerprint) -> Option<T> {
        let value = self.disk.load_value(fingerprint, 0);
        let (reused, measured) = self.counters(layer);
        if value.is_some() {
            reused.fetch_add(1, Ordering::Relaxed);
        } else {
            measured.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Stores one measurement (best-effort, like [`ShardCache::store`]).
    pub fn store<T: CacheCodec>(&self, fingerprint: &Fingerprint, value: &T) {
        self.disk.store_value(fingerprint, 0, value);
    }

    /// Pins a measurement fingerprint as in flight (see
    /// [`ShardCache::pin`]); a mid-flight GC sweep over the shared root
    /// must treat pinned profile entries as protected too.
    pub fn pin(&self, fingerprint: Fingerprint) -> InFlightGuard<'_> {
        self.disk.pin(fingerprint)
    }

    /// The pinned measurement fingerprints, deterministically ordered
    /// (see [`ShardCache::in_flight`]).
    #[must_use]
    pub fn in_flight(&self) -> Vec<Fingerprint> {
        self.disk.in_flight()
    }

    /// Reuse counters of one layer.
    #[must_use]
    pub fn layer_stats(&self, layer: ProfileLayer) -> ProfileLayerStats {
        let (reused, measured) = self.counters(layer);
        ProfileLayerStats {
            reused: reused.load(Ordering::Relaxed),
            measured: measured.load(Ordering::Relaxed),
        }
    }

    /// The underlying disk-traffic counters (both layers combined).
    #[must_use]
    pub fn io_stats(&self) -> CacheStats {
        self.disk.stats()
    }

    fn counters(&self, layer: ProfileLayer) -> (&AtomicU64, &AtomicU64) {
        match layer {
            ProfileLayer::Activity => (&self.activity_reused, &self.activity_measured),
            ProfileLayer::Sensitivity => (&self.sensitivity_reused, &self.sensitivity_measured),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nanobound_profile_store_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_counts_per_layer() {
        let dir = scratch("roundtrip");
        let store = ProfileStore::open(&dir).unwrap();
        let fp = FingerprintBuilder::new("profile-activity").finish();
        assert_eq!(
            store.load::<Vec<f64>>(ProfileLayer::Activity, &fp),
            None,
            "cold store misses"
        );
        store.store(&fp, &vec![0.5f64, 0.25]);
        assert_eq!(
            store.load::<Vec<f64>>(ProfileLayer::Activity, &fp),
            Some(vec![0.5, 0.25])
        );
        assert_eq!(
            store.layer_stats(ProfileLayer::Activity),
            ProfileLayerStats {
                reused: 1,
                measured: 1
            }
        );
        assert_eq!(
            store.layer_stats(ProfileLayer::Sensitivity),
            ProfileLayerStats::default(),
            "layers count independently"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reuse_survives_reopening_the_store() {
        let dir = scratch("reopen");
        let fp = FingerprintBuilder::new("profile-sensitivity").finish();
        {
            let store = ProfileStore::open(&dir).unwrap();
            store.store(&fp, &0.75f64);
        }
        let store = ProfileStore::open(&dir).unwrap();
        assert_eq!(
            store.load::<f64>(ProfileLayer::Sensitivity, &fp),
            Some(0.75)
        );
        assert_eq!(store.layer_stats(ProfileLayer::Sensitivity).reused, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shares_a_root_with_a_shard_cache_without_collisions() {
        // The store deliberately lives at the shard cache's root (a
        // nested directory would be misclassified by the GC sweep);
        // domain-tagged fingerprints keep the two namespaces apart.
        let dir = scratch("shared_root");
        let shards = ShardCache::open(&dir).unwrap();
        let store = ProfileStore::open(&dir).unwrap();
        let shard_fp = FingerprintBuilder::new("monte-carlo").finish();
        let profile_fp = FingerprintBuilder::new("profile-activity").finish();
        shards.store_value(&shard_fp, 0, &vec![1u64, 2]);
        store.store(&profile_fp, &vec![0.5f64]);
        assert_eq!(
            shards.load_value::<Vec<u64>>(&shard_fp, 0),
            Some(vec![1, 2])
        );
        assert_eq!(
            store.load::<Vec<f64>>(ProfileLayer::Activity, &profile_fp),
            Some(vec![0.5])
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
