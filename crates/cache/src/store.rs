//! The on-disk shard store.
//!
//! Layout: one directory per experiment fingerprint, one file per
//! shard —
//!
//! ```text
//! <root>/
//!   <fingerprint-hex>/          32 lowercase hex chars
//!     0.bin  1.bin  2.bin ...   one entry per shard index
//! ```
//!
//! Every entry is framed as `magic ∥ version ∥ fingerprint ∥ shard ∥
//! payload-len ∥ checksum ∥ payload`; [`ShardCache::load`] re-verifies
//! the whole frame on every read, so a truncated, bit-flipped,
//! wrong-version or misplaced (renamed/moved) file is a counted miss,
//! never a crash and never a wrong answer. Writes go through a temp
//! file plus atomic rename — a reader can never observe a half-written
//! entry, and concurrent writers of the same shard are harmless (they
//! race to rename identical bytes).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::codec::{decode_from_slice, encode_to_vec, CacheCodec};
use crate::fingerprint::{Fingerprint, FNV_OFFSET, FNV_PRIME, FORMAT_VERSION};

/// Entry-frame magic: "nanobound shard cache".
pub(crate) const MAGIC: [u8; 4] = *b"NBSC";
/// Fixed frame bytes before the payload: magic, version, fingerprint,
/// shard index, len, checksum. The fingerprint and shard index are part
/// of the frame so an entry only ever verifies at its own address: a
/// file that lands under the wrong name (partial sync, manual copy) is
/// a miss, not a silently wrong shard.
const HEADER_LEN: usize = 4 + 4 + 16 + 8 + 8 + 8;

/// FNV-1a over the payload — an integrity check against torn writes and
/// media corruption (not an authenticity mechanism).
fn checksum(payload: &[u8]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &b in payload {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Disambiguates temp-file names between racing writers in one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Counters of one cache's traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from disk (frame verified, payload decoded).
    pub hits: u64,
    /// Lookups that fell through to recomputation — absent, unreadable,
    /// corrupt, stale-version or undecodable entries all count here.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Writes that failed (disk full, permissions); the result is still
    /// returned to the caller, only the cache stays cold.
    pub write_errors: u64,
}

/// A content-addressed, corruption-tolerant shard result store.
///
/// Shared by reference across worker threads (all counters are atomic;
/// the filesystem provides write atomicity via rename).
#[derive(Debug)]
pub struct ShardCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    /// Refcounts of experiment fingerprints currently being computed —
    /// the set a concurrent GC sweep must not delete out from under a
    /// request (see [`ShardCache::pin`]).
    in_flight: Mutex<HashMap<Fingerprint, usize>>,
}

/// An RAII pin marking one experiment fingerprint as in flight for the
/// lifetime of the guard; see [`ShardCache::pin`].
#[must_use = "dropping the guard immediately unpins the fingerprint"]
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    registry: &'a Mutex<HashMap<Fingerprint, usize>>,
    fingerprint: Fingerprint,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut pins = self.registry.lock().expect("in-flight registry lock");
        if let Some(count) = pins.get_mut(&self.fingerprint) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.fingerprint);
            }
        }
    }
}

impl ShardCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the directory cannot
    /// be created — the one failure that is a configuration error
    /// rather than a degraded-mode condition.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ShardCache {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            in_flight: Mutex::new(HashMap::new()),
        })
    }

    /// Pins `fingerprint` as in flight until the returned guard drops.
    ///
    /// A fingerprint is "in flight" while a request is between key
    /// computation and final result assembly — the window in which a
    /// concurrent [`ShardCache::sweep`] deleting its entries
    /// would discard work the request is about to read back or has just
    /// written. Pins are refcounted, so overlapping requests on the same
    /// experiment compose.
    pub fn pin(&self, fingerprint: Fingerprint) -> InFlightGuard<'_> {
        let mut pins = self.in_flight.lock().expect("in-flight registry lock");
        *pins.entry(fingerprint).or_insert(0) += 1;
        InFlightGuard {
            registry: &self.in_flight,
            fingerprint,
        }
    }

    /// A snapshot of the pinned fingerprints, deterministically ordered
    /// (by hex digest) — the `protected` argument a mid-flight GC sweep
    /// should pass.
    #[must_use]
    pub fn in_flight(&self) -> Vec<Fingerprint> {
        let pins = self.in_flight.lock().expect("in-flight registry lock");
        let mut all: Vec<Fingerprint> = pins.keys().copied().collect();
        all.sort_by_key(|fp| fp.to_bytes());
        all
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of one entry (exposed for tests and tooling).
    #[must_use]
    pub fn entry_path(&self, fingerprint: &Fingerprint, shard: u64) -> PathBuf {
        self.root
            .join(fingerprint.to_hex())
            .join(format!("{shard}.bin"))
    }

    /// Loads one shard's raw payload; `None` (a counted miss) for
    /// absent, truncated, corrupt or wrong-version entries.
    #[must_use]
    pub fn load(&self, fingerprint: &Fingerprint, shard: u64) -> Option<Vec<u8>> {
        match self.read_verified(fingerprint, shard) {
            Some(mut frame) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                frame.drain(..HEADER_LEN);
                Some(frame)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reads and frame-verifies one entry, returning the whole file
    /// (header included, payload at `HEADER_LEN..`) so callers can
    /// borrow the payload without a second copy.
    fn read_verified(&self, fingerprint: &Fingerprint, shard: u64) -> Option<Vec<u8>> {
        let bytes = fs::read(self.entry_path(fingerprint, shard)).ok()?;
        let (header, payload) = bytes.split_at_checked(HEADER_LEN)?;
        if header[..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(header[4..8].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        if header[8..24] != fingerprint.to_bytes() || header[24..32] != shard.to_le_bytes() {
            return None;
        }
        let len = u64::from_le_bytes(header[32..40].try_into().ok()?);
        if len != payload.len() as u64 {
            return None;
        }
        let stored_checksum = u64::from_le_bytes(header[40..48].try_into().ok()?);
        if stored_checksum != checksum(payload) {
            return None;
        }
        Some(bytes)
    }

    /// Stores one shard's payload, best-effort: failures are counted in
    /// [`CacheStats::write_errors`] and otherwise ignored — the cache
    /// never turns a computable result into an error.
    pub fn store(&self, fingerprint: &Fingerprint, shard: u64, payload: &[u8]) {
        match self.try_store(fingerprint, shard, payload) {
            Ok(()) => self.writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.write_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn try_store(&self, fingerprint: &Fingerprint, shard: u64, payload: &[u8]) -> io::Result<()> {
        let path = self.entry_path(fingerprint, shard);
        let dir = path.parent().expect("entry paths always have a parent");
        fs::create_dir_all(dir)?;
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&fingerprint.to_bytes());
        frame.extend_from_slice(&shard.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let tmp = dir.join(format!(
            "{shard}.tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, &frame)?;
        let renamed = fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }

    /// Loads and decodes one shard; decode failures are misses.
    #[must_use]
    pub fn load_value<T: CacheCodec>(&self, fingerprint: &Fingerprint, shard: u64) -> Option<T> {
        match self
            .read_verified(fingerprint, shard)
            .and_then(|frame| decode_from_slice(&frame[HEADER_LEN..]))
        {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Encodes and stores one shard (best-effort, like
    /// [`ShardCache::store`]).
    pub fn store_value<T: CacheCodec>(&self, fingerprint: &Fingerprint, shard: u64, value: &T) {
        self.store(fingerprint, shard, &encode_to_vec(value));
    }

    /// A snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nanobound_cache_store_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp(tag: &str) -> Fingerprint {
        FingerprintBuilder::new(tag).finish()
    }

    #[test]
    fn roundtrip_and_counters() {
        let dir = scratch("roundtrip");
        let cache = ShardCache::open(&dir).unwrap();
        let key = fp("a");
        assert_eq!(cache.load(&key, 0), None);
        cache.store(&key, 0, b"payload");
        assert_eq!(cache.load(&key, 0).as_deref(), Some(&b"payload"[..]));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                writes: 1,
                write_errors: 0
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_and_fingerprints_are_independent() {
        let dir = scratch("independent");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("a"), 0, b"a0");
        cache.store(&fp("a"), 1, b"a1");
        cache.store(&fp("b"), 0, b"b0");
        assert_eq!(cache.load(&fp("a"), 0).as_deref(), Some(&b"a0"[..]));
        assert_eq!(cache.load(&fp("a"), 1).as_deref(), Some(&b"a1"[..]));
        assert_eq!(cache.load(&fp("b"), 0).as_deref(), Some(&b"b0"[..]));
        assert_eq!(cache.load(&fp("b"), 1), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = scratch("truncated");
        let cache = ShardCache::open(&dir).unwrap();
        let key = fp("t");
        cache.store(&key, 3, b"some payload bytes");
        let path = cache.entry_path(&key, 3);
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(cache.load(&key, 3), None, "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_bit_is_a_miss() {
        let dir = scratch("bitflip");
        let cache = ShardCache::open(&dir).unwrap();
        let key = fp("f");
        cache.store(&key, 0, b"abc");
        let path = cache.entry_path(&key, 0);
        let clean = fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                fs::write(&path, &bytes).unwrap();
                assert_eq!(cache.load(&key, 0), None, "byte {byte} bit {bit}");
            }
        }
        // Restoring the clean bytes restores the hit.
        fs::write(&path, &clean).unwrap();
        assert_eq!(cache.load(&key, 0).as_deref(), Some(&b"abc"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misplaced_entries_are_misses_not_wrong_answers() {
        // A frame binds its own fingerprint and shard index, so a file
        // that ends up under another entry's path (renamed shard,
        // cross-fingerprint copy, botched sync) never verifies there.
        let dir = scratch("misplaced");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("a"), 3, b"shard three");
        // Renamed to a different shard index of the same experiment.
        fs::rename(cache.entry_path(&fp("a"), 3), cache.entry_path(&fp("a"), 4)).unwrap();
        assert_eq!(cache.load(&fp("a"), 4), None);
        // Copied under a different experiment's fingerprint.
        cache.store(&fp("a"), 3, b"shard three");
        fs::create_dir_all(cache.entry_path(&fp("b"), 3).parent().unwrap()).unwrap();
        fs::copy(cache.entry_path(&fp("a"), 3), cache.entry_path(&fp("b"), 3)).unwrap();
        assert_eq!(cache.load(&fp("b"), 3), None);
        // The original, correctly-placed entry still hits.
        assert_eq!(
            cache.load(&fp("a"), 3).as_deref(),
            Some(&b"shard three"[..])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_version_is_a_miss() {
        let dir = scratch("version");
        let cache = ShardCache::open(&dir).unwrap();
        let key = fp("v");
        cache.store(&key, 0, b"data");
        let path = cache.entry_path(&key, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // The checksum covers only the payload, so the frame is intact
        // and the version check alone must reject the entry.
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load(&key, 0), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn typed_roundtrip_and_decode_failure_is_a_miss() {
        let dir = scratch("typed");
        let cache = ShardCache::open(&dir).unwrap();
        let key = fp("typed");
        cache.store_value(&key, 0, &vec![1.5f64, -2.0]);
        assert_eq!(cache.load_value::<Vec<f64>>(&key, 0), Some(vec![1.5, -2.0]));
        // Valid frame, but the payload does not decode as the requested
        // type: a `u64` reads the length prefix and leaves the elements
        // as trailing bytes.
        assert_eq!(cache.load_value::<u64>(&key, 0), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pins_are_refcounted_and_released_on_drop() {
        let dir = scratch("pins");
        let cache = ShardCache::open(&dir).unwrap();
        assert!(cache.in_flight().is_empty());
        let a = cache.pin(fp("a"));
        let a_again = cache.pin(fp("a"));
        let b = cache.pin(fp("b"));
        assert_eq!(
            cache.in_flight().len(),
            2,
            "refcounts collapse to one entry"
        );
        drop(a);
        assert_eq!(
            cache.in_flight().len(),
            2,
            "fingerprint stays pinned while any guard lives"
        );
        drop(a_again);
        assert_eq!(cache.in_flight(), vec![fp("b")]);
        drop(b);
        assert!(cache.in_flight().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_flight_snapshot_is_deterministically_ordered() {
        let dir = scratch("pin_order");
        let cache = ShardCache::open(&dir).unwrap();
        let _guards: Vec<_> = ["z", "m", "a", "q"]
            .iter()
            .map(|tag| cache.pin(fp(tag)))
            .collect();
        let first = cache.in_flight();
        let mut sorted = first.clone();
        sorted.sort_by_key(|f| f.to_bytes());
        assert_eq!(first, sorted);
        assert_eq!(first, cache.in_flight(), "snapshots are stable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_into_unwritable_root_counts_write_error() {
        let dir = scratch("unwritable");
        let cache = ShardCache::open(&dir).unwrap();
        // Make the fingerprint directory a *file*, so create_dir_all fails.
        let key = fp("w");
        fs::write(dir.join(key.to_hex()), b"not a dir").unwrap();
        cache.store(&key, 0, b"data");
        assert_eq!(cache.stats().write_errors, 1);
        assert_eq!(cache.load(&key, 0), None); // still just a miss
        fs::remove_dir_all(&dir).unwrap();
    }
}
