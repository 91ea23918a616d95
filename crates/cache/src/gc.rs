//! Garbage collection for the on-disk shard store.
//!
//! The cache grows without bound by design — entries are immutable and
//! a [`FORMAT_VERSION`] bump orphans old directories instead of mutating
//! them — so long-lived deployments (the `nanobound serve` engine) need
//! a way to reclaim disk. [`ShardCache::sweep`] is that reclaimer: a
//! single best-effort pass. It runs at service startup (before any
//! requests are in flight) and on demand mid-flight, in which case the
//! caller passes the pinned in-flight fingerprint set
//! ([`ShardCache::in_flight`]) as `protected`.
//!
//! **The sweep contract** (relied on by `nanobound-service` and pinned
//! by the tests below):
//!
//! - *Protected entries are never deleted.* An entry whose directory is
//!   the hex form of a fingerprint in the caller's `protected` set —
//!   and whose frame carries the current [`FORMAT_VERSION`] — is
//!   immune, regardless of age or budget pressure. The byte budget is
//!   therefore a target, not a guarantee: if protected entries alone
//!   exceed it, everything else is evicted and the sweep stops there.
//! - *Garbage goes first.* Leftover temp files from crashed writers and
//!   entries that can never hit again (unreadable, wrong magic, stale
//!   format version) are reclaimed before any live entry is considered.
//! - *Live entries leave oldest-first.* Under budget pressure,
//!   current-version entries are evicted by ascending modification
//!   time (ties broken by path, so a sweep is deterministic for a
//!   fixed tree).
//! - *Failures are non-fatal.* An undeletable file is counted in
//!   [`GcReport::failed_deletes`], its bytes stay in the live total,
//!   and the sweep continues — exactly like every other cache failure
//!   mode, GC can degrade but never error or panic.
//!
//! [`FORMAT_VERSION`]: crate::FORMAT_VERSION

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, SystemTime};

use crate::fingerprint::{Fingerprint, FORMAT_VERSION};
use crate::store::{ShardCache, MAGIC};

/// What a sweep is allowed to keep.
///
/// The default policy (`None`/`None`) deletes only unconditional
/// garbage: temp-file leftovers and entries of a stale format version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Target for the total size of kept entries, in bytes. `None`
    /// means no size pressure.
    pub max_bytes: Option<u64>,
    /// Maximum age (by file modification time) of kept entries. `None`
    /// means entries never age out.
    pub max_age: Option<Duration>,
}

/// What one sweep did, and what it left behind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries (files) kept, protected ones included.
    pub kept_entries: u64,
    /// Total bytes of kept entries (files that failed to delete count
    /// here too — they are still on disk).
    pub kept_bytes: u64,
    /// Files deleted.
    pub deleted_entries: u64,
    /// Bytes reclaimed.
    pub deleted_bytes: u64,
    /// Deletions that failed; non-fatal, the file is counted as kept.
    pub failed_deletes: u64,
}

/// One deletion candidate, with everything the eviction order needs.
struct Candidate {
    path: PathBuf,
    bytes: u64,
    modified: SystemTime,
    /// Lower class evicts first: 0 = temp leftover, 1 = dead entry
    /// (unreadable or stale version), 2 = live current-version entry.
    class: u8,
    protected: bool,
}

/// Reads just enough of an entry to classify it: `true` when the frame
/// starts with the current magic and [`FORMAT_VERSION`]. Only the
/// 8-byte prefix is read, so sweeping a multi-gigabyte store never
/// loads entry payloads.
fn is_current_version(path: &std::path::Path) -> bool {
    use std::io::Read;
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    let mut header = [0u8; 8];
    if file.read_exact(&mut header).is_err() {
        return false;
    }
    header[..4] == MAGIC && header[4..8] == FORMAT_VERSION.to_le_bytes()
}

impl ShardCache {
    /// Sweeps the store under `policy`, never touching entries of the
    /// `protected` fingerprints (the current-version set in use).
    ///
    /// Protected current-version entries are never deleted; temp
    /// leftovers and entries that can never hit again go first; live
    /// entries then leave oldest-first until the byte budget holds. The
    /// sweep is a pure maintenance pass: it cannot change any result
    /// the cache would serve (deleted entries become misses), and it
    /// never errors — deletion failures are counted and skipped.
    pub fn sweep(&self, policy: &GcPolicy, protected: &[Fingerprint]) -> GcReport {
        let protected_dirs: Vec<String> = protected.iter().map(|f| f.to_hex()).collect();
        let mut candidates = Vec::new();
        let mut dirs = Vec::new();
        let Ok(entries) = fs::read_dir(self.root()) else {
            return GcReport::default();
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_dir() {
                // A stray file directly under the root is not part of
                // the store layout; leave it alone (it is not ours).
                continue;
            }
            let dir_name = entry.file_name().to_string_lossy().into_owned();
            let dir_protected = protected_dirs.contains(&dir_name);
            dirs.push(path.clone());
            let Ok(files) = fs::read_dir(&path) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                let (bytes, modified) = match file.metadata() {
                    Ok(m) => (m.len(), m.modified().unwrap_or(SystemTime::UNIX_EPOCH)),
                    Err(_) => (0, SystemTime::UNIX_EPOCH),
                };
                let name = file.file_name().to_string_lossy().into_owned();
                let (class, protected) = if name.contains(".tmp.") {
                    (0, false)
                } else if is_current_version(&path) {
                    (2, dir_protected)
                } else {
                    (1, false)
                };
                candidates.push(Candidate {
                    path,
                    bytes,
                    modified,
                    class,
                    protected,
                });
            }
        }

        // Eviction order: garbage class first, then oldest first, then
        // path for determinism.
        candidates
            .sort_by(|a, b| (a.class, a.modified, &a.path).cmp(&(b.class, b.modified, &b.path)));

        let now = SystemTime::now();
        let total: u64 = candidates.iter().map(|c| c.bytes).sum();
        let mut live = total;
        let mut report = GcReport::default();
        for candidate in &candidates {
            let doomed = !candidate.protected
                && (candidate.class < 2
                    || policy.max_age.is_some_and(|age| {
                        now.duration_since(candidate.modified)
                            .is_ok_and(|elapsed| elapsed > age)
                    })
                    || policy.max_bytes.is_some_and(|budget| live > budget));
            if !doomed {
                report.kept_entries += 1;
                report.kept_bytes += candidate.bytes;
                continue;
            }
            if fs::remove_file(&candidate.path).is_ok() {
                report.deleted_entries += 1;
                report.deleted_bytes += candidate.bytes;
                live -= candidate.bytes;
            } else {
                report.failed_deletes += 1;
                report.kept_entries += 1;
                report.kept_bytes += candidate.bytes;
            }
        }
        // Drop directories the sweep emptied; a failure (still
        // non-empty, permissions) is simply ignored.
        for dir in dirs {
            let _ = fs::remove_dir(&dir);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use std::path::Path;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nanobound_cache_gc_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp(tag: &str) -> Fingerprint {
        FingerprintBuilder::new(tag).finish()
    }

    /// Ages a file's mtime back by `secs` seconds.
    fn age(path: &Path, secs: u64) {
        let old = SystemTime::now() - Duration::from_secs(secs);
        let file = fs::File::options().append(true).open(path).unwrap();
        file.set_modified(old).unwrap();
    }

    #[test]
    fn default_policy_keeps_every_live_entry() {
        let dir = scratch("noop");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("a"), 0, b"payload a");
        cache.store(&fp("b"), 0, b"payload b");
        let report = cache.sweep(&GcPolicy::default(), &[]);
        assert_eq!(report.deleted_entries, 0);
        assert_eq!(report.kept_entries, 2);
        assert_eq!(report.failed_deletes, 0);
        assert!(cache.load(&fp("a"), 0).is_some());
        assert!(cache.load(&fp("b"), 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_evicts_oldest_first_and_honors_the_target() {
        let dir = scratch("budget");
        let cache = ShardCache::open(&dir).unwrap();
        // Three entries of equal size; mtimes 3000s, 2000s, 1000s ago.
        for (i, tag) in ["old", "mid", "new"].iter().enumerate() {
            cache.store(&fp(tag), 0, &[0u8; 100]);
            age(&cache.entry_path(&fp(tag), 0), 3000 - 1000 * i as u64);
        }
        let entry_size = fs::metadata(cache.entry_path(&fp("old"), 0)).unwrap().len();
        // Budget for exactly one entry: the two oldest go.
        let policy = GcPolicy {
            max_bytes: Some(entry_size),
            max_age: None,
        };
        let report = cache.sweep(&policy, &[]);
        assert_eq!(report.deleted_entries, 2);
        assert_eq!(report.kept_entries, 1);
        assert_eq!(report.kept_bytes, entry_size);
        assert!(cache.load(&fp("old"), 0).is_none());
        assert!(cache.load(&fp("mid"), 0).is_none());
        assert!(cache.load(&fp("new"), 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn protected_fingerprints_survive_any_pressure() {
        let dir = scratch("protected");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("keep"), 0, &[1u8; 200]);
        cache.store(&fp("keep"), 1, &[2u8; 200]);
        cache.store(&fp("evict"), 0, &[3u8; 200]);
        age(&cache.entry_path(&fp("keep"), 0), 9_000);
        age(&cache.entry_path(&fp("keep"), 1), 9_000);
        // Zero budget and an age bound every entry violates: only the
        // unprotected entry may go.
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: Some(Duration::from_secs(1)),
        };
        let report = cache.sweep(&policy, &[fp("keep")]);
        assert_eq!(report.deleted_entries, 1);
        assert_eq!(report.kept_entries, 2);
        assert!(cache.load(&fp("keep"), 0).is_some());
        assert!(cache.load(&fp("keep"), 1).is_some());
        assert!(cache.load(&fp("evict"), 0).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_in_flight_fingerprints_survive_a_mid_flight_sweep() {
        // The serve `gc` workload passes `cache.in_flight()` as the
        // protected set — a pinned experiment's entries must ride out a
        // max-pressure sweep, and unpinning re-exposes them.
        let dir = scratch("in_flight");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("running"), 0, &[1u8; 100]);
        cache.store(&fp("idle"), 0, &[2u8; 100]);
        let pin = cache.pin(fp("running"));
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: None,
        };
        let report = cache.sweep(&policy, &cache.in_flight());
        assert_eq!(report.deleted_entries, 1);
        assert!(cache.load(&fp("running"), 0).is_some());
        assert!(cache.load(&fp("idle"), 0).is_none());
        drop(pin);
        cache.sweep(&policy, &cache.in_flight());
        assert!(cache.load(&fp("running"), 0).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_version_entries_and_tmp_leftovers_go_before_live_ones() {
        let dir = scratch("stale");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("live"), 0, &[0u8; 50]);
        // A stale-version entry: flip the version field.
        cache.store(&fp("stale"), 0, &[0u8; 50]);
        let stale_path = cache.entry_path(&fp("stale"), 0);
        let mut bytes = fs::read(&stale_path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        fs::write(&stale_path, &bytes).unwrap();
        // A leftover temp file from a crashed writer.
        let tmp = dir.join(fp("live").to_hex()).join("0.tmp.1234.5");
        fs::write(&tmp, b"half-written").unwrap();
        // Make the live entry the oldest, so only eviction *class*
        // can explain it surviving.
        age(&cache.entry_path(&fp("live"), 0), 10_000);

        // No budget or age pressure: garbage still goes.
        let report = cache.sweep(&GcPolicy::default(), &[]);
        assert_eq!(report.deleted_entries, 2, "tmp + stale-version entry");
        assert!(!stale_path.exists());
        assert!(!tmp.exists());
        assert!(cache.load(&fp("live"), 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn age_bound_expires_old_unprotected_entries() {
        let dir = scratch("age");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("ancient"), 0, b"old bytes");
        cache.store(&fp("fresh"), 0, b"new bytes");
        age(&cache.entry_path(&fp("ancient"), 0), 7 * 24 * 3600);
        let policy = GcPolicy {
            max_bytes: None,
            max_age: Some(Duration::from_secs(24 * 3600)),
        };
        let report = cache.sweep(&policy, &[]);
        assert_eq!(report.deleted_entries, 1);
        assert!(cache.load(&fp("ancient"), 0).is_none());
        assert!(cache.load(&fp("fresh"), 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undeletable_files_are_counted_not_fatal() {
        let dir = scratch("undeletable");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("a"), 0, &[0u8; 100]);
        // A *directory* where an entry file would live: classified as a
        // dead entry (its header is unreadable), but `remove_file`
        // cannot delete it — the sweep must count the failure and keep
        // going.
        let blocker = dir.join(fp("a").to_hex()).join("1.bin");
        fs::create_dir_all(blocker.join("junk")).unwrap();
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: None,
        };
        let report = cache.sweep(&policy, &[]);
        assert_eq!(report.failed_deletes, 1);
        assert_eq!(report.deleted_entries, 1, "the real entry still went");
        assert!(blocker.exists());
        // The store keeps working around the blocker.
        cache.store(&fp("a"), 0, b"fresh");
        assert_eq!(cache.load(&fp("a"), 0).as_deref(), Some(&b"fresh"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn emptied_fingerprint_directories_are_removed() {
        let dir = scratch("rmdir");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("gone"), 0, &[0u8; 10]);
        let entry_dir = dir.join(fp("gone").to_hex());
        assert!(entry_dir.exists());
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: None,
        };
        cache.sweep(&policy, &[]);
        assert!(!entry_dir.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_then_reuse_recomputes_cleanly() {
        // A swept entry is a miss, never an error: store → sweep →
        // load misses → store again → hit.
        let dir = scratch("reuse");
        let cache = ShardCache::open(&dir).unwrap();
        cache.store(&fp("x"), 0, b"first");
        let policy = GcPolicy {
            max_bytes: Some(0),
            max_age: None,
        };
        cache.sweep(&policy, &[]);
        assert_eq!(cache.load(&fp("x"), 0), None);
        cache.store(&fp("x"), 0, b"second");
        assert_eq!(cache.load(&fp("x"), 0).as_deref(), Some(&b"second"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }
}
