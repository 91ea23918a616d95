//! Content-addressed, shard-level result caching for the `nanobound`
//! workspace.
//!
//! The runner's shard/seed/merge contract makes every shard — a
//! Monte-Carlo chunk, a benchmark profile measurement — a pure,
//! relocatable unit of work keyed by `(master seed, shard index)`. That
//! purity is exactly what makes shard results *cacheable*: a cached
//! shard merged with freshly computed ones is bit-identical to a cold
//! run, for any worker count. This crate supplies the three pieces that
//! turn the contract into a persistent cache:
//!
//! - [`FingerprintBuilder`] / [`Fingerprint`] — a stable 128-bit
//!   experiment identity hashed over everything that determines a
//!   shard's result (configuration, netlist structure, chunk size),
//!   salted with [`FORMAT_VERSION`] so a format bump invalidates
//!   every old entry at once;
//! - [`Encoder`] / [`Decoder`] / [`CacheCodec`] — a tiny
//!   explicitly-little-endian binary codec (`f64` via
//!   [`f64::to_bits`], so cached floats round-trip bit-exactly);
//! - [`ShardCache`] — the on-disk store, one file per
//!   `(fingerprint, shard)` under `<dir>/<fingerprint-hex>/<shard>.bin`,
//!   each entry framed with magic, version, its own fingerprint and
//!   shard index (so misplaced files never verify), length and
//!   checksum;
//! - [`ShardCache::sweep`] — a size/age-bounded GC pass ([`GcPolicy`] /
//!   [`GcReport`]) for long-lived deployments: garbage (temp leftovers,
//!   stale-version entries) first, then oldest live entries, with a
//!   caller-supplied protected fingerprint set that is never deleted.
//!
//! **The corruption contract.** The cache is an accelerator, never an
//! authority: every failure mode — unreadable file, truncated entry,
//! flipped bit, stale format version, undecodable payload — is reported
//! as a miss and the shard is recomputed (and the entry rewritten).
//! Nothing in this crate panics on hostile bytes, and a warm-cache run
//! is byte-identical to a cold one because the only thing ever served
//! from disk is a checksum-verified, bit-exact encoding of a previously
//! computed result.
//!
//! # Examples
//!
//! ```
//! use nanobound_cache::{FingerprintBuilder, ShardCache};
//!
//! let dir = std::env::temp_dir().join("nanobound-cache-doc");
//! # std::fs::remove_dir_all(&dir).ok();
//! let cache = ShardCache::open(&dir)?;
//! let fp = FingerprintBuilder::new("doc-example").finish();
//!
//! assert_eq!(cache.load_value::<Vec<f64>>(&fp, 0), None); // cold: miss
//! cache.store_value(&fp, 0, &vec![1.0, 2.5]);
//! assert_eq!(cache.load_value::<Vec<f64>>(&fp, 0), Some(vec![1.0, 2.5]));
//! assert_eq!(cache.stats().hits, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
mod codec;
mod fingerprint;
mod gc;
mod profile_store;
mod store;

pub use codec::{decode_from_slice, encode_to_vec, CacheCodec, Decoder, Encoder};
pub use fingerprint::{Fingerprint, FingerprintBuilder, FORMAT_VERSION};
pub use gc::{GcPolicy, GcReport};
pub use profile_store::{ProfileLayer, ProfileLayerStats, ProfileStore};
pub use store::{CacheStats, InFlightGuard, ShardCache};
