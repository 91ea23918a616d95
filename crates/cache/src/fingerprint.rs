//! Stable experiment fingerprints.
//!
//! A [`Fingerprint`] is the cache's content address: 128 bits hashed
//! over *everything that determines a shard's result* — the experiment
//! domain, its configuration, the netlist structure, the chunk size. Two experiments share cache entries exactly when
//! their fingerprints collide, so the builder is deliberately explicit:
//! callers push each parameter, and anything not pushed is by
//! definition not part of the experiment's identity.
//!
//! **Stability contract.** The mixing function and the field framing
//! are frozen the same way [`shard_seed`] is frozen in
//! `nanobound-runner`: entries written by one build must be readable by
//! the next. Any intentional change to the hash, the framing, or the
//! meaning of cached payloads must bump [`FORMAT_VERSION`], which is
//! folded into every fingerprint as a salt — bumping it orphans every
//! old entry at once (they become unreferenced files, never wrong
//! answers).
//!
//! [`shard_seed`]: https://docs.rs/nanobound-runner

/// Version salt folded into every fingerprint.
///
/// Bump this when the codec framing, the fingerprint construction, or
/// the semantics of any cached payload change: old entries stop being
/// addressed (their directories are simply never looked up again) and
/// every shard recomputes once.
///
/// History: 1 = initial cached-shard format (sequential Bernoulli
/// fault-mask stream over one `StdRng`); 2 = the v2 counter-based fault-mask stream
/// (`nanobound_sim::faultstream`) — tallies simulated under v1 are not
/// comparable and must never be replayed, so the bump orphans them
/// (stale entries read as counted misses and `ShardCache::sweep`
/// deletes them); 3 = the word-at-a-time builder (one `u64` per mixer
/// step instead of one byte, and one word for a gate's kind and fanin
/// count in `nanobound_sim::netlist_fingerprint`), which moves every
/// address — payloads are unchanged, but v2 entries are misses and GC
/// sweeps them first.
pub const FORMAT_VERSION: u32 = 3;

/// FNV-1a 64-bit offset basis — the entry checksum's basis in
/// `store.rs` and the starting state of lane 1 (keep the constants in
/// one place).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (see [`FNV_OFFSET`]).
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Starting state of the second lane.
const LANE2_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: lane 1's step mixer and the avalanche applied
/// when the lanes are frozen.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// MurmurHash3's 64-bit finalizer: lane 2's step mixer, with constants
/// and shifts independent of [`avalanche`].
fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Accumulates the parameters that identify one experiment.
///
/// # Examples
///
/// ```
/// use nanobound_cache::FingerprintBuilder;
///
/// let mut a = FingerprintBuilder::new("fig3");
/// a.push_f64(0.005);
/// let mut b = FingerprintBuilder::new("fig3");
/// b.push_f64(0.006);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct FingerprintBuilder {
    lane1: u64,
    lane2: u64,
}

impl FingerprintBuilder {
    /// Starts a fingerprint for `domain` (e.g. `"monte-carlo"`,
    /// `"fig3"`, `"profile"`), pre-salted with [`FORMAT_VERSION`].
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut builder = FingerprintBuilder {
            lane1: FNV_OFFSET,
            lane2: LANE2_OFFSET,
        };
        builder.push_u64(u64::from(FORMAT_VERSION));
        builder.push_str(domain);
        builder
    }

    /// Folds raw bytes into the fingerprint, length-framed so
    /// `push_bytes(b"ab"); push_bytes(b"c")` differs from
    /// `push_bytes(b"a"); push_bytes(b"bc")`: 8-byte little-endian
    /// words, then the zero-padded tail if any, then the length.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.push_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.push_u64(u64::from_le_bytes(word));
        }
        self.push_usize(bytes.len());
    }

    /// Folds a `u64` as one word, unframed: each lane takes one step of
    /// its full-avalanche mixer, so a difference in any bit of the word
    /// reaches every bit of both lanes before the next word arrives.
    pub fn push_u64(&mut self, v: u64) {
        self.lane1 = avalanche(self.lane1 ^ v);
        self.lane2 = fmix64(self.lane2.wrapping_add(v));
    }

    /// Folds a `usize` through the `u64` path.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Folds an `f64` by bit pattern: fingerprints distinguish every
    /// representable value, including `-0.0` from `0.0`.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Folds a string, length-framed.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Freezes the accumulated state into a [`Fingerprint`].
    #[must_use]
    pub fn finish(self) -> Fingerprint {
        // Cross the lanes before the final avalanche so each output
        // half depends on both accumulators.
        Fingerprint {
            hi: avalanche(self.lane1 ^ self.lane2.rotate_left(32)),
            lo: avalanche(self.lane2 ^ self.lane1.rotate_left(17)),
        }
    }
}

/// A frozen 128-bit experiment identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// The 32-character lowercase hex form — the cache directory name.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The 16-byte little-endian form — embedded in every entry frame
    /// so a misplaced or renamed cache file can never verify as a
    /// different entry.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.hi.to_le_bytes());
        out[8..].copy_from_slice(&self.lo.to_le_bytes());
        out
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_calls() {
        let fp = |x: f64| {
            let mut b = FingerprintBuilder::new("t");
            b.push_f64(x);
            b.finish()
        };
        assert_eq!(fp(1.0), fp(1.0));
        assert_ne!(fp(1.0), fp(2.0));
    }

    #[test]
    fn domains_are_disjoint() {
        assert_ne!(
            FingerprintBuilder::new("fig3").finish(),
            FingerprintBuilder::new("fig4").finish()
        );
    }

    #[test]
    fn framing_prevents_concatenation_ambiguity() {
        let mut a = FingerprintBuilder::new("t");
        a.push_str("ab");
        a.push_str("c");
        let mut b = FingerprintBuilder::new("t");
        b.push_str("a");
        b.push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_form_is_32_chars_and_injective_on_a_grid() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            let mut b = FingerprintBuilder::new("grid");
            b.push_u64(i);
            let hex = b.finish().to_hex();
            assert_eq!(hex.len(), 32);
            assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(seen.insert(hex), "collision at {i}");
        }
    }

    #[test]
    fn top_bit_differences_in_successive_words_do_not_cancel() {
        // Under a per-word FNV step, (h ^ w) * p, a difference in bit 63
        // stays in bit 63, so flipping it in two successive words
        // cancels; the mixers spread it to every bit first.
        let fp = |first: u64, second: u64| {
            let mut b = FingerprintBuilder::new("t");
            b.push_u64(first);
            b.push_u64(second);
            b.push_u64(7);
            b.finish()
        };
        let top = 1u64 << 63;
        assert_ne!(fp(0, 0), fp(top, top));
        assert_ne!(fp(5, 9), fp(5 ^ top, 9 ^ top));
    }

    #[test]
    fn every_length_and_trailing_zero_is_distinguished() {
        let fp = |bytes: &[u8]| {
            let mut b = FingerprintBuilder::new("t");
            b.push_bytes(bytes);
            b.finish()
        };
        let mut seen = HashSet::new();
        for len in 0..=17 {
            assert!(seen.insert(fp(&[0u8; 17][..len])), "zeros of length {len}");
        }
        for len in 1..=17 {
            assert!(
                seen.insert(fp(&[0xa5u8; 17][..len])),
                "0xa5 of length {len}"
            );
        }
        let mut text = String::from("name");
        for _ in 0..17 {
            assert!(seen.insert(fp(text.as_bytes())), "{text:?}");
            text.push('\0');
        }
    }

    #[test]
    fn signed_zero_and_nan_are_distinguished() {
        let fp = |x: f64| {
            let mut b = FingerprintBuilder::new("t");
            b.push_f64(x);
            b.finish()
        };
        assert_ne!(fp(0.0), fp(-0.0));
        assert_eq!(fp(f64::NAN), fp(f64::NAN)); // same bit pattern
    }
}
