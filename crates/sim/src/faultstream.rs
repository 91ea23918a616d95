//! The v2 counter-based fault-mask stream.
//!
//! Version 1 of the fault stream drew every gate's Bernoulli(ε) mask
//! from one *sequential* `StdRng` — correct, but serializing: the mask
//! of `(gate g, word w)` depended on every draw before it, so neither
//! engine could reorder, batch or widen the mask loop, and at
//! draw-dense ε (~22 live binary digits) both engines were RNG-latency
//! bound. Stream v2 removes the ordering dependency at the root: the
//! mask of `(fault_seed, gate, word)` is a **pure function** of those
//! coordinates, derived through a SplitMix64-style counter hash —
//!
//! ```text
//! gate_state = mix(seed ⊕ (gate+1)·γ)          γ = 0x9E3779B97F4A7C15
//! word_state = mix(gate_state ⊕ (word+1)·γ)
//! draw k     = mix(word_state ⊞ (k+1)·γ)       (⊞ wrapping add)
//! ```
//!
//! where `mix` is the SplitMix64 finalizer (the same avalanche the
//! workspace already freezes in `nanobound_runner::shard_seed` and the
//! cache fingerprints). Masks are independent and **order-free**:
//! word-major, gate-major, batched-across-shards and parallel
//! evaluation all observe identical masks, which is what lets the
//! compiled executor fuse several shards through one arena pass.
//!
//! # The mask plan
//!
//! [`MaskPlan`] picks, once per ε, the cheaper of two exact-stream
//! constructions:
//!
//! - **Dense** — the [`BernoulliPlan`] binary-expansion fold (quantizes
//!   ε to 24 binary digits), fed counter draws instead of a sequential
//!   RNG. Cost: `24 − trailing_zeros(q)` flat vectorizable layers per
//!   word; chosen for ε with short expansions (½, ¼, ¾ …) and for the
//!   mid range (ε ≳ 0.03) where gap draws stop being rare.
//! - **Sparse** — geometric-gap skip sampling: one uniform draw yields
//!   the distance to the next set bit via a precomputed CDF threshold
//!   table, so a word costs `64·min(ε, 1−ε) + 1` expected draws
//!   (~1.6 at ε = 0.01 versus 22 under stream v1); the plan chooser
//!   weights each by the measured cost ratio of a serial gap decode to
//!   a flat fold layer. Densities above ½ sample the complement and
//!   invert. Thresholds are held to 2⁻⁶⁴ resolution, so
//!   quantization-to-zero moves from v1's ε < 2⁻²⁵ down to ε ≲ 2⁻⁷⁰ —
//!   and [`MaskPlan::collapses`] surfaces the residual degenerate
//!   cases so `NoisyConfig` can reject them loudly.
//!
//! Both engines — the interpreted oracle and the compiled tape — call
//! this one implementation, so they cannot drift; the differential
//! proptests in `crates/sim/tests/compiled.rs` pin the equality.
//! Changing this stream (like the v1→v2 switch itself) is a cache
//! format change: it requires bumping `nanobound_cache::FORMAT_VERSION`
//! (done for v2, version 2) so stale shard tallies are orphaned, never
//! replayed.
//!
//! # The bulk path
//!
//! The oracle derives each word on its own ([`MaskPlan::mask_word`]);
//! the compiled executor masks a gate's whole segment at once
//! ([`MaskPlan::xor_masks`]) in blocks of 64 words. One flat pass
//! computes every word's state and first draw. The sparse arm then
//! takes further draws only for the live words (first draw below the
//! ceiling) and finishes them breadth first: each round draws `k` for
//! every open word in one flat pass, then decodes, sets bits and
//! compacts the words that stay open. Words needing three or more
//! draws — about half of them at ε = 2.5·10⁻² — never walk alone. The
//! flat passes vectorize; on CPUs with AVX-512 the whole path runs as
//! a `#[target_feature]` twin of the same body (see `avx512`).

use rand::Rng;

use crate::bernoulli::{BernoulliPlan, DIGITS};

/// The fault-stream format this module implements (v2, counter-based).
///
/// Frozen alongside `nanobound_cache::FORMAT_VERSION`: any change to
/// the derivation below must bump both.
pub const STREAM_VERSION: u32 = 2;

/// The 64-bit golden-ratio increment of SplitMix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
#[must_use]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-gate state of the v2 stream: hoist one call per gate, then
/// derive every word's masks from it with [`MaskPlan::mask_word`] /
/// [`MaskPlan::xor_masks`].
///
/// `gate` is the gate's *ordinal among noise-carrying gates* in node-id
/// order — which equals its op index on the compiled tape, since ops
/// are exactly the `counts_as_gate` kinds in the same order.
#[inline]
#[must_use]
pub fn gate_state(seed: u64, gate: u64) -> u64 {
    mix(seed ^ gate.wrapping_add(1).wrapping_mul(GAMMA))
}

/// The per-word state: every draw for `(gate, word)` hangs off this.
#[inline]
#[must_use]
fn word_state(gate_state: u64, word: u64) -> u64 {
    mix(gate_state ^ word.wrapping_add(1).wrapping_mul(GAMMA))
}

/// Draw `k` of a word's mask construction.
#[inline]
#[must_use]
fn draw(word_state: u64, k: u64) -> u64 {
    mix(word_state.wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// Adapter feeding counter draws to [`BernoulliPlan::draw`], so the
/// dense path reuses the binary-expansion fold verbatim.
struct CounterRng {
    word_state: u64,
    k: u64,
}

impl Rng for CounterRng {
    fn next_u64(&mut self) -> u64 {
        let v = draw(self.word_state, self.k);
        self.k += 1;
        v
    }
}

/// How a word's 64 Bernoulli(ε) lanes are synthesized for one ε.
#[derive(Clone, Debug)]
// The Sparse tables dominate the enum's size, but a `MaskPlan` is
// built once per (ε, run) and then read in the per-word hot loop —
// boxing the tables would trade a one-time size cost for a pointer
// chase on every mask.
#[allow(clippy::large_enum_variant)]
enum MaskKind {
    /// ε = 0 (or quantized to it): every mask is all-zero, no draws.
    Zero,
    /// ε = 1 (or quantized to it): every mask is all-ones, no draws.
    One,
    /// Geometric-gap skip sampling of the minority bit value.
    ///
    /// `thresholds[g]` (g < 64) is `CDF(gap ≤ g) · 2⁶⁴` of the
    /// geometric gap distribution; one uniform draw is looked up
    /// against the table to find the next set bit. The last two slots
    /// are `u64::MAX` sentinels so the lookup can take two
    /// *unconditional* advance steps past its seed without bounds
    /// checks. `lut[b]` seeds that lookup: it is the number of
    /// thresholds strictly below `b · 2⁵⁶`, so a draw's top byte lands
    /// within a step or two of its gap and the search is a short
    /// branch-free advance instead of a branchy binary search.
    /// `invert` complements the word (densities above ½ sample 1−ε
    /// and flip).
    /// `exact` records whether every byte bucket holds at most two
    /// thresholds — then the seed plus two unconditional advances *is*
    /// the gap, the decode needs no residual loop at all, and the
    /// assembly loop over live words unrolls and pipelines.
    Sparse {
        thresholds: [u64; 66],
        lut: [u8; 256],
        exact: bool,
        invert: bool,
    },
    /// The 24-digit binary-expansion fold over counter draws.
    Dense(BernoulliPlan),
}

/// The per-ε invariants of the v2 mask stream, hoisted out of the hot
/// loop — the stream-v2 analog of [`BernoulliPlan`].
#[derive(Clone, Debug)]
pub struct MaskPlan {
    kind: MaskKind,
}

/// `2⁶⁴` as an `f64`, the threshold scale.
const SCALE: f64 = 18_446_744_073_709_551_616.0;

/// Geometric-gap CDF thresholds for minority density `p ≤ ½`:
/// `t[g] = (1 − (1−p)^(g+1)) · 2⁶⁴` for `g < 64`, computed by the
/// recurrence `s ← s·(1−p) + p` (one IEEE multiply and add per step,
/// exact enough to keep tiny densities at full relative precision —
/// no `powi`, no libm, bit-reproducible everywhere). Slots 64 and 65
/// are `u64::MAX` sentinels for the branch-free lookup.
fn sparse_thresholds(p: f64) -> [u64; 66] {
    let omp = 1.0 - p;
    let mut t = [u64::MAX; 66];
    let mut s = p;
    for slot in &mut t[..64] {
        let scaled = s * SCALE;
        *slot = if scaled >= SCALE {
            u64::MAX
        } else {
            scaled as u64
        };
        s = s * omp + p;
    }
    t
}

/// The top-byte seed table for the gap lookup: `lut[b]` counts the
/// thresholds strictly below `b · 2⁵⁶`. Any draw with top byte `b` is
/// at least that large, so its gap (the number of thresholds `≤` the
/// draw) starts at `lut[b]` and is reached within the few thresholds
/// that share the byte bucket.
fn sparse_lut(thresholds: &[u64; 66]) -> [u8; 256] {
    let mut lut = [0u8; 256];
    for (b, slot) in lut.iter_mut().enumerate() {
        let low = (b as u64) << 56;
        *slot = thresholds[..64].iter().take_while(|&&t| t < low).count() as u8;
    }
    lut
}

/// One sparse word, in the definitional form the oracle uses: walk
/// set-bit positions by geometric gaps, each gap found by a plain
/// binary search of the (unpadded) CDF table. [`sparse_word_from`] is
/// the optimized equivalent the bulk path uses; a test pins them
/// equal.
#[inline]
fn sparse_word(thresholds: &[u64; 66], word_state: u64) -> u64 {
    let mut mask = 0u64;
    let mut pos = 0u32;
    let mut k = 0u64;
    loop {
        let u = draw(word_state, k);
        k += 1;
        // Gap to the next set bit: the first CDF step above `u`.
        let gap = thresholds[..64].partition_point(|&t| t <= u) as u32;
        pos += gap;
        if pos >= 64 {
            return mask;
        }
        mask |= 1u64 << pos;
        pos += 1;
    }
}

/// Gap decode of one uniform draw: the number of CDF steps at or
/// below `u`. The table is monotone, so seed from the top-byte count
/// and advance the final step or two instead of running a branchy
/// binary search. The first two advances are *unconditional* (the
/// sentinel padding makes them safe), which removes the
/// data-dependent branches that would otherwise stall the gap walk on
/// mispredictions; the residual loop fires only under threshold
/// clustering (several CDF steps sharing one top-byte bucket). May
/// overshoot 64 by the sentinel steps — callers only test `≥ 64`,
/// where any overshoot means "off the end of the word" exactly like
/// the definitional 64.
#[inline]
fn sparse_gap(thresholds: &[u64; 66], lut: &[u8; 256], u: u64) -> u32 {
    let mut gap = sparse_gap_fast(thresholds, lut, u);
    while gap < 64 && thresholds[gap as usize] <= u {
        gap += 1;
    }
    gap
}

/// The loop-free decode: seed plus two unconditional advances. Equal
/// to [`sparse_gap`] exactly when the plan's `exact` flag holds (no
/// byte bucket contains more than two thresholds); hot loops branch
/// on that flag *outside* the loop, because a callee with any inner
/// loop — even one that never iterates — stops LLVM from unrolling
/// the caller, serializing the decode's three-load dependency chain
/// instead of pipelining it across live words.
#[inline]
fn sparse_gap_fast(thresholds: &[u64; 66], lut: &[u8; 256], u: u64) -> u32 {
    let mut gap = u32::from(lut[(u >> 56) as usize]);
    gap += u32::from(thresholds[gap as usize] <= u);
    gap += u32::from(thresholds[gap as usize] <= u);
    gap
}

/// Whether [`sparse_gap_fast`] is exact for this table: every top-byte
/// bucket — including the virtual bucket past `lut[255]` — holds at
/// most two thresholds.
fn sparse_lut_is_exact(lut: &[u8; 256]) -> bool {
    lut.windows(2).all(|w| w[1] - w[0] <= 2) && 64 - lut[255] <= 2
}

/// Words per block of the bulk mask path: the per-word states of a
/// block are computed in one flat dependency-free pass (this is the
/// payoff of the counter stream — under the sequential v1 stream no
/// such pass existed), then the sparse rounds or the dense fold layers
/// run off them. One block's live words fit one `u64` bitmap.
const BLOCK: usize = 64;

/// The working arrays of the bulk mask path for one block of words.
///
/// [`MaskPlan::xor_masks_with`] only writes before it reads them, so a
/// caller that masks many gates keeps one and initializes it once per
/// run instead of once per gate.
pub(crate) struct MaskBlock {
    /// Per-word states of the block; the sparse arm compacts the open
    /// words' states to the front.
    states: [u64; BLOCK],
    /// Every word's first draw, then the open words' current draws; the
    /// dense arm folds its masks here.
    draws: [u64; BLOCK],
    /// Block index of each open sparse word.
    open: [u32; BLOCK],
    /// Bit position each open sparse word's next gap counts from.
    pos: [u32; BLOCK],
}

impl MaskBlock {
    pub(crate) fn new() -> Self {
        MaskBlock {
            states: [0; BLOCK],
            draws: [0; BLOCK],
            open: [0; BLOCK],
            pos: [0; BLOCK],
        }
    }
}

/// The flat pass shared by both bulk arms: word states and first
/// draws of words `base ..` — every lane independent, so the loop
/// auto-vectorizes wherever the target has 64-bit SIMD multiplies.
#[inline(always)]
fn state_pass(gate_state: u64, base: u64, states: &mut [u64], first: &mut [u64]) {
    for (i, (ws, u0)) in states.iter_mut().zip(first.iter_mut()).enumerate() {
        let s = word_state(gate_state, base + i as u64);
        *ws = s;
        *u0 = draw(s, 0);
    }
}

/// The sparse arm over one block, breadth first, after
/// [`state_pass`]: find the live words (first draw below the ceiling,
/// so at least one set bit), set their first bit and compact them to
/// the front; then, round by round, draw `k` for every open word in
/// one flat pass and decode it in a branch-free pass that sets the bit
/// and compacts the words that stay open. A word closes when its gap
/// walk leaves the word, exactly where the definitional [`sparse_word`]
/// returns, so every word consumes the same draws in the same roles —
/// the rounds only regroup them across words. Generic over the gap
/// decode so the `exact` fast path monomorphizes into loops free of
/// inner loops.
#[inline(always)]
fn sparse_rounds(gap_of: impl Fn(u64) -> u32, ceiling: u64, b: &mut MaskBlock, chunk: &mut [u64]) {
    let mut live = 0u64;
    for (i, &u0) in b.draws[..chunk.len()].iter().enumerate() {
        live |= u64::from(u0 < ceiling) << i;
    }
    // Compacting in place is safe: slot `open` never passes word `i`.
    let mut open = 0usize;
    while live != 0 {
        let i = live.trailing_zeros() as usize;
        live &= live - 1;
        let pos = gap_of(b.draws[i]);
        chunk[i] ^= 1u64 << pos;
        b.open[open] = i as u32;
        b.states[open] = b.states[i];
        b.pos[open] = pos + 1;
        open += 1;
    }
    let mut k = 1u64;
    while open > 0 {
        for (u, &s) in b.draws[..open].iter_mut().zip(&b.states) {
            *u = draw(s, k);
        }
        let mut still = 0usize;
        for j in 0..open {
            // May overshoot 64 (see `sparse_gap`); only `< 64` counts.
            let pos = b.pos[j] + gap_of(b.draws[j]);
            let cont = pos < 64;
            let i = b.open[j];
            chunk[i as usize] ^= u64::from(cont) << (pos & 63);
            b.open[still] = i;
            b.states[still] = b.states[j];
            b.pos[still] = pos + 1;
            still += usize::from(cont);
        }
        open = still;
        k += 1;
    }
}

/// Replays the [`BernoulliPlan::draw`] digit fold layer by layer
/// across a block, `masks` seeded with each word's first draw.
#[inline(always)]
fn dense_layers(plan: &BernoulliPlan, states: &[u64], masks: &mut [u64]) {
    for (k, d) in (1u64..).zip(plan.start() + 1..DIGITS) {
        if plan.digit(d) {
            for (m, &ws) in masks.iter_mut().zip(states) {
                *m |= draw(ws, k);
            }
        } else {
            for (m, &ws) in masks.iter_mut().zip(states) {
                *m &= draw(ws, k);
            }
        }
    }
}

/// Whether this CPU runs the AVX-512 twins of the kernel entries
/// ([`MaskPlan::xor_masks`] here, the Monte-Carlo op loop and the
/// activity counting loop in `compiled`).
///
/// Each entry checks once per call and then runs one
/// `#[inline(always)]` body, compiled a second time with 512-bit lanes:
/// 64-bit multiplies (`vpmullq`, AVX-512DQ) for the counter hash and
/// per-lane popcounts (`vpopcntq`, AVX512-VPOPCNTDQ) for the toggle
/// counts. The twins are the same safe code; the `unsafe` at each call
/// is demanded by `#[target_feature]` and discharged by this check.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

impl MaskPlan {
    /// Compiles the v2 mask construction for probability `p`.
    ///
    /// Picks the cheaper of the dense binary-expansion fold and the
    /// sparse geometric-gap sampler by expected draws per word; the
    /// choice is a deterministic function of `p` and therefore part of
    /// the frozen stream definition.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (including NaN).
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if p == 0.0 {
            return MaskPlan {
                kind: MaskKind::Zero,
            };
        }
        if p == 1.0 {
            return MaskPlan {
                kind: MaskKind::One,
            };
        }
        let invert = p > 0.5;
        let minority = if invert { 1.0 - p } else { p };
        let dense = BernoulliPlan::new(p);
        let dense_cost = if dense.is_trivial() {
            // q rounded to 0 or 2^24 while p is strictly inside (0, 1):
            // the dense path would silently collapse — rule it out.
            f64::INFINITY
        } else {
            f64::from(DIGITS - dense.start())
        };
        // Draws are not equal-cost: a dense fold layer is one flat
        // vectorizable pass, while a sparse gap-walk draw is a serial
        // decode — measured at roughly a dozen fold layers each. The
        // weight (×12, frozen with the stream) sets the crossover near
        // the measured one (~ε = 0.03) instead of ~0.36.
        let sparse_cost = 12.0 * (64.0 * minority) + 2.0;
        if dense_cost <= sparse_cost {
            MaskPlan {
                kind: MaskKind::Dense(dense),
            }
        } else {
            MaskPlan {
                kind: {
                    let thresholds = sparse_thresholds(minority);
                    let lut = sparse_lut(&thresholds);
                    let exact = sparse_lut_is_exact(&lut);
                    MaskKind::Sparse {
                        thresholds,
                        lut,
                        exact,
                        invert,
                    }
                },
            }
        }
    }

    /// Whether every mask is all-zero (ε = 0 or quantized to it) —
    /// callers may skip mask generation entirely.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match &self.kind {
            MaskKind::Zero => true,
            MaskKind::Sparse {
                thresholds, invert, ..
            } => !invert && thresholds[63] == 0,
            _ => false,
        }
    }

    /// Whether every mask is all-ones.
    #[must_use]
    pub fn is_one(&self) -> bool {
        match &self.kind {
            MaskKind::One => true,
            MaskKind::Sparse {
                thresholds, invert, ..
            } => *invert && thresholds[63] == 0,
            _ => false,
        }
    }

    /// Whether `p` strictly inside `(0, 1)` still produced a degenerate
    /// all-zero or all-one stream — the stream's quantization floor
    /// (≈ 2⁻⁷⁰; stream v1 collapsed below 2⁻²⁵). `NoisyConfig` turns
    /// this into a hard parameter error instead of a silently
    /// noise-free simulation.
    #[must_use]
    pub fn collapses(p: f64) -> bool {
        p > 0.0 && p < 1.0 && {
            let plan = MaskPlan::new(p);
            plan.is_zero() || plan.is_one()
        }
    }

    /// The mask of `(gate_state, word)` — the pure-function form used
    /// by the interpreted oracle and every test.
    #[must_use]
    pub fn mask_word(&self, gate_state: u64, word: u64) -> u64 {
        match &self.kind {
            MaskKind::Zero => 0,
            MaskKind::One => !0,
            MaskKind::Sparse {
                thresholds, invert, ..
            } => {
                let m = sparse_word(thresholds, word_state(gate_state, word));
                if *invert {
                    !m
                } else {
                    m
                }
            }
            MaskKind::Dense(plan) => plan.draw(&mut CounterRng {
                word_state: word_state(gate_state, word),
                k: 0,
            }),
        }
    }

    /// XORs the masks of words `first_word ..` onto `out` — the
    /// compiled executor's bulk path. Exactly equivalent to calling
    /// [`MaskPlan::mask_word`] per word (pinned by a test below), but
    /// built wide: per-word states and first draws are computed in
    /// flat blocks with no cross-word dependency, so the mask cost per
    /// word approaches the two `mix` calls it fundamentally needs.
    /// The interpreted oracle deliberately does *not* use this path —
    /// it spells out the per-word definition — so the differential
    /// tests exercise definition against optimization.
    #[allow(unsafe_code)]
    pub fn xor_masks(&self, gate_state: u64, first_word: u64, out: &mut [u64]) {
        let mut block = MaskBlock::new();
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: the twin's target features were just detected.
            unsafe { self.xor_masks_avx512(&mut block, gate_state, first_word, out) };
            return;
        }
        self.xor_masks_with(&mut block, gate_state, first_word, out);
    }

    /// [`MaskPlan::xor_masks_with`] compiled for AVX-512 (see [`avx512`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    fn xor_masks_avx512(
        &self,
        block: &mut MaskBlock,
        gate_state: u64,
        first_word: u64,
        out: &mut [u64],
    ) {
        self.xor_masks_with(block, gate_state, first_word, out);
    }

    /// The body of [`MaskPlan::xor_masks`] over caller-kept working
    /// arrays; inlined into each kernel entry that masks, so it is
    /// compiled for that entry's target features.
    #[inline(always)]
    pub(crate) fn xor_masks_with(
        &self,
        b: &mut MaskBlock,
        gate_state: u64,
        first_word: u64,
        out: &mut [u64],
    ) {
        match &self.kind {
            MaskKind::Zero => {}
            MaskKind::One => {
                for w in out.iter_mut() {
                    *w = !*w;
                }
            }
            MaskKind::Sparse {
                thresholds,
                lut,
                exact,
                invert,
            } => {
                // CDF(gap ≤ 63): a first draw at or above it means the
                // whole word is empty — the common case at sparse ε.
                let ceiling = thresholds[63];
                for (block, chunk) in out.chunks_mut(BLOCK).enumerate() {
                    let base = first_word + (block * BLOCK) as u64;
                    let n = chunk.len();
                    state_pass(gate_state, base, &mut b.states[..n], &mut b.draws[..n]);
                    if *invert {
                        // Empty words contribute only the inversion.
                        for w in chunk.iter_mut() {
                            *w = !*w;
                        }
                    }
                    if *exact {
                        sparse_rounds(|u| sparse_gap_fast(thresholds, lut, u), ceiling, b, chunk);
                    } else {
                        sparse_rounds(|u| sparse_gap(thresholds, lut, u), ceiling, b, chunk);
                    }
                }
            }
            MaskKind::Dense(plan) => {
                // Replay the BernoulliPlan fold layer by layer across a
                // block: every word's digit-`d` draw is independent, so
                // each layer is one flat pass. The first live digit is
                // the first draw itself (0 | r = r), which `state_pass`
                // already produced.
                for (block, chunk) in out.chunks_mut(BLOCK).enumerate() {
                    let base = first_word + (block * BLOCK) as u64;
                    let n = chunk.len();
                    state_pass(gate_state, base, &mut b.states[..n], &mut b.draws[..n]);
                    dense_layers(plan, &b.states[..n], &mut b.draws[..n]);
                    for (w, &m) in chunk.iter_mut().zip(&b.draws[..n]) {
                        *w ^= m;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The v2 stream is frozen: these reference values must never
    /// change (the FORMAT_VERSION-2 analog of the pinned `shard_seed`
    /// values in `nanobound-runner`).
    #[test]
    fn stream_reference_values_are_frozen() {
        assert_eq!(mix(0), 0);
        assert_eq!(mix(1), 0x5692_161D_100B_05E5);
        assert_eq!(gate_state(0, 0), mix(GAMMA));
        assert_eq!(gate_state(0xDEAD_BEEF, 0), 0x3D09_5A5F_83AE_3481);
        assert_eq!(
            word_state(gate_state(0xDEAD_BEEF, 0), 0),
            0x374F_CE43_E665_F1AC
        );
        // One pinned word per plan kind: ε = ½ takes the dense path
        // (single draw), ε = 0.01 the sparse geometric-gap path.
        let plan = MaskPlan::new(0.5);
        assert_eq!(plan.mask_word(gate_state(7, 3), 11), 0x0AF0_E322_CCE4_EFE1);
        let sparse = MaskPlan::new(0.01);
        assert_eq!(
            sparse.mask_word(gate_state(7, 3), 11),
            0x0000_0010_0000_0010
        );
    }

    #[test]
    fn extremes_are_exact_and_draw_free() {
        let zero = MaskPlan::new(0.0);
        let one = MaskPlan::new(1.0);
        assert!(zero.is_zero() && !zero.is_one());
        assert!(one.is_one() && !one.is_zero());
        for word in 0..50 {
            assert_eq!(zero.mask_word(gate_state(1, 2), word), 0);
            assert_eq!(one.mask_word(gate_state(1, 2), word), !0);
        }
    }

    fn density(p: f64, gates: u64, words: u64, seed: u64) -> f64 {
        let plan = MaskPlan::new(p);
        let mut ones = 0u64;
        for g in 0..gates {
            let gs = gate_state(seed, g);
            for w in 0..words {
                ones += u64::from(plan.mask_word(gs, w).count_ones());
            }
        }
        ones as f64 / (64 * gates * words) as f64
    }

    #[test]
    fn densities_match_probability() {
        // Spans both plan kinds: 0.5/0.25/0.75 dense, the rest sparse.
        for &p in &[0.5, 0.25, 0.75, 0.1, 0.01, 0.001, 1.0 / 3.0, 0.9, 0.999] {
            let d = density(p, 50, 80, 42);
            let sigma = (p * (1.0 - p) / (64.0 * 4000.0)).sqrt();
            assert!(
                (d - p).abs() < 6.0 * sigma.max(1e-4),
                "p = {p}, measured {d}"
            );
        }
    }

    #[test]
    fn tiny_probabilities_survive_below_the_v1_floor() {
        // ε = 2^-26 quantized to exactly zero under stream v1 (q =
        // round(2^-26 · 2^24) = 0); the v2 sparse sampler still emits
        // ones at the right rate. Even further down, the plan stays
        // structurally alive to ~2^-70.
        assert!(!MaskPlan::new((2f64).powi(-40)).is_zero());
        let p = (2f64).powi(-26);
        let plan = MaskPlan::new(p);
        assert!(!plan.is_zero(), "plan collapsed");
        let (gates, words) = (2_000u64, 10_000u64);
        let mut ones = 0u64;
        for g in 0..gates {
            let gs = gate_state(3, g);
            for w in 0..words {
                ones += u64::from(plan.mask_word(gs, w).count_ones());
            }
        }
        // Poisson with mean ≈ 19.07: [1, 100] is a > 8σ envelope.
        let expected = p * 64.0 * (gates * words) as f64;
        assert!(
            (1..=100).contains(&ones),
            "ones = {ones}, expected ≈ {expected}"
        );
    }

    #[test]
    fn collapse_detection_brackets_the_floor() {
        assert!(!MaskPlan::collapses(0.0));
        assert!(!MaskPlan::collapses(1.0));
        assert!(!MaskPlan::collapses(0.5));
        assert!(!MaskPlan::collapses(1e-6));
        assert!(!MaskPlan::collapses((2f64).powi(-60)));
        assert!(MaskPlan::collapses((2f64).powi(-80)));
        assert!(MaskPlan::collapses(f64::MIN_POSITIVE));
        // The complement side: 1 - 2^-80 is not representable (rounds
        // to 1.0 exactly), so the One-collapse arm is unreachable for
        // any f64 strictly below 1 — the closest representable value
        // below 1.0 keeps a healthy minority density.
        assert!(!MaskPlan::collapses(1.0 - f64::EPSILON / 2.0));
    }

    #[test]
    fn per_gate_and_per_word_streams_are_independent() {
        // χ² over the 2×2 joint distribution of (bit in gate a, same
        // lane bit in gate b): independent fair-ish coins at ε = 0.5.
        let plan = MaskPlan::new(0.5);
        let mut counts = [[0u64; 2]; 2];
        let words = 2000u64;
        let (ga, gb) = (gate_state(9, 0), gate_state(9, 1));
        for w in 0..words {
            let (a, b) = (plan.mask_word(ga, w), plan.mask_word(gb, w));
            for lane in 0..64 {
                counts[(a >> lane & 1) as usize][(b >> lane & 1) as usize] += 1;
            }
        }
        let n = (64 * words) as f64;
        let expected = n / 4.0;
        let chi2: f64 = counts
            .iter()
            .flatten()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        // 3 degrees of freedom; P(χ² > 16.3) ≈ 0.001.
        assert!(chi2 < 16.3, "gate×gate χ² = {chi2}");

        // Same test across adjacent words of one gate.
        let mut counts = [[0u64; 2]; 2];
        for w in 0..words {
            let (a, b) = (plan.mask_word(ga, 2 * w), plan.mask_word(ga, 2 * w + 1));
            for lane in 0..64 {
                counts[(a >> lane & 1) as usize][(b >> lane & 1) as usize] += 1;
            }
        }
        let chi2: f64 = counts
            .iter()
            .flatten()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 16.3, "word×word χ² = {chi2}");
    }

    /// Densities for the bulk-path tests: the extremes, dense plans
    /// (½, ¼, 0.03 just past the crossover, 0.97's complement), and
    /// sparse ones from mostly-empty words (10⁻³, whose byte buckets
    /// hold up to four thresholds, so the gap decode needs its residual
    /// loop) to 2.5·10⁻², where about half the words take three or
    /// more draws.
    const BULK_DENSITIES: [f64; 11] = [
        0.0, 1.0, 0.5, 0.25, 1e-3, 4e-3, 1e-2, 2.5e-2, 0.03, 0.97, 0.999,
    ];

    #[test]
    fn bulk_densities_cover_every_arm() {
        let kind = |p: f64| match MaskPlan::new(p).kind {
            MaskKind::Zero => "zero",
            MaskKind::One => "one",
            MaskKind::Sparse { exact: true, .. } => "sparse",
            MaskKind::Sparse { exact: false, .. } => "sparse-loop",
            MaskKind::Dense(_) => "dense",
        };
        assert_eq!(kind(1e-3), "sparse-loop");
        assert_eq!(kind(1e-2), "sparse");
        assert_eq!(kind(2.5e-2), "sparse");
        assert_eq!(kind(0.03), "dense");
        assert_eq!(kind(0.999), "sparse-loop");
    }

    #[test]
    fn xor_masks_equals_per_word_mask_stream() {
        // One block reused across every plan and length: the bulk
        // path must never read what an earlier call left behind.
        let mut block = MaskBlock::new();
        for &p in &BULK_DENSITIES {
            let plan = MaskPlan::new(p);
            let gs = gate_state(13, 5);
            for len in [1usize, 16, 37, 64, 65, 130] {
                for first_word in [0u64, 3, 1 << 40] {
                    let fill = 0xAAAA_5555_0F0F_F0F0u64;
                    let expect: Vec<u64> = (0..len as u64)
                        .map(|i| fill ^ plan.mask_word(gs, first_word + i))
                        .collect();
                    // The entry runs the AVX-512 twin where the CPU has
                    // it; the scalar body is the only path elsewhere.
                    let mut bulk = vec![fill; len];
                    plan.xor_masks(gs, first_word, &mut bulk);
                    assert_eq!(bulk, expect, "p={p} len={len} first={first_word}");
                    let mut scalar = vec![fill; len];
                    plan.xor_masks_with(&mut block, gs, first_word, &mut scalar);
                    assert_eq!(scalar, expect, "scalar p={p} len={len} first={first_word}");
                }
            }
        }
    }

    #[test]
    fn masks_are_order_free() {
        // Word-major and gate-major traversal observe identical masks —
        // the property stream v1 lacked and v2 exists to provide.
        let plan = MaskPlan::new(0.3);
        let (gates, words) = (17u64, 23u64);
        let mut word_major = vec![0u64; (gates * words) as usize];
        for w in 0..words {
            for g in 0..gates {
                word_major[(g * words + w) as usize] = plan.mask_word(gate_state(5, g), w);
            }
        }
        let mut gate_major = vec![0u64; (gates * words) as usize];
        for g in (0..gates).rev() {
            let gs = gate_state(5, g);
            for w in (0..words).rev() {
                gate_major[(g * words + w) as usize] = plan.mask_word(gs, w);
            }
        }
        assert_eq!(word_major, gate_major);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range() {
        let _ = MaskPlan::new(f64::NAN);
    }
}
