//! Bitsliced Bernoulli mask generation.
//!
//! Noisy simulation needs, for every gate and every pattern lane, an
//! independent bit that is 1 with probability ε. Generating those bits
//! one at a time would dominate the simulation cost; instead, whole
//! 64-lane words are synthesized from ~24 uniform words using the binary
//! expansion of ε.

use rand::Rng;

/// Number of binary digits used to approximate the probability; the
/// realized density is the nearest multiple of `2^-24` (error < 6e-8).
pub const DIGITS: u32 = 24;

/// The per-ε invariants of the bitsliced Bernoulli fold, hoisted out
/// of the inner loop: the quantized probability and the first live
/// digit.
///
/// [`BernoulliPlan::draw`] synthesizes a word whose bits are
/// independently 1 with probability `p` (quantized to [`DIGITS`]
/// binary digits). It processes the binary expansion of `p` from the
/// least significant digit: starting from density 0, each step halves
/// the current density and, when the digit is 1, adds ½ — OR with a
/// fresh uniform word for a 1-digit, AND for a 0-digit. Recomputing
/// that expansion per word is measurable overhead at mask-sparse ε, so
/// build the plan once per ε and draw in the loop; the v2 fault
/// stream's dense `MaskPlan` replays the same fold over counter words.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use nanobound_sim::bernoulli::BernoulliPlan;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// assert_eq!(BernoulliPlan::new(0.0).draw(&mut rng), 0);
/// assert_eq!(BernoulliPlan::new(1.0).draw(&mut rng), !0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BernoulliPlan {
    /// `round(p · 2^DIGITS)`.
    q: u64,
    /// Index of the least-significant 1-digit of `q` (0 when `q` is 0
    /// or saturated — the draw-free fast paths).
    start: u32,
}

impl BernoulliPlan {
    /// Quantizes `p` and locates its first live digit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (including NaN).
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        let q = (p * f64::from(1u32 << DIGITS)).round() as u64;
        let start = if q == 0 || q >= 1 << DIGITS {
            0
        } else {
            q.trailing_zeros()
        };
        BernoulliPlan { q, start }
    }

    /// Whether drawing consumes no RNG words (ε quantized to 0 or 1).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.q == 0 || self.q >= 1 << DIGITS
    }

    /// Whether every drawn mask is all-zero with no RNG consumption
    /// (ε quantized to 0) — callers may skip drawing entirely.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.q == 0
    }

    /// Index of the first live digit; `DIGITS − start` is the number of
    /// uniform words one [`BernoulliPlan::draw`] consumes (the cost
    /// model the v2 `MaskPlan` uses to choose between its dense and
    /// sparse constructions).
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Digit `d` of the quantized probability — exposed so the v2
    /// mask stream's bulk path can replay the [`BernoulliPlan::draw`]
    /// fold across a whole block of independent words at once.
    #[inline]
    pub(crate) fn digit(&self, d: u32) -> bool {
        self.q >> d & 1 == 1
    }

    /// Draws one word whose bits are independently 1 with the plan's
    /// probability.
    pub fn draw(&self, rng: &mut impl Rng) -> u64 {
        if self.q == 0 {
            return 0;
        }
        if self.q >= 1 << DIGITS {
            return !0;
        }
        // Skip trailing zero digits: they only halve a still-zero
        // density.
        let mut mask = rng.next_u64(); // the first 1-digit: 0 | r = r
        for d in self.start + 1..DIGITS {
            let r = rng.next_u64();
            mask = if self.q >> d & 1 == 1 {
                mask | r
            } else {
                mask & r
            };
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn density(p: f64, words: usize, seed: u64) -> f64 {
        let plan = BernoulliPlan::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let ones: u64 = (0..words)
            .map(|_| u64::from(plan.draw(&mut rng).count_ones()))
            .sum();
        ones as f64 / (64 * words) as f64
    }

    #[test]
    fn extreme_probabilities_are_exact() {
        assert_eq!(density(0.0, 100, 1), 0.0);
        assert_eq!(density(1.0, 100, 1), 1.0);
        assert!(BernoulliPlan::new(0.0).is_trivial());
        assert!(BernoulliPlan::new(1.0).is_trivial());
        assert!(!BernoulliPlan::new(0.5).is_trivial());
    }

    #[test]
    fn densities_match_probability() {
        for &p in &[0.5, 0.25, 0.1, 0.01, 0.001, 1.0 / 3.0, 0.9] {
            let d = density(p, 4000, 42);
            let sigma = (p * (1.0 - p) / (64.0 * 4000.0)).sqrt();
            assert!(
                (d - p).abs() < 6.0 * sigma.max(1e-4),
                "p = {p}, measured {d}"
            );
        }
    }

    #[test]
    fn deterministic_in_rng_state() {
        let plan = BernoulliPlan::new(0.37);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(plan.draw(&mut a), plan.draw(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range() {
        let _ = BernoulliPlan::new(1.5);
    }

    #[test]
    fn small_probabilities_are_not_rounded_to_zero() {
        // 2^-20 is representable with 24 digits.
        let p = 1.0 / f64::from(1u32 << 20);
        let d = density(p, 200_000, 3);
        assert!(d > 0.0, "density collapsed to zero");
        assert!((d - p).abs() < p * 0.5, "p = {p}, measured {d}");
    }
}
