//! Boolean sensitivity analysis.
//!
//! The sensitivity `s` of a (possibly multi-output) Boolean function is
//! the maximum, over input assignments `x`, of the number of input
//! positions `i` such that flipping `x_i` changes at least one output. It
//! is the circuit-specific hardness parameter of the paper's Theorem 2 /
//! Corollaries 1-2 size and energy bounds.
//!
//! Two engines are provided: an exact exhaustive one for up to
//! [`EXACT_LIMIT`] inputs (lane-permutation tricks keep it bit-parallel)
//! and a random-sampling estimator that reports a certified *lower* bound
//! for wider circuits.

use nanobound_logic::Netlist;

use crate::compiled::{SimProgram, SimScratch};
use crate::engine::evaluate_packed;
use crate::error::SimError;
use crate::patterns::{tail_mask, PatternSet};

/// Largest input count for which [`exact`] enumerates all assignments
/// (`2^20` ≈ 1 M patterns).
pub const EXACT_LIMIT: usize = 20;

/// Result of a sensitivity analysis, tagging how trustworthy it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SensitivityEstimate {
    /// Exhaustively verified exact value.
    Exact(u32),
    /// Maximum observed over random samples: a lower bound on the true
    /// sensitivity.
    SampledLowerBound {
        /// The largest per-assignment count observed.
        value: u32,
        /// Number of base assignments sampled.
        samples: usize,
    },
}

impl SensitivityEstimate {
    /// The numeric sensitivity (exact value or sampled lower bound).
    #[must_use]
    pub fn value(&self) -> u32 {
        match *self {
            SensitivityEstimate::Exact(v)
            | SensitivityEstimate::SampledLowerBound { value: v, .. } => v,
        }
    }

    /// `true` when the value is exhaustively verified.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, SensitivityEstimate::Exact(_))
    }
}

/// Exact sensitivity by exhaustive enumeration.
///
/// For every input `i`, the output stream under all `2^n` patterns is
/// compared against itself permuted by "flip bit `i` of the pattern
/// index": a delta-swap inside words for `i < 6`, a word swap beyond.
/// A per-pattern counter array then tracks how many inputs are sensitive
/// at each assignment; the maximum is `s`.
///
/// # Errors
///
/// Returns [`SimError::TooManyInputs`] beyond [`EXACT_LIMIT`] inputs.
///
/// # Examples
///
/// ```
/// use nanobound_gen::parity;
/// use nanobound_sim::sensitivity;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Parity is sensitive to every input at every assignment.
/// let tree = parity::parity_tree(8, 2)?;
/// assert_eq!(sensitivity::exact(&tree)?, 8);
/// # Ok(())
/// # }
/// ```
pub fn exact(netlist: &Netlist) -> Result<u32, SimError> {
    let n = netlist.input_count();
    if n > EXACT_LIMIT {
        return Err(SimError::TooManyInputs {
            inputs: n,
            limit: EXACT_LIMIT,
        });
    }
    if n == 0 {
        return Ok(0);
    }
    let patterns = PatternSet::exhaustive(n)?;
    let values = evaluate_packed(netlist, &patterns)?;
    let streams: Vec<&[u64]> = netlist
        .outputs()
        .iter()
        .map(|out| values.node(out.driver))
        .collect();
    Ok(exact_from_streams(&streams, n, &patterns))
}

/// Exact sensitivity on the compiled engine: evaluates the program
/// exhaustively and applies the same lane-permutation counting as
/// [`exact`] — bit-identical results, no per-node allocation.
///
/// # Errors
///
/// Returns [`SimError::TooManyInputs`] beyond [`EXACT_LIMIT`] inputs.
pub fn exact_with(program: &SimProgram, scratch: &mut SimScratch) -> Result<u32, SimError> {
    let n = program.num_inputs();
    if n > EXACT_LIMIT {
        return Err(SimError::TooManyInputs {
            inputs: n,
            limit: EXACT_LIMIT,
        });
    }
    if n == 0 {
        return Ok(0);
    }
    let patterns = PatternSet::exhaustive(n)?;
    program.run_clean(scratch, &patterns)?;
    let streams: Vec<&[u64]> = (0..program.num_outputs())
        .map(|o| program.output_stream(scratch, o))
        .collect();
    Ok(exact_from_streams(&streams, n, &patterns))
}

/// The exhaustive counting core shared by both engines: for every
/// input, OR the flip-diffs of every output stream, then track how many
/// inputs are sensitive at each assignment.
fn exact_from_streams(output_streams: &[&[u64]], n: usize, patterns: &PatternSet) -> u32 {
    let count = patterns.count();
    let words = patterns.words_per_signal();
    let tail = patterns.tail_mask();
    // counts[p] = number of inputs sensitive at assignment p.
    let mut counts = vec![0u32; count];
    let mut any_diff = vec![0u64; words];
    for i in 0..n {
        any_diff.fill(0);
        for stream in output_streams {
            accumulate_flip_diff(stream, i, &mut any_diff);
        }
        add_sensitive_bits(&any_diff, tail, &mut counts);
    }
    counts.iter().copied().max().unwrap_or(0)
}

/// Increments `counts[p]` for every valid set bit of `any_diff`. Full
/// words are scanned unmasked; only the final word is masked with the
/// valid-pattern tail. A count can reach the input count, so it is a
/// `u32` like the sensitivity it becomes.
fn add_sensitive_bits(any_diff: &[u64], tail: u64, counts: &mut [u32]) {
    let Some((&last, full)) = any_diff.split_last() else {
        return;
    };
    let mut bump = |w: usize, mut d: u64| {
        while d != 0 {
            let j = d.trailing_zeros() as usize;
            counts[w * 64 + j] += 1;
            d &= d - 1;
        }
    };
    for (w, &d) in full.iter().enumerate() {
        bump(w, d);
    }
    bump(full.len(), last & tail);
}

/// ORs into `acc` the positions where `stream` differs from itself under
/// the "flip input `i`" lane permutation.
fn accumulate_flip_diff(stream: &[u64], i: usize, acc: &mut [u64]) {
    if i < 6 {
        let s = 1u32 << i;
        for (w, &x) in stream.iter().enumerate() {
            acc[w] |= x ^ delta_swap(x, s);
        }
    } else {
        let stride = 1usize << (i - 6);
        for (w, &x) in stream.iter().enumerate() {
            acc[w] |= x ^ stream[w ^ stride];
        }
    }
}

/// Swaps adjacent blocks of `s` bits within a word (the lane permutation
/// induced by flipping pattern-index bit `log2(s)`).
fn delta_swap(x: u64, s: u32) -> u64 {
    /// `LOW_HALF[k]` selects the low `2^k`-bit half of every `2^(k+1)` block.
    const LOW_HALF: [u64; 6] = [
        0x5555_5555_5555_5555,
        0x3333_3333_3333_3333,
        0x0F0F_0F0F_0F0F_0F0F,
        0x00FF_00FF_00FF_00FF,
        0x0000_FFFF_0000_FFFF,
        0x0000_0000_FFFF_FFFF,
    ];
    let m = LOW_HALF[s.trailing_zeros() as usize];
    ((x >> s) & m) | ((x & m) << s)
}

/// Sensitivity lower bound from random sampling.
///
/// Evaluates `samples` random assignments (rounded up to a multiple of
/// 64) plus, for each input, the same assignments with that input
/// flipped, and reports the maximum per-assignment sensitive-input count
/// observed.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `samples == 0`.
pub fn sampled(netlist: &Netlist, samples: usize, seed: u64) -> Result<u32, SimError> {
    if samples == 0 {
        return Err(SimError::bad("samples", samples, "must be at least 1"));
    }
    let n = netlist.input_count();
    if n == 0 {
        return Ok(0);
    }
    let base = PatternSet::random(n, samples, seed);
    let base_values = evaluate_packed(netlist, &base)?;
    let count = base.count();
    let words = base.words_per_signal();
    let tail = tail_mask(count);

    let mut counts = vec![0u32; count];
    let mut any_diff = vec![0u64; words];
    for i in 0..n {
        let flipped = base.with_input_flipped(i);
        let flipped_values = evaluate_packed(netlist, &flipped)?;
        any_diff.fill(0);
        for out in netlist.outputs() {
            let a = base_values.node(out.driver);
            let b = flipped_values.node(out.driver);
            for w in 0..words {
                any_diff[w] |= a[w] ^ b[w];
            }
        }
        add_sensitive_bits(&any_diff, tail, &mut counts);
    }
    Ok(counts.iter().copied().max().unwrap_or(0))
}

/// Sensitivity lower bound from random sampling on the compiled engine
/// — bit-identical to [`sampled`] (same base patterns, same flips, same
/// counting).
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `samples == 0`.
pub fn sampled_with(
    program: &SimProgram,
    scratch: &mut SimScratch,
    samples: usize,
    seed: u64,
) -> Result<u32, SimError> {
    if samples == 0 {
        return Err(SimError::bad("samples", samples, "must be at least 1"));
    }
    let n = program.num_inputs();
    if n == 0 {
        return Ok(0);
    }
    let base = PatternSet::random(n, samples, seed);
    program.run_clean(scratch, &base)?;
    let base_streams: Vec<Vec<u64>> = (0..program.num_outputs())
        .map(|o| program.output_stream(scratch, o).to_vec())
        .collect();
    let count = base.count();
    let words = base.words_per_signal();
    let tail = tail_mask(count);

    let mut counts = vec![0u32; count];
    let mut any_diff = vec![0u64; words];
    // Inverting input i's slot in place and re-running the tape yields
    // exactly the streams of `base.with_input_flipped(i)`, the input the
    // interpreted oracle runs, without copying the other inputs.
    for i in 0..n {
        program.invert_input(scratch, i);
        program.eval_clean(scratch);
        any_diff.fill(0);
        for (o, a) in base_streams.iter().enumerate() {
            let b = program.output_stream(scratch, o);
            for w in 0..words {
                any_diff[w] |= a[w] ^ b[w];
            }
        }
        add_sensitive_bits(&any_diff, tail, &mut counts);
        program.invert_input(scratch, i);
    }
    Ok(counts.iter().copied().max().unwrap_or(0))
}

/// Dispatches to [`exact`] when feasible, otherwise [`sampled`].
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `samples == 0` and sampling is
/// required.
pub fn estimate(
    netlist: &Netlist,
    samples: usize,
    seed: u64,
) -> Result<SensitivityEstimate, SimError> {
    if netlist.input_count() <= EXACT_LIMIT {
        Ok(SensitivityEstimate::Exact(exact(netlist)?))
    } else {
        Ok(SensitivityEstimate::SampledLowerBound {
            value: sampled(netlist, samples, seed)?,
            samples,
        })
    }
}

/// [`estimate`] on the compiled engine: dispatches to [`exact_with`]
/// when feasible, otherwise [`sampled_with`] — bit-identical to the
/// interpreted dispatch.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `samples == 0` and sampling is
/// required.
pub fn estimate_with(
    program: &SimProgram,
    scratch: &mut SimScratch,
    samples: usize,
    seed: u64,
) -> Result<SensitivityEstimate, SimError> {
    if program.num_inputs() <= EXACT_LIMIT {
        Ok(SensitivityEstimate::Exact(exact_with(program, scratch)?))
    } else {
        Ok(SensitivityEstimate::SampledLowerBound {
            value: sampled_with(program, scratch, samples, seed)?,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_gen::{adder, comparator, mux, parity};
    use nanobound_logic::{GateKind, Netlist};

    #[test]
    fn parity_sensitivity_is_n() {
        for n in [2usize, 5, 9] {
            let tree = parity::parity_tree(n, 2).unwrap();
            assert_eq!(exact(&tree).unwrap(), n as u32, "n = {n}");
        }
    }

    #[test]
    fn and_gate_sensitivity() {
        // n-input AND: at the all-ones assignment every flip matters.
        let mut nl = Netlist::new("and");
        let inputs: Vec<_> = (0..5).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &inputs).unwrap();
        nl.add_output("y", g).unwrap();
        assert_eq!(exact(&nl).unwrap(), 5);
    }

    #[test]
    fn adder_sensitivity_matches_analytic() {
        for w in [2usize, 4, 6] {
            let rca = adder::ripple_carry(w).unwrap();
            assert_eq!(
                exact(&rca).unwrap(),
                adder::adder_sensitivity(w),
                "width {w}"
            );
        }
    }

    #[test]
    fn equality_sensitivity_matches_analytic() {
        let eq = comparator::equal(4).unwrap();
        assert_eq!(exact(&eq).unwrap(), comparator::equality_sensitivity(4));
    }

    #[test]
    fn mux_sensitivity_matches_analytic() {
        let m = mux::mux_tree(2).unwrap();
        assert_eq!(exact(&m).unwrap(), mux::sensitivity(2));
    }

    #[test]
    fn constant_circuit_has_zero_sensitivity() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate(GateKind::And, &[a, na]).unwrap(); // always 0
        nl.add_output("y", g).unwrap();
        assert_eq!(exact(&nl).unwrap(), 0);
    }

    #[test]
    fn exact_rejects_wide_circuits() {
        let rca = adder::ripple_carry(12).unwrap(); // 25 inputs
        assert!(matches!(
            exact(&rca),
            Err(SimError::TooManyInputs { inputs: 25, .. })
        ));
    }

    #[test]
    fn sampled_reaches_exact_on_parity() {
        // Parity is sensitive everywhere, so even one sample finds s = n.
        let tree = parity::parity_tree(30, 2).unwrap();
        assert_eq!(sampled(&tree, 64, 3).unwrap(), 30);
    }

    #[test]
    fn sampled_is_a_lower_bound() {
        let rca = adder::ripple_carry(4).unwrap();
        let exact_s = exact(&rca).unwrap();
        for seed in 0..5 {
            let est = sampled(&rca, 256, seed).unwrap();
            assert!(est <= exact_s, "seed {seed}: {est} > {exact_s}");
        }
        // With plenty of samples over 9 inputs, the max is found.
        assert_eq!(sampled(&rca, 4096, 0).unwrap(), exact_s);
    }

    #[test]
    fn estimate_dispatches_on_width() {
        let narrow = parity::parity_tree(6, 2).unwrap();
        assert!(estimate(&narrow, 64, 0).unwrap().is_exact());
        let wide = parity::parity_tree(26, 2).unwrap();
        let est = estimate(&wide, 64, 0).unwrap();
        assert!(!est.is_exact());
        assert_eq!(est.value(), 26);
    }

    #[test]
    fn sensitive_counts_pass_sixteen_bits() {
        // One pattern sensitive to 70,000 inputs, as in a 70,000-input
        // XOR: a 16-bit count would wrap to 4,464.
        let mut counts = vec![0; 64];
        for _ in 0..70_000 {
            add_sensitive_bits(&[1 << 5], !0, &mut counts);
        }
        assert_eq!(u64::from(counts[5]), 70_000);
        assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), 70_000);
    }

    #[test]
    fn delta_swap_is_an_involution() {
        let x = 0xDEAD_BEEF_CAFE_F00Du64;
        for k in 0..6 {
            let s = 1u32 << k;
            assert_eq!(delta_swap(delta_swap(x, s), s), x, "s = {s}");
        }
    }

    #[test]
    fn delta_swap_matches_index_flip() {
        // For every lane j, delta_swap moves bit j to lane j ^ s.
        let s = 4u32;
        for j in 0..64u32 {
            let x = 1u64 << j;
            assert_eq!(delta_swap(x, s), 1u64 << (j ^ s), "lane {j}");
        }
    }
}
