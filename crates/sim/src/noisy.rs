//! Noisy (fault-injecting) Monte-Carlo simulation.
//!
//! Implements the paper's Figure-1 error model in executable form: every
//! logic gate is an error-free device cascaded with a binary symmetric
//! channel of crossover probability ε. Per pattern lane and per gate, an
//! independent Bernoulli(ε) bit is XORed onto the gate's error-free
//! output.
//!
//! Buffers and constants are treated as wiring artifacts, not devices,
//! and receive no noise — consistent with [`Netlist::gate_count`]
//! defining the paper's device count `S0`.
//!
//! Fault masks come from the v2 counter-based stream
//! ([`crate::faultstream`]): the mask of `(seed, gate ordinal, word)`
//! is a pure hash, not a position in a sequential RNG stream, so this
//! interpreted oracle and the compiled executor derive identical masks
//! by construction regardless of evaluation order.

use nanobound_cache::{CacheCodec, Decoder, Encoder};
use nanobound_logic::{Netlist, Node};

use crate::activity::{activity_of_values, toggle_count};
use crate::engine::{eval_gate_into, evaluate_packed, NodeValues};
use crate::error::SimError;
use crate::faultstream::{gate_state, MaskPlan};
use crate::patterns::{tail_mask, PatternSet};

/// Configuration of one noisy simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoisyConfig {
    /// Per-gate output error probability ε of the symmetric channel.
    pub epsilon: f64,
    /// Seed of the fault-mask RNG (independent of the pattern seed).
    pub seed: u64,
}

impl NoisyConfig {
    /// Creates a configuration, validating ε.
    ///
    /// # The symmetric branch (ε > ½)
    ///
    /// The *simulator* is well defined on the whole interval `[0, 1]`:
    /// at ε = 1 every gate output is deterministically inverted, and the
    /// switching statistics are symmetric around ε = ½ (an ε-channel and
    /// a (1-ε)-channel produce identical toggle rates — Theorem 1's
    /// `(1-2ε)²` factor is even in `ε - ½`). The paper's *bound*
    /// formulas, however, assume ε ≤ ½: above it the channel contraction
    /// `ξ = 1 - 2ε` goes negative and quantities like `ξ^(1/k)` stop
    /// being real. Use [`NoisyConfig::strict`] when the configuration
    /// feeds the bounds, and plain `new` when deliberately exploring the
    /// symmetric branch; see [`SimError::BadParameter`] for how the two
    /// domains are reported.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] unless `0 ≤ ε ≤ 1`, or if a
    /// nonzero ε is so small that the fault stream quantizes it to an
    /// exactly noise-free (or always-flipping) simulation — a silently
    /// wrong answer surfaced as a parameter error instead.
    pub fn new(epsilon: f64, seed: u64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(SimError::bad("epsilon", epsilon, "must lie in [0, 1]"));
        }
        if MaskPlan::collapses(epsilon) {
            return Err(SimError::bad(
                "epsilon",
                epsilon,
                "quantizes to an exactly deterministic fault stream \
                 (the mask generator resolves ~2^-70 at its floor); \
                 pass epsilon = 0 or 1 explicitly if that is intended",
            ));
        }
        Ok(NoisyConfig { epsilon, seed })
    }

    /// Creates a configuration restricted to the paper's regime ε ≤ ½.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] unless `0 ≤ ε ≤ ½` (the
    /// requirement text points at [`NoisyConfig::new`] for callers that
    /// really do want the symmetric branch), or on the same
    /// quantization-collapse condition as [`NoisyConfig::new`].
    pub fn strict(epsilon: f64, seed: u64) -> Result<Self, SimError> {
        if !(0.0..=0.5).contains(&epsilon) {
            return Err(SimError::bad(
                "epsilon",
                epsilon,
                "must lie in [0, 0.5]: the bound formulas assume eps <= 1/2 \
                 (use NoisyConfig::new to simulate the symmetric branch)",
            ));
        }
        NoisyConfig::new(epsilon, seed)
    }

    /// Whether this ε lies beyond the paper's ε ≤ ½ regime, where only
    /// the simulator — not the bound formulas — is meaningful.
    #[must_use]
    pub fn is_symmetric_branch(&self) -> bool {
        self.epsilon > 0.5
    }
}

/// Evaluates every node with per-gate fault injection.
///
/// Downstream gates consume the *noisy* value of their fanins, so errors
/// propagate and interact exactly as in the paper's model.
///
/// # Errors
///
/// Returns [`SimError::InputMismatch`] if the pattern set does not match
/// the netlist's input count.
pub fn evaluate_noisy(
    netlist: &Netlist,
    patterns: &PatternSet,
    config: &NoisyConfig,
) -> Result<NodeValues, SimError> {
    if patterns.num_inputs() != netlist.input_count() {
        return Err(SimError::InputMismatch {
            expected: netlist.input_count(),
            got: patterns.num_inputs(),
        });
    }
    let words = patterns.words_per_signal();
    let plan = MaskPlan::new(config.epsilon);
    let mut values = vec![0u64; netlist.node_count() * words];
    let mut next_input = 0usize;
    // Ordinal of the node among noise-carrying gates, in node-id order.
    // This equals the gate's op index on the compiled tape (ops are
    // created for exactly the `counts_as_gate` kinds, in the same
    // order), which is what makes the two engines' masks identical.
    let mut gate_ordinal = 0u64;
    for (i, node) in netlist.nodes().iter().enumerate() {
        let (done, rest) = values.split_at_mut(i * words);
        let out = &mut rest[..words];
        match node {
            Node::Input { .. } => {
                out.copy_from_slice(patterns.input_words(next_input));
                next_input += 1;
            }
            Node::Gate { kind, fanins } => {
                eval_gate_into(*kind, fanins, done, words, out);
                if kind.counts_as_gate() {
                    let gs = gate_state(config.seed, gate_ordinal);
                    gate_ordinal += 1;
                    // The oracle spells out the stream definition one
                    // word at a time; the compiled executor's bulk
                    // `MaskPlan::xor_masks` must reproduce these bits
                    // exactly (pinned by the differential tests).
                    for (w, word) in out.iter_mut().enumerate() {
                        *word ^= plan.mask_word(gs, w as u64);
                    }
                }
            }
        }
    }
    Ok(NodeValues::from_flat(values, words, patterns.count()))
}

/// Aggregate outcome of a noisy-vs-clean Monte-Carlo comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct NoisyOutcome {
    /// Patterns simulated.
    pub patterns: usize,
    /// Fraction of patterns on which *any* primary output differed from
    /// the error-free circuit — the empirical output failure rate δ̂.
    pub circuit_error_rate: f64,
    /// Per-output error rates, in output declaration order.
    pub per_output_error_rate: Vec<f64>,
    /// Mean switching activity over logic gates of the *noisy* values —
    /// the `sw(ε)` that Theorem 1 predicts from the error-free `sw0`.
    pub noisy_avg_gate_activity: f64,
    /// Mean switching activity over logic gates of the error-free run,
    /// from the same input patterns.
    pub clean_avg_gate_activity: f64,
}

/// Runs the paired clean/noisy Monte-Carlo experiment on random input
/// vectors.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `patterns < 2`.
///
/// # Examples
///
/// ```
/// use nanobound_gen::parity;
/// use nanobound_sim::{monte_carlo, NoisyConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = parity::parity_tree(8, 2)?;
/// let noisy = monte_carlo(&tree, &NoisyConfig::new(0.01, 7)?, 20_000, 11)?;
/// // 7 XOR gates, each failing 1% of the time, errors never mask on the
/// // single parity output: failure rate just under 7%.
/// assert!(noisy.circuit_error_rate > 0.04 && noisy.circuit_error_rate < 0.10);
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo(
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
) -> Result<NoisyOutcome, SimError> {
    if patterns < 2 {
        return Err(SimError::bad("patterns", patterns, "must be at least 2"));
    }
    let set = PatternSet::random(netlist.input_count(), patterns, pattern_seed);
    let clean = evaluate_packed(netlist, &set)?;
    let noisy = evaluate_noisy(netlist, &set, config)?;
    Ok(compare_runs(netlist, &clean, &noisy))
}

/// Accumulates one output's clean-vs-noisy mismatches: the popcount of
/// the valid diff bits, ORed into `any_diff` per word. Full words are
/// processed unmasked in one pass; only the final word is masked with
/// the valid-pattern tail.
fn output_diff_ones(c: &[u64], z: &[u64], tail: u64, any_diff: &mut [u64]) -> u64 {
    let words = any_diff.len();
    if words == 0 {
        return 0;
    }
    let mut ones = 0u64;
    for w in 0..words - 1 {
        let diff = c[w] ^ z[w];
        ones += u64::from(diff.count_ones());
        any_diff[w] |= diff;
    }
    let diff = (c[words - 1] ^ z[words - 1]) & tail;
    ones += u64::from(diff.count_ones());
    any_diff[words - 1] |= diff;
    ones
}

/// Compares a clean and a noisy run over the same pattern set.
///
/// # Panics
///
/// Panics if the two runs have different pattern counts.
#[must_use]
pub fn compare_runs(netlist: &Netlist, clean: &NodeValues, noisy: &NodeValues) -> NoisyOutcome {
    assert_eq!(
        clean.count(),
        noisy.count(),
        "runs cover different pattern counts"
    );
    let count = clean.count();
    let words = count.div_ceil(64);
    let tail = tail_mask(count);

    let mut per_output_error_rate = Vec::with_capacity(netlist.output_count());
    let mut any_diff = vec![0u64; words];
    for out in netlist.outputs() {
        let c = clean.node(out.driver);
        let z = noisy.node(out.driver);
        let ones = output_diff_ones(c, z, tail, &mut any_diff);
        per_output_error_rate.push(ones as f64 / count as f64);
    }
    let circuit_errors: u64 = any_diff.iter().map(|w| u64::from(w.count_ones())).sum();

    let clean_profile = activity_of_values(netlist, clean);
    let noisy_profile = activity_of_values(netlist, noisy);
    NoisyOutcome {
        patterns: count,
        circuit_error_rate: circuit_errors as f64 / count as f64,
        per_output_error_rate,
        noisy_avg_gate_activity: noisy_profile.avg_gate_activity,
        clean_avg_gate_activity: clean_profile.avg_gate_activity,
    }
}

/// Mergeable integer tallies of one noisy-vs-clean comparison chunk.
///
/// [`NoisyOutcome`] stores *rates* — floating-point ratios that cannot
/// be combined across runs without reintroducing rounding that depends
/// on the combination order. `NoisyTally` keeps the raw counts instead,
/// so a Monte-Carlo experiment can be split into chunks, the chunks
/// simulated in any order (or in parallel), and the totals merged with
/// plain integer addition — the final [`NoisyTally::outcome`] is
/// bit-identical no matter how the work was scheduled. This is the
/// substrate of `nanobound-runner`'s sharded Monte-Carlo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoisyTally {
    /// Patterns simulated.
    pub patterns: usize,
    /// Consecutive-pattern transitions observed (`patterns - 1` per
    /// chunk; chunk boundaries contribute none).
    pub transitions: usize,
    /// Logic gates of the netlist (constant across chunks).
    pub gates: usize,
    /// Patterns on which any primary output differed from the clean run.
    pub circuit_errors: u64,
    /// Per-output mismatch counts, in output declaration order.
    pub per_output_errors: Vec<u64>,
    /// Total toggles summed over all logic gates, error-free run.
    pub clean_gate_toggles: u64,
    /// Total toggles summed over all logic gates, noisy run.
    pub noisy_gate_toggles: u64,
}

impl NoisyTally {
    /// Folds another chunk's tallies into this one.
    ///
    /// # Panics
    ///
    /// Panics if the chunks describe different netlists (output or gate
    /// counts disagree).
    pub fn merge(&mut self, other: &NoisyTally) {
        assert_eq!(
            self.per_output_errors.len(),
            other.per_output_errors.len(),
            "tallies cover different output counts"
        );
        assert_eq!(self.gates, other.gates, "tallies cover different netlists");
        self.patterns += other.patterns;
        self.transitions += other.transitions;
        self.circuit_errors += other.circuit_errors;
        for (a, b) in self
            .per_output_errors
            .iter_mut()
            .zip(&other.per_output_errors)
        {
            *a += b;
        }
        self.clean_gate_toggles += other.clean_gate_toggles;
        self.noisy_gate_toggles += other.noisy_gate_toggles;
    }

    /// Converts the accumulated counts into rates.
    ///
    /// The gate-activity averages divide the *total* toggle count by
    /// `transitions × gates` — mathematically the per-gate mean of
    /// toggle rates that [`compare_runs`] reports, computed in one
    /// division so the result does not depend on how the patterns were
    /// chunked into tallies.
    #[must_use]
    pub fn outcome(&self) -> NoisyOutcome {
        let patterns = self.patterns.max(1) as f64;
        let toggle_slots = (self.transitions.max(1) * self.gates.max(1)) as f64;
        let gate_avg = |toggles: u64| {
            if self.gates == 0 {
                0.0
            } else {
                toggles as f64 / toggle_slots
            }
        };
        NoisyOutcome {
            patterns: self.patterns,
            circuit_error_rate: self.circuit_errors as f64 / patterns,
            per_output_error_rate: self
                .per_output_errors
                .iter()
                .map(|&e| e as f64 / patterns)
                .collect(),
            noisy_avg_gate_activity: gate_avg(self.noisy_gate_toggles),
            clean_avg_gate_activity: gate_avg(self.clean_gate_toggles),
        }
    }
}

/// Tallies a clean and a noisy run over the same pattern set into
/// mergeable integer counts (the chunk-level sibling of
/// [`compare_runs`]).
///
/// # Panics
///
/// Panics if the two runs have different pattern counts.
#[must_use]
pub fn tally_runs(netlist: &Netlist, clean: &NodeValues, noisy: &NodeValues) -> NoisyTally {
    assert_eq!(
        clean.count(),
        noisy.count(),
        "runs cover different pattern counts"
    );
    let count = clean.count();
    let words = count.div_ceil(64);
    let tail = tail_mask(count);

    let mut per_output_errors = Vec::with_capacity(netlist.output_count());
    let mut any_diff = vec![0u64; words];
    for out in netlist.outputs() {
        let c = clean.node(out.driver);
        let z = noisy.node(out.driver);
        per_output_errors.push(output_diff_ones(c, z, tail, &mut any_diff));
    }
    let circuit_errors: u64 = any_diff.iter().map(|w| u64::from(w.count_ones())).sum();

    let mut gates = 0usize;
    let mut clean_gate_toggles = 0u64;
    let mut noisy_gate_toggles = 0u64;
    for id in netlist.node_ids() {
        if netlist
            .node(id)
            .kind()
            .is_some_and(nanobound_logic::GateKind::counts_as_gate)
        {
            gates += 1;
            clean_gate_toggles += toggle_count(clean.node(id), count);
            noisy_gate_toggles += toggle_count(noisy.node(id), count);
        }
    }
    NoisyTally {
        patterns: count,
        transitions: count.saturating_sub(1),
        gates,
        circuit_errors,
        per_output_errors,
        clean_gate_toggles,
        noisy_gate_toggles,
    }
}

/// Runs one chunk of the paired clean/noisy Monte-Carlo experiment and
/// returns its mergeable tallies.
///
/// Unlike [`monte_carlo`], a single-pattern chunk is allowed (it simply
/// contributes no transitions); the chunk-splitting caller is
/// responsible for requiring a statistically meaningful total.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `patterns == 0`.
pub fn monte_carlo_tally(
    netlist: &Netlist,
    config: &NoisyConfig,
    patterns: usize,
    pattern_seed: u64,
) -> Result<NoisyTally, SimError> {
    if patterns == 0 {
        return Err(SimError::bad("patterns", patterns, "must be at least 1"));
    }
    let set = PatternSet::random(netlist.input_count(), patterns, pattern_seed);
    let clean = evaluate_packed(netlist, &set)?;
    let noisy = evaluate_noisy(netlist, &set, config)?;
    Ok(tally_runs(netlist, &clean, &noisy))
}

/// Integer-only encoding: every field round-trips exactly, so a tally
/// served from the shard cache merges bit-identically with freshly
/// computed ones — the substrate of `nanobound-runner`'s
/// `monte_carlo` with a shard cache.
impl CacheCodec for NoisyTally {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.patterns);
        enc.put_usize(self.transitions);
        enc.put_usize(self.gates);
        enc.put_u64(self.circuit_errors);
        self.per_output_errors.encode(enc);
        enc.put_u64(self.clean_gate_toggles);
        enc.put_u64(self.noisy_gate_toggles);
    }

    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        Some(NoisyTally {
            patterns: dec.take_usize()?,
            transitions: dec.take_usize()?,
            gates: dec.take_usize()?,
            circuit_errors: dec.take_u64()?,
            per_output_errors: Vec::decode(dec)?,
            clean_gate_toggles: dec.take_u64()?,
            noisy_gate_toggles: dec.take_u64()?,
        })
    }
}

/// Theorem 1 of the paper: switching activity of an ε-noisy device whose
/// error-free output has activity `sw`.
///
/// Re-exported by `nanobound-core` as the bound; duplicated here (one
/// line) so the simulator crate can state its own validation tests
/// without a dependency cycle.
#[must_use]
pub fn theorem1_prediction(sw: f64, epsilon: f64) -> f64 {
    let a = 1.0 - 2.0 * epsilon;
    a * a * sw + 2.0 * epsilon * (1.0 - epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_logic::GateKind;

    fn single_gate(kind: GateKind, fanin: usize) -> Netlist {
        let mut nl = Netlist::new("g");
        let inputs: Vec<_> = (0..fanin).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(kind, &inputs).unwrap();
        nl.add_output("y", g).unwrap();
        nl
    }

    #[test]
    fn epsilon_zero_is_noise_free() {
        let nl = single_gate(GateKind::Xor, 3);
        let out = monte_carlo(&nl, &NoisyConfig::new(0.0, 1).unwrap(), 5_000, 2).unwrap();
        assert_eq!(out.circuit_error_rate, 0.0);
        assert_eq!(out.per_output_error_rate, vec![0.0]);
        assert_eq!(out.noisy_avg_gate_activity, out.clean_avg_gate_activity);
    }

    #[test]
    fn single_gate_error_rate_is_epsilon() {
        let nl = single_gate(GateKind::And, 2);
        for &eps in &[0.05, 0.2, 0.5] {
            let out = monte_carlo(&nl, &NoisyConfig::new(eps, 3).unwrap(), 100_000, 4).unwrap();
            let sigma = (eps * (1.0 - eps) / 100_000.0).sqrt();
            assert!(
                (out.circuit_error_rate - eps).abs() < 6.0 * sigma,
                "eps = {eps}, measured {}",
                out.circuit_error_rate
            );
        }
    }

    #[test]
    fn theorem1_holds_for_a_single_device() {
        // A buffer-free single gate: its noisy activity must match the
        // closed form within Monte-Carlo error.
        let nl = single_gate(GateKind::And, 3); // low-activity output
        for &eps in &[0.01, 0.1, 0.3] {
            let out = monte_carlo(&nl, &NoisyConfig::new(eps, 5).unwrap(), 200_000, 6).unwrap();
            let predicted = theorem1_prediction(out.clean_avg_gate_activity, eps);
            assert!(
                (out.noisy_avg_gate_activity - predicted).abs() < 0.01,
                "eps = {eps}: measured {} predicted {predicted}",
                out.noisy_avg_gate_activity
            );
        }
    }

    #[test]
    fn noise_makes_output_look_random_at_half() {
        // ε = 0.5 destroys all information: output is a coin flip.
        let nl = single_gate(GateKind::And, 4);
        let out = monte_carlo(&nl, &NoisyConfig::new(0.5, 7).unwrap(), 100_000, 8).unwrap();
        assert!((out.noisy_avg_gate_activity - 0.5).abs() < 0.01);
    }

    #[test]
    fn buffers_are_noise_free() {
        let mut nl = Netlist::new("b");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.add_output("y", buf).unwrap();
        let out = monte_carlo(&nl, &NoisyConfig::new(0.4, 9).unwrap(), 10_000, 10).unwrap();
        assert_eq!(out.circuit_error_rate, 0.0);
    }

    #[test]
    fn errors_propagate_through_depth() {
        // A chain of 10 buffers realized as double inverters: 20 noisy
        // devices; each error flips the output unless masked by another.
        let mut nl = Netlist::new("chain");
        let mut node = nl.add_input("a");
        for _ in 0..20 {
            node = nl.add_gate(GateKind::Not, &[node]).unwrap();
        }
        nl.add_output("y", node).unwrap();
        let eps = 0.01;
        let out = monte_carlo(&nl, &NoisyConfig::new(eps, 11).unwrap(), 200_000, 12).unwrap();
        // Output wrong iff an odd number of the 20 channels flip:
        // P = (1 - (1-2ε)^20) / 2 ≈ 0.1655.
        let expected = (1.0 - (1.0 - 2.0 * eps).powi(20)) / 2.0;
        assert!(
            (out.circuit_error_rate - expected).abs() < 0.01,
            "measured {} expected {expected}",
            out.circuit_error_rate
        );
    }

    #[test]
    fn config_validates_epsilon() {
        assert!(NoisyConfig::new(-0.1, 0).is_err());
        assert!(NoisyConfig::new(1.1, 0).is_err());
        assert!(NoisyConfig::new(f64::NAN, 0).is_err());
        assert!(NoisyConfig::new(0.5, 0).is_ok());
    }

    #[test]
    fn quantization_collapse_is_a_surfaced_error() {
        // Exact endpoints are deliberate and fine.
        assert!(NoisyConfig::new(0.0, 0).is_ok());
        assert!(NoisyConfig::new(1.0, 0).is_ok());
        // ε well below the v1 stream's 2^-25 cliff still simulates —
        // the v2 sparse sampler resolves down to ~2^-70.
        assert!(NoisyConfig::new(1e-6, 0).is_ok());
        assert!(NoisyConfig::new((2f64).powi(-40), 0).is_ok());
        assert!(NoisyConfig::new((2f64).powi(-60), 0).is_ok());
        // Below the floor, a nonzero ε would silently simulate ε = 0:
        // that is now a parameter error, for both constructors.
        let err = NoisyConfig::new((2f64).powi(-80), 0).unwrap_err();
        assert!(
            err.to_string().contains("deterministic fault stream"),
            "unhelpful error: {err}"
        );
        assert!(NoisyConfig::new(f64::MIN_POSITIVE, 0).is_err());
        assert!(NoisyConfig::strict((2f64).powi(-80), 0).is_err());
        assert!(NoisyConfig::strict(0.0, 0).is_ok());
    }

    #[test]
    fn deterministic_in_seeds() {
        let nl = single_gate(GateKind::Or, 3);
        let cfg = NoisyConfig::new(0.1, 21).unwrap();
        let a = monte_carlo(&nl, &cfg, 5_000, 22).unwrap();
        let b = monte_carlo(&nl, &cfg, 5_000, 22).unwrap();
        assert_eq!(a, b);
        let c = monte_carlo(&nl, &NoisyConfig::new(0.1, 23).unwrap(), 5_000, 22).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn epsilon_boundaries_zero_half_one() {
        // ε = 0: noise-free. ε = ½: pure coin flip. ε = 1: every gate
        // deterministically inverted — the far end of the symmetric
        // branch, simulable even though the bounds assume ε ≤ ½.
        let nl = single_gate(GateKind::And, 2);

        let at0 = monte_carlo(&nl, &NoisyConfig::new(0.0, 1).unwrap(), 50_000, 2).unwrap();
        assert_eq!(at0.circuit_error_rate, 0.0);

        let cfg_half = NoisyConfig::new(0.5, 1).unwrap();
        assert!(!cfg_half.is_symmetric_branch());
        let at_half = monte_carlo(&nl, &cfg_half, 50_000, 2).unwrap();
        assert!((at_half.circuit_error_rate - 0.5).abs() < 0.01);
        assert!((at_half.noisy_avg_gate_activity - 0.5).abs() < 0.01);

        let cfg_one = NoisyConfig::new(1.0, 1).unwrap();
        assert!(cfg_one.is_symmetric_branch());
        let at1 = monte_carlo(&nl, &cfg_one, 50_000, 2).unwrap();
        // Deterministic inversion: the single output is always wrong.
        assert_eq!(at1.circuit_error_rate, 1.0);
        // Theorem 1's activity is symmetric in ε ↔ 1-ε: at ε = 1 the
        // noisy toggle rate equals the clean one exactly.
        assert_eq!(at1.noisy_avg_gate_activity, at1.clean_avg_gate_activity);
    }

    #[test]
    fn strict_constructor_rejects_the_symmetric_branch() {
        assert!(NoisyConfig::strict(0.0, 0).is_ok());
        assert!(NoisyConfig::strict(0.5, 0).is_ok());
        let err = NoisyConfig::strict(0.51, 0).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("eps <= 1/2") && msg.contains("symmetric branch"),
            "unhelpful error: {msg}"
        );
        assert!(NoisyConfig::strict(1.0, 0).is_err());
        assert!(NoisyConfig::strict(-0.1, 0).is_err());
        assert!(NoisyConfig::strict(f64::NAN, 0).is_err());
    }

    #[test]
    fn tally_matches_compare_runs_on_one_chunk() {
        let nl = single_gate(GateKind::Xor, 3);
        let cfg = NoisyConfig::new(0.2, 9).unwrap();
        let set = PatternSet::random(nl.input_count(), 10_000, 10);
        let clean = evaluate_packed(&nl, &set).unwrap();
        let noisy = evaluate_noisy(&nl, &set, &cfg).unwrap();
        let from_compare = compare_runs(&nl, &clean, &noisy);
        let from_tally = tally_runs(&nl, &clean, &noisy).outcome();
        assert_eq!(from_tally.patterns, from_compare.patterns);
        assert_eq!(
            from_tally.circuit_error_rate,
            from_compare.circuit_error_rate
        );
        assert_eq!(
            from_tally.per_output_error_rate,
            from_compare.per_output_error_rate
        );
        // Activity averages agree mathematically; single gate ⇒ exactly.
        assert_eq!(
            from_tally.noisy_avg_gate_activity,
            from_compare.noisy_avg_gate_activity
        );
    }

    #[test]
    fn merged_tallies_sum_counts() {
        let nl = single_gate(GateKind::Or, 2);
        let cfg_a = NoisyConfig::new(0.1, 1).unwrap();
        let cfg_b = NoisyConfig::new(0.1, 2).unwrap();
        let mut a = monte_carlo_tally(&nl, &cfg_a, 1000, 3).unwrap();
        let b = monte_carlo_tally(&nl, &cfg_b, 500, 4).unwrap();
        let (ca, cb) = (a.circuit_errors, b.circuit_errors);
        a.merge(&b);
        assert_eq!(a.patterns, 1500);
        assert_eq!(a.transitions, 999 + 499);
        assert_eq!(a.circuit_errors, ca + cb);
        let out = a.outcome();
        assert_eq!(out.patterns, 1500);
        assert!((out.circuit_error_rate - 0.1).abs() < 0.05);
    }

    #[test]
    fn single_pattern_chunks_are_allowed_in_tallies() {
        let nl = single_gate(GateKind::And, 2);
        let cfg = NoisyConfig::new(0.3, 5).unwrap();
        let t = monte_carlo_tally(&nl, &cfg, 1, 6).unwrap();
        assert_eq!(t.patterns, 1);
        assert_eq!(t.transitions, 0);
        assert_eq!(t.outcome().noisy_avg_gate_activity, 0.0);
        assert!(monte_carlo_tally(&nl, &cfg, 0, 6).is_err());
    }

    #[test]
    fn tally_codec_roundtrips_exactly() {
        let nl = single_gate(GateKind::Xor, 3);
        let cfg = NoisyConfig::new(0.2, 9).unwrap();
        let tally = monte_carlo_tally(&nl, &cfg, 4_097, 10).unwrap();
        let bytes = nanobound_cache::encode_to_vec(&tally);
        let back: NoisyTally = nanobound_cache::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, tally);
        // Truncations never decode.
        assert!(
            nanobound_cache::decode_from_slice::<NoisyTally>(&bytes[..bytes.len() - 1]).is_none()
        );
    }

    #[test]
    fn per_output_rates_cover_all_outputs() {
        let mut nl = Netlist::new("two");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("y1", g1).unwrap();
        nl.add_output("y2", g2).unwrap();
        let out = monte_carlo(&nl, &NoisyConfig::new(0.1, 1).unwrap(), 50_000, 2).unwrap();
        assert_eq!(out.per_output_error_rate.len(), 2);
        for &r in &out.per_output_error_rate {
            assert!((r - 0.1).abs() < 0.01, "rate {r}");
        }
        // Circuit-level rate: either gate failing = 1 - (1-ε)² ≈ 0.19.
        assert!((out.circuit_error_rate - 0.19).abs() < 0.01);
    }
}
