//! Switching-activity and signal-probability estimation.
//!
//! The paper's energy model is `E = ½·C·Vdd²·sw` where `sw` is switching
//! activity: the probability a signal changes state between consecutive
//! (temporally independent) input vectors. This module measures both the
//! empirical toggle rate and the signal probability of every node, plus
//! the per-gate averages (`sw0` in the paper) consumed by the bounds.

use nanobound_logic::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::compiled::WINDOW;
use crate::engine::{evaluate_packed, NodeValues};
use crate::error::SimError;
use crate::patterns::PatternSet;

/// Per-node activity statistics of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct ActivityProfile {
    /// Empirical `p(x)` per node (fraction of patterns evaluating to 1).
    pub signal_probability: Vec<f64>,
    /// Empirical `sw(x)` per node (fraction of consecutive-pattern pairs
    /// that toggle).
    pub switching_activity: Vec<f64>,
    /// Mean switching activity over *logic gates* only — the paper's
    /// `sw0` when measured on an error-free circuit.
    pub avg_gate_activity: f64,
    /// Mean signal probability over logic gates.
    pub avg_gate_probability: f64,
    /// Number of patterns the profile was computed from.
    pub patterns: usize,
}

/// Counts toggles between consecutive valid patterns of a packed stream.
///
/// Pattern pairs `(t, t+1)` for `t` in `0..count-1` are examined, across
/// word boundaries included.
///
/// Transitions come in complete 64-blocks (63 in-word slots plus the
/// boundary into the next word); the hot loop handles those with a
/// fixed mask and no per-word branches, and only the final partial
/// block computes a tail mask — this is the simulator's single most
/// executed counting loop (every gate, every chunk, clean and noisy).
#[must_use]
pub fn toggle_count(stream: &[u64], count: usize) -> u64 {
    if count < 2 {
        return 0;
    }
    let transitions = count - 1;
    // Bits 0..=62: the 63 in-word transition slots of a full block.
    const WITHIN: u64 = (1u64 << 63) - 1;
    let full = transitions / 64;
    let mut toggles: u64 = 0;
    for w in 0..full {
        let x = stream[w];
        toggles += u64::from(((x ^ (x >> 1)) & WITHIN).count_ones());
        toggles += (x >> 63) ^ (stream[w + 1] & 1);
    }
    // Remaining in-word transitions of the final partial block.
    let rest = transitions - 64 * full;
    if rest > 0 {
        let x = stream[full];
        let mask = (1u64 << rest) - 1;
        toggles += u64::from(((x ^ (x >> 1)) & mask).count_ones());
    }
    toggles
}

/// Derives the activity profile from already-computed node values.
///
/// The pattern set must consist of temporally independent vectors (e.g.
/// [`PatternSet::random`]) for the toggle rate to estimate the paper's
/// `sw`; applying it to exhaustive patterns measures toggling along the
/// binary enumeration order instead, which is rarely what you want.
#[must_use]
pub fn activity_of_values(netlist: &Netlist, values: &NodeValues) -> ActivityProfile {
    let count = values.count();
    let counts: Vec<[u64; 2]> = netlist
        .node_ids()
        .map(|id| [values.ones(id), toggle_count(values.node(id), count)])
        .collect();
    profile_of_counts(netlist, &counts, count)
}

/// The profile of per-node `[ones, toggles]` counts over `count`
/// patterns, formed in node order.
fn profile_of_counts(netlist: &Netlist, counts: &[[u64; 2]], count: usize) -> ActivityProfile {
    let transitions = count.saturating_sub(1).max(1);
    let mut signal_probability = Vec::with_capacity(netlist.node_count());
    let mut switching_activity = Vec::with_capacity(netlist.node_count());
    let mut gate_sw_sum = 0.0;
    let mut gate_p_sum = 0.0;
    let mut gates = 0usize;
    for (node, &[ones, toggles]) in netlist.nodes().zip(counts) {
        let p = if count == 0 {
            0.0
        } else {
            ones as f64 / count as f64
        };
        let sw = toggles as f64 / transitions as f64;
        if node.kind().is_some_and(GateKind::counts_as_gate) {
            gate_sw_sum += sw;
            gate_p_sum += p;
            gates += 1;
        }
        signal_probability.push(p);
        switching_activity.push(sw);
    }
    let (avg_gate_activity, avg_gate_probability) = if gates == 0 {
        (0.0, 0.0)
    } else {
        (gate_sw_sum / gates as f64, gate_p_sum / gates as f64)
    };
    ActivityProfile {
        signal_probability,
        switching_activity,
        avg_gate_activity,
        avg_gate_probability,
        patterns: count,
    }
}

/// Simulates `patterns` random vectors (seeded) and profiles the netlist.
///
/// This is the interpreted oracle of
/// [`SimProgram::estimate_activity`](crate::SimProgram::estimate_activity),
/// and shares no code with it. It runs [`evaluate_packed`] over windows
/// of 32 words, so no node holds a full stream: input `i`'s words are
/// words `i·t..(i+1)·t` of the seed's stream (`t = ⌈patterns/64⌉`),
/// exactly as [`PatternSet::random`] draws them, from one generator
/// positioned at each input's first word. Each node's ones and toggles
/// are integers carried across windows, the toggle across a window
/// boundary included, so the profile is the one the whole pattern set
/// gives.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `patterns < 2` (no transitions
/// to measure).
///
/// # Examples
///
/// ```
/// use nanobound_gen::parity;
/// use nanobound_sim::estimate_activity;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = parity::parity_tree(8, 2)?;
/// let profile = estimate_activity(&tree, 10_000, 7)?;
/// // XOR outputs of balanced random inputs toggle about half the time.
/// assert!((profile.avg_gate_activity - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn estimate_activity(
    netlist: &Netlist,
    patterns: usize,
    seed: u64,
) -> Result<ActivityProfile, SimError> {
    if patterns < 2 {
        return Err(SimError::bad("patterns", patterns, "must be at least 2"));
    }
    let words = patterns.div_ceil(64);
    let mut stream = StdRng::seed_from_u64(seed);
    let mut inputs: Vec<StdRng> = (0..netlist.input_count())
        .map(|_| {
            let first = stream.clone();
            for _ in 0..words {
                stream.next_u64();
            }
            first
        })
        .collect();
    let mut counts = vec![[0u64; 2]; netlist.node_count()];
    // The last pattern of each node in the window before.
    let mut last = vec![0u64; netlist.node_count()];
    for start in (0..words).step_by(WINDOW) {
        let len = WINDOW.min(words - start);
        let count = (patterns - 64 * start).min(64 * len);
        let window = inputs
            .iter_mut()
            .map(|rng| (0..len).map(|_| rng.next_u64()).collect())
            .collect();
        let values = evaluate_packed(netlist, &PatternSet::from_raw(window, count)?)?;
        for ((id, [ones, toggles]), last) in netlist.node_ids().zip(&mut counts).zip(&mut last) {
            let stream = values.node(id);
            *ones += values.ones(id);
            *toggles += toggle_count(stream, count);
            if start > 0 {
                *toggles += *last ^ (stream[0] & 1);
            }
            *last = stream[len - 1] >> 63;
        }
    }
    Ok(profile_of_counts(netlist, &counts, patterns))
}

/// Switching activity of a temporally independent signal with
/// one-probability `p`: `sw = 2·p·(1-p)`.
///
/// This is the identity the paper's Theorem 1 proof rests on; empirical
/// toggle rates from [`estimate_activity`] converge to it as the pattern
/// count grows.
#[must_use]
pub fn activity_from_probability(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_logic::{GateKind, Netlist};

    #[test]
    fn toggle_count_simple_patterns() {
        // 0101 0101 → toggles at every transition.
        assert_eq!(toggle_count(&[0xAA], 8), 7);
        // Constant streams never toggle.
        assert_eq!(toggle_count(&[0x00], 8), 0);
        assert_eq!(toggle_count(&[0xFF], 8), 0);
        // Single toggle in the middle: 0000 1111 over 8 patterns.
        assert_eq!(toggle_count(&[0xF0], 8), 1);
    }

    #[test]
    fn toggle_count_across_word_boundary() {
        // Word 0 ends with bit 63 = 1, word 1 starts with bit 0 = 0.
        let stream = [1u64 << 63, 0u64];
        assert_eq!(toggle_count(&stream, 128), 2); // 0→1 at t=62, 1→0 at t=63
        let stream = [!0u64, !0u64];
        assert_eq!(toggle_count(&stream, 128), 0);
    }

    #[test]
    fn toggle_count_ignores_invalid_tail() {
        // Only 4 patterns valid: 1010 — 3 transitions, all toggles.
        let stream = [0x5u64 | (0xFF << 4)];
        assert_eq!(toggle_count(&stream, 4), 3);
    }

    #[test]
    fn toggle_count_degenerate_counts() {
        assert_eq!(toggle_count(&[0xAA], 0), 0);
        assert_eq!(toggle_count(&[0xAA], 1), 0);
    }

    #[test]
    fn random_input_activity_near_half() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.add_output("y", buf).unwrap();
        let profile = estimate_activity(&nl, 50_000, 11).unwrap();
        // A uniform random input toggles with probability 1/2.
        assert!((profile.switching_activity[a.index()] - 0.5).abs() < 0.02);
        assert!((profile.signal_probability[a.index()] - 0.5).abs() < 0.02);
    }

    #[test]
    fn and_gate_has_skewed_probability_and_activity() {
        let mut nl = Netlist::new("and4");
        let inputs: Vec<_> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &inputs).unwrap();
        nl.add_output("y", g).unwrap();
        let profile = estimate_activity(&nl, 100_000, 13).unwrap();
        let p = profile.signal_probability[g.index()];
        let sw = profile.switching_activity[g.index()];
        assert!((p - 1.0 / 16.0).abs() < 0.01, "p = {p}");
        // Independent vectors: sw = 2 p (1-p).
        assert!(
            (sw - activity_from_probability(p)).abs() < 0.01,
            "sw = {sw}"
        );
    }

    #[test]
    fn gate_averages_exclude_inputs_and_buffers() {
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let g = nl.add_gate(GateKind::And, &[buf, b]).unwrap();
        nl.add_output("y", g).unwrap();
        let profile = estimate_activity(&nl, 40_000, 5).unwrap();
        // Only the AND counts: p ≈ 1/4 → sw ≈ 2·(1/4)·(3/4) = 0.375.
        assert!((profile.avg_gate_activity - 0.375).abs() < 0.02);
        assert!((profile.avg_gate_probability - 0.25).abs() < 0.02);
    }

    #[test]
    fn windows_match_one_pass_over_the_whole_pattern_set() {
        // A partial first window, whole windows, a second window of one
        // and of two words, and many windows with a partial last word;
        // reconvergent fanout, a constant and a buffer.
        let mut nl = Netlist::new("mix");
        let x: Vec<_> = (0..5).map(|i| nl.add_input(format!("x{i}"))).collect();
        let one = nl.add_const(true);
        let a = nl.add_gate(GateKind::Nand, &[x[0], x[1]]).unwrap();
        let b = nl.add_gate(GateKind::Xor, &[a, x[2], one]).unwrap();
        let c = nl.add_gate(GateKind::Buf, &[b]).unwrap();
        let d = nl.add_gate(GateKind::Maj, &[c, x[3], a]).unwrap();
        let e = nl.add_gate(GateKind::Nor, &[d, x[4]]).unwrap();
        nl.add_output("d", d).unwrap();
        nl.add_output("e", e).unwrap();
        for patterns in [2usize, 63, 64, 65, 2047, 2048, 2049, 2113, 10_000, 70_001] {
            let set = PatternSet::random(nl.input_count(), patterns, 23);
            let whole = activity_of_values(&nl, &evaluate_packed(&nl, &set).unwrap());
            let windowed = estimate_activity(&nl, patterns, 23).unwrap();
            assert_eq!(windowed, whole, "patterns={patterns}");
        }
    }

    #[test]
    fn too_few_patterns_rejected() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        nl.add_output("y", a).unwrap();
        assert!(estimate_activity(&nl, 1, 0).is_err());
    }

    #[test]
    fn profile_is_deterministic_in_seed() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        let p1 = estimate_activity(&nl, 1000, 17).unwrap();
        let p2 = estimate_activity(&nl, 1000, 17).unwrap();
        assert_eq!(p1, p2);
    }
}
