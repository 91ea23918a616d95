//! The 64-way bit-parallel evaluation engine.
//!
//! Every node's value under all patterns of a [`PatternSet`] is computed
//! in one topological pass, 64 patterns per machine word. This is the
//! workhorse behind activity estimation, sensitivity analysis, noisy
//! Monte-Carlo simulation and equivalence checking.

use nanobound_logic::{GateKind, Netlist, Node, NodeId};

use crate::error::SimError;
use crate::patterns::{popcount_valid, PatternSet};

/// Per-node packed simulation values for one pattern set.
///
/// Streams live in one flat, node-major matrix (`node_count × words`
/// words in a single allocation) rather than one `Vec` per node: the
/// evaluators write each stream in place with `copy_from_slice`, so a
/// full-netlist simulation performs exactly one heap allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeValues {
    values: Vec<u64>,
    words: usize,
    count: usize,
}

impl NodeValues {
    pub(crate) fn from_flat(values: Vec<u64>, words: usize, count: usize) -> Self {
        NodeValues {
            values,
            words,
            count,
        }
    }

    /// Number of valid patterns.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The packed value stream of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the simulated netlist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &[u64] {
        &self.values[id.index() * self.words..][..self.words]
    }

    /// Number of patterns under which the node evaluates to 1.
    ///
    /// Full words are popcounted in one pass; only the final word is
    /// masked against the valid-pattern tail.
    #[must_use]
    pub fn ones(&self, id: NodeId) -> u64 {
        popcount_valid(self.node(id), self.count)
    }

    /// Fraction of patterns under which the node evaluates to 1 — the
    /// empirical signal probability `p(x)`.
    #[must_use]
    pub fn probability(&self, id: NodeId) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.ones(id) as f64 / self.count as f64
    }

    /// The value of node `id` under pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.count()`.
    #[must_use]
    pub fn bit(&self, id: NodeId, p: usize) -> bool {
        assert!(p < self.count, "pattern {p} out of range {}", self.count);
        self.node(id)[p / 64] >> (p % 64) & 1 == 1
    }
}

/// Evaluates every node of `netlist` under every pattern.
///
/// # Errors
///
/// Returns [`SimError::InputMismatch`] if the pattern set was built for a
/// different input count.
///
/// # Examples
///
/// ```
/// use nanobound_logic::{GateKind, Netlist};
/// use nanobound_sim::{evaluate_packed, PatternSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("and2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate(GateKind::And, &[a, b])?;
/// nl.add_output("y", y)?;
///
/// let values = evaluate_packed(&nl, &PatternSet::exhaustive(2)?)?;
/// assert_eq!(values.ones(y), 1); // true only for a = b = 1
/// # Ok(())
/// # }
/// ```
pub fn evaluate_packed(netlist: &Netlist, patterns: &PatternSet) -> Result<NodeValues, SimError> {
    if patterns.num_inputs() != netlist.input_count() {
        return Err(SimError::InputMismatch {
            expected: netlist.input_count(),
            got: patterns.num_inputs(),
        });
    }
    let words = patterns.words_per_signal();
    let mut values = vec![0u64; netlist.node_count() * words];
    let mut next_input = 0usize;
    for (i, node) in netlist.nodes().enumerate() {
        let (done, rest) = values.split_at_mut(i * words);
        let out = &mut rest[..words];
        match node {
            Node::Input { .. } => {
                out.copy_from_slice(patterns.input_words(next_input));
                next_input += 1;
            }
            Node::Gate { kind, fanins } => eval_gate_into(kind, fanins, done, words, out),
        }
    }
    Ok(NodeValues::from_flat(values, words, patterns.count()))
}

/// Computes one gate's packed stream from its fanins' streams, writing
/// into the node's pre-allocated window of the flat value matrix.
///
/// `done` is the matrix prefix holding every already-evaluated node —
/// fanins always precede their gate, so all sources lie inside it. The
/// first operand is brought in with `copy_from_slice` (no per-node
/// `Vec` allocation) and the rest are folded in place.
pub(crate) fn eval_gate_into(
    kind: GateKind,
    fanins: &[NodeId],
    done: &[u64],
    words: usize,
    out: &mut [u64],
) {
    let src = |f: &NodeId| -> &[u64] { &done[f.index() * words..][..words] };
    match kind {
        GateKind::Const0 => out.fill(0),
        GateKind::Const1 => out.fill(!0),
        GateKind::Buf => out.copy_from_slice(src(&fanins[0])),
        GateKind::Not => {
            for (o, &a) in out.iter_mut().zip(src(&fanins[0])) {
                *o = !a;
            }
        }
        GateKind::And | GateKind::Nand => {
            out.copy_from_slice(src(&fanins[0]));
            for f in &fanins[1..] {
                for (o, &r) in out.iter_mut().zip(src(f)) {
                    *o &= r;
                }
            }
            if kind == GateKind::Nand {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            out.copy_from_slice(src(&fanins[0]));
            for f in &fanins[1..] {
                for (o, &r) in out.iter_mut().zip(src(f)) {
                    *o |= r;
                }
            }
            if kind == GateKind::Nor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            out.copy_from_slice(src(&fanins[0]));
            for f in &fanins[1..] {
                for (o, &r) in out.iter_mut().zip(src(f)) {
                    *o ^= r;
                }
            }
            if kind == GateKind::Xnor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Maj => {
            let (a, b, c) = (src(&fanins[0]), src(&fanins[1]), src(&fanins[2]));
            for (w, o) in out.iter_mut().enumerate() {
                *o = (a[w] & b[w]) | (a[w] & c[w]) | (b[w] & c[w]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-checks the packed engine against the scalar evaluator on an
    /// exhaustive pattern set.
    fn check_against_scalar(nl: &Netlist) {
        let patterns = PatternSet::exhaustive(nl.input_count()).unwrap();
        let packed = evaluate_packed(nl, &patterns).unwrap();
        for p in 0..patterns.count() {
            let assignment = patterns.assignment(p);
            let scalar = nl.evaluate_nodes(&assignment).unwrap();
            for id in nl.node_ids() {
                assert_eq!(
                    packed.bit(id, p),
                    scalar[id.index()],
                    "node {id} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn packed_matches_scalar_on_all_gate_kinds() {
        let mut nl = Netlist::new("allkinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let zero = nl.add_const(false);
        let one = nl.add_const(true);
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let not = nl.add_gate(GateKind::Not, &[b]).unwrap();
        let and = nl.add_gate(GateKind::And, &[a, b, c]).unwrap();
        let nand = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let or = nl.add_gate(GateKind::Or, &[buf, not]).unwrap();
        let nor = nl.add_gate(GateKind::Nor, &[a, c]).unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[a, b, c]).unwrap();
        let xnor = nl.add_gate(GateKind::Xnor, &[and, or]).unwrap();
        let maj = nl.add_gate(GateKind::Maj, &[a, b, c]).unwrap();
        let last = nl.add_gate(GateKind::And, &[zero, one, nand]).unwrap();
        nl.add_output("x", xor).unwrap();
        nl.add_output("y", xnor).unwrap();
        nl.add_output("m", maj).unwrap();
        nl.add_output("n", nor).unwrap();
        nl.add_output("l", last).unwrap();
        check_against_scalar(&nl);
    }

    #[test]
    fn ones_and_probability_respect_tail_mask() {
        let mut nl = Netlist::new("c1");
        let one = nl.add_const(true);
        nl.add_output("y", one).unwrap();
        // 10 patterns: the constant-1 stream is all-ones in the word, but
        // only 10 bits are valid.
        let patterns = PatternSet::random(0, 10, 3);
        let values = evaluate_packed(&nl, &patterns).unwrap();
        assert_eq!(values.ones(one), 10);
        assert!((values.probability(one) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn input_mismatch_is_reported() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        nl.add_output("y", a).unwrap();
        let err = evaluate_packed(&nl, &PatternSet::exhaustive(3).unwrap()).unwrap_err();
        assert_eq!(
            err,
            SimError::InputMismatch {
                expected: 1,
                got: 3
            }
        );
    }

    #[test]
    fn multi_word_streams_evaluate() {
        // 8 inputs -> 256 patterns -> 4 words per signal.
        let mut nl = Netlist::new("wide");
        let inputs: Vec<_> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let x = nl.add_gate(GateKind::Xor, &inputs).unwrap();
        nl.add_output("p", x).unwrap();
        let patterns = PatternSet::exhaustive(8).unwrap();
        let values = evaluate_packed(&nl, &patterns).unwrap();
        // Parity of 8 bits is 1 for exactly half of all patterns.
        assert_eq!(values.ones(x), 128);
        check_against_scalar(&nl);
    }
}
