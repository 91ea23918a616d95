//! The verbatim ISCAS'85 `c17` plus functional analogs of the larger
//! ISCAS'85 benchmarks.
//!
//! The original ISCAS'85 netlist files are not redistributable, so — per
//! the substitution table in `DESIGN.md` — every benchmark larger than
//! `c17` is regenerated from its *documented high-level function*. The
//! bounds of the paper consume only aggregate circuit parameters (size,
//! depth, fanin, sensitivity, switching activity), and those parameters
//! are determined by the function class (XOR-dominated, arithmetic,
//! control/priority), which the analogs preserve:
//!
//! | ISCAS'85 | Documented function | Analog here |
//! |----------|--------------------|-------------|
//! | `c17`    | 6-NAND toy         | [`c17`] (verbatim public netlist) |
//! | `c432`   | 36-input priority/interrupt controller | [`c432_analog`] |
//! | `c499`   | 32-bit single-error corrector (XOR form) | [`c499_analog`] |
//! | `c880`   | 8-bit ALU          | [`c880_analog`] |
//! | `c1355`  | `c499` with XORs expanded to NANDs | [`c1355_analog`] |
//! | `c1908`  | 16-bit SEC/DED corrector, NAND form | [`c1908_analog`] |
//! | `c6288`  | 16×16 array multiplier | [`c6288_analog`] |
//! | `c7552`  | 32-bit adder/comparator | [`c7552_analog`] |

use nanobound_logic::{GateKind, Netlist, Node, NodeId};

use crate::error::GenError;
use crate::{adder, alu, comparator, ecc, multiplier, priority};

/// The verbatim ISCAS'85 `c17` netlist: 5 inputs, 2 outputs, 6 NAND2
/// gates. This tiny benchmark is in the public domain and is reproduced
/// gate-for-gate (net numbers from the original `.bench` file appear in
/// the signal names).
///
/// # Examples
///
/// ```
/// let c17 = nanobound_gen::iscas::c17();
/// assert_eq!(c17.input_count(), 5);
/// assert_eq!(c17.output_count(), 2);
/// assert_eq!(c17.gate_count(), 6);
/// ```
#[must_use]
pub fn c17() -> Netlist {
    let mut nl = Netlist::new("c17");
    let n1 = nl.add_input("N1");
    let n2 = nl.add_input("N2");
    let n3 = nl.add_input("N3");
    let n6 = nl.add_input("N6");
    let n7 = nl.add_input("N7");
    // Gate list exactly as in the published benchmark.
    let n10 = nl
        .add_gate(GateKind::Nand, &[n1, n3])
        .expect("valid fanins");
    let n11 = nl
        .add_gate(GateKind::Nand, &[n3, n6])
        .expect("valid fanins");
    let n16 = nl
        .add_gate(GateKind::Nand, &[n2, n11])
        .expect("valid fanins");
    let n19 = nl
        .add_gate(GateKind::Nand, &[n11, n7])
        .expect("valid fanins");
    let n22 = nl
        .add_gate(GateKind::Nand, &[n10, n16])
        .expect("valid fanins");
    let n23 = nl
        .add_gate(GateKind::Nand, &[n16, n19])
        .expect("valid fanins");
    nl.add_output("N22", n22).expect("fresh output name");
    nl.add_output("N23", n23).expect("fresh output name");
    nl
}

/// Analog of `c432`: a 4-group × 9-line priority/interrupt controller
/// (40 inputs), the same function family as the original 36-input
/// controller. Control-dominated, low switching activity.
///
/// # Errors
///
/// Never fails for these fixed parameters; the `Result` is kept so all
/// analogs share a signature.
pub fn c432_analog() -> Result<Netlist, GenError> {
    let mut nl = priority::interrupt_controller(4, 9)?;
    nl.set_name("c432a");
    Ok(nl)
}

/// Analog of `c499`: a 32-bit Hamming single-error corrector — a 38-input,
/// 32-output XOR-dominated network (the original is a 41-input SEC circuit
/// in XOR form). High switching activity, high sensitivity.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c499_analog() -> Result<Netlist, GenError> {
    let mut nl = ecc::hamming_corrector(32)?;
    nl.set_name("c499a");
    Ok(nl)
}

/// Analog of `c880`: an 8-bit 4-operation ALU (adder datapath, bitwise
/// units, output mux) — mixed arithmetic/control structure.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c880_analog() -> Result<Netlist, GenError> {
    let mut nl = alu::alu(8)?;
    nl.set_name("c880a");
    Ok(nl)
}

/// Analog of `c1355`: functionally identical to [`c499_analog`] but with
/// every XOR/XNOR expanded into NAND structures, exactly how the original
/// `c1355` relates to `c499`. Same function, ~4× the gate count.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c1355_analog() -> Result<Netlist, GenError> {
    let mut nl = expand_xor_to_nand(&c499_analog()?)?;
    nl.set_name("c1355a");
    Ok(nl)
}

/// Analog of `c1908`: a 16-bit SEC-DED corrector
/// ([`ecc::sec_ded`]) with every XOR expanded to NAND logic — the
/// original is documented as a 16-bit single-error-correcting /
/// double-error-detecting circuit in NAND-dominated form (~880 gates,
/// 33 inputs). The analog lands in the same structural class:
/// NAND-dominated parity cones plus a syndrome decoder, hundreds of
/// gates, 22 inputs.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c1908_analog() -> Result<Netlist, GenError> {
    let mut nl = expand_xor_to_nand(&ecc::sec_ded(16)?)?;
    nl.set_name("c1908a");
    Ok(nl)
}

/// Analog of `c6288`: a 16×16 array multiplier. The original `c6288` *is*
/// an array multiplier, so this analog is structurally faithful (a grid of
/// full/half adders), not merely functionally.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c6288_analog() -> Result<Netlist, GenError> {
    let mut nl = multiplier::array(16, 16)?;
    nl.set_name("c6288a");
    Ok(nl)
}

/// Analog of `c7552`: a 32-bit adder/comparator. Shares its `a`/`b`
/// operand inputs between a ripple-carry adder, a magnitude comparator and
/// an equality comparator, mirroring the documented function of the
/// original.
///
/// # Errors
///
/// Never fails for these fixed parameters.
pub fn c7552_analog() -> Result<Netlist, GenError> {
    let width = 32;
    let mut nl = Netlist::new("c7552a");
    let a: Vec<NodeId> = (0..width).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..width).map(|i| nl.add_input(format!("b{i}"))).collect();
    let cin = nl.add_input("cin");

    let mut shared: Vec<NodeId> = a.clone();
    shared.extend(&b);
    let mut adder_inputs = shared.clone();
    adder_inputs.push(cin);
    let sum = nl.import(&adder::ripple_carry(width)?, &adder_inputs)?;
    for (i, &s) in sum.iter().enumerate().take(width) {
        nl.add_output(format!("s{i}"), s)?;
    }
    nl.add_output("cout", sum[width])?;

    let lt = nl.import(&comparator::less_than(width)?, &shared)?;
    nl.add_output("lt", lt[0])?;
    let eq = nl.import(&comparator::equal(width)?, &shared)?;
    nl.add_output("eq", eq[0])?;
    Ok(nl)
}

/// Rewrites every XOR/XNOR gate into 2-input NAND logic, leaving all other
/// gates untouched.
///
/// Multi-input parities are first chained into 2-input stages; each
/// 2-input XOR then becomes the classic 4-NAND network, and XNOR adds an
/// inverter. This is the transformation that historically produced
/// `c1355` from `c499`.
///
/// # Errors
///
/// Returns [`GenError::Logic`] only if the input netlist is malformed
/// (never for netlists built through [`Netlist`]'s checked API).
///
/// # Examples
///
/// ```
/// use nanobound_gen::{iscas, parity};
///
/// let tree = parity::parity_tree(8, 2)?;
/// let nand_form = iscas::expand_xor_to_nand(&tree)?;
/// assert!(nand_form.gate_count() > tree.gate_count());
/// # Ok::<(), nanobound_gen::GenError>(())
/// ```
pub fn expand_xor_to_nand(netlist: &Netlist) -> Result<Netlist, GenError> {
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<NodeId> = Vec::with_capacity(netlist.node_count());
    for id in netlist.node_ids() {
        let new_id = match netlist.node(id) {
            Node::Input { name } => out.add_input(name),
            Node::Gate { kind, fanins } => {
                let mapped: Vec<NodeId> = fanins.iter().map(|f| map[f.index()]).collect();
                match kind {
                    GateKind::Xor => nand_parity_chain(&mut out, &mapped, false)?,
                    GateKind::Xnor => nand_parity_chain(&mut out, &mapped, true)?,
                    other => out.add_gate(other, &mapped)?,
                }
            }
        };
        map.push(new_id);
    }
    for o in netlist.outputs() {
        out.add_output(o.name.clone(), map[o.driver.index()])?;
    }
    Ok(out)
}

/// Chains `taps` into 2-input NAND-expanded XOR stages; `invert` selects
/// XNOR of the whole group.
fn nand_parity_chain(nl: &mut Netlist, taps: &[NodeId], invert: bool) -> Result<NodeId, GenError> {
    let mut acc = taps[0];
    for &t in &taps[1..] {
        acc = nand_xor2(nl, acc, t)?;
    }
    if invert {
        acc = nl.add_gate(GateKind::Not, &[acc])?;
    }
    Ok(acc)
}

/// The classic 4-NAND realization of `a ⊕ b`.
fn nand_xor2(nl: &mut Netlist, a: NodeId, b: NodeId) -> Result<NodeId, GenError> {
    let nab = nl.add_gate(GateKind::Nand, &[a, b])?;
    let na = nl.add_gate(GateKind::Nand, &[a, nab])?;
    let nb = nl.add_gate(GateKind::Nand, &[b, nab])?;
    Ok(nl.add_gate(GateKind::Nand, &[na, nb])?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive equivalence check for small input counts.
    fn assert_equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.input_count(), b.input_count());
        let n = a.input_count();
        assert!(n <= 16, "exhaustive check only for small n");
        for v in 0..1u32 << n {
            let bits: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(
                a.evaluate(&bits).unwrap(),
                b.evaluate(&bits).unwrap(),
                "differ on input {v:b}"
            );
        }
    }

    #[test]
    fn c17_truth_table() {
        // Reference: N22 = !(N10 & N16), with the published structure.
        let nl = c17();
        for v in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
            let (n1, n2, n3, n6, n7) = (bits[0], bits[1], bits[2], bits[3], bits[4]);
            let n10 = !(n1 && n3);
            let n11 = !(n3 && n6);
            let n16 = !(n2 && n11);
            let n19 = !(n11 && n7);
            let expect = vec![!(n10 && n16), !(n16 && n19)];
            assert_eq!(nl.evaluate(&bits).unwrap(), expect, "input {v:05b}");
        }
    }

    #[test]
    fn analogs_have_documented_shapes() {
        let c432 = c432_analog().unwrap();
        assert_eq!(c432.input_count(), 40);
        let c499 = c499_analog().unwrap();
        assert_eq!(c499.input_count(), 38);
        assert_eq!(c499.output_count(), 32);
        let c880 = c880_analog().unwrap();
        assert_eq!(c880.input_count(), 19); // 8 + 8 + cin + 2 op bits
        let c1908 = c1908_analog().unwrap();
        assert_eq!(c1908.input_count(), 22); // 16 data + 5 checks + P
        assert_eq!(c1908.output_count(), 23);
        assert!(
            c1908.gate_count() >= 100,
            "c1908a must not regress to a stub: {} gates",
            c1908.gate_count()
        );
        for node in c1908.nodes() {
            assert!(!matches!(node.kind(), Some(GateKind::Xor | GateKind::Xnor)));
        }
        let c6288 = c6288_analog().unwrap();
        assert_eq!(c6288.input_count(), 32);
        assert_eq!(c6288.output_count(), 32);
        let c7552 = c7552_analog().unwrap();
        assert_eq!(c7552.input_count(), 65);
        assert_eq!(c7552.output_count(), 35);
    }

    #[test]
    fn c1355_is_c499_in_nand_form() {
        let c499 = c499_analog().unwrap();
        let c1355 = c1355_analog().unwrap();
        assert!(c1355.gate_count() > 2 * c499.gate_count());
        // No XOR/XNOR gates remain.
        for node in c1355.nodes() {
            assert!(!matches!(node.kind(), Some(GateKind::Xor | GateKind::Xnor)));
        }
    }

    #[test]
    fn xor_expansion_preserves_function() {
        let tree = crate::parity::parity_tree(6, 3).unwrap();
        let expanded = expand_xor_to_nand(&tree).unwrap();
        assert_equivalent(&tree, &expanded);
    }

    #[test]
    fn xnor_expansion_preserves_function() {
        let eq = crate::comparator::equal(3).unwrap();
        let expanded = expand_xor_to_nand(&eq).unwrap();
        assert_equivalent(&eq, &expanded);
    }

    #[test]
    fn c7552_adds_and_compares() {
        let nl = c7552_analog().unwrap();
        // a = 5, b = 9, cin = 0 -> sum 14, lt = 1, eq = 0.
        let mut inputs = vec![false; 65];
        inputs[0] = true; // a0
        inputs[2] = true; // a2
        inputs[32] = true; // b0
        inputs[35] = true; // b3
        let out = nl.evaluate(&inputs).unwrap();
        let sum: u64 = out[..32]
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as u64) << i)
            .sum();
        assert_eq!(sum, 14);
        assert!(!out[32]); // cout
        assert!(out[33]); // lt
        assert!(!out[34]); // eq
    }
}
