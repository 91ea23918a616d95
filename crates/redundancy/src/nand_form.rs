//! Rewriting arbitrary netlists into pure 2-input-NAND form.
//!
//! Von Neumann's multiplexing construction is defined for networks of a
//! single universal gate (he used 3-input majority; the classical
//! treatment, and ours, uses 2-input NAND). [`to_nand2`] first
//! decomposes every gate to fanin 2, then applies the textbook
//! NAND-only rewritings.

use nanobound_logic::transform::decompose_to_max_fanin;
use nanobound_logic::{GateKind, Netlist, Node, NodeId};

use crate::error::RedundancyError;

/// Converts `netlist` into an equivalent circuit whose only logic gates
/// are 2-input NANDs (constants and buffers may remain as wiring).
///
/// # Errors
///
/// Returns [`RedundancyError::Logic`] only for malformed input netlists.
///
/// # Examples
///
/// ```
/// use nanobound_gen::adder;
/// use nanobound_logic::GateKind;
/// use nanobound_redundancy::to_nand2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rca = adder::ripple_carry(2)?;
/// let nand = to_nand2(&rca)?;
/// assert!(nand
///     .nodes()
///     .all(|n| matches!(n.kind(), None | Some(GateKind::Nand | GateKind::Buf))));
/// # Ok(())
/// # }
/// ```
pub fn to_nand2(netlist: &Netlist) -> Result<Netlist, RedundancyError> {
    let two = decompose_to_max_fanin(netlist, 2)?;
    let mut out = Netlist::new(format!("{}_nand", netlist.name()));
    let mut map: Vec<NodeId> = Vec::with_capacity(two.node_count());
    for id in two.node_ids() {
        let new_id = match two.node(id) {
            Node::Input { name } => out.add_input(name),
            Node::Gate { kind, fanins } => {
                let f: Vec<NodeId> = fanins.iter().map(|x| map[x.index()]).collect();
                rewrite_gate(&mut out, kind, &f)?
            }
        };
        map.push(new_id);
    }
    for o in two.outputs() {
        out.add_output(o.name.clone(), map[o.driver.index()])?;
    }
    Ok(out)
}

/// NOT via NAND with duplicated fanin.
fn nand_not(nl: &mut Netlist, x: NodeId) -> Result<NodeId, RedundancyError> {
    Ok(nl.add_gate(GateKind::Nand, &[x, x])?)
}

fn rewrite_gate(nl: &mut Netlist, kind: GateKind, f: &[NodeId]) -> Result<NodeId, RedundancyError> {
    Ok(match kind {
        GateKind::Const0 | GateKind::Const1 => nl.add_gate(kind, &[])?,
        GateKind::Buf => nl.add_gate(GateKind::Buf, &[f[0]])?,
        GateKind::Not => nand_not(nl, f[0])?,
        GateKind::Nand => nl.add_gate(GateKind::Nand, &[f[0], f[1]])?,
        GateKind::And => {
            let n = nl.add_gate(GateKind::Nand, &[f[0], f[1]])?;
            nand_not(nl, n)?
        }
        GateKind::Or => {
            let na = nand_not(nl, f[0])?;
            let nb = nand_not(nl, f[1])?;
            nl.add_gate(GateKind::Nand, &[na, nb])?
        }
        GateKind::Nor => {
            let na = nand_not(nl, f[0])?;
            let nb = nand_not(nl, f[1])?;
            let or = nl.add_gate(GateKind::Nand, &[na, nb])?;
            nand_not(nl, or)?
        }
        GateKind::Xor => nand_xor2(nl, f[0], f[1])?,
        GateKind::Xnor => {
            let x = nand_xor2(nl, f[0], f[1])?;
            nand_not(nl, x)?
        }
        GateKind::Maj => {
            // Decomposition to fanin 2 never leaves a Maj behind.
            unreachable!("majority gates are removed by fanin-2 decomposition")
        }
    })
}

/// The classic 4-NAND xor.
fn nand_xor2(nl: &mut Netlist, a: NodeId, b: NodeId) -> Result<NodeId, RedundancyError> {
    let nab = nl.add_gate(GateKind::Nand, &[a, b])?;
    let na = nl.add_gate(GateKind::Nand, &[a, nab])?;
    let nb = nl.add_gate(GateKind::Nand, &[b, nab])?;
    Ok(nl.add_gate(GateKind::Nand, &[na, nb])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_gen::{alu, comparator, parity};
    use nanobound_sim::equivalence;

    fn assert_nand_only(nl: &Netlist) {
        for node in nl.nodes() {
            assert!(
                matches!(
                    node.kind(),
                    None | Some(
                        GateKind::Nand | GateKind::Buf | GateKind::Const0 | GateKind::Const1
                    )
                ),
                "unexpected gate {:?}",
                node.kind()
            );
            if node.kind() == Some(GateKind::Nand) {
                assert_eq!(node.fanins().len(), 2);
            }
        }
    }

    #[test]
    fn parity_rewrites_and_stays_equivalent() {
        let p = parity::parity_tree(6, 3).unwrap();
        let nand = to_nand2(&p).unwrap();
        assert_nand_only(&nand);
        assert!(equivalence::equivalent_exhaustive(&p, &nand).unwrap());
    }

    #[test]
    fn alu_rewrites_and_stays_equivalent() {
        let a = alu::alu(3).unwrap(); // 11 inputs: exhaustive is cheap
        let nand = to_nand2(&a).unwrap();
        assert_nand_only(&nand);
        assert!(equivalence::equivalent_exhaustive(&a, &nand).unwrap());
    }

    #[test]
    fn comparator_with_maj_free_path() {
        let c = comparator::less_than(4).unwrap();
        let nand = to_nand2(&c).unwrap();
        assert_nand_only(&nand);
        assert!(equivalence::equivalent_exhaustive(&c, &nand).unwrap());
    }

    #[test]
    fn maj_gate_is_eliminated() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let m = nl.add_gate(GateKind::Maj, &[a, b, c]).unwrap();
        nl.add_output("y", m).unwrap();
        let nand = to_nand2(&nl).unwrap();
        assert_nand_only(&nand);
        assert!(equivalence::equivalent_exhaustive(&nl, &nand).unwrap());
    }

    #[test]
    fn all_two_input_kinds_covered() {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut outs = Vec::new();
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            outs.push(nl.add_gate(kind, &[a, b]).unwrap());
        }
        outs.push(nl.add_gate(GateKind::Not, &[a]).unwrap());
        outs.push(nl.add_const(true));
        for (i, o) in outs.iter().enumerate() {
            nl.add_output(format!("y{i}"), *o).unwrap();
        }
        let nand = to_nand2(&nl).unwrap();
        assert_nand_only(&nand);
        assert!(equivalence::equivalent_exhaustive(&nl, &nand).unwrap());
    }
}
