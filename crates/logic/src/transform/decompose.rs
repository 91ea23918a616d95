//! Balanced decomposition of wide gates into fanin-bounded trees.

use crate::error::LogicError;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId, Structure};

/// Rewrites the netlist so that no gate has more than `max_fanin` fanins.
///
/// Wide AND/NAND/OR/NOR/XOR/XNOR gates become balanced trees of
/// `max_fanin`-input gates of the associative core kind, with the
/// complemented kinds realized by complementing only the tree root (so a
/// 9-input NAND under `max_fanin = 3` costs four gates: three ANDs and one
/// NAND). `MAJ` is kept when `max_fanin >= 3` and expanded into its
/// AND/OR sum-of-products form otherwise.
///
/// This models the paper's mapping step onto a "generic library comprised
/// of gates with a maximum fanin of three" (Section 6).
///
/// # Errors
///
/// Returns [`LogicError::FaninBudgetTooSmall`] if `max_fanin < 2`.
///
/// # Examples
///
/// ```
/// use nanobound_logic::{CircuitStats, GateKind, Netlist, transform};
///
/// # fn main() -> Result<(), nanobound_logic::LogicError> {
/// let mut nl = Netlist::new("wide_xor");
/// let ins: Vec<_> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
/// let g = nl.add_gate(GateKind::Xor, &ins)?;
/// nl.add_output("p", g)?;
/// let mapped = transform::decompose_to_max_fanin(&nl, 2)?;
/// assert_eq!(CircuitStats::of(&mapped).max_fanin, 2);
/// assert_eq!(CircuitStats::of(&mapped).num_gates, 7); // balanced XOR tree
/// # Ok(())
/// # }
/// ```
pub fn decompose_to_max_fanin(netlist: &Netlist, max_fanin: usize) -> Result<Netlist, LogicError> {
    let mapped = decompose(netlist.structure(), max_fanin)?;
    Ok(Netlist::named_after(mapped, netlist))
}

/// One decomposition walk over a netlist's structure.
pub(crate) fn decompose(src: &Structure, max_fanin: usize) -> Result<Structure, LogicError> {
    if max_fanin < 2 {
        return Err(LogicError::FaninBudgetTooSmall {
            requested: max_fanin,
        });
    }
    let mut out = Structure::with_capacity(src.len(), src.fanin_slots());
    let mut map: Vec<NodeId> = Vec::with_capacity(src.len());
    let mut mapped: Vec<NodeId> = Vec::new();
    let mut tree = Tree::default();
    for i in 0..src.len() {
        let id = NodeId::from_index(i);
        let new_id = match src.kind(id) {
            None => out.push_input(),
            Some(kind) => {
                mapped.clear();
                mapped.extend(src.fanins(id).iter().map(|f| map[f.index()]));
                tree.emit(&mut out, kind, &mapped, max_fanin)
            }
        };
        map.push(new_id);
    }
    out.outputs = src.outputs.iter().map(|d| map[d.index()]).collect();
    Ok(out)
}

/// Reused level buffers of one balanced tree.
#[derive(Default)]
struct Tree {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl Tree {
    /// Emits one (possibly decomposed) gate into `out` and returns the id
    /// of the node computing its function.
    fn emit(
        &mut self,
        out: &mut Structure,
        kind: GateKind,
        fanins: &[NodeId],
        max_fanin: usize,
    ) -> NodeId {
        if kind == GateKind::Maj && max_fanin < 3 {
            return emit_maj_sop(out, fanins);
        }
        if fanins.len() <= max_fanin {
            return out.push_gate(kind, fanins);
        }
        let (core, complemented) = kind
            .decomposition_core()
            .expect("only the AND/OR/XOR families can exceed their arity minimum");
        self.frontier.clear();
        self.frontier.extend_from_slice(fanins);
        while self.frontier.len() > max_fanin {
            self.next.clear();
            for chunk in self.frontier.chunks(max_fanin) {
                if chunk.len() == 1 {
                    self.next.push(chunk[0]);
                } else {
                    self.next.push(out.push_gate(core, chunk));
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        let root_kind = if complemented {
            core.complement().expect("core kinds have complements")
        } else {
            core
        };
        out.push_gate(root_kind, &self.frontier)
    }
}

/// `MAJ(a, b, c)` as `OR(OR(AND(a,b), AND(a,c)), AND(b,c))` — used when the
/// fanin budget excludes 3-input gates.
fn emit_maj_sop(out: &mut Structure, fanins: &[NodeId]) -> NodeId {
    let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
    let ab = out.push_gate(GateKind::And, &[a, b]);
    let ac = out.push_gate(GateKind::And, &[a, c]);
    let bc = out.push_gate(GateKind::And, &[b, c]);
    let o1 = out.push_gate(GateKind::Or, &[ab, ac]);
    out.push_gate(GateKind::Or, &[o1, bc])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CircuitStats;
    use crate::transform::testutil::assert_equivalent;

    fn wide(kind: GateKind, n: usize) -> Netlist {
        let mut nl = Netlist::new(format!("wide_{kind}_{n}"));
        let ins: Vec<_> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(kind, &ins).unwrap();
        nl.add_output("y", g).unwrap();
        nl
    }

    #[test]
    fn every_reducible_kind_decomposes_equivalently() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for n in [3usize, 5, 9, 13] {
                for k in [2usize, 3, 4] {
                    let nl = wide(kind, n);
                    let mapped = decompose_to_max_fanin(&nl, k).unwrap();
                    assert!(
                        CircuitStats::of(&mapped).max_fanin <= k,
                        "{kind} n={n} k={k}"
                    );
                    assert_equivalent(&nl, &mapped);
                }
            }
        }
    }

    #[test]
    fn complement_paid_once_at_root() {
        let nl = wide(GateKind::Nand, 9);
        let mapped = decompose_to_max_fanin(&nl, 3).unwrap();
        let nands = mapped
            .nodes()
            .filter(|n| n.kind() == Some(GateKind::Nand))
            .count();
        let ands = mapped
            .nodes()
            .filter(|n| n.kind() == Some(GateKind::And))
            .count();
        assert_eq!(nands, 1);
        assert_eq!(ands, 3);
    }

    #[test]
    fn balanced_tree_depth() {
        let nl = wide(GateKind::And, 27);
        let mapped = decompose_to_max_fanin(&nl, 3).unwrap();
        assert_eq!(CircuitStats::of(&mapped).depth, 3); // 27 -> 9 -> 3 -> 1
    }

    #[test]
    fn narrow_gates_untouched() {
        let nl = wide(GateKind::And, 3);
        let mapped = decompose_to_max_fanin(&nl, 3).unwrap();
        assert_eq!(mapped.gate_count(), 1);
    }

    #[test]
    fn maj_kept_at_k3_expanded_at_k2() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.add_gate(GateKind::Maj, &[a, b, c]).unwrap();
        nl.add_output("y", g).unwrap();

        let k3 = decompose_to_max_fanin(&nl, 3).unwrap();
        assert_eq!(k3.gate_count(), 1);
        assert_equivalent(&nl, &k3);

        let k2 = decompose_to_max_fanin(&nl, 2).unwrap();
        assert!(CircuitStats::of(&k2).max_fanin <= 2);
        assert_eq!(k2.gate_count(), 5);
        assert_equivalent(&nl, &k2);
    }

    #[test]
    fn rejects_fanin_below_two() {
        let nl = wide(GateKind::And, 4);
        assert!(matches!(
            decompose_to_max_fanin(&nl, 1),
            Err(LogicError::FaninBudgetTooSmall { requested: 1 })
        ));
    }

    #[test]
    fn inverters_and_buffers_pass_through() {
        let mut nl = Netlist::new("inv");
        let a = nl.add_input("a");
        let n = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let bf = nl.add_gate(GateKind::Buf, &[n]).unwrap();
        nl.add_output("y", bf).unwrap();
        let mapped = decompose_to_max_fanin(&nl, 2).unwrap();
        assert_eq!(mapped.node_count(), 3);
        assert_equivalent(&nl, &mapped);
    }
}
