//! Topological analyses: logic levels, depth, fanout, reachability.

use crate::error::LogicError;
use crate::gate::GateKind;
use crate::netlist::{Netlist, Node, NodeId};

/// Computes a topological order of the nodes, or the witness of a
/// combinational cycle.
///
/// Unlike every other function in this module, this one does **not**
/// assume the id-order invariant: it works on netlists assembled through
/// [`Netlist::from_parts`], where fanins may reference later ids or even
/// form cycles. On success the returned order places every fanin before
/// its gate (for an ordinary netlist this is just `0..n`); on failure the
/// error carries the offending cycle as a node path, e.g.
/// `combinational cycle: n3 -> n5 -> n3`.
///
/// # Errors
///
/// [`LogicError::CombinationalCycle`] with the cycle path in dependency
/// order: each node takes the next as a fanin, and the last takes the
/// first.
pub fn try_topo_order(netlist: &Netlist) -> Result<Vec<NodeId>, LogicError> {
    const WHITE: u8 = 0; // unvisited
    const GRAY: u8 = 1; // on the current DFS path
    const BLACK: u8 = 2; // finished
    let n = netlist.node_count();
    let structure = netlist.structure();
    let mut color = vec![WHITE; n];
    let mut order = Vec::with_capacity(n);
    // Iterative DFS: (node, next fanin to expand).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        stack.push((root, 0));
        color[root] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let fanins = structure.fanins(NodeId::from_index(node));
            if *next < fanins.len() {
                let fanin = fanins[*next].index();
                *next += 1;
                match color[fanin] {
                    WHITE => {
                        color[fanin] = GRAY;
                        stack.push((fanin, 0));
                    }
                    GRAY => {
                        // Back edge: the cycle is the DFS path from the
                        // gray fanin down to the current node.
                        let start = stack
                            .iter()
                            .position(|&(id, _)| id == fanin)
                            .expect("gray nodes are on the stack");
                        let path = stack[start..].iter().map(|&(id, _)| id).collect();
                        return Err(LogicError::CombinationalCycle { path });
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                order.push(NodeId::from_index(node));
                stack.pop();
            }
        }
    }
    Ok(order)
}

/// Computes the logic level of every node.
///
/// Primary inputs and constants are at level 0. Buffers are transparent
/// (they inherit their fanin's level) because they are not logic gates;
/// every other gate sits one level above its deepest fanin. The result is
/// indexed by [`NodeId::index`].
///
/// # Examples
///
/// ```
/// use nanobound_logic::{GateKind, Netlist, topo};
///
/// # fn main() -> Result<(), nanobound_logic::LogicError> {
/// let mut nl = Netlist::new("chain");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g1 = nl.add_gate(GateKind::And, &[a, b])?;
/// let g2 = nl.add_gate(GateKind::Not, &[g1])?;
/// nl.add_output("y", g2)?;
/// assert_eq!(topo::levels(&nl), vec![0, 0, 1, 2]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut levels = vec![0u32; netlist.node_count()];
    for (i, node) in netlist.nodes().enumerate() {
        if let Node::Gate { kind, fanins } = node {
            let deepest = fanins.iter().map(|f| levels[f.index()]).max().unwrap_or(0);
            levels[i] = match kind {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Buf => deepest,
                _ => deepest + 1,
            };
        }
    }
    levels
}

/// The logic depth of the netlist: the maximum level over primary outputs.
///
/// This is the `d0` quantity of the paper (error-free logic depth). Returns
/// 0 for a netlist whose outputs are all inputs/constants or that has no
/// outputs.
#[must_use]
pub fn depth(netlist: &Netlist) -> u32 {
    let levels = levels(netlist);
    netlist
        .outputs()
        .iter()
        .map(|o| levels[o.driver.index()])
        .max()
        .unwrap_or(0)
}

/// Counts how many gate fanin slots reference each node.
///
/// Primary outputs are not counted as fanout. The result is indexed by
/// [`NodeId::index`].
#[must_use]
pub fn fanout_counts(netlist: &Netlist) -> Vec<u32> {
    let mut counts = vec![0u32; netlist.node_count()];
    for node in netlist.nodes() {
        for f in node.fanins() {
            counts[f.index()] += 1;
        }
    }
    counts
}

/// Marks every node reachable from at least one primary output by walking
/// fanins transitively. The result is indexed by [`NodeId::index`].
#[must_use]
pub fn reachable_from_outputs(netlist: &Netlist) -> Vec<bool> {
    netlist
        .structure()
        .fanin_cone(netlist.outputs().iter().map(|o| o.driver))
}

/// Ids of the nodes in the transitive fanin cone of `roots` (inclusive),
/// in topological order.
#[must_use]
pub fn cone(netlist: &Netlist, roots: &[NodeId]) -> Vec<NodeId> {
    let in_bounds = roots.iter().filter(|r| r.index() < netlist.node_count());
    let in_cone = netlist.structure().fanin_cone(in_bounds.copied());
    netlist
        .node_ids()
        .filter(|id| in_cone[id.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn diamond() -> (Netlist, [NodeId; 5]) {
        // a --+--> g1 --+
        //     |         +--> g3 (output)
        // b --+--> g2 --+
        let mut nl = Netlist::new("diamond");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g3 = nl.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        nl.add_output("y", g3).unwrap();
        (nl, [a, b, g1, g2, g3])
    }

    #[test]
    fn diamond_levels_and_depth() {
        let (nl, ids) = diamond();
        let lv = levels(&nl);
        assert_eq!(lv[ids[0].index()], 0);
        assert_eq!(lv[ids[2].index()], 1);
        assert_eq!(lv[ids[4].index()], 2);
        assert_eq!(depth(&nl), 2);
    }

    #[test]
    fn buffers_are_transparent_for_depth() {
        let mut nl = Netlist::new("buffered");
        let a = nl.add_input("a");
        let b1 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let b2 = nl.add_gate(GateKind::Buf, &[b1]).unwrap();
        let g = nl.add_gate(GateKind::Not, &[b2]).unwrap();
        nl.add_output("y", g).unwrap();
        assert_eq!(depth(&nl), 1);
    }

    #[test]
    fn fanout_counts_diamond() {
        let (nl, ids) = diamond();
        let fo = fanout_counts(&nl);
        assert_eq!(fo[ids[0].index()], 2); // a feeds g1 and g2
        assert_eq!(fo[ids[2].index()], 1); // g1 feeds g3
        assert_eq!(fo[ids[4].index()], 0); // g3 only drives an output
    }

    #[test]
    fn reachability_ignores_dead_logic() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let live = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let dead = nl.add_gate(GateKind::Or, &[a, b]).unwrap();
        nl.add_output("y", live).unwrap();
        let r = reachable_from_outputs(&nl);
        assert!(r[live.index()]);
        assert!(!r[dead.index()]);
        // Inputs feeding live logic are reachable.
        assert!(r[a.index()]);
    }

    #[test]
    fn cone_is_topological_and_inclusive() {
        let (nl, ids) = diamond();
        let c = cone(&nl, &[ids[4]]);
        assert_eq!(c.len(), 5);
        for w in c.windows(2) {
            assert!(w[0] < w[1]);
        }
        let c1 = cone(&nl, &[ids[2]]);
        assert_eq!(c1, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn empty_netlist_depth_zero() {
        let nl = Netlist::new("empty");
        assert_eq!(depth(&nl), 0);
        assert!(levels(&nl).is_empty());
    }

    use crate::netlist::{Node, Output};

    /// Builds a (possibly cyclic) netlist from `(kind, fanins)` gate
    /// specs appended after one primary input.
    fn raw(gates: &[(GateKind, &[usize])]) -> Netlist {
        let fanins: Vec<Vec<NodeId>> = gates
            .iter()
            .map(|(_, fanins)| fanins.iter().map(|&i| NodeId::from_index(i)).collect())
            .collect();
        let mut nodes = vec![Node::Input { name: "a" }];
        for ((kind, _), fanins) in gates.iter().zip(&fanins) {
            nodes.push(Node::Gate {
                kind: *kind,
                fanins,
            });
        }
        let last = NodeId::from_index(nodes.len() - 1);
        Netlist::from_parts(
            "raw",
            nodes,
            vec![NodeId::from_index(0)],
            vec![Output {
                name: "y".into(),
                driver: last,
            }],
        )
        .unwrap()
    }

    #[test]
    fn try_topo_order_matches_ids_on_ordered_netlists() {
        let (nl, _) = diamond();
        let order = try_topo_order(&nl).unwrap();
        assert_eq!(order, nl.node_ids().collect::<Vec<_>>());
    }

    #[test]
    fn try_topo_order_handles_forward_references() {
        // n1 = Not(n2), n2 = Not(n0): out of id order but acyclic.
        let nl = raw(&[(GateKind::Not, &[2]), (GateKind::Not, &[0])]);
        let order = try_topo_order(&nl).unwrap();
        let pos = |i: usize| {
            order
                .iter()
                .position(|&id| id.index() == i)
                .expect("all nodes ordered")
        };
        assert_eq!(order.len(), 3);
        assert!(pos(0) < pos(2));
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn self_loop_witness() {
        // n1 = And(n0, n1): the tightest possible cycle.
        let nl = raw(&[(GateKind::And, &[0, 1])]);
        let err = try_topo_order(&nl).unwrap_err();
        assert_eq!(err, LogicError::CombinationalCycle { path: vec![1] });
        assert_eq!(err.to_string(), "combinational cycle: n1 -> n1");
    }

    #[test]
    fn two_cycle_witness() {
        // n1 = Nand(n0, n2), n2 = Nand(n0, n1).
        let nl = raw(&[(GateKind::Nand, &[0, 2]), (GateKind::Nand, &[0, 1])]);
        let err = try_topo_order(&nl).unwrap_err();
        assert_eq!(err, LogicError::CombinationalCycle { path: vec![1, 2] });
        assert_eq!(err.to_string(), "combinational cycle: n1 -> n2 -> n1");
    }

    #[test]
    fn cycle_through_buf_chain_witness() {
        // n1 = Or(n0, n3); n2 = Buf(n1); n3 = Buf(n2). The cycle is only
        // reachable through wiring nodes — the witness must include them.
        let nl = raw(&[
            (GateKind::Or, &[0, 3]),
            (GateKind::Buf, &[1]),
            (GateKind::Buf, &[2]),
        ]);
        let err = try_topo_order(&nl).unwrap_err();
        assert_eq!(
            err,
            LogicError::CombinationalCycle {
                path: vec![1, 3, 2]
            }
        );
        assert_eq!(err.to_string(), "combinational cycle: n1 -> n3 -> n2 -> n1");
    }
}
