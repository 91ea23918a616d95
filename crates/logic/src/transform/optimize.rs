//! Function-preserving cleanup passes: constant folding, buffer collapsing,
//! structural hashing and dead-gate sweeping.
//!
//! Each pass is one walk over a netlist's name-free structure;
//! [`optimize`] iterates them and names the result once.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId, Structure};

/// What a source node simplifies to in the folded structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Repr {
    /// A known constant value.
    Const(bool),
    /// An existing node of the folded structure.
    Node(NodeId),
}

/// Bookkeeping for folding one structure.
struct Folder {
    out: Structure,
    const_nodes: [Option<NodeId>; 2],
    /// Reused fanin buffer.
    nodes: Vec<NodeId>,
    /// `seen[x] == stamp` marks `x` as already among `nodes`.
    seen: Vec<u32>,
    stamp: u32,
}

impl Folder {
    /// Returns a node id materializing `repr`, creating a constant node on
    /// demand.
    fn materialize(&mut self, repr: Repr) -> NodeId {
        match repr {
            Repr::Node(id) => id,
            Repr::Const(v) => *self.const_nodes[usize::from(v)].get_or_insert_with(|| {
                let kind = if v {
                    GateKind::Const1
                } else {
                    GateKind::Const0
                };
                self.out.push_gate(kind, &[])
            }),
        }
    }

    /// Emits `x` or `NOT x`, collapsing double negation against the nodes
    /// already present in the output.
    fn maybe_invert(&mut self, x: NodeId, invert: bool) -> Repr {
        if !invert {
            return Repr::Node(x);
        }
        Repr::Node(match self.out.inverted(x) {
            Some(inner) => inner,
            None => self.out.push_gate(GateKind::Not, &[x]),
        })
    }

    /// Simplifies one gate given the representations of its fanins.
    fn simplify(&mut self, kind: GateKind, fanins: &[Repr]) -> Repr {
        match kind {
            GateKind::Const0 => Repr::Const(false),
            GateKind::Const1 => Repr::Const(true),
            GateKind::Buf => fanins[0],
            GateKind::Not => match fanins[0] {
                Repr::Const(v) => Repr::Const(!v),
                Repr::Node(x) => self.maybe_invert(x, true),
            },
            GateKind::And | GateKind::Nand => {
                self.and_or(fanins, /* or: */ false, kind == GateKind::Nand)
            }
            GateKind::Or | GateKind::Nor => {
                self.and_or(fanins, /* or: */ true, kind == GateKind::Nor)
            }
            GateKind::Xor | GateKind::Xnor => self.xor(fanins, kind == GateKind::Xnor),
            GateKind::Maj => self.maj(fanins),
        }
    }

    /// Shared AND/OR simplifier; `or` selects the disjunctive dual and
    /// `complement` the NAND/NOR variants.
    fn and_or(&mut self, fanins: &[Repr], or: bool, complement: bool) -> Repr {
        // For AND: 0 dominates, 1 is neutral. For OR, dual.
        let dominating = or;
        self.stamp += 1;
        let stamp = self.stamp;
        self.nodes.clear();
        for &f in fanins {
            match f {
                Repr::Const(v) if v == dominating => {
                    return Repr::Const(dominating ^ complement);
                }
                Repr::Const(_) => {} // neutral, drop
                Repr::Node(x) => {
                    // Distinct fanins, in first-occurrence order.
                    if self.seen[x.index()] != stamp {
                        self.seen[x.index()] = stamp;
                        self.nodes.push(x);
                    }
                }
            }
        }
        // x AND NOT(x) is contradictory; x OR NOT(x) is tautological.
        let out = &self.out;
        let seen = &self.seen;
        if self.nodes.iter().any(|&x| {
            out.inverted(x)
                .is_some_and(|inner| seen[inner.index()] == stamp)
        }) {
            return Repr::Const(dominating ^ complement);
        }
        let base_kind = if or { GateKind::Or } else { GateKind::And };
        match self.nodes.len() {
            0 => Repr::Const(!dominating ^ complement),
            1 => self.maybe_invert(self.nodes[0], complement),
            _ => {
                let kind = if complement {
                    base_kind.complement().expect("AND/OR have complements")
                } else {
                    base_kind
                };
                Repr::Node(self.out.push_gate(kind, &self.nodes))
            }
        }
    }

    /// XOR/XNOR simplifier: constants fold into the parity flag, identical
    /// fanin pairs cancel.
    fn xor(&mut self, fanins: &[Repr], complement: bool) -> Repr {
        let mut parity = complement;
        let nodes = &mut self.nodes;
        nodes.clear();
        for &f in fanins {
            match f {
                Repr::Const(v) => parity ^= v,
                Repr::Node(x) => nodes.push(x),
            }
        }
        // Keep the nodes that occur an odd number of times, ascending.
        nodes.sort_unstable();
        let mut kept = 0;
        let mut run = 0;
        while run < nodes.len() {
            let x = nodes[run];
            let end = run + nodes[run..].iter().take_while(|&&y| y == x).count();
            if (end - run) % 2 == 1 {
                nodes[kept] = x;
                kept += 1;
            }
            run = end;
        }
        nodes.truncate(kept);
        // x XOR NOT(x) == 1: cancel complementary pairs into the parity
        // flag, in one ascending pass in which an inverter cancels with
        // its fanin while that fanin is still kept. A fanin precedes its
        // gate, so it sits further left, and a cancellation never makes
        // an earlier inverter cancellable. `seen[x] == stamp` marks `x`
        // as kept.
        self.stamp += 1;
        let stamp = self.stamp;
        for &x in nodes.iter() {
            self.seen[x.index()] = stamp;
        }
        for &x in nodes.iter() {
            if let Some(inner) = self.out.inverted(x) {
                if self.seen[inner.index()] == stamp {
                    self.seen[inner.index()] = 0;
                    self.seen[x.index()] = 0;
                    parity = !parity;
                }
            }
        }
        let seen = &self.seen;
        nodes.retain(|x| seen[x.index()] == stamp);
        match self.nodes.len() {
            0 => Repr::Const(parity),
            1 => self.maybe_invert(self.nodes[0], parity),
            _ => {
                let kind = if parity {
                    GateKind::Xnor
                } else {
                    GateKind::Xor
                };
                Repr::Node(self.out.push_gate(kind, &self.nodes))
            }
        }
    }

    /// MAJ3 simplifier: constant and duplicate absorption.
    fn maj(&mut self, fanins: &[Repr]) -> Repr {
        let mut consts = [false; 3];
        let mut nodes = [NodeId::from_index(0); 3];
        let (mut c, mut n) = (0, 0);
        for &f in fanins {
            match f {
                Repr::Const(v) => {
                    consts[c] = v;
                    c += 1;
                }
                Repr::Node(x) => {
                    nodes[n] = x;
                    n += 1;
                }
            }
        }
        match (c, n) {
            (0, 3) => {
                // MAJ(a, a, b) == a.
                if nodes[0] == nodes[1] || nodes[0] == nodes[2] {
                    Repr::Node(nodes[0])
                } else if nodes[1] == nodes[2] {
                    Repr::Node(nodes[1])
                } else {
                    Repr::Node(self.out.push_gate(GateKind::Maj, &nodes))
                }
            }
            (1, 2) => {
                if nodes[0] == nodes[1] {
                    return Repr::Node(nodes[0]);
                }
                // MAJ(a, b, 1) == OR(a, b); MAJ(a, b, 0) == AND(a, b).
                let kind = if consts[0] {
                    GateKind::Or
                } else {
                    GateKind::And
                };
                Repr::Node(self.out.push_gate(kind, &nodes[..2]))
            }
            (2, 1) => {
                // MAJ(a, 1, 1) == 1; MAJ(a, 0, 0) == 0; MAJ(a, 0, 1) == a.
                match (consts[0], consts[1]) {
                    (true, true) => Repr::Const(true),
                    (false, false) => Repr::Const(false),
                    _ => Repr::Node(nodes[0]),
                }
            }
            (3, 0) => Repr::Const(consts.iter().filter(|&&v| v).count() >= 2),
            _ => unreachable!("MAJ arity is 3"),
        }
    }
}

/// One folding walk; see [`fold_constants`].
fn fold(src: &Structure) -> Structure {
    let mut f = Folder {
        // Each source node adds at most one node, plus two constants.
        out: Structure::with_capacity(src.len() + 2, src.fanin_slots()),
        const_nodes: [None, None],
        nodes: Vec::new(),
        seen: vec![0; src.len() + 2],
        stamp: 0,
    };
    let mut reprs: Vec<Repr> = Vec::with_capacity(src.len());
    let mut fanins: Vec<Repr> = Vec::new();
    for i in 0..src.len() {
        let id = NodeId::from_index(i);
        let repr = match src.kind(id) {
            None => Repr::Node(f.out.push_input()),
            Some(kind) => {
                fanins.clear();
                fanins.extend(src.fanins(id).iter().map(|x| reprs[x.index()]));
                f.simplify(kind, &fanins)
            }
        };
        reprs.push(repr);
    }
    for &driver in &src.outputs {
        let id = f.materialize(reprs[driver.index()]);
        f.out.outputs.push(id);
    }
    f.out
}

/// One structural-hashing walk; see [`dedupe`].
fn hash_cons(src: &Structure) -> Structure {
    let mut out = Structure::with_capacity(src.len(), src.fanin_slots());
    let mut map: Vec<NodeId> = Vec::with_capacity(src.len());
    // Open addressing over node ids + 1 (0 is empty), at most half full.
    let mut slots = vec![0u32; (2 * src.len()).next_power_of_two().max(16)];
    let mask = slots.len() - 1;
    let hasher = RandomState::new();
    let mut key: Vec<NodeId> = Vec::new();
    for i in 0..src.len() {
        let id = NodeId::from_index(i);
        let Some(kind) = src.kind(id) else {
            map.push(out.push_input());
            continue;
        };
        key.clear();
        key.extend(src.fanins(id).iter().map(|f| map[f.index()]));
        if kind.is_commutative() {
            key.sort_unstable();
        }
        // Truncating the hash is fine: only its low bits pick a slot.
        let mut at = hasher.hash_one((kind, &key[..])) as usize & mask;
        let node = loop {
            match slots[at] {
                0 => {
                    let node = out.push_gate(kind, &key);
                    slots[at] = u32::try_from(node.index() + 1).expect("node ids fit in u32");
                    break node;
                }
                slot => {
                    let existing = NodeId::from_index(slot as usize - 1);
                    if out.kind(existing) == Some(kind) && out.fanins(existing) == &key[..] {
                        break existing;
                    }
                    at = (at + 1) & mask;
                }
            }
        };
        map.push(node);
    }
    out.outputs = src.outputs.iter().map(|d| map[d.index()]).collect();
    out
}

/// One dead-gate walk; see [`sweep`].
fn sweep_dead(src: &Structure) -> Structure {
    let live = src.fanin_cone(src.outputs.iter().copied());
    let mut out = Structure::with_capacity(src.len(), src.fanin_slots());
    let mut map: Vec<NodeId> = vec![NodeId::from_index(0); src.len()];
    let mut fanins: Vec<NodeId> = Vec::new();
    for i in 0..src.len() {
        let id = NodeId::from_index(i);
        match src.kind(id) {
            None => map[i] = out.push_input(),
            Some(kind) if live[i] => {
                fanins.clear();
                fanins.extend(src.fanins(id).iter().map(|f| map[f.index()]));
                map[i] = out.push_gate(kind, &fanins);
            }
            Some(_) => {}
        }
    }
    out.outputs = src.outputs.iter().map(|d| map[d.index()]).collect();
    out
}

/// Iterates fold → hash → sweep rounds to a fixed point, at most 8.
pub(crate) fn optimize_structure(src: &Structure) -> Structure {
    let mut current = sweep_dead(&hash_cons(&fold(src)));
    if current == *src {
        return current;
    }
    for _ in 1..8 {
        let folded = fold(&current);
        // `current` is hashed and swept, which both passes leave
        // unchanged; so if folding changes nothing, neither would the
        // rest of the round.
        if folded == current {
            break;
        }
        let next = sweep_dead(&hash_cons(&folded));
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// Folds constants, drops neutral fanins, cancels XOR pairs, collapses
/// buffers and double inverters.
///
/// The rebuilt netlist computes the same outputs; dead nodes may remain and
/// are removed by [`sweep`].
///
/// # Examples
///
/// ```
/// use nanobound_logic::{GateKind, Netlist, transform};
///
/// # fn main() -> Result<(), nanobound_logic::LogicError> {
/// let mut nl = Netlist::new("foldme");
/// let a = nl.add_input("a");
/// let one = nl.add_const(true);
/// let g = nl.add_gate(GateKind::And, &[a, one])?; // AND(a, 1) == a
/// nl.add_output("y", g)?;
/// let folded = transform::sweep(&transform::fold_constants(&nl));
/// assert_eq!(folded.gate_count(), 0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn fold_constants(netlist: &Netlist) -> Netlist {
    Netlist::named_after(fold(netlist.structure()), netlist)
}

/// Structural hashing: replaces gates with identical (kind, fanins) by a
/// single instance. Fanins are order-normalized because every kind in the
/// library is commutative.
#[must_use]
pub fn dedupe(netlist: &Netlist) -> Netlist {
    Netlist::named_after(hash_cons(netlist.structure()), netlist)
}

/// Dead-gate elimination: removes nodes not reachable from any primary
/// output. Primary inputs are always kept so the interface is stable.
#[must_use]
pub fn sweep(netlist: &Netlist) -> Netlist {
    Netlist::named_after(sweep_dead(netlist.structure()), netlist)
}

/// Iterates folding, hashing and sweeping to a fixed point (bounded at 8
/// rounds, which is far more than any practical netlist needs).
#[must_use]
pub fn optimize(netlist: &Netlist) -> Netlist {
    Netlist::named_after(optimize_structure(netlist.structure()), netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::testutil::assert_equivalent;

    #[test]
    fn and_with_zero_folds_to_constant() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let zero = nl.add_const(false);
        let g = nl.add_gate(GateKind::And, &[a, zero]).unwrap();
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 0);
        assert_eq!(opt.evaluate(&[true]).unwrap(), vec![false]);
        assert_eq!(opt.evaluate(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn nand_with_neutral_one_becomes_inverter() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let g = nl.add_gate(GateKind::Nand, &[a, one]).unwrap();
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 1);
        assert_equivalent(&nl, &opt);
    }

    #[test]
    fn xor_pair_cancellation() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b, a]).unwrap(); // == b
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 0);
        assert_equivalent(&nl, &opt);
    }

    #[test]
    fn xnor_with_true_const_becomes_xor() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let g = nl.add_gate(GateKind::Xnor, &[a, b, one]).unwrap(); // == XOR(a,b)
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 1);
        let kinds: Vec<_> = opt.nodes().filter_map(crate::netlist::Node::kind).collect();
        assert!(kinds.contains(&GateKind::Xor));
    }

    #[test]
    fn double_negation_collapses() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let n2 = nl.add_gate(GateKind::Not, &[n1]).unwrap();
        nl.add_output("y", n2).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 0);
        assert_equivalent(&nl, &opt);
    }

    #[test]
    fn buffers_collapse() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b1 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let b2 = nl.add_gate(GateKind::Buf, &[b1]).unwrap();
        let g = nl.add_gate(GateKind::Not, &[b2]).unwrap();
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.node_count(), 2); // input + NOT
        assert_equivalent(&nl, &opt);
    }

    #[test]
    fn cse_merges_identical_gates_modulo_commutativity() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[b, a]).unwrap();
        let top = nl.add_gate(GateKind::Xor, &[g1, g2]).unwrap(); // == 0
        nl.add_output("y", top).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 0);
        assert_equivalent(&nl, &opt);
    }

    #[test]
    fn sweep_removes_dead_logic_keeps_inputs() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let live = nl.add_gate(GateKind::Or, &[a, b]).unwrap();
        let _dead = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", live).unwrap();
        let swept = sweep(&nl);
        assert_eq!(swept.gate_count(), 1);
        assert_eq!(swept.input_count(), 2);
        assert_equivalent(&nl, &swept);
    }

    #[test]
    fn maj_simplifications() {
        // MAJ(a, b, 1) == OR(a, b)
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let g = nl.add_gate(GateKind::Maj, &[a, b, one]).unwrap();
        nl.add_output("y", g).unwrap();
        let opt = optimize(&nl);
        assert_equivalent(&nl, &opt);
        let kinds: Vec<_> = opt.nodes().filter_map(crate::netlist::Node::kind).collect();
        assert_eq!(kinds, vec![GateKind::Or]);

        // MAJ(a, a, b) == a
        let mut nl2 = Netlist::new("g");
        let a2 = nl2.add_input("a");
        let b2 = nl2.add_input("b");
        let g2 = nl2.add_gate(GateKind::Maj, &[a2, a2, b2]).unwrap();
        nl2.add_output("y", g2).unwrap();
        let opt2 = optimize(&nl2);
        assert_eq!(opt2.gate_count(), 0);
        assert_equivalent(&nl2, &opt2);
    }

    #[test]
    fn constant_output_materialized_once() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate(GateKind::And, &[a, na]).unwrap(); // == 0
        let h = nl.add_gate(GateKind::Or, &[a, na]).unwrap(); // == 1
        nl.add_output("zero", g).unwrap();
        nl.add_output("one", h).unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.evaluate(&[true]).unwrap(), vec![false, true]);
        assert_eq!(opt.evaluate(&[false]).unwrap(), vec![false, true]);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn optimize_reaches_fixed_point() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        let once = optimize(&nl);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }
}
