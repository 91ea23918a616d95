//! Static soundness verification of compiled simulation tapes.
//!
//! [`SimProgram::verify`] abstractly interprets an op tape against the
//! netlist it claims to implement and proves the structural invariants
//! the executors rely on — without running a single pattern and without
//! looking at any RNG stream. That last property is the point: the v2
//! counter-based fault-mask stream shipped bit-identical on both
//! engines, but both derive their masks from the same
//! [`MaskPlan`](crate::MaskPlan), so differential testing cannot see a
//! fault there. The invariants checked here are stream-independent and
//! therefore **mandatory for every backend**, present and future:
//!
//! - **def-before-use** — every operand slot an op reads was written
//!   earlier (by an input load, a constant fill, or a previous op);
//! - **single assignment / Const immutability** — no slot is written
//!   twice, so input and constant slots can never be clobbered by a
//!   gate destination;
//! - **Buf aliasing** — a `Buf` node's slot *is* its fanin's;
//! - **arena bounds and sizing** — every referenced slot lies below
//!   `num_slots` (what [`SimScratch`](crate::SimScratch) allocates) and
//!   every allocated slot is actually produced, so the arena is exactly
//!   as large as the tape needs;
//! - **op order** — ops appear in the netlist's topological gate order
//!   with matching [`GateKind`]s;
//! - **structural re-abstraction** — lifting the tape back to a graph
//!   reproduces the netlist: per-gate operand multisets equal the
//!   fanins' slots, and input/constant/output slot maps agree with the
//!   netlist's declarations.
//!
//! [`SimProgram::compile`] re-verifies its own output behind a debug
//! assertion; release callers get the explicit [`SimProgram::verify`]
//! API (the `nanobound lint` tape pass runs it on every design).

use std::fmt;

use nanobound_logic::{GateKind, Netlist, Node};

use crate::compiled::SimProgram;

/// Checks `slot < num_slots`, naming `context` on failure.
fn bound(num_slots: usize, context: impl Fn() -> String, slot: u32) -> Result<usize, TapeDefect> {
    if (slot as usize) < num_slots {
        Ok(slot as usize)
    } else {
        Err(TapeDefect::SlotOutOfBounds {
            context: context(),
            slot,
            num_slots,
        })
    }
}

/// Marks `slot` as produced, rejecting out-of-bounds and double writes.
fn define(defined: &mut [bool], context: impl Fn() -> String, slot: u32) -> Result<(), TapeDefect> {
    let index = bound(defined.len(), &context, slot)?;
    if defined[index] {
        return Err(TapeDefect::Redefinition {
            context: context(),
            slot,
        });
    }
    defined[index] = true;
    Ok(())
}

/// A violated tape invariant, reported by [`SimProgram::verify`].
///
/// Carries enough structure for diagnostics to name the offending op,
/// node or slot; the `Display` rendering is the canonical message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TapeDefect {
    /// A per-node/per-output/per-input table has the wrong length.
    ShapeMismatch {
        /// Which table disagrees.
        what: &'static str,
        /// Length the netlist dictates.
        expected: usize,
        /// Length found in the tape.
        got: usize,
    },
    /// A slot reference at or beyond `num_slots` (the arena size).
    SlotOutOfBounds {
        /// Where the reference occurs.
        context: String,
        /// The offending slot.
        slot: u32,
        /// The arena size the scratch would allocate.
        num_slots: usize,
    },
    /// An op reads a slot no earlier instruction has written.
    UseBeforeDef {
        /// Index of the reading op.
        op: usize,
        /// The undefined slot.
        slot: u32,
    },
    /// A slot is written twice — which also covers a gate destination
    /// landing on an input or constant slot.
    Redefinition {
        /// Description of the second writer.
        context: String,
        /// The doubly-defined slot.
        slot: u32,
    },
    /// An allocated slot that nothing ever writes: the arena is larger
    /// than the tape, so `num_slots` disagrees with the op stream.
    UnproducedSlot {
        /// The hole in the arena.
        slot: u32,
    },
    /// The per-node slot map disagrees with the netlist (broken Buf
    /// alias, wrong input/constant slot, stale `is_gate` entry, …).
    NodeMapMismatch {
        /// The node id.
        node: usize,
        /// What disagreed.
        detail: String,
    },
    /// The op stream disagrees with the netlist's gate sequence.
    OpMismatch {
        /// Index of the op.
        op: usize,
        /// What disagreed.
        detail: String,
    },
    /// An output's slot is not its driver's.
    OutputMismatch {
        /// Output index in declaration order.
        output: usize,
    },
}

impl fmt::Display for TapeDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeDefect::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "tape {what} has {got} entries, netlist dictates {expected}"
            ),
            TapeDefect::SlotOutOfBounds {
                context,
                slot,
                num_slots,
            } => write!(
                f,
                "{context} references slot {slot} outside the {num_slots}-slot arena"
            ),
            TapeDefect::UseBeforeDef { op, slot } => {
                write!(
                    f,
                    "op {op} reads slot {slot} before any instruction defines it"
                )
            }
            TapeDefect::Redefinition { context, slot } => {
                write!(f, "{context} redefines slot {slot}")
            }
            TapeDefect::UnproducedSlot { slot } => {
                write!(f, "slot {slot} is allocated but never produced")
            }
            TapeDefect::NodeMapMismatch { node, detail } => {
                write!(f, "node n{node} slot map is unsound: {detail}")
            }
            TapeDefect::OpMismatch { op, detail } => {
                write!(f, "op {op} disagrees with the netlist: {detail}")
            }
            TapeDefect::OutputMismatch { output } => {
                write!(f, "output {output} slot is not its driver's")
            }
        }
    }
}

impl std::error::Error for TapeDefect {}

impl SimProgram {
    /// Statically proves this tape is a sound image of `netlist`.
    ///
    /// See the [module docs](self) for the invariant list. The check is
    /// purely structural — it never executes the tape and is
    /// independent of any RNG stream, so it applies unchanged to future
    /// backends that break bit-identity with the interpreted oracle.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`TapeDefect`].
    pub fn verify(&self, netlist: &Netlist) -> Result<(), TapeDefect> {
        let shape = |what: &'static str, expected: usize, got: usize| {
            if expected == got {
                Ok(())
            } else {
                Err(TapeDefect::ShapeMismatch {
                    what,
                    expected,
                    got,
                })
            }
        };
        shape("node slot map", netlist.node_count(), self.node_slots.len())?;
        shape("is-gate map", netlist.node_count(), self.is_gate.len())?;
        shape(
            "input slot list",
            netlist.input_count(),
            self.input_slots.len(),
        )?;
        shape(
            "output slot list",
            netlist.output_count(),
            self.output_slots.len(),
        )?;
        shape("op stream", netlist.gate_count(), self.ops.len())?;

        // Abstract state: which slots hold a produced value. Inputs and
        // materialized constants are the initial frontier; every op
        // then defines its destination exactly once.
        let mut defined = vec![false; self.num_slots];
        for (i, &slot) in self.input_slots.iter().enumerate() {
            define(&mut defined, || format!("input {i}"), slot)?;
        }
        if let Some(slot) = self.zero_slot {
            define(&mut defined, || "the zero constant".to_owned(), slot)?;
        }
        if let Some(slot) = self.ones_slot {
            define(&mut defined, || "the ones constant".to_owned(), slot)?;
        }
        for (i, op) in self.ops.iter().enumerate() {
            let (start, end) = (op.operands.0 as usize, op.operands.1 as usize);
            if start > end || end > self.operands.len() {
                return Err(TapeDefect::OpMismatch {
                    op: i,
                    detail: format!(
                        "operand range {start}..{end} exceeds the {}-entry operand tape",
                        self.operands.len()
                    ),
                });
            }
            for &slot in &self.operands[start..end] {
                let index = bound(defined.len(), || format!("op {i} operand"), slot)?;
                if !defined[index] {
                    return Err(TapeDefect::UseBeforeDef { op: i, slot });
                }
            }
            define(&mut defined, || format!("op {i} destination"), op.dst)?;
        }
        // Sizing: `num_slots` is what SimScratch allocates, so a slot
        // nothing produces means the arena and the tape disagree.
        if let Some(slot) = defined.iter().position(|&d| !d) {
            return Err(TapeDefect::UnproducedSlot {
                slot: u32::try_from(slot).expect("num_slots fits u32 slots"),
            });
        }

        // Structural re-abstraction: walk the netlist in id order and
        // prove the slot map, the op stream and the output map are the
        // image `compile` defines — gate kinds in topological order,
        // per-gate operand multisets equal to the fanins' slots.
        let mismatch = |node: usize, detail: String| TapeDefect::NodeMapMismatch { node, detail };
        let mut next_input = 0usize;
        let mut next_op = 0usize;
        let mut operand_sorted: Vec<u32> = Vec::new();
        let mut fanin_sorted: Vec<u32> = Vec::new();
        for (i, node) in netlist.nodes().enumerate() {
            let slot = self.node_slots[i];
            bound(self.num_slots, || format!("node n{i} slot"), slot)?;
            if self.is_gate[i] != node.kind().is_some_and(GateKind::counts_as_gate) {
                return Err(mismatch(i, "is-gate flag disagrees with the kind".into()));
            }
            match node {
                Node::Input { .. } => {
                    let input = self.input_slots[next_input];
                    next_input += 1;
                    if slot != input {
                        return Err(mismatch(i, format!("expected input slot {input}")));
                    }
                }
                Node::Gate { kind, fanins } => match kind {
                    GateKind::Const0 | GateKind::Const1 => {
                        let materialized = if kind == GateKind::Const0 {
                            self.zero_slot
                        } else {
                            self.ones_slot
                        };
                        if materialized != Some(slot) {
                            return Err(mismatch(
                                i,
                                format!("{kind} must alias its materialized constant slot"),
                            ));
                        }
                    }
                    GateKind::Buf => {
                        let fanin = fanins[0].index();
                        if slot != self.node_slots[fanin] {
                            return Err(mismatch(
                                i,
                                format!("Buf must alias fanin n{fanin}'s slot"),
                            ));
                        }
                    }
                    kind => {
                        let op = &self.ops[next_op];
                        let index = next_op;
                        next_op += 1;
                        if op.kind != kind {
                            return Err(TapeDefect::OpMismatch {
                                op: index,
                                detail: format!("kind {} where node n{i} is {kind}", op.kind),
                            });
                        }
                        if slot != op.dst {
                            return Err(TapeDefect::OpMismatch {
                                op: index,
                                detail: format!("destination {} is not node n{i}'s slot", op.dst),
                            });
                        }
                        operand_sorted.clear();
                        operand_sorted
                            .extend(&self.operands[op.operands.0 as usize..op.operands.1 as usize]);
                        operand_sorted.sort_unstable();
                        fanin_sorted.clear();
                        fanin_sorted.extend(fanins.iter().map(|f| self.node_slots[f.index()]));
                        fanin_sorted.sort_unstable();
                        if operand_sorted != fanin_sorted {
                            return Err(TapeDefect::OpMismatch {
                                op: index,
                                detail: format!(
                                    "operand multiset is not node n{i}'s fanin slot multiset"
                                ),
                            });
                        }
                    }
                },
            }
        }
        for (o, output) in netlist.outputs().iter().enumerate() {
            if self.output_slots[o] != self.node_slots[output.driver.index()] {
                return Err(TapeDefect::OutputMismatch { output: o });
            }
        }
        Ok(())
    }

    /// Applies one deterministic single-point corruption to the tape
    /// and describes it. **Test infrastructure only** — this exists so
    /// integration tests and the CI analyze gate can prove
    /// [`SimProgram::verify`] actually rejects broken tapes; every
    /// selector value yields a tape that must fail verification.
    #[doc(hidden)]
    pub fn corrupt_for_verifier_tests(&mut self, selector: u64) -> String {
        if self.ops.is_empty() {
            // Wiring-only programs still have a slot map to break.
            match selector % 3 {
                0 => {
                    self.num_slots += 1;
                    "grew the arena past the produced slots".to_owned()
                }
                1 if !self.node_slots.is_empty() => {
                    let last = self.node_slots.len() - 1;
                    self.node_slots[last] ^= 1;
                    format!("flipped node n{last}'s slot")
                }
                _ if !self.output_slots.is_empty() => {
                    self.output_slots[0] ^= 1;
                    "flipped output 0's slot".to_owned()
                }
                _ => {
                    self.num_slots += 1;
                    "grew the arena past the produced slots".to_owned()
                }
            }
        } else {
            let op = (selector / 8) as usize % self.ops.len();
            match selector % 8 {
                0 => {
                    self.ops[op].dst += 1;
                    format!("shifted op {op}'s destination")
                }
                1 => {
                    let kind = self.ops[op].kind;
                    self.ops[op].kind = match kind {
                        GateKind::And => GateKind::Or,
                        GateKind::Or => GateKind::And,
                        GateKind::Nand => GateKind::Nor,
                        GateKind::Nor => GateKind::Nand,
                        GateKind::Xor => GateKind::Xnor,
                        GateKind::Xnor => GateKind::Xor,
                        _ => GateKind::Nand,
                    };
                    format!("rewrote op {op}'s kind ({kind} -> {})", self.ops[op].kind)
                }
                2 if self.ops.len() >= 2 => {
                    let other = (op + 1) % self.ops.len();
                    self.ops.swap(op, other);
                    format!("swapped ops {op} and {other}")
                }
                3 => {
                    let start = self.ops[op].operands.0 as usize;
                    self.operands[start] = self.ops[op].dst;
                    format!("pointed op {op}'s first operand at its own destination")
                }
                4 => {
                    let start = self.ops[op].operands.0 as usize;
                    self.operands[start] =
                        u32::try_from(self.num_slots).expect("slot count fits u32");
                    format!("pointed op {op}'s first operand out of bounds")
                }
                5 => {
                    self.num_slots -= 1;
                    "shrank the arena below the produced slots".to_owned()
                }
                6 => {
                    let last = self.node_slots.len() - 1;
                    self.node_slots[last] ^= 1;
                    format!("flipped node n{last}'s slot")
                }
                _ => {
                    self.num_slots += 1;
                    "grew the arena past the produced slots".to_owned()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use nanobound_logic::{GateKind, Netlist};

    use super::*;

    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new("mixed");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let zero = nl.add_const(false);
        let one = nl.add_const(true);
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let not = nl.add_gate(GateKind::Not, &[buf]).unwrap();
        let and = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let nor = nl.add_gate(GateKind::Nor, &[not, zero]).unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[and, nor, one]).unwrap();
        let maj = nl.add_gate(GateKind::Maj, &[a, b, xor]).unwrap();
        nl.add_output("y", maj).unwrap();
        nl.add_output("z", xor).unwrap();
        nl
    }

    #[test]
    fn fresh_tapes_verify() {
        let nl = mixed_netlist();
        SimProgram::compile(&nl).verify(&nl).unwrap();
    }

    #[test]
    fn wiring_only_tapes_verify() {
        let mut nl = Netlist::new("wires");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let one = nl.add_const(true);
        nl.add_output("y", buf).unwrap();
        nl.add_output("k", one).unwrap();
        SimProgram::compile(&nl).verify(&nl).unwrap();
    }

    #[test]
    fn verifying_against_a_different_netlist_fails() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut other = nl.clone();
        let extra = other.add_gate(GateKind::Not, &[other.inputs()[0]]).unwrap();
        other.add_output("w", extra).unwrap();
        assert!(program.verify(&other).is_err());
    }

    /// Applies selectors `0..selectors` to fresh tapes of `nl`, requires
    /// each to be rejected and returns the defect classes reported.
    fn rejected_classes(nl: &Netlist, selectors: u64) -> BTreeSet<String> {
        let reference = SimProgram::compile(nl);
        (0..selectors)
            .map(|selector| {
                let mut program = reference.clone();
                let what = program.corrupt_for_verifier_tests(selector);
                let defect = program
                    .verify(nl)
                    .err()
                    .unwrap_or_else(|| panic!("selector {selector} ({what}) slipped through"));
                let debug = format!("{defect:?}");
                debug.split(' ').next().unwrap().to_owned()
            })
            .collect()
    }

    fn classes(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|&name| name.to_owned()).collect()
    }

    #[test]
    fn every_corruption_selector_is_rejected() {
        assert_eq!(
            rejected_classes(&mixed_netlist(), 64),
            classes(&[
                "OpMismatch",
                "Redefinition",
                "SlotOutOfBounds",
                "UnproducedSlot",
                "UseBeforeDef",
            ])
        );
    }

    #[test]
    fn wiring_only_corruptions_are_rejected() {
        let mut nl = Netlist::new("wires");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.add_output("y", buf).unwrap();
        assert_eq!(
            rejected_classes(&nl, 6),
            classes(&["OutputMismatch", "SlotOutOfBounds", "UnproducedSlot"])
        );
    }

    #[test]
    fn defect_messages_start_lowercase() {
        let defects = [
            TapeDefect::ShapeMismatch {
                what: "op stream",
                expected: 3,
                got: 2,
            },
            TapeDefect::SlotOutOfBounds {
                context: "op 1 operand".into(),
                slot: 9,
                num_slots: 6,
            },
            TapeDefect::UseBeforeDef { op: 0, slot: 4 },
            TapeDefect::Redefinition {
                context: "op 2 destination".into(),
                slot: 0,
            },
            TapeDefect::UnproducedSlot { slot: 5 },
            TapeDefect::NodeMapMismatch {
                node: 3,
                detail: "broken alias".into(),
            },
            TapeDefect::OpMismatch {
                op: 1,
                detail: "kind".into(),
            },
            TapeDefect::OutputMismatch { output: 0 },
        ];
        for defect in defects {
            let msg = defect.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }
}
