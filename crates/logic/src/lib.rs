//! Gate-level netlist infrastructure for noisy-circuit analysis.
//!
//! This crate provides the structural substrate used throughout the
//! `nanobound` workspace, a reproduction of *Marculescu, "Energy Bounds for
//! Fault-Tolerant Nanoscale Designs", DATE 2005*:
//!
//! - [`GateKind`] — the gate library (constants, buffers, inverters, and
//!   variable-fanin AND/NAND/OR/NOR/XOR/XNOR plus 3-input majority);
//! - [`Netlist`] — a combinational netlist stored as a DAG whose nodes are
//!   kept in topological order *by construction*;
//! - [`stats::CircuitStats`] — the aggregate parameters consumed by the
//!   paper's bounds (size, depth, fanin distribution);
//! - [`transform`] — synthesis-lite passes: constant folding, buffer and
//!   double-inverter collapsing, structural hashing, dead-gate sweeping and
//!   balanced decomposition to a maximum fanin `k` (the stand-in for the
//!   paper's SIS + fanin-3 library mapping flow).
//!
//! # Examples
//!
//! Build a 1-bit full adder and evaluate it:
//!
//! ```
//! use nanobound_logic::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), nanobound_logic::LogicError> {
//! let mut nl = Netlist::new("full_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let cin = nl.add_input("cin");
//! let sum = nl.add_gate(GateKind::Xor, &[a, b, cin])?;
//! let ab = nl.add_gate(GateKind::And, &[a, b])?;
//! let ac = nl.add_gate(GateKind::And, &[a, cin])?;
//! let bc = nl.add_gate(GateKind::And, &[b, cin])?;
//! let cout = nl.add_gate(GateKind::Or, &[ab, ac, bc])?;
//! nl.add_output("sum", sum)?;
//! nl.add_output("cout", cout)?;
//!
//! assert_eq!(nl.evaluate(&[true, true, false])?, vec![false, true]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cone;
pub mod error;
pub mod gate;
pub mod netlist;
pub mod stats;
pub mod topo;
pub mod transform;

pub use cone::{cone_hash, output_cone_hashes, ConeHash};
pub use error::LogicError;
pub use gate::GateKind;
pub use netlist::{Netlist, Node, NodeId};
pub use stats::CircuitStats;
