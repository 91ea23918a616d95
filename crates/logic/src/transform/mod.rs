//! Structural netlist transforms: a synthesis-lite flow.
//!
//! The paper prepares its benchmarks with SIS (`script.rugged`) and maps
//! them onto a generic library with a maximum fanin of three. This module is
//! the workspace's stand-in for that flow:
//!
//! - [`optimize`] — constant folding, buffer/double-inverter collapsing,
//!   structural hashing (CSE) and dead-gate sweeping, iterated to a fixed
//!   point;
//! - [`decompose_to_max_fanin`] — balanced decomposition of wide gates into
//!   trees of at-most-`k`-input gates;
//! - [`prepare`] — the composition of both, yielding the mapped netlist
//!   whose statistics (`S0`, `d0`, fanin) feed the bounds.
//!
//! All transforms are pure: they build a fresh [`Netlist`] and never mutate
//! their input. All of them preserve the circuit's Boolean function, which
//! the test-suite checks exhaustively for small circuits. Every pass reads
//! and builds the netlist's own name-free structure (node kinds, one fanin
//! arena, output drivers), so [`prepare`]'s dozen passes attach names to
//! one [`Netlist`], at the end.
//!
//! [`Netlist`]: crate::Netlist

mod decompose;
mod optimize;

pub use decompose::decompose_to_max_fanin;
pub use optimize::{dedupe, fold_constants, optimize, sweep};

use crate::error::LogicError;
use crate::netlist::Netlist;

/// Runs the full preparation flow: optimize, map to fanin `max_fanin`,
/// optimize again.
///
/// # Errors
///
/// Returns [`LogicError::FaninBudgetTooSmall`] if `max_fanin < 2`.
///
/// # Examples
///
/// ```
/// use nanobound_logic::{GateKind, Netlist, transform};
///
/// # fn main() -> Result<(), nanobound_logic::LogicError> {
/// let mut nl = Netlist::new("wide");
/// let ins: Vec<_> = (0..9).map(|i| nl.add_input(format!("x{i}"))).collect();
/// let g = nl.add_gate(GateKind::And, &ins)?;
/// nl.add_output("y", g)?;
/// let mapped = transform::prepare(&nl, 3)?;
/// let stats = nanobound_logic::CircuitStats::of(&mapped);
/// assert_eq!(stats.max_fanin, 3);
/// assert_eq!(stats.depth, 2); // 9 -> 3 -> 1 balanced tree
/// # Ok(())
/// # }
/// ```
pub fn prepare(netlist: &Netlist, max_fanin: usize) -> Result<Netlist, LogicError> {
    let optimized = optimize::optimize_structure(netlist.structure());
    let mapped = decompose::decompose(&optimized, max_fanin)?;
    Ok(Netlist::named_after(
        optimize::optimize_structure(&mapped),
        netlist,
    ))
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::netlist::Netlist;

    /// Exhaustively checks that two netlists with the same interface compute
    /// the same outputs (inputs must be ≤ 16 wide).
    pub fn assert_equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.input_count(), b.input_count(), "input arity differs");
        assert_eq!(a.output_count(), b.output_count(), "output arity differs");
        let n = a.input_count();
        assert!(n <= 16, "exhaustive check limited to 16 inputs");
        for bits in 0u32..(1u32 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let va = a.evaluate(&assignment).unwrap();
            let vb = b.evaluate(&assignment).unwrap();
            assert_eq!(va, vb, "outputs differ on input {bits:0n$b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::stats::CircuitStats;

    #[test]
    fn prepare_rejects_tiny_fanin() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        assert!(matches!(
            prepare(&nl, 1),
            Err(LogicError::FaninBudgetTooSmall { .. })
        ));
    }

    #[test]
    fn prepare_preserves_function_and_bounds_fanin() {
        let mut nl = Netlist::new("mixed");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let wide_or = nl.add_gate(GateKind::Or, &ins).unwrap();
        let wide_xor = nl.add_gate(GateKind::Xor, &ins).unwrap();
        let top = nl.add_gate(GateKind::Nand, &[wide_or, wide_xor]).unwrap();
        nl.add_output("y", top).unwrap();
        let mapped = prepare(&nl, 2).unwrap();
        assert!(CircuitStats::of(&mapped).max_fanin <= 2);
        testutil::assert_equivalent(&nl, &mapped);
    }
}
