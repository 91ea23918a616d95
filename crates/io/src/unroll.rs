//! Time-frame expansion of sequential designs.
//!
//! The paper's future work names "the treatment of sequential circuits";
//! the standard reduction is unrolling: a design with latches becomes a
//! purely combinational circuit over `T` time frames, with frame `t`'s
//! state inputs driven by frame `t-1`'s next-state functions and frame
//! 0's state pinned to an initial value. The result can be fed to the
//! profiling pipeline and the bounds like any combinational netlist.
//!
//! [`crate::bench::parse`] and [`crate::blif::parse`] already cut
//! latches into (pseudo-input `q`, pseudo-output `q$next`) pairs — this
//! module stitches those pairs back together across frames.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use nanobound_logic::{LogicError, Netlist, Node, NodeId};

use crate::Design;

/// Errors produced by [`unroll`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnrollError {
    /// `frames` was zero.
    NoFrames,
    /// The initial-state vector does not match the latch count.
    InitialStateLength {
        /// Latches in the design.
        expected: usize,
        /// Initial values supplied.
        got: usize,
    },
    /// A latch references a pseudo-input or `$next` output that the
    /// netlist does not contain (malformed hand-built design).
    MissingLatchSignal {
        /// The latch output (state) name involved.
        name: String,
    },
    /// Netlist construction failed.
    Logic(LogicError),
}

impl fmt::Display for UnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollError::NoFrames => write!(f, "cannot unroll zero frames"),
            UnrollError::InitialStateLength { expected, got } => {
                write!(
                    f,
                    "initial state has {got} bits, design has {expected} latches"
                )
            }
            UnrollError::MissingLatchSignal { name } => {
                write!(f, "latch signal `{name}` not found in the netlist")
            }
            UnrollError::Logic(e) => write!(f, "netlist construction failed: {e}"),
        }
    }
}

impl Error for UnrollError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            UnrollError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogicError> for UnrollError {
    fn from(e: LogicError) -> Self {
        UnrollError::Logic(e)
    }
}

/// Unrolls a (possibly sequential) design into `frames` combinational
/// time frames.
///
/// Frame `t`'s primary inputs are named `{name}@{t}`; its primary
/// outputs `{name}@{t}`. Latches start at `initial` (one bit per latch,
/// in the design's latch order) and advance through their `$next`
/// functions between frames. The final frame's next-state values are
/// exposed as outputs named `{q}$final` so state-reachability checks
/// stay possible.
///
/// Purely combinational designs unroll to `frames` independent copies —
/// useful for throughput-style profiling, though usually `frames = 1`
/// is what you want there.
///
/// # Errors
///
/// Returns [`UnrollError::NoFrames`] for `frames == 0`,
/// [`UnrollError::InitialStateLength`] when `initial` does not match the
/// latch count, and [`UnrollError::MissingLatchSignal`] for malformed
/// designs.
///
/// # Examples
///
/// ```
/// use nanobound_io::{bench, unroll};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 1-bit toggle counter: q' = q XOR en.
/// let design = bench::parse(
///     "INPUT(en)\nOUTPUT(count)\nq = DFF(next)\nnext = XOR(q, en)\ncount = BUFF(q)\n",
/// )?;
/// let three = unroll::unroll(&design, 3, &[false])?;
/// // Toggling twice returns to zero: en = 1, 1, 1.
/// let out = three.evaluate(&[true, true, true])?;
/// // count@0 = 0, count@1 = 1, count@2 = 0, plus q$final = 1.
/// assert_eq!(out, vec![false, true, false, true]);
/// # Ok(())
/// # }
/// ```
pub fn unroll(design: &Design, frames: usize, initial: &[bool]) -> Result<Netlist, UnrollError> {
    if initial.len() != design.latches.len() {
        return Err(UnrollError::InitialStateLength {
            expected: design.latches.len(),
            got: initial.len(),
        });
    }
    unroll_impl(design, frames, Some(initial))
}

/// Like [`unroll`], but the initial state is *symbolic*: each latch
/// starts from a fresh primary input named `{q}@init`.
///
/// This is the bounded-model-checking-style expansion. It is also the
/// right form for profiling: a fixed initial state lets the optimizer
/// fold early frames into constants, under-reporting the per-cycle
/// logic, whereas free state keeps every frame structurally identical.
///
/// # Errors
///
/// Returns [`UnrollError::NoFrames`] for `frames == 0` and
/// [`UnrollError::MissingLatchSignal`] for malformed designs.
///
/// # Examples
///
/// ```
/// use nanobound_io::{bench, unroll};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = bench::parse(
///     "INPUT(en)\nOUTPUT(count)\nq = DFF(next)\nnext = XOR(q, en)\ncount = BUFF(q)\n",
/// )?;
/// let two = unroll::unroll_free(&design, 2)?;
/// // Inputs: q@init plus en@0, en@1.
/// assert_eq!(two.input_count(), 3);
/// # Ok(())
/// # }
/// ```
pub fn unroll_free(design: &Design, frames: usize) -> Result<Netlist, UnrollError> {
    unroll_impl(design, frames, None)
}

fn unroll_impl(
    design: &Design,
    frames: usize,
    initial: Option<&[bool]>,
) -> Result<Netlist, UnrollError> {
    if frames == 0 {
        return Err(UnrollError::NoFrames);
    }
    let netlist = &design.netlist;

    // Classify the template's inputs: latch pseudo-inputs (the first
    // latch of that name) vs real ones.
    let mut latch_of: HashMap<&str, usize> = HashMap::with_capacity(design.latches.len());
    for (i, latch) in design.latches.iter().enumerate() {
        latch_of.entry(latch.output.as_str()).or_insert(i);
    }
    let mut input_roles: Vec<Option<usize>> = Vec::with_capacity(netlist.input_count());
    for &id in netlist.inputs() {
        let name = match netlist.node(id) {
            Node::Input { name } => name,
            _ => unreachable!("input list holds inputs"),
        };
        input_roles.push(latch_of.get(name).copied());
    }
    // Locate each latch's `$next` output index.
    let mut next_indices = Vec::with_capacity(design.latches.len());
    for latch in &design.latches {
        let idx = netlist
            .output_position(&format!("{}$next", latch.output))
            .ok_or_else(|| UnrollError::MissingLatchSignal {
                name: latch.output.clone(),
            })?;
        next_indices.push(idx);
    }
    let state_outputs: Vec<bool> = netlist
        .outputs()
        .iter()
        .map(|o| o.name.ends_with("$next"))
        .collect();

    let mut out = Netlist::new(format!("{}_x{frames}", netlist.name()));
    let mut state: Vec<NodeId> = match initial {
        Some(bits) => bits.iter().map(|&b| out.add_const(b)).collect(),
        None => design
            .latches
            .iter()
            .map(|l| out.add_input(format!("{}@init", l.output)))
            .collect(),
    };
    for t in 0..frames {
        let frame_inputs: Vec<NodeId> = netlist
            .inputs()
            .iter()
            .zip(&input_roles)
            .map(|(&id, role)| match role {
                Some(latch_idx) => state[*latch_idx],
                None => {
                    let name = match netlist.node(id) {
                        Node::Input { name } => name,
                        _ => unreachable!("input list holds inputs"),
                    };
                    out.add_input(format!("{name}@{t}"))
                }
            })
            .collect();
        let frame_outputs = out.import(netlist, &frame_inputs)?;
        for (o, (output, &is_state)) in netlist.outputs().iter().zip(&state_outputs).enumerate() {
            if !is_state {
                out.add_output(format!("{}@{t}", output.name), frame_outputs[o])?;
            }
        }
        state = next_indices.iter().map(|&idx| frame_outputs[idx]).collect();
    }
    for (latch, &final_state) in design.latches.iter().zip(&state) {
        out.add_output(format!("{}$final", latch.output), final_state)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    /// A 2-bit counter with enable: increments modulo 4.
    fn counter2() -> Design {
        bench::parse(
            "INPUT(en)\n\
             OUTPUT(b0)\nOUTPUT(b1)\n\
             q0 = DFF(n0)\n\
             q1 = DFF(n1)\n\
             n0 = XOR(q0, en)\n\
             carry = AND(q0, en)\n\
             n1 = XOR(q1, carry)\n\
             b0 = BUFF(q0)\n\
             b1 = BUFF(q1)\n",
        )
        .expect("valid benchmark text")
    }

    #[test]
    fn counter_counts_over_frames() {
        let design = counter2();
        let unrolled = unroll(&design, 5, &[false, false]).unwrap();
        assert_eq!(unrolled.input_count(), 5); // en@0..en@4
                                               // Enable every cycle: states 0,1,2,3,0 observed at b1b0.
        let outs = unrolled.evaluate(&[true; 5]).unwrap();
        // Outputs: (b0@t, b1@t) for t in 0..5, then q0$final, q1$final.
        let states: Vec<u8> = (0..5)
            .map(|t| u8::from(outs[2 * t]) | (u8::from(outs[2 * t + 1]) << 1))
            .collect();
        assert_eq!(states, vec![0, 1, 2, 3, 0]);
        // Final state after 5 increments: 1.
        assert!(outs[10] && !outs[11]);
    }

    #[test]
    fn disabled_counter_holds_state() {
        let design = counter2();
        let unrolled = unroll(&design, 3, &[true, false]).unwrap();
        let outs = unrolled.evaluate(&[false; 3]).unwrap();
        for t in 0..3 {
            assert!(outs[2 * t], "b0 lost at frame {t}");
            assert!(!outs[2 * t + 1], "b1 appeared at frame {t}");
        }
    }

    #[test]
    fn initial_state_is_respected() {
        let design = counter2();
        let unrolled = unroll(&design, 1, &[true, true]).unwrap();
        let outs = unrolled.evaluate(&[false]).unwrap();
        assert_eq!(&outs[..2], &[true, true]);
    }

    #[test]
    fn combinational_designs_unroll_to_copies() {
        let design = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let unrolled = unroll(&design, 3, &[]).unwrap();
        assert_eq!(unrolled.input_count(), 6);
        assert_eq!(unrolled.output_count(), 3);
        let outs = unrolled
            .evaluate(&[true, true, true, false, false, false])
            .unwrap();
        assert_eq!(outs, vec![true, false, false]);
    }

    #[test]
    fn errors_are_reported() {
        let design = counter2();
        assert_eq!(
            unroll(&design, 0, &[false, false]).unwrap_err(),
            UnrollError::NoFrames
        );
        assert_eq!(
            unroll(&design, 2, &[false]).unwrap_err(),
            UnrollError::InitialStateLength {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn free_unrolling_exposes_initial_state_inputs() {
        let design = counter2();
        let unrolled = unroll_free(&design, 2).unwrap();
        // q0@init, q1@init + en@0, en@1.
        assert_eq!(unrolled.input_count(), 4);
        // Start at state 2 (q0 = 0, q1 = 1), enable both frames:
        // observed states 2, 3; final 0.
        let outs = unrolled.evaluate(&[false, true, true, true]).unwrap();
        let state_at = |t: usize| u8::from(outs[2 * t]) | (u8::from(outs[2 * t + 1]) << 1);
        assert_eq!(state_at(0), 2);
        assert_eq!(state_at(1), 3);
        assert!(!outs[4] && !outs[5], "final state should wrap to 0");
    }

    #[test]
    fn free_and_fixed_unrolling_agree_on_matching_state() {
        let design = counter2();
        let fixed = unroll(&design, 3, &[true, false]).unwrap();
        let free = unroll_free(&design, 3).unwrap();
        for en_bits in 0..8u8 {
            let ens: Vec<bool> = (0..3).map(|t| en_bits >> t & 1 == 1).collect();
            let mut free_inputs = vec![true, false]; // q0@init, q1@init
            free_inputs.extend(&ens);
            assert_eq!(
                fixed.evaluate(&ens).unwrap(),
                free.evaluate(&free_inputs).unwrap(),
                "en = {en_bits:03b}"
            );
        }
    }

    #[test]
    fn frame_signals_are_named_by_time() {
        let design = counter2();
        let unrolled = unroll(&design, 2, &[false, false]).unwrap();
        let names: Vec<String> = unrolled.outputs().iter().map(|o| o.name.clone()).collect();
        assert!(names.contains(&"b0@0".to_owned()));
        assert!(names.contains(&"b1@1".to_owned()));
        assert!(names.contains(&"q0$final".to_owned()));
    }
}
