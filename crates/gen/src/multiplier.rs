//! Array multipliers — the structure of ISCAS `c6288`.
//!
//! The classic combinational array multiplier: an AND matrix of partial
//! products reduced row by row with carry-save full-adder rows. ISCAS'85
//! `c6288` *is* a 16×16 array multiplier (32 inputs, 32 outputs), so
//! [`array()`]`(16, 16)` is a structurally faithful stand-in for it.
//!
//! The sensitivity of an `n×m` multiplier is `n + m`: pick `a` and `b` both
//! non-zero (e.g. all ones); flipping any bit of `a` changes the product by
//! `±2^i·b ≠ 0`, and symmetrically for `b`.

use nanobound_logic::{GateKind, Netlist, NodeId};

use crate::adder::{full_adder, half_adder};
use crate::error::GenError;

/// An `wa × wb`-bit array multiplier.
///
/// Inputs (in order): `a0..a{wa-1}`, `b0..b{wb-1}`. Outputs:
/// `p0..p{wa+wb-1}` (the full product, LSB first).
///
/// # Errors
///
/// Returns [`GenError::BadParameter`] if either width is 0.
///
/// # Examples
///
/// ```
/// let mult = nanobound_gen::multiplier::array(4, 4)?;
/// // 6 * 7 = 42.
/// let mut inputs: Vec<bool> = (0..4).map(|i| 6 >> i & 1 == 1).collect();
/// inputs.extend((0..4).map(|i| 7 >> i & 1 == 1));
/// let out = mult.evaluate(&inputs).unwrap();
/// let p: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
/// assert_eq!(p, 42);
/// # Ok::<(), nanobound_gen::GenError>(())
/// ```
pub fn array(wa: usize, wb: usize) -> Result<Netlist, GenError> {
    if wa == 0 {
        return Err(GenError::bad("wa", wa, "must be at least 1"));
    }
    if wb == 0 {
        return Err(GenError::bad("wb", wb, "must be at least 1"));
    }
    let mut nl = Netlist::new(format!("mult{wa}x{wb}"));
    let a: Vec<NodeId> = (0..wa).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..wb).map(|i| nl.add_input(format!("b{i}"))).collect();

    // Partial-product matrix: pp[j][i] = a_i AND b_j, weight i + j.
    let mut pp: Vec<Vec<NodeId>> = Vec::with_capacity(wb);
    for &bj in &b {
        let row: Vec<NodeId> = a
            .iter()
            .map(|&ai| nl.add_gate(GateKind::And, &[ai, bj]))
            .collect::<Result<_, _>>()?;
        pp.push(row);
    }

    // Row-by-row carry-propagate reduction (the classic array structure):
    // `acc` holds the running sum aligned so acc[i] has weight `row + i`.
    let mut products: Vec<NodeId> = Vec::with_capacity(wa + wb);
    let mut acc: Vec<NodeId> = pp[0].clone();
    products.push(acc[0]);
    for (row, row_pp) in pp.iter().enumerate().skip(1) {
        // Add row_pp (weight row..row+wa-1) to acc[1..] (weight row..).
        let mut next: Vec<NodeId> = Vec::with_capacity(wa);
        let mut carry: Option<NodeId> = None;
        for i in 0..wa {
            let high = acc.get(i + 1).copied();
            let (sum, c) = match (high, carry) {
                (Some(h), Some(cin)) => full_adder(&mut nl, row_pp[i], h, cin)?,
                (Some(h), None) => half_adder(&mut nl, row_pp[i], h)?,
                (None, Some(cin)) => half_adder(&mut nl, row_pp[i], cin)?,
                (None, None) => {
                    next.push(row_pp[i]);
                    continue;
                }
            };
            next.push(sum);
            carry = Some(c);
        }
        if let Some(c) = carry {
            next.push(c);
        }
        products.push(next[0]);
        acc = next;
        let _ = row;
    }
    products.extend(acc.into_iter().skip(1));
    products.truncate(wa + wb);
    // Pad (only possible for 1-bit operands) with constant zeros.
    while products.len() < wa + wb {
        let zero = nl.add_const(false);
        products.push(zero);
    }
    for (i, p) in products.iter().enumerate() {
        nl.add_output(format!("p{i}"), *p)?;
    }
    Ok(nl)
}

/// The analytically known sensitivity of an `wa × wb` multiplier
/// (`wa + wb`).
#[must_use]
pub fn sensitivity(wa: usize, wb: usize) -> u32 {
    (wa + wb) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_mult(nl: &Netlist, wa: usize, wb: usize, a: u64, b: u64) -> u64 {
        let mut inputs: Vec<bool> = (0..wa).map(|i| a >> i & 1 == 1).collect();
        inputs.extend((0..wb).map(|i| b >> i & 1 == 1));
        let out = nl.evaluate(&inputs).unwrap();
        let mut p = 0u64;
        for (i, &bit) in out.iter().enumerate() {
            if bit {
                p |= 1 << i;
            }
        }
        p
    }

    #[test]
    fn multiplies_exhaustively_4x4() {
        let nl = array(4, 4).unwrap();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(eval_mult(&nl, 4, 4, a, b), a * b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn multiplies_asymmetric_3x5() {
        let nl = array(3, 5).unwrap();
        for a in 0u64..8 {
            for b in 0u64..32 {
                assert_eq!(eval_mult(&nl, 3, 5, a, b), a * b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn one_bit_multiplier_is_and() {
        let nl = array(1, 1).unwrap();
        assert_eq!(nl.output_count(), 2);
        assert_eq!(eval_mult(&nl, 1, 1, 1, 1), 1);
        assert_eq!(eval_mult(&nl, 1, 1, 1, 0), 0);
    }

    #[test]
    fn sixteen_bit_interface_matches_c6288() {
        let nl = array(16, 16).unwrap();
        assert_eq!(nl.input_count(), 32);
        assert_eq!(nl.output_count(), 32);
        // Spot checks.
        assert_eq!(eval_mult(&nl, 16, 16, 65535, 65535), 65535u64 * 65535);
        assert_eq!(eval_mult(&nl, 16, 16, 12345, 54321), 12345u64 * 54321);
        assert_eq!(eval_mult(&nl, 16, 16, 0, 54321), 0);
    }

    #[test]
    fn rejects_zero_widths() {
        assert!(array(0, 4).is_err());
        assert!(array(4, 0).is_err());
    }

    #[test]
    fn sensitivity_value() {
        assert_eq!(sensitivity(16, 16), 32);
    }
}
