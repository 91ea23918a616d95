//! N-modular redundancy (NMR).
//!
//! The oldest constructive fault-tolerance scheme: instantiate the
//! circuit `r` times over the *same* inputs and vote per output. TMR is
//! `r = 3`. The construction gives an empirical *upper* bound on the
//! cost of reliability, to be contrasted with the paper's lower bounds:
//! its size factor is slightly above `r` (replicas plus voters), while
//! the lower bound at matching δ̂ is far smaller — the gap the paper
//! attributes to schemes "committed to a particular use of redundancy".

use nanobound_logic::Netlist;

use crate::error::RedundancyError;
use crate::voter::majority_voter;

/// Builds the `r`-modular-redundant version of `netlist` (`r` odd).
///
/// All replicas share the primary inputs (inputs are assumed noise-free,
/// as in the paper's model); each primary output is the majority vote of
/// the `r` replica outputs, computed by noisy gates like everything
/// else.
///
/// # Errors
///
/// Returns [`RedundancyError::BadParameter`] unless `r` is odd,
/// `1 ≤ r ≤ 63`, and `netlist` has at least one output.
///
/// # Examples
///
/// ```
/// use nanobound_gen::adder;
/// use nanobound_redundancy::nmr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rca = adder::ripple_carry(4)?;
/// let tmr = nmr(&rca, 3)?;
/// assert_eq!(tmr.input_count(), rca.input_count());
/// assert_eq!(tmr.output_count(), rca.output_count());
/// assert!(tmr.gate_count() > 3 * rca.gate_count());
/// # Ok(())
/// # }
/// ```
pub fn nmr(netlist: &Netlist, r: usize) -> Result<Netlist, RedundancyError> {
    if netlist.output_count() == 0 {
        return Err(RedundancyError::bad(
            "outputs",
            0,
            "netlist must drive outputs",
        ));
    }
    let voter = majority_voter(r)?; // validates r
    let mut out = Netlist::new(format!("{}_nmr{r}", netlist.name()));
    let inputs: Vec<_> = netlist
        .inputs()
        .iter()
        .map(|&id| {
            let name = match netlist.node(id) {
                nanobound_logic::Node::Input { name } => name,
                _ => unreachable!("input list holds inputs"),
            };
            out.add_input(name)
        })
        .collect();

    let mut replica_outputs = Vec::with_capacity(r);
    for _ in 0..r {
        replica_outputs.push(out.import(netlist, &inputs)?);
    }
    for (j, original) in netlist.outputs().iter().enumerate() {
        let votes: Vec<_> = replica_outputs.iter().map(|rep| rep[j]).collect();
        let y = out.import(&voter, &votes)?[0];
        out.add_output(original.name.clone(), y)?;
    }
    Ok(out)
}

/// The exact size factor of the NMR construction:
/// `(r·S₀ + m·S_voter)/S₀`.
///
/// # Errors
///
/// Same as [`nmr`] — the voter must be constructible.
pub fn nmr_size_factor(netlist: &Netlist, r: usize) -> Result<f64, RedundancyError> {
    let voter_gates = majority_voter(r)?.gate_count();
    let s0 = netlist.gate_count() as f64;
    Ok((r as f64 * s0 + (netlist.output_count() * voter_gates) as f64) / s0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_gen::{adder, parity};
    use nanobound_sim::{equivalence, monte_carlo, NoisyConfig};

    #[test]
    fn nmr_preserves_function() {
        let rca = adder::ripple_carry(3).unwrap();
        for r in [1usize, 3, 5] {
            let red = nmr(&rca, r).unwrap();
            assert!(
                equivalence::equivalent_exhaustive(&rca, &red).unwrap(),
                "r = {r} changed the function"
            );
        }
    }

    #[test]
    fn tmr_reduces_output_error_rate() {
        let tree = parity::parity_tree(8, 2).unwrap();
        let tmr = nmr(&tree, 3).unwrap();
        let eps = 0.002;
        let base = monte_carlo(&tree, &NoisyConfig::new(eps, 1).unwrap(), 200_000, 2).unwrap();
        let prot = monte_carlo(&tmr, &NoisyConfig::new(eps, 1).unwrap(), 200_000, 2).unwrap();
        assert!(
            prot.circuit_error_rate < base.circuit_error_rate,
            "TMR {} vs base {}",
            prot.circuit_error_rate,
            base.circuit_error_rate
        );
    }

    #[test]
    fn noisy_voters_saturate_nmr() {
        // With noisy voters, NMR cannot be improved indefinitely: the
        // r = 3 voter is a single majority gate, but r = 5 needs a
        // ~10-gate popcount voter whose own failures dominate at low ε —
        // von Neumann's argument for restorative (not one-shot) voting.
        let tree = parity::parity_tree(16, 2).unwrap();
        let eps = 0.001;
        let mut rates = Vec::new();
        for r in [1usize, 3, 5] {
            let red = nmr(&tree, r).unwrap();
            let out = monte_carlo(&red, &NoisyConfig::new(eps, 3).unwrap(), 400_000, 4).unwrap();
            rates.push(out.circuit_error_rate);
        }
        // Both protected versions beat the bare circuit...
        assert!(rates[1] < rates[0], "TMR {} vs bare {}", rates[1], rates[0]);
        assert!(rates[2] < rates[0], "5MR {} vs bare {}", rates[2], rates[0]);
        // ...but the bigger, noisier voter costs 5MR its replica edge.
        assert!(
            rates[2] > rates[1],
            "expected voter saturation: 5MR {} should exceed TMR {}",
            rates[2],
            rates[1]
        );
    }

    #[test]
    fn size_factor_accounts_for_voters() {
        let rca = adder::ripple_carry(4).unwrap();
        let tmr = nmr(&rca, 3).unwrap();
        let predicted = nmr_size_factor(&rca, 3).unwrap();
        let actual = tmr.gate_count() as f64 / rca.gate_count() as f64;
        assert!((predicted - actual).abs() < 1e-12);
        assert!(predicted > 3.0);
    }

    #[test]
    fn input_names_survive() {
        let rca = adder::ripple_carry(2).unwrap();
        let red = nmr(&rca, 3).unwrap();
        assert_eq!(
            red.signal_name(red.inputs()[0]),
            rca.signal_name(rca.inputs()[0])
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let rca = adder::ripple_carry(2).unwrap();
        assert!(nmr(&rca, 2).is_err());
        let empty = Netlist::new("empty");
        assert!(nmr(&empty, 3).is_err());
    }
}
