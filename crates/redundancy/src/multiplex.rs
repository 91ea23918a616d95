//! Von Neumann NAND multiplexing.
//!
//! Each logical signal is carried by a *bundle* of `n` wires; a signal is
//! interpreted as 1 when more than half its bundle is stimulated. Every
//! 2-input NAND of the (NAND-form) source circuit becomes:
//!
//! 1. an **executive stage** — `n` NAND gates pairing the two input
//!    bundles under a random permutation, computing the logic function
//!    while spreading errors evenly over the bundle; and
//! 2. zero or more **restorative stages** — two back-to-back layers of
//!    `n` NANDs each over randomly permuted copies of the same bundle,
//!    a nonlinear filter pushing the stimulated fraction back toward
//!    0 or 1 (von Neumann 1956, §9-10).
//!
//! Primary outputs are resolved back to single wires by a popcount
//! threshold ("more than n/2 stimulated"), built from ordinary noisy
//! gates.

use nanobound_gen::{adder, comparator};
use nanobound_logic::{GateKind, Netlist, Node, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::RedundancyError;
use crate::nand_form::to_nand2;

/// Configuration of the multiplexing construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiplexConfig {
    /// Bundle width `n` (wires per logical signal, ≥ 3; odd keeps the
    /// output resolver unbiased).
    pub bundle: usize,
    /// Restorative stages appended after every executive stage (von
    /// Neumann's construction uses 1; 0 gives bare multiplexing).
    pub restorative_stages: usize,
    /// Seed for the randomizing permutations.
    pub seed: u64,
}

impl Default for MultiplexConfig {
    fn default() -> Self {
        MultiplexConfig {
            bundle: 9,
            restorative_stages: 1,
            seed: 0,
        }
    }
}

/// A multiplexed circuit with access to the raw output bundles.
///
/// The netlist's primary outputs go through *noisy* popcount resolvers
/// (the realistic readout). `output_bundles` exposes the bundle wires
/// feeding each resolver so experiments can also measure the *ideal*
/// reliability — majority over the bundle taken outside the circuit —
/// which is the quantity von Neumann's analysis bounds.
#[derive(Clone, Debug)]
pub struct Multiplexed {
    /// The constructed netlist (with resolvers).
    pub netlist: Netlist,
    /// Per primary output (in declaration order), the `bundle` wires
    /// carrying the un-resolved signal.
    pub output_bundles: Vec<Vec<NodeId>>,
}

/// Builds the NAND-multiplexed version of `netlist`.
///
/// Convenience wrapper over [`multiplex_full`] returning only the
/// netlist.
///
/// # Errors
///
/// Returns [`RedundancyError::BadParameter`] unless `bundle` is odd,
/// `3 ≤ bundle ≤ 63`, and the netlist drives at least one output.
///
/// # Examples
///
/// ```
/// use nanobound_gen::parity;
/// use nanobound_redundancy::{multiplex, MultiplexConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = parity::parity_tree(4, 2)?;
/// let mux = multiplex(&tree, &MultiplexConfig { bundle: 5, ..Default::default() })?;
/// assert_eq!(mux.input_count(), tree.input_count());
/// assert_eq!(mux.output_count(), tree.output_count());
/// assert!(mux.gate_count() > 5 * tree.gate_count());
/// # Ok(())
/// # }
/// ```
pub fn multiplex(netlist: &Netlist, config: &MultiplexConfig) -> Result<Netlist, RedundancyError> {
    Ok(multiplex_full(netlist, config)?.netlist)
}

/// Builds the NAND-multiplexed version of `netlist`, exposing the
/// output bundles.
///
/// The source is first rewritten to 2-input-NAND form ([`to_nand2`]);
/// inputs are assumed noise-free and fan out to whole bundles, and each
/// primary output carries a noisy majority resolver.
///
/// # Errors
///
/// Returns [`RedundancyError::BadParameter`] unless `bundle` is odd,
/// `3 ≤ bundle ≤ 63`, and the netlist drives at least one output.
pub fn multiplex_full(
    netlist: &Netlist,
    config: &MultiplexConfig,
) -> Result<Multiplexed, RedundancyError> {
    let n = config.bundle;
    if n.is_multiple_of(2) {
        return Err(RedundancyError::bad("bundle", n, "must be odd"));
    }
    if !(3..=63).contains(&n) {
        return Err(RedundancyError::bad("bundle", n, "must lie in 3..=63"));
    }
    if netlist.output_count() == 0 {
        return Err(RedundancyError::bad(
            "outputs",
            0,
            "netlist must drive outputs",
        ));
    }
    let nand = to_nand2(netlist)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Netlist::new(format!("{}_mux{n}", netlist.name()));

    // bundles[i] = the n wires carrying source node i's value.
    let mut bundles: Vec<Vec<NodeId>> = Vec::with_capacity(nand.node_count());
    for id in nand.node_ids() {
        let bundle = match nand.node(id) {
            Node::Input { name } => {
                let wire = out.add_input(name);
                vec![wire; n]
            }
            Node::Gate {
                kind: GateKind::Buf,
                fanins,
            } => bundles[fanins[0].index()].clone(),
            Node::Gate {
                kind: kind @ (GateKind::Const0 | GateKind::Const1),
                ..
            } => {
                let c = out.add_gate(kind, &[])?;
                vec![c; n]
            }
            Node::Gate {
                kind: GateKind::Nand,
                fanins,
            } => {
                let a = &bundles[fanins[0].index()];
                let b = &bundles[fanins[1].index()];
                let mut z = executive_stage(&mut out, a, b, &mut rng)?;
                for _ in 0..config.restorative_stages {
                    z = restorative_stage(&mut out, &z, &mut rng)?;
                }
                z
            }
            Node::Gate { kind, .. } => {
                unreachable!("to_nand2 leaves only NAND/Buf/Const gates, found {kind:?}")
            }
        };
        bundles.push(bundle);
    }

    let resolver = bundle_resolver(n)?;
    let mut output_bundles = Vec::with_capacity(nand.output_count());
    for o in nand.outputs() {
        let bundle = bundles[o.driver.index()].clone();
        let y = out.import(&resolver, &bundle)?[0];
        out.add_output(o.name.clone(), y)?;
        output_bundles.push(bundle);
    }
    Ok(Multiplexed {
        netlist: out,
        output_bundles,
    })
}

/// One layer of `n` NANDs over randomly permuted pairings of `a` and `b`.
fn executive_stage(
    nl: &mut Netlist,
    a: &[NodeId],
    b: &[NodeId],
    rng: &mut StdRng,
) -> Result<Vec<NodeId>, RedundancyError> {
    let perm = permutation(b.len(), rng);
    a.iter()
        .zip(&perm)
        .map(|(&ai, &j)| Ok(nl.add_gate(GateKind::Nand, &[ai, b[j]])?))
        .collect()
}

/// Von Neumann's restoring organ: two NAND layers over the same bundle,
/// each with a fresh permutation. The double inversion preserves
/// polarity while sharpening the stimulated fraction.
fn restorative_stage(
    nl: &mut Netlist,
    z: &[NodeId],
    rng: &mut StdRng,
) -> Result<Vec<NodeId>, RedundancyError> {
    let w = executive_stage(nl, z, z, rng)?;
    executive_stage(nl, &w, &w, rng)
}

/// `more than n/2 of the bundle stimulated` as a netlist.
fn bundle_resolver(n: usize) -> Result<Netlist, RedundancyError> {
    let mut nl = Netlist::new(format!("resolve{n}"));
    let inputs: Vec<_> = (0..n).map(|i| nl.add_input(format!("z{i}"))).collect();
    let counts = nl.import(&adder::popcount(n)?, &inputs)?;
    let ge = comparator::ge_const(counts.len(), (n as u64).div_ceil(2))?;
    let y = nl.import(&ge, &counts)?[0];
    nl.add_output("y", y)?;
    Ok(nl)
}

/// A uniform random permutation of `0..n` (Fisher-Yates).
fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_gen::{adder, parity};
    use nanobound_sim::{equivalence, monte_carlo, NoisyConfig};

    #[test]
    fn multiplexing_preserves_function() {
        let rca = adder::ripple_carry(2).unwrap();
        for stages in [0usize, 1, 2] {
            let cfg = MultiplexConfig {
                bundle: 5,
                restorative_stages: stages,
                seed: 7,
            };
            let mux = multiplex(&rca, &cfg).unwrap();
            assert!(
                equivalence::equivalent_exhaustive(&rca, &mux).unwrap(),
                "{stages} restorative stages broke the function"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let p = parity::parity_tree(4, 2).unwrap();
        let cfg = MultiplexConfig {
            bundle: 5,
            restorative_stages: 1,
            seed: 11,
        };
        assert_eq!(multiplex(&p, &cfg).unwrap(), multiplex(&p, &cfg).unwrap());
        let cfg2 = MultiplexConfig { seed: 12, ..cfg };
        assert_ne!(multiplex(&p, &cfg).unwrap(), multiplex(&p, &cfg2).unwrap());
    }

    #[test]
    fn wider_bundles_are_more_reliable_under_ideal_resolution() {
        // Von Neumann's guarantee concerns the bundle *statistics*: the
        // probability that the bundle majority is wrong shrinks with the
        // bundle width. (The in-circuit popcount resolver is itself
        // noisy and grows with n, so the end-to-end netlist error is
        // resolver-floored — measured separately below.)
        use nanobound_sim::{evaluate_noisy, evaluate_packed, PatternSet};
        let p = parity::parity_tree(4, 2).unwrap();
        let eps = 0.02;
        let patterns = PatternSet::random(p.input_count(), 40_000, 9);
        let clean = evaluate_packed(&p, &patterns).unwrap();
        let mut prev = f64::INFINITY;
        for bundle in [3usize, 9, 21] {
            let cfg = MultiplexConfig {
                bundle,
                restorative_stages: 1,
                seed: 5,
            };
            let mux = multiplex_full(&p, &cfg).unwrap();
            let noisy = evaluate_noisy(&mux.netlist, &patterns, &NoisyConfig::new(eps, 6).unwrap())
                .unwrap();
            // Ideal resolution: majority over the bundle, off-circuit.
            let mut wrong = 0usize;
            let reference = clean.node(p.outputs()[0].driver);
            for lane in 0..patterns.count() {
                let stimulated = mux.output_bundles[0]
                    .iter()
                    .filter(|&&w| noisy.bit(w, lane))
                    .count();
                let ideal = stimulated > bundle / 2;
                let expect = reference[lane / 64] >> (lane % 64) & 1 == 1;
                wrong += usize::from(ideal != expect);
            }
            let rate = wrong as f64 / patterns.count() as f64;
            assert!(
                rate < prev,
                "bundle {bundle}: ideal-resolution error {rate} not below {prev}"
            );
            prev = rate;
        }
    }

    #[test]
    fn noisy_resolver_floors_end_to_end_error() {
        // End-to-end (with the in-circuit resolver), widening the bundle
        // past the fluctuation regime stops helping: the popcount
        // resolver grows with n and its own failures dominate.
        let p = parity::parity_tree(4, 2).unwrap();
        let eps = 0.005;
        let run = |bundle: usize| {
            let cfg = MultiplexConfig {
                bundle,
                restorative_stages: 1,
                seed: 5,
            };
            let mux = multiplex(&p, &cfg).unwrap();
            monte_carlo(&mux, &NoisyConfig::new(eps, 6).unwrap(), 100_000, 7)
                .unwrap()
                .circuit_error_rate
        };
        let narrow = run(3);
        let mid = run(9);
        let wide = run(21);
        assert!(
            mid < narrow,
            "bundle 9 ({mid}) should beat bundle 3 ({narrow})"
        );
        assert!(
            wide > mid,
            "expected resolver floor: 21 ({wide}) above 9 ({mid})"
        );
    }

    #[test]
    fn cost_scales_with_bundle_and_stages() {
        let p = parity::parity_tree(4, 2).unwrap();
        let bare = multiplex(
            &p,
            &MultiplexConfig {
                bundle: 5,
                restorative_stages: 0,
                seed: 0,
            },
        )
        .unwrap();
        let restored = multiplex(
            &p,
            &MultiplexConfig {
                bundle: 5,
                restorative_stages: 1,
                seed: 0,
            },
        )
        .unwrap();
        // Each restorative stage adds 2 extra NAND layers per gate.
        assert!(restored.gate_count() > 2 * bare.gate_count() / 2);
        assert!(restored.gate_count() > bare.gate_count());
    }

    #[test]
    fn rejects_bad_bundles() {
        let p = parity::parity_tree(3, 2).unwrap();
        for bundle in [0usize, 1, 4, 65] {
            let cfg = MultiplexConfig {
                bundle,
                restorative_stages: 1,
                seed: 0,
            };
            assert!(multiplex(&p, &cfg).is_err(), "bundle {bundle} accepted");
        }
    }

    #[test]
    fn permutations_are_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 10, 33] {
            let mut p = permutation(n, &mut rng);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }
}
