//! Differential tests: the compiled tape executor against the
//! interpreted oracle.
//!
//! The compiled engine's whole contract is *bitwise* equality with the
//! interpreted path — same `NoisyTally` counts, same activity floats,
//! same sensitivities — for every netlist, every ε (including the
//! symmetric branch up to ε = 1), every seed and every chunk size.
//! Both engines now speak the frozen v2 counter-based fault stream
//! (that switch is what bumped the cache `FORMAT_VERSION` to 2 and
//! regenerated the goldens, once); within v2, these properties are
//! what lets the compiled executor regroup words, lanes and shard
//! batches freely without changing a single cached byte.

use proptest::prelude::*;

use nanobound_gen::random::{random_dag, RandomDagConfig};
use nanobound_logic::{GateKind, Netlist};
use nanobound_sim::{
    estimate_activity, monte_carlo_tally, sensitivity, NoisyConfig, PatternSet, ShardSpec,
    SimProgram,
};

fn small_dag() -> impl Strategy<Value = RandomDagConfig> {
    (
        1usize..=8,
        1usize..=40,
        2usize..=4,
        1usize..=4,
        any::<u64>(),
    )
        .prop_map(
            |(inputs, gates, max_fanin, outputs, seed)| RandomDagConfig {
                inputs,
                gates,
                max_fanin,
                outputs,
                seed,
            },
        )
}

/// The ε grid: noise-free, tiny, the sparse mask regime (10⁻³, whose
/// gap decode needs its residual loop; 10⁻²; 2.5·10⁻², where about half
/// the words take three or more draws), moderate, the coin-flip
/// boundary and the far end of the symmetric branch.
const EPSILONS: [f64; 8] = [0.0, 1e-6, 1e-3, 1e-2, 2.5e-2, 0.3, 0.5, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tallies_are_bitwise_identical_on_random_dags(
        config in small_dag(),
        fault_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        // Deliberately includes single-pattern chunks and partial words.
        patterns in 1usize..300,
    ) {
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        for &eps in &EPSILONS {
            let cfg = NoisyConfig::new(eps, fault_seed).unwrap();
            let compiled = program
                .run_tally(&mut scratch, &cfg, patterns, pattern_seed)
                .unwrap();
            let interp = monte_carlo_tally(&nl, &cfg, patterns, pattern_seed).unwrap();
            prop_assert_eq!(&compiled, &interp, "eps={}", eps);
        }
    }

    #[test]
    fn scratch_reuse_across_chunk_sizes_stays_identical(
        config in small_dag(),
        fault_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        acc_seed in any::<u64>(),
    ) {
        // One scratch across differently-sized chunks, big and small in
        // both orders: arena reuse must never leak state between runs.
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let cfg = NoisyConfig::new(0.25, fault_seed).unwrap();
        for &patterns in &[200usize, 1, 67, 128, 3] {
            let compiled = program
                .run_tally(&mut scratch, &cfg, patterns, pattern_seed)
                .unwrap();
            let interp = monte_carlo_tally(&nl, &cfg, patterns, pattern_seed).unwrap();
            prop_assert_eq!(&compiled, &interp, "patterns={}", patterns);
        }
        // And the accumulate path: two one-shard batches folded into
        // one tally equal the interpreted chunks merged.
        let mut acc = program.empty_tally();
        for (patterns, pattern_seed) in [(100, acc_seed), (31, acc_seed ^ 1)] {
            let shard = ShardSpec { fault_seed, pattern_seed, patterns };
            let acc = std::slice::from_mut(&mut acc);
            program
                .run_tally_batch(&mut scratch, cfg.epsilon, &[shard], acc)
                .unwrap();
        }
        let mut expected = monte_carlo_tally(&nl, &cfg, 100, acc_seed).unwrap();
        expected.merge(&monte_carlo_tally(&nl, &cfg, 31, acc_seed ^ 1).unwrap());
        prop_assert_eq!(&acc, &expected);
    }

    #[test]
    fn activity_profiles_are_bitwise_identical(
        config in small_dag(),
        seed in any::<u64>(),
        // Up to three 32-word windows, most with a short last window
        // and a partial last word.
        patterns in 2usize..5_000,
    ) {
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let compiled = program
            .estimate_activity(&mut scratch, patterns, seed)
            .unwrap();
        let interp = estimate_activity(&nl, patterns, seed).unwrap();
        // Float-exact: same streams, same counts, same division order.
        prop_assert_eq!(compiled, interp);
    }

    #[test]
    fn compiled_tapes_verify_on_random_dags(config in small_dag()) {
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        program.verify(&nl).unwrap();
    }

    #[test]
    fn corrupted_tapes_fail_verification(
        config in small_dag(),
        selector in any::<u64>(),
    ) {
        // A single-point mutation anywhere in the tape — destination,
        // kind, op order, operand slot, arena size, node map — must be
        // caught; soundness is what lets future backends drop the
        // bit-identity oracle without losing the safety net.
        let nl = random_dag(&config).unwrap();
        let mut program = SimProgram::compile(&nl);
        let what = program.corrupt_for_verifier_tests(selector);
        prop_assert!(
            program.verify(&nl).is_err(),
            "corruption `{}` slipped through",
            what
        );
    }

    #[test]
    fn sensitivities_are_identical(config in small_dag(), seed in any::<u64>()) {
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let compiled_exact = sensitivity::exact_with(&program, &mut scratch).unwrap();
        prop_assert_eq!(compiled_exact, sensitivity::exact(&nl).unwrap());
        // Flip groups of 32, 16 and 2 copies (the last two partial for
        // most input counts), and one stream wider than the window.
        for samples in [64, 128, 700, 2_100] {
            let compiled_sampled =
                sensitivity::sampled_with(&program, &mut scratch, samples, seed).unwrap();
            prop_assert_eq!(
                compiled_sampled,
                sensitivity::sampled(&nl, samples, seed).unwrap(),
                "samples={}",
                samples
            );
        }
        let compiled_est =
            sensitivity::estimate_with(&program, &mut scratch, 64, seed).unwrap();
        prop_assert_eq!(compiled_est, sensitivity::estimate(&nl, 64, seed).unwrap());
    }
}

/// Random DAGs whose exhaustive streams span 8 to 1,024 words, so the
/// compiled exact sensitivity runs over several windows.
fn wide_dag() -> impl Strategy<Value = RandomDagConfig> {
    (
        9usize..=16,
        1usize..=60,
        2usize..=4,
        1usize..=6,
        any::<u64>(),
    )
        .prop_map(
            |(inputs, gates, max_fanin, outputs, seed)| RandomDagConfig {
                inputs,
                gates,
                max_fanin,
                outputs,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exact_sensitivities_are_identical_across_windows(config in wide_dag()) {
        let nl = random_dag(&config).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        prop_assert_eq!(
            sensitivity::exact_with(&program, &mut scratch).unwrap(),
            sensitivity::exact(&nl).unwrap()
        );
    }
}

#[test]
fn exact_sensitivities_match_on_wiring_outputs() {
    // Outputs read straight from an input, both constants, a buffer, and
    // one gate twice; input counts on both sides of one word and of one
    // window.
    for n in [1usize, 2, 5, 6, 7, 11, 12, 13] {
        let mut nl = Netlist::new("wired");
        let inputs: Vec<_> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
        let zero = nl.add_const(false);
        let one = nl.add_const(true);
        let gate = if n == 1 {
            nl.add_gate(GateKind::Not, &inputs).unwrap()
        } else {
            nl.add_gate(GateKind::Nand, &inputs).unwrap()
        };
        let buf = nl.add_gate(GateKind::Buf, &[gate]).unwrap();
        nl.add_output("x", inputs[0]).unwrap();
        nl.add_output("z", zero).unwrap();
        nl.add_output("o", one).unwrap();
        nl.add_output("b", buf).unwrap();
        nl.add_output("g", gate).unwrap();
        nl.add_output("g2", gate).unwrap();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        assert_eq!(
            sensitivity::exact_with(&program, &mut scratch).unwrap(),
            sensitivity::exact(&nl).unwrap(),
            "n = {n}"
        );
    }
}

/// A netlist of nothing but wiring: buffers and constants, zero gates.
fn wiring_only() -> Netlist {
    let mut nl = Netlist::new("wiring");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let zero = nl.add_const(false);
    let one = nl.add_const(true);
    let buf_a = nl.add_gate(GateKind::Buf, &[a]).unwrap();
    let buf_buf = nl.add_gate(GateKind::Buf, &[buf_a]).unwrap();
    nl.add_output("p", buf_buf).unwrap();
    nl.add_output("q", b).unwrap();
    nl.add_output("z", zero).unwrap();
    nl.add_output("o", one).unwrap();
    nl
}

#[test]
fn zero_gate_netlists_match_across_all_epsilons() {
    let nl = wiring_only();
    let program = SimProgram::compile(&nl);
    assert_eq!(program.gate_count(), 0);
    let mut scratch = program.scratch();
    for &eps in &EPSILONS {
        let cfg = NoisyConfig::new(eps, 7).unwrap();
        for patterns in [1usize, 64, 100] {
            let compiled = program.run_tally(&mut scratch, &cfg, patterns, 9).unwrap();
            let interp = monte_carlo_tally(&nl, &cfg, patterns, 9).unwrap();
            assert_eq!(compiled, interp, "eps={eps} patterns={patterns}");
            // Wiring is noise-free by the paper's device model.
            assert_eq!(compiled.circuit_errors, 0);
        }
    }
    // Activity and sensitivity on the degenerate circuit as well.
    let compiled = program.estimate_activity(&mut scratch, 500, 3).unwrap();
    let interp = estimate_activity(&nl, 500, 3).unwrap();
    assert_eq!(compiled, interp);
    assert_eq!(compiled.avg_gate_activity, 0.0);
    assert_eq!(
        sensitivity::exact_with(&program, &mut scratch).unwrap(),
        sensitivity::exact(&nl).unwrap()
    );
}

#[test]
fn exhaustive_patterns_match_through_run_clean() {
    // run_clean must accept externally built pattern sets, exhaustive
    // ones included, not only the random streams it draws itself.
    let config = RandomDagConfig {
        inputs: 6,
        gates: 30,
        max_fanin: 3,
        outputs: 3,
        seed: 0xFEED,
    };
    let nl = random_dag(&config).unwrap();
    let program = SimProgram::compile(&nl);
    let mut scratch = program.scratch();
    let patterns = PatternSet::exhaustive(6).unwrap();
    program.run_clean(&mut scratch, &patterns).unwrap();
    let values = nanobound_sim::evaluate_packed(&nl, &patterns).unwrap();
    for id in nl.node_ids() {
        assert_eq!(program.node_stream(&scratch, id), values.node(id), "{id}");
    }
}
