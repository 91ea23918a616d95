//! Property-based tests for the synthesis-lite transforms and the
//! structural cone identity: every pass must preserve the Boolean
//! function of arbitrary random circuits and respect its structural
//! contract, and the cone hash must agree with cone isomorphism on
//! arbitrary random DAGs.

use proptest::prelude::*;

use nanobound_logic::cone::cone_events;
use nanobound_logic::transform::{
    decompose_to_max_fanin, dedupe, fold_constants, optimize, prepare, sweep,
};
use nanobound_logic::{cone_hash, output_cone_hashes, CircuitStats, GateKind, Netlist, NodeId};

/// A deterministic random netlist generator, independent of the
/// `nanobound-gen` crate (which depends on this one).
fn build_random(netlist_seed: u64, inputs: usize, gates: usize) -> Netlist {
    // xorshift64* — deterministic, no external dependency.
    let mut state = netlist_seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for g in 0..gates {
        let kind = KINDS[(next() % KINDS.len() as u64) as usize];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + (next() % 4) as usize, // fanin 2..=5
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| pool[(next() % pool.len() as u64) as usize])
            .collect();
        let id = nl.add_gate(kind, &fanins).expect("valid construction");
        pool.push(id);
        if g % 5 == 0 {
            // Sprinkle constants to exercise folding.
            pool.push(nl.add_const(next() % 2 == 0));
        }
    }
    let gate_pool = &pool[inputs..];
    for i in 0..2.min(gate_pool.len()) {
        nl.add_output(format!("y{i}"), gate_pool[gate_pool.len() - 1 - i])
            .unwrap();
    }
    nl
}

/// Rebuilds `nl` node-for-node under fresh signal names: the structure
/// (and hence every structural fingerprint) is untouched, only names
/// change.
fn renamed(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new("renamed");
    let mut map: Vec<NodeId> = Vec::with_capacity(nl.node_count());
    for (i, node) in nl.nodes().enumerate() {
        let id = match node.kind() {
            None => out.add_input(format!("renamed_in{i}")),
            Some(GateKind::Const0) => out.add_const(false),
            Some(GateKind::Const1) => out.add_const(true),
            Some(kind) => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f.index()]).collect();
                out.add_gate(kind, &fanins).expect("same valid structure")
            }
        };
        map.push(id);
    }
    for (i, output) in nl.outputs().iter().enumerate() {
        out.add_output(format!("renamed_out{i}"), map[output.driver.index()])
            .expect("same valid driver");
    }
    out
}

fn exhaustively_equivalent(a: &Netlist, b: &Netlist) -> bool {
    assert!(a.input_count() <= 10);
    (0..1u32 << a.input_count()).all(|v| {
        let bits: Vec<bool> = (0..a.input_count()).map(|i| v >> i & 1 == 1).collect();
        a.evaluate(&bits).unwrap() == b.evaluate(&bits).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_passes_preserve_function(
        seed in any::<u64>(),
        inputs in 1usize..=7,
        gates in 1usize..=30,
    ) {
        let nl = build_random(seed, inputs, gates);
        for (name, transformed) in [
            ("fold", fold_constants(&nl)),
            ("dedupe", dedupe(&nl)),
            ("sweep", sweep(&nl)),
            ("optimize", optimize(&nl)),
        ] {
            prop_assert!(exhaustively_equivalent(&nl, &transformed),
                "{} changed the function", name);
            transformed.validate().unwrap();
        }
    }

    #[test]
    fn decomposition_preserves_function_and_budget(
        seed in any::<u64>(),
        inputs in 1usize..=6,
        gates in 1usize..=25,
        budget in 2usize..=4,
    ) {
        let nl = build_random(seed, inputs, gates);
        let mapped = decompose_to_max_fanin(&nl, budget).unwrap();
        prop_assert!(exhaustively_equivalent(&nl, &mapped));
        prop_assert!(CircuitStats::of(&mapped).max_fanin <= budget);
        mapped.validate().unwrap();
    }

    #[test]
    fn prepare_never_grows_depth_times_budget(
        seed in any::<u64>(),
        inputs in 1usize..=6,
        gates in 1usize..=25,
    ) {
        let nl = build_random(seed, inputs, gates);
        let mapped = prepare(&nl, 3).unwrap();
        prop_assert!(exhaustively_equivalent(&nl, &mapped));
        // Optimization must never *increase* the gate count.
        let before = optimize(&nl).gate_count();
        prop_assert!(mapped.gate_count() <= before.max(nl.gate_count()) * 4,
            "mapping blow-up: {} -> {}", nl.gate_count(), mapped.gate_count());
    }

    #[test]
    fn optimize_is_idempotent(
        seed in any::<u64>(),
        inputs in 1usize..=6,
        gates in 1usize..=25,
    ) {
        let once = optimize(&build_random(seed, inputs, gates));
        let twice = optimize(&once);
        prop_assert_eq!(once.gate_count(), twice.gate_count());
        prop_assert!(exhaustively_equivalent(&once, &twice));
    }

    #[test]
    fn cone_hashes_are_name_invariant(
        seed in any::<u64>(),
        inputs in 1usize..=7,
        gates in 1usize..=30,
    ) {
        let nl = build_random(seed, inputs, gates);
        prop_assert_eq!(output_cone_hashes(&nl), output_cone_hashes(&renamed(&nl)));
    }

    #[test]
    fn cone_hash_equality_is_exactly_cone_isomorphism(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        inputs in 1usize..=6,
        gates in 1usize..=20,
    ) {
        // Half the cases compare against a renamed rebuild (many
        // isomorphic cone pairs, including every reconvergent shape the
        // generator produces); the other half against an independent
        // random DAG (mostly non-isomorphic pairs). The canonical event
        // stream *is* rooted ordered-DAG isomorphism by construction,
        // so hash equality must coincide with it on every pair.
        let a = build_random(seed_a, inputs, gates);
        let b = if seed_b % 2 == 0 {
            renamed(&a)
        } else {
            build_random(seed_b, inputs, gates)
        };
        for ra in a.node_ids() {
            for rb in b.node_ids() {
                let hashes_equal = cone_hash(&a, ra) == cone_hash(&b, rb);
                let isomorphic = cone_events(&a, ra) == cone_events(&b, rb);
                prop_assert_eq!(
                    hashes_equal, isomorphic,
                    "root {:?} vs {:?}", ra, rb
                );
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent(
        seed in any::<u64>(),
        inputs in 1usize..=7,
        gates in 1usize..=30,
    ) {
        let nl = build_random(seed, inputs, gates);
        let stats = CircuitStats::of(&nl);
        prop_assert_eq!(stats.num_inputs, nl.input_count());
        prop_assert_eq!(stats.num_gates, nl.gate_count());
        let histogram_total: usize = stats.fanin_histogram.values().sum();
        prop_assert_eq!(histogram_total, stats.num_gates);
        if stats.num_gates > 0 {
            prop_assert!(stats.avg_fanin <= stats.max_fanin as f64 + 1e-12);
        }
    }
}
