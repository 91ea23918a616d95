//! Freezes the node order of the `.bench` parser.
//!
//! Node ids key the v2 fault-mask stream, so a parser change that
//! creates the same gates in a different order changes every
//! Monte-Carlo byte downstream. This test parses one seeded netlist that
//! exercises every ordering rule — line-shuffled definitions, dead gates
//! (materialized in sorted-name order), a DFF, duplicate fanins,
//! comments and blank lines — and compares `bench::write` of the result
//! plus its per-node source lines against a committed golden.
//!
//! An intentional order change is a cache format change; the failure
//! message prints the parser's full output to replace the golden with.

use std::fmt::Write as _;
use std::path::Path;

use nanobound_io::bench;

/// Deterministic xorshift stream (this crate sits below `nanobound-gen`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Signal names in three styles whose byte order disagrees with their
/// creation order, so sorted dead-gate materialization is visible.
fn name(k: usize) -> String {
    match k % 3 {
        0 => format!("{}", 7 * k + 3),
        1 => format!("g{k}"),
        _ => format!("N_{}x", 97 - k % 97),
    }
}

/// A seeded netlist, one statement per line, then line-shuffled.
fn shuffled_netlist(seed: u64) -> String {
    const KINDS: [&str; 9] = [
        "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF", "MAJ",
    ];
    let mut rng = Rng(seed | 1);
    let mut lines: Vec<String> = Vec::new();
    let mut signals: Vec<String> = Vec::new();
    let mut next_name = 0usize;
    let mut fresh = || {
        next_name += 1;
        name(next_name)
    };
    for _ in 0..8 {
        let input = fresh();
        lines.push(format!("INPUT({input})"));
        signals.push(input);
    }
    // The DFF's output feeds the logic; its data input is a late gate.
    let q = fresh();
    signals.push(q.clone());
    let mut gates: Vec<String> = Vec::new();
    for i in 0..120 {
        let kind = KINDS[rng.below(KINDS.len())];
        let arity = match kind {
            "NOT" | "BUFF" => 1,
            "MAJ" => 3,
            _ => 2 + rng.below(3),
        };
        let mut args: Vec<String> = (0..arity)
            .map(|_| signals[rng.below(signals.len())].clone())
            .collect();
        if arity > 1 && i % 5 == 0 {
            // Duplicate fanin: the same signal twice in one gate.
            args[1] = args[0].clone();
        }
        let lhs = fresh();
        let mut line = format!("{lhs} = {kind}({})", args.join(", "));
        if i % 7 == 0 {
            line = format!("  {lhs}  =  {kind}( {} )   # gate {i}", args.join(" ,"));
        }
        lines.push(line);
        signals.push(lhs.clone());
        gates.push(lhs);
    }
    lines.push(format!("{q} = DFF({})", gates[gates.len() - 3]));
    // Outputs tap the back half; whatever nothing reaches stays dead.
    for k in 0..6 {
        let out = &gates[60 + 10 * k + rng.below(10)];
        lines.push(format!("OUTPUT({out})"));
    }
    // An explicitly dead chain that no output or latch reaches.
    let dead_a = fresh();
    let dead_b = fresh();
    lines.push(format!("{dead_a} = NOT({})", signals[0]));
    lines.push(format!("{dead_b} = AND({dead_a}, {dead_a})"));
    lines.push("# a full-line comment".to_owned());
    lines.push(String::new());
    lines.push("   ".to_owned());
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.below(i + 1));
    }
    lines.join("\n") + "\n"
}

#[test]
fn bench_node_order_matches_the_golden() {
    let text = shuffled_netlist(0x5EED_0B0E_DA7A);
    let design = bench::parse(&text).expect("the generated netlist parses");
    assert!(design.is_sequential(), "the DFF survives");
    let mut got = String::from("# source_lines\n");
    for line in &design.source_lines {
        let _ = writeln!(got, "{line}");
    }
    got.push_str("# bench::write\n");
    got.push_str(&bench::write(&design));

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_node_order.txt");
    let want = std::fs::read_to_string(&golden).expect("golden is committed");
    assert!(
        got == want,
        "node order drifted from {}; first differing line: {:?}\nparser output:\n{got}",
        golden.display(),
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
    );
}
