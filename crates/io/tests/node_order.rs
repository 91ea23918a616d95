//! Freezes the node order of the `.bench` and BLIF parsers.
//!
//! Node ids key the v2 fault-mask stream, so a parser change that
//! creates the same gates in a different order changes every
//! Monte-Carlo byte downstream. Each test parses one seeded netlist that
//! exercises every ordering rule of its format and compares the format's
//! writer output plus the per-node source lines against a committed
//! golden:
//!
//! - `.bench`: line-shuffled definitions, dead gates (materialized in
//!   sorted-name order), a DFF, duplicate fanins, comments and blank
//!   lines;
//! - BLIF: shuffled covers, dead covers (sorted-name order), on-set and
//!   off-set covers with don't-cares, constant covers, single-literal
//!   covers that alias an existing node, a `.latch`, `\` continuations
//!   and comments.
//!
//! An intentional order change is a cache format change; the failure
//! message prints the parser's full output to replace the golden with.

use std::fmt::Write as _;
use std::path::Path;

use nanobound_io::{bench, blif, Design};

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

/// A seeded BLIF model: cover blocks (header plus rows) shuffled as
/// units among the interface lines.
fn shuffled_blif(seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let mut blocks: Vec<String> = Vec::new();
    let mut signals: Vec<String> = Vec::new();
    let mut next_name = 0usize;
    let mut fresh = || {
        next_name += 1;
        name(next_name)
    };
    let inputs: Vec<String> = (0..8).map(|_| fresh()).collect();
    // Inputs over two statements, the first continued onto a second line.
    blocks.push(format!(
        ".inputs {} {} \\\n   {} {}   # first half",
        inputs[0], inputs[1], inputs[2], inputs[3]
    ));
    blocks.push(format!(".inputs {}", inputs[4..].join(" ")));
    signals.extend(inputs.iter().cloned());
    // The latch output feeds the logic; its data input is a late cover.
    let q = fresh();
    signals.push(q.clone());
    let mut covers: Vec<String> = Vec::new();
    for i in 0..120 {
        let out = fresh();
        let (arity, rows): (usize, Vec<String>) = match i % 12 {
            // Constant covers: an empty cover is 0, a bare `1` row is 1.
            0 => (0, Vec::new()),
            1 => (0, vec!["1".to_owned()]),
            // Single-literal covers: `1 1` aliases the fanin's node,
            // `0 1` inverts it.
            2 => (1, vec!["1 1".to_owned()]),
            3 => (1, vec!["0 1".to_owned()]),
            _ => {
                let arity = 1 + rng.below(4);
                let polarity = if i % 3 == 0 { '0' } else { '1' };
                let rows = (0..1 + rng.below(3))
                    .map(|_| {
                        let pattern: String =
                            (0..arity).map(|_| ['0', '1', '-'][rng.below(3)]).collect();
                        format!("{pattern} {polarity}")
                    })
                    .collect();
                (arity, rows)
            }
        };
        let args: Vec<String> = (0..arity)
            .map(|_| signals[rng.below(signals.len())].clone())
            .collect();
        let mut header = format!(
            ".names {}",
            args.iter()
                .chain([&out])
                .cloned()
                .collect::<Vec<_>>()
                .join(" ")
        );
        if i % 9 == 0 && arity > 1 {
            // A header continued after its first fanin.
            header = format!(".names {} \\\n {} {out}", args[0], args[1..].join(" "));
        }
        let mut block = vec![header];
        for (r, row) in rows.into_iter().enumerate() {
            block.push(match (i + r) % 11 {
                // A row continued before its output column, and a row
                // with a trailing comment.
                0 if row.contains(' ') => row.replacen(' ', " \\\n", 1),
                5 => format!("{row}   # row {r}"),
                _ => row,
            });
        }
        blocks.push(block.join("\n"));
        signals.push(out.clone());
        covers.push(out);
    }
    blocks.push(format!(".latch {} {q} 2", covers[covers.len() - 3]));
    // Outputs tap the back half and one input; the rest stays dead.
    let mut outputs: Vec<String> = (0..6)
        .map(|k| covers[60 + 10 * k + rng.below(10)].clone())
        .collect();
    outputs.push(inputs[5].clone());
    blocks.push(format!(".outputs {}", outputs.join(" ")));
    // An explicitly dead chain that no output or latch reaches.
    let dead_a = fresh();
    let dead_b = fresh();
    blocks.push(format!(".names {} {dead_a}\n0 1", inputs[0]));
    blocks.push(format!(".names {dead_a} {dead_a} {dead_b}\n11 1"));
    blocks.push("# a full-line comment".to_owned());
    blocks.push(String::new());
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, rng.below(i + 1));
    }
    format!(".model shuffled\n{}\n.end\n", blocks.join("\n"))
}

/// The per-node source lines followed by the writer's text.
fn rendered(design: &Design, written: &str) -> String {
    let mut got = String::from("# source_lines\n");
    for line in &design.source_lines {
        let _ = writeln!(got, "{line}");
    }
    got.push_str(written);
    got
}

fn assert_matches_golden(got: &str, file: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
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

#[test]
fn bench_node_order_matches_the_golden() {
    let text = shuffled_netlist(0x5EED_0B0E_DA7A);
    let design = bench::parse(&text).expect("the generated netlist parses");
    assert!(design.is_sequential(), "the DFF survives");
    let written = format!("# bench::write\n{}", bench::write(&design));
    assert_matches_golden(&rendered(&design, &written), "bench_node_order.txt");
}

#[test]
fn blif_node_order_matches_the_golden() {
    let text = shuffled_blif(0x5EED_B11F_0DE5);
    let design = blif::parse(&text).expect("the generated model parses");
    assert!(design.is_sequential(), "the latch survives");
    let written = format!(
        "# blif::write\n{}",
        blif::write(&design).expect("covers are narrow")
    );
    assert_matches_golden(&rendered(&design, &written), "blif_node_order.txt");
}
