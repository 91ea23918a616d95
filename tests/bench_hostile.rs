//! Hostile-input properties of the `.bench` reader.
//!
//! Feeds `bench::parse` arbitrary bytes and mutated valid files — line
//! deletions, duplications and swaps, plus inserted grammar characters,
//! carriage returns, keywords and multi-byte UTF-8 — and checks that no
//! input panics. A rejected file must name a line inside it, or line 0
//! for a signal that is never defined (an undefined output or latch
//! input, found only while resolving). An accepted file must go through
//! the whole ingest path: `transform::prepare`, `SimProgram::compile` and
//! the tape verifier.
//!
//! The seeds include the output shapes gateconvert's `to_blif` has to
//! resolve: several outputs on one wire, an output that is the negation
//! of another, an output that is an input, and a latch fed by an output.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nanobound::io::{bench, ParseErrorKind};
use nanobound::logic::transform;
use nanobound::sim::SimProgram;

/// Deterministic xorshift stream, independent of every crate under test.
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

const SEEDS: [&str; 6] = [
    bench::C17,
    // gateconvert shapes: o1 repeats o0's wire, o2 negates it, an input
    // is an output, and the state input is fed back from an output.
    "INPUT(i1)\nINPUT(i2)\nOUTPUT(o0)\nOUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(i1)\n\
     i0 = DFF(o0)\ng3 = AND(i0, i1)\no0 = XOR(g3, i2)\no1 = BUFF(o0)\no2 = NOT(o0)\n",
    // One wire declared as an output twice.
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(y)\ny = NOR(a, b)\n",
    // Negated outputs over a shared driver, with constants and MAJ.
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(m)\nOUTPUT(nm)\nOUTPUT(k)\n\
     m = MAJ(a, b, c)\nnm = NOT(m)\nk = CONST1()\nd = XNOR(m, nm, a)\n",
    // Out-of-order definitions, a dead gate and comments.
    "OUTPUT(y)  # late definitions\ny = OR(t, u)\nt = NAND(a, b)\nu = NOT(a)\n\
     dead = AND(t, t)\nINPUT(a)\nINPUT(b)\n",
    // A latch whose next state is itself an output.
    "INPUT(d)\nOUTPUT(q)\nOUTPUT(y)\nq = DFF(y)\ny = XOR(q, d)\n",
];

const INSERTS: [&str; 22] = [
    "(", ")", ",", "=", "#", "\r", "\n", " ", "INPUT", "OUTPUT", "DFF", "AND", "NAND", "BUFF",
    "MAJ", "CONST1", "NOT", "é", "名", "\u{a0}", "\u{2028}", "𝔸",
];

/// A seeded netlist text with forward references and every gate kind.
fn random_bench(rng: &mut Rng) -> String {
    const KINDS: [(&str, usize); 10] = [
        ("AND", 2),
        ("NAND", 3),
        ("OR", 2),
        ("NOR", 2),
        ("XOR", 3),
        ("XNOR", 2),
        ("NOT", 1),
        ("BUFF", 1),
        ("MAJ", 3),
        ("DFF", 1),
    ];
    let name = |g: usize| match g % 3 {
        0 => format!("{}", 10 + 7 * g),
        1 => format!("g{g}"),
        _ => format!("N_{}x", 97 - g % 97),
    };
    let inputs = 1 + rng.below(5);
    let gates = rng.below(24);
    let mut lines: Vec<String> = (0..inputs).map(|i| format!("INPUT(i{i})")).collect();
    let mut signals: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    for g in 0..gates {
        let (kind, arity) = KINDS[rng.below(KINDS.len())];
        let args: Vec<String> = (0..arity)
            .map(|_| match rng.below(10) {
                0 => name(g + 1 + rng.below(3)),
                _ => signals[rng.below(signals.len())].clone(),
            })
            .collect();
        lines.push(format!("{} = {kind}({})", name(g), args.join(", ")));
        signals.push(name(g));
    }
    for _ in 0..=rng.below(3) {
        lines.push(format!("OUTPUT({})", signals[rng.below(signals.len())]));
    }
    lines.join("\n") + "\n"
}

/// Deletes, duplicates or swaps lines, or inserts a token at a random
/// character boundary, one to four times.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for _ in 0..=rng.below(4) {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let n = lines.len();
        match rng.below(5) {
            0 => {
                lines.remove(rng.below(n));
            }
            1 => {
                let line = lines[rng.below(n)].clone();
                lines.insert(rng.below(n + 1), line);
            }
            2 => lines.swap(rng.below(n), rng.below(n)),
            _ => {
                let line = &mut lines[rng.below(n)];
                let mut at = rng.below(line.len() + 1);
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                line.insert_str(at, INSERTS[rng.below(INSERTS.len())]);
            }
        }
    }
    lines.join(if rng.below(4) == 0 { "\r\n" } else { "\n" })
}

/// Arbitrary bytes, biased towards the grammar's own characters.
fn noise(rng: &mut Rng) -> String {
    const GRAMMAR: &[u8] = b"()=,#\n\r INPUTOUTPUTDFFANDNOT";
    let bytes: Vec<u8> = (0..rng.below(300))
        .map(|_| match rng.below(3) {
            0 => GRAMMAR[rng.below(GRAMMAR.len())],
            _ => rng.next() as u8,
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The properties every input must satisfy.
fn check(text: &str) {
    match bench::parse(text) {
        Ok(design) => {
            let program = SimProgram::compile(&design.netlist);
            program
                .verify(&design.netlist)
                .expect("the parsed netlist's tape verifies");
            for k in [2, 3] {
                let mapped = transform::prepare(&design.netlist, k).expect("k >= 2");
                let program = SimProgram::compile(&mapped);
                program
                    .verify(&mapped)
                    .expect("the prepared netlist's tape verifies");
            }
        }
        Err(err) => {
            let lines = text.lines().count();
            assert!(err.line <= lines, "{err} points past line {lines}");
            if err.line == 0 {
                assert!(
                    matches!(err.kind, ParseErrorKind::UnknownSignal(_)),
                    "{err} has no line"
                );
            }
        }
    }
}

fn check_all(name: &str, seed: u64, cases: usize, mut input: impl FnMut(&mut Rng) -> String) {
    let mut rng = Rng(seed);
    for case in 0..cases {
        let text = input(&mut rng);
        if catch_unwind(AssertUnwindSafe(|| check(&text))).is_err() {
            panic!("{name} case {case} failed on {text:?}");
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    check_all("noise", 0x0B5E_55ED, 1500, noise);
}

#[test]
fn mutated_seed_files_never_panic() {
    check_all("seed mutation", 0x5EED_F11E, 3000, |rng| {
        let seed = SEEDS[rng.below(SEEDS.len())];
        mutate(rng, seed)
    });
}

#[test]
fn mutated_random_netlists_never_panic() {
    check_all("netlist mutation", 0xD1CE_0DD5, 3000, |rng| {
        let text = random_bench(rng);
        if rng.below(4) == 0 {
            text
        } else {
            mutate(rng, &text)
        }
    });
}

#[test]
fn seeds_parse_or_fail_as_pinned() {
    for seed in SEEDS {
        check(seed);
    }
    let err = bench::parse(SEEDS[2]).expect_err("an output declared twice");
    assert_eq!(err.line, 4);
    assert!(matches!(err.kind, ParseErrorKind::Logic(_)));
    let design = bench::parse(SEEDS[1]).expect("gateconvert shapes parse");
    assert_eq!(
        design.netlist.output_count(),
        5,
        "four outputs and o0's $next"
    );
}
