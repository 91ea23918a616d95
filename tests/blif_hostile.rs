//! Hostile-input properties of the BLIF reader.
//!
//! Feeds `blif::parse` arbitrary bytes and mutated valid models — line
//! deletions, duplications and swaps, plus inserted keywords, cover
//! literals, continuation backslashes, comments, carriage returns and
//! multi-byte UTF-8 — and checks that no input panics. A rejected file
//! must name a line inside it, or line 0 where BLIF attributes none: a
//! missing `.model`, a signal that is never defined, a name declared
//! twice by `.inputs` or `.latch`, or an output the netlist refuses. An
//! accepted file must go through the whole ingest path:
//! `transform::prepare`, `SimProgram::compile` and the tape verifier.
//!
//! The seeds include the shapes gateconvert's `to_blif` writes: one
//! statement per interface name, a state input that is also a latch
//! output, an output that repeats another output's wire through a buffer
//! cover, and an output that negates one through a `0 1` cover.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nanobound::io::{bench, blif, unroll, ParseErrorKind};
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

const SEEDS: [&str; 7] = [
    // gateconvert: i0 is a state input and the latch output, o1 repeats
    // o0's wire, o2 negates it.
    ".model top\n.inputs i0\n.inputs i2\n.outputs o0\n.outputs o1\n.outputs o2\n\
     .latch o0 i0\n.names i0 i2 o0\n10 1\n01 1\n.names o0 o2\n0 1\n.names o0 o1\n1 1\n.end\n",
    // The same shapes without the state input: accepted.
    ".model top\n.inputs i2\n.inputs i3\n.outputs o0\n.outputs o1\n.outputs o2\n\
     .latch o0 i0\n.names i0 i2 o0\n10 1\n01 1\n.names i3 o0 o3\n00 1\n\
     .names o0 o2\n0 1\n.names o0 o1\n1 1\n.end\n",
    // One wire declared as an output twice.
    ".model dup\n.inputs a b\n.outputs y y\n.names a b y\n11 0\n.end\n",
    // Negated outputs over a shared driver, constants and don't-cares.
    ".model neg\n.inputs a b c\n.outputs m nm k z a\n.names a b c m\n11- 1\n1-1 1\n-11 1\n\
     .names m nm\n0 1\n.names k\n1\n.names z\n.names m nm a d\n1-0 0\n.end\n",
    // Out-of-order covers, a dead cover, comments and continuations.
    ".model ooo  # late definitions\n.outputs y\n.names t u \\\n y\n1- 1\n-1 1\n\
     .names a b t\n11 0\n.names a u\n0 1\n.names t t dead\n11 \\\n1\n.inputs a \\\nb\n.end\n",
    // A latch whose next state is itself an output.
    ".model loop\n.inputs d\n.outputs q y\n.latch y q 2\n.names q d y\n10 1\n01 1\n.end\n",
    // The writer's own output for c17.
    "",
];

const INSERTS: [&str; 24] = [
    ".names", ".inputs", ".outputs", ".latch", ".model", ".end", ".gate", "\\", "#", "0", "1", "-",
    " ", "\r", "\n", "\t", "a", "y", "é", "名", "\u{a0}", "\u{2028}", "𝔸", "11 1",
];

/// A seeded model with forward references, on-set, off-set, constant and
/// don't-care covers, and now and then a latch.
fn random_blif(rng: &mut Rng) -> String {
    let name = |g: usize| match g % 3 {
        0 => format!("{}", 10 + 7 * g),
        1 => format!("g{g}"),
        _ => format!("N_{}x", 97 - g % 97),
    };
    let inputs = 1 + rng.below(5);
    let gates = rng.below(24);
    let mut signals: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    let mut lines = vec![
        ".model r".to_owned(),
        format!(".inputs {}", signals.join(" ")),
    ];
    for g in 0..gates {
        if rng.below(10) == 0 {
            lines.push(format!(
                ".latch {} {}",
                signals[rng.below(signals.len())],
                name(g)
            ));
            signals.push(name(g));
            continue;
        }
        let arity = rng.below(4);
        let mut header = String::from(".names");
        for _ in 0..arity {
            header.push(' ');
            header.push_str(&match rng.below(10) {
                0 => name(g + 1 + rng.below(3)),
                _ => signals[rng.below(signals.len())].clone(),
            });
        }
        lines.push(format!("{header} {}", name(g)));
        let polarity = ['0', '1'][rng.below(2)];
        for _ in 0..rng.below(3) {
            let pattern: String = (0..arity).map(|_| ['0', '1', '-'][rng.below(3)]).collect();
            lines.push(if arity == 0 {
                polarity.to_string()
            } else {
                format!("{pattern} {polarity}")
            });
        }
        signals.push(name(g));
    }
    let outputs: Vec<&str> = (0..=rng.below(3))
        .map(|_| signals[rng.below(signals.len())].as_str())
        .collect();
    lines.push(format!(".outputs {}", outputs.join(" ")));
    lines.push(".end".to_owned());
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
    const GRAMMAR: &[u8] = b".names .inputs .outputs .latch .model .end 01-\\#\n\r\t ";
    let bytes: Vec<u8> = (0..rng.below(300))
        .map(|_| match rng.below(3) {
            0 => rng.next() as u8,
            _ => GRAMMAR[rng.below(GRAMMAR.len())],
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The properties every input must satisfy.
fn check(text: &str) {
    match blif::parse(text) {
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
                    matches!(
                        err.kind,
                        ParseErrorKind::MissingModel
                            | ParseErrorKind::UnknownSignal(_)
                            | ParseErrorKind::DuplicateDefinition(_)
                            | ParseErrorKind::Logic(_)
                    ),
                    "{err} has no line"
                );
            }
        }
    }
}

fn c17_blif() -> String {
    let design = bench::parse(bench::C17).expect("c17 parses");
    blif::write(&design).expect("c17 covers are narrow")
}

fn seed(rng: &mut Rng) -> String {
    match SEEDS[rng.below(SEEDS.len())] {
        "" => c17_blif(),
        text => text.to_owned(),
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
    check_all("noise", 0x0B11_F5ED, 1500, noise);
}

#[test]
fn mutated_seed_models_never_panic() {
    check_all("seed mutation", 0x5EED_B11F, 3000, |rng| {
        let text = seed(rng);
        mutate(rng, &text)
    });
}

#[test]
fn mutated_random_models_never_panic() {
    check_all("model mutation", 0xB11F_0DD5, 3000, |rng| {
        let text = random_blif(rng);
        if rng.below(4) == 0 {
            text
        } else {
            mutate(rng, &text)
        }
    });
}

#[test]
fn seeds_parse_or_fail_as_pinned() {
    for text in SEEDS.iter().copied().filter(|s| !s.is_empty()) {
        check(text);
    }
    check(&c17_blif());
    let design = blif::parse(SEEDS[0]).expect("a state input that a latch drives parses");
    let netlist = &design.netlist;
    let i0 = netlist
        .inputs()
        .iter()
        .filter(|&&id| netlist.signal_name(id) == "i0");
    assert_eq!(i0.count(), 1, "i0 is one node");
    let frames = unroll::unroll_free(&design, 2).expect("the design unrolls");
    assert_eq!(frames.input_count(), 3, "i0@init, then i2 in each frame");
    let design = blif::parse(SEEDS[1]).expect("gateconvert shapes parse");
    assert_eq!(
        design.netlist.output_count(),
        4,
        "three outputs and o0's $next"
    );
    let err = blif::parse(SEEDS[2]).expect_err("an output declared twice");
    assert_eq!(err.line, 0);
    assert!(matches!(err.kind, ParseErrorKind::Logic(_)));
    assert!(blif::parse(SEEDS[3]).is_ok(), "negated outputs parse");
    assert!(blif::parse(SEEDS[4]).is_ok(), "out-of-order covers parse");
    assert!(
        blif::parse(SEEDS[5]).is_ok(),
        "a latch fed by an output parses"
    );
}
