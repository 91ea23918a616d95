//! Freezes the output of `transform::prepare`.
//!
//! The mapped netlist's node order feeds every on-disk profile key and
//! the v2 fault-mask stream, so an optimizer change that reaches the
//! same function through a different node order silently invalidates
//! caches and moves Monte-Carlo bytes. This test prepares the Section-6
//! suite and a family of seeded random DAGs at `max_fanin` 2, 3 and 4,
//! and compares one line per case — gate count, depth and a frozen
//! digest of the result's structure — against a committed golden.
//!
//! The random DAGs are built to hit every rewrite rule: constants, BUF
//! chains, double NOT, `x · ¬x`, XOR pairs and complementary pairs, MAJ
//! with constants and duplicate fanins, common subexpressions modulo
//! commutativity, dead gates and many outputs. A ladder case needs more
//! rounds than the optimizer's round cap, so the cap is pinned too.
//!
//! An intentional change is a cache format change; the failure message
//! prints the whole new listing to replace the golden with.

use std::fmt::Write as _;
use std::path::Path;

use nanobound::gen::standard_suite;
use nanobound::logic::{topo, transform, GateKind, Netlist, Node, NodeId};

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

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A seeded DAG whose steps each exercise one rewrite rule.
fn rule_dag(seed: u64, inputs: usize, steps: usize, outputs: usize) -> Netlist {
    const AND_OR: [GateKind; 4] = [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor];
    const ANY: [GateKind; 6] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut nl = Netlist::new(format!("dag{seed}"));
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    let mut gates: Vec<NodeId> = Vec::new();
    for _ in 0..steps {
        let x = pool[rng.below(pool.len())];
        let y = pool[rng.below(pool.len())];
        let z = pool[rng.below(pool.len())];
        let id = match rng.below(10) {
            0 => nl.add_const(rng.coin()),
            1 => {
                let mut b = x;
                for _ in 0..=rng.below(3) {
                    b = nl.add_gate(GateKind::Buf, &[b]).unwrap();
                }
                b
            }
            2 => {
                let n = nl.add_gate(GateKind::Not, &[x]).unwrap();
                if rng.coin() {
                    nl.add_gate(GateKind::Not, &[n]).unwrap()
                } else {
                    n
                }
            }
            3 => {
                let n = nl.add_gate(GateKind::Not, &[x]).unwrap();
                let mut fanins = vec![x, y, n];
                fanins.swap(0, rng.below(3));
                nl.add_gate(AND_OR[rng.below(4)], &fanins).unwrap()
            }
            4 => {
                let kind = if rng.coin() {
                    GateKind::Xor
                } else {
                    GateKind::Xnor
                };
                let fanins = if rng.coin() {
                    vec![x, y, x, z]
                } else {
                    let n = nl.add_gate(GateKind::Not, &[x]).unwrap();
                    vec![y, n, x]
                };
                nl.add_gate(kind, &fanins).unwrap()
            }
            5 => {
                let fanins = match rng.below(4) {
                    0 => vec![x, y, nl.add_const(rng.coin())],
                    1 => {
                        let c0 = nl.add_const(rng.coin());
                        let c1 = nl.add_const(rng.coin());
                        vec![c0, x, c1]
                    }
                    2 => vec![x, y, x],
                    _ => vec![x, y, z],
                };
                nl.add_gate(GateKind::Maj, &fanins).unwrap()
            }
            6 if !gates.is_empty() => {
                let g = gates[rng.below(gates.len())];
                let Node::Gate { kind, fanins } = nl.node(g) else {
                    unreachable!("only gates are recorded")
                };
                let mut fanins = fanins.to_vec();
                fanins.reverse();
                nl.add_gate(kind, &fanins).unwrap()
            }
            _ => {
                let kind = ANY[rng.below(ANY.len())];
                let mut fanins: Vec<NodeId> = (0..2 + rng.below(6))
                    .map(|_| pool[rng.below(pool.len())])
                    .collect();
                if rng.below(4) == 0 {
                    fanins[0] = fanins[fanins.len() - 1];
                }
                nl.add_gate(kind, &fanins).unwrap()
            }
        };
        if matches!(nl.node(id), Node::Gate { .. }) {
            gates.push(id);
        }
        pool.push(id);
    }
    // Outputs tap the back of the pool (so the front is mostly dead),
    // sometimes an input, sometimes a driver another output already has.
    let mut drivers: Vec<NodeId> = Vec::new();
    for o in 0..outputs {
        let driver = match rng.below(8) {
            0 => pool[rng.below(inputs)],
            1 if !drivers.is_empty() => drivers[rng.below(drivers.len())],
            _ => pool[pool.len() - 1 - rng.below(pool.len().min(4 * outputs + 4))],
        };
        drivers.push(driver);
        nl.add_output(format!("o{o}"), driver).unwrap();
    }
    nl
}

/// Two copies of a chain that merge one level per optimizer round, so
/// the fixed point lies beyond the round cap.
fn ladder(levels: usize) -> Netlist {
    let mut nl = Netlist::new("ladder");
    let a = nl.add_input("a");
    let mut x = nl.add_gate(GateKind::Not, &[a]).unwrap();
    let mut y = nl.add_gate(GateKind::Not, &[a]).unwrap();
    for level in 0..levels {
        let side = nl.add_input(format!("s{level}"));
        let nx = nl.add_gate(GateKind::And, &[x, y, side]).unwrap();
        let ny = nl.add_gate(GateKind::And, &[x, side]).unwrap();
        (x, y) = (nx, ny);
    }
    let diff = nl.add_gate(GateKind::Xor, &[x, y]).unwrap();
    nl.add_output("x", x).unwrap();
    nl.add_output("y", y).unwrap();
    nl.add_output("diff", diff).unwrap();
    nl
}

fn cases() -> Vec<(String, Netlist)> {
    let mut cases: Vec<(String, Netlist)> = standard_suite()
        .expect("the suite generates")
        .into_iter()
        .map(|b| (b.name, b.netlist))
        .collect();
    for seed in 1..=30u64 {
        let s = seed as usize;
        let (inputs, steps, outputs) = (3 + s % 9, 15 + 37 * (s % 8), 1 + (5 * s) % 41);
        cases.push((
            format!("dag{seed}/{inputs}/{steps}/{outputs}"),
            rule_dag(seed, inputs, steps, outputs),
        ));
    }
    for (seed, outputs) in [(101u64, 300usize), (102, 40)] {
        cases.push((
            format!("dag{seed}/24/2500/{outputs}"),
            rule_dag(seed, 24, 2500, outputs),
        ));
    }
    for levels in [3, 7, 12, 30] {
        cases.push((format!("ladder{levels}"), ladder(levels)));
    }
    cases
}

/// The golden's `fp` column: the structural fingerprint of cache format
/// 2, when the golden was written — `netlist_fingerprint`'s message of
/// that format (`u64::MAX` per input; kind index, fanin count and fanins
/// per gate; the output drivers) under that format's byte-serial
/// two-lane hash, domain `prepare-golden`. Frozen here, so the golden
/// pins `prepare`'s output whatever fingerprint the cache uses.
fn structure_digest(netlist: &Netlist) -> String {
    struct Lanes(u64, u64);
    impl Lanes {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                self.1 =
                    (self.1.rotate_left(23) ^ u64::from(b)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
        }
        fn word(&mut self, word: usize) {
            self.bytes(&(word as u64).to_le_bytes());
        }
    }
    fn avalanche(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = Lanes(0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15);
    h.word(2);
    h.bytes(b"prepare-golden");
    h.word("prepare-golden".len());
    h.word(netlist.node_count());
    for node in netlist.nodes() {
        match node {
            Node::Input { .. } => h.word(usize::MAX),
            Node::Gate { kind, fanins } => {
                h.word(kind as usize);
                h.word(fanins.len());
                for f in fanins {
                    h.word(f.index());
                }
            }
        }
    }
    h.word(netlist.output_count());
    for output in netlist.outputs() {
        h.word(output.driver.index());
    }
    format!(
        "{:016x}{:016x}",
        avalanche(h.0 ^ h.1.rotate_left(32)),
        avalanche(h.1 ^ h.0.rotate_left(17))
    )
}

fn listing() -> String {
    let mut out = String::from("# case max_fanin gates depth netlist_fingerprint\n");
    for (name, netlist) in cases() {
        for k in [2, 3, 4] {
            let mapped = transform::prepare(&netlist, k).expect("k >= 2");
            let _ = writeln!(
                out,
                "{name} k={k} gates={} depth={} fp={}",
                mapped.gate_count(),
                topo::depth(&mapped),
                structure_digest(&mapped)
            );
        }
    }
    out
}

#[test]
fn prepare_matches_the_golden() {
    let got = listing();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prepare.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    assert!(
        got == want,
        "prepare output drifted from {}; first differing line: {:?}\nnew listing:\n{got}",
        golden.display(),
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
    );
}
