//! Cone-level structural identity: canonical fanin-cone serialization
//! and a frozen 128-bit cone hash.
//!
//! The paper's bounds compose over fanin cones — energy and reliability
//! are per-gate/per-cone quantities — so the cone is a natural unit of
//! structural identity:
//!
//! - [`cone_events`] — the canonical serialization of one node's fanin
//!   cone as a rooted, ordered DAG: a pre-order DFS that assigns
//!   canonical numbers at first visit and emits explicit
//!   back-references on re-convergence. Two cones produce the same
//!   event stream **iff** they are isomorphic as rooted ordered DAGs.
//!   (A bottom-up Merkle hash would collapse `And(a, b)` with
//!   `And(a, a)`; the back-references keep input sharing visible.)
//! - [`cone_hash`] / [`ConeHash`] — a 128-bit fold of that stream.
//!   **Frozen**: the event encoding and the mixer are pinned by
//!   reference-value tests below (like `shard_seed` and the fault
//!   stream), so the hash stays comparable across runs and releases.
//!   No cache or registry keys on it today: program and profile reuse
//!   key on the whole-netlist fingerprint in `nanobound-sim`.
//!
//! Names never enter any of this — cone identity is gate ops plus
//! topology, nothing else.

use crate::gate::GateKind;
use crate::netlist::{Netlist, Node, NodeId};

/// A frozen 128-bit structural hash of one fanin cone.
///
/// Equal hashes identify cones that are isomorphic as rooted ordered
/// DAGs (up to the negligible collision probability of a 128-bit
/// hash); the serialization it folds is [`cone_events`]. Values are
/// pinned by reference tests — changing them invalidates every
/// cone-keyed cache, so don't.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConeHash {
    hi: u64,
    lo: u64,
}

impl ConeHash {
    /// The hash as a 32-digit lowercase hex string.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::fmt::Display for ConeHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Event tag: first visit of a primary input.
const EVENT_INPUT: u64 = 0;
/// Event tag: first visit of a gate (kind ordinal and arity packed in).
const EVENT_GATE: u64 = 1;
/// Event tag: back-reference to an already-visited node.
const EVENT_REF: u64 = 2;

/// Initial state of the `hi` lane (the SplitMix64 increment).
const SEED_HI: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial state of the `lo` lane.
const SEED_LO: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Lane-decorrelation multiplier applied to the `lo` lane's absorption.
const LANE_MUL: u64 = 0xA24B_AED4_963E_E407;

/// The SplitMix64 finalizer — the same mixer family as the frozen v2
/// fault stream, reimplemented here because `nanobound-logic` sits
/// below the cache and sim crates in the dependency order.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Incremental two-lane fold over the event stream.
struct ConeHasher {
    hi: u64,
    lo: u64,
    events: u64,
}

impl ConeHasher {
    fn new() -> Self {
        ConeHasher {
            hi: SEED_HI,
            lo: SEED_LO,
            events: 0,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.hi = mix(self.hi ^ word);
        self.lo = mix(self.lo ^ word.wrapping_mul(LANE_MUL)).wrapping_add(self.hi);
        self.events += 1;
    }

    fn finish(self) -> ConeHash {
        ConeHash {
            hi: mix(self.hi ^ self.events),
            lo: mix(self.lo ^ self.events.rotate_left(32)),
        }
    }
}

/// The canonical-numbering DFS over one cone, parameterized over what
/// to do with each emitted event word.
fn walk_cone(netlist: &Netlist, root: NodeId, mut emit: impl FnMut(u64)) {
    let first_visit = |node: Node<'_>| -> u64 {
        match node {
            Node::Input { .. } => EVENT_INPUT,
            Node::Gate { kind, fanins } => {
                let ordinal = GateKind::ALL
                    .iter()
                    .position(|&k| k == kind)
                    .expect("every kind appears in GateKind::ALL")
                    as u64;
                EVENT_GATE | (ordinal << 3) | ((fanins.len() as u64) << 8)
            }
        }
    };
    // Canonical number of each visited node; u32::MAX = not yet seen.
    let mut canon = vec![u32::MAX; netlist.node_count()];
    let mut next: u32 = 0;
    canon[root.index()] = next;
    next += 1;
    emit(first_visit(netlist.node(root)));
    // (node, index of the next fanin to descend into)
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    while let Some((id, i)) = stack.last_mut() {
        let fanins = netlist.node(*id).fanins();
        if *i == fanins.len() {
            stack.pop();
            continue;
        }
        let f = fanins[*i];
        *i += 1;
        let seen = canon[f.index()];
        if seen != u32::MAX {
            emit(EVENT_REF | (u64::from(seen) << 3));
        } else {
            canon[f.index()] = next;
            next += 1;
            emit(first_visit(netlist.node(f)));
            stack.push((f, 0));
        }
    }
}

/// The canonical serialization of `root`'s fanin cone.
///
/// A pre-order DFS from `root`, descending into fanins in declared
/// order: the first visit of a node emits its label (input, or gate
/// kind ordinal + arity) and assigns it the next canonical number; a
/// re-encountered node emits a back-reference to that number. The
/// stream reconstructs the rooted ordered DAG uniquely, so **two cones
/// yield equal streams iff they are isomorphic** — node ids, node
/// positions and names all cancel out, while input sharing does not.
///
/// Exposed chiefly as the oracle for hash-equality properties; use
/// [`cone_hash`] for keys.
#[must_use]
pub fn cone_events(netlist: &Netlist, root: NodeId) -> Vec<u64> {
    let mut events = Vec::new();
    walk_cone(netlist, root, |w| events.push(w));
    events
}

/// The frozen 128-bit hash of `root`'s fanin cone — a two-lane
/// SplitMix64-style fold over [`cone_events`], streamed without
/// materializing the event list.
#[must_use]
pub fn cone_hash(netlist: &Netlist, root: NodeId) -> ConeHash {
    let mut hasher = ConeHasher::new();
    walk_cone(netlist, root, |w| hasher.absorb(w));
    hasher.finish()
}

/// The cone hash of every primary output's driver, in declaration
/// order.
#[must_use]
pub fn output_cone_hashes(netlist: &Netlist) -> Vec<ConeHash> {
    netlist
        .outputs()
        .iter()
        .map(|o| cone_hash(netlist, o.driver))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Netlist, NodeId) {
        // y = And(Not(a), Xor(Not(a), b)) — re-converges on Not(a).
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let x = nl.add_gate(GateKind::Xor, &[n, b]).unwrap();
        let y = nl.add_gate(GateKind::And, &[n, x]).unwrap();
        nl.add_output("y", y).unwrap();
        (nl, y)
    }

    #[test]
    fn events_distinguish_shared_from_distinct_fanins() {
        // And(a, b) vs And(a, a): a Merkle-style hash would collapse
        // these; the back-reference stream must not.
        let mut ab = Netlist::new("ab");
        let a = ab.add_input("a");
        let b = ab.add_input("b");
        let g = ab.add_gate(GateKind::And, &[a, b]).unwrap();
        let mut aa = Netlist::new("aa");
        let a2 = aa.add_input("a");
        let g2 = aa.add_gate(GateKind::And, &[a2, a2]).unwrap();
        assert_ne!(cone_events(&ab, g), cone_events(&aa, g2));
        assert_ne!(cone_hash(&ab, g), cone_hash(&aa, g2));
    }

    #[test]
    fn hash_ignores_names_and_node_positions() {
        let (nl, y) = diamond();
        // Same structure, different names, extra unrelated nodes
        // interleaved before and between the cone's nodes.
        let mut other = Netlist::new("renamed");
        let junk1 = other.add_input("junk1");
        let p = other.add_input("p");
        let q = other.add_input("q");
        let junk2 = other.add_gate(GateKind::Or, &[junk1, p]).unwrap();
        let n = other.add_gate(GateKind::Not, &[p]).unwrap();
        let x = other.add_gate(GateKind::Xor, &[n, q]).unwrap();
        let _ = other.add_gate(GateKind::Not, &[junk2]).unwrap();
        let y2 = other.add_gate(GateKind::And, &[n, x]).unwrap();
        assert_eq!(cone_events(&nl, y), cone_events(&other, y2));
        assert_eq!(cone_hash(&nl, y), cone_hash(&other, y2));
    }

    #[test]
    fn hash_separates_kinds_arity_and_wiring() {
        let (nl, y) = diamond();
        let base = cone_hash(&nl, y);
        // Different kind at the root.
        let mut k = Netlist::new("k");
        let a = k.add_input("a");
        let b = k.add_input("b");
        let n = k.add_gate(GateKind::Not, &[a]).unwrap();
        let x = k.add_gate(GateKind::Xor, &[n, b]).unwrap();
        let y2 = k.add_gate(GateKind::Or, &[n, x]).unwrap();
        assert_ne!(cone_hash(&k, y2), base);
        // Different wiring: swap the root's operand order.
        let mut w = Netlist::new("w");
        let a = w.add_input("a");
        let b = w.add_input("b");
        let n = w.add_gate(GateKind::Not, &[a]).unwrap();
        let x = w.add_gate(GateKind::Xor, &[n, b]).unwrap();
        let y3 = w.add_gate(GateKind::And, &[x, n]).unwrap();
        assert_ne!(cone_hash(&w, y3), base);
    }

    #[test]
    fn frozen_reference_values() {
        // Pinned like `shard_seed` and the v2 fault stream, so any
        // future cone-keyed store can rely on these exact values. If
        // this test fails, the cone hash changed — that needs the same
        // treatment as a FORMAT_VERSION bump, not a test update.
        let mut single = Netlist::new("one");
        let a = single.add_input("a");
        assert_eq!(
            cone_hash(&single, a).to_hex(),
            "9e0160293a33aaf7a642a5bc54155395"
        );
        let g = single.add_gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(
            cone_hash(&single, g).to_hex(),
            "82df1fe78e63e1f82a6390abf5b5c925"
        );
        let (nl, y) = diamond();
        assert_eq!(
            cone_hash(&nl, y).to_hex(),
            "af1c1b58baa44cd496f823fbc0d4bc3e"
        );
        let mut consts = Netlist::new("c");
        let one = consts.add_const(true);
        let zero = consts.add_const(false);
        let m = consts.add_gate(GateKind::Nand, &[one, zero]).unwrap();
        assert_eq!(
            cone_hash(&consts, m).to_hex(),
            "e11f0834e7ef54e15f900a8ac90f5484"
        );
    }
}
