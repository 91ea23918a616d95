//! Layered structural fingerprinting: netlist → experiment.
//!
//! Lives in the simulator crate (rather than `nanobound-runner`, which
//! re-exports it) so the [`ProgramCache`](crate::compiled::ProgramCache)
//! can address compiled programs by the same identity the shard cache
//! uses for experiment results.
//!
//! The workspace's caches key on two nested identity layers:
//!
//! 1. **Netlist** — [`netlist_fingerprint`]: the whole structure —
//!    node kinds, fanin wiring and output drivers in declaration
//!    order. Keys compiled programs and, combined with measurement
//!    parameters, every persistent store. **Frozen**: shard-cache and
//!    profile-store entries on disk address by it, so reference values
//!    are pinned below.
//! 2. **Experiment** — [`experiment_builder`]: a domain-tagged builder
//!    pre-seeded with the netlist layer, onto which callers push the
//!    parameters their result depends on (ε, seeds, pattern counts…).
//!    Keys Monte-Carlo shard tallies and profile measurements.
//!    Parameters a result provably does *not* depend on stay out of its
//!    key — that is what lets an ε-grid `profile` sweep reuse one
//!    ε-independent activity profile across the grid.
//!
//! The per-output cone hash ([`nanobound_logic::cone_hash`]) is not a
//! layer of this stack: no key folds it.

use nanobound_cache::FingerprintBuilder;
use nanobound_logic::{GateKind, Netlist, Node};

/// Folds a netlist's complete structure into a fingerprint: node kinds,
/// fanin wiring and output drivers in declaration order.
///
/// Signal *names* are deliberately excluded — they do not influence any
/// simulated or analyzed result, so two structurally identical netlists
/// share cache entries regardless of naming.
pub fn netlist_fingerprint(builder: &mut FingerprintBuilder, netlist: &Netlist) {
    builder.push_usize(netlist.node_count());
    for node in netlist.nodes() {
        match node {
            Node::Input { .. } => builder.push_u64(u64::MAX),
            Node::Gate { kind, fanins } => {
                let kind_index = GateKind::ALL
                    .iter()
                    .position(|k| k == kind)
                    .expect("GateKind::ALL covers every kind");
                builder.push_u64(kind_index as u64);
                builder.push_usize(fanins.len());
                for f in fanins {
                    builder.push_usize(f.index());
                }
            }
        }
    }
    builder.push_usize(netlist.output_count());
    for output in netlist.outputs() {
        builder.push_usize(output.driver.index());
    }
}

/// The experiment layer: a fingerprint builder for `domain`, pre-seeded
/// with `netlist`'s structural layer.
///
/// Every experiment-level cache key in the workspace starts this way —
/// push the remaining parameters the result depends on, then `finish()`.
/// Byte-identical to constructing a [`FingerprintBuilder`] and calling
/// [`netlist_fingerprint`] by hand, so existing on-disk entries keep
/// their addresses.
#[must_use]
pub fn experiment_builder(domain: &str, netlist: &Netlist) -> FingerprintBuilder {
    let mut builder = FingerprintBuilder::new(domain);
    netlist_fingerprint(&mut builder, netlist);
    builder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builder_matches_the_manual_sequence() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.add_output("y", g).unwrap();
        let mut manual = FingerprintBuilder::new("domain-x");
        netlist_fingerprint(&mut manual, &nl);
        manual.push_u64(42);
        let mut layered = experiment_builder("domain-x", &nl);
        layered.push_u64(42);
        assert_eq!(manual.finish(), layered.finish());
    }

    #[test]
    fn frozen_reference_values() {
        // Shard-cache and profile-store entries on disk address by this
        // value, so it may change only together with a FORMAT_VERSION
        // bump (which salts every fingerprint). Two inputs, a constant,
        // a `Buf` read by two gates, two outputs.
        let mut nl = Netlist::new("pin");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let g = nl.add_gate(GateKind::Nand, &[buf, b]).unwrap();
        let h = nl.add_gate(GateKind::Xor, &[buf, one]).unwrap();
        nl.add_output("y", g).unwrap();
        nl.add_output("z", h).unwrap();
        assert_eq!(
            experiment_builder("pin", &nl).finish().to_hex(),
            "535f7d3ee8b80e90fb91008f985f9f83"
        );
    }
}
