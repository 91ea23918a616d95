//! Ablation: NMR replication factor under *noisy* voters.
//!
//! The naive expectation — more replicas, more reliability — fails once
//! the voter itself is built from failing gates: the r = 3 voter is a
//! single majority gate, while r ≥ 5 voters are popcount trees whose
//! own failure rate grows with r. This example sweeps (r, ε) and prints
//! the measured output error rate, the voter's gate count, and the
//! binomial prediction with a perfect voter for contrast.
//!
//! Run: `cargo run --release --example ablation_voter`

use nanobound::gen::parity;
use nanobound::redundancy::analysis::binomial_majority_failure;
use nanobound::redundancy::nmr;
use nanobound::redundancy::voter::majority_voter;
use nanobound::report::{Cell, Table};
use nanobound::sim::{monte_carlo, NoisyConfig};

fn main() {
    let base = parity::parity_tree(16, 2).unwrap();
    let mut table = Table::new(
        "voter ablation — 16-input parity, measured over 200k vectors",
        [
            "epsilon",
            "r",
            "voter gates",
            "delta (measured)",
            "delta (ideal voter)",
        ],
    );
    for eps in [0.0005, 0.002, 0.008] {
        let config = NoisyConfig::new(eps, 3).unwrap();
        let bare = monte_carlo(&base, &config, 200_000, 4)
            .unwrap()
            .circuit_error_rate;
        for r in [1usize, 3, 5, 7] {
            let protected = nmr(&base, r).unwrap();
            let measured = monte_carlo(&protected, &config, 200_000, 4)
                .unwrap()
                .circuit_error_rate;
            let ideal = binomial_majority_failure(bare, r);
            table
                .push_row([
                    Cell::from(eps),
                    Cell::from(r),
                    Cell::from(majority_voter(r).unwrap().gate_count()),
                    Cell::from(measured),
                    Cell::from(ideal),
                ])
                .expect("row matches header");
        }
    }
    println!("{table}");
    println!(
        "With ideal voters, delta falls monotonically in r. With noisy\n\
         voters, r = 5/7 popcount voters saturate at their own failure\n\
         rate — von Neumann's case for restorative (multiplexed) voting."
    );
}
