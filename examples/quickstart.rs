//! Quickstart: measure a circuit, evaluate every bound of the paper.
//!
//! Builds the paper's running example (a 10-input parity function), runs
//! the measurement pipeline (optimize → map to fanin 3 → simulate →
//! sensitivity), and prints the full bound report at the paper's
//! headline operating point: 1% gate errors, 99% required reliability.
//!
//! Run: `cargo run --example quickstart`

use nanobound::core::{BoundReport, DepthBound};
use nanobound::experiments::profiles::{profile_netlist, ProfileConfig};
use nanobound::gen::parity;
use nanobound::runner::Exec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A real netlist: 10-input parity, XOR-3 tree.
    let tree = parity::parity_tree(10, 3)?;
    println!("circuit : {tree}");

    // 2. Measure the parameters the bounds need.
    let profiled = profile_netlist(&Exec::default(), &tree, None, &ProfileConfig::default())?;
    println!("profile : {}", profiled.profile);

    // 3. Evaluate Theorems 1-4 and the composite metrics.
    let (epsilon, delta) = (0.01, 0.01);
    let report = BoundReport::evaluate(&profiled.profile, epsilon, delta)?;
    println!("\nbounds at eps = {epsilon}, delta = {delta}:");
    println!(
        "  noisy activity (Thm 1)      : {:.4}",
        report.noisy_activity
    );
    println!(
        "  added gates (Thm 2)         : >= {:.2}",
        report.redundancy_gates
    );
    println!(
        "  size factor                 : >= {:.3}x",
        report.size_factor
    );
    println!(
        "  switching energy (Cor 2)    : >= {:.3}x",
        report.switching_energy_factor
    );
    println!(
        "  leakage/switching (Thm 3)   : {:.3}x",
        report.leakage_ratio_factor
    );
    println!(
        "  total energy (leak 50%)     : >= {:.3}x",
        report.total_energy_factor
    );
    match report.depth_bound {
        DepthBound::Bounded(levels) => {
            println!("  logic depth (Thm 4)         : >= {levels:.2} levels");
        }
        DepthBound::NoKnownBound => println!("  logic depth (Thm 4)         : no known bound"),
        DepthBound::Infeasible { max_inputs } => {
            println!("  reliable computation IMPOSSIBLE beyond {max_inputs:.1} inputs");
        }
    }
    if let (Some(d), Some(p), Some(edp)) = (
        report.delay_factor,
        report.average_power_factor,
        report.energy_delay_factor,
    ) {
        println!("  delay                       : >= {d:.3}x");
        println!("  average power               : >= {p:.3}x");
        println!("  energy x delay              : >= {edp:.3}x");
    }

    // 4. The same trade-off across the error-rate axis.
    println!("\nenergy lower bound vs gate error (delta = {delta}):");
    for eps in [0.0001, 0.001, 0.01, 0.05, 0.1, 0.2] {
        let r = BoundReport::evaluate(&profiled.profile, eps, delta)?;
        println!(
            "  eps = {eps:<7}: energy >= {:.3}x, size >= {:.3}x",
            r.total_energy_factor, r.size_factor
        );
    }
    Ok(())
}
