//! Design-space exploration for a fault-tolerant ALU.
//!
//! The scenario the paper's introduction motivates: a designer must pick
//! a gate library (fanin), an error-tolerance target and a supply
//! voltage for a datapath block built from unreliable nanoscale devices.
//! This example walks an 8-bit ALU (the `c880` class) through:
//!
//! 1. the feasibility map — which (ε, k) combinations admit reliable
//!    computation at all (Theorem 4's `ξ² > 1/k` threshold);
//! 2. the cost surface — energy/delay/power bound factors across ε;
//! 3. Vdd scaling — what iso-energy and iso-delay operation of the
//!    fault-tolerant variant cost on a 90 nm technology model.
//!
//! Run: `cargo run --example design_space`

use nanobound::core::depth::feasibility_threshold;
use nanobound::core::BoundReport;
use nanobound::energy::{
    at_nominal, iso_delay_vdd, iso_energy_vdd, BaselineCircuit, FaultTolerantVariant, Technology,
};
use nanobound::experiments::profiles::{profile_netlist, ProfileConfig};
use nanobound::gen::alu;
use nanobound::report::{Cell, Table};
use nanobound::runner::Exec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alu = alu::alu(8)?;
    let profiled = profile_netlist(&Exec::default(), &alu, None, &ProfileConfig::default())?;
    let profile = &profiled.profile;
    println!("{}\n", profile);

    // 1. Feasibility: the largest tolerable gate error per library fanin.
    println!("feasibility thresholds (Theorem 4): reliable computation of");
    println!("arbitrarily wide functions requires eps < (1 - k^-1/2)/2:");
    for k in [2.0, 3.0, 4.0, 8.0] {
        println!("  k = {k}: eps* = {:.4}", feasibility_threshold(k));
    }

    // 2. Cost surface across the error axis at delta = 1%.
    let mut table = Table::new(
        format!("{} — bound factors vs eps (delta = 0.01)", profile.name),
        ["eps", "size", "energy", "delay", "power", "EDP"],
    );
    for eps in [0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.15, 0.2] {
        let r = BoundReport::evaluate(profile, eps, 0.01)?;
        table.push_row([
            Cell::from(eps),
            Cell::from(r.size_factor),
            Cell::from(r.total_energy_factor),
            Cell::from(r.delay_factor),
            Cell::from(r.average_power_factor),
            Cell::from(r.energy_delay_factor),
        ])?;
    }
    println!("\n{table}");

    // 3. Voltage scaling of the eps = 1% fault-tolerant variant.
    let report = BoundReport::evaluate(profile, 0.01, 0.01)?;
    let variant = FaultTolerantVariant::from_bounds(profile, &report)
        .expect("eps = 1% is inside the feasible region");
    let tech = Technology::bulk_90nm().with_leak_share(
        profile.leak_share,
        profile.size,
        profile.depth,
        profile.activity,
    )?;
    let base = BaselineCircuit {
        size: profile.size,
        depth: profile.depth,
    };
    println!("technology: {tech}\n");

    let nominal = at_nominal(&tech, base, profile.activity, &variant)?;
    println!("fault-tolerant variant at nominal Vdd : {nominal}");
    match iso_energy_vdd(&tech, base, profile.activity, &variant) {
        Ok(iso) => println!("iso-energy (hide the energy overhead)  : {iso}"),
        Err(e) => println!("iso-energy impossible: {e}"),
    }
    let iso_d = iso_delay_vdd(&tech, base, profile.activity, &variant)?;
    println!("iso-delay (hide the latency overhead) : {iso_d}");
    Ok(())
}
