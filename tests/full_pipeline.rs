//! End-to-end integration: generate → optimize → map → simulate →
//! profile → bounds, spanning every substrate crate through the facade.

use nanobound::core::{BoundReport, DepthBound};
use nanobound::experiments::profiles::{profile_netlist, ProfileConfig};
use nanobound::gen::{adder, iscas, standard_suite};
use nanobound::logic::{transform, CircuitStats};
use nanobound::runner::Exec;
use nanobound::sim::equivalence;

fn quick_config() -> ProfileConfig {
    ProfileConfig {
        patterns: 2_000,
        sensitivity_samples: 128,
        ..Default::default()
    }
}

#[test]
fn pipeline_preserves_function_and_respects_fanin() {
    for b in standard_suite().unwrap() {
        let mapped = transform::prepare(&b.netlist, 3).unwrap();
        let stats = CircuitStats::of(&mapped);
        assert!(
            stats.max_fanin <= 3,
            "{}: fanin {}",
            b.name,
            stats.max_fanin
        );
        // Function preserved: exhaustive where cheap, random elsewhere.
        let equivalent = if b.netlist.input_count() <= 14 {
            equivalence::equivalent_exhaustive(&b.netlist, &mapped).unwrap()
        } else {
            equivalence::equivalent_random(&b.netlist, &mapped, 4096, 1).unwrap()
        };
        assert!(equivalent, "{}: mapping changed the function", b.name);
    }
}

#[test]
fn every_suite_profile_supports_every_bound() {
    let config = quick_config();
    for b in standard_suite().unwrap() {
        let p = profile_netlist(&Exec::default(), &b.netlist, b.sensitivity_hint, &config).unwrap();
        p.profile.validate().unwrap();
        for eps in [0.0, 0.001, 0.01, 0.1] {
            let r = BoundReport::evaluate(&p.profile, eps, 0.01).unwrap();
            assert!(r.size_factor >= 1.0, "{} at {eps}", b.name);
            assert!(r.total_energy_factor > 0.0, "{} at {eps}", b.name);
            assert!(
                r.noisy_activity >= 0.0 && r.noisy_activity <= 1.0,
                "{} at {eps}",
                b.name
            );
            // Fanin-3 library keeps ε = 0.1 inside the feasible region.
            if eps <= 0.1 {
                assert!(
                    matches!(r.depth_bound, DepthBound::Bounded(_)),
                    "{} at {eps}: {:?}",
                    b.name,
                    r.depth_bound
                );
            }
        }
    }
}

#[test]
fn measured_sensitivity_matches_analytic_hint() {
    // The pipeline's measured sensitivity agrees with the generator's
    // analytic value where both are available (exact range).
    let rca = adder::ripple_carry(8).unwrap(); // 17 inputs: exact
    let measured = profile_netlist(&Exec::default(), &rca, None, &quick_config()).unwrap();
    assert_eq!(
        measured.profile.sensitivity,
        f64::from(adder::adder_sensitivity(8))
    );
}

#[test]
fn bounds_scale_with_problem_difficulty() {
    // Wider adders (higher sensitivity) pay a higher energy factor at
    // the same operating point — the s·log s term at work.
    let config = quick_config();
    let mut last = 0.0;
    for width in [8usize, 16, 32] {
        let rca = adder::ripple_carry(width).unwrap();
        let p = profile_netlist(
            &Exec::default(),
            &rca,
            Some(adder::adder_sensitivity(width)),
            &config,
        )
        .unwrap();
        let r = BoundReport::evaluate(&p.profile, 0.01, 0.01).unwrap();
        assert!(
            r.total_energy_factor > last,
            "width {width}: {} not above {last}",
            r.total_energy_factor
        );
        last = r.total_energy_factor;
    }
}

#[test]
fn xor_heavy_and_control_circuits_land_in_expected_regimes() {
    let config = quick_config();
    let xor = profile_netlist(
        &Exec::default(),
        &iscas::c499_analog().unwrap(),
        None,
        &config,
    )
    .unwrap();
    let control = profile_netlist(
        &Exec::default(),
        &iscas::c432_analog().unwrap(),
        None,
        &config,
    )
    .unwrap();
    // XOR-dominated logic switches more than priority/control logic.
    assert!(
        xor.profile.activity > control.profile.activity,
        "xor {} vs control {}",
        xor.profile.activity,
        control.profile.activity
    );
    // Under noise, the low-activity circuit's leakage share shrinks.
    let r = BoundReport::evaluate(&control.profile, 0.1, 0.01).unwrap();
    assert!(r.leakage_ratio_factor < 1.0);
}
