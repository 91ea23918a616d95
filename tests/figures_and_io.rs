//! Integration tests for figure regeneration (determinism, golden
//! shapes) and the netlist interchange formats.

use nanobound::experiments::{fig2, fig3, fig4, fig5, fig6};
use nanobound::gen::{adder, iscas};
use nanobound::io::{bench, blif, Design};
use nanobound::sim::equivalence;

#[test]
fn closed_form_figures_are_deterministic() {
    // Closed-form figures carry no randomness at all: regenerating must
    // reproduce the exact CSV bytes.
    let once = fig3::generate().unwrap().tables[0].to_csv();
    let twice = fig3::generate().unwrap().tables[0].to_csv();
    assert_eq!(once, twice);
}

#[test]
fn figure_tables_have_expected_shapes() {
    let f2 = fig2::generate().unwrap();
    assert_eq!(f2.tables[0].columns().len(), 7); // sw + 6 epsilons
    let f3 = fig3::generate().unwrap();
    assert_eq!(f3.tables[0].columns().len(), 4); // eps + 3 fanins
    let f4 = fig4::generate().unwrap();
    assert_eq!(f4.tables[0].columns().len(), 6); // eps + 5 activities
    let f5 = fig5::generate().unwrap();
    assert_eq!(f5.tables[0].columns().len(), 7); // eps + 3 delay + 3 edp
    assert_eq!(f5.charts.len(), 2);
    let f6 = fig6::generate().unwrap();
    assert_eq!(f6.tables[0].columns().len(), 4);
}

#[test]
fn figures_render_without_panics() {
    for fig in [
        fig2::generate().unwrap(),
        fig3::generate().unwrap(),
        fig4::generate().unwrap(),
        fig5::generate().unwrap(),
        fig6::generate().unwrap(),
    ] {
        let rendered = fig.render();
        assert!(rendered.contains(fig.id));
        assert!(rendered.len() > 100, "{} render too small", fig.id);
    }
}

#[test]
fn bench_format_roundtrips_generated_circuits() {
    for netlist in [iscas::c17(), adder::ripple_carry(4).unwrap()] {
        let text = bench::write(&Design::combinational(netlist.clone()));
        let parsed = bench::parse(&text).unwrap();
        assert!(!parsed.is_sequential());
        assert!(
            equivalence::equivalent_exhaustive(&netlist, &parsed.netlist).unwrap(),
            "{}: bench round-trip changed the function",
            netlist.name()
        );
    }
}

#[test]
fn blif_format_roundtrips_generated_circuits() {
    for netlist in [iscas::c17(), adder::carry_lookahead(3).unwrap()] {
        let text = blif::write(&Design::combinational(netlist.clone())).unwrap();
        let parsed = blif::parse(&text).unwrap();
        assert!(
            equivalence::equivalent_exhaustive(&netlist, &parsed.netlist).unwrap(),
            "{}: BLIF round-trip changed the function",
            netlist.name()
        );
    }
}

#[test]
fn cross_format_conversion_preserves_function() {
    // bench → netlist → BLIF → netlist: still the same circuit.
    let original = adder::ripple_carry(3).unwrap();
    let bench_text = bench::write(&Design::combinational(original.clone()));
    let from_bench = bench::parse(&bench_text).unwrap().netlist;
    let blif_text = blif::write(&Design::combinational(from_bench)).unwrap();
    let from_blif = blif::parse(&blif_text).unwrap().netlist;
    assert!(equivalence::equivalent_exhaustive(&original, &from_blif).unwrap());
}
