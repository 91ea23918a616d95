//! Figure 6: normalized average power vs device error per gate fanin.
//!
//! At low ε the fault-tolerant implementation draws *more* power (size,
//! and thus energy, outruns delay); near the feasibility threshold the
//! delay blow-up dominates and average power falls *below* the
//! error-free circuit.

use nanobound_core::composite::average_power_factor;
use nanobound_core::sweep::linspace;
use nanobound_report::{Cell, Chart, Series, Table};
use nanobound_runner::ThreadPool;

use crate::error::ExperimentError;
use crate::fig3::{DELTA, FANINS, S0, SENSITIVITY};
use crate::fig5::{LEAK_SHARE, SW0};
use crate::figure::FigureOutput;

/// Regenerates Figure 6: one in-order pass over the ε grid.
///
/// # Errors
///
/// Propagates [`nanobound_core::BoundError`] — never triggered by the
/// fixed parameters used here.
pub fn generate() -> Result<FigureOutput, ExperimentError> {
    let epsilons = linspace(0.0, 0.26, 105);
    let powers: Vec<Vec<Option<f64>>> = epsilons
        .iter()
        .map(|&eps| {
            FANINS
                .iter()
                .map(|&k| average_power_factor(S0, SENSITIVITY, k, SW0, LEAK_SHARE, eps, DELTA))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(
        "Figure 6 — normalized average power lower bound",
        std::iter::once("epsilon".to_owned()).chain(FANINS.iter().map(|k| format!("k={k}"))),
    );
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); FANINS.len()];
    for (&eps, family) in epsilons.iter().zip(&powers) {
        let mut row = vec![Cell::from(eps)];
        for (i, &p) in family.iter().enumerate() {
            row.push(Cell::from(p));
            if let Some(p) = p {
                series[i].push((eps, p));
            }
        }
        table.push_row(row)?;
    }
    let mut chart = Chart::new("Figure 6 — normalized average power", "epsilon", "P/P0");
    for (points, &k) in series.into_iter().zip(&FANINS) {
        chart.add(Series::new(format!("k={k}"), points));
    }
    Ok(FigureOutput {
        id: "fig6",
        caption: "average power: overhead at low error rates, reduction near threshold",
        tables: vec![table],
        charts: vec![chart],
    })
}

/// [`generate`], ignoring `_pool`; `perfbench/probe` links it.
#[doc(hidden)]
pub fn generate_with(_pool: &ThreadPool) -> Result<FigureOutput, ExperimentError> {
    generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_exceeds_one_at_low_error() {
        let fig = generate().unwrap();
        for series in fig.charts[0].series() {
            let early = &series.points[1]; // first non-zero ε
            assert!(
                early.1 > 1.0,
                "{}: {} at eps {}",
                series.name,
                early.1,
                early.0
            );
        }
    }

    #[test]
    fn power_falls_below_one_near_threshold() {
        let fig = generate().unwrap();
        for series in fig.charts[0].series() {
            let last = series.points.last().unwrap();
            assert!(
                last.1 < 1.0,
                "{}: {} at eps {}",
                series.name,
                last.1,
                last.0
            );
        }
    }

    #[test]
    fn larger_fanin_has_smaller_low_error_overhead() {
        // The paper: "a larger fanin reduces the overhead in average
        // power" at low error rates.
        let fig = generate().unwrap();
        let s = fig.charts[0].series();
        let at = |i: usize, j: usize| s[i].points[j].1;
        // Compare at the same small ε (index 4 ≈ 0.01).
        assert!(at(0, 4) > at(1, 4) && at(1, 4) > at(2, 4));
    }

    #[test]
    fn each_curve_crosses_unity_once() {
        let fig = generate().unwrap();
        for series in fig.charts[0].series() {
            // Skip the exact-unity ε = 0 starting point.
            let crossings = series.points[1..]
                .windows(2)
                .filter(|w| (w[0].1 > 1.0) != (w[1].1 > 1.0))
                .count();
            assert_eq!(crossings, 1, "{}: {} crossings", series.name, crossings);
        }
    }
}
