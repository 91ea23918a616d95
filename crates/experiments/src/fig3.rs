//! Figure 3: minimum added redundancy vs device error ε for the
//! 10-input parity function (`s = 10`, `S₀ = 21`, δ = 0.01), with 2-,
//! 3- and 4-input gate libraries.

use nanobound_core::size::redundancy_lower_bound;
use nanobound_core::sweep::linspace;
use nanobound_report::{Cell, Chart, Series, Table};
use nanobound_runner::ThreadPool;

use crate::error::ExperimentError;
use crate::figure::FigureOutput;

/// Sensitivity of the target function (10-input parity).
pub const SENSITIVITY: f64 = 10.0;
/// Error-free size of the parity circuit in the paper's setting.
pub const S0: f64 = 21.0;
/// Required output reliability.
pub const DELTA: f64 = 0.01;
/// Gate fanins of the plotted family.
pub const FANINS: [f64; 3] = [2.0, 3.0, 4.0];

/// Regenerates Figure 3: one in-order pass over the ε grid.
///
/// # Errors
///
/// Propagates [`nanobound_core::BoundError`] — never triggered by the
/// fixed parameters used here.
pub fn generate() -> Result<FigureOutput, ExperimentError> {
    let epsilons = linspace(0.005, 0.495, 50);
    let bounds: Vec<Vec<f64>> = epsilons
        .iter()
        .map(|&eps| {
            FANINS
                .iter()
                .map(|&k| redundancy_lower_bound(SENSITIVITY, k, eps, DELTA))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(
        "Figure 3 — minimum added redundancy (gates), s=10, S0=21, delta=0.01",
        std::iter::once("epsilon".to_owned()).chain(FANINS.iter().map(|k| format!("k={k}"))),
    );
    let mut chart = Chart::new(
        "Figure 3 — redundancy lower bound",
        "epsilon",
        "added gates",
    )
    .log_y();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); FANINS.len()];
    for (&eps, family) in epsilons.iter().zip(&bounds) {
        let mut row = vec![Cell::from(eps)];
        for (i, &r) in family.iter().enumerate() {
            row.push(Cell::from(r));
            series[i].push((eps, r));
        }
        table.push_row(row)?;
    }
    for (points, &k) in series.into_iter().zip(&FANINS) {
        chart.add(Series::new(format!("k={k}"), points));
    }
    Ok(FigureOutput {
        id: "fig3",
        caption: "minimum redundancy needed vs device error",
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
    fn curves_are_ordered_by_fanin() {
        let fig = generate().unwrap();
        let s = fig.charts[0].series();
        for i in 0..s[0].points.len() {
            let k2 = s[0].points[i].1;
            let k3 = s[1].points[i].1;
            let k4 = s[2].points[i].1;
            assert!(k2 >= k3 && k3 >= k4, "ordering broken at point {i}");
        }
    }

    #[test]
    fn order_of_magnitude_near_half() {
        let fig = generate().unwrap();
        let k2 = &fig.charts[0].series()[0];
        let last = k2.points.last().unwrap();
        assert!(last.1 / S0 > 10.0, "k=2 end factor {}", last.1 / S0);
    }

    #[test]
    fn low_error_needs_few_gates() {
        let fig = generate().unwrap();
        let k4 = &fig.charts[0].series()[2];
        assert!(k4.points[0].1 < 5.0);
    }
}
