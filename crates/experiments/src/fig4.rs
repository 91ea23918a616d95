//! Figure 4: normalized leakage/switching energy ratio vs device error,
//! for a family of error-free switching activities (log-Y in the paper).

use nanobound_core::leakage::leakage_ratio_factor;
use nanobound_core::sweep::linspace;
use nanobound_report::{Cell, Chart, Series, Table};
use nanobound_runner::ThreadPool;

use crate::error::ExperimentError;
use crate::figure::FigureOutput;

/// The error-free switching activities of the plotted family.
pub const ACTIVITIES: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// Regenerates Figure 4: one in-order pass over the ε grid.
///
/// # Errors
///
/// Propagates [`nanobound_core::BoundError`] — never triggered by the
/// fixed parameters used here.
pub fn generate() -> Result<FigureOutput, ExperimentError> {
    let epsilons = linspace(0.0, 0.5, 51);
    let ratios: Vec<Vec<f64>> = epsilons
        .iter()
        .map(|&eps| {
            ACTIVITIES
                .iter()
                .map(|&sw0| leakage_ratio_factor(sw0, eps))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(
        "Figure 4 — normalized leakage/switching ratio W(eps)/W0",
        std::iter::once("epsilon".to_owned())
            .chain(ACTIVITIES.iter().map(|sw| format!("sw0={sw}"))),
    );
    let mut chart =
        Chart::new("Figure 4 — leakage/switching ratio", "epsilon", "W(eps)/W0").log_y();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); ACTIVITIES.len()];
    for (&eps, family) in epsilons.iter().zip(&ratios) {
        let mut row = vec![Cell::from(eps)];
        for (i, &w) in family.iter().enumerate() {
            row.push(Cell::from(w));
            series[i].push((eps, w));
        }
        table.push_row(row)?;
    }
    for (points, &sw0) in series.into_iter().zip(&ACTIVITIES) {
        chart.add(Series::new(format!("sw0={sw0}"), points));
    }
    Ok(FigureOutput {
        id: "fig4",
        caption: "leakage share falls with noise below the sw0=0.5 pivot, rises above",
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
    fn pivot_series_is_flat_at_one() {
        let fig = generate().unwrap();
        let pivot = &fig.charts[0].series()[2]; // sw0 = 0.5
        for &(_, y) in &pivot.points {
            assert!((y - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn below_pivot_decreases_above_increases() {
        let fig = generate().unwrap();
        let low = &fig.charts[0].series()[0]; // sw0 = 0.1
        let high = &fig.charts[0].series()[4]; // sw0 = 0.9
        assert!(low.points.last().unwrap().1 < 0.5);
        assert!(high.points.last().unwrap().1 > 2.0);
    }

    #[test]
    fn symmetric_activities_are_reciprocal() {
        let fig = generate().unwrap();
        let s = fig.charts[0].series();
        for i in 0..s[0].points.len() {
            let prod_outer = s[0].points[i].1 * s[4].points[i].1; // 0.1 vs 0.9
            let prod_inner = s[1].points[i].1 * s[3].points[i].1; // 0.25 vs 0.75
            assert!((prod_outer - 1.0).abs() < 1e-9);
            assert!((prod_inner - 1.0).abs() < 1e-9);
        }
    }
}
