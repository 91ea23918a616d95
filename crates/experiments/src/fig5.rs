//! Figure 5: normalized delay and energy×delay lower bounds vs device
//! error (log-Y), under the paper's baseline: equal switching/leakage
//! shares, `sw₀ = 0.5`, and the Figure-3 parameters (`s = 10`,
//! `S₀ = 21`, δ = 0.01).
//!
//! Curves exist only while `ξ² > 1/k`; each fanin's curve blows up at
//! its feasibility threshold ε* = (1 - k^(-1/2))/2.

use nanobound_core::composite::energy_delay_factor;
use nanobound_core::depth::delay_factor;
use nanobound_core::sweep::linspace;
use nanobound_report::{Cell, Chart, Series, Table};
use nanobound_runner::ThreadPool;

use crate::error::ExperimentError;
use crate::fig3::{DELTA, FANINS, S0, SENSITIVITY};
use crate::figure::FigureOutput;

/// Baseline average switching activity.
pub const SW0: f64 = 0.5;
/// Baseline leakage share ("contributions of switching and leakage
/// energy are assumed equal").
pub const LEAK_SHARE: f64 = 0.5;

/// Regenerates Figure 5: one in-order pass over the ε grid.
///
/// # Errors
///
/// Propagates [`nanobound_core::BoundError`] — never triggered by the
/// fixed parameters used here.
pub fn generate() -> Result<FigureOutput, ExperimentError> {
    let epsilons = linspace(0.0, 0.26, 53);
    let points: Vec<Vec<(Option<f64>, Option<f64>)>> = epsilons
        .iter()
        .map(|&eps| {
            FANINS
                .iter()
                .map(|&k| {
                    let d = delay_factor(k, eps)?;
                    let edp = energy_delay_factor(S0, SENSITIVITY, k, SW0, LEAK_SHARE, eps, DELTA)?;
                    Ok::<_, ExperimentError>((d, edp))
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(
        "Figure 5 — normalized delay and energy*delay lower bounds",
        std::iter::once("epsilon".to_owned())
            .chain(FANINS.iter().map(|k| format!("delay k={k}")))
            .chain(FANINS.iter().map(|k| format!("EDP k={k}"))),
    );
    let mut delay_series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); FANINS.len()];
    let mut edp_series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); FANINS.len()];
    for (&eps, family) in epsilons.iter().zip(&points) {
        let mut row = vec![Cell::from(eps)];
        let mut edp_cells = Vec::with_capacity(FANINS.len());
        for (i, &(d, edp)) in family.iter().enumerate() {
            row.push(Cell::from(d));
            if let Some(d) = d {
                delay_series[i].push((eps, d));
            }
            edp_cells.push(Cell::from(edp));
            if let Some(e) = edp {
                edp_series[i].push((eps, e));
            }
        }
        row.extend(edp_cells);
        table.push_row(row)?;
    }

    let mut delay_chart = Chart::new("Figure 5a — normalized delay", "epsilon", "D/D0").log_y();
    for (points, &k) in delay_series.into_iter().zip(&FANINS) {
        delay_chart.add(Series::new(format!("k={k}"), points));
    }
    let mut edp_chart =
        Chart::new("Figure 5b — normalized energy*delay", "epsilon", "EDP/EDP0").log_y();
    for (points, &k) in edp_series.into_iter().zip(&FANINS) {
        edp_chart.add(Series::new(format!("k={k}"), points));
    }
    Ok(FigureOutput {
        id: "fig5",
        caption: "delay and energy*delay lower bounds diverge at the xi^2 = 1/k threshold",
        tables: vec![table],
        charts: vec![delay_chart, edp_chart],
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
    use nanobound_core::depth::feasibility_threshold;

    #[test]
    fn edp_dominates_delay() {
        // Fig 5: the energy*delay curve sits above the delay curve at
        // every plotted ε (energy factor ≥ 1 in this baseline).
        let fig = generate().unwrap();
        let delay = &fig.charts[0].series()[1]; // k = 3
        let edp = &fig.charts[1].series()[1];
        for (d, e) in delay.points.iter().zip(&edp.points) {
            assert!(
                e.1 >= d.1 - 1e-12,
                "EDP {} below delay {} at eps {}",
                e.1,
                d.1,
                d.0
            );
        }
    }

    #[test]
    fn curves_stop_at_their_thresholds() {
        let fig = generate().unwrap();
        for (i, &k) in FANINS.iter().enumerate() {
            let last = fig.charts[0].series()[i].points.last().unwrap().0;
            assert!(
                last < feasibility_threshold(k) + 1e-9,
                "k={k}: curve extends past threshold"
            );
        }
    }

    #[test]
    fn starts_at_unity() {
        let fig = generate().unwrap();
        for series in fig.charts[0].series() {
            assert!((series.points[0].1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table_marks_infeasible_points_missing() {
        let fig = generate().unwrap();
        // ε = 0.26 > threshold for every k: delay columns all Missing.
        let last_row = fig.tables[0].rows().last().unwrap();
        assert_eq!(last_row[1], Cell::Missing);
        assert_eq!(last_row[2], Cell::Missing);
        assert_eq!(last_row[3], Cell::Missing);
    }
}
