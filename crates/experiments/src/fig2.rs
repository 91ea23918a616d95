//! Figure 2: switching activity of error-prone devices as a function of
//! the error-free activity, for a family of error probabilities.
//!
//! Pure Theorem 1: straight lines `sw(z) = (1-2ε)²·sw(y) + 2ε(1-ε)`
//! pivoting around the fixed point `(½, ½)`, flattening to the constant
//! ½ at ε = ½.

use nanobound_core::sweep::{grid_map, linspace};
use nanobound_core::switching::noisy_activity;
use nanobound_report::{Cell, Chart, Series, Table};
use nanobound_runner::ThreadPool;

use crate::error::ExperimentError;
use crate::figure::FigureOutput;

/// The ε values of the plotted family.
pub const EPSILONS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Regenerates Figure 2: one in-order pass over the sw(y) grid.
///
/// # Errors
///
/// Infallible in practice (all parameters are fixed and valid); the
/// `Result` keeps the signature uniform across figures.
pub fn generate() -> Result<FigureOutput, ExperimentError> {
    let sw_values = linspace(0.0, 1.0, 21);
    let families: Vec<Vec<f64>> = grid_map(&sw_values, |&sw| {
        EPSILONS.iter().map(|&e| noisy_activity(sw, e)).collect()
    });
    let mut table = Table::new(
        "Figure 2 — sw(z) as a function of sw(y)",
        std::iter::once("sw(y)".to_owned()).chain(EPSILONS.iter().map(|e| format!("eps={e}"))),
    );
    for (&sw, family) in sw_values.iter().zip(&families) {
        let mut row = vec![Cell::from(sw)];
        row.extend(family.iter().map(|&z| Cell::from(z)));
        table.push_row(row)?;
    }

    let mut chart = Chart::new("Figure 2 — noisy switching activity", "sw(y)", "sw(z)");
    for (i, &e) in EPSILONS.iter().enumerate() {
        chart.add(Series::new(
            format!("eps={e}"),
            sw_values
                .iter()
                .zip(&families)
                .map(|(&sw, family)| (sw, family[i]))
                .collect(),
        ));
    }
    Ok(FigureOutput {
        id: "fig2",
        caption: "switching activity of error-prone devices vs error-free activity",
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
    fn has_one_series_per_epsilon() {
        let fig = generate().unwrap();
        assert_eq!(fig.charts[0].series().len(), EPSILONS.len());
        assert_eq!(fig.tables[0].columns().len(), EPSILONS.len() + 1);
        assert_eq!(fig.tables[0].rows().len(), 21);
    }

    #[test]
    fn pivot_row_is_constant_half() {
        let fig = generate().unwrap();
        // Row with sw(y) = 0.5: every ε column equals 0.5.
        let row = &fig.tables[0].rows()[10];
        for cell in row {
            match cell {
                Cell::Number(x) => assert!((x - 0.5).abs() < 1e-12),
                other => panic!("unexpected cell {other:?}"),
            }
        }
    }

    #[test]
    fn epsilon_half_line_is_flat() {
        let fig = generate().unwrap();
        let flat = &fig.charts[0].series()[5];
        for &(_, y) in &flat.points {
            assert!((y - 0.5).abs() < 1e-12);
        }
    }
}
