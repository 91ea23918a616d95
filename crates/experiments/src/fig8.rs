//! Figure 8: average-power and energy×delay lower bounds per benchmark,
//! normalized to the error-free implementation, for
//! ε ∈ {0.001, 0.01, 0.1} and δ = 0.01.
//!
//! The paper's second benchmark figure: energy×delay grows with ε (up
//! to ~2.8× at ε = 0.1 in the paper's suite) while average power *drops*
//! at ε = 0.1 because the latency blow-up outpaces the energy increase.

use nanobound_core::BoundReport;
use nanobound_report::{Cell, Table};

use crate::error::ExperimentError;
use crate::fig7::{DELTA, EPSILONS};
use crate::figure::FigureOutput;
use crate::profiles::ProfiledBenchmark;

/// Regenerates Figure 8 from already-profiled benchmarks.
///
/// # Errors
///
/// Propagates bound-evaluation failures (out-of-range profiles).
pub fn generate_from(profiles: &[ProfiledBenchmark]) -> Result<FigureOutput, ExperimentError> {
    let mut header = vec!["benchmark".to_owned()];
    header.extend(EPSILONS.iter().map(|e| format!("power eps={e}")));
    header.extend(EPSILONS.iter().map(|e| format!("EDP eps={e}")));
    let mut table = Table::new(
        "Figure 8 — normalized average power and energy*delay lower bounds",
        header,
    );
    for p in profiles {
        let mut row = vec![Cell::from(p.name.clone())];
        let reports: Vec<BoundReport> = EPSILONS
            .iter()
            .map(|&e| BoundReport::evaluate(&p.profile, e, DELTA))
            .collect::<Result<_, _>>()?;
        row.extend(reports.iter().map(|r| Cell::from(r.average_power_factor)));
        row.extend(reports.iter().map(|r| Cell::from(r.energy_delay_factor)));
        table.push_row(row)?;
    }
    Ok(FigureOutput {
        id: "fig8",
        caption: "average power and energy*delay lower bounds per benchmark",
        tables: vec![table],
        charts: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{profile_suite, ProfileConfig};
    use nanobound_runner::Exec;

    fn quick_profiles() -> Vec<ProfiledBenchmark> {
        let config = ProfileConfig {
            patterns: 2_000,
            sensitivity_samples: 128,
            ..Default::default()
        };
        profile_suite(&Exec::default(), &config).unwrap()
    }

    fn num(cell: &Cell) -> f64 {
        match cell {
            Cell::Number(x) => *x,
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn edp_grows_with_epsilon() {
        let fig = generate_from(&quick_profiles()).unwrap();
        for row in fig.tables[0].rows() {
            let edp: Vec<f64> = (4..7).map(|i| num(&row[i])).collect();
            assert!(edp[0] <= edp[1] && edp[1] <= edp[2], "{row:?}");
        }
    }

    #[test]
    fn power_is_reduced_at_high_epsilon() {
        // The paper: "average power is reduced due to the significant
        // increase in logic depth" at ε = 0.1.
        let fig = generate_from(&quick_profiles()).unwrap();
        for row in fig.tables[0].rows() {
            let power_at_0_1 = num(&row[3]);
            assert!(power_at_0_1 < 1.0, "{row:?}");
        }
    }

    #[test]
    fn edp_lands_in_the_papers_range_at_high_epsilon() {
        // The paper reports up to a 2.8× energy*delay increase over its
        // suite at ε = 0.1; ours should land in the same decade.
        let fig = generate_from(&quick_profiles()).unwrap();
        let max_edp = fig.tables[0]
            .rows()
            .iter()
            .map(|r| num(&r[6]))
            .fold(0.0f64, f64::max);
        assert!(max_edp > 1.5 && max_edp < 10.0, "max EDP {max_edp}");
    }
}
