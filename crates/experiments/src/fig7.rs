//! Figure 7: energy and delay lower bounds per benchmark, normalized to
//! the error-free implementation, for ε ∈ {0.001, 0.01, 0.1} and
//! δ = 0.01, with equal switching/leakage shares.
//!
//! This is the paper's first benchmark figure: every bar is one
//! benchmark at one ε. The bars depend on the measured circuit
//! parameters (`S₀`, `s`, `sw₀`, fanin) produced by the
//! [`crate::profiles`] pipeline.

use nanobound_core::BoundReport;
use nanobound_report::{Cell, Table};

use crate::error::ExperimentError;
use crate::figure::FigureOutput;
use crate::profiles::ProfiledBenchmark;

/// The paper's gate error probabilities.
pub const EPSILONS: [f64; 3] = [0.001, 0.01, 0.1];
/// The paper's required output reliability.
pub const DELTA: f64 = 0.01;

/// Regenerates Figure 7 from already-profiled benchmarks.
///
/// # Errors
///
/// Propagates bound-evaluation failures (out-of-range profiles).
pub fn generate_from(profiles: &[ProfiledBenchmark]) -> Result<FigureOutput, ExperimentError> {
    let mut header = vec![
        "benchmark".to_owned(),
        "S0".to_owned(),
        "sw0".to_owned(),
        "s".to_owned(),
    ];
    header.extend(EPSILONS.iter().map(|e| format!("energy eps={e}")));
    header.extend(EPSILONS.iter().map(|e| format!("delay eps={e}")));
    let mut table = Table::new(
        "Figure 7 — normalized energy and delay lower bounds",
        header,
    );
    for p in profiles {
        let mut row = vec![
            Cell::from(p.name.clone()),
            Cell::from(p.profile.size),
            Cell::from(p.profile.activity),
            Cell::from(p.profile.sensitivity),
        ];
        let reports: Vec<BoundReport> = EPSILONS
            .iter()
            .map(|&e| BoundReport::evaluate(&p.profile, e, DELTA))
            .collect::<Result<_, _>>()?;
        row.extend(reports.iter().map(|r| Cell::from(r.total_energy_factor)));
        row.extend(reports.iter().map(|r| Cell::from(r.delay_factor)));
        table.push_row(row)?;
    }
    Ok(FigureOutput {
        id: "fig7",
        caption: "energy and delay lower bounds per benchmark (normalized to error-free)",
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

    #[test]
    fn one_row_per_benchmark_energy_grows_with_epsilon() {
        let profiles = quick_profiles();
        let fig = generate_from(&profiles).unwrap();
        let table = &fig.tables[0];
        assert_eq!(table.rows().len(), profiles.len());
        for row in table.rows() {
            let energy: Vec<f64> = (4..7)
                .map(|i| match &row[i] {
                    Cell::Number(x) => *x,
                    other => panic!("expected number, got {other:?}"),
                })
                .collect();
            // Energy lower bound grows with ε for every benchmark
            // (all our benchmarks have sw0 < 0.5).
            assert!(energy[0] <= energy[1] && energy[1] <= energy[2], "{row:?}");
        }
    }

    #[test]
    fn delay_bounds_exist_in_plotted_range() {
        // All profiles map to fanin 3; threshold ε* ≈ 0.211 > 0.1.
        let fig = generate_from(&quick_profiles()).unwrap();
        for row in fig.tables[0].rows() {
            for i in 7..10 {
                assert!(
                    matches!(row[i], Cell::Number(_)),
                    "missing delay in {row:?}"
                );
            }
        }
    }

    #[test]
    fn forty_percent_benchmarks_exist_at_one_percent() {
        // The headline claim's substrate: at ε = 0.01 some benchmark
        // needs ≥ 1.4× energy.
        let fig = generate_from(&quick_profiles()).unwrap();
        let max_energy = fig.tables[0]
            .rows()
            .iter()
            .map(|row| match &row[5] {
                Cell::Number(x) => *x,
                other => panic!("expected number, got {other:?}"),
            })
            .fold(0.0f64, f64::max);
        assert!(max_energy >= 1.4, "max energy factor {max_energy}");
    }
}
