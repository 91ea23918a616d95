//! The paper's headline quantitative claims, re-evaluated on our suite.
//!
//! - **H1** (abstract): "99% error resilience is possible for
//!   fault-tolerant designs, but at the expense of at least 40% more
//!   energy if individual gates fail independently with probability of
//!   1%" — i.e. at ε = 0.01, δ = 0.01 some benchmarks' total-energy
//!   lower bound reaches 1.4×.
//! - **H2** (Section 6): at ε = 0.1 the energy×delay lower bound grows
//!   by up to ~2.8× while average power *falls* below the error-free
//!   implementation.

use nanobound_core::BoundReport;
use nanobound_report::{Cell, Table};

use crate::error::ExperimentError;
use crate::figure::FigureOutput;
use crate::profiles::ProfiledBenchmark;

/// Evaluation of one headline claim.
#[derive(Clone, Debug, PartialEq)]
pub struct ClaimOutcome {
    /// Claim identifier (`"H1"` / `"H2a"` / `"H2b"`).
    pub id: &'static str,
    /// The quantity the claim is about.
    pub description: &'static str,
    /// The paper's asserted threshold.
    pub paper_value: f64,
    /// The extreme value measured over our suite.
    pub measured: f64,
    /// Whether our reproduction supports the claim.
    pub holds: bool,
}

/// Evaluates both headline claims over already-profiled benchmarks.
///
/// # Errors
///
/// Propagates bound-evaluation failures.
pub fn evaluate_from(profiles: &[ProfiledBenchmark]) -> Result<Vec<ClaimOutcome>, ExperimentError> {
    let mut max_energy_at_1pct = 0.0f64;
    let mut max_edp_at_10pct = 0.0f64;
    let mut max_power_at_10pct = 0.0f64;
    for p in profiles {
        let r1 = BoundReport::evaluate(&p.profile, 0.01, 0.01)?;
        max_energy_at_1pct = max_energy_at_1pct.max(r1.total_energy_factor);
        let r10 = BoundReport::evaluate(&p.profile, 0.1, 0.01)?;
        if let Some(edp) = r10.energy_delay_factor {
            max_edp_at_10pct = max_edp_at_10pct.max(edp);
        }
        if let Some(pw) = r10.average_power_factor {
            max_power_at_10pct = max_power_at_10pct.max(pw);
        }
    }
    Ok(vec![
        ClaimOutcome {
            id: "H1",
            description: "max total-energy factor at eps=1%, delta=1% (paper: >= 1.4x)",
            paper_value: 1.4,
            measured: max_energy_at_1pct,
            holds: max_energy_at_1pct >= 1.4,
        },
        ClaimOutcome {
            id: "H2a",
            description: "max energy*delay factor at eps=10% (paper: up to 2.8x)",
            paper_value: 2.8,
            measured: max_edp_at_10pct,
            holds: max_edp_at_10pct > 1.5,
        },
        ClaimOutcome {
            id: "H2b",
            description: "max average-power factor at eps=10% (paper: < 1, power reduced)",
            paper_value: 1.0,
            measured: max_power_at_10pct,
            holds: max_power_at_10pct < 1.0,
        },
    ])
}

/// Renders claim outcomes from already-profiled benchmarks.
///
/// # Errors
///
/// Propagates bound-evaluation failures.
pub fn generate_from(profiles: &[ProfiledBenchmark]) -> Result<FigureOutput, ExperimentError> {
    let outcomes = evaluate_from(profiles)?;
    let mut table = Table::new(
        "Headline claims — paper vs this reproduction",
        ["claim", "quantity", "paper", "measured", "verdict"],
    );
    for o in &outcomes {
        table.push_row([
            Cell::from(o.id),
            Cell::from(o.description),
            Cell::from(o.paper_value),
            Cell::from(o.measured),
            Cell::from(if o.holds { "holds" } else { "NOT REPRODUCED" }),
        ])?;
    }
    Ok(FigureOutput {
        id: "headline",
        caption: "the paper's abstract and Section-6 quantitative claims",
        tables: vec![table],
        charts: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{profile_suite, ProfileConfig};
    use nanobound_runner::Exec;

    #[test]
    fn claims_hold_on_our_suite() {
        let config = ProfileConfig {
            patterns: 4_000,
            sensitivity_samples: 128,
            ..Default::default()
        };
        let profiles = profile_suite(&Exec::default(), &config).unwrap();
        let outcomes = evaluate_from(&profiles).unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(
                o.holds,
                "{}: measured {} vs paper {}",
                o.id, o.measured, o.paper_value
            );
        }
    }
}
