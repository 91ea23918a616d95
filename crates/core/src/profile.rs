//! Circuit profiles and one-call bound reports.
//!
//! A [`CircuitProfile`] is the complete set of circuit-specific
//! parameters the paper's bounds consume; [`BoundReport::evaluate`]
//! computes every bound of Sections 4-5 for one `(ε, δ)` point. The
//! experiments crate measures profiles from real netlists
//! (size/depth/fanin from structure, activity from simulation,
//! sensitivity exactly or by sampling) and feeds them here.

use std::fmt;

use crate::composite::{average_power_factor, energy_delay_factor, total_energy_factor};
use crate::depth::{delay_factor, depth_lower_bound, DepthBound};
use crate::energy::switching_energy_factor;
use crate::error::BoundError;
use crate::leakage::leakage_ratio_factor;
use crate::size::{redundancy_lower_bound, size_factor};
use crate::switching::noisy_activity;

/// The circuit-specific parameters consumed by the bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitProfile {
    /// Design name, for reports.
    pub name: String,
    /// Primary input count `n`.
    pub inputs: usize,
    /// Primary output count `m`.
    pub outputs: usize,
    /// Error-free gate count `S₀`.
    pub size: usize,
    /// Error-free logic depth `d₀` in gate levels.
    pub depth: u32,
    /// Boolean sensitivity `s` (exact or a sampled lower bound).
    pub sensitivity: f64,
    /// Average per-gate switching activity `sw₀` of the error-free
    /// circuit under random vectors.
    pub activity: f64,
    /// Gate fanin `k` of the mapped library (the paper maps to fanin 3).
    pub fanin: f64,
    /// Leakage share λ of the error-free energy budget (the paper
    /// assumes ½ for sub-90nm technology).
    pub leak_share: f64,
}

impl CircuitProfile {
    /// Validates every field against the ranges the theorems require.
    ///
    /// # Errors
    ///
    /// Returns the first [`BoundError::BadParameter`] violated.
    pub fn validate(&self) -> Result<(), BoundError> {
        if self.inputs == 0 {
            return Err(BoundError::bad("inputs", 0.0, "must be at least 1"));
        }
        if self.size == 0 {
            return Err(BoundError::bad("size", 0.0, "must be at least 1"));
        }
        if self.sensitivity.is_nan() || self.sensitivity < 0.0 {
            return Err(BoundError::bad(
                "sensitivity",
                self.sensitivity,
                "must be non-negative",
            ));
        }
        if self.sensitivity > self.inputs as f64 {
            return Err(BoundError::bad(
                "sensitivity",
                self.sensitivity,
                "cannot exceed the input count",
            ));
        }
        if !(self.activity > 0.0 && self.activity < 1.0) {
            return Err(BoundError::bad(
                "activity",
                self.activity,
                "must lie in (0, 1)",
            ));
        }
        if self.fanin.is_nan() || self.fanin < 2.0 {
            return Err(BoundError::bad("fanin", self.fanin, "must be at least 2"));
        }
        if self.fanin.is_infinite() {
            return Err(BoundError::bad("fanin", self.fanin, "must be finite"));
        }
        if !(0.0..1.0).contains(&self.leak_share) {
            return Err(BoundError::bad(
                "leak_share",
                self.leak_share,
                "must lie in [0, 1)",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for CircuitProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} m={} S0={} d0={} s={:.0} sw0={:.3} k={:.1} leak={:.2}",
            self.name,
            self.inputs,
            self.outputs,
            self.size,
            self.depth,
            self.sensitivity,
            self.activity,
            self.fanin,
            self.leak_share
        )
    }
}

/// Every bound of the paper, evaluated for one circuit at one `(ε, δ)`.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundReport {
    /// The gate error probability the report was evaluated at.
    pub epsilon: f64,
    /// The output unreliability the report was evaluated at.
    pub delta: f64,
    /// Theorem 1: average per-gate activity of the noisy circuit.
    pub noisy_activity: f64,
    /// Theorem 2 / Corollary 1: minimum additional gates.
    pub redundancy_gates: f64,
    /// `(S₀ + R)/S₀`.
    pub size_factor: f64,
    /// Corollary 2: switching-energy increase factor.
    pub switching_energy_factor: f64,
    /// Theorem 3: normalized leakage/switching ratio.
    pub leakage_ratio_factor: f64,
    /// Total-energy factor at the profile's leakage share.
    pub total_energy_factor: f64,
    /// Theorem 4 applied to the profile's input count.
    pub depth_bound: DepthBound,
    /// Normalized delay `log₂ k / log₂(k·ξ²)`, when it exists.
    pub delay_factor: Option<f64>,
    /// Normalized average power, when the delay bound exists.
    pub average_power_factor: Option<f64>,
    /// Normalized energy×delay, when the delay bound exists.
    pub energy_delay_factor: Option<f64>,
}

impl BoundReport {
    /// Evaluates all bounds for `profile` at `(ε, δ)`.
    ///
    /// # Errors
    ///
    /// Returns [`BoundError::BadParameter`] if the profile fails
    /// [`CircuitProfile::validate`] or `(ε, δ)` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanobound_core::{BoundReport, CircuitProfile};
    ///
    /// # fn main() -> Result<(), nanobound_core::BoundError> {
    /// let parity10 = CircuitProfile {
    ///     name: "parity10".into(),
    ///     inputs: 10,
    ///     outputs: 1,
    ///     size: 21,
    ///     depth: 6,
    ///     sensitivity: 10.0,
    ///     activity: 0.5,
    ///     fanin: 3.0,
    ///     leak_share: 0.5,
    /// };
    /// let report = BoundReport::evaluate(&parity10, 0.01, 0.01)?;
    /// assert!(report.size_factor > 1.0);
    /// assert!(report.total_energy_factor >= 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn evaluate(
        profile: &CircuitProfile,
        epsilon: f64,
        delta: f64,
    ) -> Result<BoundReport, BoundError> {
        profile.validate()?;
        let s0 = profile.size as f64;
        let s = profile.sensitivity;
        let k = profile.fanin;
        let sw0 = profile.activity;
        let lambda = profile.leak_share;
        Ok(BoundReport {
            epsilon,
            delta,
            noisy_activity: noisy_activity(sw0, epsilon),
            redundancy_gates: redundancy_lower_bound(s, k, epsilon, delta)?,
            size_factor: size_factor(s0, s, k, epsilon, delta)?,
            switching_energy_factor: switching_energy_factor(s0, s, k, sw0, epsilon, delta)?,
            leakage_ratio_factor: leakage_ratio_factor(sw0, epsilon)?,
            total_energy_factor: total_energy_factor(s0, s, k, sw0, lambda, epsilon, delta)?,
            depth_bound: depth_lower_bound(profile.inputs as f64, k, epsilon, delta)?,
            delay_factor: delay_factor(k, epsilon)?,
            average_power_factor: average_power_factor(s0, s, k, sw0, lambda, epsilon, delta)?,
            energy_delay_factor: energy_delay_factor(s0, s, k, sw0, lambda, epsilon, delta)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parity10() -> CircuitProfile {
        CircuitProfile {
            name: "parity10".into(),
            inputs: 10,
            outputs: 1,
            size: 21,
            depth: 6,
            sensitivity: 10.0,
            activity: 0.5,
            fanin: 3.0,
            leak_share: 0.5,
        }
    }

    #[test]
    fn error_free_report_is_all_unity() {
        let r = BoundReport::evaluate(&parity10(), 0.0, 0.01).unwrap();
        assert!((r.size_factor - 1.0).abs() < 1e-12);
        assert!((r.switching_energy_factor - 1.0).abs() < 1e-12);
        assert!((r.total_energy_factor - 1.0).abs() < 1e-12);
        assert!((r.leakage_ratio_factor - 1.0).abs() < 1e-12);
        assert_eq!(r.delay_factor, Some(1.0));
        assert_eq!(r.average_power_factor, Some(1.0));
        assert_eq!(r.energy_delay_factor, Some(1.0));
        assert_eq!(r.redundancy_gates, 0.0);
    }

    #[test]
    fn cross_quantity_consistency() {
        let r = BoundReport::evaluate(&parity10(), 0.05, 0.01).unwrap();
        // size factor = 1 + R/S0
        assert!((r.size_factor - (1.0 + r.redundancy_gates / 21.0)).abs() < 1e-12);
        // EDP = E·D, P = E/D.
        let d = r.delay_factor.unwrap();
        assert!((r.energy_delay_factor.unwrap() - r.total_energy_factor * d).abs() < 1e-12);
        assert!((r.average_power_factor.unwrap() - r.total_energy_factor / d).abs() < 1e-12);
        // sw0 = 0.5 pivot: leakage ratio unchanged.
        assert!((r.leakage_ratio_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_validation_catches_bad_fields() {
        let mut p = parity10();
        p.activity = 0.0;
        assert!(BoundReport::evaluate(&p, 0.01, 0.01).is_err());
        let mut p = parity10();
        p.sensitivity = 11.0; // > n
        assert!(p.validate().is_err());
        let mut p = parity10();
        p.size = 0;
        assert!(p.validate().is_err());
        let mut p = parity10();
        p.fanin = 1.0;
        assert!(p.validate().is_err());
        let mut p = parity10();
        p.fanin = f64::INFINITY;
        assert!(p.validate().is_err());
        let mut p = parity10();
        p.leak_share = 1.0;
        assert!(p.validate().is_err());
        let mut p = parity10();
        p.inputs = 0;
        p.sensitivity = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_mentions_key_parameters() {
        let s = parity10().to_string();
        assert!(s.contains("parity10") && s.contains("S0=21") && s.contains("k=3.0"));
    }

    #[test]
    fn beyond_threshold_composites_are_none() {
        let r = BoundReport::evaluate(&parity10(), 0.3, 0.01).unwrap();
        assert_eq!(r.delay_factor, None);
        assert_eq!(r.average_power_factor, None);
        assert_eq!(r.energy_delay_factor, None);
        assert!(!r.depth_bound.is_feasible());
        // Non-composite bounds still exist.
        assert!(r.size_factor > 1.0);
    }
}
