//! Parameter-grid helpers for sweeping the bounds across ε, δ or k.
//!
//! The figures of the paper are families of curves over the gate error
//! probability; these helpers generate the abscissas and evaluate a
//! closure over them, keeping the experiments crate free of loop
//! boilerplate.

/// `n` evenly spaced values covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or `lo > hi`.
///
/// # Examples
///
/// ```
/// let xs = nanobound_core::sweep::linspace(0.0, 1.0, 5);
/// assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
#[must_use]
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two points");
    assert!(lo <= hi, "lo {lo} > hi {hi}");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// `n` logarithmically spaced values covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`, `lo <= 0` or `lo > hi`.
///
/// # Examples
///
/// ```
/// let xs = nanobound_core::sweep::logspace(0.001, 0.1, 3);
/// assert!((xs[1] - 0.01).abs() < 1e-12);
/// ```
#[must_use]
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0, "logspace needs positive lo, got {lo}");
    linspace(lo.log10(), hi.log10(), n)
        .into_iter()
        .map(|e| 10f64.powf(e))
        .collect()
}

/// Evaluates `f` over every grid point in order, returning one result
/// per point.
///
/// This is the *reference semantics* for sweep evaluation, and the
/// closed-form figure generators (Figures 2–6) run their grids through
/// exactly this loop. Unlike [`curve`] it carries arbitrary per-point
/// payloads (a whole table row, a family of bounds), not just `(x, y)`
/// pairs.
///
/// # Examples
///
/// ```
/// use nanobound_core::sweep::{grid_map, linspace};
///
/// let eps = linspace(0.0, 0.5, 3);
/// let rows = grid_map(&eps, |&e| vec![e, 1.0 - 2.0 * e]);
/// assert_eq!(rows, vec![vec![0.0, 1.0], vec![0.25, 0.5], vec![0.5, 0.0]]);
/// ```
pub fn grid_map<X, T, F: FnMut(&X) -> T>(xs: &[X], f: F) -> Vec<T> {
    xs.iter().map(f).collect()
}

/// Evaluates `f` over `xs`, returning `(x, f(x))` pairs — the row format
/// consumed by `nanobound-report` series.
pub fn curve<F: FnMut(f64) -> f64>(xs: &[f64], mut f: F) -> Vec<(f64, f64)> {
    xs.iter().map(|&x| (x, f(x))).collect()
}

/// Like [`curve`], but drops points where `f` returns `None` (e.g. the
/// delay bound beyond its feasibility threshold).
pub fn partial_curve<F: FnMut(f64) -> Option<f64>>(xs: &[f64], mut f: F) -> Vec<(f64, f64)> {
    xs.iter().filter_map(|&x| f(x).map(|y| (x, y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let xs = linspace(0.001, 0.499, 100);
        assert_eq!(xs.len(), 100);
        assert_eq!(xs[0], 0.001);
        assert!((xs[99] - 0.499).abs() < 1e-15);
        for w in xs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn logspace_is_geometric() {
        let xs = logspace(1e-4, 1e-1, 4);
        for w in xs.windows(2) {
            assert!((w[1] / w[0] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        let _ = linspace(0.0, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "positive lo")]
    fn logspace_rejects_zero() {
        let _ = logspace(0.0, 1.0, 3);
    }

    #[test]
    fn grid_map_preserves_order_and_arity() {
        let xs = [3.0, 1.0, 2.0];
        let out = grid_map(&xs, |&x| x * 10.0);
        assert_eq!(out, vec![30.0, 10.0, 20.0]);
        let empty: Vec<f64> = grid_map(&[], |x: &f64| *x);
        assert!(empty.is_empty());
    }

    #[test]
    fn curves_zip_domain_and_range() {
        let xs = linspace(0.0, 2.0, 3);
        let c = curve(&xs, |x| x * x);
        assert_eq!(c, vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]);
        let p = partial_curve(&xs, |x| if x < 1.5 { Some(x) } else { None });
        assert_eq!(p, vec![(0.0, 0.0), (1.0, 1.0)]);
    }
}
