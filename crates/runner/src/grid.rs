//! Parallel evaluation of a fallible function over a point list.
//!
//! Points are spread across the pool's workers and the results
//! returned in list order, so the output is byte-identical to a serial
//! left-to-right evaluation for any worker count.

use crate::pool::ThreadPool;

/// Evaluates `f` over every point, in parallel, preserving order:
/// returns the values in list order, or the error of the
/// *lowest-indexed* failing point.
///
/// Element `i` of the result is always `f(&xs[i])`, regardless of the
/// pool's worker count or the steal schedule. Every point is evaluated
/// (workers do not abort each other), but the reported error is chosen
/// by position, not completion order, so failures are as deterministic
/// as successes.
///
/// # Errors
///
/// Returns the error produced at the first (by index) failing point.
pub fn try_grid_map<X, T, E, F>(pool: &ThreadPool, xs: &[X], f: F) -> Result<Vec<T>, E>
where
    X: Sync,
    T: Send,
    E: Send,
    F: Fn(&X) -> Result<T, E> + Sync,
{
    pool.map_indexed(xs.len(), |i| f(&xs[i]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_grid_map_collects_successes() {
        let pool = ThreadPool::new(4).unwrap();
        let xs = [1u64, 2, 3, 4];
        let out: Result<Vec<u64>, &str> = try_grid_map(&pool, &xs, |&x| Ok(x * 10));
        assert_eq!(out.unwrap(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn try_grid_map_reports_the_lowest_indexed_error() {
        let pool = ThreadPool::new(8).unwrap();
        let xs: Vec<usize> = (0..64).collect();
        let out: Result<Vec<usize>, usize> =
            try_grid_map(&pool, &xs, |&x| if x % 10 == 3 { Err(x) } else { Ok(x) });
        // Both 3, 13, 23, ... fail; the error must be the earliest.
        assert_eq!(out.unwrap_err(), 3);
    }

    #[test]
    fn empty_grid_yields_empty_vec() {
        let pool = ThreadPool::new(4).unwrap();
        let xs: [f64; 0] = [];
        let out: Result<Vec<f64>, ()> = try_grid_map(&pool, &xs, |x| Ok(*x));
        assert!(out.unwrap().is_empty());
    }
}
