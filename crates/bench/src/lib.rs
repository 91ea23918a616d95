//! Benchmark harness for the `nanobound` workspace.
//!
//! Two families of targets live under `benches/`:
//!
//! - **Figure regeneration** (`fig2_switching` … `fig8_benchmarks`,
//!   `headline_claims`, `validation_montecarlo`) — plain binaries
//!   (`harness = false`) that rebuild one paper artifact each and print
//!   its tables and ASCII charts. Run e.g.
//!   `cargo bench -p nanobound-bench --bench fig3_redundancy`.
//! - **Performance** (`perf_bounds`, `perf_sim`, `perf_redundancy`) —
//!   Criterion micro-benchmarks of the bound evaluation, the
//!   bit-parallel simulator and the redundancy constructions.
//!
//! This library crate only hosts shared helpers.

#![forbid(unsafe_code)]
use nanobound_cache::{ProfileStore, ShardCache};
use nanobound_experiments::FigureOutput;
use nanobound_runner::ThreadPool;

/// Prints a regenerated figure the way every figure bench does.
pub fn print_figure(fig: &FigureOutput) {
    println!("{}", fig.render());
}

/// Builds the worker pool for a bench run from the `NANOBOUND_JOBS`
/// environment variable (default: the host's available parallelism).
///
/// CI runs every figure bench twice — `NANOBOUND_JOBS=1` and
/// `NANOBOUND_JOBS=$(nproc)` — and diffs the regenerated artifacts, so
/// single-thread/multi-thread divergence fails the gate.
///
/// # Panics
///
/// Panics when `NANOBOUND_JOBS` is set to something that is not a
/// worker count in `1..=MAX_JOBS`: a bench run with a silently ignored
/// jobs override would defeat the divergence gate.
#[must_use]
pub fn pool_from_env() -> ThreadPool {
    match std::env::var("NANOBOUND_JOBS") {
        Err(_) => ThreadPool::auto(),
        Ok(v) => {
            let jobs: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("NANOBOUND_JOBS=`{v}` is not an integer"));
            ThreadPool::new(jobs).expect("NANOBOUND_JOBS out of the supported range")
        }
    }
}

/// Opens the shard cache for a bench run from the
/// `NANOBOUND_CACHE_DIR` environment variable (default: no caching).
///
/// The figure benches regenerate identical artifacts whether or not a
/// cache is configured — the CI determinism gates rely on that — so the
/// variable only trades recomputation for disk reads on repeated runs.
///
/// # Panics
///
/// Panics when the configured directory cannot be created: a bench run
/// that silently dropped its cache override would misreport warm-run
/// timings.
#[must_use]
pub fn cache_from_env() -> Option<ShardCache> {
    match std::env::var("NANOBOUND_CACHE_DIR") {
        Err(_) => None,
        Ok(dir) => Some(
            ShardCache::open(&dir)
                .unwrap_or_else(|e| panic!("NANOBOUND_CACHE_DIR=`{dir}` cannot be opened: {e}")),
        ),
    }
}

/// Opens the ε-independent profile store for a bench run from the same
/// `NANOBOUND_CACHE_DIR` variable as [`cache_from_env`] (default: no
/// store). Shares the shard cache's root — profile entries are
/// domain-tagged, so the two namespaces never collide.
///
/// # Panics
///
/// Same contract as [`cache_from_env`].
#[must_use]
pub fn profile_store_from_env() -> Option<ProfileStore> {
    match std::env::var("NANOBOUND_CACHE_DIR") {
        Err(_) => None,
        Ok(dir) => Some(
            ProfileStore::open(&dir)
                .unwrap_or_else(|e| panic!("NANOBOUND_CACHE_DIR=`{dir}` cannot be opened: {e}")),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_figure_smoke() {
        let exec = nanobound_runner::Exec::default();
        let fig = nanobound_experiments::fig2::generate(&exec).unwrap();
        print_figure(&fig); // must not panic
    }

    #[test]
    fn default_pool_is_valid() {
        // NANOBOUND_JOBS handling is exercised end-to-end by ci.sh; here
        // just pin that the default path yields a usable pool.
        assert!(pool_from_env().jobs() >= 1);
    }
}
