//! Monte-Carlo validation experiments (beyond the paper's figures):
//! V1 — Theorem 1 measured vs predicted;
//! V2 — constructive NMR / von Neumann multiplexing vs the Theorem-2
//! lower bound at their *achieved* output error rates.
//!
//! Run: `cargo bench -p nanobound-bench --bench validation_montecarlo`

use nanobound_runner::Exec;

fn main() {
    let cache = nanobound_bench::cache_from_env();
    let exec = Exec {
        cache: cache.as_ref(),
        ..Exec::new(nanobound_bench::pool_from_env())
    };
    for fig in nanobound_experiments::validation::generate(&exec).expect("fixed parameters") {
        nanobound_bench::print_figure(&fig);
    }
}
