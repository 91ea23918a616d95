//! Regenerates the paper's Figure 4 (closed-form curves).
//!
//! Run: `cargo bench -p nanobound-bench --bench fig4_leakage`

use nanobound_runner::Exec;

fn main() {
    let cache = nanobound_bench::cache_from_env();
    let exec = Exec {
        cache: cache.as_ref(),
        ..Exec::new(nanobound_bench::pool_from_env())
    };
    let fig = nanobound_experiments::fig4::generate(&exec).expect("fixed parameters are valid");
    nanobound_bench::print_figure(&fig);
}
