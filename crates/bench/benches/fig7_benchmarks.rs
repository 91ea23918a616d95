//! Regenerates the paper's Figure 7: per-benchmark energy and delay
//! lower bounds from measured circuit profiles.
//!
//! Run: `cargo bench -p nanobound-bench --bench fig7_benchmarks`

use nanobound_experiments::profiles::{profile_suite, ProfileConfig};
use nanobound_runner::Exec;

fn main() {
    let store = nanobound_bench::profile_store_from_env();
    let exec = Exec {
        profiles: store.as_ref(),
        ..Exec::new(nanobound_bench::pool_from_env())
    };
    let profiles = profile_suite(&exec, &ProfileConfig::default()).expect("suite profiles");
    println!("profiled {} benchmarks:", profiles.len());
    for p in &profiles {
        println!("  {}", p.profile);
    }
    println!();
    let fig = nanobound_experiments::fig7::generate_from(&profiles).expect("valid profiles");
    nanobound_bench::print_figure(&fig);
}
