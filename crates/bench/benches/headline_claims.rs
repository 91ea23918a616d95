//! Re-evaluates the paper's headline claims (abstract + Section 6):
//! H1 — ≥ 40% more energy at ε = 1%, δ = 1%;
//! H2 — energy×delay up to ~2.8×, average power reduced, at ε = 10%.
//!
//! Run: `cargo bench -p nanobound-bench --bench headline_claims`

use nanobound_experiments::profiles::{profile_suite, ProfileConfig};
use nanobound_runner::Exec;

fn main() {
    let store = nanobound_bench::profile_store_from_env();
    let exec = Exec {
        profiles: store.as_ref(),
        ..Exec::new(nanobound_bench::pool_from_env())
    };
    let profiles = profile_suite(&exec, &ProfileConfig::default()).expect("suite profiles");
    let fig = nanobound_experiments::headline::generate_from(&profiles).expect("valid profiles");
    nanobound_bench::print_figure(&fig);
}
