//! Ablation: the garbled radical in Theorem 2.
//!
//! The DATE'05 PDF renders the ω definition ambiguously; two readings
//! are possible:
//!
//! - k-th ROOT (ours):  ω = (1 - (1-2ε)^(1/k)) / 2
//! - k-th POWER:        ω = (1 - (1-2ε)^k) / 2
//!
//! Figure 3's caption states that "more than an order of magnitude
//! redundancy factor is needed for error levels close to 0.5"
//! (s = 10, S0 = 21, δ = 0.01). This example evaluates the redundancy
//! bound under both readings and shows only the root form reproduces
//! that statement — the power form saturates an order of magnitude too
//! low because its ω reaches ½ (t → 1) far too quickly ... in fact it
//! *overshoots*: ω_pow(ε) > ω_root(ε) for every ε in (0, ½), collapsing
//! log₂t and inflating the bound at small ε while the paper's Fig 3
//! clearly starts near zero.
//!
//! Run: `cargo run --release --example ablation_omega`

use nanobound::core::noise::t_factor;
use nanobound::report::{Cell, Table};

const S: f64 = 10.0;
const S0: f64 = 21.0;
const DELTA: f64 = 0.01;

fn redundancy_with_omega(omega: f64, k: f64) -> f64 {
    let numerator = S * S.log2() + 2.0 * S * (2.0 * (1.0 - 2.0 * DELTA)).log2();
    let log_t = t_factor(omega).log2();
    if log_t == 0.0 {
        return f64::INFINITY;
    }
    (numerator / (k * log_t)).max(0.0)
}

fn main() {
    let mut table = Table::new(
        "omega ablation — redundancy bound under both PDF readings (k = 2)",
        [
            "epsilon",
            "R (k-th root)",
            "R (k-th power)",
            "root/S0",
            "power/S0",
        ],
    );
    let k = 2.0;
    for eps in [0.001, 0.01, 0.1, 0.3, 0.45, 0.49] {
        let xi: f64 = 1.0 - 2.0 * eps;
        let root = redundancy_with_omega((1.0 - xi.powf(1.0 / k)) / 2.0, k);
        let power = redundancy_with_omega((1.0 - xi.powf(k)) / 2.0, k);
        table
            .push_row([
                Cell::from(eps),
                Cell::from(root),
                Cell::from(power),
                Cell::from(root / S0),
                Cell::from(power / S0),
            ])
            .expect("row matches header");
    }
    println!("{table}");
    println!(
        "Figure 3 shows factors of order 10 near eps = 0.5. The k-th-root\n\
         reading lands exactly there (11x at eps = 0.49); the k-th-power\n\
         reading overshoots by five orders of magnitude (1.4e6x) because\n\
         its omega makes each wire noisier than the whole gate. The root\n\
         reading is the one the reproduction uses."
    );
}
