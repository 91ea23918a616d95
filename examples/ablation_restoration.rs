//! Ablation: von Neumann multiplexing — bundle width vs restorative
//! stages on a *deep* circuit, with ideal (off-circuit) resolution.
//!
//! Run: `cargo run --release --example ablation_restoration`

use nanobound::gen::parity;
use nanobound::redundancy::{multiplex_full, MultiplexConfig};
use nanobound::report::{Cell, Table};
use nanobound::sim::{evaluate_noisy, evaluate_packed, NoisyConfig, PatternSet};

fn ideal_error(
    source: &nanobound::logic::Netlist,
    cfg: &MultiplexConfig,
    eps: f64,
    patterns: usize,
) -> (f64, usize) {
    let mux = multiplex_full(source, cfg).unwrap();
    let set = PatternSet::random(source.input_count(), patterns, 17);
    let clean = evaluate_packed(source, &set).unwrap();
    let noisy = evaluate_noisy(&mux.netlist, &set, &NoisyConfig::new(eps, 6).unwrap()).unwrap();
    let reference = clean.node(source.outputs()[0].driver);
    let bundle = &mux.output_bundles[0];
    let mut wrong = 0usize;
    for lane in 0..set.count() {
        let stimulated = bundle.iter().filter(|&&w| noisy.bit(w, lane)).count();
        let ideal = stimulated > cfg.bundle / 2;
        let expect = reference[lane / 64] >> (lane % 64) & 1 == 1;
        wrong += usize::from(ideal != expect);
    }
    (wrong as f64 / set.count() as f64, mux.netlist.gate_count())
}

fn main() {
    let chain = parity::parity_chain(16).unwrap(); // deep: 15 chained XORs
    let eps = 0.01;
    let mut table = Table::new(
        "restoration ablation — 16-bit parity chain, eps = 0.01, ideal resolution",
        [
            "bundle",
            "restorative stages",
            "gates",
            "bundle-majority error",
        ],
    );
    for bundle in [3usize, 9, 15] {
        for stages in [0usize, 1, 2] {
            let cfg = MultiplexConfig {
                bundle,
                restorative_stages: stages,
                seed: 4,
            };
            let (err, gates) = ideal_error(&chain, &cfg, eps, 40_000);
            table
                .push_row([
                    Cell::from(bundle),
                    Cell::from(stages),
                    Cell::from(gates),
                    Cell::from(err),
                ])
                .expect("row matches header");
        }
    }
    println!("{table}");
    println!(
        "Depth makes bare multiplexing drift toward a coin flip; one\n\
         restorative stage pins the bundle near its fixed point, a second\n\
         buys little — while tripling the bundle only helps once\n\
         restoration keeps per-wire errors in the fluctuation regime."
    );
}
