//! Bit-parallel logic simulation, activity estimation, fault injection
//! and sensitivity analysis.
//!
//! This crate is the measurement substrate of the `nanobound` workspace
//! (a reproduction of *Marculescu, "Energy Bounds for Fault-Tolerant
//! Nanoscale Designs", DATE 2005*). The paper's bounds consume three
//! circuit-specific quantities that must be *measured* from a netlist:
//!
//! - the average per-gate switching activity `sw0` — [`estimate_activity`];
//! - the Boolean sensitivity `s` — [`sensitivity::estimate`];
//! - (for validation) the empirical output failure rate δ̂ of the circuit
//!   when each gate misfires with probability ε — [`monte_carlo`].
//!
//! All engines are 64-way bit-parallel ([`evaluate_packed`]) and fully
//! deterministic given their seeds.
//!
//! # Examples
//!
//! Profile a ripple-carry adder and inject faults:
//!
//! ```
//! use nanobound_gen::adder;
//! use nanobound_sim::{estimate_activity, monte_carlo, NoisyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rca = adder::ripple_carry(8)?;
//! let profile = estimate_activity(&rca, 10_000, 1)?;
//! assert!(profile.avg_gate_activity > 0.0);
//!
//! let noisy = monte_carlo(&rca, &NoisyConfig::new(0.01, 2)?, 10_000, 1)?;
//! assert!(noisy.circuit_error_rate > 0.0);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the Monte-Carlo kernel carries the one
// sanctioned exception — one AVX-512 `#[target_feature]` twin per
// kernel entry (`MaskPlan::xor_masks`, the `run_tally_batch` op loop
// and `SimProgram::estimate_activity`'s windowed evaluate-and-count
// loop), each the entry's safe `#[inline(always)]` body compiled a
// second time. Calling a twin is `unsafe` only because the compiler
// demands it for feature-gated codegen; each call sits behind a runtime
// CPU-feature check.
#![deny(unsafe_code)]

pub mod activity;
pub mod bernoulli;
pub mod compiled;
pub mod engine;
pub mod equivalence;
mod error;
pub mod faultstream;
pub mod fingerprint;
pub mod noisy;
pub mod patterns;
pub mod sensitivity;
pub mod verify;

pub use activity::{activity_from_probability, estimate_activity, ActivityProfile};
pub use compiled::{
    EngineKind, ProgramCache, ProgramCacheStats, ShardSpec, SimProgram, SimScratch, ENGINE_ENV,
};
pub use engine::{evaluate_packed, NodeValues};
pub use error::SimError;
pub use faultstream::{gate_state, MaskPlan, STREAM_VERSION};
pub use fingerprint::{experiment_builder, netlist_fingerprint};
pub use noisy::{
    compare_runs, evaluate_noisy, monte_carlo, monte_carlo_tally, tally_runs, NoisyConfig,
    NoisyOutcome, NoisyTally,
};
pub use patterns::PatternSet;
pub use sensitivity::SensitivityEstimate;
pub use verify::TapeDefect;
