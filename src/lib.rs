//! # nanobound
//!
//! A reproduction of *D. Marculescu, "Energy Bounds for Fault-Tolerant
//! Nanoscale Designs", DATE 2005* — lower bounds on the energy, size, depth,
//! average power and energy-delay cost of computing reliably with noisy
//! gates, together with the full substrate needed to apply those bounds to
//! real circuits.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! - [`logic`] — netlist IR, statistics and synthesis-lite transforms;
//! - [`cache`] — content-addressed shard result cache (fingerprints,
//!   corruption-tolerant store; warm runs are byte-identical to cold);
//! - [`io`] — ISCAS `.bench` and BLIF readers/writers;
//! - [`gen`] — parameterized circuit generators (arithmetic, parity,
//!   control, ISCAS'85 functional analogs);
//! - [`sim`] — bit-parallel simulation, switching activity, noisy
//!   Monte-Carlo fault injection, sensitivity;
//! - [`core`] — the paper's theory: Theorems 1-4, Corollaries 1-2 and the
//!   composite delay/power/energy-delay bounds;
//! - [`energy`] — technology-parameterized energy/delay models and Vdd
//!   scaling;
//! - [`redundancy`] — constructive fault tolerance (NMR, von Neumann
//!   multiplexing);
//! - [`report`] — tables, CSV/Markdown emitters, ASCII charts;
//! - [`runner`] — deterministic parallel execution (work-stealing pool,
//!   the `Exec` context every simulating entry point takes, sharded
//!   Monte-Carlo, ordered parallel maps; `--jobs N` is byte-identical
//!   to `--jobs 1`);
//! - [`experiments`] — regeneration of every figure and headline claim of
//!   the paper;
//! - [`service`] — the long-running batch service: job engine over one
//!   pool + one shard cache, line-delimited request protocol, serve
//!   loop, and the CLI command layer shared with the one-shot binary.
//!
//! # Quickstart
//!
//! Bound the energy cost of making a 10-input parity circuit 99%-reliable
//! when every gate fails with probability 1% — measuring every
//! circuit-specific parameter from a real netlist:
//!
//! ```
//! use nanobound::core::BoundReport;
//! use nanobound::experiments::profiles::{profile_netlist, ProfileConfig};
//! use nanobound::gen::parity;
//! use nanobound::runner::Exec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tree = parity::parity_tree(10, 3)?;
//! let profiled = profile_netlist(&Exec::default(), &tree, None, &ProfileConfig::default())?;
//! let bounds = BoundReport::evaluate(&profiled.profile, 0.01, 0.01)?;
//! assert!(bounds.total_energy_factor >= 1.0);
//! println!(
//!     "{}: at eps=1% reliability costs >= {:.1}% more energy",
//!     profiled.name,
//!     (bounds.total_energy_factor - 1.0) * 100.0,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use nanobound_cache as cache;
pub use nanobound_core as core;
pub use nanobound_energy as energy;
pub use nanobound_experiments as experiments;
pub use nanobound_gen as gen;
pub use nanobound_io as io;
pub use nanobound_logic as logic;
pub use nanobound_redundancy as redundancy;
pub use nanobound_report as report;
pub use nanobound_runner as runner;
pub use nanobound_service as service;
pub use nanobound_sim as sim;
