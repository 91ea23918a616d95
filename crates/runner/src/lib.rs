//! Deterministic parallel execution for the `nanobound` workspace.
//!
//! The measured experiments — the noisy Monte-Carlo validation and the
//! benchmark profiles behind Figures 7–8 — are embarrassingly parallel.
//! This crate is the substrate that exploits that without giving up
//! reproducibility. (The closed-form sweeps of Figures 2–6 cost about a
//! microsecond per point, so they run as plain in-order loops and never
//! touch the pool.)
//!
//! - [`ThreadPool`] — a std-only work-stealing executor over
//!   index-addressed task sets ([`ThreadPool::map_indexed`]);
//! - [`Exec`] — the execution context every entry point takes: the
//!   pool plus the optional shard cache, profile store and program
//!   cache. One entry point per concept, whatever the resources;
//! - [`shard_seed`] — frozen per-shard RNG seed derivation, so a
//!   shard's random stream is a function of (master seed, shard index)
//!   and never of the worker that ran it;
//! - [`monte_carlo`] — chunked trial batching for `nanobound_sim`'s
//!   noisy Monte-Carlo, merging integer [`nanobound_sim::NoisyTally`]
//!   counts;
//! - [`try_grid_map`] — parallel evaluation of a fallible function over
//!   a point list (benchmarks, ε grids), returned in list order with the
//!   lowest-indexed error;
//! - [`ShardPlan`] / [`monte_carlo_shard_tallies`] — the relocatable
//!   shard abstraction behind `nanobound cluster` and [`monte_carlo`]:
//!   any contiguous [`ShardRange`] of an experiment can be computed by
//!   any process and merged in any order without changing a bit of the
//!   outcome.
//!
//! **The determinism contract.** For every entry point in this crate,
//! the output is a pure function of the arguments: running with
//! `--jobs 1` and `--jobs N` produces byte-identical results. The
//! property-test suite (`tests/properties.rs`) pins this for thread
//! counts 1/2/4/8 and arbitrary chunk sizes; the workspace's golden
//! figure CSVs pin it end to end.
//!
//! # Examples
//!
//! ```
//! use nanobound_logic::{GateKind, Netlist};
//! use nanobound_runner::{monte_carlo, Exec, ThreadPool};
//! use nanobound_sim::NoisyConfig;
//!
//! let mut nl = Netlist::new("xor2");
//! let (a, b) = (nl.add_input("a"), nl.add_input("b"));
//! let y = nl.add_gate(GateKind::Xor, &[a, b])?;
//! nl.add_output("y", y)?;
//! let config = NoisyConfig::new(0.05, 1)?;
//! let serial = monte_carlo(&Exec::default(), &nl, &config, 10_000, 2, 512)?;
//! let parallel = monte_carlo(&Exec::new(ThreadPool::auto()), &nl, &config, 10_000, 2, 512)?;
//! // Identical to the serial run, bit for bit:
//! assert_eq!(serial, parallel);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
mod cached;
mod error;
mod exec;
mod grid;
mod montecarlo;
mod pool;
mod seed;
mod shards;

pub use cached::{experiment_builder, monte_carlo_fingerprint, netlist_fingerprint};
pub use error::RunnerError;
pub use exec::Exec;
pub use grid::try_grid_map;
pub use montecarlo::{monte_carlo, DEFAULT_CHUNK};
pub use pool::{Dispatcher, ThreadPool, MAX_JOBS};
pub use seed::shard_seed;
pub use shards::{monte_carlo_shard_tallies, tally_admissible, ShardPlan, ShardRange};
