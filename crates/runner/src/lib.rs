//! Deterministic parallel execution for the `nanobound` workspace.
//!
//! Every experiment in the paper — the noisy Monte-Carlo validation and
//! the ε/δ/k sweep families behind Figures 2–8 — is embarrassingly
//! parallel. This crate is the substrate that exploits that without
//! giving up reproducibility:
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
//! - [`grid_map`] / [`try_grid_map`] — parallel sweep evaluation that
//!   shards grid points across workers and returns them in grid order,
//!   and [`grid_map_cached`] / [`try_grid_map_cached`], the same sweeps
//!   with cells served from `nanobound-cache`'s content-addressed shard
//!   store, so a warm cache run stays byte-identical to a cold one;
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
//! use nanobound_runner::{grid_map, ThreadPool};
//!
//! let pool = ThreadPool::auto();
//! let xs = nanobound_core::sweep::linspace(0.0, 0.5, 101);
//! let ys = grid_map(&pool, &xs, |&eps| 2.0 * eps * (1.0 - eps));
//! assert_eq!(ys.len(), 101);
//! // Identical to the serial sweep, element for element:
//! assert_eq!(ys, nanobound_core::sweep::grid_map(&xs, |&eps| 2.0 * eps * (1.0 - eps)));
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

pub use cached::{
    experiment_builder, grid_map_cached, monte_carlo_fingerprint, netlist_fingerprint,
    try_grid_map_cached,
};
pub use error::RunnerError;
pub use exec::Exec;
pub use grid::{grid_map, try_grid_map};
pub use montecarlo::{monte_carlo, DEFAULT_CHUNK};
pub use pool::{Dispatcher, ThreadPool, MAX_JOBS};
pub use seed::shard_seed;
pub use shards::{monte_carlo_shard_tallies, tally_admissible, ShardPlan, ShardRange};
