//! Regeneration of every figure and headline claim of *Marculescu,
//! "Energy Bounds for Fault-Tolerant Nanoscale Designs", DATE 2005*,
//! plus Monte-Carlo validation experiments.
//!
//! One module per figure. The sweep figures (2–6) are closed-form:
//! `generate()` evaluates its fixed grid in order and returns a
//! [`FigureOutput`] (tables + ASCII charts). Figures 7-8 and the
//! headline claims consume measured circuit profiles: run
//! [`profiles::profile_suite`] once and pass the result to their
//! `generate_from` functions.
//!
//! Profiling and the Monte-Carlo validation take one
//! [`nanobound_runner::Exec`]: the worker pool plus the optional shard
//! cache, profile store and program cache. Monte-Carlo chunk tallies
//! and benchmark measurements are served from the stores that are
//! present. Stored payloads round-trip bit-exactly, so output is
//! byte-identical for every pool and every store state (the golden-CSV
//! suite pins this end to end).
//!
//! | Paper artifact | Module |
//! |----------------|--------|
//! | Figure 2 (noisy switching activity) | [`fig2`] |
//! | Figure 3 (minimum redundancy) | [`fig3`] |
//! | Figure 4 (leakage/switching ratio) | [`fig4`] |
//! | Figure 5 (delay and energy×delay) | [`fig5`] |
//! | Figure 6 (average power) | [`fig6`] |
//! | Figure 7 (per-benchmark energy/delay) | [`fig7`] |
//! | Figure 8 (per-benchmark power/EDP) | [`fig8`] |
//! | Abstract & Section 6 claims | [`headline`] |
//! | Theorem-1 Monte-Carlo check (ours) | [`validation`] |
//! | Constructive-vs-bound check (ours) | [`validation`] |
//!
//! # Examples
//!
//! ```
//! let fig2 = nanobound_experiments::fig2::generate()?;
//! println!("{}", fig2.render());
//! # Ok::<(), nanobound_experiments::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
mod error;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
mod figure;
pub mod headline;
pub mod profiles;
pub mod request;
pub mod validation;

pub use error::ExperimentError;
pub use figure::FigureOutput;
pub use request::{generate_figure, generate_figure_cached, FigureId};
