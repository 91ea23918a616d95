//! Constructive fault tolerance: N-modular redundancy and von Neumann
//! NAND multiplexing, with closed-form reliability analytics.
//!
//! Part of the `nanobound` workspace (a reproduction of *Marculescu,
//! "Energy Bounds for Fault-Tolerant Nanoscale Designs", DATE 2005*).
//! The paper's results are *lower* bounds on the cost of reliability;
//! this crate supplies the matching *upper* bounds: real redundancy
//! schemes, built gate-for-gate as netlists, whose measured cost and
//! measured output error rate can be placed against the bound curves.
//!
//! - [`nmr()`] — r-fold replication with noisy majority voters;
//! - [`multiplex()`] — von Neumann bundles with executive and restorative
//!   NAND stages ([`to_nand2`] rewrites arbitrary netlists first);
//! - [`analysis`] — binomial voting reliability, stimulated-level
//!   recursions and the ε* ≈ 0.0886 multiplexing threshold.
//!
//! # Examples
//!
//! Protect an adder with TMR and check the cost:
//!
//! ```
//! use nanobound_gen::adder;
//! use nanobound_redundancy::{nmr, nmr_size_factor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rca = adder::ripple_carry(8)?;
//! let tmr = nmr(&rca, 3)?;
//! // Replication triples the logic and adds one voter per output.
//! assert!(nmr_size_factor(&rca, 3)? > 3.0);
//! assert_eq!(tmr.output_count(), rca.output_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
mod error;
pub mod multiplex;
pub mod nand_form;
pub mod nmr;
pub mod voter;

pub use error::RedundancyError;
pub use multiplex::{multiplex, multiplex_full, MultiplexConfig, Multiplexed};
pub use nand_form::to_nand2;
pub use nmr::{nmr, nmr_size_factor};
