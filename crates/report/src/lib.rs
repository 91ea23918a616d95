//! Tables, CSV/Markdown emitters and log-aware ASCII charts.
//!
//! The reporting substrate of the `nanobound` workspace: experiments
//! produce [`Table`]s and [`Chart`]s, the CLI writes them as CSV and
//! the examples print them. No dependencies beyond the standard
//! library.
//!
//! # Examples
//!
//! ```
//! use nanobound_report::{Cell, Chart, Series, Table};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut table = Table::new("Figure 3", ["epsilon", "redundancy"]);
//! table.push_row([Cell::from(0.01), Cell::from(3.4)])?;
//! println!("{}", table.to_markdown());
//!
//! let mut chart = Chart::new("Figure 3", "epsilon", "added gates").log_y();
//! chart.add(Series::new("k=2", vec![(0.01, 3.4), (0.1, 21.5), (0.4, 290.0)]));
//! println!("{}", chart.render(60, 16));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod chart;
pub mod table;

pub use chart::{Chart, Series};
pub use table::{Cell, RowLengthError, Table};
