//! Netlist readers and writers.
//!
//! Two interchange formats are supported:
//!
//! - [`bench`](mod@bench) — the ISCAS `.bench` format used by the
//!   ISCAS'85/'89 benchmark suites (the circuits the paper evaluates);
//! - [`blif`] — a practical subset of Berkeley BLIF (models with `.names`
//!   sum-of-products covers and `.latch`), the native format of SIS, the
//!   synthesis tool the paper used.
//!
//! Sequential elements (`DFF` / `.latch`) are parsed into the combinational
//! envelope: each latch output becomes a pseudo primary input and each latch
//! data input becomes a pseudo primary output named `<q>$next`. All analyses
//! in this workspace operate on that combinational core, matching the
//! paper's combinational treatment (sequential circuits are its future
//! work).
//!
//! # Examples
//!
//! ```
//! use nanobound_io::bench;
//!
//! # fn main() -> Result<(), nanobound_io::ParseError> {
//! let text = "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! y = NAND(a, b)
//! ";
//! let design = bench::parse(text)?;
//! assert_eq!(design.netlist.input_count(), 2);
//! assert_eq!(design.netlist.gate_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bench;
pub mod blif;
mod error;
mod names;
mod resolve;
pub mod unroll;

pub use error::{ParseError, ParseErrorKind, WriteError};

use nanobound_logic::{Netlist, NodeId};

/// A parsed design: the combinational netlist plus any sequential elements
/// that were cut open during parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Design {
    /// The combinational envelope of the design.
    pub netlist: Netlist,
    /// Latches cut into (pseudo-input, pseudo-output) pairs.
    pub latches: Vec<Latch>,
    /// 1-based source line of each node, indexed by [`NodeId::index`];
    /// `0` (or a missing entry) means unknown. Populated best-effort by
    /// the parsers so diagnostics can point back into the source text —
    /// `.bench` knows every node's statement, BLIF attributes the gates
    /// materialized from a cover to the cover's `.names` line.
    pub source_lines: Vec<usize>,
    /// The names BLIF's `.clock` declared, in order. Each is also a
    /// primary input; the combinational envelope has no clock, so no
    /// gate needs to read one.
    pub clocks: Vec<String>,
}

impl Design {
    /// Wraps a purely combinational netlist.
    #[must_use]
    pub fn combinational(netlist: Netlist) -> Self {
        Design {
            netlist,
            latches: Vec::new(),
            source_lines: Vec::new(),
            clocks: Vec::new(),
        }
    }

    /// The 1-based source line node `id` came from, if the parser
    /// recorded one.
    #[must_use]
    pub fn source_line(&self, id: NodeId) -> Option<usize> {
        match self.source_lines.get(id.index()) {
            Some(0) | None => None,
            Some(&line) => Some(line),
        }
    }

    /// Returns `true` if the design had sequential elements.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        !self.latches.is_empty()
    }
}

/// A sequential element cut into the combinational envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Latch {
    /// Name of the data input signal (`D`), exposed as output `<q>$next`.
    pub input: String,
    /// Name of the latch output signal (`Q`), exposed as a pseudo input.
    pub output: String,
}
