//! Gate kinds and their Boolean semantics.

use std::fmt;
use std::str::FromStr;

use crate::error::LogicError;

/// The kinds of cells available in the generic gate library.
///
/// The library mirrors what the paper's synthesis flow targets: simple
/// variable-fanin standard cells plus a 3-input majority gate (used by the
/// constructive redundancy schemes). Multi-input `Nand`/`Nor`/`Xnor` are the
/// complements of the corresponding `And`/`Or`/`Xor`; in particular a
/// multi-input `Xnor` is the complement of parity, not pairwise equivalence.
///
/// # Examples
///
/// ```
/// use nanobound_logic::GateKind;
///
/// assert!(GateKind::And.eval_bools(&[true, true, true]));
/// assert!(!GateKind::Nand.eval_bools(&[true, true, true]));
/// assert_eq!("NAND".parse::<GateKind>(), Ok(GateKind::Nand));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
    /// Buffer: passes its single fanin through unchanged.
    Buf,
    /// Inverter.
    Not,
    /// Conjunction of 2+ fanins.
    And,
    /// Complemented conjunction of 2+ fanins.
    Nand,
    /// Disjunction of 2+ fanins.
    Or,
    /// Complemented disjunction of 2+ fanins.
    Nor,
    /// Parity (odd number of true fanins) of 2+ fanins.
    Xor,
    /// Complemented parity of 2+ fanins.
    Xnor,
    /// Majority of exactly 3 fanins.
    Maj,
}

impl GateKind {
    /// Every gate kind, in declaration order.
    pub const ALL: [GateKind; 11] = [
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Maj,
    ];

    /// Returns `true` if a gate of this kind may have `n` fanins.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanobound_logic::GateKind;
    ///
    /// assert!(GateKind::And.arity_ok(4));
    /// assert!(!GateKind::Maj.arity_ok(2));
    /// assert!(GateKind::Const1.arity_ok(0));
    /// ```
    #[must_use]
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::Maj => n == 3,
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => n >= 2,
        }
    }

    /// Validates an arity, returning a [`LogicError::ArityMismatch`] on
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns an error when [`GateKind::arity_ok`] is `false` for `n`.
    pub fn check_arity(self, n: usize) -> Result<(), LogicError> {
        if self.arity_ok(n) {
            Ok(())
        } else {
            Err(LogicError::ArityMismatch { kind: self, got: n })
        }
    }

    /// Returns `true` when fanin order does not matter.
    ///
    /// Every kind in this library is commutative (or has at most one fanin),
    /// which lets structural hashing sort fanin lists.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        true
    }

    /// Returns `true` for the kinds that count as *logic gates* in circuit
    /// statistics (everything except constants and buffers).
    #[must_use]
    pub fn counts_as_gate(self) -> bool {
        !matches!(self, GateKind::Const0 | GateKind::Const1 | GateKind::Buf)
    }

    /// Evaluates the gate bit-parallel over 64 lanes.
    ///
    /// Constants ignore `fanins`; all other kinds fold over it. For the
    /// bit-parallel representation a constant 1 is all-ones.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the fanin count is invalid for the kind.
    /// Callers constructing gates through [`Netlist::add_gate`] never hit
    /// this because arity is validated at insertion.
    ///
    /// [`Netlist::add_gate`]: crate::Netlist::add_gate
    #[must_use]
    pub fn eval_words(self, fanins: &[u64]) -> u64 {
        debug_assert!(self.arity_ok(fanins.len()), "bad arity for {self:?}");
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Buf => fanins[0],
            GateKind::Not => !fanins[0],
            GateKind::And => fanins.iter().copied().fold(u64::MAX, |a, b| a & b),
            GateKind::Nand => !fanins.iter().copied().fold(u64::MAX, |a, b| a & b),
            GateKind::Or => fanins.iter().copied().fold(0, |a, b| a | b),
            GateKind::Nor => !fanins.iter().copied().fold(0, |a, b| a | b),
            GateKind::Xor => fanins.iter().copied().fold(0, |a, b| a ^ b),
            GateKind::Xnor => !fanins.iter().copied().fold(0, |a, b| a ^ b),
            GateKind::Maj => {
                (fanins[0] & fanins[1]) | (fanins[0] & fanins[2]) | (fanins[1] & fanins[2])
            }
        }
    }

    /// Evaluates the gate on plain booleans.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the fanin count is invalid for the kind;
    /// see [`GateKind::eval_words`].
    #[must_use]
    pub fn eval_bools(self, fanins: &[bool]) -> bool {
        let mut words = [0u64; 16];
        let mut buf;
        let slice: &[u64] = if fanins.len() <= 16 {
            for (w, &b) in words.iter_mut().zip(fanins) {
                *w = if b { u64::MAX } else { 0 };
            }
            &words[..fanins.len()]
        } else {
            buf = vec![0u64; fanins.len()];
            for (w, &b) in buf.iter_mut().zip(fanins) {
                *w = if b { u64::MAX } else { 0 };
            }
            &buf
        };
        self.eval_words(slice) & 1 == 1
    }

    /// The canonical upper-case name of the kind, as used by the `.bench`
    /// writer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Maj => "MAJ",
        }
    }

    /// For a kind with an associative reduction (AND/OR/XOR family), returns
    /// the kind used for the inner levels of a balanced decomposition tree
    /// and whether the final level must complement.
    ///
    /// Returns `None` for kinds that never need decomposition (fixed arity).
    #[must_use]
    pub fn decomposition_core(self) -> Option<(GateKind, bool)> {
        match self {
            GateKind::And => Some((GateKind::And, false)),
            GateKind::Nand => Some((GateKind::And, true)),
            GateKind::Or => Some((GateKind::Or, false)),
            GateKind::Nor => Some((GateKind::Or, true)),
            GateKind::Xor => Some((GateKind::Xor, false)),
            GateKind::Xnor => Some((GateKind::Xor, true)),
            _ => None,
        }
    }

    /// The complemented counterpart of this kind, if one exists in the
    /// library (`And` ↔ `Nand`, `Buf` ↔ `Not`, constants swap, …).
    #[must_use]
    pub fn complement(self) -> Option<GateKind> {
        match self {
            GateKind::And => Some(GateKind::Nand),
            GateKind::Nand => Some(GateKind::And),
            GateKind::Or => Some(GateKind::Nor),
            GateKind::Nor => Some(GateKind::Or),
            GateKind::Xor => Some(GateKind::Xnor),
            GateKind::Xnor => Some(GateKind::Xor),
            GateKind::Buf => Some(GateKind::Not),
            GateKind::Not => Some(GateKind::Buf),
            GateKind::Const0 => Some(GateKind::Const1),
            GateKind::Const1 => Some(GateKind::Const0),
            GateKind::Maj => None,
        }
    }

    /// Looks up a gate-kind name, ASCII-case-insensitively and without
    /// allocating. `BUFF` is accepted as an alias for `BUF` (ISCAS `.bench`
    /// spelling), as are `INV`, `GND`/`ZERO` and `VDD`/`ONE`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanobound_logic::GateKind;
    ///
    /// assert_eq!(GateKind::from_name("buff"), Some(GateKind::Buf));
    /// assert_eq!(GateKind::from_name(" AND"), None);
    /// ```
    #[must_use]
    pub fn from_name(name: &str) -> Option<GateKind> {
        // Every accepted name is ASCII and at most six bytes long.
        let mut upper = [0u8; 6];
        let bytes = name.as_bytes();
        if bytes.len() > upper.len() {
            return None;
        }
        for (u, b) in upper.iter_mut().zip(bytes) {
            *u = b.to_ascii_uppercase();
        }
        let kind = match &upper[..bytes.len()] {
            b"CONST0" | b"GND" | b"ZERO" => GateKind::Const0,
            b"CONST1" | b"VDD" | b"ONE" => GateKind::Const1,
            b"BUF" | b"BUFF" => GateKind::Buf,
            b"NOT" | b"INV" => GateKind::Not,
            b"AND" => GateKind::And,
            b"NAND" => GateKind::Nand,
            b"OR" => GateKind::Or,
            b"NOR" => GateKind::Nor,
            b"XOR" => GateKind::Xor,
            b"XNOR" => GateKind::Xnor,
            b"MAJ" => GateKind::Maj,
            _ => return None,
        };
        Some(kind)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown gate-kind name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError {
    /// The text that failed to parse.
    pub input: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.input)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses a gate-kind name case-insensitively, ignoring surrounding
    /// whitespace; see [`GateKind::from_name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GateKind::from_name(s.trim()).ok_or_else(|| ParseGateKindError {
            input: s.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> bool {
        v & 1 == 1
    }

    #[test]
    fn two_input_truth_tables() {
        for a in [false, true] {
            for bb in [false, true] {
                let ins = [a, bb];
                assert_eq!(GateKind::And.eval_bools(&ins), a && bb);
                assert_eq!(GateKind::Nand.eval_bools(&ins), !(a && bb));
                assert_eq!(GateKind::Or.eval_bools(&ins), a || bb);
                assert_eq!(GateKind::Nor.eval_bools(&ins), !(a || bb));
                assert_eq!(GateKind::Xor.eval_bools(&ins), a ^ bb);
                assert_eq!(GateKind::Xnor.eval_bools(&ins), !(a ^ bb));
            }
        }
    }

    #[test]
    fn unary_and_const() {
        assert!(!GateKind::Const0.eval_bools(&[]));
        assert!(GateKind::Const1.eval_bools(&[]));
        assert!(GateKind::Buf.eval_bools(&[true]));
        assert!(!GateKind::Buf.eval_bools(&[false]));
        assert!(!GateKind::Not.eval_bools(&[true]));
        assert!(GateKind::Not.eval_bools(&[false]));
    }

    #[test]
    fn majority_truth_table() {
        for m in 0u8..8 {
            let ins = [m & 1 == 1, m & 2 == 2, m & 4 == 4];
            let expected = ins.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(GateKind::Maj.eval_bools(&ins), expected, "{ins:?}");
        }
    }

    #[test]
    fn multi_input_parity_semantics() {
        // XNOR of 3 inputs is the complement of parity, not pairwise equality.
        assert!(GateKind::Xor.eval_bools(&[true, true, true]));
        assert!(!GateKind::Xnor.eval_bools(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bools(&[true, true, false]));
        assert!(GateKind::Xnor.eval_bools(&[true, true, false]));
    }

    #[test]
    fn eval_words_matches_bools_lanewise() {
        // Lane 0: a=0,b=1; lane 1: a=1,b=1.
        let a = 0b10;
        let bb = 0b11;
        let w = GateKind::And.eval_words(&[a, bb]);
        assert!(!b(w));
        assert!(b(w >> 1));
    }

    #[test]
    fn wide_fanin_eval_bools_takes_heap_path() {
        let ins = vec![true; 20];
        assert!(GateKind::And.eval_bools(&ins));
        let mut ins2 = ins.clone();
        ins2[19] = false;
        assert!(!GateKind::And.eval_bools(&ins2));
        // XOR of 20 ones is even parity -> false.
        assert!(!GateKind::Xor.eval_bools(&ins));
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Const0.arity_ok(0));
        assert!(!GateKind::Const0.arity_ok(1));
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::Maj.arity_ok(3));
        assert!(!GateKind::Maj.arity_ok(4));
        assert!(GateKind::Xor.arity_ok(2));
        assert!(GateKind::Xor.arity_ok(17));
        assert!(!GateKind::Xor.arity_ok(1));
    }

    #[test]
    fn check_arity_error_payload() {
        let err = GateKind::Maj.check_arity(2).unwrap_err();
        assert_eq!(
            err,
            LogicError::ArityMismatch {
                kind: GateKind::Maj,
                got: 2
            }
        );
    }

    #[test]
    fn parse_roundtrip_all_kinds() {
        for kind in GateKind::ALL {
            let parsed: GateKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            let lower: GateKind = kind.name().to_ascii_lowercase().parse().unwrap();
            assert_eq!(lower, kind);
        }
    }

    #[test]
    fn parse_aliases_and_errors() {
        assert_eq!("BUFF".parse::<GateKind>(), Ok(GateKind::Buf));
        assert_eq!("inv".parse::<GateKind>(), Ok(GateKind::Not));
        assert_eq!("vdd".parse::<GateKind>(), Ok(GateKind::Const1));
        assert!("FLIPFLOP".parse::<GateKind>().is_err());
        let e = "bogus".parse::<GateKind>().unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn complement_is_involutive() {
        for kind in GateKind::ALL {
            if let Some(c) = kind.complement() {
                assert_eq!(c.complement(), Some(kind));
            }
        }
    }

    #[test]
    fn decomposition_core_only_for_reducible_kinds() {
        assert_eq!(
            GateKind::Nand.decomposition_core(),
            Some((GateKind::And, true))
        );
        assert_eq!(
            GateKind::Xor.decomposition_core(),
            Some((GateKind::Xor, false))
        );
        assert_eq!(GateKind::Maj.decomposition_core(), None);
        assert_eq!(GateKind::Not.decomposition_core(), None);
    }

    #[test]
    fn gate_counting_classification() {
        assert!(GateKind::And.counts_as_gate());
        assert!(GateKind::Not.counts_as_gate());
        assert!(!GateKind::Buf.counts_as_gate());
        assert!(!GateKind::Const0.counts_as_gate());
    }
}
