//! The ISCAS `.bench` netlist format.
//!
//! Grammar (one statement per line, `#` starts a comment):
//!
//! ```text
//! INPUT(a)
//! OUTPUT(y)
//! y = NAND(a, b)
//! q = DFF(d)
//! ```
//!
//! Definitions may appear in any order; the parser topologically sorts
//! them. `DFF` statements are cut into the combinational envelope (see the
//! crate docs). As extensions beyond the classic format, `CONST0()`,
//! `CONST1()` and `MAJ(a, b, c)` are accepted, which lets every netlist in
//! this workspace round-trip.

use nanobound_logic::{GateKind, Node};

use crate::error::{ParseError, ParseErrorKind};
use crate::names;
use crate::resolve::Symbols;
use crate::Design;

/// Parses `.bench` text into a [`Design`].
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line for syntax errors,
/// unknown gates or signals, duplicate definitions, bad arities and
/// combinational cycles.
///
/// # Examples
///
/// ```
/// let design = nanobound_io::bench::parse("\
/// INPUT(a)   # comments are allowed
/// OUTPUT(y)
/// y = NOT(a)
/// ")?;
/// assert_eq!(design.netlist.evaluate(&[true]).unwrap(), vec![false]);
/// # Ok::<(), nanobound_io::ParseError>(())
/// ```
pub fn parse(text: &str) -> Result<Design, ParseError> {
    // A netlist line is rarely shorter than 16 bytes and names about one
    // new signal; sizing the index up front saves rehashing it as it grows.
    let mut syms = Symbols::with_capacity(text.len() / 16);
    let mut inputs: Vec<(usize, usize)> = Vec::new();
    let mut outputs: Vec<(usize, usize)> = Vec::new();
    // (data input, latch output, line) per DFF.
    let mut latches: Vec<(usize, usize, usize)> = Vec::new();
    let mut line = Line::default();

    let bytes = text.as_bytes();
    let mut at = 0;
    let mut line_no = 0;
    while at < bytes.len() {
        line_no += 1;
        at = line.scan(bytes, at);
        let (lo, hi) = trim(text, line.start, line.cut);
        if lo == hi {
            continue;
        }
        let syntax = || ParseError::at(line_no, ParseErrorKind::Syntax(text[lo..hi].to_owned()));
        match bytes[lo] {
            b'I' => {
                if let Some(name) = decl(text, lo, hi, b"INPUT") {
                    inputs.push((syms.intern(name), line_no));
                    continue;
                }
            }
            b'O' => {
                if let Some(name) = decl(text, lo, hi, b"OUTPUT") {
                    outputs.push((syms.intern(name), line_no));
                    continue;
                }
            }
            _ => {}
        }
        let Some(eq) = line.eq else {
            return Err(syntax());
        };
        let (lhs_lo, lhs_hi) = trim(text, lo, eq);
        if lhs_lo == lhs_hi {
            return Err(syntax());
        }
        let lhs = &text[lhs_lo..lhs_hi];
        // `KIND(args)`: the line must end in `)` after the first `(` that
        // follows the `=`, and every comma after that `(` lies before it.
        let Some(open) = line.open.filter(|_| bytes[hi - 1] == b')') else {
            return Err(syntax());
        };
        let (kind_lo, kind_hi) = trim(text, eq + 1, open);
        let kind_name = &text[kind_lo..kind_hi];
        let kind = GateKind::from_name(kind_name);
        let dff = kind.is_none() && kind_name.eq_ignore_ascii_case("DFF");
        // No kind name with whitespace in it is valid, so only an unknown
        // one needs the check.
        if kind_name.is_empty()
            || (kind.is_none() && !dff && kind_name.contains(char::is_whitespace))
        {
            return Err(syntax());
        }
        let start = syms.args.len();
        let mut from = open + 1;
        for &to in &line.commas {
            let (arg_lo, arg_hi) = trim(text, from, to);
            if arg_lo == arg_hi {
                return Err(syntax());
            }
            let sym = syms.intern(&text[arg_lo..arg_hi]);
            syms.args.push(sym);
            from = to + 1;
        }
        // The last argument runs to the final `)`; `KIND()` has none.
        let (arg_lo, arg_hi) = trim(text, from, hi - 1);
        if arg_lo < arg_hi {
            let sym = syms.intern(&text[arg_lo..arg_hi]);
            syms.args.push(sym);
        } else if !line.commas.is_empty() {
            return Err(syntax());
        }
        let args = start..syms.args.len();
        if dff {
            if args.len() != 1 {
                return Err(ParseError::at(
                    line_no,
                    ParseErrorKind::BadCover(format!("DFF takes 1 argument, got {}", args.len())),
                ));
            }
            latches.push((syms.args[start], syms.intern(lhs), line_no));
            syms.args.truncate(start);
            continue;
        }
        let kind = kind.ok_or_else(|| {
            ParseError::at(line_no, ParseErrorKind::UnknownGate(kind_name.to_owned()))
        })?;
        let sym = syms.intern(lhs);
        syms.define(sym, kind, args, line_no)?;
    }

    // Gates are defined while scanning, so an INPUT or DFF that reuses
    // a gate's name is reported at its own line.
    for &(sym, line) in &inputs {
        syms.declare_input(sym, line)?;
    }
    for &(_, output, line) in &latches {
        syms.declare_input(output, line)?;
    }
    syms.finish("bench", &outputs, &latches, |netlist, &kind, fanins| {
        netlist
            .add_gate(kind, fanins)
            .map_err(ParseErrorKind::Logic)
    })
}

/// What one forward scan finds in a line, as byte offsets into the text.
#[derive(Default)]
struct Line {
    /// The line's first byte.
    start: usize,
    /// The end of its statement: its first `#`, else its `\n` or the
    /// end of the text.
    cut: usize,
    /// The statement's first `=`.
    eq: Option<usize>,
    /// The first `(` after [`Line::eq`].
    open: Option<usize>,
    /// Every `,` after [`Line::open`]; reused from line to line.
    commas: Vec<usize>,
}

impl Line {
    /// Scans the line that starts at `start`, eight bytes per step, and
    /// returns where the next one starts. Lines end at `\n` only, as
    /// [`str::lines`] splits them; the `\r` of a `\r\n` is whitespace
    /// that [`trim`] strips.
    fn scan(&mut self, bytes: &[u8], start: usize) -> usize {
        self.start = start;
        self.eq = None;
        self.open = None;
        self.commas.clear();
        let mut at = start;
        loop {
            let word = word_at(bytes, at);
            let ends = equal_bytes(word, b'\n') | equal_bytes(word, b'#');
            // The bytes before the statement's end: everything below the
            // lowest marked byte, or the whole word.
            let mut live = (ends & ends.wrapping_neg()).wrapping_sub(1);
            if self.eq.is_none() {
                let m = equal_bytes(word, b'=') & live;
                live = if m == 0 {
                    0
                } else {
                    self.eq = Some(at + first_byte(m));
                    live & above_first(m)
                };
            }
            if self.eq.is_some() && self.open.is_none() {
                let m = equal_bytes(word, b'(') & live;
                live = if m == 0 {
                    0
                } else {
                    self.open = Some(at + first_byte(m));
                    live & above_first(m)
                };
            }
            if self.open.is_some() {
                let mut m = equal_bytes(word, b',') & live;
                while m != 0 {
                    self.commas.push(at + first_byte(m));
                    m &= m - 1;
                }
            }
            if ends != 0 {
                self.cut = at + first_byte(ends);
                break;
            }
            at += 8;
        }
        let rest = &bytes[self.cut..];
        match rest.first() {
            Some(b'#') => match rest.iter().position(|&b| b == b'\n') {
                Some(newline) => self.cut + newline + 1,
                None => bytes.len(),
            },
            Some(_) => self.cut + 1,
            None => bytes.len(),
        }
    }
}

/// The eight bytes at `at`, little-endian; past the end of the text,
/// newlines, so every line ends within the text or at its end.
fn word_at(bytes: &[u8], at: usize) -> u64 {
    if let Some(word) = bytes.get(at..at + 8) {
        return u64::from_le_bytes(word.try_into().expect("eight bytes"));
    }
    let mut word = [b'\n'; 8];
    word[..bytes.len() - at].copy_from_slice(&bytes[at..]);
    u64::from_le_bytes(word)
}

/// The high bit of every byte of `word` that equals `byte`, exactly:
/// per byte, `(x & 0x7f) + 0x7f` reaches the high bit unless the low
/// seven bits are zero, and never carries into the next byte.
fn equal_bytes(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (0x0101_0101_0101_0101 * u64::from(byte));
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The index of the lowest byte marked in a nonzero `equal_bytes` mask.
fn first_byte(mask: u64) -> usize {
    mask.trailing_zeros() as usize / 8
}

/// The bits above the lowest bit set in the nonzero `mask`.
fn above_first(mask: u64) -> u64 {
    !(mask ^ (mask - 1))
}

/// The range `lo..hi` of `text` without the whitespace [`str::trim`]
/// strips: ASCII whitespace byte by byte, and `str::trim` itself only
/// when a non-ASCII byte is left at either end (the Unicode spaces).
/// Both ends of `lo..hi` must be on character boundaries.
fn trim(text: &str, mut lo: usize, mut hi: usize) -> (usize, usize) {
    let bytes = text.as_bytes();
    while lo < hi && is_space(bytes[lo]) {
        lo += 1;
    }
    while hi > lo && is_space(bytes[hi - 1]) {
        hi -= 1;
    }
    if lo < hi && (!bytes[lo].is_ascii() || !bytes[hi - 1].is_ascii()) {
        let rest = &text[lo..hi];
        let start = lo + rest.len() - rest.trim_start().len();
        return (start, start + rest.trim().len());
    }
    (lo, hi)
}

/// The ASCII bytes [`char::is_whitespace`] accepts (U+0009–U+000D and
/// the space) — unlike [`u8::is_ascii_whitespace`], which leaves out
/// the vertical tab.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Matches `KEYWORD(name)` in the trimmed line `lo..hi`: the keyword,
/// optional whitespace, `(`, a name without `(`, `)` or `,`, and the
/// line's final `)`.
fn decl<'t>(text: &'t str, lo: usize, hi: usize, keyword: &[u8]) -> Option<&'t str> {
    let bytes = text.as_bytes();
    if !bytes[lo..hi].starts_with(keyword) || bytes[hi - 1] != b')' {
        return None;
    }
    let (open, _) = trim(text, lo + keyword.len(), hi);
    if bytes[open] != b'(' {
        return None;
    }
    let (name_lo, name_hi) = trim(text, open + 1, hi - 1);
    let name = &bytes[name_lo..name_hi];
    (!name.is_empty() && !name.iter().any(|b| matches!(b, b'(' | b')' | b',')))
        .then(|| &text[name_lo..name_hi])
}

/// Serializes a design to `.bench` text.
///
/// Gates are emitted in topological order; outputs whose driver already has
/// a different canonical name are emitted as `BUFF` aliases. Latches are
/// restored from the design's latch list.
///
/// # Examples
///
/// ```
/// use nanobound_io::{bench, Design};
/// use nanobound_logic::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a])?;
/// nl.add_output("y", g)?;
/// let text = bench::write(&Design::combinational(nl));
/// let back = bench::parse(&text)?;
/// assert_eq!(back.netlist.evaluate(&[false])?, vec![true]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write(design: &Design) -> String {
    let netlist = &design.netlist;
    let node_names = names::node_names(netlist);
    let mut out = String::new();
    out.push_str(&format!("# {}\n", netlist.name()));

    let latch_outputs: Vec<&str> = design.latches.iter().map(|l| l.output.as_str()).collect();
    for &id in netlist.inputs() {
        let name = &node_names[id.index()];
        if !latch_outputs.contains(&name.as_str()) {
            out.push_str(&format!("INPUT({name})\n"));
        }
    }
    for o in netlist.outputs() {
        if !o.name.ends_with("$next") {
            out.push_str(&format!("OUTPUT({})\n", o.name));
        }
    }
    out.push('\n');
    for latch in &design.latches {
        // The recorded input name may be stale (the parser renames internal
        // signals); resolve it through the `<q>$next` pseudo-output instead.
        let d_name = netlist
            .outputs()
            .iter()
            .find(|o| o.name == format!("{}$next", latch.output))
            .map_or_else(
                || latch.input.clone(),
                |o| node_names[o.driver.index()].clone(),
            );
        out.push_str(&format!("{} = DFF({d_name})\n", latch.output));
    }
    for id in netlist.node_ids() {
        if let Node::Gate { kind, fanins } = netlist.node(id) {
            let args: Vec<&str> = fanins
                .iter()
                .map(|f| node_names[f.index()].as_str())
                .collect();
            out.push_str(&format!(
                "{} = {}({})\n",
                node_names[id.index()],
                kind,
                args.join(", ")
            ));
        }
    }
    for (alias, driver) in names::output_aliases(netlist, &node_names) {
        if !alias.ends_with("$next") {
            out.push_str(&format!("{alias} = BUFF({})\n", node_names[driver.index()]));
        }
    }
    out
}

/// The classic ISCAS'85 `c17` benchmark, verbatim.
///
/// The smallest ISCAS'85 circuit (6 NAND gates); used as a golden reference
/// in tests and examples.
pub const C17: &str = "\
# c17 (ISCAS'85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_logic::Netlist;

    #[test]
    fn parse_c17() {
        let d = parse(C17).unwrap();
        assert_eq!(d.netlist.input_count(), 5);
        assert_eq!(d.netlist.output_count(), 2);
        assert_eq!(d.netlist.gate_count(), 6);
        assert!(!d.is_sequential());
        // All-zero inputs: every NAND of zeros is 1 -> 22 = NAND(1,1) = 0.
        let v = d.netlist.evaluate(&[false; 5]).unwrap();
        assert_eq!(v, vec![false, false]);
    }

    #[test]
    fn source_lines_cover_every_node() {
        let d = parse(
            "\
INPUT(a)
INPUT(b)
OUTPUT(y)
m = NOT(a)
y = AND(m, b)
",
        )
        .unwrap();
        assert_eq!(d.source_lines.len(), d.netlist.node_count());
        let line_of = |name: &str| {
            let id = d
                .netlist
                .node_ids()
                .find(|&id| d.netlist.signal_name(id) == name)
                .unwrap();
            d.source_line(id).unwrap()
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 2);
        assert_eq!(line_of("y"), 5);
    }

    #[test]
    fn out_of_order_definitions() {
        let d = parse(
            "\
OUTPUT(y)
y = AND(m, n)
m = NOT(a)
n = NOT(b)
INPUT(a)
INPUT(b)
",
        )
        .unwrap();
        assert_eq!(d.netlist.gate_count(), 3);
        assert_eq!(d.netlist.evaluate(&[false, false]).unwrap(), vec![true]);
    }

    #[test]
    fn dff_cut_into_envelope() {
        let d = parse(
            "\
INPUT(d)
OUTPUT(y)
q = DFF(nd)
nd = NOT(d)
y = AND(q, d)
",
        )
        .unwrap();
        assert!(d.is_sequential());
        assert_eq!(d.latches.len(), 1);
        // Inputs: d, then pseudo-input q. Outputs: y, then q$next.
        assert_eq!(d.netlist.input_count(), 2);
        assert_eq!(d.netlist.output_count(), 2);
        let v = d.netlist.evaluate(&[true, true]).unwrap();
        assert_eq!(v, vec![true, false]); // y = q AND d, q$next = NOT d
    }

    #[test]
    fn unknown_gate_reports_line() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, ParseErrorKind::UnknownGate(_)));
    }

    #[test]
    fn unknown_signal_detected() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownSignal(ref s) if s == "ghost"));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateDefinition(_)));
    }

    #[test]
    fn cycle_detected() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::CombinationalCycle(_)));
    }

    #[test]
    fn syntax_error_reports_line() {
        let err = parse("INPUT(a)\nthis is not bench\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::Syntax(_)));
    }

    #[test]
    fn bad_arity_rejected() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Logic(_)));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn const_extension() {
        let d = parse("OUTPUT(y)\nk = CONST1()\ny = BUF(k)\n").unwrap();
        assert_eq!(d.netlist.evaluate(&[]).unwrap(), vec![true]);
    }

    #[test]
    fn roundtrip_c17() {
        let d = parse(C17).unwrap();
        let text = write(&d);
        let d2 = parse(&text).unwrap();
        assert_eq!(d2.netlist.input_count(), 5);
        assert_eq!(d2.netlist.gate_count(), 6);
        for bits in 0u32..32 {
            let assignment: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                d.netlist.evaluate(&assignment).unwrap(),
                d2.netlist.evaluate(&assignment).unwrap(),
                "mismatch at {bits:05b}"
            );
        }
    }

    #[test]
    fn roundtrip_sequential() {
        let src = "\
INPUT(d)
OUTPUT(y)
q = DFF(nd)
nd = NOT(d)
y = AND(q, d)
";
        let d = parse(src).unwrap();
        let text = write(&d);
        let d2 = parse(&text).unwrap();
        // Internal signal names may be canonicalized, but the latch set and
        // interface must survive, and a second round-trip must be stable.
        assert_eq!(d2.latches.len(), d.latches.len());
        assert_eq!(d2.latches[0].output, d.latches[0].output);
        assert_eq!(d2.netlist.output_count(), d.netlist.output_count());
        assert_eq!(d2.netlist.input_count(), d.netlist.input_count());
        let text2 = write(&d2);
        assert_eq!(
            parse(&text2).unwrap().netlist.gate_count(),
            d2.netlist.gate_count()
        );
    }

    #[test]
    fn shared_output_driver_roundtrips() {
        let mut nl = Netlist::new("shared");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.add_output("y1", g).unwrap();
        nl.add_output("y2", g).unwrap();
        let text = write(&Design::combinational(nl));
        let d = parse(&text).unwrap();
        assert_eq!(d.netlist.output_count(), 2);
        let v = d.netlist.evaluate(&[false]).unwrap();
        assert_eq!(v, vec![true, true]);
    }

    /// Every error below is pinned exactly — kind, payload and line — so
    /// a parser rewrite cannot change which error a bad file reports.
    fn error_of(text: &str) -> ParseError {
        parse(text).expect_err("the netlist is malformed")
    }

    #[test]
    fn cycle_reachable_only_through_a_dead_gate() {
        // No output reaches d1/d2; the sorted dead-gate sweep expands d1
        // first and finds the cycle at d2, whose fanin d1 is on the path.
        let err = error_of("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nd1 = AND(a, d2)\nd2 = OR(d1, a)\n");
        assert_eq!(
            err,
            ParseError::at(5, ParseErrorKind::CombinationalCycle("d1".to_owned()))
        );
    }

    #[test]
    fn unknown_signal_in_a_dead_gate() {
        let err = error_of("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = AND(a, ghost)\n");
        assert_eq!(
            err,
            ParseError::at(4, ParseErrorKind::UnknownSignal("ghost".to_owned()))
        );
    }

    #[test]
    fn input_name_reused_as_a_dff_output() {
        let err = error_of("INPUT(a)\nINPUT(q)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n");
        assert_eq!(
            err,
            ParseError::at(4, ParseErrorKind::DuplicateDefinition("q".to_owned()))
        );
    }

    #[test]
    fn duplicate_output_line() {
        let err = error_of("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nOUTPUT(y)\n");
        assert_eq!(
            err,
            ParseError::at(
                4,
                ParseErrorKind::Logic(nanobound_logic::LogicError::DuplicateOutput {
                    name: "y".to_owned()
                })
            )
        );
    }

    #[test]
    fn undefined_output_has_no_line() {
        // Resolution reaches the undefined root before the output pass
        // could attach a line to it.
        let err = error_of("INPUT(a)\nOUTPUT(ghost)\n");
        assert_eq!(
            err,
            ParseError::at(0, ParseErrorKind::UnknownSignal("ghost".to_owned()))
        );
    }

    #[test]
    fn first_error_in_line_order_wins_the_scan() {
        // A duplicate gate is reported at its second definition; an INPUT
        // shadowing a gate at the INPUT line, before any resolution.
        let err = error_of("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\nz = FROB(a)\n");
        assert_eq!(
            err,
            ParseError::at(4, ParseErrorKind::DuplicateDefinition("y".to_owned()))
        );
        let err = error_of("OUTPUT(y)\ny = NOT(a)\nINPUT(a)\nINPUT(y)\n");
        assert_eq!(
            err,
            ParseError::at(4, ParseErrorKind::DuplicateDefinition("y".to_owned()))
        );
    }

    #[test]
    fn whitespace_and_comments_tolerated() {
        let d =
            parse("  INPUT( a )  # the input\n\nOUTPUT(y)\n y  =  NOT( a ) # invert\n").unwrap();
        assert_eq!(d.netlist.gate_count(), 1);
    }

    /// The reader's outcome on `text`: node order (inputs by name, gates
    /// as `KIND(fanin ids)`, then `output=driver`), or the error's line
    /// and kind.
    fn outcome(text: &str) -> String {
        match parse(text) {
            Ok(d) => {
                let nl = &d.netlist;
                let nodes: Vec<String> = nl
                    .nodes()
                    .map(|node| match node {
                        Node::Input { name } => format!("{name:?}"),
                        Node::Gate { kind, fanins } => {
                            let ids: Vec<String> =
                                fanins.iter().map(|f| f.index().to_string()).collect();
                            format!("{kind}({})", ids.join(","))
                        }
                    })
                    .collect();
                let outputs: Vec<String> = nl
                    .outputs()
                    .iter()
                    .map(|o| format!("{:?}={}", o.name, o.driver.index()))
                    .collect();
                format!("{} | {}", nodes.join(" "), outputs.join(" "))
            }
            Err(e) => format!("line {}: {:?}", e.line, e.kind),
        }
    }

    /// Byte-level edge cases, each with the outcome the `str`-pipeline
    /// reader gave; the scanner must reproduce every one.
    const EDGE_CASES: [(&str, &str); 32] = [
        (
            "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r\n",
            "\"a\" \"b\" AND(0,1) | \"y\"=2",
        ),
        (
            "INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a) # x\r\n\r\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "\tINPUT(a)\t\nOUTPUT(y)\ny\t=\tNOT(\ta\t)\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # a comment ( , = )\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a# cut)\n",
            "line 3: Syntax(\"y = NOT(a\")",
        ),
        (
            "INPUT(a#b)\nOUTPUT(y)\ny = NOT(a)\n",
            "line 1: Syntax(\"INPUT(a\")",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny# = NOT(a)\n",
            "line 3: Syntax(\"y\")",
        ),
        (
            "#INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(b)\n",
            "\"b\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(\u{a0}a\u{a0})\nOUTPUT(y)\ny = NOT(\u{85}a\u{85})\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "\u{a0}INPUT(a)\u{85}\nOUTPUT(y)\n\u{85}y\u{a0}=\u{a0}NOT\u{a0}(a)\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a\u{a0}b)\nOUTPUT(y)\ny = NOT(a\u{a0}b)\n",
            "\"a\\u{a0}b\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = N\u{85}OT(a)\n",
            "line 3: Syntax(\"y = N\\u{85}OT(a)\")",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT\u{b}(a)\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,,b)\n",
            "line 4: Syntax(\"y = AND(a,,b)\")",
        ),
        (
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b))\n",
            "line 4: UnknownSignal(\"b)\")",
        ),
        (
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND (a, b)\n",
            "\"a\" \"b\" AND(0,1) | \"y\"=2",
        ),
        (
            "INPUT( a )\nOUTPUT(y)\ny = NOT(a)\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a b)\nOUTPUT(y)\ny = NOT(a b)\n",
            "\"a b\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = and(a, b)\nz = xOr(a, y)\n",
            "\"a\" \"b\" AND(0,1) XOR(0,2) | \"y\"=2",
        ),
        (
            "INPUT(d)\nOUTPUT(y)\nq = dff(d)\ny = not(q)\n",
            "\"d\" \"q\" NOT(1) | \"y\"=2 \"q$next\"=0",
        ),
        (
            "input(a)\nOUTPUT(y)\ny = NOT(a)\n",
            "line 1: Syntax(\"input(a)\")",
        ),
        (
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(a, b)\ny = NOT(q)\n",
            "line 4: BadCover(\"DFF takes 1 argument, got 2\")",
        ),
        ("", " | "),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nw = AND(a, y)=\n",
            "line 4: Syntax(\"w = AND(a, y)=\")",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\rz = NOT(a)\n",
            "line 3: UnknownSignal(\"a)\\rz = NOT(a\")",
        ),
        (
            "INPUT(a)\u{2028}\nOUTPUT(y)\ny = NOT(\u{3000}a)\n",
            "\"a\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a=b)\nOUTPUT(y)\ny = NOT(a=b)\n",
            "\"a=b\" NOT(0) | \"y\"=1",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\n = NOT(a)\n",
            "line 3: Syntax(\"= NOT(a)\")",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = (a)\n",
            "line 3: Syntax(\"y = (a)\")",
        ),
        (
            "INPUT(a)\nOUTPUT(y)\ny = NOT()\n",
            "line 3: Logic(ArityMismatch { kind: Not, got: 0 })",
        ),
        (
            "INPUT(a)\nOUTPUT()\ny = NOT(a)\n",
            "line 2: Syntax(\"OUTPUT()\")",
        ),
        (
            "INPUT(x(y)\nOUTPUT(y)\nx(y = NOT(a)\n",
            "line 1: Syntax(\"INPUT(x(y)\")",
        ),
    ];

    #[test]
    fn space_bytes_are_the_ascii_whitespace_of_str_trim() {
        for b in 0..128u8 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "byte {b:#04x}");
        }
    }

    #[test]
    fn equal_bytes_marks_exactly_the_matching_bytes() {
        // Every byte value at every position, against neighbours that
        // differ from the target by one bit, by borrow-prone values and
        // by the target itself.
        for target in [b'\n', b'#', b'=', b'(', b',', 0x00, 0x80, 0xff] {
            for value in 0..=255u8 {
                for at in 0..8 {
                    for fill in [0x00, 0x01, 0x7f, 0x80, 0xff, target ^ 1, target] {
                        let mut word = [fill; 8];
                        word[at] = value;
                        let want = word
                            .iter()
                            .enumerate()
                            .fold(0u64, |m, (k, &b)| m | u64::from(b == target) << (8 * k + 7));
                        assert_eq!(equal_bytes(u64::from_le_bytes(word), target), want);
                    }
                }
            }
        }
    }

    #[test]
    fn scanner_edge_cases_match_the_str_reader() {
        for (text, expected) in EDGE_CASES {
            let got = outcome(text);
            assert_eq!(got, expected, "on {text:?}");
        }
    }
}
