//! A practical subset of Berkeley BLIF (the native format of SIS).
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.names` with
//! single-output sum-of-products covers, `.latch` (cut into the
//! combinational envelope), `.clock` and `.end`. Line continuations with
//! `\` are handled. Covers are converted to gate networks on read (a row
//! becomes an AND of literals, rows are ORed, an off-set cover is
//! complemented) and gates are converted back to covers on write.
//!
//! Two shapes that gateconvert's writer emits are read as well. A
//! `.clock` name is a primary input, like an `.inputs` name: the
//! combinational envelope has no clock, but gates may read the clock
//! wire. A name that `.inputs` declares and a `.latch` drives is one
//! node, the latch's output (a state input); a `.names` cover that
//! defines it is still a duplicate.

use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;

use nanobound_logic::{GateKind, Netlist, Node, NodeId};

use crate::error::{ParseError, ParseErrorKind, WriteError};
use crate::names;
use crate::resolve::Symbols;
use crate::Design;

/// A `.names` statement: its output, its fanins (the other names of the
/// statement, a range of [`Symbols::args`]) and its rows.
struct Cover {
    output: usize,
    inputs: Range<usize>,
    /// The rows, as a range of the row list `(input pattern, output char)`.
    rows: Range<usize>,
    line: usize,
}

/// Parses BLIF text into a [`Design`].
///
/// # Errors
///
/// Returns a [`ParseError`] for missing `.model`, malformed covers,
/// unknown signals, duplicate definitions and combinational cycles.
///
/// # Examples
///
/// ```
/// let design = nanobound_io::blif::parse("\
/// .model tiny
/// .inputs a b
/// .outputs y
/// .names a b y
/// 11 1
/// .end
/// ")?;
/// assert_eq!(design.netlist.evaluate(&[true, true]).unwrap(), vec![true]);
/// # Ok::<(), nanobound_io::ParseError>(())
/// ```
pub fn parse(text: &str) -> Result<Design, ParseError> {
    let lines = logical_lines(text);
    let mut syms = Symbols::with_capacity(text.len() / 16);
    let mut model: Option<&str> = None;
    let mut inputs: Vec<usize> = Vec::new();
    let mut clocks: Vec<&str> = Vec::new();
    // `.outputs` and `.latch` names carry no line: they are reported at 0.
    let mut outputs: Vec<(usize, usize)> = Vec::new();
    let mut latches: Vec<(usize, usize, usize)> = Vec::new();
    let mut covers: Vec<Cover> = Vec::new();
    let mut rows: Vec<(&str, char)> = Vec::new();

    for (line_no, line) in &lines {
        let line_no = *line_no;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("nonempty line has a token");
        match head {
            ".model" => {
                model = Some(tokens.next().unwrap_or("unnamed"));
            }
            ".inputs" => inputs.extend(tokens.map(|name| syms.intern(name))),
            ".clock" => {
                for name in tokens {
                    inputs.push(syms.intern(name));
                    clocks.push(name);
                }
            }
            ".outputs" => outputs.extend(tokens.map(|name| (syms.intern(name), 0))),
            ".latch" => {
                let (Some(input), Some(output)) = (tokens.next(), tokens.next()) else {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::Syntax(".latch needs input and output".into()),
                    ));
                };
                latches.push((syms.intern(input), syms.intern(output), 0));
            }
            ".names" => {
                let Some(output) = tokens.next_back() else {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::Syntax(".names needs at least an output".into()),
                    ));
                };
                let start = syms.args.len();
                for name in tokens {
                    let sym = syms.intern(name);
                    syms.args.push(sym);
                }
                covers.push(Cover {
                    output: syms.intern(output),
                    inputs: start..syms.args.len(),
                    rows: rows.len()..rows.len(),
                    line: line_no,
                });
            }
            ".end" => break,
            ".exdc" | ".wire_load_slope" | ".default_input_arrival" => {
                // Harmless SIS extensions: ignore.
            }
            _ if head.starts_with('.') => {
                return Err(ParseError::at(
                    line_no,
                    ParseErrorKind::Syntax(format!("unsupported construct `{head}`")),
                ));
            }
            _ => {
                // A cover row for the most recent .names.
                let cover = covers.last_mut().ok_or_else(|| {
                    ParseError::at(line_no, ParseErrorKind::Syntax("row outside .names".into()))
                })?;
                let fanins = cover.inputs.len();
                let mut cols = line.split_whitespace();
                let (pattern, out_char) = match (cols.next(), cols.next(), cols.next()) {
                    (Some(out), None, None) if fanins == 0 => ("", out),
                    (Some(pat), Some(out), None) => (pat, out),
                    _ => {
                        return Err(ParseError::at(
                            line_no,
                            ParseErrorKind::BadCover(format!("expected `pattern value`: {line}")),
                        ));
                    }
                };
                // Validate literals before the width check: a multi-byte
                // character is a bad literal, not a width mismatch, and
                // once every literal is ASCII the byte length is the width.
                if !pattern.chars().all(|c| matches!(c, '0' | '1' | '-')) {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::BadCover(format!("bad literal in `{pattern}`")),
                    ));
                }
                if pattern.len() != fanins {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::BadCover(format!(
                            "pattern width {} does not match {fanins} inputs",
                            pattern.len()
                        )),
                    ));
                }
                let out = out_char.chars().next().expect("nonempty token");
                if !matches!(out, '0' | '1') {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::BadCover(format!("bad output value `{out_char}`")),
                    ));
                }
                rows.push((pattern, out));
                cover.rows.end = rows.len();
            }
        }
    }

    let model = model.ok_or(ParseError::at(0, ParseErrorKind::MissingModel))?;
    // Inputs and latch outputs are declared before any cover is defined,
    // so a cover that reuses their name is reported at its own line. The
    // first `.inputs` declaration of a latch output defers to the latch.
    let mut latch_output = vec![false; syms.len()];
    for &(_, output, _) in &latches {
        latch_output[output] = true;
    }
    for &sym in &inputs {
        if !std::mem::take(&mut latch_output[sym]) {
            syms.declare_input(sym, 0)?;
        }
    }
    for &(_, output, _) in &latches {
        syms.declare_input(output, 0)?;
    }
    for cover in covers {
        syms.define(cover.output, cover.rows, cover.inputs, cover.line)?;
    }
    let mut design = syms.finish(model, &outputs, &latches, |netlist, cover, fanins| {
        materialize_cover(netlist, &rows[cover.clone()], fanins)
    })?;
    design.clocks = clocks.into_iter().map(str::to_owned).collect();
    Ok(design)
}

/// Joins `\` continuations into logical lines, each numbered by its
/// first physical line, with comments stripped; a line that continues
/// nothing borrows from `text`.
fn logical_lines(text: &str) -> Vec<(usize, Cow<'_, str>)> {
    let mut lines = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let without_comment = raw.split('#').next().unwrap_or("");
        let continued = without_comment.trim_end().strip_suffix('\\');
        if pending.is_none() && continued.is_none() {
            lines.push((idx + 1, Cow::Borrowed(without_comment.trim())));
            continue;
        }
        let (line_no, mut buf) = pending.take().unwrap_or((idx + 1, String::new()));
        if !buf.is_empty() {
            buf.push(' ');
        }
        buf.push_str(continued.unwrap_or(without_comment).trim());
        if continued.is_some() {
            pending = Some((line_no, buf));
        } else {
            lines.push((line_no, Cow::Owned(buf)));
        }
    }
    lines.extend(pending.map(|(line_no, buf)| (line_no, Cow::Owned(buf))));
    lines
}

/// Converts a sum-of-products cover to gates and returns the driving node.
fn materialize_cover(
    netlist: &mut Netlist,
    rows: &[(&str, char)],
    fanins: &[NodeId],
) -> Result<NodeId, ParseErrorKind> {
    let Some(&(_, polarity)) = rows.first() else {
        // Empty cover: constant 0 (standard BLIF semantics).
        return Ok(netlist.add_const(false));
    };
    if rows.iter().any(|&(_, v)| v != polarity) {
        return Err(ParseErrorKind::BadCover(
            "mixed on-set and off-set rows".into(),
        ));
    }
    let mut row_nodes: Vec<NodeId> = Vec::with_capacity(rows.len());
    for (pattern, _) in rows {
        let mut literals: Vec<NodeId> = Vec::new();
        for (&fanin, c) in fanins.iter().zip(pattern.bytes()) {
            match c {
                b'1' => literals.push(fanin),
                b'0' => literals.push(
                    netlist
                        .add_gate(GateKind::Not, &[fanin])
                        .map_err(ParseErrorKind::Logic)?,
                ),
                _ => {}
            }
        }
        let node = match literals.len() {
            0 => netlist.add_const(true),
            1 => literals[0],
            _ => netlist
                .add_gate(GateKind::And, &literals)
                .map_err(ParseErrorKind::Logic)?,
        };
        row_nodes.push(node);
    }
    let or_node = match row_nodes.len() {
        1 => row_nodes[0],
        _ => netlist
            .add_gate(GateKind::Or, &row_nodes)
            .map_err(ParseErrorKind::Logic)?,
    };
    if polarity == '1' {
        Ok(or_node)
    } else {
        netlist
            .add_gate(GateKind::Not, &[or_node])
            .map_err(ParseErrorKind::Logic)
    }
}

/// Serializes a design to BLIF text.
///
/// # Errors
///
/// Returns [`WriteError::CoverTooWide`] if the netlist contains an
/// XOR/XNOR gate with more than 16 fanins (its cover would need 2^15+
/// rows); run the fanin decomposition first.
pub fn write(design: &Design) -> Result<String, WriteError> {
    let netlist = &design.netlist;
    let node_names = names::node_names(netlist);
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", sanitize(netlist.name())));

    let latch_outputs: Vec<&str> = design.latches.iter().map(|l| l.output.as_str()).collect();
    let real_inputs: Vec<&str> = netlist
        .inputs()
        .iter()
        .map(|&id| node_names[id.index()].as_str())
        .filter(|n| !latch_outputs.contains(n))
        .collect();
    // Clocks go on `.clock` lines. The parser declares `.inputs` and
    // `.clock` names in one sequence, so splitting the `.inputs` runs
    // around each clock keeps the inputs' node order.
    let clocks: HashSet<&str> = design.clocks.iter().map(String::as_str).collect();
    let head = |n: &str| {
        if clocks.contains(n) {
            ".clock"
        } else {
            ".inputs"
        }
    };
    let mut line = real_inputs.first().map_or(".inputs", |n| head(n));
    out.push_str(line);
    for n in real_inputs {
        if head(n) != line {
            line = head(n);
            out.push('\n');
            out.push_str(line);
        }
        out.push_str(&format!(" {n}"));
    }
    out.push('\n');
    out.push_str(".outputs");
    for o in netlist.outputs() {
        if !o.name.ends_with("$next") {
            out.push_str(&format!(" {}", o.name));
        }
    }
    out.push('\n');
    for latch in &design.latches {
        out.push_str(&format!(".latch {} {} 2\n", latch.input, latch.output));
    }

    for id in netlist.node_ids() {
        if let Node::Gate { kind, fanins } = netlist.node(id) {
            let ins: Vec<&str> = fanins
                .iter()
                .map(|f| node_names[f.index()].as_str())
                .collect();
            write_cover(&mut out, kind, &ins, &node_names[id.index()])?;
        }
    }
    for (alias, driver) in names::output_aliases(netlist, &node_names) {
        if !alias.ends_with("$next") {
            write_cover(
                &mut out,
                GateKind::Buf,
                &[&node_names[driver.index()]],
                &alias,
            )?;
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

fn sanitize(name: &str) -> String {
    if name.is_empty() {
        "unnamed".to_owned()
    } else {
        name.split_whitespace().collect::<Vec<_>>().join("_")
    }
}

/// Emits one gate as a `.names` cover.
fn write_cover(
    out: &mut String,
    kind: GateKind,
    ins: &[&str],
    output: &str,
) -> Result<(), WriteError> {
    out.push_str(".names");
    for i in ins {
        out.push_str(&format!(" {i}"));
    }
    out.push_str(&format!(" {output}\n"));
    let n = ins.len();
    match kind {
        GateKind::Const0 => {}
        GateKind::Const1 => out.push_str("1\n"),
        GateKind::Buf => out.push_str("1 1\n"),
        GateKind::Not => out.push_str("0 1\n"),
        GateKind::And => out.push_str(&format!("{} 1\n", "1".repeat(n))),
        GateKind::Nand => out.push_str(&format!("{} 0\n", "1".repeat(n))),
        GateKind::Or => {
            for i in 0..n {
                out.push_str(&one_hot_row(n, i, '1'));
            }
        }
        GateKind::Nor => {
            for i in 0..n {
                out.push_str(&one_hot_row(n, i, '0'));
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            if n > 16 {
                return Err(WriteError::CoverTooWide { fanin: n });
            }
            let want_odd = kind == GateKind::Xor;
            for bits in 0u32..(1u32 << n) {
                let odd = bits.count_ones() % 2 == 1;
                if odd == want_odd {
                    let pattern: String = (0..n)
                        .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    out.push_str(&format!("{pattern} 1\n"));
                }
            }
        }
        GateKind::Maj => {
            out.push_str("11- 1\n1-1 1\n-11 1\n");
        }
    }
    Ok(())
}

/// A row asserting input `hot` and don't-cares elsewhere, with output
/// `polarity`: `'1'` rows form OR's on-set, `'0'` rows NOR's off-set.
fn one_hot_row(n: usize, hot: usize, polarity: char) -> String {
    let pattern: String = (0..n).map(|i| if i == hot { '1' } else { '-' }).collect();
    format!("{pattern} {polarity}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_gate() {
        let d = parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n").unwrap();
        assert_eq!(d.netlist.evaluate(&[true, true]).unwrap(), vec![true]);
        assert_eq!(d.netlist.evaluate(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn parse_offset_cover() {
        // NOR written as complemented on-set.
        let d =
            parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 0\n-1 0\n.end\n").unwrap();
        assert_eq!(d.netlist.evaluate(&[false, false]).unwrap(), vec![true]);
        assert_eq!(d.netlist.evaluate(&[true, false]).unwrap(), vec![false]);
        assert_eq!(d.netlist.evaluate(&[false, true]).unwrap(), vec![false]);
    }

    #[test]
    fn parse_constants() {
        let d = parse(".model m\n.outputs y z\n.names y\n.names z\n1\n.end\n").unwrap();
        assert_eq!(d.netlist.evaluate(&[]).unwrap(), vec![false, true]);
    }

    #[test]
    fn dont_cares_expand() {
        // y = a (b is don't care).
        let d = parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n.end\n").unwrap();
        assert_eq!(d.netlist.evaluate(&[true, false]).unwrap(), vec![true]);
        assert_eq!(d.netlist.evaluate(&[true, true]).unwrap(), vec![true]);
        assert_eq!(d.netlist.evaluate(&[false, true]).unwrap(), vec![false]);
    }

    #[test]
    fn continuation_lines() {
        let d =
            parse(".model m\n.inputs a \\\n b\n.outputs y\n.names a b y\n11 1\n.end\n").unwrap();
        assert_eq!(d.netlist.input_count(), 2);
    }

    #[test]
    fn latch_cut() {
        let d = parse(
            ".model m\n.inputs d\n.outputs y\n.latch nd q 2\n.names d nd\n0 1\n.names q d y\n11 1\n.end\n",
        )
        .unwrap();
        assert!(d.is_sequential());
        assert_eq!(d.netlist.input_count(), 2); // d + pseudo q
        assert_eq!(d.netlist.output_count(), 2); // y + q$next
    }

    #[test]
    fn state_input_is_the_latch_output() {
        // gateconvert declares the state input i0 in `.inputs` and again
        // as the latch output.
        let text = ".model m\n.inputs i0 a\n.outputs y\n.latch o0 i0 2\n\
                    .names i0 a o0\n10 1\n01 1\n.names o0 y\n1 1\n.end\n";
        let d = parse(text).unwrap();
        assert_eq!(d.netlist.input_count(), 2, "a, then the state input i0");
        assert_eq!(d.netlist.signal_name(d.netlist.inputs()[1]), "i0");
        let two = crate::unroll::unroll_free(&d, 2).unwrap();
        assert_eq!(two.input_count(), 3, "i0@init, a@0 and a@1");
        // y@0 = i0 ^ a@0, y@1 = (i0 ^ a@0) ^ a@1, and i0$final.
        assert_eq!(
            two.evaluate(&[true, false, true]).unwrap(),
            vec![true, false, false]
        );

        let twice = text.replace(".inputs i0 a", ".inputs i0 a i0");
        let err = parse(&twice).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateDefinition("i0".into()));
        let covered = text.replace(".names o0 y", ".names a i0\n1 1\n.names o0 y");
        let err = parse(&covered).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::DuplicateDefinition("i0".into()));
        assert_eq!(err.line, 8, "at the cover that defines i0");
    }

    #[test]
    fn clock_names_are_primary_inputs() {
        let text = ".model m\n.inputs a\n.clock clk\n.outputs y\n.latch d q 2\n\
                    .names a clk q y\n111 1\n.names a d\n0 1\n.end\n";
        let d = parse(text).unwrap();
        let names: Vec<String> = d
            .netlist
            .inputs()
            .iter()
            .map(|&id| d.netlist.signal_name(id))
            .collect();
        assert_eq!(names, ["a", "clk", "q"]);
        assert_eq!(d.clocks, ["clk"]);
        assert!(d.netlist.evaluate(&[true, true, true]).unwrap()[0]);
        assert!(!d.netlist.evaluate(&[true, false, true]).unwrap()[0]);
    }

    #[test]
    fn missing_model_rejected() {
        let err = parse(".inputs a\n.outputs y\n.names a y\n1 1\n.end\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MissingModel));
    }

    #[test]
    fn mixed_polarity_cover_rejected() {
        let err =
            parse(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadCover(_)));
    }

    #[test]
    fn bad_pattern_width_rejected() {
        let err =
            parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadCover(_)));
        assert_eq!(err.line, 5);
    }

    #[test]
    fn multibyte_garbage_row_reports_bad_literal_not_width() {
        // "1µ" is 3 bytes but 2 characters: with the old byte-width
        // check this row was rejected as "pattern width 3 does not
        // match 2 inputs" — misleading, since the width is right and
        // the *literal* is bad.
        let err = parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n1\u{b5} 1\n.end\n")
            .unwrap_err();
        match &err.kind {
            ParseErrorKind::BadCover(msg) => {
                assert!(msg.contains("bad literal"), "wrong diagnosis: {msg}");
                assert!(!msg.contains("width"), "still a width error: {msg}");
            }
            other => panic!("expected BadCover, got {other:?}"),
        }
        assert_eq!(err.line, 5);
    }

    #[test]
    fn multibyte_row_of_wrong_length_also_reports_bad_literal_first() {
        // Literal validation runs before the width check, so garbage
        // rows are never misdiagnosed as width mismatches.
        let err = parse(".model m\n.inputs a b\n.outputs y\n.names a b y\n11\u{20ac} 1\n.end\n")
            .unwrap_err();
        assert!(
            matches!(&err.kind, ParseErrorKind::BadCover(msg) if msg.contains("bad literal")),
            "expected bad-literal BadCover, got {:?}",
            err.kind
        );
    }

    #[test]
    fn unknown_signal_rejected() {
        let err =
            parse(".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownSignal(ref s) if s == "ghost"));
    }

    #[test]
    fn cycle_rejected() {
        let err =
            parse(".model m\n.inputs a\n.outputs y\n.names a z y\n11 1\n.names y z\n1 1\n.end\n")
                .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::CombinationalCycle(_)));
    }

    #[test]
    fn roundtrip_every_gate_kind() {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        for (idx, kind) in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ]
        .into_iter()
        .enumerate()
        {
            let g = nl.add_gate(kind, &[a, b, c]).unwrap();
            nl.add_output(format!("y{idx}"), g).unwrap();
        }
        let m = nl.add_gate(GateKind::Maj, &[a, b, c]).unwrap();
        nl.add_output("ymaj", m).unwrap();
        let inv = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.add_output("yinv", inv).unwrap();
        let k1 = nl.add_const(true);
        nl.add_output("k1", k1).unwrap();

        let text = write(&Design::combinational(nl.clone())).unwrap();
        let d2 = parse(&text).unwrap();
        for bits in 0u32..8 {
            let assignment: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                nl.evaluate(&assignment).unwrap(),
                d2.netlist.evaluate(&assignment).unwrap(),
                "mismatch at {bits:03b}"
            );
        }
    }

    #[test]
    fn wide_xor_write_rejected() {
        let mut nl = Netlist::new("wide");
        let ins: Vec<_> = (0..20).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(GateKind::Xor, &ins).unwrap();
        nl.add_output("y", g).unwrap();
        let err = write(&Design::combinational(nl)).unwrap_err();
        assert!(matches!(err, WriteError::CoverTooWide { fanin: 20 }));
    }

    #[test]
    fn unsupported_construct_reports_line() {
        let err = parse(".model m\n.gate NAND2 a=x b=y O=z\n.end\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::Syntax(_)));
    }
}
