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

use std::collections::HashMap;

use nanobound_logic::{GateKind, Netlist, Node, NodeId};

use crate::error::{ParseError, ParseErrorKind};
use crate::names;
use crate::{Design, Latch};

/// One parsed `name = KIND(args)` statement.
struct GateDef {
    kind: GateKind,
    args: Vec<String>,
    line: usize,
}

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
    let mut inputs: Vec<(String, usize)> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut defs: HashMap<String, GateDef> = HashMap::new();
    let mut latches: Vec<(Latch, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = parse_decl(line, "INPUT") {
            inputs.push((name.to_owned(), line_no));
        } else if let Some(name) = parse_decl(line, "OUTPUT") {
            outputs.push((name.to_owned(), line_no));
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let lhs = lhs.trim();
            if lhs.is_empty() {
                return Err(ParseError::at(
                    line_no,
                    ParseErrorKind::Syntax(line.to_owned()),
                ));
            }
            let (kind_name, args) = parse_call(rhs.trim())
                .ok_or_else(|| ParseError::at(line_no, ParseErrorKind::Syntax(line.to_owned())))?;
            if kind_name.eq_ignore_ascii_case("DFF") {
                if args.len() != 1 {
                    return Err(ParseError::at(
                        line_no,
                        ParseErrorKind::BadCover(format!(
                            "DFF takes 1 argument, got {}",
                            args.len()
                        )),
                    ));
                }
                latches.push((
                    Latch {
                        input: args[0].clone(),
                        output: lhs.to_owned(),
                    },
                    line_no,
                ));
                continue;
            }
            let kind: GateKind = kind_name.parse().map_err(|_| {
                ParseError::at(line_no, ParseErrorKind::UnknownGate(kind_name.clone()))
            })?;
            let def = GateDef {
                kind,
                args,
                line: line_no,
            };
            if defs.insert(lhs.to_owned(), def).is_some() {
                return Err(ParseError::at(
                    line_no,
                    ParseErrorKind::DuplicateDefinition(lhs.to_owned()),
                ));
            }
        } else {
            return Err(ParseError::at(
                line_no,
                ParseErrorKind::Syntax(line.to_owned()),
            ));
        }
    }

    let mut netlist = Netlist::new("bench");
    // Per-node source lines, pushed in lockstep with node creation.
    let mut lines: Vec<usize> = Vec::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for (name, line) in &inputs {
        if ids.contains_key(name) {
            return Err(ParseError::at(
                *line,
                ParseErrorKind::DuplicateDefinition(name.clone()),
            ));
        }
        if defs.contains_key(name) {
            return Err(ParseError::at(
                *line,
                ParseErrorKind::DuplicateDefinition(name.clone()),
            ));
        }
        ids.insert(name.clone(), netlist.add_input(name.clone()));
        lines.push(*line);
    }
    for (latch, line) in &latches {
        if ids.contains_key(&latch.output) || defs.contains_key(&latch.output) {
            return Err(ParseError::at(
                *line,
                ParseErrorKind::DuplicateDefinition(latch.output.clone()),
            ));
        }
        ids.insert(
            latch.output.clone(),
            netlist.add_input(latch.output.clone()),
        );
        lines.push(*line);
    }

    // Topological resolution with an explicit stack (bench files can be huge
    // and arbitrarily ordered).
    let mut resolving: Vec<&str> = Vec::new();
    let mut in_progress: HashMap<&str, bool> = HashMap::new();
    for (name, _) in &outputs {
        resolve(
            name,
            &defs,
            &mut ids,
            &mut netlist,
            &mut lines,
            &mut resolving,
            &mut in_progress,
        )?;
    }
    for (latch, _) in &latches {
        resolve(
            &latch.input,
            &defs,
            &mut ids,
            &mut netlist,
            &mut lines,
            &mut resolving,
            &mut in_progress,
        )?;
    }
    // Also materialize defined-but-dead gates so statistics see the whole
    // file; the optimizer can sweep them later if desired.
    let mut def_names: Vec<&String> = defs.keys().collect();
    def_names.sort();
    for name in def_names {
        resolve(
            name,
            &defs,
            &mut ids,
            &mut netlist,
            &mut lines,
            &mut resolving,
            &mut in_progress,
        )?;
    }

    for (name, line) in &outputs {
        let id = *ids
            .get(name)
            .ok_or_else(|| ParseError::at(*line, ParseErrorKind::UnknownSignal(name.clone())))?;
        netlist
            .add_output(name.clone(), id)
            .map_err(|e| ParseError::at(*line, ParseErrorKind::Logic(e)))?;
    }
    for (latch, line) in &latches {
        let id = *ids.get(&latch.input).ok_or_else(|| {
            ParseError::at(*line, ParseErrorKind::UnknownSignal(latch.input.clone()))
        })?;
        netlist
            .add_output(format!("{}$next", latch.output), id)
            .map_err(|e| ParseError::at(*line, ParseErrorKind::Logic(e)))?;
    }

    Ok(Design {
        netlist,
        latches: latches.into_iter().map(|(l, _)| l).collect(),
        source_lines: lines,
    })
}

/// Resolves one signal name to a node id, recursively materializing its
/// fanin cone (iteratively, via an explicit work list).
fn resolve<'a>(
    name: &'a str,
    defs: &'a HashMap<String, GateDef>,
    ids: &mut HashMap<String, NodeId>,
    netlist: &mut Netlist,
    lines: &mut Vec<usize>,
    stack: &mut Vec<&'a str>,
    in_progress: &mut HashMap<&'a str, bool>,
) -> Result<NodeId, ParseError> {
    if let Some(&id) = ids.get(name) {
        return Ok(id);
    }
    stack.push(name);
    while let Some(&current) = stack.last() {
        if ids.contains_key(current) {
            stack.pop();
            continue;
        }
        let def = defs
            .get(current)
            .ok_or_else(|| ParseError::at(0, ParseErrorKind::UnknownSignal(current.to_owned())))?;
        // `in_progress == true` marks nodes that have been *expanded* (their
        // fanins pushed) but not yet finished — exactly the current DFS
        // path. Meeting one of those as a fanin is a genuine cycle; a
        // pending sibling that was merely pushed is still unmarked.
        let expanded = in_progress.get(current).copied().unwrap_or(false);
        if !expanded {
            in_progress.insert(current, true);
            let mut ready = true;
            for arg in &def.args {
                if !ids.contains_key(arg.as_str()) {
                    if in_progress.get(arg.as_str()).copied().unwrap_or(false) {
                        return Err(ParseError::at(
                            def.line,
                            ParseErrorKind::CombinationalCycle(arg.clone()),
                        ));
                    }
                    if !defs.contains_key(arg) {
                        return Err(ParseError::at(
                            def.line,
                            ParseErrorKind::UnknownSignal(arg.clone()),
                        ));
                    }
                    stack.push(arg.as_str());
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
        } else if let Some(arg) = def.args.iter().find(|a| !ids.contains_key(a.as_str())) {
            return Err(ParseError::at(
                def.line,
                ParseErrorKind::CombinationalCycle(arg.clone()),
            ));
        }
        let fanins: Vec<NodeId> = def.args.iter().map(|a| ids[a.as_str()]).collect();
        let id = netlist
            .add_gate(def.kind, &fanins)
            .map_err(|e| ParseError::at(def.line, ParseErrorKind::Logic(e)))?;
        lines.push(def.line);
        ids.insert(current.to_owned(), id);
        in_progress.insert(current, false);
        stack.pop();
    }
    Ok(ids[name])
}

/// Matches `KEYWORD(name)` declarations.
fn parse_decl<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    let name = inner.trim();
    (!name.is_empty() && !name.contains(['(', ')', ','])).then_some(name)
}

/// Matches `KIND(arg, arg, ...)` calls; returns the kind name and args.
fn parse_call(text: &str) -> Option<(String, Vec<String>)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    if close < open || !text[close + 1..].trim().is_empty() {
        return None;
    }
    let kind = text[..open].trim();
    if kind.is_empty() || kind.contains(char::is_whitespace) {
        return None;
    }
    let inner = text[open + 1..close].trim();
    let args = if inner.is_empty() {
        Vec::new()
    } else {
        let parts: Vec<String> = inner.split(',').map(|s| s.trim().to_owned()).collect();
        if parts.iter().any(String::is_empty) {
            return None;
        }
        parts
    };
    Some((kind.to_owned(), args))
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
}
