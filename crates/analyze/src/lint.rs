//! The netlist lint pass (`NB001`–`NB010`) and the compiled-tape
//! soundness pass (`NB020`/`NB021`).
//!
//! Checks run in code order and emit node spans in id order, so a
//! report is a pure function of the design — byte-identical across
//! runs, which is what lets CI diff `lint --format json` against a
//! golden.
//!
//! The two structural errors short-circuit: a cycle (`NB001`) or an
//! invalid node table (`NB002`) returns immediately, because every
//! later check — and the tape compiler itself — assumes a validated,
//! id-ordered netlist.

use std::collections::HashSet;

use nanobound_io::Design;
use nanobound_logic::{topo, GateKind, LogicError, Netlist, Node, NodeId};
use nanobound_sim::SimProgram;

use crate::diag::{Report, Severity, MAX_SPAN_NODES};

/// Stable diagnostic codes, one module so the README table, the CLI
/// docs and the passes can never drift apart.
pub mod codes {
    /// Combinational cycle (error); the message carries the witness path.
    pub const CYCLE: &str = "NB001";
    /// Structurally invalid netlist: `validate()` failed (error).
    pub const INVALID: &str = "NB002";
    /// No primary outputs (warning).
    pub const NO_OUTPUTS: &str = "NB003";
    /// Primary input drives no gate and no output (warning).
    pub const UNUSED_INPUT: &str = "NB004";
    /// Node unreachable from every primary output — dead logic (warning).
    pub const UNREACHABLE: &str = "NB005";
    /// Gate lists the same fanin more than once (warning).
    pub const DUPLICATE_FANIN: &str = "NB006";
    /// Gate has a constant fanin and is foldable (warning).
    pub const FOLDABLE: &str = "NB007";
    /// Several primary outputs share one driver (warning).
    pub const SHARED_DRIVER: &str = "NB008";
    /// Fault-free wiring nodes sit outside the ε gate-fault model (info).
    pub const EPSILON_MODEL: &str = "NB009";
    /// Structural statistics summary, one per netlist (info).
    pub const STATS: &str = "NB010";
    /// Compiled tape failed soundness verification (error).
    pub const TAPE_DEFECT: &str = "NB020";
    /// Compiled tape verified against the netlist (info).
    pub const TAPE_OK: &str = "NB021";
}

/// Knobs for one lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Compile the netlist to a [`SimProgram`] and run
    /// [`SimProgram::verify`] (`NB020`/`NB021`). On by default; the
    /// pass is skipped when the netlist itself is broken.
    pub check_tape: bool,
    /// Corrupt the freshly compiled tape with
    /// `corrupt_for_verifier_tests(selector)` before verifying — the CI
    /// fixture proving the analyzer rejects unsound tapes end to end.
    #[doc(hidden)]
    pub corrupt_tape: Option<u64>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            check_tape: true,
            corrupt_tape: None,
        }
    }
}

/// Lints a parsed design, using its recorded source lines for spans.
#[must_use]
pub fn lint_design(design: &Design, options: &LintOptions) -> Report {
    let next_states: Vec<usize> = design
        .latches
        .iter()
        .filter_map(|latch| {
            design
                .netlist
                .output_position(&format!("{}$next", latch.output))
        })
        .collect();
    // The inputs BLIF's `.clock` declared, in node order.
    let clock_names: HashSet<&str> = design.clocks.iter().map(String::as_str).collect();
    let clocks: Vec<usize> = design
        .netlist
        .inputs()
        .iter()
        .filter(|&&id| matches!(design.netlist.node(id), Node::Input { name } if clock_names.contains(name)))
        .map(|id| id.index())
        .collect();
    lint_impl(
        &design.netlist,
        &design.source_lines,
        &next_states,
        &clocks,
        options,
    )
}

/// Lints a bare netlist (no source-line information).
#[must_use]
pub fn lint_netlist(netlist: &Netlist, options: &LintOptions) -> Report {
    lint_impl(netlist, &[], &[], &[], options)
}

fn line_of(source_lines: &[usize], node: usize) -> Option<usize> {
    match source_lines.get(node) {
        Some(0) | None => None,
        Some(&line) => Some(line),
    }
}

/// Caps a span at [`MAX_SPAN_NODES`] ids; messages carry full counts.
fn span(mut nodes: Vec<usize>) -> Vec<usize> {
    nodes.truncate(MAX_SPAN_NODES);
    nodes
}

/// `next_states` lists the outputs that are a latch's `<q>$next`
/// pseudo-output, which the readers add beside the declared outputs;
/// `clocks` the ids of the clock inputs, ascending, which no gate of the
/// combinational envelope needs to read.
fn lint_impl(
    netlist: &Netlist,
    source_lines: &[usize],
    next_states: &[usize],
    clocks: &[usize],
    options: &LintOptions,
) -> Report {
    let mut report = Report::new(netlist.name());

    // NB001 — a cycle poisons every order-dependent pass below.
    if let Err(err) = topo::try_topo_order(netlist) {
        let nodes = match &err {
            LogicError::CombinationalCycle { path } => path.clone(),
            _ => Vec::new(),
        };
        let line = nodes.first().and_then(|&n| line_of(source_lines, n));
        report.push(
            codes::CYCLE,
            Severity::Error,
            err.to_string(),
            span(nodes),
            line,
        );
        return report;
    }

    // NB002 — acyclic but structurally invalid (fanin order, arity,
    // dangling drivers). Later passes assume `validate()` holds.
    if let Err(err) = netlist.validate() {
        report.push(
            codes::INVALID,
            Severity::Error,
            err.to_string(),
            Vec::new(),
            None,
        );
        return report;
    }

    let fanouts = topo::fanout_counts(netlist);
    // The first output each node drives, so naming a signal costs O(1)
    // (`Netlist::signal_name` scans every output).
    let mut first_output: Vec<Option<usize>> = vec![None; netlist.node_count()];
    for (i, out) in netlist.outputs().iter().enumerate().rev() {
        first_output[out.driver.index()] = Some(i);
    }
    let signal_name = |id: NodeId| match (netlist.node(id), first_output[id.index()]) {
        (Node::Input { name }, _) => name.to_owned(),
        (_, Some(i)) => netlist.outputs()[i].name.clone(),
        (_, None) => format!("{id}"),
    };

    // NB003
    if netlist.output_count() == 0 {
        report.push(
            codes::NO_OUTPUTS,
            Severity::Warning,
            "netlist has no primary outputs",
            Vec::new(),
            None,
        );
    }

    // NB004 — one finding per dangling input keeps per-node lines.
    for &id in netlist.inputs() {
        if fanouts[id.index()] == 0
            && first_output[id.index()].is_none()
            && clocks.binary_search(&id.index()).is_err()
        {
            report.push(
                codes::UNUSED_INPUT,
                Severity::Warning,
                format!(
                    "primary input `{}` drives no gate and no output",
                    signal_name(id)
                ),
                vec![id.index()],
                line_of(source_lines, id.index()),
            );
        }
    }

    // NB005 — aggregate; skipped when NB003 already says everything is
    // dead, and inputs are NB004's business.
    if netlist.output_count() > 0 {
        let reachable = topo::reachable_from_outputs(netlist);
        let dead: Vec<usize> = netlist
            .node_ids()
            .map(NodeId::index)
            .filter(|&i| !reachable[i] && !netlist.node(NodeId::from_index(i)).is_input())
            .collect();
        if !dead.is_empty() {
            let line = line_of(source_lines, dead[0]);
            report.push(
                codes::UNREACHABLE,
                Severity::Warning,
                format!(
                    "{} node(s) unreachable from any primary output (dead logic)",
                    dead.len()
                ),
                span(dead),
                line,
            );
        }
    }

    // NB006 / NB007 — per-gate structure checks, in id order.
    // `seen[f] == g + 1` marks fanin `f` as already listed by gate `g`,
    // so the first repeated fanin costs one pass over the fanin list.
    let mut seen = vec![0usize; netlist.node_count()];
    for (id, node) in netlist.node_ids().zip(netlist.nodes()) {
        let Some(kind) = node.kind() else { continue };
        let stamp = id.index() + 1;
        if let Some(&dup) = node
            .fanins()
            .iter()
            .find(|f| std::mem::replace(&mut seen[f.index()], stamp) == stamp)
        {
            report.push(
                codes::DUPLICATE_FANIN,
                Severity::Warning,
                format!(
                    "{} gate `{}` lists fanin `{}` more than once",
                    kind.name(),
                    signal_name(id),
                    signal_name(dup)
                ),
                vec![id.index(), dup.index()],
                line_of(source_lines, id.index()),
            );
        }
        if kind.counts_as_gate() {
            let constant = node.fanins().iter().find(|f| {
                matches!(
                    netlist.node(**f).kind(),
                    Some(GateKind::Const0 | GateKind::Const1)
                )
            });
            if let Some(&c) = constant {
                report.push(
                    codes::FOLDABLE,
                    Severity::Warning,
                    format!(
                        "{} gate `{}` has constant fanin `{}` and can be folded",
                        kind.name(),
                        signal_name(id),
                        signal_name(c)
                    ),
                    vec![id.index(), c.index()],
                    line_of(source_lines, id.index()),
                );
            }
        }
    }

    // NB008 — declared outputs sharing a driver, reported once per
    // driver at its first output, naming the others in declaration
    // order. A latch's next state is wiring the reader added, so its
    // pseudo-output shares the driver of a declared output silently.
    let outputs = netlist.outputs();
    let mut declared = vec![true; outputs.len()];
    for &i in next_states {
        declared[i] = false;
    }
    let mut first_declared: Vec<Option<usize>> = vec![None; netlist.node_count()];
    let mut shared: Vec<Vec<&str>> = vec![Vec::new(); outputs.len()];
    for (i, out) in outputs.iter().enumerate().filter(|&(i, _)| declared[i]) {
        match first_declared[out.driver.index()] {
            Some(first) => shared[first].push(&out.name),
            None => first_declared[out.driver.index()] = Some(i),
        }
    }
    for (out, shared) in outputs.iter().zip(&shared) {
        if !shared.is_empty() {
            report.push(
                codes::SHARED_DRIVER,
                Severity::Warning,
                format!(
                    "outputs `{}` and `{}` share driver `{}`",
                    out.name,
                    shared.join("`, `"),
                    signal_name(out.driver)
                ),
                vec![out.driver.index()],
                line_of(source_lines, out.driver.index()),
            );
        }
    }

    // NB009 — the paper's ε-flip fault model covers logic gates only;
    // buffers and constants are noise-free wiring, worth surfacing so
    // profile consumers know how much of the node count draws faults.
    let wiring: Vec<usize> = netlist
        .nodes()
        .enumerate()
        .filter(|(_, node)| {
            matches!(
                node.kind(),
                Some(GateKind::Buf | GateKind::Const0 | GateKind::Const1)
            )
        })
        .map(|(i, _)| i)
        .collect();
    if !wiring.is_empty() {
        report.push(
            codes::EPSILON_MODEL,
            Severity::Info,
            format!(
                "{} of {} nodes are fault-free wiring (Buf/Const) outside the ε gate-fault model",
                wiring.len(),
                netlist.node_count()
            ),
            span(wiring),
            None,
        );
    }

    // NB010 — always one summary line per netlist.
    let max_fanout = fanouts.iter().copied().max().unwrap_or(0);
    report.push(
        codes::STATS,
        Severity::Info,
        format!(
            "S0={} gates, n={} inputs, m={} outputs, depth={}, max fanout {}",
            netlist.gate_count(),
            netlist.input_count(),
            netlist.output_count(),
            topo::depth(netlist),
            max_fanout
        ),
        Vec::new(),
        None,
    );

    // NB020/NB021 — compile the tape and prove it sound. Only reached
    // on a validated netlist, so `compile` cannot panic.
    if options.check_tape {
        let mut program = SimProgram::compile(netlist);
        let corrupted = options
            .corrupt_tape
            .map(|selector| program.corrupt_for_verifier_tests(selector));
        match program.verify(netlist) {
            Ok(()) => report.push(
                codes::TAPE_OK,
                Severity::Info,
                format!(
                    "compiled tape verified against the netlist ({} gate ops)",
                    program.gate_count()
                ),
                Vec::new(),
                None,
            ),
            Err(defect) => {
                let suffix = corrupted
                    .map(|what| format!(" (injected corruption: {what})"))
                    .unwrap_or_default();
                report.push(
                    codes::TAPE_DEFECT,
                    Severity::Error,
                    format!("compiled tape failed soundness verification: {defect}{suffix}"),
                    Vec::new(),
                    None,
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_logic::netlist::Output;
    use nanobound_logic::Node;

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// A well-formed adder-ish netlist: only the two infos fire.
    #[test]
    fn clean_netlist_reports_only_infos() {
        let mut nl = Netlist::new("clean");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        let report = lint_netlist(&nl, &LintOptions::default());
        assert_eq!(codes_of(&report), vec![codes::STATS, codes::TAPE_OK]);
        assert!(!report.has_warnings());
        assert!(!report.has_errors());
    }

    #[test]
    fn cycle_short_circuits_with_witness() {
        let (n1, n2) = ([NodeId::from_index(1)], [NodeId::from_index(2)]);
        let nodes = vec![
            Node::Input { name: "a" },
            Node::Gate {
                kind: GateKind::Not,
                fanins: &n2,
            },
            Node::Gate {
                kind: GateKind::Buf,
                fanins: &n1,
            },
        ];
        let nl = Netlist::from_parts(
            "cyc",
            nodes,
            vec![NodeId::from_index(0)],
            vec![Output {
                name: "y".to_owned(),
                driver: NodeId::from_index(1),
            }],
        )
        .unwrap();
        let report = lint_netlist(&nl, &LintOptions::default());
        assert_eq!(codes_of(&report), vec![codes::CYCLE]);
        assert!(report.has_errors());
        assert!(report.diagnostics[0]
            .message
            .contains("combinational cycle"));
        assert_eq!(report.diagnostics[0].nodes, vec![1, 2]);
    }

    #[test]
    fn forward_reference_is_invalid_structure_not_cycle() {
        let n1 = [NodeId::from_index(1)];
        let nodes = vec![
            Node::Gate {
                kind: GateKind::Not,
                fanins: &n1,
            },
            Node::Input { name: "a" },
        ];
        let nl = Netlist::from_parts(
            "fwd",
            nodes,
            vec![NodeId::from_index(1)],
            vec![Output {
                name: "y".to_owned(),
                driver: NodeId::from_index(0),
            }],
        )
        .unwrap();
        let report = lint_netlist(&nl, &LintOptions::default());
        assert_eq!(codes_of(&report), vec![codes::INVALID]);
    }

    /// One deliberately dirty netlist that trips every warning code.
    #[test]
    fn dirty_netlist_trips_every_warning() {
        let mut nl = Netlist::new("dirty");
        let a = nl.add_input("a");
        let _unused = nl.add_input("unused");
        let one = nl.add_const(true);
        let dup = nl.add_gate(GateKind::Xor, &[a, a]).unwrap();
        let fold = nl.add_gate(GateKind::And, &[a, one]).unwrap();
        // Dead: never reaches an output.
        let _dead = nl.add_gate(GateKind::Not, &[fold]).unwrap();
        nl.add_output("y", dup).unwrap();
        nl.add_output("y2", dup).unwrap();
        let report = lint_netlist(&nl, &LintOptions::default());
        assert_eq!(
            codes_of(&report),
            vec![
                codes::UNUSED_INPUT,
                codes::UNREACHABLE,
                codes::DUPLICATE_FANIN,
                codes::FOLDABLE,
                codes::SHARED_DRIVER,
                codes::EPSILON_MODEL,
                codes::STATS,
                codes::TAPE_OK,
            ]
        );
        assert!(report.has_warnings());
        assert!(!report.has_errors());
    }

    #[test]
    fn no_outputs_is_flagged_once() {
        let mut nl = Netlist::new("mute");
        let a = nl.add_input("a");
        let _g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let report = lint_netlist(&nl, &LintOptions::default());
        assert!(codes_of(&report).contains(&codes::NO_OUTPUTS));
        // NB005 stays quiet: with no outputs, "unreachable" is vacuous.
        assert!(!codes_of(&report).contains(&codes::UNREACHABLE));
    }

    #[test]
    fn corrupted_tape_is_rejected() {
        let mut nl = Netlist::new("tape");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        for selector in 0..8u64 {
            let options = LintOptions {
                corrupt_tape: Some(selector),
                ..LintOptions::default()
            };
            let report = lint_netlist(&nl, &options);
            assert!(report.has_errors(), "selector {selector}");
            let defect = report
                .diagnostics
                .iter()
                .find(|d| d.code == codes::TAPE_DEFECT)
                .expect("NB020 present");
            assert!(defect.message.contains("injected corruption"));
        }
    }

    #[test]
    fn tape_pass_can_be_disabled() {
        let mut nl = Netlist::new("no-tape");
        let a = nl.add_input("a");
        nl.add_output("y", a).unwrap();
        let options = LintOptions {
            check_tape: false,
            ..LintOptions::default()
        };
        let report = lint_netlist(&nl, &options);
        assert!(!codes_of(&report).contains(&codes::TAPE_OK));
        assert!(!codes_of(&report).contains(&codes::TAPE_DEFECT));
    }

    #[test]
    fn latch_next_states_share_drivers_silently() {
        let shared_driver = |design: &Design| {
            let report = lint_design(design, &LintOptions::default());
            report
                .diagnostics
                .iter()
                .filter(|d| d.code == codes::SHARED_DRIVER)
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
        };
        // Output `d` is also `q`'s next state, so the reader's `q$next`
        // pseudo-output shares its driver.
        let text = "INPUT(a)\nOUTPUT(d)\nq = DFF(d)\nd = NAND(a, q)\n";
        let mut design = nanobound_io::bench::parse(text).unwrap();
        assert_eq!(design.netlist.output_count(), 2);
        assert!(shared_driver(&design).is_empty());
        // A second declared output on that driver still warns.
        let d = design.netlist.outputs()[0].driver;
        design.netlist.add_output("z", d).unwrap();
        assert_eq!(
            shared_driver(&design),
            vec!["outputs `d` and `z` share driver `d`"]
        );
    }

    #[test]
    fn unread_clock_inputs_are_not_unused() {
        // One latch in gateconvert's `to_blif` shape: the clock is an
        // input no gate reads, beside a data input `b` no gate reads.
        let text = ".model one\n.inputs i0\n.inputs a\n.inputs b\n.outputs o0\n\
                    .clock clk\n.latch o0 i0\n.names i0 a o0\n10 1\n01 1\n.end\n";
        let design = nanobound_io::blif::parse(text).unwrap();
        assert_eq!(design.clocks, ["clk"]);
        let report = lint_design(&design, &LintOptions::default());
        let unused: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::UNUSED_INPUT)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unused, ["primary input `b` drives no gate and no output"]);
        // The bare netlist has no clock list, so there the clock warns.
        let bare = lint_netlist(&design.netlist, &LintOptions::default());
        let bare_unused = bare
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::UNUSED_INPUT)
            .count();
        assert_eq!(bare_unused, 2);
    }

    #[test]
    fn design_lines_flow_into_spans() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, a)\n";
        let design = nanobound_io::bench::parse(text).unwrap();
        let report = lint_design(&design, &LintOptions::default());
        let dup = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::DUPLICATE_FANIN)
            .expect("NAND(a, a) repeats a fanin");
        assert_eq!(dup.line, Some(4));
        let unused = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::UNUSED_INPUT)
            .expect("b is unused");
        assert_eq!(unused.line, Some(2));
    }
}
