//! The signal resolver both netlist readers end in.
//!
//! A reader scans its own syntax into [`Symbols`]: it interns every
//! signal name once, defines each named gate or cover, and declares the
//! primary and latch inputs, each with the line its errors report.
//! [`Symbols::finish`] then builds the design in one fixed order: the
//! inputs as declared, each output's and latch input's fanin cone depth
//! first, the remaining (dead) definitions in sorted-name order, and last
//! the outputs and the `<q>$next` pseudo-outputs. That order fixes every
//! node id, which keys the v2 fault stream and every cache address.
//!
//! The readers differ only in what they pass: the lines, the order in
//! which they define and declare (which decides where a duplicate is
//! reported), and the materializer that turns one definition into nodes.

use std::collections::HashMap;
use std::ops::Range;

use nanobound_logic::{Netlist, NodeId};

use crate::error::{ParseError, ParseErrorKind};
use crate::{Design, Latch};

/// Every distinct signal name of a file, interned once as an index, with
/// the definitions and declarations made on it; all later bookkeeping is
/// indexed by symbol, so no name is hashed twice.
pub(crate) struct Symbols<'t, D> {
    index: HashMap<&'t str, usize>,
    names: Vec<&'t str>,
    state: Vec<Symbol>,
    defs: Vec<Def<D>>,
    /// Argument symbols of every definition, back to back.
    pub(crate) args: Vec<usize>,
    /// Declared inputs and their lines, in declaration (= node) order.
    inputs: Vec<(usize, usize)>,
}

/// One definition: the reader's body over a run of argument symbols.
struct Def<D> {
    body: D,
    /// The argument symbols, as a range of [`Symbols::args`].
    args: Range<usize>,
    line: usize,
}

/// What is known about one signal name.
#[derive(Clone, Copy, Default)]
struct Symbol {
    /// Its definition in [`Symbols::defs`].
    def: Option<usize>,
    /// Its node: fixed when declared as an input, else once materialized.
    node: Option<NodeId>,
    /// Expanded but not finished: on the current resolution path.
    expanded: bool,
}

impl<'t, D> Symbols<'t, D> {
    /// An empty table whose index has room for `names` names.
    pub(crate) fn with_capacity(names: usize) -> Self {
        Symbols {
            index: HashMap::with_capacity(names),
            names: Vec::new(),
            state: Vec::new(),
            defs: Vec::new(),
            args: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Number of distinct names interned so far.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn intern(&mut self, name: &'t str) -> usize {
        let next = self.names.len();
        let sym = *self.index.entry(name).or_insert(next);
        if sym == next {
            self.names.push(name);
            self.state.push(Symbol::default());
        }
        sym
    }

    /// Defines `sym` as `body` over the argument symbols `args`.
    ///
    /// # Errors
    ///
    /// A name already defined or declared is a duplicate at `line`.
    pub(crate) fn define(
        &mut self,
        sym: usize,
        body: D,
        args: Range<usize>,
        line: usize,
    ) -> Result<(), ParseError> {
        self.claim(sym, line)?;
        self.state[sym].def = Some(self.defs.len());
        self.defs.push(Def { body, args, line });
        Ok(())
    }

    /// Declares `sym` the next primary (or latch pseudo-) input.
    ///
    /// # Errors
    ///
    /// A name already defined or declared is a duplicate at `line`.
    pub(crate) fn declare_input(&mut self, sym: usize, line: usize) -> Result<(), ParseError> {
        self.claim(sym, line)?;
        // `finish` adds the inputs before any gate, so the k-th declared
        // input is node k.
        self.state[sym].node = Some(NodeId::from_index(self.inputs.len()));
        self.inputs.push((sym, line));
        Ok(())
    }

    fn claim(&self, sym: usize, line: usize) -> Result<(), ParseError> {
        let state = self.state[sym];
        if state.node.is_some() || state.def.is_some() {
            return Err(ParseError::at(
                line,
                ParseErrorKind::DuplicateDefinition(self.names[sym].to_owned()),
            ));
        }
        Ok(())
    }

    /// Builds the design: `outputs` are `(signal, line)` and `latches`
    /// `(data input, latch output, line)`, the line being where a
    /// rejected output is reported. `materialize` adds the nodes of one
    /// definition given its fanin nodes and returns the driving node; its
    /// error is reported at the definition's line.
    ///
    /// # Errors
    ///
    /// An undefined signal (at the line of the definition that reads it,
    /// or line 0 for an undefined output or latch input), a combinational
    /// cycle, a materializer error, or an output the netlist refuses.
    pub(crate) fn finish<F>(
        self,
        name: &str,
        outputs: &[(usize, usize)],
        latches: &[(usize, usize, usize)],
        mut materialize: F,
    ) -> Result<Design, ParseError>
    where
        F: FnMut(&mut Netlist, &D, &[NodeId]) -> Result<NodeId, ParseErrorKind>,
    {
        let mut build = Build {
            netlist: Netlist::new(name),
            lines: Vec::with_capacity(self.names.len()),
            stack: Vec::new(),
            fanins: Vec::new(),
            syms: self,
        };
        for &(sym, line) in &build.syms.inputs {
            build.netlist.add_input(build.syms.names[sym]);
            build.lines.push(line);
        }
        for &(sym, _) in outputs {
            build.resolve(sym, &mut materialize)?;
        }
        for &(input, _, _) in latches {
            build.resolve(input, &mut materialize)?;
        }
        // Also materialize defined-but-dead gates, in name order, so
        // statistics see the whole file; the optimizer can sweep them
        // later if desired.
        let syms = &build.syms;
        let mut dead: Vec<usize> = (0..syms.names.len())
            .filter(|&sym| syms.state[sym].def.is_some() && syms.state[sym].node.is_none())
            .collect();
        dead.sort_unstable_by_key(|&sym| syms.names[sym]);
        for sym in dead {
            build.resolve(sym, &mut materialize)?;
        }

        let Build {
            syms,
            mut netlist,
            lines,
            ..
        } = build;
        let node = |sym: usize| syms.state[sym].node.expect("every root is resolved");
        for &(sym, line) in outputs {
            netlist
                .add_output(syms.names[sym], node(sym))
                .map_err(|e| ParseError::at(line, ParseErrorKind::Logic(e)))?;
        }
        for &(input, output, line) in latches {
            netlist
                .add_output(format!("{}$next", syms.names[output]), node(input))
                .map_err(|e| ParseError::at(line, ParseErrorKind::Logic(e)))?;
        }
        Ok(Design {
            netlist,
            latches: latches
                .iter()
                .map(|&(input, output, _)| Latch {
                    input: syms.names[input].to_owned(),
                    output: syms.names[output].to_owned(),
                })
                .collect(),
            source_lines: lines,
            clocks: Vec::new(),
        })
    }
}

/// The netlist under construction from interned definitions.
struct Build<'t, D> {
    syms: Symbols<'t, D>,
    netlist: Netlist,
    /// Per-node source lines, kept in lockstep with node creation.
    lines: Vec<usize>,
    /// The resolution work list.
    stack: Vec<usize>,
    /// Reused fanin buffer.
    fanins: Vec<NodeId>,
}

impl<D> Build<'_, D> {
    /// Materializes signal `root` and its fanin cone (iteratively, via an
    /// explicit work list: netlist files can be huge and arbitrarily
    /// ordered).
    fn resolve<F>(&mut self, root: usize, materialize: &mut F) -> Result<(), ParseError>
    where
        F: FnMut(&mut Netlist, &D, &[NodeId]) -> Result<NodeId, ParseErrorKind>,
    {
        let Symbols {
            names,
            state,
            defs,
            args,
            ..
        } = &mut self.syms;
        let name = |sym: usize| names[sym].to_owned();
        if state[root].node.is_some() {
            return Ok(());
        }
        self.stack.push(root);
        while let Some(&current) = self.stack.last() {
            if state[current].node.is_some() {
                self.stack.pop();
                continue;
            }
            let Some(def) = state[current].def.map(|def| &defs[def]) else {
                return Err(ParseError::at(
                    0,
                    ParseErrorKind::UnknownSignal(name(current)),
                ));
            };
            let args = &args[def.args.clone()];
            // `expanded` marks nodes whose fanins have been pushed but that
            // are not yet finished — exactly the current DFS path. Meeting
            // one of those as a fanin is a genuine cycle; a pending sibling
            // that was merely pushed is still unmarked.
            if !state[current].expanded {
                state[current].expanded = true;
                let mut ready = true;
                for &arg in args {
                    if state[arg].node.is_none() {
                        if state[arg].expanded {
                            return Err(ParseError::at(
                                def.line,
                                ParseErrorKind::CombinationalCycle(name(arg)),
                            ));
                        }
                        if state[arg].def.is_none() {
                            return Err(ParseError::at(
                                def.line,
                                ParseErrorKind::UnknownSignal(name(arg)),
                            ));
                        }
                        self.stack.push(arg);
                        ready = false;
                    }
                }
                if !ready {
                    continue;
                }
            } else if let Some(&arg) = args.iter().find(|&&a| state[a].node.is_none()) {
                return Err(ParseError::at(
                    def.line,
                    ParseErrorKind::CombinationalCycle(name(arg)),
                ));
            }
            self.fanins.clear();
            self.fanins.extend(
                args.iter()
                    .map(|&a| state[a].node.expect("fanins are ready")),
            );
            let id = materialize(&mut self.netlist, &def.body, &self.fanins)
                .map_err(|kind| ParseError::at(def.line, kind))?;
            self.lines.resize(self.netlist.node_count(), def.line);
            state[current] = Symbol {
                node: Some(id),
                expanded: false,
                ..state[current]
            };
            self.stack.pop();
        }
        Ok(())
    }
}
