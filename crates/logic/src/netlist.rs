//! The combinational netlist data structure.
//!
//! A [`Netlist`] keeps its structure in a few flat arrays: every node's
//! kind, one arena holding every gate's fanins back to back, and the
//! output drivers. The names sit beside that structure. The transform
//! passes read and build the structure alone and attach the source's
//! names once, at the end of each public pass, so neither parsing nor a
//! pass nor a clone allocates per gate.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::error::LogicError;
use crate::gate::GateKind;

/// Identifier of a node inside a [`Netlist`].
///
/// Node ids are dense indices; a gate's fanins always have smaller ids than
/// the gate itself, so iterating nodes in id order is a topological
/// traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Returns the dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Exposed for the simulator and transform crates that store per-node
    /// side tables; ids fabricated for one netlist are meaningless in
    /// another.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("netlist larger than u32::MAX nodes"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node of the netlist DAG, borrowed from its netlist: either a primary
/// input or a gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node<'a> {
    /// A primary input with a user-visible name.
    Input {
        /// Name of the input signal.
        name: &'a str,
    },
    /// A gate applying [`GateKind`] semantics to its fanins.
    Gate {
        /// The gate's kind.
        kind: GateKind,
        /// Ids of the fanin nodes, all strictly smaller than this node's id.
        fanins: &'a [NodeId],
    },
}

impl<'a> Node<'a> {
    /// Returns `true` for primary inputs.
    #[must_use]
    #[inline]
    pub fn is_input(self) -> bool {
        matches!(self, Node::Input { .. })
    }

    /// The gate kind, or `None` for primary inputs.
    #[must_use]
    #[inline]
    pub fn kind(self) -> Option<GateKind> {
        match self {
            Node::Input { .. } => None,
            Node::Gate { kind, .. } => Some(kind),
        }
    }

    /// The fanin list (empty for inputs and constants).
    #[must_use]
    #[inline]
    pub fn fanins(self) -> &'a [NodeId] {
        match self {
            Node::Input { .. } => &[],
            Node::Gate { fanins, .. } => fanins,
        }
    }
}

/// A named primary output driven by some node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// Name of the output signal.
    pub name: String,
    /// The node driving this output.
    pub driver: NodeId,
}

/// A netlist's structure without its names: node kinds and fanins in one
/// arena, plus the output drivers.
///
/// Every transform pass keeps the primary inputs in their relative order
/// and the outputs in theirs, so the k-th input node always stands for
/// the source's k-th input and the j-th driver for its j-th output. A pass
/// is therefore one walk over flat arrays, and equality is structural
/// equality of the netlists two structures would name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Structure {
    /// Per node: its gate kind, or `None` for a primary input.
    kinds: Vec<Option<GateKind>>,
    /// Node `i`'s fanins are `fanins[ends[i - 1]..ends[i]]`, starting
    /// at 0 for node 0.
    ends: Vec<u32>,
    fanins: Vec<NodeId>,
    /// The driver of each primary output, in declaration order.
    pub(crate) outputs: Vec<NodeId>,
}

impl Structure {
    /// An empty structure with room for `nodes` nodes and `fanins`
    /// fanin slots.
    pub(crate) fn with_capacity(nodes: usize, fanins: usize) -> Self {
        Structure {
            kinds: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(nodes),
            fanins: Vec::with_capacity(fanins),
            outputs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Number of fanin slots over all nodes.
    pub(crate) fn fanin_slots(&self) -> usize {
        self.fanins.len()
    }

    /// The gate kind of `id`, or `None` for a primary input.
    #[inline]
    pub(crate) fn kind(&self, id: NodeId) -> Option<GateKind> {
        self.kinds[id.index()]
    }

    /// The fanins of `id`.
    #[inline]
    pub(crate) fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.fanins[start as usize..self.ends[i] as usize]
    }

    /// The primary input ids, ascending.
    fn input_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len())
            .map(NodeId::from_index)
            .filter(|&id| self.kind(id).is_none())
    }

    /// Marks `roots` and every node in their transitive fanin, indexed by
    /// [`NodeId::index`].
    pub(crate) fn fanin_cone(&self, roots: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut marked = vec![false; self.len()];
        for root in roots {
            marked[root.index()] = true;
        }
        // Reverse topological sweep: a marked node marks its fanins.
        for i in (0..self.len()).rev() {
            if marked[i] {
                for f in self.fanins(NodeId::from_index(i)) {
                    marked[f.index()] = true;
                }
            }
        }
        marked
    }

    /// The fanin of `id` if it is an inverter.
    pub(crate) fn inverted(&self, id: NodeId) -> Option<NodeId> {
        (self.kind(id) == Some(GateKind::Not)).then(|| self.fanins(id)[0])
    }

    /// Appends a primary input.
    pub(crate) fn push_input(&mut self) -> NodeId {
        self.push(None, &[])
    }

    /// Appends a gate; the caller guarantees arity and fanin bounds.
    pub(crate) fn push_gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> NodeId {
        debug_assert!(kind.arity_ok(fanins.len()));
        self.push(Some(kind), fanins)
    }

    fn push(&mut self, kind: Option<GateKind>, fanins: &[NodeId]) -> NodeId {
        let id = NodeId::from_index(self.len());
        self.kinds.push(kind);
        self.fanins.extend_from_slice(fanins);
        self.ends
            .push(u32::try_from(self.fanins.len()).expect("fewer than u32::MAX fanin slots"));
        id
    }
}

/// A combinational netlist: a DAG of gates over named primary inputs, with
/// named primary outputs.
///
/// # Invariants
///
/// - Nodes are stored in topological order: every gate's fanins have smaller
///   ids. [`Netlist::add_gate`] enforces this by construction, and
///   [`Netlist::validate`] re-checks it (useful after deserialization).
/// - Output drivers reference existing nodes.
///
/// # Examples
///
/// ```
/// use nanobound_logic::{GateKind, Netlist};
///
/// # fn main() -> Result<(), nanobound_logic::LogicError> {
/// let mut nl = Netlist::new("mux2");
/// let s = nl.add_input("s");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let ns = nl.add_gate(GateKind::Not, &[s])?;
/// let pa = nl.add_gate(GateKind::And, &[ns, a])?;
/// let pb = nl.add_gate(GateKind::And, &[s, b])?;
/// let y = nl.add_gate(GateKind::Or, &[pa, pb])?;
/// nl.add_output("y", y)?;
/// assert_eq!(nl.evaluate(&[false, true, false])?, vec![true]);
/// assert_eq!(nl.evaluate(&[true, true, false])?, vec![false]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Netlist {
    name: String,
    structure: Structure,
    /// The primary input ids, ascending.
    inputs: Vec<NodeId>,
    /// The name of each primary input, in declaration order.
    input_names: Vec<String>,
    /// Each output's name beside its driver, which `structure` holds too.
    outputs: Vec<Output>,
    /// Finds an output by name in O(1), so declaring `m` outputs costs
    /// O(m), not O(m²). Derived from `outputs`, so equality and `Debug`
    /// ignore it.
    output_names: OutputNames,
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.structure == other.structure
            && self.input_names == other.input_names
            && self.outputs == other.outputs
    }
}

impl Eq for Netlist {}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("nodes", &self.nodes().collect::<Vec<_>>())
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

/// An open-addressing table of output positions keyed by output name.
///
/// Slots hold `position + 1` (0 is empty) and borrow the names from the
/// netlist's `outputs`, so no name is stored twice. The hasher is
/// randomly keyed, so crafted names cannot force collisions.
#[derive(Clone, Default)]
struct OutputNames {
    hasher: RandomState,
    /// Empty, or a power of two at least twice the number of outputs.
    slots: Vec<u32>,
}

impl OutputNames {
    fn slot_of(&self, name: &str) -> usize {
        // Truncating the hash is fine: only its low bits pick a slot.
        self.hasher.hash_one(name) as usize & (self.slots.len() - 1)
    }

    /// The position of the output called `name`, if any.
    fn position(&self, outputs: &[Output], name: &str) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = self.slot_of(name);
        loop {
            match self.slots[at] {
                0 => return None,
                slot if outputs[slot as usize - 1].name == name => return Some(slot as usize - 1),
                _ => at = (at + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Indexes `outputs.last()`, whose name the caller has checked is new.
    fn push(&mut self, outputs: &[Output]) {
        if 2 * outputs.len() > self.slots.len() {
            self.slots = vec![0; (4 * outputs.len()).next_power_of_two()];
            for position in 0..outputs.len() {
                self.place(outputs, position);
            }
        } else {
            self.place(outputs, outputs.len() - 1);
        }
    }

    fn place(&mut self, outputs: &[Output], position: usize) {
        let mut at = self.slot_of(&outputs[position].name);
        while self.slots[at] != 0 {
            at = (at + 1) & (self.slots.len() - 1);
        }
        self.slots[at] = u32::try_from(position + 1).expect("fewer than u32::MAX outputs");
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// Assembles a netlist from raw parts **without** the topological
    /// ordering guarantee.
    ///
    /// Deserializers and test fixtures sometimes hold node tables whose
    /// fanins reference *later* ids — including genuine combinational
    /// cycles that [`Netlist::add_gate`] makes unrepresentable. This
    /// constructor admits them so analyses like
    /// [`topo::try_topo_order`](crate::topo::try_topo_order) can report a
    /// cycle witness instead of the producer failing opaquely. Arity, id
    /// bounds, output drivers and the input list are still checked; only
    /// the fanin-order invariant is waived, so most other APIs (which
    /// assume id order) must not be used until [`Netlist::validate`]
    /// passes.
    ///
    /// # Errors
    ///
    /// [`LogicError::ArityMismatch`] for a gate with an illegal fanin
    /// count, [`LogicError::UnknownNode`] for out-of-bounds fanins or
    /// output drivers, [`LogicError::DuplicateOutput`] for repeated
    /// output names, and [`LogicError::InputListMismatch`] when `inputs`
    /// is not exactly the `Node::Input` ids in id order.
    pub fn from_parts(
        name: impl Into<String>,
        nodes: Vec<Node<'_>>,
        inputs: Vec<NodeId>,
        outputs: Vec<Output>,
    ) -> Result<Self, LogicError> {
        let len = nodes.len();
        let mut netlist = Netlist::new(name);
        for node in nodes {
            match node {
                Node::Input { name } => {
                    netlist.structure.push_input();
                    netlist.input_names.push(name.to_owned());
                }
                Node::Gate { kind, fanins } => {
                    kind.check_arity(fanins.len())?;
                    if let Some(f) = fanins.iter().find(|f| f.index() >= len) {
                        return Err(LogicError::UnknownNode { id: f.index(), len });
                    }
                    netlist.structure.push(Some(kind), fanins);
                }
            }
        }
        if !inputs.iter().copied().eq(netlist.structure.input_ids()) {
            return Err(LogicError::InputListMismatch);
        }
        netlist.inputs = inputs;
        for out in outputs {
            netlist.add_output(out.name, out.driver)?;
        }
        Ok(netlist)
    }

    /// The netlist of `structure`, named after `source`: its design name,
    /// its input names and its output names. Only a pass over `source`'s
    /// structure, which keeps both interfaces in order, produces a valid
    /// `structure` here.
    pub(crate) fn named_after(structure: Structure, source: &Netlist) -> Netlist {
        let inputs: Vec<NodeId> = structure.input_ids().collect();
        debug_assert_eq!(
            inputs.len(),
            source.input_count(),
            "passes keep every input"
        );
        let outputs = source
            .outputs
            .iter()
            .zip(&structure.outputs)
            .map(|(o, &driver)| Output {
                name: o.name.clone(),
                driver,
            })
            .collect();
        Netlist {
            name: source.name.clone(),
            structure,
            inputs,
            input_names: source.input_names.clone(),
            outputs,
            // The same names at the same positions.
            output_names: source.output_names.clone(),
        }
    }

    /// The structure the transform passes walk.
    pub(crate) fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary input and returns its node id.
    ///
    /// Input names are not required to be unique here (the `.bench` parser
    /// enforces uniqueness at its own level), but unique names make reports
    /// much more readable.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.structure.push_input();
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Adds a gate and returns its node id.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ArityMismatch`] if the fanin count is invalid
    /// for `kind`, or [`LogicError::UnknownNode`] if a fanin id does not
    /// reference an existing node. Because the new gate receives the largest
    /// id so far, referencing only existing nodes keeps the netlist
    /// topologically ordered.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> Result<NodeId, LogicError> {
        kind.check_arity(fanins.len())?;
        let len = self.node_count();
        if let Some(f) = fanins.iter().find(|f| f.index() >= len) {
            return Err(LogicError::UnknownNode { id: f.index(), len });
        }
        Ok(self.structure.push_gate(kind, fanins))
    }

    /// Adds a constant node.
    ///
    /// Convenience wrapper over [`Netlist::add_gate`] with
    /// [`GateKind::Const0`]/[`GateKind::Const1`].
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add_gate(kind, &[]).expect("constants have arity 0")
    }

    /// Declares `driver` as the primary output named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::UnknownNode`] if `driver` does not exist and
    /// [`LogicError::DuplicateOutput`] if the name is already taken.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        driver: NodeId,
    ) -> Result<(), LogicError> {
        let name = name.into();
        if driver.index() >= self.node_count() {
            return Err(LogicError::UnknownNode {
                id: driver.index(),
                len: self.node_count(),
            });
        }
        if self.output_position(&name).is_some() {
            return Err(LogicError::DuplicateOutput { name });
        }
        self.outputs.push(Output { name, driver });
        self.structure.outputs.push(driver);
        self.output_names.push(&self.outputs);
        Ok(())
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds; ids obtained from this netlist are
    /// always in bounds.
    #[must_use]
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        match self.structure.kind(id) {
            None => {
                // Where the inputs come first, as in every parsed design,
                // node k is input k; elsewhere the ascending list is
                // searched.
                let position = if self.inputs.get(id.index()) == Some(&id) {
                    id.index()
                } else {
                    self.inputs
                        .binary_search(&id)
                        .expect("the input list holds every input")
                };
                Node::Input {
                    name: &self.input_names[position],
                }
            }
            Some(kind) => Node::Gate {
                kind,
                fanins: self.structure.fanins(id),
            },
        }
    }

    /// Total number of nodes (inputs + gates + constants + buffers).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.structure.len()
    }

    /// Returns `true` if the netlist contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterates over all node ids in topological order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = Node<'_>> + '_ {
        // One step through the arrays per node, with no lookup.
        let structure = &self.structure;
        let mut names = self.input_names.iter();
        let mut start = 0;
        structure
            .kinds
            .iter()
            .zip(&structure.ends)
            .map(move |(&kind, &end)| {
                let fanins = &structure.fanins[start..end as usize];
                start = end as usize;
                match kind {
                    None => Node::Input {
                        name: names.next().expect("one name per input"),
                    },
                    Some(kind) => Node::Gate { kind, fanins },
                }
            })
    }

    /// Primary input ids, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The position in [`Netlist::outputs`] of the output named `name`,
    /// found in constant expected time.
    #[must_use]
    pub fn output_position(&self, name: &str) -> Option<usize> {
        self.output_names.position(&self.outputs, name)
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (excludes inputs, constants and buffers).
    ///
    /// This is the `S0` quantity of the paper: the device count that scales
    /// load capacitance and leakage.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.structure
            .kinds
            .iter()
            .filter(|kind| kind.is_some_and(GateKind::counts_as_gate))
            .count()
    }

    /// The name of an input or output signal driven by `id`, if any output
    /// refers to it, otherwise a synthesized `n<id>` name.
    #[must_use]
    pub fn signal_name(&self, id: NodeId) -> String {
        if let Node::Input { name } = self.node(id) {
            return name.to_owned();
        }
        if let Some(out) = self.outputs.iter().find(|o| o.driver == id) {
            return out.name.clone();
        }
        format!("{id}")
    }

    /// Re-checks every structural invariant.
    ///
    /// Useful after constructing a netlist through non-`add_gate` paths
    /// (e.g. deserialization); netlists built exclusively through the public
    /// mutators always validate.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: fanin ordering, arity, or
    /// dangling output drivers.
    pub fn validate(&self) -> Result<(), LogicError> {
        for (i, node) in self.nodes().enumerate() {
            if let Node::Gate { kind, fanins } = node {
                kind.check_arity(fanins.len())?;
                if let Some(f) = fanins.iter().find(|f| f.index() >= i) {
                    return Err(LogicError::FaninOrder {
                        gate: i,
                        fanin: f.index(),
                    });
                }
            }
        }
        if let Some(out) = self
            .outputs
            .iter()
            .find(|o| o.driver.index() >= self.node_count())
        {
            return Err(LogicError::UnknownNode {
                id: out.driver.index(),
                len: self.node_count(),
            });
        }
        Ok(())
    }

    /// Evaluates every node under the given primary-input assignment and
    /// returns one value per node.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::AssignmentLength`] if `assignment` does not
    /// match the number of primary inputs.
    pub fn evaluate_nodes(&self, assignment: &[bool]) -> Result<Vec<bool>, LogicError> {
        if assignment.len() != self.inputs.len() {
            return Err(LogicError::AssignmentLength {
                expected: self.inputs.len(),
                got: assignment.len(),
            });
        }
        let mut values = vec![false; self.node_count()];
        let mut next_input = 0;
        let mut fanin_buf: Vec<bool> = Vec::new();
        for (i, node) in self.nodes().enumerate() {
            match node {
                Node::Input { .. } => {
                    values[i] = assignment[next_input];
                    next_input += 1;
                }
                Node::Gate { kind, fanins } => {
                    fanin_buf.clear();
                    fanin_buf.extend(fanins.iter().map(|f| values[f.index()]));
                    values[i] = kind.eval_bools(&fanin_buf);
                }
            }
        }
        Ok(values)
    }

    /// Instantiates `other` as a sub-circuit of `self`.
    ///
    /// `other`'s primary inputs are wired to the given `inputs` nodes (in
    /// declaration order); all of its gates are copied. Returns the nodes
    /// now computing `other`'s primary outputs, in declaration order.
    /// `other`'s output *names* are not imported — the caller decides what
    /// to expose.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::AssignmentLength`] if `inputs` does not match
    /// `other`'s input count and [`LogicError::UnknownNode`] if any supplied
    /// id does not exist in `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanobound_logic::{GateKind, Netlist};
    ///
    /// # fn main() -> Result<(), nanobound_logic::LogicError> {
    /// let mut half_adder = Netlist::new("ha");
    /// let a = half_adder.add_input("a");
    /// let b = half_adder.add_input("b");
    /// let s = half_adder.add_gate(GateKind::Xor, &[a, b])?;
    /// let c = half_adder.add_gate(GateKind::And, &[a, b])?;
    /// half_adder.add_output("s", s)?;
    /// half_adder.add_output("c", c)?;
    ///
    /// let mut top = Netlist::new("top");
    /// let x = top.add_input("x");
    /// let y = top.add_input("y");
    /// let outs = top.import(&half_adder, &[x, y])?;
    /// top.add_output("sum", outs[0])?;
    /// assert_eq!(top.evaluate(&[true, true])?, vec![false]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn import(
        &mut self,
        other: &Netlist,
        inputs: &[NodeId],
    ) -> Result<Vec<NodeId>, LogicError> {
        if inputs.len() != other.input_count() {
            return Err(LogicError::AssignmentLength {
                expected: other.input_count(),
                got: inputs.len(),
            });
        }
        let len = self.node_count();
        if let Some(id) = inputs.iter().find(|id| id.index() >= len) {
            return Err(LogicError::UnknownNode {
                id: id.index(),
                len,
            });
        }
        let mut map: Vec<NodeId> = Vec::with_capacity(other.node_count());
        let mut next_input = 0;
        let mut fanin_buf: Vec<NodeId> = Vec::new();
        for node in other.nodes() {
            let new_id = match node {
                Node::Input { .. } => {
                    let id = inputs[next_input];
                    next_input += 1;
                    id
                }
                Node::Gate { kind, fanins } => {
                    fanin_buf.clear();
                    fanin_buf.extend(fanins.iter().map(|f| map[f.index()]));
                    self.add_gate(kind, &fanin_buf)?
                }
            };
            map.push(new_id);
        }
        Ok(other
            .outputs()
            .iter()
            .map(|o| map[o.driver.index()])
            .collect())
    }

    /// Evaluates the primary outputs under the given input assignment.
    ///
    /// This is a convenience single-vector evaluator; use
    /// `nanobound-sim`'s bit-parallel engine for bulk simulation.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::AssignmentLength`] if `assignment` does not
    /// match the number of primary inputs.
    pub fn evaluate(&self, assignment: &[bool]) -> Result<Vec<bool>, LogicError> {
        let values = self.evaluate_nodes(assignment)?;
        Ok(self
            .outputs
            .iter()
            .map(|o| values[o.driver.index()])
            .collect())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, {} nodes",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gate_count(),
            self.node_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2(nl: &mut Netlist) -> NodeId {
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.add_gate(GateKind::Xor, &[a, b]).unwrap()
    }

    #[test]
    fn build_and_evaluate_xor() {
        let mut nl = Netlist::new("x");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        assert_eq!(nl.evaluate(&[false, false]).unwrap(), vec![false]);
        assert_eq!(nl.evaluate(&[true, false]).unwrap(), vec![true]);
        assert_eq!(nl.evaluate(&[false, true]).unwrap(), vec![true]);
        assert_eq!(nl.evaluate(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let err = nl.add_gate(GateKind::Maj, &[a, a]).unwrap_err();
        assert!(matches!(err, LogicError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_fanin_rejected() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let bogus = NodeId::from_index(17);
        let err = nl.add_gate(GateKind::Not, &[bogus]).unwrap_err();
        assert!(matches!(err, LogicError::UnknownNode { id: 17, .. }));
        let _ = a;
    }

    #[test]
    fn duplicate_output_rejected() {
        let mut nl = Netlist::new("x");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        let err = nl.add_output("y", y).unwrap_err();
        assert!(matches!(err, LogicError::DuplicateOutput { .. }));
    }

    #[test]
    fn dangling_output_rejected() {
        let mut nl = Netlist::new("x");
        let _ = xor2(&mut nl);
        let err = nl.add_output("y", NodeId::from_index(99)).unwrap_err();
        assert!(matches!(err, LogicError::UnknownNode { .. }));
    }

    #[test]
    fn assignment_length_checked() {
        let mut nl = Netlist::new("x");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        let err = nl.evaluate(&[true]).unwrap_err();
        assert_eq!(
            err,
            LogicError::AssignmentLength {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn gate_count_excludes_buffers_and_constants() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let c = nl.add_const(true);
        let g = nl.add_gate(GateKind::And, &[buf, c]).unwrap();
        let inv = nl.add_gate(GateKind::Not, &[g]).unwrap();
        nl.add_output("y", inv).unwrap();
        assert_eq!(nl.gate_count(), 2); // And + Not
        assert_eq!(nl.node_count(), 5);
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut nl = Netlist::new("x");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        nl.validate().unwrap();
    }

    #[test]
    fn constants_evaluate() {
        let mut nl = Netlist::new("k");
        let one = nl.add_const(true);
        let zero = nl.add_const(false);
        nl.add_output("one", one).unwrap();
        nl.add_output("zero", zero).unwrap();
        assert_eq!(nl.evaluate(&[]).unwrap(), vec![true, false]);
    }

    #[test]
    fn signal_names() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("alpha");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.add_output("out", g).unwrap();
        assert_eq!(nl.signal_name(a), "alpha");
        assert_eq!(nl.signal_name(g), "out");
    }

    #[test]
    fn display_mentions_counts() {
        let mut nl = Netlist::new("adder");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        let s = nl.to_string();
        assert!(s.contains("adder"));
        assert!(s.contains("2 inputs"));
    }

    #[test]
    fn import_wires_subcircuit() {
        let mut inv = Netlist::new("inv");
        let a = inv.add_input("a");
        let g = inv.add_gate(GateKind::Not, &[a]).unwrap();
        inv.add_output("y", g).unwrap();

        let mut top = Netlist::new("top");
        let x = top.add_input("x");
        let o1 = top.import(&inv, &[x]).unwrap();
        let o2 = top.import(&inv, &o1).unwrap(); // double inversion
        top.add_output("y", o2[0]).unwrap();
        assert_eq!(top.evaluate(&[true]).unwrap(), vec![true]);
        assert_eq!(top.evaluate(&[false]).unwrap(), vec![false]);
        assert_eq!(top.gate_count(), 2);
    }

    #[test]
    fn import_checks_input_arity() {
        let mut inv = Netlist::new("inv");
        let a = inv.add_input("a");
        let g = inv.add_gate(GateKind::Not, &[a]).unwrap();
        inv.add_output("y", g).unwrap();

        let mut top = Netlist::new("top");
        let err = top.import(&inv, &[]).unwrap_err();
        assert_eq!(
            err,
            LogicError::AssignmentLength {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn import_checks_node_existence() {
        let mut inv = Netlist::new("inv");
        let a = inv.add_input("a");
        let g = inv.add_gate(GateKind::Not, &[a]).unwrap();
        inv.add_output("y", g).unwrap();

        let mut top = Netlist::new("top");
        let err = top.import(&inv, &[NodeId::from_index(5)]).unwrap_err();
        assert!(matches!(err, LogicError::UnknownNode { id: 5, .. }));
    }

    #[test]
    fn from_parts_admits_forward_references() {
        // n0 = Not(n1), n1 = input: representable only through from_parts.
        let fanins = [NodeId::from_index(1)];
        let nodes = vec![
            Node::Gate {
                kind: GateKind::Not,
                fanins: &fanins,
            },
            Node::Input { name: "a" },
        ];
        let nl = Netlist::from_parts(
            "fwd",
            nodes,
            vec![NodeId::from_index(1)],
            vec![Output {
                name: "y".into(),
                driver: NodeId::from_index(0),
            }],
        )
        .unwrap();
        assert_eq!(nl.node_count(), 2);
        // The order invariant is (deliberately) violated.
        assert!(matches!(
            nl.validate().unwrap_err(),
            LogicError::FaninOrder { gate: 0, fanin: 1 }
        ));
    }

    #[test]
    fn from_parts_still_checks_everything_but_order() {
        let input = || Node::Input { name: "a" };
        let err = Netlist::from_parts(
            "bad",
            vec![Node::Gate {
                kind: GateKind::Maj,
                fanins: &[NodeId::from_index(0)],
            }],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, LogicError::ArityMismatch { .. }));

        let err = Netlist::from_parts(
            "bad",
            vec![Node::Gate {
                kind: GateKind::Not,
                fanins: &[NodeId::from_index(9)],
            }],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, LogicError::UnknownNode { id: 9, .. }));

        let err = Netlist::from_parts("bad", vec![input()], vec![], vec![]).unwrap_err();
        assert_eq!(err, LogicError::InputListMismatch);

        let err = Netlist::from_parts(
            "bad",
            vec![input()],
            vec![NodeId::from_index(0)],
            vec![Output {
                name: "y".into(),
                driver: NodeId::from_index(4),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, LogicError::UnknownNode { id: 4, .. }));

        let out = |name: &str| Output {
            name: name.into(),
            driver: NodeId::from_index(0),
        };
        let err = Netlist::from_parts(
            "bad",
            vec![input()],
            vec![NodeId::from_index(0)],
            vec![out("y"), out("y")],
        )
        .unwrap_err();
        assert!(matches!(err, LogicError::DuplicateOutput { .. }));
    }

    #[test]
    fn node_ids_are_topological() {
        let mut nl = Netlist::new("x");
        let y = xor2(&mut nl);
        nl.add_output("y", y).unwrap();
        for id in nl.node_ids() {
            for &f in nl.node(id).fanins() {
                assert!(f < id);
            }
        }
    }
}
