//! The passes' working form: a netlist's structure without its names.

use crate::gate::GateKind;
use crate::netlist::{Netlist, Node, NodeId, Output};

/// Node kinds and fanins in one arena, plus the output drivers.
///
/// Every pass keeps the primary inputs in their relative order and the
/// outputs in theirs, so the k-th input node always stands for the
/// source's k-th input and the j-th driver for its j-th output. Names
/// are therefore attached once, by [`Flat::into_netlist`], and a pass
/// costs one walk over flat arrays with no per-gate allocation.
/// Equality is structural equality of the netlists the two would build.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Flat {
    /// Per node: its gate kind, or `None` for a primary input.
    kinds: Vec<Option<GateKind>>,
    /// Node `i`'s fanins are `fanins[ends[i - 1]..ends[i]]`, starting
    /// at 0 for node 0.
    ends: Vec<u32>,
    fanins: Vec<NodeId>,
    /// The driver of each primary output, in declaration order.
    pub(crate) outputs: Vec<NodeId>,
}

impl Flat {
    /// An empty structure with room for `nodes` nodes and `fanins`
    /// fanin slots.
    pub(crate) fn with_capacity(nodes: usize, fanins: usize) -> Self {
        Flat {
            kinds: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(nodes),
            fanins: Vec::with_capacity(fanins),
            outputs: Vec::new(),
        }
    }

    /// The structure of `netlist`.
    pub(crate) fn of(netlist: &Netlist) -> Self {
        let fanins = netlist.nodes().iter().map(|n| n.fanins().len()).sum();
        let mut flat = Flat::with_capacity(netlist.node_count(), fanins);
        for node in netlist.nodes() {
            match node {
                Node::Input { .. } => flat.push_input(),
                Node::Gate { kind, fanins } => flat.push_gate(*kind, fanins),
            };
        }
        flat.outputs = netlist.outputs().iter().map(|o| o.driver).collect();
        flat
    }

    /// Builds the netlist this structure describes, named after `source`:
    /// its design name, its input names and its output names.
    pub(crate) fn into_netlist(self, source: &Netlist) -> Netlist {
        let mut input_names = source.inputs().iter().map(|&id| match source.node(id) {
            Node::Input { name } => name.clone(),
            Node::Gate { .. } => unreachable!("the input list holds inputs"),
        });
        let mut nodes = Vec::with_capacity(self.len());
        let mut inputs = Vec::with_capacity(source.input_count());
        for i in 0..self.len() {
            let id = NodeId::from_index(i);
            nodes.push(match self.kinds[i] {
                None => {
                    inputs.push(id);
                    Node::Input {
                        name: input_names.next().expect("passes keep every input"),
                    }
                }
                Some(kind) => Node::Gate {
                    kind,
                    fanins: self.fanins(id).to_vec(),
                },
            });
        }
        let outputs = source
            .outputs()
            .iter()
            .zip(&self.outputs)
            .map(|(o, &driver)| Output {
                name: o.name.clone(),
                driver,
            })
            .collect();
        Netlist::from_parts(source.name(), nodes, inputs, outputs)
            .expect("passes keep the netlist well-formed")
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
    pub(crate) fn kind(&self, id: NodeId) -> Option<GateKind> {
        self.kinds[id.index()]
    }

    /// The fanins of `id`.
    pub(crate) fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.fanins[start as usize..self.ends[i] as usize]
    }

    /// The fanin of `id` if it is an inverter.
    pub(crate) fn inverted(&self, id: NodeId) -> Option<NodeId> {
        (self.kind(id) == Some(GateKind::Not)).then(|| self.fanins(id)[0])
    }

    /// Appends a primary input.
    pub(crate) fn push_input(&mut self) -> NodeId {
        self.push(None, &[])
    }

    /// Appends a gate; the caller guarantees arity and fanin order.
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
