//! Stable, collision-free signal names for netlist serialization.

use std::collections::HashSet;

use nanobound_logic::{Netlist, Node, NodeId};

/// Assigns a unique textual name to every node.
///
/// Inputs keep their declared names; a node driving one or more outputs is
/// named after the first of them; everything else gets `n<id>`. Collisions
/// (e.g. an internal `n5` colliding with an input literally named `n5`) are
/// resolved with a `_` suffix.
pub(crate) fn node_names(netlist: &Netlist) -> Vec<String> {
    let mut used: HashSet<String> = HashSet::new();
    let mut names: Vec<String> = Vec::with_capacity(netlist.node_count());

    // First pass: inputs and output-driving nodes claim their names.
    let mut preferred: Vec<Option<String>> = vec![None; netlist.node_count()];
    for id in netlist.node_ids() {
        if let Node::Input { name } = netlist.node(id) {
            preferred[id.index()] = Some(name.to_owned());
        }
    }
    for out in netlist.outputs() {
        let slot = &mut preferred[out.driver.index()];
        if slot.is_none() {
            *slot = Some(out.name.clone());
        }
    }

    for id in netlist.node_ids() {
        let base = preferred[id.index()]
            .clone()
            .unwrap_or_else(|| format!("{id}"));
        let mut name = base;
        while !used.insert(name.clone()) {
            name.push('_');
        }
        names.push(name);
    }
    names
}

/// The extra `BUFF` aliases a writer must emit: every output whose name is
/// not the canonical name of its driver node.
pub(crate) fn output_aliases(netlist: &Netlist, names: &[String]) -> Vec<(String, NodeId)> {
    netlist
        .outputs()
        .iter()
        .filter(|o| names[o.driver.index()] != o.name)
        .map(|o| (o.name.clone(), o.driver))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_logic::GateKind;

    #[test]
    fn inputs_and_outputs_keep_names() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", g).unwrap();
        let names = node_names(&nl);
        assert_eq!(names, vec!["a", "b", "y"]);
        assert!(output_aliases(&nl, &names).is_empty());
    }

    #[test]
    fn shared_driver_gets_alias() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.add_output("y1", g).unwrap();
        nl.add_output("y2", g).unwrap();
        let names = node_names(&nl);
        assert_eq!(names[g.index()], "y1");
        let aliases = output_aliases(&nl, &names);
        assert_eq!(aliases, vec![("y2".to_string(), g)]);
    }

    #[test]
    fn collisions_resolved() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("n1"); // collides with the id-name of node 1
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let h = nl.add_gate(GateKind::Not, &[g]).unwrap();
        nl.add_output("y", h).unwrap();
        let names = node_names(&nl);
        assert_eq!(names.len(), 3);
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3, "all names unique: {names:?}");
    }

    #[test]
    fn output_directly_on_input_gets_alias() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.add_output("y", a).unwrap();
        let names = node_names(&nl);
        assert_eq!(names[a.index()], "a");
        assert_eq!(output_aliases(&nl, &names), vec![("y".to_string(), a)]);
    }
}
