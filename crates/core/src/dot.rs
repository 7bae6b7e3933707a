//! Graphviz DOT export for communication topologies.
//!
//! `dot -Tsvg out.dot > out.svg` renders the trees the way the paper draws
//! its Figures 1 and 4: nodes labelled `P<rank>`, grouped by NUMA node,
//! edges annotated with the process distance.

use pdac_hwtopo::{Binding, DistanceMatrix, Machine};

use crate::tree::Tree;

/// Escapes nothing fancy — rank labels are alphanumeric by construction.
fn cluster_blocks(machine: &Machine, binding: &Binding, out: &mut String) {
    for numa in 0..machine.num_numa {
        let members: Vec<usize> = (0..binding.num_ranks())
            .filter(|&r| machine.core(binding.core_of(r)).numa == numa)
            .collect();
        if members.is_empty() {
            continue;
        }
        out.push_str(&format!("  subgraph cluster_numa{numa} {{\n"));
        out.push_str(&format!("    label=\"NUMA {numa}\";\n    style=dashed;\n"));
        for r in members {
            out.push_str(&format!("    P{r};\n"));
        }
        out.push_str("  }\n");
    }
}

/// A broadcast tree as a directed DOT graph, root at the top, edges
/// labelled with their distance class, ranks boxed by NUMA node.
pub fn tree_to_dot(
    tree: &Tree,
    dist: &DistanceMatrix,
    machine: &Machine,
    binding: &Binding,
) -> String {
    let mut out = String::from("digraph bcast {\n  rankdir=TB;\n  node [shape=circle];\n");
    cluster_blocks(machine, binding, &mut out);
    out.push_str(&format!("  P{} [shape=doublecircle];\n", tree.root));
    for (parent, child) in tree.down_edges() {
        out.push_str(&format!(
            "  P{parent} -> P{child} [label=\"{}\"];\n",
            dist.get(parent, child)
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast_tree::build_bcast_tree;
    use pdac_hwtopo::{machines, BindingPolicy};

    #[test]
    fn tree_dot_contains_every_edge_and_root() {
        let m = machines::two_board_numa12();
        let binding = BindingPolicy::Random { seed: 2011 }.bind(&m, 12).unwrap();
        let dist = DistanceMatrix::for_binding(&m, &binding);
        let tree = build_bcast_tree(&dist, 5);
        let dot = tree_to_dot(&tree, &dist, &m, &binding);
        assert!(dot.starts_with("digraph bcast {"));
        assert!(dot.contains("P5 [shape=doublecircle]"));
        assert_eq!(dot.matches(" -> ").count(), 11, "one arrow per tree edge");
        assert!(dot.contains("subgraph cluster_numa3"));
        assert!(dot.ends_with("}\n"));
    }
}
