//! Clusters of multi-core nodes — the paper's §VI extension.
//!
//! "We plan to make all Open MPI's collective components distance-aware …
//! but also clusters of multi-core mixing inter-node and intra-node
//! communication together. To reach this goal, firstly we will extend the
//! information provided by the HWLOC software to include a view of the
//! global process placement, taking into account a simplified view of the
//! network infrastructure."
//!
//! A cluster is **flattened** into one [`Machine`]: each member machine's
//! tree becomes a `Node` subtree under the cluster root,
//! [`Machine::from_tree`] numbers the objects and derives the core views
//! (so ids are global and every core records its node), and the cluster
//! writes the one coordinate the tree does not hold, each core's leaf
//! switch. The distance
//! function then extends naturally (same node → 1–6 as before, different
//! nodes behind one switch → 7, across switches → 8), and because the
//! topology constructions are parametric in the weight, Algorithms 1 and 2
//! *automatically* become hierarchical inter-/intra-node algorithms: Kruskal
//! accepts exactly one distance-7/8 edge per node merge, between the node
//! leaders.

use crate::error::TopoError;
use crate::object::{push_obj, Machine, Obj, ObjKind};

/// Builds a flattened cluster machine from member nodes.
///
/// `switch_of_node[i]` is the leaf switch node `i` hangs off (dense ids).
/// Member machines are typically all equal, but heterogeneous clusters are
/// allowed.
pub fn cluster(
    name: impl Into<String>,
    nodes: &[Machine],
    switch_of_node: &[usize],
) -> Result<Machine, TopoError> {
    if nodes.is_empty() {
        return Err(TopoError::EmptyMachine);
    }
    assert_eq!(nodes.len(), switch_of_node.len(), "one switch assignment per node");

    let mut objs: Vec<Obj> = Vec::new();
    let total_mem: u64 = nodes.iter().map(|n| n.objs[0].size_bytes).sum();
    let root = push_obj(&mut objs, ObjKind::Machine, None, total_mem);
    let mut os_index: Vec<usize> = Vec::new();
    for machine in nodes {
        // The member's root becomes a Node under the cluster root.
        let base = objs.len();
        objs[root].children.push(base);
        objs.extend(machine.objs.iter().enumerate().map(|(i, obj)| Obj {
            kind: match (i, obj.kind) {
                (0, _) => ObjKind::Node,
                (_, ObjKind::Node) => unreachable!("clusters cannot nest"),
                (_, kind) => kind,
            },
            parent: Some(obj.parent.map_or(root, |p| base + p)),
            children: obj.children.iter().map(|&c| base + c).collect(),
            ..obj.clone()
        }));
        let core_off = os_index.len();
        os_index.extend(machine.os_index.iter().map(|&core| core + core_off));
    }

    let mut m = Machine::from_tree(name, objs, os_index)?;
    for view in &mut m.cores {
        view.switch = switch_of_node[view.node];
    }
    m.num_switches = switch_of_node.iter().max().expect("one switch per node, nodes exist") + 1;
    Ok(m)
}

/// Convenience: `n` identical nodes spread evenly over `switches` leaf
/// switches (`node i` on `switch i * switches / n`).
pub fn homogeneous(
    name: impl Into<String>,
    node: &Machine,
    n: usize,
    switches: usize,
) -> Result<Machine, TopoError> {
    let nodes: Vec<Machine> = (0..n).map(|_| node.clone()).collect();
    let switch_of_node: Vec<usize> = (0..n).map(|i| i * switches / n).collect();
    cluster(name, &nodes, &switch_of_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{core_distance, DistanceMatrix, DIST_CROSS_SWITCH, DIST_SAME_SWITCH};
    use crate::machines;

    fn ig2x2() -> Machine {
        // 4 IG nodes, 2 per switch: 192 cores.
        homogeneous("ig-cluster", &machines::ig(), 4, 2).unwrap()
    }

    #[test]
    fn flatten_counts() {
        let c = ig2x2();
        assert_eq!(c.num_cores(), 192);
        assert_eq!(c.num_nodes, 4);
        assert_eq!(c.num_switches, 2);
        assert_eq!(c.num_numa, 32);
        assert_eq!(c.num_sockets, 32);
        assert_eq!(c.num_boards, 8);
        assert_eq!(c.objs[0].size_bytes, 4 * 128 * (1 << 30));
    }

    #[test]
    fn node_and_switch_assignment() {
        let c = ig2x2();
        assert_eq!(c.core(0).node, 0);
        assert_eq!(c.core(47).node, 0);
        assert_eq!(c.core(48).node, 1);
        assert_eq!(c.core(191).node, 3);
        assert_eq!(c.core(0).switch, 0);
        assert_eq!(c.core(48).switch, 0);
        assert_eq!(c.core(96).switch, 1);
    }

    #[test]
    fn cluster_distances_extend_the_paper() {
        let c = ig2x2();
        // Intra-node distances unchanged.
        assert_eq!(core_distance(&c, 0, 5), 1);
        assert_eq!(core_distance(&c, 0, 12), 5);
        assert_eq!(core_distance(&c, 0, 24), 6);
        // Inter-node.
        assert_eq!(core_distance(&c, 0, 48), DIST_SAME_SWITCH);
        assert_eq!(core_distance(&c, 0, 96), DIST_CROSS_SWITCH);
        let dm = DistanceMatrix::for_machine(&c);
        assert_eq!(dm.classes(), vec![1, 5, 6, 7, 8]);
    }

    #[test]
    fn logical_ids_rebased_globally() {
        let c = ig2x2();
        // Node 1's first core is Core #48 with caches L3 #8, L2 #48, L1 #48.
        let v = c.core(48);
        assert_eq!(v.numa, 8);
        assert_eq!(v.socket, 8);
        assert_eq!(v.board, 2);
        assert!(v.caches.contains(&(3, 8)));
        assert!(v.caches.contains(&(1, 48)));
    }

    #[test]
    fn tree_structure_is_consistent() {
        let c = ig2x2();
        // Every non-root object's parent lists it as a child.
        for (i, obj) in c.objs.iter().enumerate() {
            if let Some(p) = obj.parent {
                assert!(c.objs[p].children.contains(&i), "obj {i}");
            }
        }
        // Walk visits everything exactly once.
        let mut count = 0;
        c.walk(0, &mut |_, _| count += 1);
        assert_eq!(count, c.objs.len());
        // Four Node objects directly under the root.
        assert_eq!(c.objs[0].children.len(), 4);
        for &child in &c.objs[0].children {
            assert_eq!(c.objs[child].kind, ObjKind::Node);
        }
    }

    #[test]
    fn shared_cache_queries_do_not_cross_nodes() {
        let c = ig2x2();
        assert!(c.core(0).shares_cache_with(c.core(5)));
        assert!(!c.core(0).shares_cache_with(c.core(48)), "rebased ids keep caches distinct");
        assert!(c.core(48).shares_cache_with(c.core(53)));
    }

    #[test]
    fn heterogeneous_cluster() {
        let c = cluster("mixed", &[machines::zoot(), machines::ig()], &[0, 0]).unwrap();
        assert_eq!(c.num_cores(), 64);
        assert_eq!(c.num_numa, 9);
        assert_eq!(core_distance(&c, 0, 16), DIST_SAME_SWITCH);
        assert_eq!(core_distance(&c, 0, 4), 3, "Zoot distances intact");
        assert_eq!(core_distance(&c, 16, 40), 6, "IG distances intact");
    }

    #[test]
    fn nodes_without_numa_or_board_objects_keep_their_own_domains() {
        // Two cores on one package, no NUMA node or board object (an
        // hwloc-1 dump of a UMA machine).
        let xml = include_str!("../tests/fixtures/io_subtrees.xml");
        let node = crate::hwloc_xml::parse_hwloc_xml(xml).unwrap();
        let c = cluster("uma-x2", &[node.clone(), node], &[0, 0]).unwrap();
        let (a, b) = (c.core(0), c.core(2));
        assert_eq!(
            (c.core(1).numa, c.core(1).socket, c.core(1).board),
            (a.numa, a.socket, a.board)
        );
        assert!(a.numa != b.numa && a.socket != b.socket && a.board != b.board);
        assert_eq!((c.num_numa, c.num_sockets, c.num_boards), (2, 2, 2));
    }

    #[test]
    fn empty_cluster_rejected() {
        assert_eq!(cluster("empty", &[], &[]).unwrap_err(), TopoError::EmptyMachine);
    }

    #[test]
    fn os_index_concatenates() {
        let c = homogeneous("zoots", &machines::zoot(), 2, 1).unwrap();
        assert_eq!(c.core_of_os_id(0), 0);
        assert_eq!(c.core_of_os_id(1), 4, "Zoot's interleaved OS order preserved");
        assert_eq!(c.core_of_os_id(16), 16);
        assert_eq!(c.core_of_os_id(17), 20);
    }
}
