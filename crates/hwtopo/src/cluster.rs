//! Clusters of multi-core nodes — the paper's §VI extension.
//!
//! "We plan to make all Open MPI's collective components distance-aware …
//! but also clusters of multi-core mixing inter-node and intra-node
//! communication together. To reach this goal, firstly we will extend the
//! information provided by the HWLOC software to include a view of the
//! global process placement, taking into account a simplified view of the
//! network infrastructure."
//!
//! A cluster is **flattened** into one [`Machine`]: each member machine
//! becomes a `Node` object under the cluster root, all logical ids are
//! re-based, and every core records its node and leaf switch. The distance
//! function then extends naturally (same node → 1–6 as before, different
//! nodes behind one switch → 7, across switches → 8), and because the
//! topology constructions are parametric in the weight, Algorithms 1 and 2
//! *automatically* become hierarchical inter-/intra-node algorithms: Kruskal
//! accepts exactly one distance-7/8 edge per node merge, between the node
//! leaders.

use crate::error::TopoError;
use crate::object::{CoreView, Machine, Obj, ObjKind};

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
    let num_switches = switch_of_node.iter().max().unwrap() + 1;

    let mut objs: Vec<Obj> = Vec::new();
    let mut cores: Vec<CoreView> = Vec::new();
    let mut os_index: Vec<usize> = Vec::new();

    let total_mem: u64 = nodes.iter().map(|n| n.objs[0].size_bytes).sum();
    objs.push(Obj {
        kind: ObjKind::Machine,
        logical_id: 0,
        parent: None,
        children: Vec::new(),
        size_bytes: total_mem,
    });

    // Per-kind logical-id offsets accumulated across nodes.
    let mut board_off = 0usize;
    let mut numa_off = 0usize;
    let mut socket_off = 0usize;
    let mut die_off = 0usize;
    let mut core_off = 0usize;
    let mut cache_off = [0usize; 4];

    for (node_id, (machine, &switch)) in nodes.iter().zip(switch_of_node).enumerate() {
        let obj_base = objs.len();
        // The member's root becomes a Node under the cluster root.
        for (i, obj) in machine.objs.iter().enumerate() {
            let mut o = obj.clone();
            o.parent = match obj.parent {
                Some(p) => Some(obj_base + p),
                None => Some(0),
            };
            o.children = obj.children.iter().map(|&c| obj_base + c).collect();
            match o.kind {
                ObjKind::Machine => {
                    o.kind = ObjKind::Node;
                    o.logical_id = node_id;
                }
                ObjKind::Node => unreachable!("clusters cannot nest"),
                ObjKind::Board => o.logical_id += board_off,
                ObjKind::NumaNode => o.logical_id += numa_off,
                ObjKind::Socket => o.logical_id += socket_off,
                ObjKind::Die => o.logical_id += die_off,
                ObjKind::Cache(l) => o.logical_id += cache_off[l as usize],
                ObjKind::Core | ObjKind::Pu => o.logical_id += core_off,
            }
            if i == 0 {
                objs[0].children.push(obj_base);
            }
            objs.push(o);
        }

        for view in &machine.cores {
            let mut v = view.clone();
            v.core += core_off;
            v.obj += obj_base;
            v.board += board_off;
            v.numa += numa_off;
            v.socket += socket_off;
            if let Some(d) = v.die.as_mut() {
                *d += die_off;
            }
            for (level, id) in v.caches.iter_mut() {
                *id += cache_off[*level as usize];
            }
            v.node = node_id;
            v.switch = switch;
            cores.push(v);
        }
        for &os in &machine.os_index {
            os_index.push(os + core_off);
        }

        board_off += machine.num_boards;
        numa_off += machine.num_numa;
        socket_off += machine.num_sockets;
        core_off += machine.num_cores();
        die_off += machine.cores.iter().filter_map(|c| c.die).max().map_or(0, |d| d + 1);
        for l in 1..=3u8 {
            cache_off[l as usize] += machine
                .cores
                .iter()
                .flat_map(|c| c.caches.iter())
                .filter(|&&(level, _)| level == l)
                .map(|&(_, id)| id + 1)
                .max()
                .unwrap_or(0);
        }
    }

    Ok(Machine {
        name: name.into(),
        objs,
        cores,
        os_index,
        num_boards: board_off,
        num_numa: numa_off,
        num_sockets: socket_off,
        num_nodes: nodes.len(),
        num_switches,
    })
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
