//! Topology tree objects and the flattened per-core view.
//!
//! The tree mirrors hwloc's object model: a [`Machine`] owns a flat arena of
//! [`Obj`] nodes linked by parent/child indices, parents stored before their
//! children. Every constructor (the spec builder, the hwloc importer, the
//! cluster flattener) only builds that arena and hands it, with the OS
//! processor order, to [`Machine::from_tree`]. That one pass audits the
//! arena, numbers each object kind in arena order, and derives every core's
//! [`CoreView`] from the core's ancestors: the pre-resolved board / NUMA
//! node / socket / die / caches that the distance function and the
//! simulator query on hot paths, so no tree walking is needed there.
//! Distances are therefore a function of the tree alone.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::TopoError;

/// Index of an object inside a machine's arena.
pub type ObjIdx = usize;

/// Global core identity: the index of a core in topology (depth-first) order.
pub type CoreId = usize;

/// The kinds of objects a topology tree can contain, from the outermost in.
///
/// `Cache(l)` carries the cache level (1–3). hwloc's `PU` (hardware thread)
/// level is modelled but the paper binds one process per core, so PUs map
/// one-to-one to cores on every predefined machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjKind {
    /// The whole machine (root; exactly one). For flattened clusters (see
    /// [`crate::cluster`]) this is the cluster root.
    Machine,
    /// One compute node of a flattened cluster (absent on single-node
    /// machines).
    Node,
    /// A physical board; boards are interconnected by the slowest links.
    Board,
    /// A NUMA node: one memory controller and its local memory.
    NumaNode,
    /// A physical socket (package).
    Socket,
    /// A die within a socket.
    Die,
    /// A cache of the given level shared by the cores below it.
    Cache(u8),
    /// A physical core.
    Core,
    /// A processing unit (hardware thread).
    Pu,
}

impl ObjKind {
    /// Short label used by the ASCII renderer.
    pub fn label(self) -> String {
        match self {
            ObjKind::Machine => "Machine".to_string(),
            ObjKind::Node => "Node".to_string(),
            ObjKind::Board => "Board".to_string(),
            ObjKind::NumaNode => "NUMANode".to_string(),
            ObjKind::Socket => "Socket".to_string(),
            ObjKind::Die => "Die".to_string(),
            ObjKind::Cache(l) => format!("L{l}"),
            ObjKind::Core => "Core".to_string(),
            ObjKind::Pu => "PU".to_string(),
        }
    }
}

/// One node of the topology tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Obj {
    /// What this node is.
    pub kind: ObjKind,
    /// Index of this kind (e.g. the 3rd socket machine-wide has `logical_id
    /// == 2`), assigned in arena order by [`Machine::from_tree`]; a PU
    /// takes its core's id.
    pub logical_id: usize,
    /// Arena index of the parent (`None` for the machine root).
    pub parent: Option<ObjIdx>,
    /// Arena indices of the children, in topology order.
    pub children: Vec<ObjIdx>,
    /// Local memory in bytes for NUMA nodes, cache size in bytes for caches,
    /// total memory for the machine root; 0 elsewhere.
    pub size_bytes: u64,
}

/// Pre-resolved ancestry of one core: everything the distance function and
/// the route computation need, without walking the tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreView {
    /// This core's id (its index in topology order).
    pub core: CoreId,
    /// Arena index of the `Core` object.
    pub obj: ObjIdx,
    /// Logical id of the enclosing board.
    pub board: usize,
    /// Logical id of the enclosing NUMA node (memory controller domain).
    pub numa: usize,
    /// Logical id of the enclosing socket.
    pub socket: usize,
    /// Logical id of the enclosing die, when dies are modelled; sockets with
    /// a single implicit die report `None`.
    pub die: Option<usize>,
    /// `(level, cache logical id)` for every cache above this core,
    /// innermost first.
    pub caches: Vec<(u8, usize)>,
    /// Compute node of a flattened cluster (0 on single-node machines).
    #[serde(default)]
    pub node: usize,
    /// Network switch the core's node hangs off (0 on single-node machines).
    #[serde(default)]
    pub switch: usize,
}

impl CoreView {
    /// Whether the two cores share at least one cache of any level —
    /// condition (1) of the paper's distance definition.
    pub fn shares_cache_with(&self, other: &CoreView) -> bool {
        self.caches.iter().any(|c| other.caches.contains(c))
    }

    /// The innermost cache shared with `other`, if any: `(level, id)`.
    pub fn innermost_shared_cache(&self, other: &CoreView) -> Option<(u8, usize)> {
        self.caches.iter().find(|c| other.caches.contains(c)).copied()
    }
}

/// A fully built machine: the topology tree plus flattened lookup tables.
///
/// Construct via [`crate::MachineSpec::build`], one of the predefined
/// machines in [`crate::machines`], [`crate::hwloc_xml`], [`crate::cluster`]
/// or, from any object arena, [`Machine::from_tree`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    /// Human-readable machine name (e.g. `"zoot"`, `"ig"`).
    pub name: String,
    /// Object arena; index 0 is the `Machine` root.
    pub objs: Vec<Obj>,
    /// Per-core resolved ancestry, indexed by [`CoreId`].
    pub cores: Vec<CoreView>,
    /// OS processor numbering: `os_index[os_id] == core`. Captures machines
    /// (like Zoot) whose OS enumerates cores round-robin across sockets, so
    /// that "round-robin over OS ids" and "topology order" bindings differ.
    pub os_index: Vec<CoreId>,
    /// Number of boards.
    pub num_boards: usize,
    /// Number of NUMA nodes (memory controllers).
    pub num_numa: usize,
    /// Number of sockets.
    pub num_sockets: usize,
    /// Number of compute nodes (1 unless this is a flattened cluster).
    #[serde(default = "default_one")]
    pub num_nodes: usize,
    /// Number of network switches (1 unless this is a flattened cluster).
    #[serde(default = "default_one")]
    pub num_switches: usize,
}

fn default_one() -> usize {
    1
}

/// Appends an object under `parent` (linking both ends) and returns its
/// index. Its logical id is left for [`Machine::from_tree`] to assign.
pub(crate) fn push_obj(
    objs: &mut Vec<Obj>,
    kind: ObjKind,
    parent: Option<ObjIdx>,
    size_bytes: u64,
) -> ObjIdx {
    let idx = objs.len();
    objs.push(Obj { kind, logical_id: 0, parent, children: Vec::new(), size_bytes });
    if let Some(p) = parent {
        objs[p].children.push(idx);
    }
    idx
}

/// Whether `v` holds each of `0..v.len()` exactly once.
pub(crate) fn is_permutation(v: &[usize]) -> bool {
    let mut seen = vec![false; v.len()];
    v.iter().all(|&c| c < seen.len() && !std::mem::replace(&mut seen[c], true))
}

/// The objects above `idx`, innermost first.
fn ancestors(objs: &[Obj], idx: ObjIdx) -> impl Iterator<Item = ObjIdx> + '_ {
    std::iter::successors(objs[idx].parent, |&i| objs[i].parent)
}

/// Checks that `objs` is a forest stored parents first: every link points
/// into the arena, both ends of every link agree, and every parent precedes
/// its children. Parent walks over an audited arena therefore end.
fn audit(objs: &[Obj]) -> Result<(), TopoError> {
    for (idx, obj) in objs.iter().enumerate() {
        let parent_ok = obj.parent.is_none_or(|p| p < idx && objs[p].children.contains(&idx));
        let children_ok =
            obj.children.iter().all(|&c| objs.get(c).is_some_and(|o| o.parent == Some(idx)));
        if !(parent_ok && children_ok) {
            return Err(TopoError::NotATree { at: idx });
        }
    }
    Ok(())
}

/// The view of the `Core` at `idx`, read off its (numbered) ancestors. A
/// core's NUMA node is its nearest ancestor that is a NUMA node or carries
/// one as an hwloc-2 memory child (a childless NUMA node beside the subtree
/// it serves). A core with no board, NUMA node or socket above it reads
/// `implicit(kind, scope)`: the one such domain of its compute node (or of
/// the whole machine), `scope` being that node's arena index. A core
/// outside any compute node is on node 0; one without a die reads `None`.
fn core_view(
    objs: &[Obj],
    idx: ObjIdx,
    implicit: &mut impl FnMut(ObjKind, ObjIdx) -> usize,
) -> CoreView {
    let (mut board, mut numa, mut socket, mut die, mut node) = (None, None, None, None, None);
    let mut caches = Vec::new();
    let mut scope = idx;
    for a in ancestors(objs, idx) {
        if node.is_none() {
            scope = a;
        }
        let id = Some(objs[a].logical_id);
        match objs[a].kind {
            ObjKind::Cache(level) => caches.push((level, objs[a].logical_id)),
            ObjKind::Die => die = die.or(id),
            ObjKind::Socket => socket = socket.or(id),
            ObjKind::NumaNode => numa = numa.or(id),
            ObjKind::Board => board = board.or(id),
            ObjKind::Node => node = node.or(id),
            ObjKind::Machine | ObjKind::Core | ObjKind::Pu => {}
        }
        if numa.is_none() {
            let mut children = objs[a].children.iter().map(|&c| &objs[c]);
            let memory = children.find(|o| o.kind == ObjKind::NumaNode && o.children.is_empty());
            numa = memory.map(|o| o.logical_id);
        }
    }
    CoreView {
        core: objs[idx].logical_id,
        obj: idx,
        board: board.unwrap_or_else(|| implicit(ObjKind::Board, scope)),
        numa: numa.unwrap_or_else(|| implicit(ObjKind::NumaNode, scope)),
        socket: socket.unwrap_or_else(|| implicit(ObjKind::Socket, scope)),
        die,
        caches,
        node: node.unwrap_or(0),
        switch: 0,
    }
}

impl Machine {
    /// Builds a machine from its object tree and OS processor order
    /// (`os_index[os_id] == core`): audits the arena, numbers each object
    /// kind in arena order (a PU takes its core's id), derives every
    /// core's [`CoreView`] from its ancestors (a compute node without a
    /// board, NUMA node or socket object has one implicit domain of that
    /// kind), and counts boards, NUMA nodes, sockets and compute nodes as
    /// the largest id any core sees, plus one. Every core hangs off switch
    /// 0 of one.
    ///
    /// # Errors
    /// [`TopoError::NotATree`] for an arena that is not a forest stored
    /// parents first, [`TopoError::EmptyMachine`] for one without a core,
    /// and [`TopoError::BadOsOrder`] when `os_index` is not a permutation
    /// of the cores.
    pub fn from_tree(
        name: impl Into<String>,
        mut objs: Vec<Obj>,
        os_index: Vec<CoreId>,
    ) -> Result<Machine, TopoError> {
        audit(&objs)?;
        let mut next: HashMap<ObjKind, usize> = HashMap::new();
        for idx in 0..objs.len() {
            let count = next.entry(objs[idx].kind).or_default();
            let id = *count;
            *count += 1;
            objs[idx].logical_id = match objs[idx].kind {
                ObjKind::Pu => ancestors(&objs, idx)
                    .find(|&a| objs[a].kind == ObjKind::Core)
                    .map_or(id, |core| objs[core].logical_id),
                _ => id,
            };
        }
        // Implicit domains are numbered after their kind's objects.
        let mut implicit_ids: HashMap<(ObjKind, ObjIdx), usize> = HashMap::new();
        let mut implicit = |kind, scope| {
            *implicit_ids.entry((kind, scope)).or_insert_with(|| {
                let count = next.entry(kind).or_default();
                *count += 1;
                *count - 1
            })
        };
        let cores: Vec<CoreView> = (0..objs.len())
            .filter(|&idx| objs[idx].kind == ObjKind::Core)
            .map(|idx| core_view(&objs, idx, &mut implicit))
            .collect();
        if cores.is_empty() {
            return Err(TopoError::EmptyMachine);
        }
        if os_index.len() != cores.len() || !is_permutation(&os_index) {
            return Err(TopoError::BadOsOrder {
                expected_len: cores.len(),
                got_len: os_index.len(),
            });
        }
        let count = |id: fn(&CoreView) -> usize| cores.iter().map(id).max().unwrap_or(0) + 1;
        Ok(Machine {
            name: name.into(),
            num_boards: count(|c| c.board),
            num_numa: count(|c| c.numa),
            num_sockets: count(|c| c.socket),
            num_nodes: count(|c| c.node),
            num_switches: 1,
            objs,
            cores,
            os_index,
        })
    }

    /// Number of cores on the machine.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The resolved ancestry for `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn core(&self, core: CoreId) -> &CoreView {
        &self.cores[core]
    }

    /// Core holding OS processor id `os_id` (hwloc's `PU P#os_id`).
    pub fn core_of_os_id(&self, os_id: usize) -> CoreId {
        self.os_index[os_id]
    }

    /// Cores belonging to socket `socket`, in topology order.
    pub fn cores_of_socket(&self, socket: usize) -> Vec<CoreId> {
        self.cores.iter().filter(|c| c.socket == socket).map(|c| c.core).collect()
    }

    /// Capacity of the largest cache above `core` (its outermost level).
    pub fn largest_cache_size(&self, core: CoreId) -> Option<u64> {
        self.ancestors(core)
            .filter(|o| matches!(o.kind, ObjKind::Cache(_)))
            .map(|o| o.size_bytes)
            .max()
            .filter(|&s| s > 0)
    }

    /// Size in bytes of the innermost cache shared by `a` and `b`, if any.
    pub fn shared_cache_size(&self, a: CoreId, b: CoreId) -> Option<u64> {
        let (level, id) = self.cores[a].innermost_shared_cache(&self.cores[b])?;
        self.ancestors(a)
            .find(|o| o.kind == ObjKind::Cache(level) && o.logical_id == id)
            .map(|o| o.size_bytes)
    }

    /// The objects above `core`'s `Core` object, innermost first.
    fn ancestors(&self, core: CoreId) -> impl Iterator<Item = &Obj> {
        ancestors(&self.objs, self.cores[core].obj).map(|i| &self.objs[i])
    }

    /// Walks the subtree rooted at `idx` depth-first, calling `f` with
    /// `(depth, obj)`.
    pub fn walk<F: FnMut(usize, &Obj)>(&self, idx: ObjIdx, f: &mut F) {
        fn rec<F: FnMut(usize, &Obj)>(m: &Machine, idx: ObjIdx, depth: usize, f: &mut F) {
            f(depth, &m.objs[idx]);
            for &c in &m.objs[idx].children {
                rec(m, c, depth + 1, f);
            }
        }
        rec(self, idx, 0, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn ig_shape() {
        let ig = machines::ig();
        assert_eq!(ig.num_cores(), 48);
        assert_eq!(ig.num_boards, 2);
        assert_eq!(ig.num_numa, 8);
        assert_eq!(ig.num_sockets, 8);
        assert!((0..ig.num_sockets).all(|s| ig.cores_of_socket(s).len() == 6));
    }

    #[test]
    fn ig_core_ancestry_matches_figure3() {
        let ig = machines::ig();
        // Figure 3: socket s holds cores 6s..6s+5; board 0 holds sockets 0-3.
        let c0 = ig.core(0);
        assert_eq!((c0.board, c0.numa, c0.socket), (0, 0, 0));
        let c12 = ig.core(12);
        assert_eq!((c12.board, c12.numa, c12.socket), (0, 2, 2));
        let c24 = ig.core(24);
        assert_eq!((c24.board, c24.numa, c24.socket), (1, 4, 4));
        let c47 = ig.core(47);
        assert_eq!((c47.board, c47.numa, c47.socket), (1, 7, 7));
    }

    #[test]
    fn ig_l3_shared_within_socket_only() {
        let ig = machines::ig();
        assert!(ig.core(0).shares_cache_with(ig.core(5)));
        assert!(!ig.core(0).shares_cache_with(ig.core(6)));
        assert_eq!(ig.shared_cache_size(0, 5), Some(5 * 1024 * 1024 - 2 * 1024));
    }

    #[test]
    fn zoot_shape_and_caches() {
        let z = machines::zoot();
        assert_eq!(z.num_cores(), 16);
        assert_eq!(z.num_numa, 1, "Zoot has a single FSB memory controller");
        assert_eq!(z.num_sockets, 4);
        // L2 shared between pairs of cores on the same die.
        assert!(z.core(0).shares_cache_with(z.core(1)));
        assert!(!z.core(1).shares_cache_with(z.core(2)));
        assert_eq!(z.shared_cache_size(0, 1), Some(4 * 1024 * 1024));
    }

    #[test]
    fn zoot_os_order_interleaves_sockets() {
        let z = machines::zoot();
        // Consecutive OS ids land on different sockets (paper §III).
        for os in 0..15 {
            let a = z.core(z.core_of_os_id(os)).socket;
            let b = z.core(z.core_of_os_id(os + 1)).socket;
            assert_ne!(a, b, "OS ids {os},{} on same socket", os + 1);
        }
    }

    #[test]
    fn cache_sizes_from_the_ancestors_match_an_arena_scan() {
        // What the sizes were before the walk: the first arena object of
        // the cache's level and logical id.
        let scan = |m: &Machine, (level, id): (u8, usize)| {
            let mut objs = m.objs.iter();
            objs.find(|o| o.kind == ObjKind::Cache(level) && o.logical_id == id)
                .map(|o| o.size_bytes)
        };
        let ig = machines::ig();
        let machines = [
            machines::zoot(),
            machines::synthetic(2, 2, 8, true),
            crate::cluster::homogeneous("ig-x4", &ig, 4, 2).unwrap(),
            crate::hwloc_xml::parse_hwloc_xml(crate::hwloc_xml::tests::DUAL_SOCKET).unwrap(),
            ig,
        ];
        for m in &machines {
            for a in 0..m.num_cores() {
                let largest = m.core(a).caches.iter().map(|&c| scan(m, c).unwrap_or(0));
                assert_eq!(m.largest_cache_size(a), largest.max().filter(|&s| s > 0), "{}", m.name);
                for b in 0..m.num_cores() {
                    let shared = m.core(a).innermost_shared_cache(m.core(b));
                    let expected = shared.and_then(|c| scan(m, c));
                    assert_eq!(m.shared_cache_size(a, b), expected, "{} {a} {b}", m.name);
                }
            }
        }
    }

    #[test]
    fn walk_visits_every_object_once() {
        let ig = machines::ig();
        let mut seen = 0usize;
        ig.walk(0, &mut |_, _| seen += 1);
        assert_eq!(seen, ig.objs.len());
    }

    #[test]
    fn serde_roundtrip() {
        let ig = machines::ig();
        let json = serde_json::to_string(&ig).unwrap();
        let back: Machine = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_cores(), ig.num_cores());
        assert_eq!(back.cores, ig.cores);
    }
}
