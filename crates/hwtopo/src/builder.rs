//! Validated construction of [`Machine`] topologies from declarative specs.
//!
//! A [`MachineSpec`] lists sockets in global core order, each carrying its
//! board / NUMA-node coordinates, die layout and cache coverage. `build`
//! checks structural invariants (NUMA nodes owned by one board or one die,
//! non-empty caches nested inside dies and inside each other, no
//! overlapping same-level caches), builds the object tree, and hands it to
//! [`Machine::from_tree`], which numbers the objects, derives the
//! [`crate::CoreView`] table and checks the OS order.

use std::cmp::Reverse;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::TopoError;
use crate::object::{push_obj, Machine, ObjIdx, ObjKind};

/// A cache shared by a subset of a socket's cores.
///
/// `cores` are indexed locally within the socket (0-based).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Cache level, 1–3.
    pub level: u8,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Socket-local core indices covered by this cache, all on one die.
    pub cores: Vec<usize>,
}

/// One socket (physical package) and its position in the hierarchy.
///
/// Board and NUMA ids name objects; the built machine numbers them in
/// order of first appearance, as it numbers every object kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackageSpec {
    /// Board the socket sits on.
    pub board: usize,
    /// NUMA node (memory controller domain) the socket belongs to. Several
    /// sockets of one board may share one NUMA node (e.g. Zoot's single
    /// FSB controller). Ignored when [`Self::die_numa`] splits the socket.
    pub numa: usize,
    /// Cores per die. A single-element vector models a socket without an
    /// explicit die level.
    pub cores_per_die: Vec<usize>,
    /// Per-die NUMA node override for packages with one memory controller
    /// per die (AMD Magny-Cours style) — the hardware that produces the
    /// paper's distance **4** (same socket, different controllers). Must
    /// have one entry per die when present.
    #[serde(default)]
    pub die_numa: Option<Vec<usize>>,
    /// Caches inside this socket.
    pub caches: Vec<CacheSpec>,
    /// Local memory attached to this socket's NUMA node, in bytes. When
    /// several sockets share a NUMA node the values must agree; the memory is
    /// counted once. With [`Self::die_numa`], attributed per die NUMA node.
    pub numa_memory_bytes: u64,
}

impl PackageSpec {
    fn num_cores(&self) -> usize {
        self.cores_per_die.iter().sum()
    }
}

/// Declarative machine description; serde-serializable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name.
    pub name: String,
    /// Sockets in global core order, grouped by (board, numa).
    pub sockets: Vec<PackageSpec>,
    /// OS processor numbering: `os_order[os_id] = global core id`. Defaults
    /// to the identity (OS order == topology order).
    pub os_order: Option<Vec<usize>>,
}

impl MachineSpec {
    /// Builds and validates the machine.
    pub fn build(&self) -> Result<Machine, TopoError> {
        self.validate()?;
        let mut objs = Vec::new();
        let root = push_obj(&mut objs, ObjKind::Machine, None, 0);
        let mut boards: HashMap<usize, ObjIdx> = HashMap::new();
        let mut numas: HashMap<usize, ObjIdx> = HashMap::new();

        for spec in &self.sockets {
            let board = *boards
                .entry(spec.board)
                .or_insert_with(|| push_obj(&mut objs, ObjKind::Board, Some(root), 0));
            let mut numa = |objs: &mut Vec<_>, id: usize, parent: ObjIdx| {
                *numas.entry(id).or_insert_with(|| {
                    push_obj(objs, ObjKind::NumaNode, Some(parent), spec.numa_memory_bytes)
                })
            };
            // Whole-socket NUMA: Board -> NumaNode -> Socket (Zoot, IG).
            // Split socket (per-die controllers): Board -> Socket ->
            // NumaNode -> Die (Magny-Cours).
            let socket = match spec.die_numa {
                Some(_) => push_obj(&mut objs, ObjKind::Socket, Some(board), 0),
                None => {
                    let parent = numa(&mut objs, spec.numa, board);
                    push_obj(&mut objs, ObjKind::Socket, Some(parent), 0)
                }
            };

            // For each local core, the innermost container placed so far:
            // its die, or the socket itself when dies are implicit.
            let explicit_dies = spec.cores_per_die.len() > 1 || spec.die_numa.is_some();
            let mut container = Vec::with_capacity(spec.num_cores());
            for (die, &n) in spec.cores_per_die.iter().enumerate() {
                let die_obj = match &spec.die_numa {
                    _ if !explicit_dies => socket,
                    Some(die_numa) => {
                        let parent = numa(&mut objs, die_numa[die], socket);
                        push_obj(&mut objs, ObjKind::Die, Some(parent), 0)
                    }
                    None => push_obj(&mut objs, ObjKind::Die, Some(socket), 0),
                };
                container.extend(std::iter::repeat_n(die_obj, n));
            }

            // Insert caches largest-coverage first so nesting works: each
            // cache attaches under the smallest already-placed cache (or the
            // die) that contains it.
            let mut order: Vec<&CacheSpec> = spec.caches.iter().collect();
            order.sort_by_key(|c| Reverse(c.cores.len()));
            for c in order {
                let parent = container[c.cores[0]];
                let cache =
                    push_obj(&mut objs, ObjKind::Cache(c.level), Some(parent), c.size_bytes);
                for &l in &c.cores {
                    container[l] = cache;
                }
            }

            for parent in container {
                let core = push_obj(&mut objs, ObjKind::Core, Some(parent), 0);
                push_obj(&mut objs, ObjKind::Pu, Some(core), 0);
            }
        }

        // Each NUMA node's memory, counted once.
        let numa_memory = objs.iter().filter(|o| o.kind == ObjKind::NumaNode);
        objs[root].size_bytes = numa_memory.map(|o| o.size_bytes).sum();
        let total_cores = self.sockets.iter().map(PackageSpec::num_cores).sum();
        let os_index = self.os_order.clone().unwrap_or_else(|| (0..total_cores).collect());
        Machine::from_tree(self.name.clone(), objs, os_index)
    }

    fn validate(&self) -> Result<(), TopoError> {
        // NUMA ownership: an id is either shared by whole sockets of one
        // board (Zoot's FSB) or private to one die of one split socket.
        #[derive(PartialEq)]
        enum Owner {
            Board(usize),
            Die,
        }
        let mut owners: HashMap<usize, Owner> = HashMap::new();
        for (si, s) in self.sockets.iter().enumerate() {
            match &s.die_numa {
                None => {
                    if *owners.entry(s.numa).or_insert(Owner::Board(s.board))
                        != Owner::Board(s.board)
                    {
                        return Err(TopoError::NumaOwnershipConflict { numa: s.numa });
                    }
                }
                Some(dn) => {
                    if dn.len() != s.cores_per_die.len() {
                        return Err(TopoError::BadDieNuma {
                            socket: si,
                            dies: s.cores_per_die.len(),
                            got: dn.len(),
                        });
                    }
                    for &numa in dn {
                        if owners.insert(numa, Owner::Die).is_some() {
                            return Err(TopoError::NumaOwnershipConflict { numa });
                        }
                    }
                }
            }
        }

        for (si, s) in self.sockets.iter().enumerate() {
            if s.num_cores() == 0 {
                return Err(TopoError::EmptyPackage { board: s.board, numa: s.numa, socket: si });
            }
            let n = s.num_cores();
            // Same-level caches must not overlap; all referenced cores in range.
            let mut covered: Vec<Vec<u8>> = vec![Vec::new(); n];
            for c in &s.caches {
                if !(1..=3).contains(&c.level) {
                    return Err(TopoError::BadCacheLevel(c.level));
                }
                if c.cores.is_empty() {
                    return Err(TopoError::EmptyCache { socket: si, level: c.level });
                }
                for &core in &c.cores {
                    if core >= n {
                        return Err(TopoError::CacheCoreOutOfRange {
                            cache: format!("L{}", c.level),
                            core,
                            cores_in_package: n,
                        });
                    }
                    if covered[core].contains(&c.level) {
                        return Err(TopoError::OverlappingCaches { level: c.level, core });
                    }
                    covered[core].push(c.level);
                }
            }
            // Every cache within one die, and any two caches disjoint or
            // one inside the other.
            let die_of: Vec<usize> = (s.cores_per_die.iter().enumerate())
                .flat_map(|(die, &n)| std::iter::repeat_n(die, n))
                .collect();
            for c in &s.caches {
                let shared = |o: &CacheSpec| o.cores.iter().filter(|l| c.cores.contains(l)).count();
                let spans_dies = c.cores.iter().any(|&l| die_of[l] != die_of[c.cores[0]]);
                let partial = s.caches.iter().any(|o| {
                    let k = shared(o);
                    k > 0 && k < o.cores.len() && k < c.cores.len()
                });
                if spans_dies || partial {
                    return Err(TopoError::UnnestedCache { socket: si, level: c.level });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_spec() -> MachineSpec {
        MachineSpec {
            name: "test".into(),
            sockets: vec![
                PackageSpec {
                    board: 0,
                    numa: 0,
                    cores_per_die: vec![2, 2],
                    die_numa: None,
                    caches: vec![
                        CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![0, 1] },
                        CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![2, 3] },
                    ],
                    numa_memory_bytes: 1 << 30,
                },
                PackageSpec {
                    board: 0,
                    numa: 0,
                    cores_per_die: vec![2, 2],
                    die_numa: None,
                    caches: vec![
                        CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![0, 1] },
                        CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![2, 3] },
                    ],
                    numa_memory_bytes: 1 << 30,
                },
            ],
            os_order: None,
        }
    }

    #[test]
    fn build_simple() {
        let m = simple_spec().build().unwrap();
        assert_eq!(m.num_cores(), 8);
        assert_eq!(m.num_sockets, 2);
        assert_eq!(m.num_numa, 1);
        // Dies got distinct global ids.
        assert_eq!(m.core(0).die, Some(0));
        assert_eq!(m.core(2).die, Some(1));
        assert_eq!(m.core(4).die, Some(2));
        // Cache ids are global per level.
        assert_eq!(m.core(0).caches, vec![(2, 0)]);
        assert_eq!(m.core(4).caches, vec![(2, 2)]);
    }

    #[test]
    fn numa_memory_counted_once() {
        let m = simple_spec().build().unwrap();
        assert_eq!(m.objs[0].size_bytes, 1 << 30);
    }

    #[test]
    fn nested_caches() {
        let spec = MachineSpec {
            name: "nested".into(),
            sockets: vec![PackageSpec {
                board: 0,
                numa: 0,
                cores_per_die: vec![4],
                die_numa: None,
                caches: vec![
                    CacheSpec { level: 3, size_bytes: 8 << 20, cores: vec![0, 1, 2, 3] },
                    CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![0, 1] },
                    CacheSpec { level: 2, size_bytes: 1 << 20, cores: vec![2, 3] },
                    CacheSpec { level: 1, size_bytes: 32 << 10, cores: vec![0] },
                ],
                numa_memory_bytes: 1 << 30,
            }],
            os_order: None,
        };
        let m = spec.build().unwrap();
        // Core 0 sees L1, L2, L3 innermost-first.
        assert_eq!(m.core(0).caches, vec![(1, 0), (2, 0), (3, 0)]);
        assert_eq!(m.core(3).caches, vec![(2, 1), (3, 0)]);
        assert!(m.core(0).shares_cache_with(m.core(3)));
        assert_eq!(m.core(0).innermost_shared_cache(m.core(1)), Some((2, 0)));
    }

    #[test]
    fn rejects_empty_machine() {
        let spec = MachineSpec { name: "empty".into(), sockets: vec![], os_order: None };
        assert_eq!(spec.build().unwrap_err(), TopoError::EmptyMachine);
    }

    #[test]
    fn rejects_overlapping_same_level_caches() {
        let spec = MachineSpec {
            name: "bad".into(),
            sockets: vec![PackageSpec {
                board: 0,
                numa: 0,
                cores_per_die: vec![2],
                die_numa: None,
                caches: vec![
                    CacheSpec { level: 2, size_bytes: 1, cores: vec![0, 1] },
                    CacheSpec { level: 2, size_bytes: 1, cores: vec![1] },
                ],
                numa_memory_bytes: 0,
            }],
            os_order: None,
        };
        assert_eq!(spec.build().unwrap_err(), TopoError::OverlappingCaches { level: 2, core: 1 });
    }

    #[test]
    fn rejects_cache_core_out_of_range() {
        let spec = MachineSpec {
            name: "bad".into(),
            sockets: vec![PackageSpec {
                board: 0,
                numa: 0,
                cores_per_die: vec![2],
                die_numa: None,
                caches: vec![CacheSpec { level: 1, size_bytes: 1, cores: vec![5] }],
                numa_memory_bytes: 0,
            }],
            os_order: None,
        };
        assert!(matches!(spec.build().unwrap_err(), TopoError::CacheCoreOutOfRange { .. }));
    }

    #[test]
    fn rejects_bad_cache_level() {
        let spec = MachineSpec {
            name: "bad".into(),
            sockets: vec![PackageSpec {
                board: 0,
                numa: 0,
                cores_per_die: vec![1],
                die_numa: None,
                caches: vec![CacheSpec { level: 4, size_bytes: 1, cores: vec![0] }],
                numa_memory_bytes: 0,
            }],
            os_order: None,
        };
        assert_eq!(spec.build().unwrap_err(), TopoError::BadCacheLevel(4));
    }

    #[test]
    fn rejects_bad_os_order() {
        let mut spec = simple_spec();
        spec.os_order = Some(vec![0, 1, 2]);
        assert!(matches!(spec.build().unwrap_err(), TopoError::BadOsOrder { .. }));
        spec.os_order = Some(vec![0; 8]);
        assert!(matches!(spec.build().unwrap_err(), TopoError::BadOsOrder { .. }));
    }

    #[test]
    fn rejects_a_cache_that_spans_dies() {
        let mut spec = simple_spec();
        let l3 = CacheSpec { level: 3, size_bytes: 1 << 22, cores: vec![0, 1, 2, 3] };
        spec.sockets[1].caches.push(l3);
        assert_eq!(spec.build().unwrap_err(), TopoError::UnnestedCache { socket: 1, level: 3 });
    }

    #[test]
    fn rejects_a_cache_that_covers_part_of_another() {
        let mut spec = simple_spec();
        spec.sockets[0].cores_per_die = vec![4];
        spec.sockets[0].caches.push(CacheSpec { level: 3, size_bytes: 1, cores: vec![1, 2] });
        assert_eq!(spec.build().unwrap_err(), TopoError::UnnestedCache { socket: 0, level: 2 });
    }

    #[test]
    fn rejects_an_empty_cache_read_from_json() {
        let json = r#"{"name": "bad", "os_order": null, "sockets": [{"board": 0, "numa": 0,
            "cores_per_die": [2], "numa_memory_bytes": 0,
            "caches": [{"level": 2, "size_bytes": 1024, "cores": []}]}]}"#;
        let spec: MachineSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.build().unwrap_err(), TopoError::EmptyCache { socket: 0, level: 2 });
    }

    #[test]
    fn rejects_a_numa_node_on_two_boards() {
        let mut spec = simple_spec();
        spec.sockets[1].board = 1;
        assert_eq!(spec.build().unwrap_err(), TopoError::NumaOwnershipConflict { numa: 0 });
    }

    #[test]
    fn ids_are_numbered_in_order_of_first_appearance() {
        let mut spec = simple_spec();
        spec.sockets[0].numa = 7;
        spec.sockets[1].numa = 3;
        spec.sockets[0].board = 5;
        spec.sockets[1].board = 5;
        let m = spec.build().unwrap();
        assert_eq!((m.core(0).numa, m.core(4).numa, m.num_numa), (0, 1, 2));
        assert_eq!((m.core(0).board, m.num_boards), (0, 1));
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = simple_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.build().unwrap().num_cores(), 8);
    }
}
