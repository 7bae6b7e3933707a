//! Validated construction of [`Machine`] topologies from declarative specs.
//!
//! A [`MachineSpec`] lists sockets in global core order, each carrying its
//! board / NUMA-node coordinates, die layout and cache coverage. `build`
//! checks structural invariants (dense ids, caches nested inside dies, no
//! overlapping same-level caches, OS order a permutation) and produces the
//! object tree plus the flattened [`CoreView`] table.

use serde::{Deserialize, Serialize};

use crate::error::TopoError;
use crate::object::{CoreView, Machine, Obj, ObjIdx, ObjKind};

/// A cache shared by a subset of a socket's cores.
///
/// `cores` are indexed locally within the socket (0-based).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Cache level, 1–3.
    pub level: u8,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Socket-local core indices covered by this cache.
    pub cores: Vec<usize>,
}

/// One socket (physical package) and its position in the hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackageSpec {
    /// Board the socket sits on (dense ids starting at 0).
    pub board: usize,
    /// NUMA node (memory controller domain) the socket belongs to. Several
    /// sockets may share one NUMA node (e.g. Zoot's single FSB controller).
    /// Ignored when [`Self::die_numa`] splits the socket.
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

    /// Die index of a socket-local core.
    fn die_of_local(&self, local: usize) -> usize {
        let mut acc = 0;
        for (d, &n) in self.cores_per_die.iter().enumerate() {
            acc += n;
            if local < acc {
                return d;
            }
        }
        unreachable!("local core index validated before use")
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
        let total_cores: usize = self.sockets.iter().map(|s| s.num_cores()).sum();
        if total_cores == 0 {
            return Err(TopoError::EmptyMachine);
        }
        self.validate()?;

        let num_boards = self.sockets.iter().map(|s| s.board).max().unwrap() + 1;
        let numa_of_socket_die = |s: &PackageSpec, die: usize| -> usize {
            s.die_numa.as_ref().map(|dn| dn[die]).unwrap_or(s.numa)
        };
        let num_numa = self
            .sockets
            .iter()
            .flat_map(|s| (0..s.cores_per_die.len()).map(move |d| numa_of_socket_die(s, d)))
            .max()
            .unwrap()
            + 1;
        let num_sockets = self.sockets.len();

        let mut builder = TreeBuilder::default();
        let total_mem: u64 = {
            // Count each NUMA node's memory once.
            let mut seen = vec![false; num_numa];
            let mut sum = 0u64;
            for s in &self.sockets {
                for d in 0..s.cores_per_die.len() {
                    let numa = numa_of_socket_die(s, d);
                    if !seen[numa] {
                        seen[numa] = true;
                        sum += s.numa_memory_bytes;
                    }
                }
            }
            sum
        };
        let root = builder.push(ObjKind::Machine, None, total_mem);

        let mut cores: Vec<CoreView> = Vec::with_capacity(total_cores);
        let mut board_objs: Vec<Option<ObjIdx>> = vec![None; num_boards];
        let mut numa_objs: Vec<Option<ObjIdx>> = vec![None; num_numa];
        let mut die_counter = 0usize;

        for (socket_id, spec) in self.sockets.iter().enumerate() {
            let board_obj = *board_objs[spec.board]
                .get_or_insert_with(|| builder.push(ObjKind::Board, Some(root), 0));
            // Whole-socket NUMA: Board -> NumaNode -> Socket (Zoot, IG).
            // Split socket (per-die controllers): Board -> Socket ->
            // NumaNode -> Die (Magny-Cours).
            let split = spec.die_numa.is_some();
            let socket_obj = if split {
                builder.push(ObjKind::Socket, Some(board_obj), 0)
            } else {
                let numa_obj = *numa_objs[spec.numa].get_or_insert_with(|| {
                    builder.push(ObjKind::NumaNode, Some(board_obj), spec.numa_memory_bytes)
                });
                builder.push(ObjKind::Socket, Some(numa_obj), 0)
            };

            let explicit_dies = spec.cores_per_die.len() > 1 || split;
            let n_local = spec.num_cores();

            // Die objects (or the socket itself when dies are implicit).
            let mut die_objs: Vec<ObjIdx> = Vec::new();
            let mut die_ids: Vec<usize> = Vec::new();
            for die in 0..spec.cores_per_die.len() {
                if explicit_dies {
                    let die_parent = if split {
                        let numa = numa_of_socket_die(spec, die);
                        *numa_objs[numa].get_or_insert_with(|| {
                            builder.push(
                                ObjKind::NumaNode,
                                Some(socket_obj),
                                spec.numa_memory_bytes,
                            )
                        })
                    } else {
                        socket_obj
                    };
                    let d = builder.push(ObjKind::Die, Some(die_parent), 0);
                    builder.objs[d].logical_id = die_counter;
                    die_objs.push(d);
                    die_ids.push(die_counter);
                    die_counter += 1;
                } else {
                    die_objs.push(socket_obj);
                    die_ids.push(usize::MAX);
                }
            }

            // Insert caches largest-coverage first so nesting works: each
            // cache attaches under the smallest already-placed cache (or the
            // die) that strictly contains it.
            let mut order: Vec<usize> = (0..spec.caches.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(spec.caches[i].cores.len()));
            // For each local core, the innermost container placed so far.
            let mut container: Vec<ObjIdx> =
                (0..n_local).map(|l| die_objs[spec.die_of_local(l)]).collect();
            // Per-core cache ancestry accumulated innermost-last; reversed at
            // the end so CoreView stores innermost-first.
            let mut core_caches: Vec<Vec<(u8, usize)>> = vec![Vec::new(); n_local];

            for i in order {
                let c = &spec.caches[i];
                let parent = container[c.cores[0]];
                let obj = builder.push(ObjKind::Cache(c.level), Some(parent), c.size_bytes);
                let global_cache_id = builder.next_cache_id(c.level);
                builder.objs[obj].logical_id = global_cache_id;
                for &l in &c.cores {
                    container[l] = obj;
                    core_caches[l].push((c.level, global_cache_id));
                }
            }

            for local in 0..n_local {
                let core_id = cores.len();
                let core_obj = builder.push(ObjKind::Core, Some(container[local]), 0);
                builder.objs[core_obj].logical_id = core_id;
                let pu = builder.push(ObjKind::Pu, Some(core_obj), 0);
                builder.objs[pu].logical_id = core_id;
                let mut caches = core_caches[local].clone();
                caches.reverse(); // innermost first
                let local_die = spec.die_of_local(local);
                let die = die_ids[local_die];
                cores.push(CoreView {
                    core: core_id,
                    obj: core_obj,
                    board: spec.board,
                    numa: numa_of_socket_die(spec, local_die),
                    socket: socket_id,
                    die: (die != usize::MAX).then_some(die),
                    caches,
                    node: 0,
                    switch: 0,
                });
            }
        }

        let os_index = match &self.os_order {
            Some(order) => order.clone(),
            None => (0..total_cores).collect(),
        };

        Ok(Machine {
            name: self.name.clone(),
            objs: builder.objs,
            cores,
            os_index,
            num_boards,
            num_numa,
            num_sockets,
            num_nodes: 1,
            num_switches: 1,
        })
    }

    fn validate(&self) -> Result<(), TopoError> {
        let total_cores: usize = self.sockets.iter().map(|s| s.num_cores()).sum();

        // NUMA ownership: an id is either shared by whole sockets (Zoot's
        // FSB) or private to one die of one split socket — never both.
        #[derive(PartialEq)]
        enum Owner {
            Whole,
            Die(usize, usize),
        }
        let mut owners: std::collections::HashMap<usize, Owner> = Default::default();
        for (si, s) in self.sockets.iter().enumerate() {
            match &s.die_numa {
                None => match owners.get(&s.numa) {
                    Some(Owner::Whole) | None => {
                        owners.insert(s.numa, Owner::Whole);
                    }
                    Some(Owner::Die(..)) => {
                        return Err(TopoError::NumaOwnershipConflict { numa: s.numa })
                    }
                },
                Some(dn) => {
                    if dn.len() != s.cores_per_die.len() {
                        return Err(TopoError::BadDieNuma {
                            socket: si,
                            dies: s.cores_per_die.len(),
                            got: dn.len(),
                        });
                    }
                    for (die, &numa) in dn.iter().enumerate() {
                        if owners.insert(numa, Owner::Die(si, die)).is_some() {
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
        }

        if let Some(order) = &self.os_order {
            if order.len() != total_cores {
                return Err(TopoError::BadOsOrder {
                    expected_len: total_cores,
                    got_len: order.len(),
                });
            }
            let mut seen = vec![false; total_cores];
            for &c in order {
                if c >= total_cores || seen[c] {
                    return Err(TopoError::BadOsOrder {
                        expected_len: total_cores,
                        got_len: order.len(),
                    });
                }
                seen[c] = true;
            }
        }
        Ok(())
    }
}

/// Arena-building helper assigning logical ids per kind.
#[derive(Default)]
struct TreeBuilder {
    objs: Vec<Obj>,
    counts: std::collections::HashMap<ObjKind, usize>,
    cache_counts: [usize; 4],
}

impl TreeBuilder {
    fn push(&mut self, kind: ObjKind, parent: Option<ObjIdx>, size_bytes: u64) -> ObjIdx {
        let idx = self.objs.len();
        let logical_id = match kind {
            // Caches, dies, cores and PUs get their ids fixed by the caller.
            ObjKind::Cache(_) | ObjKind::Die | ObjKind::Core | ObjKind::Pu => 0,
            _ => {
                let c = self.counts.entry(kind).or_insert(0);
                let id = *c;
                *c += 1;
                id
            }
        };
        self.objs.push(Obj { kind, logical_id, parent, children: Vec::new(), size_bytes });
        if let Some(p) = parent {
            self.objs[p].children.push(idx);
        }
        idx
    }

    fn next_cache_id(&mut self, level: u8) -> usize {
        let id = self.cache_counts[level as usize];
        self.cache_counts[level as usize] += 1;
        id
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
    fn spec_serde_roundtrip() {
        let spec = simple_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.build().unwrap().num_cores(), 8);
    }
}
