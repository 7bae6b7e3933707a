//! Predefined machines: the paper's two evaluation platforms plus the
//! synthetic machines used by the worked examples and the test-suite.

use crate::builder::{CacheSpec, MachineSpec, PackageSpec};
use crate::object::Machine;

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;
const GB: u64 = 1024 * MB;

/// **Zoot** (paper §III / §IV-A): quad-socket quad-core Intel Xeon Tigerton
/// E7340, 4 MB L2 shared between pairs of cores (two dies per socket), one
/// SMP memory controller on the front-side bus serving all sockets, 32 GB.
///
/// The OS enumerates processors round-robin across sockets ("logical
/// consecutive core IDs belong to different sockets"), so OS id `i` maps to
/// topology core `(i mod 4) * 4 + i / 4`.
pub fn zoot() -> Machine {
    let socket = |_s: usize| PackageSpec {
        board: 0,
        numa: 0,
        cores_per_die: vec![2, 2],
        die_numa: None,
        caches: vec![
            CacheSpec { level: 2, size_bytes: 4 * MB, cores: vec![0, 1] },
            CacheSpec { level: 2, size_bytes: 4 * MB, cores: vec![2, 3] },
            CacheSpec { level: 1, size_bytes: 32 * KB, cores: vec![0] },
            CacheSpec { level: 1, size_bytes: 32 * KB, cores: vec![1] },
            CacheSpec { level: 1, size_bytes: 32 * KB, cores: vec![2] },
            CacheSpec { level: 1, size_bytes: 32 * KB, cores: vec![3] },
        ],
        numa_memory_bytes: 32 * GB,
    };
    let os_order = (0..16).map(|i| (i % 4) * 4 + i / 4).collect();
    MachineSpec {
        name: "zoot".into(),
        sockets: (0..4).map(socket).collect(),
        os_order: Some(os_order),
    }
    .build()
    .expect("zoot spec is valid")
}

/// **IG** (paper Figure 3): 8-socket six-core AMD Opteron 8439 SE (Istanbul),
/// 5118 KB L3 shared per socket, 64 KB L1 + 512 KB L2 private per core, one
/// NUMA node with 16 GB per socket, two boards of four sockets connected by
/// an inter-board link. Socket `s` holds cores `6s..6s+5`.
pub fn ig() -> Machine {
    let socket = |s: usize| {
        let mut caches =
            vec![CacheSpec { level: 3, size_bytes: 5118 * KB, cores: (0..6).collect() }];
        for c in 0..6 {
            caches.push(CacheSpec { level: 2, size_bytes: 512 * KB, cores: vec![c] });
            caches.push(CacheSpec { level: 1, size_bytes: 64 * KB, cores: vec![c] });
        }
        PackageSpec {
            board: s / 4,
            numa: s,
            cores_per_die: vec![6],
            die_numa: None,
            caches,
            numa_memory_bytes: 16 * GB,
        }
    };
    MachineSpec { name: "ig".into(), sockets: (0..8).map(socket).collect(), os_order: None }
        .build()
        .expect("ig spec is valid")
}

/// The quad-socket dual-core SMP node of the paper's Figures 1 and 5: four
/// sockets of two cores sharing an L2, single memory controller.
pub fn quad_socket_dual_core() -> Machine {
    let socket = |_s: usize| PackageSpec {
        board: 0,
        numa: 0,
        cores_per_die: vec![2],
        die_numa: None,
        caches: vec![CacheSpec { level: 2, size_bytes: 2 * MB, cores: vec![0, 1] }],
        numa_memory_bytes: 8 * GB,
    };
    MachineSpec {
        name: "quad-socket-dual-core".into(),
        sockets: (0..4).map(socket).collect(),
        os_order: None,
    }
    .build()
    .expect("spec is valid")
}

/// The machine of the paper's Figure 4 worked example: two boards, each with
/// two NUMA nodes of three cores (12 cores, 4 memory controllers). Cores on
/// the same NUMA node have no shared cache, so intra-NUMA distance is 2,
/// intra-board distance 5, inter-board distance 6 — exactly the three
/// distance classes of the figure.
pub fn two_board_numa12() -> Machine {
    let socket = |s: usize| PackageSpec {
        board: s / 2,
        numa: s,
        cores_per_die: vec![3],
        die_numa: None,
        caches: (0..3)
            .map(|c| CacheSpec { level: 1, size_bytes: 64 * KB, cores: vec![c] })
            .collect(),
        numa_memory_bytes: 4 * GB,
    };
    MachineSpec {
        name: "two-board-numa12".into(),
        sockets: (0..4).map(socket).collect(),
        os_order: None,
    }
    .build()
    .expect("spec is valid")
}

/// A Magny-Cours-style box: four sockets of two six-core dies, one memory
/// controller and one L3 **per die**. The multi-die packages produce the
/// paper's distance **4** (same socket, different memory controllers):
/// same die → 1, same socket/other die → 4, other socket → 5.
pub fn magny_cours() -> Machine {
    let socket = |s: usize| {
        let mut caches = vec![
            CacheSpec { level: 3, size_bytes: 6 * MB, cores: (0..6).collect() },
            CacheSpec { level: 3, size_bytes: 6 * MB, cores: (6..12).collect() },
        ];
        for c in 0..12 {
            caches.push(CacheSpec { level: 2, size_bytes: 512 * KB, cores: vec![c] });
        }
        PackageSpec {
            board: 0,
            numa: 0, // ignored: die_numa splits the package
            cores_per_die: vec![6, 6],
            die_numa: Some(vec![2 * s, 2 * s + 1]),
            caches,
            numa_memory_bytes: 8 * GB,
        }
    };
    MachineSpec {
        name: "magny-cours".into(),
        sockets: (0..4).map(socket).collect(),
        os_order: None,
    }
    .build()
    .expect("magny-cours spec is valid")
}

/// A flat SMP: one socket, `n` cores, private caches only, one memory
/// controller. Every pair of distinct cores is at distance 2.
pub fn flat_smp(n: usize) -> Machine {
    MachineSpec {
        name: format!("flat-smp-{n}"),
        sockets: vec![PackageSpec {
            board: 0,
            numa: 0,
            cores_per_die: vec![n],
            die_numa: None,
            caches: (0..n)
                .map(|c| CacheSpec { level: 1, size_bytes: 32 * KB, cores: vec![c] })
                .collect(),
            numa_memory_bytes: 8 * GB,
        }],
        os_order: None,
    }
    .build()
    .expect("spec is valid")
}

/// A generic NUMA machine for tests and scaling studies:
/// `boards × numa_per_board` sockets (one socket per NUMA node), each with
/// `cores_per_socket` cores sharing an L3 when `shared_l3` is set.
pub fn synthetic(
    boards: usize,
    numa_per_board: usize,
    cores_per_socket: usize,
    shared_l3: bool,
) -> Machine {
    let nsock = boards * numa_per_board;
    let socket = |s: usize| {
        let mut caches = Vec::new();
        if shared_l3 {
            caches.push(CacheSpec {
                level: 3,
                size_bytes: 8 * MB,
                cores: (0..cores_per_socket).collect(),
            });
        }
        PackageSpec {
            board: s / numa_per_board,
            numa: s,
            cores_per_die: vec![cores_per_socket],
            die_numa: None,
            caches,
            numa_memory_bytes: 8 * GB,
        }
    };
    MachineSpec {
        name: format!("synthetic-{boards}x{numa_per_board}x{cores_per_socket}"),
        sockets: (0..nsock).map(socket).collect(),
        os_order: None,
    }
    .build()
    .expect("spec is valid")
}

/// All predefined machines, for exhaustive test sweeps.
pub fn all_predefined() -> Vec<Machine> {
    vec![zoot(), ig(), quad_socket_dual_core(), two_board_numa12(), magny_cours(), flat_smp(8)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoot_dies_and_sockets() {
        let z = zoot();
        // Two dies per socket, global die ids.
        assert_eq!(z.core(0).die, Some(0));
        assert_eq!(z.core(2).die, Some(1));
        assert_eq!(z.core(4).die, Some(2));
        assert_eq!(z.core(15).die, Some(7));
        assert_eq!(z.objs[0].size_bytes, 32 * GB);
    }

    #[test]
    fn zoot_os_order_round_robin() {
        let z = zoot();
        assert_eq!(z.core_of_os_id(0), 0);
        assert_eq!(z.core_of_os_id(1), 4);
        assert_eq!(z.core_of_os_id(4), 1);
        assert_eq!(z.core_of_os_id(15), 15);
    }

    #[test]
    fn ig_total_memory() {
        let ig = ig();
        assert_eq!(ig.objs[0].size_bytes, 128 * GB, "8 NUMA nodes x 16GB");
    }

    #[test]
    fn two_board_numa12_classes() {
        let m = two_board_numa12();
        assert_eq!(m.num_cores(), 12);
        assert_eq!(m.num_numa, 4);
        assert_eq!(m.num_boards, 2);
        assert!(!m.core(0).shares_cache_with(m.core(1)));
    }

    #[test]
    fn magny_cours_split_sockets() {
        let m = magny_cours();
        assert_eq!(m.num_cores(), 48);
        assert_eq!(m.num_sockets, 4);
        assert_eq!(m.num_numa, 8, "one controller per die");
        assert_eq!(m.num_boards, 1);
        // Cores 0..5 on die 0 / NUMA 0; 6..11 on die 1 / NUMA 1.
        assert_eq!(m.core(0).numa, 0);
        assert_eq!(m.core(6).numa, 1);
        assert_eq!(m.core(0).socket, m.core(6).socket);
        assert_eq!(m.core(12).numa, 2);
        assert_eq!(m.core(12).socket, 1);
        assert_eq!(m.objs[0].size_bytes, 64 * GB, "8 dies x 8GB");
        // Shared L3 within a die only.
        assert!(m.core(0).shares_cache_with(m.core(5)));
        assert!(!m.core(0).shares_cache_with(m.core(6)));
    }

    #[test]
    fn magny_cours_distance_four() {
        use crate::distance::core_distance;
        let m = magny_cours();
        assert_eq!(core_distance(&m, 0, 1), 1, "same die, shared L3");
        assert_eq!(core_distance(&m, 0, 6), 4, "same socket, different controllers");
        assert_eq!(core_distance(&m, 0, 12), 5, "different sockets, same board");
        let dm = crate::distance::DistanceMatrix::for_machine(&m);
        assert_eq!(dm.classes(), vec![1, 4, 5]);
    }

    #[test]
    fn die_numa_validation() {
        use crate::builder::{MachineSpec, PackageSpec};
        use crate::error::TopoError;
        // Wrong die_numa length.
        let bad = MachineSpec {
            name: "bad".into(),
            sockets: vec![PackageSpec {
                board: 0,
                numa: 0,
                cores_per_die: vec![2, 2],
                die_numa: Some(vec![0]),
                caches: vec![],
                numa_memory_bytes: 0,
            }],
            os_order: None,
        };
        assert!(matches!(bad.build().unwrap_err(), TopoError::BadDieNuma { .. }));
        // A NUMA id owned by a die cannot also be a whole-socket id.
        let conflict = MachineSpec {
            name: "bad".into(),
            sockets: vec![
                PackageSpec {
                    board: 0,
                    numa: 0,
                    cores_per_die: vec![2, 2],
                    die_numa: Some(vec![0, 1]),
                    caches: vec![],
                    numa_memory_bytes: 0,
                },
                PackageSpec {
                    board: 0,
                    numa: 1,
                    cores_per_die: vec![2],
                    die_numa: None,
                    caches: vec![],
                    numa_memory_bytes: 0,
                },
            ],
            os_order: None,
        };
        assert_eq!(conflict.build().unwrap_err(), TopoError::NumaOwnershipConflict { numa: 1 });
    }

    #[test]
    fn flat_smp_n() {
        let m = flat_smp(5);
        assert_eq!(m.num_cores(), 5);
        assert_eq!(m.num_numa, 1);
        assert_eq!(m.num_sockets, 1);
    }

    #[test]
    fn synthetic_shapes() {
        let m = synthetic(2, 4, 6, true);
        assert_eq!(m.num_cores(), 48);
        assert_eq!(m.num_numa, 8);
        assert_eq!(m.num_boards, 2);
        assert!(m.core(0).shares_cache_with(m.core(5)));
        let m2 = synthetic(1, 2, 4, false);
        assert_eq!(m2.num_cores(), 8);
        assert!(!m2.core(0).shares_cache_with(m2.core(1)));
    }
}
