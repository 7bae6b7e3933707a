//! Property-based invariants of the topology model, distance function and
//! binding policies, over randomly generated machines.

use std::cmp::Reverse;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pdac_hwtopo::{
    core_distance, machines, Binding, BindingPolicy, CacheSpec, DistanceMatrix, Machine,
    MachineSpec, PackageSpec, TopoError, DIST_MAX,
};

/// Random hierarchical machines via the synthetic generator.
fn arb_machine() -> impl Strategy<Value = Machine> {
    (1usize..=3, 1usize..=3, 1usize..=4, any::<bool>())
        .prop_map(|(boards, numa, cores, l3)| machines::synthetic(boards, numa, cores, l3))
}

fn coin(rng: &mut StdRng) -> bool {
    rng.gen_range(0..2) == 1
}

/// A random spec: 1–2 boards of 1–2 sockets, 1–2 dies of 1–3 cores, one of
/// three NUMA regimes (a controller per socket, one per board, one per
/// die), and per socket any of a socket-wide L3 (which spans the dies of a
/// two-die socket), an L2 per die and an L1 per core; OS order maybe
/// shuffled. NUMA ids are dense in order of first appearance.
fn random_spec(seed: u64) -> MachineSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let (boards, per_board, regime) =
        (1 + rng.gen_range(0..2), 1 + rng.gen_range(0..2), rng.gen_range(0..3));
    let mut next_numa = 0;
    let mut sockets = Vec::new();
    for board in 0..boards {
        for _ in 0..per_board {
            let cores_per_die: Vec<usize> =
                (0..1 + rng.gen_range(0..2)).map(|_| 1 + rng.gen_range(0..3)).collect();
            let n: usize = cores_per_die.iter().sum();
            let mut fresh = || {
                next_numa += 1;
                next_numa - 1
            };
            let (numa, die_numa) = match regime {
                0 => (fresh(), None),
                1 => (board, None),
                _ => {
                    let ids: Vec<usize> = cores_per_die.iter().map(|_| fresh()).collect();
                    (ids[0], Some(ids))
                }
            };
            let mut caches = Vec::new();
            if coin(&mut rng) {
                caches.push(CacheSpec { level: 3, size_bytes: 8 << 20, cores: (0..n).collect() });
            }
            if coin(&mut rng) {
                let mut base = 0;
                for &d in &cores_per_die {
                    let cores = (base..base + d).collect();
                    caches.push(CacheSpec { level: 2, size_bytes: 1 << 20, cores });
                    base += d;
                }
            }
            if coin(&mut rng) {
                caches.extend((0..n).map(|c| CacheSpec {
                    level: 1,
                    size_bytes: 1,
                    cores: vec![c],
                }));
            }
            sockets.push(PackageSpec {
                board,
                numa,
                cores_per_die,
                die_numa,
                caches,
                numa_memory_bytes: 1 << 30,
            });
        }
    }
    let total = sockets.iter().flat_map(|s| &s.cores_per_die).sum();
    let mut os_order: Vec<usize> = (0..total).collect();
    os_order.shuffle(&mut rng);
    MachineSpec {
        name: format!("spec-{seed}"),
        sockets,
        os_order: coin(&mut rng).then_some(os_order),
    }
}

/// Checks every core's view against the spec that built `m`: socket index,
/// board, NUMA node (`die_numa` or `numa`), die (`None` when implicit,
/// else numbered across the machine), and the caches covering the core,
/// innermost first, each level numbered socket by socket, larger coverage
/// first.
fn check_views_against(
    spec: &MachineSpec,
    m: &Machine,
) -> Result<(), prop::test_runner::TestCaseError> {
    let (mut core, mut next_die, mut next_cache) = (0, 0, [0usize; 4]);
    for (socket, s) in spec.sockets.iter().enumerate() {
        let explicit_dies = s.cores_per_die.len() > 1 || s.die_numa.is_some();
        let mut placed: Vec<&CacheSpec> = s.caches.iter().collect();
        placed.sort_by_key(|c| Reverse(c.cores.len()));
        let ids: Vec<(u8, usize)> = placed
            .iter()
            .map(|c| {
                next_cache[c.level as usize] += 1;
                (c.level, next_cache[c.level as usize] - 1)
            })
            .collect();
        let mut local = 0;
        for (die, &n) in s.cores_per_die.iter().enumerate() {
            for _ in 0..n {
                let v = m.core(core);
                prop_assert_eq!(v.socket, socket);
                prop_assert_eq!(v.board, s.board);
                prop_assert_eq!(v.numa, s.die_numa.as_ref().map_or(s.numa, |ids| ids[die]));
                prop_assert_eq!(v.die, explicit_dies.then_some(next_die + die));
                let covering = placed.iter().zip(&ids).filter(|(c, _)| c.cores.contains(&local));
                let caches: Vec<(u8, usize)> = covering.map(|(_, &id)| id).rev().collect();
                prop_assert_eq!(&v.caches, &caches, "core {}", core);
                local += 1;
                core += 1;
            }
        }
        if explicit_dies {
            next_die += s.cores_per_die.len();
        }
    }
    prop_assert_eq!(m.num_cores(), core);
    prop_assert_eq!(m.num_sockets, spec.sockets.len());
    prop_assert_eq!(m.num_boards, spec.sockets.iter().map(|s| s.board).max().unwrap() + 1);
    Ok(())
}

fn arb_policy() -> impl Strategy<Value = BindingPolicy> {
    prop_oneof![
        Just(BindingPolicy::Contiguous),
        Just(BindingPolicy::RoundRobinOs),
        Just(BindingPolicy::CrossSocket),
        any::<u64>().prop_map(|seed| BindingPolicy::Random { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn views_follow_the_spec_and_caches_stay_inside_dies(seed in any::<u64>()) {
        let spec = random_spec(seed);
        let spans_dies = spec.sockets.iter().any(|s| {
            let n: usize = s.cores_per_die.iter().sum();
            s.cores_per_die.len() > 1 && s.caches.iter().any(|c| c.cores.len() == n)
        });
        match spec.build() {
            Ok(m) if !spans_dies => check_views_against(&spec, &m)?,
            Err(TopoError::UnnestedCache { level: 3, .. }) if spans_dies => {}
            other => prop_assert!(false, "spans dies: {}, built: {:?}", spans_dies, other.map(|m| m.name)),
        }
    }

}

proptest! {
    #[test]
    fn distance_is_a_semimetric(machine in arb_machine()) {
        let n = machine.num_cores();
        for a in 0..n {
            prop_assert_eq!(core_distance(&machine, a, a), 0);
            for b in 0..n {
                let d = core_distance(&machine, a, b);
                prop_assert_eq!(d, core_distance(&machine, b, a), "symmetry");
                if a != b {
                    prop_assert!((1..=DIST_MAX).contains(&d));
                }
            }
        }
    }

    #[test]
    fn distance_respects_hierarchy_levels(machine in arb_machine()) {
        let n = machine.num_cores();
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                let (ca, cb) = (machine.core(a), machine.core(b));
                let d = core_distance(&machine, a, b);
                if ca.board != cb.board {
                    prop_assert_eq!(d, 6);
                } else if ca.numa != cb.numa {
                    prop_assert!(d >= 4, "cross-controller distances are at least 4");
                } else {
                    prop_assert!(d <= 3, "same controller and board stays below 4");
                }
            }
        }
    }

    #[test]
    fn bindings_are_injective_and_complete(
        machine in arb_machine(),
        policy in arb_policy(),
        frac in 1usize..=100,
    ) {
        let n = 1 + (machine.num_cores() - 1) * frac / 100;
        let binding = policy.bind(&machine, n).unwrap();
        prop_assert_eq!(binding.num_ranks(), n);
        let mut cores: Vec<_> = binding.as_slice().to_vec();
        cores.sort_unstable();
        cores.dedup();
        prop_assert_eq!(cores.len(), n, "no core bound twice");
        prop_assert!(cores.iter().all(|&c| c < machine.num_cores()));
    }

    #[test]
    fn matrix_matches_pointwise_distance(
        machine in arb_machine(),
        seed in any::<u64>(),
    ) {
        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        let dm = DistanceMatrix::for_binding(&machine, &binding);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    dm.get(i, j),
                    core_distance(&machine, binding.core_of(i), binding.core_of(j))
                );
            }
        }
    }

    #[test]
    fn clusters_partition_and_nest(machine in arb_machine(), seed in any::<u64>()) {
        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        let dm = DistanceMatrix::for_binding(&machine, &binding);
        let mut prev_count = usize::MAX;
        for threshold in 1..=DIST_MAX {
            let clusters = dm.clusters_at(threshold);
            // Partition: every rank exactly once.
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            // Nesting: raising the threshold only merges clusters.
            prop_assert!(clusters.len() <= prev_count);
            prev_count = clusters.len();
        }
        prop_assert_eq!(dm.clusters_at(DIST_MAX).len(), 1, "everything connects at 6");
    }

    #[test]
    fn machine_serde_roundtrip(machine in arb_machine()) {
        let json = serde_json::to_string(&machine).unwrap();
        let back: Machine = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.cores, machine.cores);
        prop_assert_eq!(back.os_index, machine.os_index);
    }

    #[test]
    fn subset_preserves_core_identity(
        machine in arb_machine(),
        seed in any::<u64>(),
    ) {
        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        // Take every other rank.
        let ranks: Vec<usize> = (0..n).step_by(2).collect();
        let sub = binding.subset(&ranks);
        for (i, &r) in ranks.iter().enumerate() {
            prop_assert_eq!(sub.core_of(i), binding.core_of(r));
        }
    }
}

#[test]
fn identity_binding_is_contiguous() {
    for machine in machines::all_predefined() {
        let n = machine.num_cores();
        assert_eq!(
            Binding::identity(&machine),
            BindingPolicy::Contiguous.bind(&machine, n).unwrap()
        );
    }
}
