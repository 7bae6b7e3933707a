//! `plan_churn`: plan ops only, on the driver thread.
//!
//! Four *stable* communicators are planned against a primed `TopoCache`
//! (the read phase) while four *churn* communicators on the same machines
//! are rebound every pass and planned cold (the write phase). Both share
//! one cache whose capacity is below the working set, so hits sit beside
//! invalidations, misses and FIFO evictions of stable entries.

use std::collections::HashMap;
use std::sync::Arc;

use pdac_core::{AdaptiveColl, TopoCache};
use pdac_hwtopo::{BindingPolicy, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;
use rand::Rng;

use crate::model::{Plan, Scenario};
use crate::spans::{in_span, Layer};
use crate::workload::{rng_for, size_label, timed_op, Machines, Mode, OpResult, Workload};

/// Below the ~70 topologies the two phases keep alive between them.
const CACHE_CAPACITY: usize = 64;
const ROOT_SLOTS: usize = 4;
const BCAST_SIZES: [usize; 3] = [16 << 10, 256 << 10, 1 << 20];
/// `Schedule::validate` is quadratic in the writes one buffer receives; on
/// 192 ranks the all-to-all shaped schedules (allgather, alltoall,
/// reduce_scatter) take ~0.4 s each to validate. Above this size they are
/// planned only where a reference validated once during set-up exists.
const ALL_TO_ALL_VALIDATE_MAX_RANKS: usize = 96;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Read {
    Bcast { slot: usize, bytes: usize },
    Allgather { bytes: usize },
}

#[derive(Debug, Clone, Copy)]
enum CacheLess {
    Gather,
    Scatter,
    Reduce,
    Barrier,
    Alltoall,
    ReduceScatter,
}

#[derive(Debug, Clone, Copy)]
enum Write {
    /// New random binding, new communicator, distance fill, invalidation
    /// of the old epoch.
    Rebind,
    /// `bcast_cached` on the churn communicator: a miss after a rebind.
    MissBcast {
        slot: usize,
    },
    /// `AdaptiveColl::bcast`, no cache.
    ColdBcast {
        slot: usize,
    },
    MissTree,
    MissRing,
    ColdAllgather,
    CacheLess(CacheLess),
    Explained,
}

#[derive(Debug, Clone, Copy)]
enum PlanOp {
    Read { comm: usize, what: Read },
    Write { comm: usize, what: Write },
}

struct Group {
    label: &'static str,
    machine: Arc<Machine>,
    ranks: usize,
    stable: Communicator,
    churn: Communicator,
    /// Roots the read phase rotates through.
    roots: [usize; ROOT_SLOTS],
    /// Roots of the write phase's cold and missing broadcasts.
    churn_roots: [usize; 16],
    rebinds: u64,
}

pub struct PlanChurn {
    seed: u64,
    coll: AdaptiveColl,
    cache: TopoCache,
    groups: Vec<Group>,
    ops: Vec<PlanOp>,
    /// Cold-planned, validated schedule of every read op.
    reference: HashMap<(usize, Read), Schedule>,
}

fn read_op(k: usize, allgather_sizes: &[usize]) -> Read {
    if k % 3 == 2 {
        Read::Allgather {
            bytes: allgather_sizes[(k / 3) % allgather_sizes.len()],
        }
    } else {
        // Ordinal among the broadcasts, so roots and sizes cycle
        // independently of the every-third allgather.
        let j = k - (k + 1) / 3;
        Read::Bcast {
            slot: j % ROOT_SLOTS,
            bytes: BCAST_SIZES[(j / ROOT_SLOTS) % BCAST_SIZES.len()],
        }
    }
}

fn write_ops(ranks: usize) -> Vec<Write> {
    let mut ops = vec![
        Write::Rebind,
        Write::MissTree,
        Write::MissRing,
        Write::Explained,
    ];
    ops.extend((0..8).map(|slot| Write::MissBcast { slot }));
    ops.extend((8..16).map(|slot| Write::ColdBcast { slot }));
    ops.extend(
        [
            CacheLess::Gather,
            CacheLess::Scatter,
            CacheLess::Reduce,
            CacheLess::Barrier,
        ]
        .map(Write::CacheLess),
    );
    if ranks <= ALL_TO_ALL_VALIDATE_MAX_RANKS {
        ops.push(Write::ColdAllgather);
        ops.extend([CacheLess::Alltoall, CacheLess::ReduceScatter].map(Write::CacheLess));
    }
    ops
}

impl PlanChurn {
    pub fn build(seed: u64) -> Result<Self, String> {
        let machines = Machines::default();
        let coll = AdaptiveColl::default();
        let cache = TopoCache::with_capacity(CACHE_CAPACITY);
        let mut rng = rng_for(seed, 0x706c);
        let mut groups = Vec::new();
        // (machine, ranks, read ops per pass, allgather block sizes)
        let plan: [(&'static str, usize, usize, &'static [usize]); 4] = [
            ("zoot", 16, 360, &[4 << 10, 16 << 10, 64 << 10]),
            ("ig", 48, 300, &[4 << 10, 16 << 10, 64 << 10]),
            ("ig-x2", 96, 180, &[4 << 10, 16 << 10, 64 << 10]),
            ("ig-x4", 192, 60, &[16 << 10]),
        ];
        let mut ops = Vec::new();
        for (c, &(label, ranks, reads, allgather_sizes)) in plan.iter().enumerate() {
            let machine = machines.by_label(label);
            let bind = |policy: BindingPolicy| -> Result<Communicator, String> {
                let binding = policy
                    .bind(&machine, ranks)
                    .map_err(|e| format!("{label}: {e}"))?;
                Ok(Communicator::world(Arc::clone(&machine), binding))
            };
            groups.push(Group {
                label,
                ranks,
                stable: bind(BindingPolicy::Random {
                    seed: seed.wrapping_add(c as u64),
                })?,
                churn: bind(BindingPolicy::Random {
                    seed: seed.wrapping_add(100 + c as u64),
                })?,
                roots: std::array::from_fn(|_| rng.gen_range(0..ranks)),
                churn_roots: std::array::from_fn(|_| rng.gen_range(0..ranks)),
                rebinds: 0,
                machine,
            });
            ops.extend((0..reads).map(|k| PlanOp::Read {
                comm: c,
                what: read_op(k, allgather_sizes),
            }));
            ops.extend(
                write_ops(ranks)
                    .into_iter()
                    .map(|what| PlanOp::Write { comm: c, what }),
            );
        }
        let mut this = PlanChurn {
            seed,
            coll,
            cache,
            groups,
            ops,
            reference: HashMap::new(),
        };
        this.prime()?;
        Ok(this)
    }

    /// Plans every distinct read op once through the cache and once cold,
    /// validates it and keeps it as the reference the read phase compares
    /// against.
    fn prime(&mut self) -> Result<(), String> {
        let distinct: Vec<(usize, Read)> = self
            .ops
            .iter()
            .filter_map(|op| match *op {
                PlanOp::Read { comm, what } => Some((comm, what)),
                PlanOp::Write { .. } => None,
            })
            .collect();
        for key in distinct {
            if self.reference.contains_key(&key) {
                continue;
            }
            let group = &self.groups[key.0];
            let (warm, cold) = match key.1 {
                Read::Bcast { slot, bytes } => (
                    self.coll
                        .bcast_cached(&self.cache, &group.stable, group.roots[slot], bytes),
                    self.coll.bcast(&group.stable, group.roots[slot], bytes),
                ),
                Read::Allgather { bytes } => (
                    self.coll
                        .allgather_cached(&self.cache, &group.stable, bytes),
                    self.coll.allgather(&group.stable, bytes),
                ),
            };
            if warm != cold {
                return Err(format!(
                    "{} {:?}: cached plan differs from the cold plan",
                    group.label, key.1
                ));
            }
            cold.validate()
                .map_err(|e| format!("{} {:?}: {e}", group.label, key.1))?;
            self.reference.insert(key, cold);
        }
        Ok(())
    }

    fn read(&self, comm: usize, what: Read) -> OpResult {
        let group = &self.groups[comm];
        let reference = &self.reference[&(comm, what)];
        timed_op(
            "plan.read",
            || {
                Ok(in_span(Layer::Core, "plan.cached", || match what {
                    Read::Bcast { slot, bytes } => {
                        self.coll
                            .bcast_cached(&self.cache, &group.stable, group.roots[slot], bytes)
                    }
                    Read::Allgather { bytes } => {
                        self.coll
                            .allgather_cached(&self.cache, &group.stable, bytes)
                    }
                }))
            },
            |schedule| {
                if &schedule == reference {
                    Ok(())
                } else {
                    Err("cached plan differs from the validated cold plan".to_string())
                }
            },
        )
    }

    fn rebind(&mut self, comm: usize) -> OpResult {
        let seed = self.seed;
        let cache = &self.cache;
        let group = &mut self.groups[comm];
        group.rebinds += 1;
        let policy = BindingPolicy::Random {
            seed: seed.wrapping_add(1000 * group.rebinds + comm as u64),
        };
        let old_epoch = group.churn.epoch();
        let (machine, ranks) = (Arc::clone(&group.machine), group.ranks);
        let churn = &mut group.churn;
        timed_op(
            "plan.rebind",
            || {
                let binding = in_span(Layer::Hwtopo, "bind", || policy.bind(&machine, ranks))
                    .map_err(|e| e.to_string())?;
                let fresh = Communicator::world(machine, binding);
                in_span(Layer::Hwtopo, "distance_fill", || fresh.distances_arc());
                in_span(Layer::Core, "invalidate_epoch", || {
                    cache.invalidate_epoch(old_epoch)
                });
                Ok(fresh)
            },
            |fresh| {
                if fresh.size() != ranks || fresh.epoch() == old_epoch {
                    return Err("rebind did not produce a fresh communicator".to_string());
                }
                *churn = fresh;
                Ok(())
            },
        )
    }

    fn write(&mut self, comm: usize, what: Write) -> OpResult {
        if let Write::Rebind = what {
            return self.rebind(comm);
        }
        let (coll, cache) = (&self.coll, &self.cache);
        let group = &self.groups[comm];
        let (churn, ranks) = (&group.churn, group.ranks);
        let validated = |schedule: Schedule| {
            if schedule.num_ranks != ranks {
                return Err(format!(
                    "schedule addresses {} ranks, communicator has {ranks}",
                    schedule.num_ranks
                ));
            }
            schedule.validate().map_err(|e| e.to_string())
        };
        match what {
            Write::Rebind => unreachable!("handled above"),
            Write::MissBcast { slot } => timed_op(
                "plan.miss_bcast",
                || {
                    Ok(in_span(Layer::Core, "bcast_cached", || {
                        coll.bcast_cached(cache, churn, group.churn_roots[slot], 1 << 20)
                    }))
                },
                validated,
            ),
            Write::ColdBcast { slot } => timed_op(
                "plan.cold_bcast",
                || {
                    Ok(in_span(Layer::Core, "bcast", || {
                        coll.bcast(churn, group.churn_roots[slot], 16 << 10)
                    }))
                },
                validated,
            ),
            Write::MissTree => timed_op(
                "plan.miss_tree",
                || {
                    Ok(in_span(Layer::Core, "bcast_tree_cached", || {
                        let topo = coll.bcast_topology_choice(churn, 1 << 20);
                        coll.bcast_tree_cached(cache, churn, group.roots[0], topo)
                    }))
                },
                |tree| {
                    let mut seen = tree.bfs_order();
                    seen.sort_unstable();
                    if seen == (0..ranks).collect::<Vec<_>>() && tree.root == group.roots[0] {
                        Ok(())
                    } else {
                        Err("broadcast tree does not span every rank from its root".to_string())
                    }
                },
            ),
            Write::MissRing => timed_op(
                "plan.miss_ring",
                || {
                    Ok(in_span(Layer::Core, "allgather_ring_cached", || {
                        coll.allgather_ring_cached(cache, churn)
                    }))
                },
                |ring| {
                    let mut order = ring.order().to_vec();
                    order.sort_unstable();
                    if order == (0..ranks).collect::<Vec<_>>() {
                        Ok(())
                    } else {
                        Err("allgather ring is not a permutation of the ranks".to_string())
                    }
                },
            ),
            Write::ColdAllgather => timed_op(
                "plan.cold_allgather",
                || {
                    Ok(in_span(Layer::Core, "allgather", || {
                        coll.allgather(churn, 16 << 10)
                    }))
                },
                validated,
            ),
            Write::CacheLess(which) => timed_op(
                "plan.cache_less",
                || {
                    let root = group.churn_roots[0];
                    Ok(in_span(Layer::Core, "distance_aware", || match which {
                        CacheLess::Gather => {
                            pdac_core::gather::distance_aware(churn, root, 16 << 10)
                        }
                        CacheLess::Scatter => {
                            pdac_core::scatter::distance_aware(churn, root, 16 << 10)
                        }
                        CacheLess::Reduce => {
                            pdac_core::reduce::distance_aware(churn, root, 1 << 20)
                        }
                        CacheLess::Barrier => pdac_core::barrier::distance_aware(churn),
                        CacheLess::Alltoall => pdac_core::alltoall::distance_aware(churn, 16 << 10),
                        CacheLess::ReduceScatter => {
                            pdac_core::reduce_scatter::distance_aware(churn, 16 << 10)
                        }
                    }))
                },
                validated,
            ),
            Write::Explained => timed_op(
                "plan.explained",
                || {
                    Ok(in_span(Layer::Core, "bcast_explained", || {
                        coll.bcast_explained(Some(cache), churn, group.churn_roots[1], 1 << 20)
                    }))
                },
                |(schedule, provenance)| {
                    if provenance.planned_ops.len() != schedule.ops.len() {
                        return Err("provenance does not cover every planned op".to_string());
                    }
                    validated(schedule)
                },
            ),
        }
    }
}

impl Workload for PlanChurn {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, idx: usize) -> String {
        match self.ops[idx] {
            PlanOp::Read {
                comm,
                what: Read::Bcast { slot, bytes },
            } => {
                format!(
                    "{} bcast_cached root-slot {slot} {}",
                    self.groups[comm].label,
                    size_label(bytes)
                )
            }
            PlanOp::Read {
                comm,
                what: Read::Allgather { bytes },
            } => {
                format!(
                    "{} allgather_cached {}",
                    self.groups[comm].label,
                    size_label(bytes)
                )
            }
            PlanOp::Write { comm, what } => format!("{} {what:?}", self.groups[comm].label),
        }
    }

    fn run_op(&mut self, idx: usize, _pass: u64, _mode: Mode) -> OpResult {
        match self.ops[idx] {
            PlanOp::Read { comm, what } => self.read(comm, what),
            PlanOp::Write { comm, what } => self.write(comm, what),
        }
    }

    fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for (machine, ranks, bad) in [
            ("zoot", 16, BindingPolicy::CrossSocket),
            ("ig", 48, BindingPolicy::CrossSocket),
            ("ig-x2", 96, BindingPolicy::CrossNode),
        ] {
            for (plan, bytes) in [(Plan::Bcast, 1 << 20), (Plan::Allgather, 16 << 10)] {
                out.push(Scenario::new(
                    machine,
                    ranks,
                    BindingPolicy::Contiguous,
                    plan,
                    bytes,
                ));
                out.push(Scenario::new(machine, ranks, bad.clone(), plan, bytes));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_phase_is_about_a_tenth_of_a_pass() {
        let writes: usize = [16, 48, 96, 192]
            .into_iter()
            .map(|n| write_ops(n).len())
            .sum();
        let reads = 360 + 300 + 180 + 60;
        let share = writes as f64 / (writes + reads) as f64;
        assert!((0.08..=0.12).contains(&share), "write share {share}");
        assert!(write_ops(192).len() < write_ops(96).len());
    }

    #[test]
    fn read_ops_cover_both_planners_and_every_size() {
        let sizes = [4 << 10, 16 << 10, 64 << 10];
        let ops: std::collections::HashSet<Read> = (0..60).map(|k| read_op(k, &sizes)).collect();
        assert_eq!(
            ops.iter()
                .filter(|r| matches!(r, Read::Allgather { .. }))
                .count(),
            3
        );
        assert_eq!(
            ops.iter()
                .filter(|r| matches!(r, Read::Bcast { .. }))
                .count(),
            ROOT_SLOTS * BCAST_SIZES.len()
        );
    }
}
