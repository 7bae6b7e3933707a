//! Names, units and bounds of everything the benchmark reports. `list
//! --json` prints this table and a unit test holds it equal to the
//! repository's `BENCHMARK.json`.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a per-layer number comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A clock was read around the named call.
    Measured,
    /// A count that repeats bit-for-bit for one seed.
    Exact,
    /// Derived from sizes and measured rates, not observed directly.
    Computed,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mpi_small",
        why: "latency-bound: all nine Session collectives at 1-16 KiB on 12-16 rank threads, so planning and executor fixed cost do the work and copy/checksum do not",
    },
    Workload {
        name: "mpi_large",
        why: "bandwidth-bound: 64 KiB-1 MiB Session collectives, RDMA-transport runs and a corruption-heal op, so staged copies, checksum, waits and pack/unpack do the work and planning does not",
    },
    Workload {
        name: "sim_matrix",
        why: "solver-bound: 74 simulate-and-analyze scenarios from 16 to 192 ranks on one thread, so the rate solver does the work and the executor is idle",
    },
    Workload {
        name: "plan_churn",
        why: "planner-bound: cached plans beside rebinds, invalidations, misses and evictions on 16-192 rank communicators, so topology build and the cache do the work",
    },
];

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Computed, Exact, Measured};

pub const PER_LAYER: &[PerLayer] = &[
    // hwtopo
    m("hwtopo.distance_fill_ns.r48", "ns", Lower, Measured),
    m("hwtopo.distance_fill_ns.r192", "ns", Lower, Measured),
    m("hwtopo.bind_ns.r192", "ns", Lower, Measured),
    m("hwtopo.distance_fills", "count", Lower, Exact),
    // core
    m("core.tree_build_ns.r48", "ns", Lower, Measured),
    m("core.tree_build_ns.r192", "ns", Lower, Measured),
    m("core.ring_build_ns.r48", "ns", Lower, Measured),
    m("core.ring_build_ns.r192", "ns", Lower, Measured),
    m("core.sched_build_ns.bcast_1M", "ns", Lower, Measured),
    m("core.sched_build_ns.allgather_64K", "ns", Lower, Measured),
    m("core.plan_cold_ns", "ns", Lower, Measured),
    m("core.plan_warm_ns", "ns", Lower, Measured),
    m("core.plan_explained_ns", "ns", Lower, Measured),
    m("core.price.provenance", "ratio", Lower, Measured),
    m("core.topocache.hit_share", "ratio", Higher, Exact),
    m("core.topocache.invalidate_ns", "ns", Lower, Measured),
    m("core.topocache.evictions", "count", Lower, Exact),
    m("core.sched_ops", "count", Lower, Exact),
    m("core.sched_bytes", "bytes", Lower, Computed),
    m("core.local_msg_share", "ratio", Higher, Exact),
    m("core.bytes_far_share", "ratio", Lower, Exact),
    m("core.tree_depth_max", "count", Lower, Exact),
    m("core.ring_cross_edges", "count", Lower, Exact),
    // mpi
    m("mpi.session_new_ns", "ns", Lower, Measured),
    m("mpi.call_ns.bcast_1M", "ns", Lower, Measured),
    m("mpi.call_ns.allreduce_1M", "ns", Lower, Measured),
    m("mpi.call_ns.bcast_16K", "ns", Lower, Measured),
    m("mpi.pack_unpack_ns.1M", "ns", Lower, Measured),
    m("mpi.self_share", "ratio", Lower, Measured),
    // mpisim
    m("mpisim.exec_run_ns.bcast_1M", "ns", Lower, Measured),
    m("mpisim.exec_run_ns.allgather_64K", "ns", Lower, Measured),
    m("mpisim.exec_run_ns.allreduce_1M", "ns", Lower, Measured),
    m("mpisim.exec_run_ns.bcast_16K", "ns", Lower, Measured),
    m("mpisim.exec_run_ns.rdma.bcast_1M", "ns", Lower, Measured),
    m("mpisim.exec_cpu_ns.bcast_1M", "ns", Lower, Measured),
    m("mpisim.exec_fixed_ns", "ns", Lower, Measured),
    m("mpisim.exec_MBps", "MB/s", Higher, Measured),
    m("mpisim.memcpy_floor_MBps", "MB/s", Higher, Measured),
    m("mpisim.exec_efficiency", "ratio", Higher, Computed),
    m("mpisim.checksum_MBps", "MB/s", Higher, Measured),
    m("mpisim.checksum_share_computed", "ratio", Lower, Computed),
    m("mpisim.copy_share_computed", "ratio", Lower, Computed),
    m("mpisim.exec_unexplained_share", "ratio", Lower, Computed),
    m("mpisim.wait.fast", "count", Higher, Measured),
    m("mpisim.wait.drained", "count", Lower, Measured),
    m("mpisim.wait.yields", "count", Lower, Measured),
    m("mpisim.wait.parked", "count", Lower, Exact),
    m("mpisim.knem.copies", "count", Lower, Exact),
    m("mpisim.knem.bytes", "bytes", Lower, Exact),
    m("mpisim.knem.registrations", "count", Lower, Exact),
    m("mpisim.integrity.stamped", "count", Lower, Exact),
    m("mpisim.integrity.verified", "count", Lower, Exact),
    m("mpisim.integrity.retransmits", "count", Lower, Exact),
    m("mpisim.bufpool.hit_share", "ratio", Higher, Measured),
    m("mpisim.bufpool.acquire_ns", "ns", Lower, Measured),
    m("mpisim.transport.knem_tx_ns", "ns", Lower, Measured),
    m("mpisim.transport.rdma_tx_ns", "ns", Lower, Measured),
    m("mpisim.price.detector", "ratio", Lower, Measured),
    m("mpisim.price.deadline", "ratio", Lower, Measured),
    m("mpisim.price.distances", "ratio", Lower, Measured),
    m("mpisim.price.noise", "ratio", Lower, Measured),
    // simnet
    m("simnet.run_ns.ig48_bcast_1M", "ns", Lower, Measured),
    m("simnet.run_ns.ig48_allgather_64K", "ns", Lower, Measured),
    m("simnet.run_ns.r192_allgather_16K", "ns", Lower, Measured),
    m("simnet.events_per_s", "1/s", Higher, Measured),
    m("simnet.solver.full_share", "ratio", Lower, Measured),
    m("simnet.solver.incremental_share", "ratio", Higher, Measured),
    m("simnet.solver.skipped_share", "ratio", Higher, Measured),
    m(
        "simnet.solver.fallback_component_spanned",
        "count",
        Lower,
        Measured,
    ),
    m("simnet.solver.solve_ns", "ns", Lower, Measured),
    m("simnet.solver.intern_ns", "ns", Lower, Measured),
    m("simnet.solver.bfs_ns", "ns", Lower, Measured),
    m("simnet.solver.fill_ns", "ns", Lower, Measured),
    m("simnet.solver.fill_rounds", "count", Lower, Measured),
    m("simnet.solver.phase_attribution", "ratio", Higher, Measured),
    m("simnet.full_rates_ratio.r48", "ratio", Higher, Measured),
    m("simnet.full_rates_ratio.r192", "ratio", Higher, Measured),
    m(
        "simnet.predicted_wait_share.bcast_1M",
        "ratio",
        Lower,
        Exact,
    ),
    m(
        "simnet.predicted_wait_share.allgather_64K",
        "ratio",
        Lower,
        Exact,
    ),
    m("simnet.mc_balance", "ratio", Lower, Exact),
    // analyze
    m("analyze.opgraph_ns", "ns", Lower, Measured),
    m("analyze.critical_path_ns", "ns", Lower, Measured),
    m("analyze.conformance_ns", "ns", Lower, Measured),
    m("analyze.coverage_min", "ratio", Higher, Exact),
    // telemetry / obs
    m("telemetry.snapshot_ns", "ns", Lower, Measured),
    m("obs.openmetrics_render_ns", "ns", Lower, Measured),
    // the simulator's prediction for the workload's scenarios
    m("model.predicted_s", "sim_s", Lower, Exact),
    m("model.placement_loss_pct", "%", Lower, Exact),
    // where the traced operations spent their time
    m("share.hwtopo", "ratio", Lower, Measured),
    m("share.core", "ratio", Lower, Measured),
    m("share.mpi", "ratio", Lower, Measured),
    m("share.mpisim", "ratio", Lower, Measured),
    m("share.simnet", "ratio", Lower, Measured),
    m("share.analyze", "ratio", Lower, Measured),
    m("trace.attributed_share", "ratio", Higher, Measured),
    m("trace.reenact_ratio", "ratio", Lower, Measured),
    m("trace.overhead_share", "ratio", Lower, Measured),
    // driver diagnostics
    m("driver.op_tail_us", "us", Lower, Measured),
    m("driver.op_tail_q", "ratio", Higher, Measured),
    m("driver.op_samples", "count", Higher, Measured),
    m("driver.ops_per_pass", "count", Lower, Exact),
    m("driver.cpu_s_per_op", "s", Lower, Measured),
    m("driver.slice_spread", "ratio", Lower, Measured),
    m("driver.check_share", "ratio", Lower, Measured),
];

/// The catalog as the JSON document `BENCHMARK.json` holds (without its
/// `command` and `paths`, which only the repository knows).
pub fn to_json() -> String {
    let mut out = format!("{{\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            e.name,
            e.unit,
            e.better.label(),
            e.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, p) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            p.name,
            p.unit,
            p.better.label()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for e in &END_TO_END {
            assert!(valid_name(e.name) && valid_unit(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(seen.insert(e.name), "duplicate name {}", e.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for p in PER_LAYER {
            assert!(valid_name(p.name) && valid_unit(p.unit), "{}", p.name);
            assert!(seen.insert(p.name), "duplicate name {}", p.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|e| e.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(entries) => {
                &entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing {key}"))
                    .1
            }
            other => panic!("expected an object, got {other:?}"),
        }
    }

    /// `list --json` and the repository's `BENCHMARK.json` name the same
    /// workloads and metrics with the same units, directions and bounds.
    #[test]
    fn list_json_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed: Value = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .expect("BENCHMARK.json parses");
        let listed: Value = serde_json::from_str(&to_json()).expect("list --json parses");
        for key in ["run_seconds", "workloads", "end_to_end", "per_layer"] {
            assert_eq!(field(&committed, key), field(&listed, key), "{key} differs");
        }
        assert_eq!(
            field(&committed, "paths"),
            &Value::Seq(vec![Value::Str("benchmarks/e2e".into())])
        );
    }
}
