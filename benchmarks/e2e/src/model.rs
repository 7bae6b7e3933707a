//! The sim leg: one scenario planned, simulated and analysed — what
//! `pdac_bench::gate::run_scenario` does, re-stated here so the scenario
//! list is frozen in the benchmark and every step gets its own span.

use std::sync::Arc;

use pdac_analyze::{CriticalPathReport, OpGraph};
use pdac_core::framework::CollFramework;
use pdac_core::sched::{allreduce_schedule_dist, allreduce_schedule_with_op, SchedConfig};
use pdac_core::{build_bcast_tree, AdaptiveColl, Ring};
use pdac_hwtopo::{BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{DataOp, OpKind, Schedule, SimConfig, SimExecutor, TransportModel};

use crate::spans::{in_span, Layer};
use crate::workload::{placement_label, size_label, Machines};

/// Which planner a scenario goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// `AdaptiveColl::bcast` from root 0 (the gate's broadcast).
    Bcast,
    /// `AdaptiveColl::allgather`.
    Allgather,
    /// Tree allreduce with per-distance chunking (the gate's allreduce).
    Allreduce,
    Alltoall,
    ReduceScatter,
    Gather,
    Scatter,
    Reduce,
    Barrier,
    /// What `Session::bcast` plans: component selection included.
    SessionBcast,
    /// What `Session::allgather` plans.
    SessionAllgather,
    /// What `Session::allreduce` plans: ring when the payload splits.
    SessionAllreduce,
}

impl Plan {
    fn label(self) -> &'static str {
        match self {
            Plan::Bcast | Plan::SessionBcast => "bcast",
            Plan::Allgather | Plan::SessionAllgather => "allgather",
            Plan::Allreduce | Plan::SessionAllreduce => "allreduce",
            Plan::Alltoall => "alltoall",
            Plan::ReduceScatter => "reduce_scatter",
            Plan::Gather => "gather",
            Plan::Scatter => "scatter",
            Plan::Reduce => "reduce",
            Plan::Barrier => "barrier",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Scenario {
    pub machine: &'static str,
    pub ranks: usize,
    pub policy: BindingPolicy,
    pub plan: Plan,
    /// Message bytes, or block bytes for the block collectives.
    pub bytes: usize,
    pub transport: TransportModel,
}

impl Scenario {
    pub fn new(
        machine: &'static str,
        ranks: usize,
        policy: BindingPolicy,
        plan: Plan,
        bytes: usize,
    ) -> Self {
        Scenario {
            machine,
            ranks,
            policy,
            plan,
            bytes,
            transport: TransportModel::Knem,
        }
    }

    pub fn id(&self) -> String {
        let rdma = if self.transport == TransportModel::Rdma {
            "/rdma"
        } else {
            ""
        };
        format!(
            "{}x{}/{}/{}/{}{rdma}",
            self.machine,
            self.ranks,
            self.plan.label(),
            placement_label(&self.policy),
            size_label(self.bytes)
        )
    }

    /// Everything but the placement: scenarios equal under this key are the
    /// pairs `placement_loss_pct` compares.
    fn pair_key(&self) -> String {
        format!(
            "{}x{}/{:?}/{}/{:?}",
            self.machine, self.ranks, self.plan, self.bytes, self.transport
        )
    }
}

/// Compiles the schedule of `scenario` on `comm` through public planners.
pub fn plan(scenario: &Scenario, comm: &Communicator) -> Schedule {
    let bytes = scenario.bytes;
    match scenario.plan {
        Plan::Bcast => AdaptiveColl::default().bcast(comm, 0, bytes),
        Plan::Allgather => AdaptiveColl::default().allgather(comm, bytes),
        Plan::Allreduce => {
            let dist = comm.distances();
            let tree = build_bcast_tree(&dist, 0);
            allreduce_schedule_dist(&tree, bytes, &SchedConfig::default(), Some(&dist))
        }
        Plan::Alltoall => pdac_core::alltoall::distance_aware(comm, bytes),
        Plan::ReduceScatter => pdac_core::reduce_scatter::distance_aware(comm, bytes),
        Plan::Gather => pdac_core::gather::distance_aware(comm, 0, bytes),
        Plan::Scatter => pdac_core::scatter::distance_aware(comm, 0, bytes),
        Plan::Reduce => pdac_core::reduce::distance_aware(comm, 0, bytes),
        Plan::Barrier => pdac_core::barrier::distance_aware(comm),
        Plan::SessionBcast => CollFramework::default().bcast(comm, 0, bytes),
        Plan::SessionAllgather => CollFramework::default().allgather(comm, bytes),
        Plan::SessionAllreduce => session_allreduce(comm, bytes, DataOp::SumF64),
    }
}

/// The schedule `Session::allreduce` builds for `bytes` of 8-byte lanes.
pub fn session_allreduce(comm: &Communicator, bytes: usize, op: DataOp) -> Schedule {
    let n = comm.size();
    let ring_block = bytes / n;
    if n > 1
        && bytes.is_multiple_of(n)
        && ring_block.is_multiple_of(op.lane_bytes())
        && bytes >= 256 * 1024
    {
        let ring = Ring::build(&comm.distances());
        pdac_core::reduce_scatter::ring_allreduce_schedule_with_op(&ring, ring_block, op)
    } else {
        let tree = build_bcast_tree(&comm.distances(), 0);
        allreduce_schedule_with_op(&tree, bytes, &SchedConfig::default(), op)
    }
}

/// What one sim op yields.
pub struct SimOutcome {
    /// Simulated completion time (model seconds, not host time).
    pub seconds: f64,
    pub sched_ops: usize,
    pub coverage: f64,
    /// Share of the critical path spent waiting or in notifications.
    pub wait_share: f64,
    pub shape: ScheduleShape,
}

/// Locality of a schedule's messages (copies between two ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScheduleShape {
    pub messages: u64,
    /// Messages between ranks at process distance <= 2.
    pub local_messages: u64,
    pub bytes: u64,
    /// Bytes moved between ranks at process distance >= 5.
    pub far_bytes: u64,
}

impl ScheduleShape {
    pub fn of(schedule: &Schedule, dist: &DistanceMatrix) -> Self {
        let mut shape = ScheduleShape::default();
        for op in &schedule.ops {
            if let OpKind::Copy {
                src_rank,
                dst_rank,
                bytes,
                ..
            } = op.kind
            {
                if src_rank == dst_rank {
                    continue;
                }
                let d = dist.get(src_rank, dst_rank);
                shape.messages += 1;
                shape.bytes += bytes as u64;
                if d <= 2 {
                    shape.local_messages += 1;
                }
                if d >= 5 {
                    shape.far_bytes += bytes as u64;
                }
            }
        }
        shape
    }

    pub fn add(&mut self, other: &ScheduleShape) {
        self.messages += other.messages;
        self.local_messages += other.local_messages;
        self.bytes += other.bytes;
        self.far_bytes += other.far_bytes;
    }
}

/// One sim op: bind, plan, simulate, rebuild the op graph, extract the
/// critical path.
pub fn run_sim(machine: &Arc<Machine>, scenario: &Scenario) -> Result<SimOutcome, String> {
    let binding = in_span(Layer::Hwtopo, "bind", || {
        scenario.policy.bind(machine, scenario.ranks)
    })
    .map_err(|e| format!("{}: {e}", scenario.id()))?;
    let comm = Communicator::world(Arc::clone(machine), binding);
    let dist = in_span(Layer::Hwtopo, "distance_fill", || comm.distances_arc());
    let schedule = in_span(Layer::Core, "plan", || plan(scenario, &comm));
    let report = in_span(Layer::Simnet, "sim.run", || {
        SimExecutor::new(machine, comm.binding(), SimConfig::default())
            .with_transport_model(scenario.transport)
            .run(&schedule)
    })
    .map_err(|e| format!("{}: {e}", scenario.id()))?;
    let events = in_span(Layer::Simnet, "sim.events", || {
        sim_events_with_distances(&schedule, &report, Some(&dist))
    });
    let graph = in_span(Layer::Analyze, "opgraph", || OpGraph::from_events(&events));
    let cp = in_span(Layer::Analyze, "critical_path", || {
        CriticalPathReport::extract(&graph)
    });
    let notify_us = cp
        .by_mech
        .iter()
        .find(|r| r.key == "notify")
        .map_or(0.0, |r| r.us);
    Ok(SimOutcome {
        seconds: report.total_time,
        sched_ops: schedule.ops.len(),
        coverage: cp.coverage,
        wait_share: (cp.wait_us + notify_us) / cp.wall_us.max(f64::MIN_POSITIVE),
        shape: ScheduleShape::of(&schedule, &dist),
    })
}

/// The deterministic numbers of a workload: the simulator's verdict on its
/// distinct scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Sum of simulated seconds over the scenarios.
    pub predicted_s: f64,
    /// Worst predicted bandwidth loss of a non-contiguous placement against
    /// the contiguous one, over scenario pairs equal in everything else.
    pub placement_loss_pct: f64,
    /// The scenario that loses that much against its contiguous twin.
    pub worst_placement: Option<String>,
    pub sched_ops: u64,
    pub shape: ScheduleShape,
    pub coverage_min: f64,
}

pub fn model_pass(machines: &Machines, scenarios: &[Scenario]) -> Result<ModelReport, String> {
    let mut report = ModelReport {
        predicted_s: 0.0,
        placement_loss_pct: 0.0,
        worst_placement: None,
        sched_ops: 0,
        shape: ScheduleShape::default(),
        coverage_min: 1.0,
    };
    let mut seconds = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let out = run_sim(&machines.by_label(scenario.machine), scenario)?;
        report.predicted_s += out.seconds;
        report.sched_ops += out.sched_ops as u64;
        report.shape.add(&out.shape);
        report.coverage_min = report.coverage_min.min(out.coverage);
        seconds.push(out.seconds);
    }
    for (i, base) in scenarios
        .iter()
        .enumerate()
        .filter(|(_, s)| s.policy == BindingPolicy::Contiguous)
    {
        for (j, other) in scenarios.iter().enumerate() {
            if other.policy != BindingPolicy::Contiguous && other.pair_key() == base.pair_key() {
                let loss = (1.0 - seconds[i] / seconds[j]) * 100.0;
                if loss > report.placement_loss_pct {
                    report.placement_loss_pct = loss;
                    report.worst_placement = Some(other.id());
                }
            }
        }
    }
    Ok(report)
}
