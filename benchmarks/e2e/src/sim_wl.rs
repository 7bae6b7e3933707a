//! `sim_matrix`: sim ops only, on the driver thread.

use pdac_hwtopo::BindingPolicy;
use pdac_simnet::TransportModel;

use crate::model::{run_sim, Plan, Scenario};
use crate::workload::{timed_op, Machines, Mode, OpResult, Workload};

/// The frozen scenario list: the 44 scenarios of the regression gate, the
/// six collectives the gate leaves out, and two cluster sizes nothing else
/// simulates.
pub fn scenarios() -> Vec<Scenario> {
    use BindingPolicy::{Contiguous, CrossNode, CrossSocket};
    let mut out = Vec::new();
    for (machine, ranks) in [("ig", 48), ("zoot", 16), ("syn2x2x8", 32)] {
        for (plan, sizes) in [
            (Plan::Bcast, [16 << 10, 1 << 20]),
            (Plan::Allgather, [4 << 10, 64 << 10]),
            (Plan::Allreduce, [16 << 10, 1 << 20]),
        ] {
            for bytes in sizes {
                for policy in [Contiguous, CrossSocket] {
                    out.push(Scenario::new(machine, ranks, policy, plan, bytes));
                }
            }
        }
    }
    for (machine, ranks) in [("ig", 48), ("zoot", 16)] {
        for (plan, bytes) in [(Plan::Bcast, 1 << 20), (Plan::Allgather, 64 << 10)] {
            for policy in [Contiguous, CrossSocket] {
                out.push(Scenario {
                    transport: TransportModel::Rdma,
                    ..Scenario::new(machine, ranks, policy, plan, bytes)
                });
            }
        }
    }
    for (machine, ranks) in [("ig", 48), ("zoot", 16)] {
        for (plan, bytes) in [
            (Plan::Alltoall, 16 << 10),
            (Plan::ReduceScatter, 16 << 10),
            (Plan::Gather, 16 << 10),
            (Plan::Scatter, 16 << 10),
            (Plan::Reduce, 1 << 20),
            (Plan::Barrier, 0),
        ] {
            for policy in [Contiguous, CrossSocket] {
                out.push(Scenario::new(machine, ranks, policy, plan, bytes));
            }
        }
    }
    for (plan, bytes) in [(Plan::Bcast, 1 << 20), (Plan::Allgather, 16 << 10)] {
        out.push(Scenario::new("ig-x2", 96, Contiguous, plan, bytes));
        out.push(Scenario::new("ig-x2", 96, CrossNode, plan, bytes));
        out.push(Scenario::new("ig-x4", 192, CrossNode, plan, bytes));
    }
    out
}

pub struct SimMatrix {
    machines: Machines,
    scenarios: Vec<Scenario>,
    /// Simulated seconds and schedule size of each scenario's first run:
    /// the simulator is deterministic, so every later run must repeat them.
    reference: Vec<Option<(f64, usize)>>,
}

impl SimMatrix {
    pub fn build() -> Self {
        let scenarios = scenarios();
        SimMatrix {
            machines: Machines::default(),
            reference: vec![None; scenarios.len()],
            scenarios,
        }
    }
}

impl Workload for SimMatrix {
    fn ops_per_pass(&self) -> usize {
        self.scenarios.len()
    }

    fn op_label(&self, idx: usize) -> String {
        format!("sim {}", self.scenarios[idx].id())
    }

    fn run_op(&mut self, idx: usize, _pass: u64, _mode: Mode) -> OpResult {
        let scenario = &self.scenarios[idx];
        let machine = self.machines.by_label(scenario.machine);
        let reference = &mut self.reference[idx];
        timed_op(
            "sim",
            || run_sim(&machine, scenario),
            |out| {
                if out.coverage < 0.95 {
                    return Err(format!(
                        "critical-path coverage {:.3} below 0.95",
                        out.coverage
                    ));
                }
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(format!("simulated time {} is not a time", out.seconds));
                }
                let first = *reference.get_or_insert((out.seconds, out.sched_ops));
                if first != (out.seconds, out.sched_ops) {
                    return Err(format!(
                        "simulator not deterministic: {} s / {} ops, first run gave {} s / {} ops",
                        out.seconds, out.sched_ops, first.0, first.1
                    ));
                }
                Ok(())
            },
        )
    }

    fn scenarios(&self) -> Vec<Scenario> {
        self.scenarios.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_list_is_frozen() {
        let all = scenarios();
        assert_eq!(all.len(), 74);
        let ids: std::collections::BTreeSet<String> = all.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), 74, "scenario ids are unique");
        assert!(ids.contains("igx48/bcast/contig/1M"));
        assert!(ids.contains("zootx16/allgather/xsock/64K/rdma"));
        assert!(ids.contains("ig-x4x192/allgather/xnode/16K"));
    }
}
