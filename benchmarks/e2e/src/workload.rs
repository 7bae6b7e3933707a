//! What the driver needs from a workload, and the pieces workloads share.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pdac_hwtopo::{cluster, machines, BindingPolicy, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::Scenario;
use crate::spans::{span, Layer};

/// How one operation is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Spans off: the numbers end-to-end metrics are made from.
    Plain,
    /// The same calls with spans recorded around every layer boundary.
    Traced,
    /// `mpi_*` only: the `Session` call re-stated from public pieces (plan,
    /// pack, execute, unpack) so each piece gets its own span.
    Reenact,
}

/// Outcome of one operation: time on the clock (the calls into the stack,
/// not the result check) and the verdict of the check.
pub struct OpResult {
    pub busy_ns: u64,
    pub check: Result<(), String>,
}

/// Times `call` (the part of an op that runs inside the stack) under an
/// op-root span, then runs `check` on its value off the clock.
pub fn timed_op<R>(
    name: &'static str,
    call: impl FnOnce() -> Result<R, String>,
    check: impl FnOnce(R) -> Result<(), String>,
) -> OpResult {
    let start = Instant::now();
    let value = {
        let _op = span(Layer::Op, name);
        call()
    };
    let busy_ns = start.elapsed().as_nanos() as u64;
    OpResult {
        busy_ns,
        check: value.and_then(check),
    }
}

pub trait Workload {
    /// Operations in one pass (the same for every seed).
    fn ops_per_pass(&self) -> usize;

    /// One line naming operation `idx`, for failure reports.
    fn op_label(&self, idx: usize) -> String;

    /// Runs operation `idx` of pass `pass` and checks its result.
    fn run_op(&mut self, idx: usize, pass: u64, mode: Mode) -> OpResult;

    /// True when [`Mode::Reenact`] differs from [`Mode::Traced`].
    fn reenacts(&self) -> bool {
        false
    }

    /// The distinct scenarios the simulator prices for this workload.
    fn scenarios(&self) -> Vec<Scenario>;
}

/// The machines the workloads run on, each built on first use.
#[derive(Default)]
pub struct Machines {
    built: [OnceLock<Arc<Machine>>; 5],
}

impl Machines {
    /// `zoot` and `ig` are the paper's machines; `syn2x2x8` is the gate's
    /// synthetic one; `ig-x2` and `ig-x4` are two and four IG nodes behind
    /// two switches (96 and 192 cores).
    pub fn by_label(&self, label: &str) -> Arc<Machine> {
        const LABELS: [&str; 5] = ["zoot", "ig", "syn2x2x8", "ig-x2", "ig-x4"];
        let slot = LABELS
            .iter()
            .position(|&l| l == label)
            .unwrap_or_else(|| panic!("unknown machine {label}"));
        let cluster_of = |nodes| {
            cluster::homogeneous(label, &machines::ig(), nodes, 2).expect("IG nodes form a cluster")
        };
        Arc::clone(self.built[slot].get_or_init(|| {
            Arc::new(match label {
                "zoot" => machines::zoot(),
                "ig" => machines::ig(),
                "syn2x2x8" => machines::synthetic(2, 2, 8, true),
                "ig-x2" => cluster_of(2),
                _ => cluster_of(4),
            })
        }))
    }
}

pub fn placement_label(policy: &BindingPolicy) -> &'static str {
    match policy {
        BindingPolicy::Contiguous => "contig",
        BindingPolicy::CrossSocket => "xsock",
        BindingPolicy::CrossNode => "xnode",
        BindingPolicy::Random { .. } => "random",
        _ => "other",
    }
}

/// An independent generator for one purpose (`stream`) under the run's
/// seed, so adding a consumer never shifts another's numbers.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
}

pub fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}
