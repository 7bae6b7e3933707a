//! Discrete-event schedule execution with max-min fair bandwidth sharing.
//!
//! Each rank is a serial executor (a core runs one memcpy at a time). An
//! operation whose dependencies are satisfied is queued on its executor; when
//! started it first pays its latency (`base + hop x distance`, plus the KNEM
//! setup for kernel copies), then becomes a *flow* over its route. Active
//! flow rates are recomputed by progressive filling: the bottleneck resource
//! fixes the rate of every flow crossing it, capacities are drained, and the
//! process repeats — max-min fairness with per-resource multiplicities (a
//! NUMA-local copy loads its controller twice).
//!
//! # Rate solving
//!
//! Rates depend only on the set of active flows and their routes, which are
//! fixed when a flow starts. So an event at which no flow arrived or left
//! solves nothing (a third of the events of a collective: notifications and
//! latency phases), and every other event re-solves the whole flow set with
//! the one flat solver in `crate::solver`. There is no second path.
//!
//! There used to be one: a component-scoped solve that walked the flow ↔
//! resource graph from the resources an event touched and re-filled only the
//! flows it reached. A collective couples every flow through the memory
//! controllers and links, so the component was the whole flow set on all but
//! a few events; measured, the full re-solve ran at 0.86–0.96 of the
//! component-scoped time on 48 ranks, and on 192 ranks the run-time check
//! that compared the two switched the component path off after its first 16
//! samples. Multilevel structure (Karonis et al.) is the only way back to a
//! scoped solve worth trying, and only if it wins by more than 3x at 192
//! ranks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use pdac_hwtopo::{core_distance, Binding, Machine};

use crate::fault::{Fault, FaultPlan, FaultStats, ResolvedFaults, SimError};
use crate::resource::{Calibration, Resource, TransportModel};
use crate::route::{copy_route, Route};
use crate::schedule::{BufId, Mech, OpId, OpKind, Schedule};
use crate::solver::{Flows, EPS};

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Allow transfers between cache-sharing cores to stay in cache when the
    /// payload fits. The IMB `off-cache` mode used for Figures 6 and 7
    /// corresponds to `false`.
    pub allow_cache: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { allow_cache: true }
    }
}

/// How many events solved rates and how many did not need to, and the host
/// time the solves took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Events where the flow set was unchanged, or whose departures left no
    /// flow: no solve at all.
    pub skipped: u64,
    /// Whole-flow-set solves.
    pub full: u64,
    /// Nanoseconds in the solves: one clock pair around each.
    pub solve_ns: u64,
    /// The filling rounds' part of `solve_ns` — all of it, the flat solve
    /// has no other phase.
    pub fill_ns: u64,
    /// Reads 0: a flow's arrival and departure are a few array writes in the
    /// event loop and are not timed.
    pub intern_ns: u64,
    /// Progressive-filling rounds executed (each round fixes at least
    /// one bottlenecked flow).
    pub fill_rounds: u64,
    // Read by pdac-e2e's frozen probes; delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub incremental: u64,
    // Read by pdac-e2e's frozen probes; delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub full_component_spanned: u64,
    // Read by pdac-e2e's frozen probes; delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub bfs_ns: u64,
}

impl SolverStats {
    /// Total solver events (skipped + full): one per simulation event.
    pub fn events(&self) -> u64 {
        self.skipped + self.full
    }

    /// Share of the solver's host time spent in filling rounds. `1.0` when
    /// no time was recorded.
    pub fn phase_attribution(&self) -> f64 {
        if self.solve_ns == 0 {
            return 1.0;
        }
        self.fill_ns as f64 / self.solve_ns as f64
    }
}

/// Result of simulating one schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the whole schedule, in seconds.
    pub total_time: f64,
    /// Start time of every op (when its executor began the latency phase;
    /// notifications start when their dependencies complete).
    pub op_start: Vec<f64>,
    /// Completion time of every op.
    pub op_finish: Vec<f64>,
    /// Traffic placed on each resource, in bytes x multiplicity.
    pub resource_bytes: BTreeMap<Resource, f64>,
    /// Time each rank spent executing operations.
    pub rank_busy: Vec<f64>,
    /// Rate-solver invocation counts (full vs skipped) and host time.
    pub solver_stats: SolverStats,
    /// The simulator's own fault accounting: what the plan injected and
    /// the re-transmits it modelled (all zero when no plan was attached).
    pub fault_stats: FaultStats,
}

impl SimReport {
    /// Traffic through the memory controller of `numa`.
    pub fn mc_bytes(&self, numa: usize) -> f64 {
        self.resource_bytes
            .get(&Resource::Mc(numa))
            .copied()
            .unwrap_or(0.0)
    }

    /// Traffic through the inter-board link.
    pub fn board_link_bytes(&self) -> f64 {
        self.resource_bytes
            .get(&Resource::BoardLink)
            .copied()
            .unwrap_or(0.0)
    }

    /// FNV-1a over the bits of everything the engine computes: total time,
    /// per-op start/finish, per-rank busy time and per-resource traffic
    /// (keys included, so a renumbered resource shows too). Solver and
    /// fault accounting are left out. Equal digests mean a bit-identical
    /// simulation.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.total_time.to_bits().to_le_bytes());
        for series in [&self.op_start, &self.op_finish, &self.rank_busy] {
            eat(&(series.len() as u64).to_le_bytes());
            for x in series {
                eat(&x.to_bits().to_le_bytes());
            }
        }
        for (r, bytes) in &self.resource_bytes {
            eat(format!("{r:?}").as_bytes());
            eat(&bytes.to_bits().to_le_bytes());
        }
        h
    }
}

/// Executes schedules against a machine + binding with a calibration table.
pub struct SimExecutor<'a> {
    machine: &'a Machine,
    binding: &'a Binding,
    cal: Calibration,
    config: SimConfig,
    /// Seed-driven faults injected into this executor's runs.
    fault: Option<FaultPlan>,
    /// Simulated-time budget; exceeding it returns a typed error.
    deadline: Option<f64>,
    /// One-sided transport whose setup cost is charged per `Mech::Knem` op.
    transport: TransportModel,
}

/// Per-run fault state beside the plan's [`ResolvedFaults`]: the degrade
/// map, the crash state and the counters. With no plan every part is inert
/// (empty degrade map, no crash thresholds), so the fault-free path is
/// bit-identical to the original engine.
struct FaultState {
    /// Capacity multiplier per degraded resource.
    degrade: HashMap<Resource, f64>,
    crashed: Vec<bool>,
    ops_started: Vec<u64>,
    stats: FaultStats,
}

impl FaultState {
    fn new(plan: Option<&FaultPlan>, faults: &ResolvedFaults, nranks: usize) -> FaultState {
        let mut fs = FaultState {
            degrade: HashMap::new(),
            crashed: vec![false; nranks],
            ops_started: vec![0; nranks],
            stats: FaultStats::default(),
        };
        for fault in plan.map_or(&[][..], FaultPlan::faults) {
            if let Fault::DegradeLink { resource, factor } = *fault {
                let f = fs.degrade.entry(resource).or_insert(1.0);
                *f = (*f * factor).max(crate::fault::MIN_DEGRADE_FACTOR);
                fs.stats.links_degraded += 1;
            }
        }
        let stalled = (0..nranks).filter(|&r| !faults.rank(r).stall.is_zero());
        fs.stats.ranks_stalled = stalled.count() as u64;
        fs
    }

    /// Records one op start by `rank`, which crashes after `crash_after`
    /// starts. Returns `true` when the rank has crashed (the op must be
    /// abandoned instead of started).
    fn note_op_start(&mut self, rank: usize, crash_after: Option<u64>) -> bool {
        if crash_after.is_some_and(|k| self.ops_started[rank] >= k) {
            if !self.crashed[rank] {
                self.crashed[rank] = true;
                self.stats.ranks_crashed += 1;
            }
            return true;
        }
        self.ops_started[rank] += 1;
        false
    }
}

/// Total-order f64 key for the timer heap.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-executor copy pipeline depth for same-edge chunk streams.
///
/// The thread executor double-buffers each `(sender, receiver)` edge: while
/// chunk `k`'s copy drains, chunk `k+1` is staged into the second buffer
/// and its transfer overlaps. The engine models that as up to two in-flight
/// copies per executor, restricted to ops of the *same* edge — unrelated
/// copies still serialize on the single executor thread.
pub const PIPELINE_DEPTH: usize = 2;

/// The `(src_rank, dst_rank)` edge of a copy op (None for notifies).
fn copy_edge(kind: &OpKind) -> Option<(usize, usize)> {
    match *kind {
        OpKind::Copy {
            src_rank, dst_rank, ..
        } => Some((src_rank, dst_rank)),
        OpKind::Notify { .. } => None,
    }
}

/// The queues and clocks of one [`SimExecutor::run`].
struct Run<'a> {
    exec: &'a SimExecutor<'a>,
    schedule: &'a Schedule,
    now: f64,
    /// Copies whose dependencies are met, per executor.
    ready: Vec<BTreeSet<OpId>>,
    /// Copies in flight per executor, oldest first.
    busy: Vec<Vec<OpId>>,
    /// Executors whose ready set grew or whose busy list shrank since
    /// [`Self::start_ready`] last looked: only they can start a copy.
    stale: Vec<usize>,
    is_stale: Vec<bool>,
    started_at: Vec<f64>,
    /// (time, op) min-heap of latency-phase completions.
    timers: BinaryHeap<Reverse<(Time, OpId)>>,
    /// The fault plan resolved against `schedule`.
    faults: ResolvedFaults,
    fs: FaultState,
}

impl Run<'_> {
    fn mark_stale(&mut self, rank: usize) {
        if !std::mem::replace(&mut self.is_stale[rank], true) {
            self.stale.push(rank);
        }
    }

    /// Queues an op whose dependencies are complete. Copies queue on their
    /// executor (a core runs one memcpy at a time); notifications are
    /// asynchronous control messages — they start at once and only cost
    /// latency, without occupying the sender's copy engine.
    fn enqueue(&mut self, id: OpId) {
        let kind = &self.schedule.ops[id].kind;
        match *kind {
            OpKind::Copy { exec, .. } => {
                if self.fs.crashed[exec] {
                    self.fs.stats.ops_abandoned += 1;
                    return;
                }
                self.ready[exec].insert(id);
                self.mark_stale(exec);
            }
            OpKind::Notify { from, .. } => {
                let rank = self.faults.rank(from);
                if self.fs.note_op_start(from, rank.crash_after) {
                    self.fs.stats.ops_abandoned += 1;
                    return;
                }
                if self.faults.op(id).dropped {
                    self.fs.stats.notifies_dropped += 1;
                    return;
                }
                self.started_at[id] = self.now;
                let lat = self.exec.latency_of(kind) + rank.stall.as_secs_f64();
                self.timers.push(Reverse((Time(self.now + lat), id)));
            }
        }
    }

    /// Starts queued copies on the stale executors with free pipeline
    /// slots, in rank order: an idle executor takes the lowest ready op; a
    /// busy one may take a second op only when it continues the in-flight
    /// edge's chunk stream (the double buffer).
    fn start_ready(&mut self) {
        let ops = &self.schedule.ops;
        self.stale.sort_unstable();
        for i in 0..self.stale.len() {
            let r = self.stale[i];
            self.is_stale[r] = false;
            while self.busy[r].len() < PIPELINE_DEPTH {
                let candidate = if let Some(&head) = self.busy[r].first() {
                    let edge = copy_edge(&ops[head].kind);
                    self.ready[r]
                        .iter()
                        .copied()
                        .find(|&id| copy_edge(&ops[id].kind) == edge)
                } else {
                    self.ready[r].first().copied()
                };
                let Some(id) = candidate else { break };
                let rank = self.faults.rank(r);
                if self.fs.note_op_start(r, rank.crash_after) {
                    self.fs.stats.ops_abandoned += self.ready[r].len() as u64;
                    self.ready[r].clear();
                    break;
                }
                self.ready[r].remove(&id);
                self.busy[r].push(id);
                self.started_at[id] = self.now;
                let mut lat = self.exec.latency_of(&ops[id].kind) + rank.stall.as_secs_f64();
                if self.faults.op(id).corrupt.is_some_and(|(_, attempts)| attempts > 0) {
                    // The checksummed data path detects the damage before
                    // the combine, and the verified re-transmit re-pulls
                    // the chunk: one more transfer.
                    self.fs.stats.corrupt_detected += 1;
                    self.fs.stats.retransmits += 1;
                    lat += self.exec.latency_of(&ops[id].kind);
                }
                self.timers.push(Reverse((Time(self.now + lat), id)));
            }
        }
        self.stale.clear();
    }
}

impl<'a> SimExecutor<'a> {
    /// Creates an executor with the machine's default calibration.
    pub fn new(machine: &'a Machine, binding: &'a Binding, config: SimConfig) -> Self {
        Self::with_calibration(machine, binding, Calibration::for_machine(machine), config)
    }

    /// Creates an executor with an explicit calibration (ablations).
    pub fn with_calibration(
        machine: &'a Machine,
        binding: &'a Binding,
        cal: Calibration,
        config: SimConfig,
    ) -> Self {
        SimExecutor {
            machine,
            binding,
            cal,
            config,
            fault: None,
            deadline: None,
            transport: TransportModel::Knem,
        }
    }

    /// Charges one-sided operations the setup cost of `model` instead of
    /// the KNEM trap — the timing-side mirror of the executor's pluggable
    /// transport seam. The schedule is unchanged (plans stay
    /// distance-aware); only the per-mechanism cost moves.
    pub fn with_transport_model(mut self, model: TransportModel) -> Self {
        self.transport = model;
        self
    }

    // Called by pdac-e2e's frozen probes; delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub fn with_full_rates(self) -> Self {
        self
    }

    /// Attaches a seed-driven fault plan, resolved against the schedule of
    /// every subsequent [`Self::run`]: degraded resources, stalled and
    /// crashing ranks, dropped notifications and corrupted copies (each
    /// charged one re-transmit). Runs that cannot finish return a typed
    /// [`SimError`] instead of looping or panicking.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Bounds the simulated clock: a run whose next event would pass
    /// `seconds` returns [`SimError::DeadlineExceeded`].
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "deadline must be positive");
        self.deadline = Some(seconds);
        self
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Validates and simulates `schedule`, returning timing and traffic.
    ///
    /// With a [`FaultPlan`] attached the run may instead return a typed
    /// [`SimError`]: a crashed rank or dropped notification that leaves
    /// dependent operations unreachable surfaces as [`SimError::Stalled`],
    /// and a configured deadline that would be crossed surfaces as
    /// [`SimError::DeadlineExceeded`]. Fault-free runs are bit-identical to
    /// the pre-fault engine.
    pub fn run(&self, schedule: &Schedule) -> Result<SimReport, SimError> {
        let telemetry = pdac_telemetry::global();
        let _span = telemetry.recorder().span(
            0,
            "simnet",
            || format!("sim_run {} ({} ops)", schedule.name, schedule.ops.len()),
            || {
                vec![
                    ("ranks", schedule.num_ranks.into()),
                    ("ops", schedule.ops.len().into()),
                ]
            },
        );
        let lowered = schedule.lower(None)?;
        assert!(
            schedule.num_ranks <= self.binding.num_ranks(),
            "schedule addresses {} ranks but binding holds {}",
            schedule.num_ranks,
            self.binding.num_ranks()
        );

        let ops = &schedule.ops;
        let n = ops.len();
        let nranks = schedule.num_ranks;
        let mut dep_remaining: Vec<usize> = (0..n).map(|id| schedule.deps(id).len()).collect();
        let plan = self.fault.as_ref();
        let faults = plan.map(|p| p.resolve(schedule, &lowered)).unwrap_or_default();

        let mut run = Run {
            exec: self,
            schedule,
            now: 0.0,
            ready: vec![BTreeSet::new(); nranks],
            busy: vec![Vec::with_capacity(PIPELINE_DEPTH); nranks],
            stale: Vec::with_capacity(nranks),
            is_stale: vec![false; nranks],
            started_at: vec![0.0; n],
            timers: BinaryHeap::new(),
            fs: FaultState::new(plan, &faults, nranks),
            faults,
        };
        let seed = plan.map(|p| p.seed);
        let mut op_finish: Vec<f64> = vec![0.0; n];
        let mut rank_busy: Vec<f64> = vec![0.0; nranks];
        let mut done = 0usize;
        let mut flows = Flows::default();
        let mut solver_stats = SolverStats::default();
        // Earliest flow completion at the present rates.
        let mut t_flow = f64::INFINITY;
        // Reused by every event: the ops it completes, the route of the
        // copy whose latency phase it ends.
        let mut completed: Vec<OpId> = Vec::new();
        let mut route: Route = Vec::new();

        // Regions hot in their owner's cache hierarchy: written by a
        // completed *user-space* memcpy. KNEM copies run inside the kernel
        // over kernel mappings and do not leave the payload hot in the
        // destination process's caches, so kernel-forwarded data is read
        // back from DRAM — the reason store-and-forward trees buy nothing
        // on single-controller machines (paper §V-B).
        let mut hot_regions: HashSet<(usize, BufId, usize, usize)> = HashSet::new();

        for id in (0..n).filter(|&id| dep_remaining[id] == 0) {
            run.enqueue(id);
        }
        run.start_ready();

        while done < n {
            // Next event time: earliest timer or earliest flow completion.
            let t_next = match run.timers.peek() {
                Some(&Reverse((Time(t), _))) => t.min(t_flow),
                None if t_flow < f64::INFINITY => t_flow,
                None => {
                    // A fault-free validated schedule can never get here;
                    // dropped notifications and crashed ranks can orphan the
                    // remaining dependency graph.
                    return Err(SimError::Stalled {
                        seed,
                        completed: done,
                        total: n,
                        at: run.now,
                        fault_stats: Box::new(run.fs.stats),
                    });
                }
            };
            if let Some(deadline) = self.deadline {
                if t_next > deadline {
                    return Err(SimError::DeadlineExceeded {
                        seed,
                        deadline,
                        completed: done,
                        total: n,
                        fault_stats: Box::new(run.fs.stats),
                    });
                }
            }
            let dt = t_next - run.now;
            let now = t_next;
            run.now = now;
            completed.clear();

            // Latency-phase completions due now: notifications are done,
            // copies become flows (at rate 0 until this event's solve, so
            // the advance below leaves them alone).
            while let Some(&Reverse((Time(t), id))) = run.timers.peek() {
                if t > now + EPS {
                    break;
                }
                run.timers.pop();
                match ops[id].kind {
                    OpKind::Copy {
                        src_rank,
                        src_buf,
                        src_off,
                        dst_rank,
                        exec,
                        bytes,
                        ..
                    } => {
                        copy_route(
                            self.machine,
                            self.binding.core_of(src_rank),
                            self.binding.core_of(dst_rank),
                            self.binding.core_of(exec),
                            bytes,
                            self.config.allow_cache,
                            hot_regions.contains(&(src_rank, src_buf, src_off, bytes)),
                            &mut route,
                        );
                        // Degraded resources get their capacity scaled
                        // once, when the run first sees them.
                        flows.add(id, bytes, &route, |r| {
                            self.cal.capacity(r) * run.fs.degrade.get(&r).copied().unwrap_or(1.0)
                        });
                    }
                    OpKind::Notify { .. } => completed.push(id),
                }
            }

            // One pass over the flows: advance to `now`, retire the drained.
            t_flow = flows.advance(dt, now, &mut completed);
            let flows_changed = flows.take_changed();
            debug_assert!(
                dt > 0.0 || flows_changed || !completed.is_empty(),
                "an event that moves, starts and completes nothing repeats forever"
            );

            completed.sort_unstable();
            for &id in &completed {
                op_finish[id] = now;
                done += 1;
                if let OpKind::Copy {
                    dst_rank,
                    dst_buf,
                    dst_off,
                    exec,
                    bytes,
                    mech,
                    ..
                } = ops[id].kind
                {
                    debug_assert!(run.busy[exec].contains(&id));
                    run.busy[exec].retain(|&b| b != id);
                    run.mark_stale(exec);
                    rank_busy[exec] += now - run.started_at[id];
                    // User-space stores leave the written region hot in the
                    // writer's caches; kernel (KNEM) copies do not.
                    if mech == Mech::Memcpy {
                        hot_regions.insert((dst_rank, dst_buf, dst_off, bytes));
                    }
                }
                for &dep in lowered.dependents(id) {
                    dep_remaining[dep] -= 1;
                    if dep_remaining[dep] == 0 {
                        run.enqueue(dep);
                    }
                }
            }
            run.start_ready();

            // Rates depend only on the flow set: solve when it changed.
            if flows_changed && !flows.is_empty() {
                let t0 = Instant::now();
                let (next, rounds) = flows.solve(now);
                solver_stats.solve_ns += t0.elapsed().as_nanos() as u64;
                solver_stats.full += 1;
                solver_stats.fill_rounds += rounds;
                t_flow = next;
            } else {
                solver_stats.skipped += 1;
            }
        }
        solver_stats.fill_ns = solver_stats.solve_ns;

        // Fold the solver's own work into the process-wide registry. The
        // run's fault counts are a prediction, not something the runtime
        // did: they stay in the report's `fault_stats`, off the registry.
        let registry = telemetry.registry();
        registry.add("sim.runs", 1);
        registry.add("sim.ops", n as u64);
        registry.add("sim.solver.skipped", solver_stats.skipped);
        registry.add("sim.solver.full", solver_stats.full);
        registry.add("sim.solver.solve_ns", solver_stats.solve_ns);
        registry.add("sim.solver.fill_rounds", solver_stats.fill_rounds);

        Ok(SimReport {
            total_time: run.now,
            op_start: run.started_at,
            op_finish,
            resource_bytes: flows.resource_bytes(),
            rank_busy,
            solver_stats,
            fault_stats: run.fs.stats,
        })
    }

    fn latency_of(&self, kind: &OpKind) -> f64 {
        let distance = |a: usize, b: usize| {
            core_distance(
                self.machine,
                self.binding.core_of(a),
                self.binding.core_of(b),
            )
        };
        match *kind {
            OpKind::Copy {
                src_rank,
                dst_rank,
                mech,
                ..
            } => {
                let one_sided = mech == Mech::Knem;
                self.cal
                    .op_latency_for(self.transport, distance(src_rank, dst_rank), one_sided)
            }
            OpKind::Notify { from, to } => {
                self.cal.notify_latency + self.cal.wire_latency(distance(from, to))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{BufId, Mech, ScheduleBuilder};
    use pdac_hwtopo::machines;
    use std::time::Duration;

    /// A dependency-free copy of `bytes` at `off` of `src`'s send buffer to
    /// `off` of `dst`'s receive buffer, executed by `dst`.
    fn pull(
        b: &mut ScheduleBuilder,
        src: usize,
        dst: usize,
        off: usize,
        bytes: usize,
        mech: Mech,
    ) -> OpId {
        let at = |rank, buf| (rank, buf, off);
        b.copy(
            at(src, BufId::Send),
            at(dst, BufId::Recv),
            bytes,
            mech,
            dst,
            &[],
        )
    }

    fn run_on_ig(build: impl FnOnce(&mut ScheduleBuilder)) -> SimReport {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("test", 48);
        build(&mut b);
        let s = b.finish();
        SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap()
    }

    #[test]
    fn single_local_copy_rate_is_core_bound() {
        // One 1MB copy core0 -> core0's NUMA: rate = min(core_bw, mc_bw/2).
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            pull(b, 0, 0, 0, 1 << 20, Mech::Memcpy);
        });
        let expect_rate = cal.core_bw.min(cal.mc_bw / 2.0);
        let expect = cal.op_latency(0, false) + (1 << 20) as f64 / expect_rate;
        assert!(
            (rep.total_time - expect).abs() / expect < 1e-9,
            "{} vs {}",
            rep.total_time,
            expect
        );
    }

    #[test]
    fn knem_setup_added_once() {
        let cal = Calibration::ig();
        let rep_knem = run_on_ig(|b| {
            pull(b, 0, 12, 0, 4096, Mech::Knem);
        });
        let rep_memcpy = run_on_ig(|b| {
            pull(b, 0, 12, 0, 4096, Mech::Memcpy);
        });
        let diff = rep_knem.total_time - rep_memcpy.total_time;
        assert!((diff - cal.knem_setup).abs() < 1e-12);
    }

    #[test]
    fn rdma_model_swaps_the_setup_cost_only() {
        // Same schedule, same machine: the RDMA model charges `rdma_setup`
        // instead of `knem_setup` per one-sided op and is otherwise
        // identical — bandwidth, contention and wire latency are untouched.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("test", 48);
        pull(&mut b, 0, 12, 0, 65536, Mech::Knem);
        let s = b.finish();
        let knem = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let rdma = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_transport_model(TransportModel::Rdma)
            .run(&s)
            .unwrap();
        let diff = knem.total_time - rdma.total_time;
        assert!(
            (diff - (cal.knem_setup - cal.rdma_setup)).abs() < 1e-12,
            "diff {diff} vs setup delta {}",
            cal.knem_setup - cal.rdma_setup
        );
        // Memcpy ops pay no setup under either model.
        let mut b = ScheduleBuilder::new("test", 48);
        pull(&mut b, 0, 12, 0, 65536, Mech::Memcpy);
        let s = b.finish();
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let plain_rdma = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_transport_model(TransportModel::Rdma)
            .run(&s)
            .unwrap();
        assert_eq!(plain.total_time.to_bits(), plain_rdma.total_time.to_bits());
    }

    #[test]
    fn contention_halves_rates_on_shared_controller() {
        // Two NUMA-local 1MB copies on NUMA 0 by different cores: the
        // controller (mult 2 each, load 4) is the bottleneck.
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
            pull(b, 2, 3, 0, 1 << 20, Mech::Memcpy);
        });
        // off-cache defaults to allow_cache=true; 1MB fits the shared L3, so
        // these actually route through the cache domain and share it.
        let expect_rate = cal.core_bw.min(cal.cache_bw / 2.0);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn off_cache_forces_memory_contention() {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("t", 48);
        pull(&mut b, 0, 1, 0, 1 << 20, Mech::Memcpy);
        pull(&mut b, 2, 3, 0, 1 << 20, Mech::Memcpy);
        let s = b.finish();
        let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&s)
            .unwrap();
        // Both copies NUMA-local with mult 2 -> controller share = mc/4.
        let expect_rate = cal.core_bw.min(cal.mc_bw / 4.0);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn serial_executor_serializes_distinct_edge_copies() {
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            // Same executor (rank 1), different source ranks: unrelated
            // edges must run one after the other even though they are
            // independent — the double buffer only pipelines one edge's
            // chunk stream.
            pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
            b.copy(
                (2, BufId::Send, 0),
                (1, BufId::Recv, 1 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                &[],
            );
        });
        let one = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        assert!(
            (rep.total_time - 2.0 * one).abs() / one < 1e-6,
            "{}",
            rep.total_time
        );
    }

    #[test]
    fn double_buffer_overlaps_same_edge_chunks() {
        let cal = Calibration::ig();
        // Two chunks of the same (0 -> 1) edge: the second is staged into
        // the double buffer and its transfer overlaps the first.
        let rep = run_on_ig(|b| {
            pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
            pull(b, 0, 1, 1 << 20, 1 << 20, Mech::Memcpy);
        });
        assert_eq!(
            rep.op_start[0], rep.op_start[1],
            "both chunks start together"
        );
        // Bandwidth is conserved — the two in-flight chunks share the
        // bottleneck — so overlap saves exactly one op-latency phase.
        let one = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        let expect = one + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        assert!(
            (rep.total_time - expect).abs() / expect < 1e-6,
            "piped {} vs expected {expect}",
            rep.total_time
        );
        // A third op on a different edge still waits for a free executor.
        let rep3 = run_on_ig(|b| {
            pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
            pull(b, 0, 1, 1 << 20, 1 << 20, Mech::Memcpy);
            b.copy(
                (2, BufId::Send, 0),
                (1, BufId::Recv, 2 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                &[],
            );
        });
        assert!(
            rep3.op_start[2] > rep3.op_start[1],
            "third chunk is a different edge"
        );
    }

    #[test]
    fn deps_are_honored() {
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            let a = pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
            let n = b.notify(1, 2, &[a]);
            b.copy(
                (1, BufId::Recv, 0),
                (2, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                2,
                &[n],
            );
        });
        let copy = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        let notify = cal.notify_latency + cal.hop_latency;
        assert!((rep.total_time - (2.0 * copy + notify)).abs() / copy < 1e-6);
        assert!(rep.op_finish[0] < rep.op_finish[1]);
        assert!(rep.op_finish[1] < rep.op_finish[2]);
    }

    fn ig_exec() -> (pdac_hwtopo::Machine, Binding) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        (ig, binding)
    }

    fn chain_schedule() -> Schedule {
        let mut b = ScheduleBuilder::new("fault-chain", 48);
        let a = pull(&mut b, 0, 1, 0, 1 << 16, Mech::Memcpy);
        let n = b.notify(1, 2, &[a]);
        b.copy(
            (1, BufId::Recv, 0),
            (2, BufId::Recv, 0),
            1 << 16,
            Mech::Memcpy,
            2,
            &[n],
        );
        b.finish()
    }

    #[test]
    fn fault_free_plan_matches_plain_run() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let faulted = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(7))
            .run(&s)
            .unwrap();
        assert_eq!(
            plain.total_time, faulted.total_time,
            "empty plan must be bit-exact"
        );
        assert_eq!(plain.op_finish, faulted.op_finish);
        assert_eq!(faulted.fault_stats, FaultStats::default());
    }

    #[test]
    fn stalled_rank_delays_completion() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let base = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let delay = 3e-4;
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(7).stall_rank(1, Duration::from_secs_f64(delay)))
            .run(&s)
            .unwrap();
        // Rank 1 executes the first copy and sends the notify: two stalls.
        let expect = base.total_time + 2.0 * delay;
        assert!(
            (rep.total_time - expect).abs() < 1e-9,
            "{} vs {}",
            rep.total_time,
            expect
        );
        assert_eq!(rep.fault_stats.ranks_stalled, 1);
    }

    #[test]
    fn degraded_link_slows_flows() {
        let (ig, binding) = ig_exec();
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("t", 48);
        pull(&mut b, 0, 1, 0, 1 << 20, Mech::Memcpy);
        let s = b.finish();
        let plan = FaultPlan::new(3).degrade_link(Resource::Cache(0), 0.5);
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan)
            .run(&s)
            .unwrap();
        // 1MB fits the shared L3 and routes through the cache domain; at half
        // capacity the cache becomes the bottleneck below the core engine.
        let expect_rate = cal.core_bw.min(cal.cache_bw * 0.5);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
        assert_eq!(rep.fault_stats.links_degraded, 1);
    }

    #[test]
    fn corrupted_copy_charges_detection_and_one_retransmit() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let base = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        // Rank 2's first (and only) copy arrives corrupt; the checksummed
        // path detects it and re-pulls, so the run completes with exactly
        // one extra transfer latency on the critical path.
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(13).stale_read(2, 0))
            .run(&s)
            .unwrap();
        assert_eq!(rep.fault_stats.corrupt_detected, 1);
        assert_eq!(rep.fault_stats.retransmits, 1);
        assert!(
            rep.total_time > base.total_time,
            "the re-transmit must cost simulated time: {} vs {}",
            rep.total_time,
            base.total_time
        );
        // A corruption aimed at an op index the rank never reaches is inert.
        let inert = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(13).flip_bits(2, 9, 0xff))
            .run(&s)
            .unwrap();
        assert_eq!(inert.fault_stats.corrupt_detected, 0);
        assert_eq!(inert.total_time, base.total_time);
    }

    #[test]
    fn crashed_rank_stalls_with_typed_error() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(11).crash_rank(1, 0))
            .run(&s)
            .unwrap_err();
        match err {
            SimError::Stalled {
                seed,
                completed,
                total,
                fault_stats,
                ..
            } => {
                assert_eq!(seed, Some(11));
                assert!(completed < total);
                assert_eq!(fault_stats.ranks_crashed, 1);
                assert!(fault_stats.ops_abandoned >= 1);
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn dropped_notify_stalls_with_typed_error() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(5).drop_notify(0))
            .run(&s)
            .unwrap_err();
        match err {
            SimError::Stalled {
                seed, fault_stats, ..
            } => {
                assert_eq!(seed, Some(5));
                assert_eq!(fault_stats.notifies_dropped, 1);
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn deadline_exceeded_is_typed() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_deadline(1e-9)
            .run(&s)
            .unwrap_err();
        match err {
            SimError::DeadlineExceeded {
                seed,
                deadline,
                completed,
                total,
                ..
            } => {
                assert_eq!(seed, None);
                assert_eq!(deadline, 1e-9);
                assert!(completed < total);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn seeded_plan_is_reproducible_in_engine() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let run = |seed: u64| {
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .with_fault_plan(FaultPlan::seeded(seed, 48, &[0]))
                .with_deadline(10.0)
                .run(&s)
        };
        let a = run(42);
        let b = run(42);
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x.total_time.to_bits(), y.total_time.to_bits()),
            (Err(x), Err(y)) => assert_eq!(format!("{x}"), format!("{y}")),
            _ => panic!("same seed must give same outcome: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn board_link_traffic_accounted() {
        // off-cache: a cold cross-board pull loads both controllers and the
        // board link.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("t", 48);
        pull(&mut b, 0, 24, 0, 1 << 20, Mech::Knem);
        let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&b.finish())
            .unwrap();
        assert_eq!(rep.board_link_bytes(), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(0), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(4), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(1), 0.0);
    }

    #[test]
    fn memcpy_written_data_is_hot_knem_written_is_not() {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let run = |mech: Mech| {
            let mut b = ScheduleBuilder::new("t", 48);
            // Stage data into rank 0's Temp with the given mechanism, then
            // pull it cross-socket: a hot source is served by cache
            // intervention (no Mc(0) read); a cold one reads DRAM.
            let a = b.copy(
                (0, BufId::Send, 0),
                (0, BufId::Temp(0), 0),
                1 << 20,
                mech,
                0,
                &[],
            );
            b.copy(
                (0, BufId::Temp(0), 0),
                (12, BufId::Recv, 0),
                1 << 20,
                Mech::Knem,
                12,
                &[a],
            );
            SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
                .run(&b.finish())
                .unwrap()
        };
        let hot = run(Mech::Memcpy);
        let cold = run(Mech::Knem);
        // Stage copy costs Mc(0) 2x either way; the hot pull skips the
        // source read while the cold one adds it.
        assert_eq!(hot.mc_bytes(0), 2.0 * (1 << 20) as f64);
        assert_eq!(cold.mc_bytes(0), 3.0 * (1 << 20) as f64);
        assert!(hot.total_time < cold.total_time);
    }

    #[test]
    fn rank_busy_accumulates() {
        let rep = run_on_ig(|b| {
            pull(b, 0, 1, 0, 1 << 20, Mech::Memcpy);
        });
        assert!(rep.rank_busy[1] > 0.0);
        assert_eq!(rep.rank_busy[0], 0.0);
        assert!((rep.rank_busy[1] - rep.total_time).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_on_ig(|b| {
                for i in 0..8 {
                    pull(b, i, (i + 13) % 48, 0, 123_457, Mech::Knem);
                }
            })
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.op_finish, b.op_finish);
    }

    #[test]
    fn pipeline_beats_store_and_forward() {
        // Chain 0 -> 12 -> 24 of 4MB, pipelined in 4 chunks vs monolithic.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let total = 4 << 20;
        let mono = {
            let mut b = ScheduleBuilder::new("mono", 48);
            let a = pull(&mut b, 0, 12, 0, total, Mech::Knem);
            b.copy(
                (12, BufId::Recv, 0),
                (24, BufId::Recv, 0),
                total,
                Mech::Knem,
                24,
                &[a],
            );
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .run(&b.finish())
                .unwrap()
        };
        let piped = {
            let mut b = ScheduleBuilder::new("piped", 48);
            let chunk = total / 4;
            let mut prev: Vec<Option<usize>> = vec![None; 4];
            for c in 0..4 {
                let off = c * chunk;
                let a = pull(&mut b, 0, 12, off, chunk, Mech::Knem);
                let deps = match prev[c] {
                    Some(p) => vec![a, p],
                    None => vec![a],
                };
                let second = b.copy(
                    (12, BufId::Recv, off),
                    (24, BufId::Recv, off),
                    chunk,
                    Mech::Knem,
                    24,
                    &deps,
                );
                if c + 1 < 4 {
                    prev[c + 1] = Some(second);
                }
            }
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .run(&b.finish())
                .unwrap()
        };
        // The two hops share the middle socket's port, so pipelining cannot
        // reach the ideal 2x; it must still be a clear win.
        assert!(
            piped.total_time < mono.total_time * 0.92,
            "piped {} mono {}",
            piped.total_time,
            mono.total_time
        );
    }
}
