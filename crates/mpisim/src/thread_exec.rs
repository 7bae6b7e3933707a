//! Real-thread schedule execution — the correctness oracle.
//!
//! Ranks are cursors, not threads. Each rank that has ops gets one
//! resumable cursor over its op stream, and a run is worked by
//! `min(active ranks, available cores)` workers: the calling thread plus
//! helpers the executor keeps parked between runs. Any idle worker claims
//! any runnable cursor and runs its ops, in program order, while their
//! cross-rank dependencies are done — moving real bytes between real
//! buffers and driving the configured one-sided [`Transport`] (a fresh
//! [`TransportKind::Knem`] one by default) for every `Mech::Knem` copy. A
//! cursor whose dependency is pending is set aside; stalls and retry
//! backoffs are a time before which it may not run, so no worker ever
//! sleeps for a rank. Because [`pdac_simnet::Schedule::validate`]
//! guarantees unordered writes never overlap, the final buffer contents are
//! deterministic — any divergence between runs or against the expected
//! collective semantics is a bug in the topology construction, not a race.
//!
//! The buffers live in one slot arena, without locks, and
//! [`ThreadExecutor::run_lent`] runs over the caller's own memory, so the
//! executor reads inputs in place and writes results where the caller
//! reads them.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use pdac_hwtopo::{DistanceMatrix, DIST_MAX_EXTENDED};
use pdac_simnet::{
    BufId, CorruptionKind, DataOp, FaultPlan, FaultStats, Lowered, Mech, OpKind, Rank, RankFaults,
    ResolvedFaults, Schedule, ScheduleError,
};
use pdac_telemetry::{LogHistogram, Span};

use crate::bufpool::{BufferPool, BufferPoolStats};
use crate::detector::{DetectorCounters, FailureDetector};
use crate::fault::RetryPolicy;
use crate::integrity::{self, IntegrityStats};
use crate::knem::{KnemError, KnemStats};
use crate::transport::{Transport, TransportKind};
use crate::workers::Workers;

mod arena;
use arena::{Arena, Memory};

/// Deadline forced onto runs whose fault plan contains a lethal fault
/// (crash or dropped notification) when the caller left
/// [`RetryPolicy::op_deadline`] unset — a chaos run must never hang.
const FORCED_CHAOS_DEADLINE: Duration = Duration::from_secs(2);

/// Sweeps without a runnable cursor a worker spins through before it
/// yields (or sleeps until the earliest clock, when it may).
const IDLE_SPINS: u32 = 32;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The schedule failed validation.
    Schedule(ScheduleError),
    /// A lend passed to [`ThreadExecutor::run_lent`] is not the size the
    /// schedule declares for its buffer (0 for a buffer it never names).
    /// Nothing ran.
    Lend {
        /// Rank of the lent buffer.
        rank: Rank,
        /// The lent buffer.
        buf: BufId,
        /// Bytes lent.
        lent: usize,
        /// Bytes the schedule declares.
        declared: usize,
    },
    /// [`ThreadExecutor::run_lent`] was lent one buffer twice. Nothing ran.
    LentTwice {
        /// Rank of the lent buffer.
        rank: Rank,
        /// The lent buffer.
        buf: BufId,
    },
    /// A KNEM operation failed after exhausting the retry budget.
    Knem {
        /// Rank whose operation failed.
        rank: Rank,
        /// Schedule-wide id of the failing operation.
        op: usize,
        /// The device error of the final attempt.
        err: KnemError,
        /// Retries burned before giving up.
        retries: u32,
        /// The run's fault accounting, attached once every cursor has
        /// retired (see [`ExecError::fault_stats`]).
        fault_stats: Box<FaultStats>,
    },
    /// A dependency wait exceeded the per-operation deadline — the shape a
    /// crashed peer or dropped notification presents to the survivors.
    Timeout {
        /// Rank that timed out.
        rank: Rank,
        /// Schedule-wide id of the operation whose dependency never came.
        op: usize,
        /// How long the rank actually waited.
        waited: Duration,
        /// The configured deadline it exceeded.
        deadline: Duration,
        /// Fault seed of the run, when a plan was attached.
        seed: Option<u64>,
        /// The run's fault accounting, attached once every cursor has
        /// retired (see [`ExecError::fault_stats`]).
        fault_stats: Box<FaultStats>,
    },
    /// The run executes under an epoch the KNEM device has already fenced
    /// off — the recovery layer shrank the communicator under a newer epoch
    /// while this straggler was still in flight. Not retried: a fenced
    /// epoch never becomes valid again.
    StaleEpoch {
        /// Rank whose operation was fenced.
        rank: Rank,
        /// Schedule-wide id of the fenced operation.
        op: usize,
        /// Epoch the run was stamped with.
        epoch: u64,
        /// The device's minimum accepted epoch.
        fence: u64,
        /// Fault seed of the run, when a plan was attached.
        seed: Option<u64>,
        /// The run's fault accounting, attached once every cursor has
        /// retired (see [`ExecError::fault_stats`]).
        fault_stats: Box<FaultStats>,
    },
    /// Every attempt at one transfer — the original plus every verified
    /// re-transmit the [`RetryPolicy`] allowed — arrived with a checksum
    /// mismatch. The serving rank is persistently corrupting what it
    /// serves; the executor has already raised suspicion against it, and
    /// the recovery layer fences it like a crashed rank.
    Corrupt {
        /// Rank whose pull kept failing verification.
        rank: Rank,
        /// The serving (source) rank being blamed.
        peer: Rank,
        /// Schedule-wide id of the corrupted operation.
        op: usize,
        /// Re-transmits burned before giving up.
        attempts: u32,
        /// Fault seed of the run, when a plan was attached.
        seed: Option<u64>,
        /// The run's fault accounting, attached once every cursor has
        /// retired (see [`ExecError::fault_stats`]).
        fault_stats: Box<FaultStats>,
    },
}

impl ExecError {
    /// The fault accounting of the run that failed, built and published
    /// exactly as a completed run's [`ExecResult::fault_stats`] is (zero
    /// for a schedule rejected before it ran). Boxed in the variants, so
    /// the `Ok` path of a run does not grow.
    pub fn fault_stats(&self) -> FaultStats {
        match self {
            ExecError::Schedule(_) | ExecError::Lend { .. } | ExecError::LentTwice { .. } => {
                FaultStats::default()
            }
            ExecError::Knem { fault_stats, .. }
            | ExecError::Timeout { fault_stats, .. }
            | ExecError::StaleEpoch { fault_stats, .. }
            | ExecError::Corrupt { fault_stats, .. } => **fault_stats,
        }
    }

    /// Attaches the run's accounting once every cursor has retired.
    fn with_fault_stats(mut self, stats: FaultStats) -> Self {
        match &mut self {
            ExecError::Schedule(_) | ExecError::Lend { .. } | ExecError::LentTwice { .. } => {}
            ExecError::Knem { fault_stats, .. }
            | ExecError::Timeout { fault_stats, .. }
            | ExecError::StaleEpoch { fault_stats, .. }
            | ExecError::Corrupt { fault_stats, .. } => **fault_stats = stats,
        }
        self
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            ExecError::Lend { rank, buf, lent, declared } => write!(
                f,
                "rank {rank}'s {buf:?} buffer: {lent} bytes lent, the schedule declares {declared}"
            ),
            ExecError::LentTwice { rank, buf } => {
                write!(f, "rank {rank}'s {buf:?} buffer is lent twice")
            }
            ExecError::Knem { rank, op, err, retries, .. } => {
                write!(f, "KNEM failure at rank {rank} op {op} after {retries} retries: {err}")
            }
            ExecError::Timeout { rank, op, waited, deadline, seed, .. } => {
                write!(
                    f,
                    "rank {rank} op {op} timed out after {waited:?} (deadline {deadline:?})"
                )?;
                if let Some(s) = seed {
                    write!(f, " (fault seed {s})")?;
                }
                Ok(())
            }
            ExecError::StaleEpoch { rank, op, epoch, fence, seed, .. } => {
                write!(
                    f,
                    "rank {rank} op {op} fenced: run epoch {epoch} is behind the fence at {fence}"
                )?;
                if let Some(s) = seed {
                    write!(f, " (fault seed {s})")?;
                }
                Ok(())
            }
            ExecError::Corrupt { rank, peer, op, attempts, seed, .. } => {
                write!(
                    f,
                    "rank {rank} op {op}: payload from rank {peer} failed checksum \
                     verification on all {} attempts",
                    attempts + 1
                )?;
                if let Some(s) = seed {
                    write!(f, " (fault seed {s})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ScheduleError> for ExecError {
    fn from(e: ScheduleError) -> Self {
        ExecError::Schedule(e)
    }
}

/// Final contents of the buffers the run owned, plus device statistics.
/// A lent buffer is the caller's and is not in the result.
#[derive(Debug)]
pub struct ExecResult {
    buffers: HashMap<(Rank, BufId), Vec<u8>>,
    /// One-sided transport usage of this run alone (the [`KnemStats`]
    /// schema is transport-neutral: registrations, copies, bytes, fence
    /// rejections). A transport shared across runs keeps its lifetime
    /// totals itself; this is the delta the run added to them.
    pub knem_stats: KnemStats,
    /// Fault-injection and recovery accounting (all zero on a fault-free,
    /// default-policy run).
    pub fault_stats: FaultStats,
    /// Payload-integrity accounting: every copy is stamped and verified,
    /// so on any run `stamped == verified + corrupt_detected`.
    pub integrity_stats: IntegrityStats,
    /// How dependency waits resolved and what idle workers did meanwhile.
    pub wait_stats: WaitStats,
}

/// How the run's dependency waits resolved. A wait is one `done`-flag load:
/// a cursor whose dependency is pending is set aside, not spun on, so every
/// wait lands in exactly one of two buckets and `fast + slow` is the number
/// of dependency edges the run waited on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Waits satisfied on the first `done`-flag check.
    pub fast: u64,
    /// Waits whose first check found the dependency pending: the cursor
    /// was set aside and resumed by a later step — however the wait ended.
    pub slow: u64,
    // Read by pdac-e2e's frozen probes, always 0; delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub drained: u64,
    // Read by pdac-e2e's frozen probes, always 0 (no worker parks); delete in the next [benchmark] PR.
    #[doc(hidden)]
    pub parked: u64,
    /// `yield_now` calls of workers that found no runnable cursor.
    pub yields: u64,
}

impl ExecResult {
    /// Contents of `(rank, buf)` after execution (empty slice if the
    /// schedule does not declare it, or the caller lent it).
    pub fn buffer(&self, rank: Rank, buf: BufId) -> &[u8] {
        self.buffers.get(&(rank, buf)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Consumes the result, returning every buffer by ownership.
    pub fn into_buffers(self) -> HashMap<(Rank, BufId), Vec<u8>> {
        self.buffers
    }
}

/// Executes schedules by stepping one cursor per participating rank.
///
/// A run is worked by `min(active ranks, available_parallelism())` workers:
/// the calling thread and helpers that belong to the executor, not to a
/// run — the first [`Self::run`] that needs one creates it, it parks
/// between runs, and dropping the executor joins it. Keep one executor per
/// communicator and every collective after the first pays a wake-up, not a
/// thread creation. Concurrent `run` calls on one executor take turns.
#[derive(Debug)]
pub struct ThreadExecutor {
    /// What the `with_*` builders set; every worker of a run shares it.
    config: Arc<Config>,
    /// Latency-histogram handles, resolved once per executor so a run does
    /// no name lookup for them.
    histograms: Arc<OpHistograms>,
    /// The parked helpers; worker 0 is whichever thread calls `run`.
    workers: Workers<Job, Vec<u8>>,
    /// Most workers a run gets: the cores this process may use (a unit
    /// test sets 1).
    width: usize,
}

/// What one worker takes into a run: the run, the cursor its first sweep
/// starts at, and its staging buffer (handed back when it returns).
type Job = (Arc<RunState>, usize, Vec<u8>);

/// The builder-set half of an executor.
#[derive(Debug, Clone, Default)]
struct Config {
    /// Transport override (fault injection, shared-device accounting,
    /// backend selection); a fresh KNEM-backed transport is created per run
    /// when absent.
    transport: Option<Arc<dyn Transport>>,
    /// Retry/timeout policy; the default is the pre-fault behavior.
    policy: RetryPolicy,
    /// Fault plan resolved against, and injected into, every run.
    faults: Option<FaultPlan>,
    /// Process-distance matrix of the ranks, used to label per-operation
    /// latency metrics with the paper's distance classes. Without it every
    /// operation lands in class 0.
    distances: Option<Arc<DistanceMatrix>>,
    /// Failure detector shared with peers of a recovery episode; op
    /// completions become heartbeats, overlong dependency waits raise
    /// suspicion, and the join audit confirms crashes.
    detector: Option<Arc<FailureDetector>>,
    /// Communicator epoch the run executes under; stamped on every KNEM
    /// registration so a fenced device can reject stale stragglers.
    epoch: u64,
    /// Staging-buffer pool shared across runs; a fresh per-run pool is
    /// created when absent.
    pool: Option<Arc<BufferPool>>,
    /// Plan identity stamped as a `plan` arg on every per-op span, joining
    /// an executed trace back to the plan provenance it came from.
    plan_id: Option<String>,
}

/// How a cursor retired, fed to the failure detector's join audit: a
/// cursor that retired on its own (`unwound == false`) with `completed <
/// assigned` crashed — that is how a silent death looks from outside, no
/// fault-plan knowledge required.
struct RankExit {
    /// Operations this rank completed before retiring.
    completed: usize,
    /// Whether the exit was a quiet unwind after another rank poisoned the
    /// run (leftover work is then not evidence of a crash).
    unwound: bool,
}

/// One rank's place in its program: the resumable state a worker steps.
#[derive(Default)]
struct Cursor {
    rank: Rank,
    /// Position in the rank's op stream of the op to run next.
    next: usize,
    /// Dependencies of that op already seen done.
    dep: usize,
    /// Stall or retry backoff: nothing runs before this instant.
    not_before: Option<Instant>,
    /// When the pending dependency was first found not done.
    blocked_since: Option<Instant>,
    /// Whether that wait already raised Suspect against the dependency's
    /// owner.
    suspected: bool,
    /// The current op from its first attempt to its completion.
    attempt: Option<Attempt>,
    /// This rank's pause before every op, and the op budget before it
    /// crashes.
    stall: Duration,
    crash_after: Option<u64>,
    /// What this rank's steps counted, summed over cursors at collect.
    faults: FaultStats,
    fast: u64,
    slow: u64,
    /// How the cursor retired; `None` while it is live.
    exit: Option<Result<RankExit, ExecError>>,
}

/// An op in flight on a cursor; a retry backoff can span steps.
struct Attempt {
    retries: u32,
    started: Instant,
    /// The op's one trace event, recorded when the attempt is dropped.
    _span: Span<'static>,
}

/// What stepping a cursor did.
enum Step {
    /// Ran at least one op, or retired: the run moved.
    Moved,
    /// Nothing to do yet; with `Some`, not before that instant (a stall or
    /// backoff ending, or a wait's suspicion window or deadline).
    Idle(Option<Instant>),
}

/// Handles into the global registry's histograms, resolved once per
/// executor so neither a run nor an operation does a name lookup:
/// `hist[kind][class]` where `kind` is 0 = KNEM copy, 1 = memcpy copy,
/// 2 = notify, and `class` is the process-distance class `0..=8`.
#[derive(Debug)]
struct OpHistograms {
    hist: Vec<Vec<Arc<LogHistogram>>>,
}

const OP_KIND_NAMES: [&str; 3] = ["knem", "memcpy", "notify"];

impl OpHistograms {
    fn resolve(registry: &pdac_telemetry::Registry) -> Self {
        let hist = OP_KIND_NAMES
            .iter()
            .map(|kind| {
                (0..=DIST_MAX_EXTENDED as usize)
                    .map(|c| registry.histogram(&format!("exec.op_ns.{kind}.d{c}")))
                    .collect()
            })
            .collect();
        OpHistograms { hist }
    }

    fn record(&self, kind: &OpKind, class: u8, ns: u64) {
        let kind = match kind {
            OpKind::Copy { mech: Mech::Knem, .. } => 0,
            OpKind::Copy { .. } => 1,
            OpKind::Notify { .. } => 2,
        };
        self.hist[kind][class as usize].record(ns);
    }
}

/// Everything the workers of one run share and the caller takes back when
/// the last of them has returned.
struct RunState {
    config: Arc<Config>,
    /// The run's own copy of the schedule (helpers outlive the caller's
    /// borrow) and its lowering.
    schedule: Schedule,
    lowered: Lowered,
    transport: Arc<dyn Transport>,
    pool: Arc<BufferPool>,
    histograms: Arc<OpHistograms>,
    /// The run's buffers, in [`Schedule::bufs`] slot order.
    arena: Arena,
    /// One per rank that executes ops, in rank order.
    cursors: Vec<Mutex<Cursor>>,
    /// One flag per op: a completion is one `Release` store.
    done: Vec<AtomicBool>,
    /// Set by the first error or panic; every cursor unwinds on its next
    /// step.
    poisoned: AtomicBool,
    /// Cursors not yet retired; the workers return when none is left.
    live: AtomicUsize,
    yields: AtomicU64,
    /// The fault plan resolved against `schedule`.
    faults: ResolvedFaults,
    /// Per-dependency wait deadline of this run.
    deadline: Option<Duration>,
}

impl RunState {
    /// Fault seed of the run, when a plan is attached.
    fn seed(&self) -> Option<u64> {
        self.config.faults.as_ref().map(|p| p.seed)
    }
}

/// Counter snapshots taken before dispatch: shared devices, pools and
/// detectors outlive a run, which reports only its own delta.
struct Before {
    knem: KnemStats,
    pool: BufferPoolStats,
    detector: Option<DetectorCounters>,
}

/// The cores this process may run on, read once: the standard library
/// asks the scheduler's affinity mask and the cgroup quota every time.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        ThreadExecutor {
            config: Arc::default(),
            histograms: Arc::new(OpHistograms::resolve(pdac_telemetry::global().registry())),
            workers: Workers::new(work),
            width: available_cores(),
        }
    }
}

impl ThreadExecutor {
    /// Creates an executor.
    pub fn new() -> Self {
        ThreadExecutor::default()
    }

    /// Creates an executor driving an explicit transport backend — the seam
    /// that makes execution transport-pluggable while plans stay
    /// distance-aware: the schedule's `Mech::Knem` ("one-sided pull") is
    /// mapped onto whichever backend is attached here.
    pub fn with_transport(transport: Arc<dyn Transport>) -> Self {
        ThreadExecutor::new().configure(|c| c.transport = Some(transport))
    }

    /// Applies one builder setting. Builders consume the executor, so its
    /// helper threads (if a run already created them) carry over.
    fn configure(mut self, set: impl FnOnce(&mut Config)) -> Self {
        set(Arc::make_mut(&mut self.config));
        self
    }

    /// Sets the retry/timeout policy.
    pub fn with_policy(self, policy: RetryPolicy) -> Self {
        self.configure(|c| c.policy = policy)
    }

    /// Attaches a fault plan, resolved against the schedule of every run
    /// (stalls, crashes, dropped notifications, corrupted copies; link
    /// degrades are the simulator's alone). If the plan contains a lethal
    /// fault and no [`RetryPolicy::op_deadline`] is set, a finite default
    /// deadline is forced so the run cannot hang.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.configure(|c| c.faults = Some(plan))
    }

    /// Attaches the process-distance matrix of the ranks, so per-operation
    /// latency histograms are labelled with the paper's distance classes
    /// (`exec.op_ns.<mech>.d<class>`). Without it every operation lands in
    /// class 0.
    pub fn with_distances(self, distances: Arc<DistanceMatrix>) -> Self {
        self.configure(|c| c.distances = Some(distances))
    }

    /// Attaches a failure detector. Completions double as heartbeats, a
    /// dependency wait that outlasts the detector's suspicion window raises
    /// `Suspect` against the dependency's owner (refuted if the dependency
    /// later lands), and the end-of-run join audit confirms ranks that
    /// exited with work still assigned.
    pub fn with_detector(self, detector: Arc<FailureDetector>) -> Self {
        self.configure(|c| c.detector = Some(detector))
    }

    /// Stamps the run with a communicator epoch: every KNEM registration
    /// carries it, so once the membership layer fences the device at a
    /// newer epoch, stragglers from this run are rejected with
    /// [`ExecError::StaleEpoch`] instead of delivering into the rebuilt
    /// topology.
    pub fn with_epoch(self, epoch: u64) -> Self {
        self.configure(|c| c.epoch = epoch)
    }

    /// Shares a staging-buffer pool across runs, so arenas warmed by one
    /// collective are reused by the next instead of reallocated. Without
    /// it every run gets a fresh pool.
    pub fn with_buffer_pool(self, pool: Arc<BufferPool>) -> Self {
        self.configure(|c| c.pool = Some(pool))
    }

    /// Stamps every per-op span of the run with a `plan` arg, so the
    /// schedule-conformance auditor can join the executed trace back to
    /// the plan provenance it came from.
    pub fn with_plan_id(self, plan_id: impl Into<String>) -> Self {
        self.configure(|c| c.plan_id = Some(plan_id.into()))
    }

    /// Validates and runs `schedule`. Send buffers are initialized by
    /// `init_send(rank, size)`, called once per send buffer on the calling
    /// thread; receive and temporary buffers start zeroed.
    ///
    /// The schedule is checked and lowered once ([`Schedule::lower`]), and
    /// the run keeps its own clone beside the lowering, with one cursor per
    /// executing rank; the calling thread checks one staging buffer
    /// per worker out of the run's pool, works the cursors with the
    /// helpers it wakes, and returns once every worker has handed its
    /// buffer back.
    pub fn run(
        &self,
        schedule: &Schedule,
        init_send: impl FnMut(Rank, usize) -> Vec<u8>,
    ) -> Result<ExecResult, ExecError> {
        self.run_over(schedule, init_send, Vec::new())
    }

    /// Runs `schedule` over the caller's memory, as [`Self::run`] does
    /// over buffers of its own. `read` lends buffers the run reads in
    /// place, `write` buffers it reads and writes in place, each keyed by
    /// `(rank, buffer)`; both start with the caller's bytes. A read lend
    /// of a buffer some copy writes is copied first, so the caller's bytes
    /// stay as they were. Buffers nobody lent start zeroed. Lent buffers
    /// are not in the result.
    ///
    /// Every lend must be exactly the size the schedule declares for its
    /// buffer, or the call fails with [`ExecError::Lend`] before anything
    /// runs; a buffer lent twice fails it with [`ExecError::LentTwice`].
    pub fn run_lent<'a>(
        &self,
        schedule: &Schedule,
        read: impl IntoIterator<Item = ((Rank, BufId), &'a [u8])>,
        write: impl IntoIterator<Item = ((Rank, BufId), &'a mut [u8])>,
    ) -> Result<ExecResult, ExecError> {
        let read = read.into_iter().map(|(key, bytes)| (key, Memory::Read(bytes)));
        let write = write.into_iter().map(|(key, bytes)| (key, Memory::Write(bytes)));
        self.run_over(schedule, |_, size| vec![0; size], read.chain(write).collect())
    }

    /// The one path behind [`Self::run`] and [`Self::run_lent`].
    fn run_over<'a>(
        &self,
        schedule: &Schedule,
        init_send: impl FnMut(Rank, usize) -> Vec<u8>,
        lends: Vec<((Rank, BufId), Memory<'a>)>,
    ) -> Result<ExecResult, ExecError> {
        let _run_span = pdac_telemetry::global().recorder().span(
            0,
            "exec",
            || format!("exec_run {} ({} ops)", schedule.name, schedule.ops.len()),
            || vec![("ranks", schedule.num_ranks.into()), ("ops", schedule.ops.len().into())],
        );
        let lowered = schedule.lower(self.config.distances.as_deref())?;
        let mut lent: Vec<Option<Memory<'a>>> = schedule.bufs().iter().map(|_| None).collect();
        for ((rank, buf), memory) in lends {
            let slot = schedule.slot_of(rank, buf);
            let declared = slot.map_or(0, |s| schedule.bufs()[s].1);
            if memory.len() != declared {
                return Err(ExecError::Lend { rank, buf, lent: memory.len(), declared });
            }
            if let Some(s) = slot {
                if lent[s].is_some() {
                    return Err(ExecError::LentTwice { rank, buf });
                }
                lent[s] = Some(match memory {
                    Memory::Read(bytes) if lowered.written(s) => Memory::Owned(bytes.to_vec()),
                    memory => memory,
                });
            }
        }
        let schedule = schedule.clone();
        // One run at a time from here to the published deltas: a
        // concurrent run on a shared transport, pool or detector must land
        // neither inside nor across this run's before/after snapshots.
        let mut crew = self.workers.lock();
        let state = self.run_state(schedule, lowered, init_send, lent);
        let before = Before {
            knem: state.transport.stats(),
            pool: state.pool.stats(),
            detector: self.config.detector.as_ref().map(|d| d.counters()),
        };
        let (cursors, width) = (state.cursors.len(), state.cursors.len().min(self.width));
        // Staging is checked out here, on the calling thread, so it comes
        // from (and goes back to) the main heap and a shared pool counts
        // its reuse.
        let staging: Vec<Vec<u8>> =
            (0..width).map(|w| state.pool.acquire(w, 0, state.lowered.max_copy())).collect();
        let state = Arc::new(state);
        let jobs = staging
            .into_iter()
            .enumerate()
            .map(|(w, buf)| (Arc::clone(&state), w * cursors / width, buf))
            .collect();
        for (w, buf) in crew.run(jobs).into_iter().enumerate() {
            state.pool.release(w, 0, buf);
        }
        // Owned buffers come back by ownership, not by copy; from here on
        // no worker holds the run state, so no lend is touched again.
        let state =
            Arc::into_inner(state).expect("every worker released the run state before returning");
        self.collect(state, before)
    }

    /// Builds what the workers of one run share: the slot arena (each
    /// declared buffer lent or allocated up front), one cursor per
    /// executing rank, the completion flags, and the fault plan's per-run
    /// derivations.
    fn run_state(
        &self,
        schedule: Schedule,
        lowered: Lowered,
        mut init_send: impl FnMut(Rank, usize) -> Vec<u8>,
        lent: Vec<Option<Memory<'_>>>,
    ) -> RunState {
        let config = &self.config;
        let memory = schedule.bufs().iter().zip(lent).map(|(&((rank, buf), size), lent)| {
            lent.unwrap_or_else(|| {
                let mut data = match buf {
                    BufId::Send => init_send(rank, size),
                    _ => vec![0; size],
                };
                data.resize(size, 0);
                Memory::Owned(data)
            })
        });
        // SAFETY: `run_over` keeps the lends borrowed until it has taken
        // the run state, arena included, back from every worker (arena
        // module doc, last point).
        let arena = unsafe { Arena::new(memory) };
        let faults =
            config.faults.as_ref().map(|p| p.resolve(&schedule, &lowered)).unwrap_or_default();
        // Ranks that execute nothing get no cursor (and no join audit).
        let cursors: Vec<Mutex<Cursor>> = (0..schedule.num_ranks)
            .filter(|&rank| !lowered.rank_ops(rank).is_empty())
            .map(|rank| Mutex::new(Cursor::new(rank, faults.rank(rank))))
            .collect();
        RunState {
            config: Arc::clone(config),
            transport: config.transport.clone().unwrap_or_else(|| TransportKind::Knem.create(None)),
            pool: config.pool.clone().unwrap_or_else(|| Arc::new(BufferPool::new(self.width))),
            histograms: Arc::clone(&self.histograms),
            arena,
            done: (0..schedule.ops.len()).map(|_| AtomicBool::new(false)).collect(),
            poisoned: AtomicBool::new(false),
            live: AtomicUsize::new(cursors.len()),
            yields: AtomicU64::new(0),
            cursors,
            schedule,
            lowered,
            faults,
            // Lethal faults (crashes, dropped notifications) only surface
            // as timeouts, so they demand a finite deadline even when the
            // caller set none — a chaos run must end in a typed error, not
            // a hang.
            deadline: config.policy.op_deadline.or_else(|| {
                config
                    .faults
                    .as_ref()
                    .and_then(|p| p.has_lethal_fault().then_some(FORCED_CHAOS_DEADLINE))
            }),
        }
    }

    /// Audits the cursor exits and folds the run's accounting into the
    /// registry and the result — or, when a cursor failed, into its error.
    fn collect(&self, state: RunState, before: Before) -> Result<ExecResult, ExecError> {
        let mut first_error = None;
        let mut fault_stats = FaultStats::default();
        let mut wait_stats =
            WaitStats { yields: state.yields.into_inner(), ..WaitStats::default() };
        for cursor in state.cursors {
            let cursor = cursor.into_inner().unwrap_or_else(PoisonError::into_inner);
            fault_stats.merge(&cursor.faults);
            wait_stats.fast += cursor.fast;
            wait_stats.slow += cursor.slow;
            match cursor.exit.expect("every cursor retired before its workers returned") {
                Ok(exit) => {
                    if let Some(det) = &self.config.detector {
                        // Join audit: a voluntary exit with work still
                        // assigned is the observable proof of a crash; a
                        // full completion record is a final heartbeat.
                        let assigned = state.lowered.rank_ops(cursor.rank).len();
                        det.observe_exit(cursor.rank, exit.completed, assigned, exit.unwound);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }

        let knem_stats = state.transport.stats().delta_since(&before.knem);
        if let (Some(det), Some(earlier)) = (&self.config.detector, before.detector) {
            // The detector outlives the run (a recovery episode shares one
            // across attempts); the run's stats report only its delta.
            let d = det.counters().delta_since(&earlier);
            fault_stats.suspects_raised = d.suspects_raised;
            fault_stats.suspects_refuted = d.suspects_refuted;
            fault_stats.ranks_confirmed_dead = d.ranks_confirmed_dead;
        }
        fault_stats.fenced_messages = knem_stats.fenced;
        let pool_stats = state.pool.stats().delta_since(&before.pool);
        fold_into_registry(
            pdac_telemetry::global().registry(),
            state.schedule.ops.len(),
            &knem_stats,
            &fault_stats,
            &pool_stats,
            &wait_stats,
        );
        if let Some(e) = first_error {
            return Err(e.with_fault_stats(fault_stats));
        }

        let keys = state.schedule.bufs();
        Ok(ExecResult {
            buffers: state.arena.into_owned().map(|(slot, data)| (keys[slot].0, data)).collect(),
            knem_stats,
            fault_stats,
            integrity_stats: IntegrityStats {
                stamped: fault_stats.checksums_stamped,
                verified: fault_stats.checksums_verified,
                corrupt_detected: fault_stats.corrupt_detected,
                retransmits: fault_stats.retransmits,
            },
            wait_stats,
        })
    }
}

/// Folds one run's accounting into the process-wide registry — the one
/// place the executor names a run counter, one name per fact:
/// `knem.fenced` is the only name of a fenced message and `integrity.*` the
/// only names of the checksum counters. `handshakes` and `segments` are
/// read off [`KnemStats`] by the transport tests and have no name; the
/// recovery counters of [`FaultStats`] are the recovery manager's to
/// publish, and `links_degraded` is the simulator's.
fn fold_into_registry(
    registry: &pdac_telemetry::Registry,
    ops: usize,
    knem: &KnemStats,
    faults: &FaultStats,
    pool: &BufferPoolStats,
    wait: &WaitStats,
) {
    for (name, n) in [
        ("exec.runs", 1),
        ("exec.ops", ops as u64),
        ("exec.wait.fast", wait.fast),
        ("exec.wait.slow", wait.slow),
        ("exec.wait.yields", wait.yields),
        ("exec.pool.acquires", pool.acquires),
        ("exec.pool.reuses", pool.reuses),
        ("exec.pool.bytes_allocated", pool.bytes_allocated),
        ("knem.registrations", knem.registrations),
        ("knem.deregistrations", knem.deregistrations),
        ("knem.copies", knem.copies),
        ("knem.bytes_copied", knem.bytes_copied),
        ("knem.lock_acquires", knem.lock_acquires),
        ("knem.fenced", knem.fenced),
        ("integrity.stamped", faults.checksums_stamped),
        ("integrity.verified", faults.checksums_verified),
        ("integrity.corrupt_detected", faults.corrupt_detected),
        ("integrity.retransmits", faults.retransmits),
        ("faults.ranks_stalled", faults.ranks_stalled),
        ("faults.ranks_crashed", faults.ranks_crashed),
        ("faults.notifies_dropped", faults.notifies_dropped),
        ("faults.ops_abandoned", faults.ops_abandoned),
        ("faults.retries", faults.retries),
        ("faults.backoff_ns", faults.backoff_ns),
        ("faults.timeouts", faults.timeouts),
        ("faults.suspects_raised", faults.suspects_raised),
        ("faults.suspects_refuted", faults.suspects_refuted),
        ("faults.ranks_confirmed_dead", faults.ranks_confirmed_dead),
    ] {
        registry.add(name, n);
    }
}

/// One worker's share of a run: sweep the cursors round-robin from `first`,
/// claim each with a try-lock (which also carries happens-before when a
/// rank's cursor moves between workers) and step it, until every cursor
/// has retired. A panic while stepping poisons the run and retires that
/// cursor before it leaves the worker; the pool re-raises it on the caller
/// once every worker has returned.
fn work((run, first, mut staging): Job) -> Vec<u8> {
    let n = run.cursors.len();
    let (mut at, mut idle, mut yields) = (first, 0, 0);
    while run.live.load(Ordering::Acquire) > 0 {
        let (mut moved, mut busy, mut wake) = (false, false, None);
        for _ in 0..n {
            let slot = &run.cursors[at];
            at = (at + 1) % n;
            let mut cursor = match slot.try_lock() {
                Ok(cursor) => cursor,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    busy = true;
                    continue;
                }
            };
            if cursor.exit.is_some() {
                continue;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| cursor.step(&run, &mut staging))) {
                Ok(Step::Moved) => moved = true,
                Ok(Step::Idle(until)) => wake = wake.into_iter().chain(until).min(),
                Err(payload) => {
                    let completed = cursor.next;
                    cursor.retire(&run, Ok(RankExit { completed, unwound: true }));
                    run.poisoned.store(true, Ordering::Release);
                    drop(cursor);
                    panic::resume_unwind(payload);
                }
            }
        }
        if moved {
            idle = 0;
            continue;
        }
        idle += 1;
        match wake {
            _ if idle <= IDLE_SPINS => std::hint::spin_loop(),
            // Every cursor was in hand and none can move before `t`: only
            // the clock can change that, so nothing is lost by sleeping.
            Some(t) if !busy => std::thread::sleep(t.saturating_duration_since(Instant::now())),
            _ => {
                yields += 1;
                std::thread::yield_now();
            }
        }
    }
    run.yields.fetch_add(yields, Ordering::Relaxed);
    staging
}

impl Cursor {
    /// A cursor at the start of `rank`'s stream; a stalled rank holds off
    /// its first op for the stall, like every op.
    fn new(rank: Rank, RankFaults { stall, crash_after }: RankFaults) -> Self {
        let mut cursor = Cursor {
            rank,
            stall,
            crash_after,
            faults: FaultStats {
                ranks_stalled: u64::from(!stall.is_zero()),
                ..FaultStats::default()
            },
            ..Cursor::default()
        };
        cursor.hold_off(stall);
        cursor
    }

    fn hold_off(&mut self, pause: Duration) {
        if !pause.is_zero() {
            self.not_before = Some(Instant::now() + pause);
        }
    }

    /// Runs this rank's ops in program order, each behind its
    /// dependencies, until one cannot run yet or the cursor retires.
    fn step(&mut self, run: &RunState, staging: &mut [u8]) -> Step {
        let ops = run.lowered.rank_ops(self.rank);
        let mut moved = false;
        let idle = |moved, until| if moved { Step::Moved } else { Step::Idle(until) };
        loop {
            if run.poisoned.load(Ordering::Acquire) {
                // Another rank failed; unwind quietly.
                let completed = self.next;
                return self.retire(run, Ok(RankExit { completed, unwound: true }));
            }
            let Some(&id) = ops.get(self.next) else {
                return self.retire(run, Ok(RankExit { completed: ops.len(), unwound: false }));
            };
            if self.crash_after.is_some_and(|k| self.next as u64 >= k) {
                // Silent crash: the cursor retires without completing or
                // poisoning — survivors only learn of it when their waits
                // time out.
                self.faults.ranks_crashed += 1;
                self.faults.ops_abandoned += (ops.len() - self.next) as u64;
                let completed = self.next;
                return self.retire(run, Ok(RankExit { completed, unwound: false }));
            }
            if let Some(t) = self.not_before {
                if Instant::now() < t {
                    return idle(moved, Some(t));
                }
                self.not_before = None;
            }
            let deps = run.schedule.deps(id);
            while let Some(&dep) = deps.get(self.dep) {
                if !run.done[dep].load(Ordering::Acquire) {
                    return match self.pending(run, id, dep) {
                        Ok(until) => idle(moved, until),
                        Err(e) => self.retire(run, Err(e)),
                    };
                }
                self.landed(run, dep);
                self.dep += 1;
            }
            match self.run_op(run, id, staging) {
                Ok(true) => {}
                // Backing off: the top of the loop holds the cursor.
                Ok(false) => continue,
                Err(e) => return self.retire(run, Err(e)),
            }
            if run.faults.op(id).dropped {
                // The operation ran but its completion is never published —
                // a lost notification, so no heartbeat either: peers cannot
                // tell this apart from silence.
                self.faults.notifies_dropped += 1;
            } else {
                run.done[id].store(true, Ordering::Release);
                if let Some(det) = &run.config.detector {
                    // The published completion doubles as a heartbeat —
                    // liveness piggybacked on traffic.
                    det.heartbeat(self.rank);
                }
            }
            self.next += 1;
            self.dep = 0;
            moved = true;
            // A stalled rank stalls before *every* op: to its peers it
            // looks dead, then completes the op after all — Suspect raised,
            // then refuted, until a crash budget, if any, finally fires.
            self.hold_off(self.stall);
        }
    }

    /// Dependency `dep` of op `id` is pending: start this wait's clock, or
    /// read it. Past the detector's suspicion window the wait raises
    /// Suspect against the dependency's owner and goes on until the real
    /// deadline — a late completion refutes the suspicion. Returns when
    /// the wait's clock next matters.
    fn pending(
        &mut self,
        run: &RunState,
        id: usize,
        dep: usize,
    ) -> Result<Option<Instant>, ExecError> {
        let since = *self.blocked_since.get_or_insert_with(Instant::now);
        let deadline = run.deadline;
        let det = run
            .config
            .detector
            .as_deref()
            .filter(|d| !self.suspected && deadline.is_none_or(|dl| d.suspect_after() < dl));
        if det.is_none() && deadline.is_none() {
            return Ok(None);
        }
        let waited = since.elapsed();
        if let Some(det) = det.filter(|d| waited >= d.suspect_after()) {
            det.suspect(run.schedule.ops[dep].kind.executor(), self.rank);
            self.suspected = true;
        }
        if let Some(deadline) = deadline.filter(|&d| waited >= d) {
            self.faults.timeouts += 1;
            let (rank, seed) = (self.rank, run.seed());
            let fault_stats = Box::default();
            return Err(ExecError::Timeout { rank, op: id, waited, deadline, seed, fault_stats });
        }
        let suspicion = det.filter(|_| !self.suspected).map(|d| d.suspect_after());
        Ok(suspicion.into_iter().chain(deadline).min().map(|d| since + d))
    }

    /// Dependency `dep` is done: count its wait in exactly one bucket, and
    /// refute the suspicion the wait raised, if any.
    fn landed(&mut self, run: &RunState, dep: usize) {
        if self.blocked_since.take().is_some() {
            self.slow += 1;
        } else {
            self.fast += 1;
        }
        if std::mem::take(&mut self.suspected) {
            if let Some(det) = &run.config.detector {
                det.heartbeat(run.schedule.ops[dep].kind.executor());
            }
        }
    }

    /// Records how the cursor ended; an error poisons the run.
    fn retire(&mut self, run: &RunState, exit: Result<RankExit, ExecError>) -> Step {
        if exit.is_err() {
            run.poisoned.store(true, Ordering::Release);
        }
        self.attempt = None;
        self.exit = Some(exit);
        run.live.fetch_sub(1, Ordering::Release);
        Step::Moved
    }

    /// One attempt at op `id` under its span. A transient failure within
    /// the retry policy sets the cursor's backoff and returns `Ok(false)`;
    /// what is left over becomes a typed error.
    fn run_op(&mut self, run: &RunState, id: usize, staging: &mut [u8]) -> Result<bool, ExecError> {
        let (rank, kind) = (self.rank, &run.schedule.ops[id].kind);
        let (policy, seed) = (run.config.policy, run.seed());
        let attempt = self.attempt.get_or_insert_with(|| Attempt {
            retries: 0,
            started: Instant::now(),
            _span: op_span(run, rank, id),
        });
        // The damage armed for this attempt: a corruption poisons the first
        // `budget` attempts, so a transient budget of 1 heals on the retry.
        let (corrupt, tries) = (run.faults.op(id).corrupt, u64::from(attempt.retries));
        let damage = corrupt.filter(|&(_, budget)| tries < budget).map(|(kind, _)| kind);
        match run.execute_op(rank, id, damage, staging, &mut self.faults) {
            Ok(()) => {}
            // Never retried: a fenced epoch does not become valid again.
            Err(KnemError::StaleEpoch { epoch, fence }) => {
                let fault_stats = Box::default();
                return Err(ExecError::StaleEpoch {
                    rank,
                    op: id,
                    epoch,
                    fence,
                    seed,
                    fault_stats,
                });
            }
            // Never retried: a transport that resolves another range is
            // broken, not flaky, and the bytes it names were never checked
            // for races.
            Err(err @ KnemError::Misrouted { .. }) => {
                let (retries, fault_stats) = (attempt.retries, Box::default());
                return Err(ExecError::Knem { rank, op: id, err, retries, fault_stats });
            }
            Err(e) if attempt.retries < policy.max_retries => {
                attempt.retries += 1;
                let retries = attempt.retries;
                self.faults.retries += 1;
                if matches!(e, KnemError::ChecksumMismatch { .. }) {
                    // A verified re-transmit: the stamp caught damage
                    // before the combine, and this retry re-pulls the
                    // chunk.
                    self.faults.retransmits += 1;
                }
                // Jitter (seeded, per-rank) keeps ranks that failed
                // together from retrying in lockstep; without a plan seed
                // the plain exponential schedule applies.
                let backoff = match seed {
                    Some(s) => policy.backoff_jittered(s, rank, retries),
                    None => policy.backoff(retries),
                };
                self.faults.backoff_ns += backoff.as_nanos() as u64;
                pdac_telemetry::global().recorder().instant(
                    rank as u64,
                    "retry",
                    || format!("retry op {id} (attempt {retries})"),
                    || {
                        vec![
                            ("op", id.into()),
                            ("attempt", u64::from(retries).into()),
                            ("backoff_ns", (backoff.as_nanos() as u64).into()),
                        ]
                    },
                );
                self.not_before = Some(Instant::now() + backoff);
                return Ok(false);
            }
            Err(KnemError::ChecksumMismatch { .. }) => {
                // The original attempt and every allowed re-transmit
                // arrived corrupt: this is a persistent corrupter, not line
                // noise. Blame the serving rank and escalate — the detector
                // treats the suspicion like any other liveness evidence,
                // and the recovery layer fences the peer.
                let peer = match kind {
                    OpKind::Copy { src_rank, .. } => *src_rank,
                    _ => rank,
                };
                if let Some(det) = &run.config.detector {
                    det.suspect(peer, rank);
                }
                let attempts = attempt.retries;
                let fault_stats = Box::default();
                return Err(ExecError::Corrupt { rank, peer, op: id, attempts, seed, fault_stats });
            }
            Err(err) => {
                let retries = attempt.retries;
                let fault_stats = Box::default();
                return Err(ExecError::Knem { rank, op: id, err, retries, fault_stats });
            }
        }
        let done = self.attempt.take().expect("the attempt was started above");
        let ns = done.started.elapsed().as_nanos() as u64;
        run.histograms.record(kind, run.lowered.class(id), ns);
        Ok(true)
    }
}

/// The trace span of one op on `rank`, named and argued so `pdac-analyze`
/// can rebuild the op DAG from the trace alone.
fn op_span(run: &RunState, rank: Rank, id: usize) -> Span<'static> {
    let kind = &run.schedule.ops[id].kind;
    pdac_telemetry::global().recorder().span(
        rank as u64,
        if matches!(kind, OpKind::Notify { .. }) { "notify" } else { "copy" },
        || pdac_simnet::trace::op_label(kind),
        || {
            let dist = usize::from(run.lowered.class(id));
            let mut args = vec![("op", id.into()), ("dist", dist.into())];
            // Endpoints + dependency links: enough for pdac-analyze to
            // rebuild the op DAG from the trace alone, without the
            // schedule.
            match kind {
                OpKind::Copy { src_rank, dst_rank, bytes, mech, .. } => {
                    args.push(("src", (*src_rank).into()));
                    args.push(("dst", (*dst_rank).into()));
                    args.push(("bytes", (*bytes).into()));
                    args.push(("mech", mech.name().into()));
                }
                OpKind::Notify { from, to } => {
                    args.push(("src", (*from).into()));
                    args.push(("dst", (*to).into()));
                }
            }
            let deps = run.schedule.deps(id);
            if !deps.is_empty() {
                args.push(("deps", pdac_simnet::trace::deps_arg(deps).into()));
            }
            if let Some(plan) = &run.config.plan_id {
                args.push(("plan", plan.clone().into()));
            }
            args
        },
    )
}

/// Applies a [`DataOp`] to a destination range. Typed operators interpret
/// the bytes as little-endian lanes; validation guarantees alignment.
pub fn apply_data_op(op: DataOp, dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    match op {
        DataOp::Move => dst.copy_from_slice(src),
        DataOp::Add => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = d.wrapping_add(*s);
            }
        }
        DataOp::BorU8 => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= *s;
            }
        }
        DataOp::SumF64 => combine_f64(dst, src, |a, b| a + b),
        DataOp::MaxF64 => combine_f64(dst, src, f64::max),
        DataOp::MinF64 => combine_f64(dst, src, f64::min),
        DataOp::ProdF64 => combine_f64(dst, src, |a, b| a * b),
        DataOp::SumI64 => combine_lanes(dst, src, |a, b| {
            i64::from_le_bytes(a).wrapping_add(i64::from_le_bytes(b)).to_le_bytes()
        }),
        DataOp::MaxU64 => combine_lanes(dst, src, |a, b| {
            u64::from_le_bytes(a).max(u64::from_le_bytes(b)).to_le_bytes()
        }),
    }
}

/// `dst[lane] = f(dst[lane], src[lane])` over whole 8-byte lanes. Generic in
/// `f` so every operator gets a loop of its own with nothing to decide per
/// lane, which is what lets it vectorize.
fn combine_lanes(dst: &mut [u8], src: &[u8], f: impl Fn([u8; 8], [u8; 8]) -> [u8; 8]) {
    let (dst, _) = dst.as_chunks_mut::<8>();
    let (src, _) = src.as_chunks::<8>();
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f(*d, *s);
    }
}

fn combine_f64(dst: &mut [u8], src: &[u8], f: impl Fn(f64, f64) -> f64) {
    combine_lanes(dst, src, |a, b| f(f64::from_le_bytes(a), f64::from_le_bytes(b)).to_le_bytes());
}

impl RunState {
    /// Executes one operation as a two-stage copy through the worker's
    /// staging buffer; a notification carries no payload.
    ///
    /// A one-sided copy first runs the transport's register → tx →
    /// complete protocol (KNEM cookie pull, RDMA read WQEs). The op fails
    /// with [`KnemError::Misrouted`] unless the transport resolved exactly
    /// the source range the op names: that range is what the race check
    /// saw.
    ///
    /// Stage 1 copies the source range into staging, stamping it with a
    /// checksum in the same pass ([`integrity::copy_stamped`]); stage 2
    /// combines the staged bytes into the destination. The two stages
    /// never hold slices at once, so a copy whose source and destination
    /// overlap in one buffer moves like `memmove`. They bracket the
    /// integrity check: the fault plan's damage hits the staged bytes, and
    /// the staged copy is verified just before the combine, so a
    /// corruption returns [`KnemError::ChecksumMismatch`] without touching
    /// the destination and the retry loop re-pulls the chunk — whichever
    /// backend resolved the source.
    fn execute_op(
        &self,
        rank: Rank,
        id: usize,
        damage: Option<CorruptionKind>,
        staging: &mut [u8],
        faults: &mut FaultStats,
    ) -> Result<(), KnemError> {
        let &OpKind::Copy {
            src_rank,
            src_buf,
            src_off,
            dst_rank,
            dst_off,
            bytes,
            mech,
            op: data_op,
            ..
        } = &self.schedule.ops[id].kind
        else {
            return Ok(()); // Notifications carry no payload.
        };
        if mech == Mech::Knem {
            let (named, epoch) = ((src_rank, src_buf, src_off), self.config.epoch);
            let resolved =
                self.transport.pull(src_rank, src_buf, src_off, bytes, epoch, dst_rank)?;
            if resolved != named {
                return Err(KnemError::Misrouted { named, resolved });
            }
        }
        let [src, dst] = self.lowered.copy_slots(id);
        let (telemetry, class) = (pdac_telemetry::global(), self.lowered.class(id));
        let stage_span = |what: &str| {
            telemetry.recorder().span(
                rank as u64,
                "stage",
                || format!("stage.{what} {bytes}B"),
                || vec![("bytes", bytes.into()), ("dist", (class as u64).into())],
            )
        };
        let staging = &mut staging[..bytes];
        let expected = {
            let _read_span = stage_span("read");
            // Stamped in the pass that copies: the checksum describes
            // exactly what the owner held when the pull began.
            // SAFETY: the race check and the dependency flags order every
            // writer of this range; the transport resolved the named source
            // (arena module doc).
            unsafe { self.arena.read(src, src_off, bytes, |s| integrity::copy_stamped(staging, s)) }
        };
        faults.checksums_stamped += 1;
        if let Some(damage) = damage {
            // The staged copy *is* the modeled wire: damage applied here is
            // exactly what in-transit corruption looks like to the verifier.
            // The plan seed and the op key the damage pattern.
            let seed = self.seed().unwrap_or_default();
            integrity::corrupt_payload(damage, staging, seed, rank, id as u64);
        }
        self.verify(rank, bytes, expected, integrity::checksum(staging), faults)?;
        let _write_span = stage_span("write");
        // SAFETY: the race check and the dependency flags order every other
        // op touching this range (arena module doc).
        unsafe { self.arena.write(dst, dst_off, bytes, |d| apply_data_op(data_op, d, staging)) };
        Ok(())
    }

    /// Compares a chunk's checksum at completion, `got`, with its stamp,
    /// counting the verdict and tracing a mismatch.
    fn verify(
        &self,
        rank: Rank,
        bytes: usize,
        expected: u64,
        got: u64,
        faults: &mut FaultStats,
    ) -> Result<(), KnemError> {
        if got != expected {
            faults.corrupt_detected += 1;
            pdac_telemetry::global().recorder().instant(
                rank as u64,
                "corrupt",
                || format!("checksum mismatch ({bytes}B chunk)"),
                || {
                    vec![
                        ("bytes", bytes.into()),
                        ("expected", expected.into()),
                        ("got", got.into()),
                    ]
                },
            );
            return Err(KnemError::ChecksumMismatch { expected, got });
        }
        faults.checksums_verified += 1;
        Ok(())
    }
}

#[cfg(test)]
mod random_schedules;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::{emit_send, P2pConfig};
    use pdac_simnet::ScheduleBuilder;

    /// Distinctive per-rank fill pattern.
    fn pattern(rank: Rank, size: usize) -> Vec<u8> {
        (0..size).map(|i| (rank as u8).wrapping_mul(37).wrapping_add(i as u8)).collect()
    }

    /// The typed combines as they were before each operator got its own
    /// loop: one loop, the operator matched per lane. Kept as the reference
    /// [`apply_data_op`] must stay bit-identical to — signed zeros, infinities
    /// and a single NaN operand included; NaN with NaN is the one exception,
    /// explained where it is asserted.
    fn apply_typed_reference(op: DataOp, dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
            let (a, b): ([u8; 8], [u8; 8]) = (d.try_into().unwrap(), s.try_into().unwrap());
            let (x, y) = (f64::from_le_bytes(a), f64::from_le_bytes(b));
            let r = match op {
                DataOp::SumF64 => (x + y).to_le_bytes(),
                DataOp::MaxF64 => x.max(y).to_le_bytes(),
                DataOp::MinF64 => x.min(y).to_le_bytes(),
                DataOp::ProdF64 => (x * y).to_le_bytes(),
                DataOp::SumI64 => {
                    i64::from_le_bytes(a).wrapping_add(i64::from_le_bytes(b)).to_le_bytes()
                }
                DataOp::MaxU64 => u64::from_le_bytes(a).max(u64::from_le_bytes(b)).to_le_bytes(),
                DataOp::Move | DataOp::Add | DataOp::BorU8 => unreachable!("byte-wise operator"),
            };
            d.copy_from_slice(&r);
        }
    }

    #[test]
    fn typed_combines_are_bit_identical_to_the_per_lane_reference() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_dead_beef), // signalling NaN with a payload
            f64::from_bits(0xfff8_0000_0000_1234), // quiet NaN with a payload
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            1.5,
        ];
        let mut rng = StdRng::seed_from_u64(16);
        // Every ordered pair of special values, then random bit patterns
        // mixed with special ones; 8 * 1003 + 5 bytes leaves a vector-width
        // remainder and a partial lane that must stay untouched.
        let mut a: Vec<u8> = Vec::new();
        let mut b: Vec<u8> = Vec::new();
        for x in special {
            for y in special {
                a.extend_from_slice(&x.to_le_bytes());
                b.extend_from_slice(&y.to_le_bytes());
            }
        }
        while a.len() < 8 * 1003 {
            for side in [&mut a, &mut b] {
                let draw = rng.next_u64();
                let lane = match draw % 4 {
                    0 => special[(draw >> 8) as usize % special.len()].to_bits(),
                    _ => draw,
                };
                side.extend_from_slice(&lane.to_le_bytes());
            }
        }
        a.extend_from_slice(&[1, 2, 3, 4, 5]);
        b.extend_from_slice(&[9, 9, 9, 9, 9]);
        for op in [
            DataOp::SumF64,
            DataOp::MaxF64,
            DataOp::MinF64,
            DataOp::ProdF64,
            DataOp::SumI64,
            DataOp::MaxU64,
        ] {
            let (mut got, mut want) = (a.clone(), a.clone());
            apply_data_op(op, &mut got, &b);
            apply_typed_reference(op, &mut want, &b);
            let is_f64 = !matches!(op, DataOp::SumI64 | DataOp::MaxU64);
            for i in 0..1003 {
                let lane = |v: &[u8]| u64::from_le_bytes(v[8 * i..8 * i + 8].try_into().unwrap());
                let (x, y, g, w) = (lane(&a), lane(&b), lane(&got), lane(&want));
                // NaN . NaN is the one case the language leaves open: the
                // result is a NaN, but whose sign and payload it carries
                // follows the operand order the compiler picked for the
                // instruction (x86 returns its first operand's), and that
                // differs between two compilations of the same `a + b`.
                if is_f64 && f64::from_bits(x).is_nan() && f64::from_bits(y).is_nan() {
                    assert!(f64::from_bits(g).is_nan(), "{op:?} lane {i}: {x:#018x} . {y:#018x}");
                } else {
                    assert_eq!(g, w, "{op:?} lane {i}: {x:#018x} . {y:#018x}");
                }
            }
            assert_eq!(&got[8 * 1003..], &[1, 2, 3, 4, 5], "{op:?} touched the partial lane");
        }
    }

    #[test]
    fn single_copy_moves_bytes() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Memcpy, 1, &[]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
    }

    #[test]
    fn each_op_lands_in_its_mechanisms_histogram_at_its_class() {
        // Three ranks at pairwise-distinct distances, so the class of a
        // sample names the op that recorded it.
        let distances = DistanceMatrix::from_raw(3, vec![0, 1, 5, 1, 0, 3, 5, 3, 0]);
        let mut b = ScheduleBuilder::new("t", 3);
        let knem = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        let memcpy = b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 64, Mech::Memcpy, 2, &[knem]);
        b.notify(2, 0, &[memcpy]);
        let registry = pdac_telemetry::Registry::new();
        let mut exec = ThreadExecutor::new().with_distances(Arc::new(distances));
        exec.histograms = Arc::new(OpHistograms::resolve(&registry));
        exec.run(&b.finish(), pattern).unwrap();

        let recorded: Vec<(String, u64)> = registry
            .snapshot()
            .histograms
            .into_iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| (name, h.count))
            .collect();
        let want =
            [("exec.op_ns.knem.d1", 1), ("exec.op_ns.memcpy.d3", 1), ("exec.op_ns.notify.d5", 1)];
        assert_eq!(recorded, want.map(|(name, n)| (name.to_string(), n)));
    }

    #[test]
    fn every_wait_lands_in_one_bucket_and_publishes() {
        let before = pdac_telemetry::global().registry().snapshot();
        // A 3-hop relay with a same-rank tail: cross-rank and same-rank
        // dependencies, and one op with two of them.
        let mut b = ScheduleBuilder::new("t", 4);
        let mut prev = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Memcpy, 1, &[]);
        for r in 2..4 {
            let n = b.notify(r - 1, r, &[prev]);
            prev = b.copy(
                (r - 1, BufId::Recv, 0),
                (r, BufId::Recv, 0),
                256,
                Mech::Knem,
                r,
                &[n, prev],
            );
        }
        b.copy((3, BufId::Recv, 0), (3, BufId::Temp(0), 0), 256, Mech::Memcpy, 3, &[prev]);
        let schedule = b.finish();
        let edges: u64 = (0..schedule.ops.len()).map(|id| schedule.deps(id).len() as u64).sum();
        assert_eq!(edges, 7);
        let mut own = [0; 2];
        for exec in [one_worker(), ThreadExecutor::new()] {
            let res = exec.run(&schedule, pattern).unwrap();
            // However each wait resolved — on the first check or on a
            // later step of its cursor — it is counted exactly once.
            let w = res.wait_stats;
            assert_eq!(w.fast + w.slow, edges, "{w:?}");
            assert_eq!((w.drained, w.parked), (0, 0), "{w:?}");
            own[0] += w.fast;
            own[1] += w.slow;
        }
        // Other tests run concurrently against the same global registry,
        // so the published delta is at least these runs' own counts.
        let after = pdac_telemetry::global().registry().snapshot();
        for (name, own) in [("exec.wait.fast", own[0]), ("exec.wait.slow", own[1])] {
            let delta = after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0);
            assert!(delta >= own, "{name}: published {delta} < observed {own}");
        }
    }

    /// The executor with one worker: the calling thread steps every cursor.
    fn one_worker() -> ThreadExecutor {
        ThreadExecutor { width: 1, ..ThreadExecutor::new() }
    }

    /// A KNEM transport that timestamps every pull with the pulling rank.
    #[derive(Debug)]
    struct Stopwatch {
        inner: Arc<dyn Transport>,
        pulls: Mutex<Vec<(Rank, Instant)>>,
    }

    impl Stopwatch {
        fn new() -> Arc<Self> {
            let inner = TransportKind::Knem.create(None);
            Arc::new(Stopwatch { inner, pulls: Mutex::new(Vec::new()) })
        }

        /// When `rank`'s pulls happened, in order.
        fn pulls_of(&self, rank: Rank) -> Vec<Instant> {
            self.pulls.lock().unwrap().iter().filter(|p| p.0 == rank).map(|p| p.1).collect()
        }
    }

    impl Transport for Stopwatch {
        fn name(&self) -> &'static str {
            "stopwatch"
        }
        fn register(
            &self,
            rank: Rank,
            buf: BufId,
            offset: usize,
            len: usize,
            epoch: u64,
        ) -> Result<crate::TxToken, crate::TransportError> {
            self.inner.register(rank, buf, offset, len, epoch)
        }
        fn tx(
            &self,
            token: crate::TxToken,
            peer: Rank,
            offset: usize,
            len: usize,
        ) -> Result<(Rank, BufId, usize), crate::TransportError> {
            self.pulls.lock().unwrap().push((peer, Instant::now()));
            self.inner.tx(token, peer, offset, len)
        }
        fn complete(&self, token: crate::TxToken) -> Result<(), crate::TransportError> {
            self.inner.complete(token)
        }
        fn fence_epochs_below(&self, min_valid_epoch: u64) {
            self.inner.fence_epochs_below(min_valid_epoch);
        }
        fn fenced_messages(&self) -> u64 {
            self.inner.fenced_messages()
        }
        fn stats(&self) -> KnemStats {
            self.inner.stats()
        }
    }

    /// Rank 1 pulls once from rank 0; rank 2 pulls `chain` times from
    /// rank 0, each pull behind the last — nothing rank 2 does waits on
    /// rank 1.
    fn independent_of_rank_1(chain: usize) -> Schedule {
        let mut b = ScheduleBuilder::new("t", 3);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Knem, 1, &[]);
        let mut prev = Vec::new();
        for i in 0..chain {
            let dst = (2, BufId::Recv, 256 * i);
            prev = vec![b.copy((0, BufId::Send, 0), dst, 256, Mech::Knem, 2, &prev)];
        }
        b.finish()
    }

    #[test]
    fn one_worker_runs_other_ranks_while_one_is_stalled() {
        let stall = Duration::from_millis(50);
        let clock = Stopwatch::new();
        let start = Instant::now();
        let exec = ThreadExecutor { width: 1, ..ThreadExecutor::with_transport(clock.clone()) };
        let res = exec
            .with_faults(FaultPlan::new(61).stall_rank(1, stall))
            .run(&independent_of_rank_1(4), pattern)
            .unwrap();
        assert_eq!(res.fault_stats.ranks_stalled, 1);
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
        let (stalled, free) = (clock.pulls_of(1), clock.pulls_of(2));
        assert_eq!((stalled.len(), free.len()), (1, 4));
        // The only worker did not sleep through rank 1's stall: rank 2's
        // chain was done long before the stall ended.
        let free_done = free[3].duration_since(start);
        assert!(free_done < stall / 2, "rank 2 finished after {free_done:?}");
        assert!(stalled[0].duration_since(start) >= stall, "the stall was served");
    }

    #[test]
    fn one_worker_charges_a_retry_backoff_without_blocking_other_ranks() {
        let backoff = Duration::from_millis(40);
        let clock = Stopwatch::new();
        let start = Instant::now();
        let exec = ThreadExecutor { width: 1, ..ThreadExecutor::with_transport(clock.clone()) };
        // Rank 1's first pull arrives corrupt: a verified re-transmit,
        // after a backoff of at least `backoff`.
        let policy = RetryPolicy { max_retries: 2, backoff_base: backoff, op_deadline: None };
        let res = exec
            .with_policy(policy)
            .with_faults(FaultPlan::new(67).flip_bits(1, 0, 0xff))
            .run(&independent_of_rank_1(4), pattern)
            .unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
        assert_eq!((res.fault_stats.retries, res.integrity_stats.retransmits), (1, 1));
        assert!(res.fault_stats.backoff_ns >= backoff.as_nanos() as u64, "{:?}", res.fault_stats);
        let (retried, free) = (clock.pulls_of(1), clock.pulls_of(2));
        assert_eq!((retried.len(), free.len()), (2, 4));
        assert!(retried[1].duration_since(retried[0]) >= backoff, "the backoff was served");
        let free_done = free[3].duration_since(start);
        assert!(free_done < backoff / 2, "rank 2 finished after {free_done:?}");
    }

    #[test]
    fn one_worker_suspects_then_refutes_a_flapping_rank() {
        // Rank 1 stalls before each of its two ops; rank 0 waits on the
        // second. The stalls outlast the suspicion window, not the deadline.
        let mut b = ScheduleBuilder::new("t", 2);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        let n = b.notify(1, 0, &[a]);
        b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &[n]);
        let det = Arc::new(FailureDetector::with_suspect_after(2, Duration::from_millis(5)));
        let res = one_worker()
            .with_policy(RetryPolicy {
                op_deadline: Some(Duration::from_millis(500)),
                ..RetryPolicy::chaos()
            })
            .with_faults(FaultPlan::new(71).stall_rank(1, Duration::from_millis(15)))
            .with_detector(Arc::clone(&det))
            .run(&b.finish(), pattern)
            .unwrap();
        assert_eq!(res.buffer(0, BufId::Recv), &pattern(0, 64)[..]);
        let c = det.counters();
        assert!(c.suspects_raised >= 1, "the stall crossed the suspicion window: {c:?}");
        assert_eq!(c.suspects_raised, c.suspects_refuted, "every suspicion was refuted");
        assert_eq!((det.state(1), c.ranks_confirmed_dead), (crate::RankState::Alive, 0));
    }

    #[test]
    fn one_worker_completes_ops_in_the_same_order_every_run() {
        // A 16-rank ring allgather: in step s, rank r pulls block r-1-s
        // from its left neighbour, behind the neighbour's pull of it.
        const N: usize = 16;
        const BLOCK: usize = 64;
        let mut b = ScheduleBuilder::new("ring", N);
        for r in 0..N {
            b.copy((r, BufId::Send, 0), (r, BufId::Recv, r * BLOCK), BLOCK, Mech::Memcpy, r, &[]);
        }
        let mut last: Vec<usize> = (0..N).collect();
        for s in 1..N {
            last = (0..N)
                .map(|r| {
                    let (left, off) = ((r + N - 1) % N, (r + N - s) % N * BLOCK);
                    let src = (left, BufId::Recv, off);
                    b.copy(src, (r, BufId::Recv, off), BLOCK, Mech::Knem, r, &[last[left]])
                })
                .collect();
        }
        let schedule = b.finish();
        let order = || {
            let clock = Stopwatch::new();
            let exec = ThreadExecutor { width: 1, ..ThreadExecutor::with_transport(clock.clone()) };
            let res = exec.run(&schedule, pattern).unwrap();
            let expect: Vec<u8> = (0..N).flat_map(|r| pattern(r, BLOCK)).collect();
            assert!((0..N).all(|r| res.buffer(r, BufId::Recv) == &expect[..]));
            let pulls = clock.pulls.lock().unwrap();
            pulls.iter().map(|p| p.0).collect::<Vec<Rank>>()
        };
        let first = order();
        assert_eq!(first.len(), N * (N - 1));
        for run in 1..20 {
            assert_eq!(order(), first, "run {run} picked another order");
        }
    }

    /// A KNEM transport that resolves every pull `shift` bytes past the
    /// range the copy names.
    #[derive(Debug)]
    struct Misroute {
        inner: Arc<dyn Transport>,
        shift: usize,
    }

    impl Transport for Misroute {
        fn name(&self) -> &'static str {
            "misroute"
        }
        fn register(
            &self,
            rank: Rank,
            buf: BufId,
            offset: usize,
            len: usize,
            epoch: u64,
        ) -> Result<crate::TxToken, crate::TransportError> {
            self.inner.register(rank, buf, offset, len, epoch)
        }
        fn tx(
            &self,
            token: crate::TxToken,
            peer: Rank,
            offset: usize,
            len: usize,
        ) -> Result<(Rank, BufId, usize), crate::TransportError> {
            let (rank, buf, off) = self.inner.tx(token, peer, offset, len)?;
            Ok((rank, buf, off + self.shift))
        }
        fn complete(&self, token: crate::TxToken) -> Result<(), crate::TransportError> {
            self.inner.complete(token)
        }
        fn fence_epochs_below(&self, min_valid_epoch: u64) {
            self.inner.fence_epochs_below(min_valid_epoch);
        }
        fn fenced_messages(&self) -> u64 {
            self.inner.fenced_messages()
        }
        fn stats(&self) -> KnemStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_pull_resolved_elsewhere_fails_its_op_without_copying() {
        // Rank 1 copies its own bytes, then pulls from rank 0 through a
        // transport that resolves 8 bytes past the named range (still
        // inside rank 0's buffer, so only the executor's check stops it).
        let mut b = ScheduleBuilder::new("t", 2);
        let first = b.copy((1, BufId::Send, 0), (1, BufId::Recv, 64), 64, Mech::Memcpy, 1, &[]);
        let pull = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[first]);
        b.copy((0, BufId::Send, 64), (0, BufId::Temp(0), 0), 8, Mech::Memcpy, 0, &[]);
        let schedule = b.finish();
        let shift = Misroute { inner: TransportKind::Knem.create(None), shift: 8 };
        let exec =
            ThreadExecutor::with_transport(Arc::new(shift)).with_policy(RetryPolicy::chaos());
        let (send, mut recv) = (pattern(0, 72), vec![0xaa; 128]);
        let err = exec
            .run_lent(
                &schedule,
                [((0, BufId::Send), &send[..])],
                [((1, BufId::Recv), &mut recv[..])],
            )
            .unwrap_err();
        match &err {
            ExecError::Knem {
                rank: 1,
                op,
                err: KnemError::Misrouted { named, resolved },
                retries: 0,
                ..
            } => {
                assert_eq!(*op, pull, "the error names the op");
                assert_eq!((*named, *resolved), ((0, BufId::Send, 0), (0, BufId::Send, 8)));
            }
            other => panic!("expected a misrouted pull, got {other}"),
        }
        assert!(err.to_string().contains(&format!("op {pull}")), "{err}");
        assert!(recv[..64].iter().all(|&b| b == 0xaa), "nothing was copied for the op");
    }

    #[test]
    fn copies_overlapping_themselves_have_memmove_semantics_owned_or_lent() {
        // Rank 0 fills its receive buffer, then copies within it forward
        // (destination above the source) and backward, each copy sharing
        // 48 of its 64 bytes with its own source.
        let mut b = ScheduleBuilder::new("t", 1);
        let fill = b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 128, Mech::Memcpy, 0, &[]);
        let fwd = b.copy((0, BufId::Recv, 8), (0, BufId::Recv, 24), 64, Mech::Memcpy, 0, &[fill]);
        b.copy((0, BufId::Recv, 40), (0, BufId::Recv, 24), 64, Mech::Knem, 0, &[fwd]);
        let schedule = b.finish();
        let mut want = pattern(0, 128);
        want.copy_within(8..72, 24);
        want.copy_within(40..104, 24);

        let exec = ThreadExecutor::new();
        let owned = exec.run(&schedule, pattern).unwrap();
        assert_eq!(owned.buffer(0, BufId::Recv), &want[..], "owned");
        let (send, mut recv) = (pattern(0, 128), vec![0; 128]);
        let lent = exec
            .run_lent(
                &schedule,
                [((0, BufId::Send), &send[..])],
                [((0, BufId::Recv), &mut recv[..])],
            )
            .unwrap();
        assert_eq!(recv, want, "lent");
        assert!(lent.buffer(0, BufId::Recv).is_empty(), "a lent buffer is the caller's");
        assert_eq!(lent.integrity_stats.verified, 3);
    }

    #[test]
    fn malformed_lends_are_refused_before_running() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        let schedule = b.finish();
        let (send, mut recv) = (pattern(0, 64), vec![7; 65]);
        let exec = ThreadExecutor::new();
        let err = exec
            .run_lent(
                &schedule,
                [((0, BufId::Send), &send[..])],
                [((1, BufId::Recv), &mut recv[..])],
            )
            .unwrap_err();
        let want = ExecError::Lend { rank: 1, buf: BufId::Recv, lent: 65, declared: 64 };
        assert_eq!(err, want);
        assert!(recv.iter().all(|&b| b == 7), "nothing ran");
        // A buffer the schedule never names is declared 0 bytes.
        let err = exec.run_lent(&schedule, [((1, BufId::Send), &send[..])], []).unwrap_err();
        assert_eq!(err, ExecError::Lend { rank: 1, buf: BufId::Send, lent: 64, declared: 0 });
        // A buffer lent twice, read-only and writable alike: the shadowed
        // lend would never be written.
        let (mut first, mut second) = (vec![7; 64], vec![7; 64]);
        let write = [((1, BufId::Recv), &mut first[..]), ((1, BufId::Recv), &mut second[..])];
        let err = exec.run_lent(&schedule, [], write).unwrap_err();
        assert_eq!(err, ExecError::LentTwice { rank: 1, buf: BufId::Recv });
        let read = [((0, BufId::Send), &send[..]), ((0, BufId::Send), &send[..])];
        let err = exec.run_lent(&schedule, read, []).unwrap_err();
        assert_eq!(err, ExecError::LentTwice { rank: 0, buf: BufId::Send });
        assert!(first.iter().chain(&second).all(|&b| b == 7), "nothing ran");
    }

    #[test]
    fn a_read_lend_of_a_written_buffer_is_copied_and_left_as_lent() {
        // Rank 0's send buffer is read by rank 1, then overwritten from
        // rank 1's send buffer.
        let mut b = ScheduleBuilder::new("t", 2);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        b.copy((1, BufId::Send, 0), (0, BufId::Send, 0), 64, Mech::Memcpy, 0, &[a]);
        let schedule = b.finish();
        let (mine, theirs) = (pattern(0, 64), pattern(1, 64));
        let read = [((0, BufId::Send), &mine[..]), ((1, BufId::Send), &theirs[..])];
        let res = ThreadExecutor::new().run_lent(&schedule, read, []).unwrap();
        assert_eq!(mine, pattern(0, 64), "the caller's bytes are untouched");
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 64)[..]);
        assert_eq!(res.buffer(0, BufId::Send), &pattern(1, 64)[..], "the copy was written");
        assert!(res.buffer(1, BufId::Send).is_empty(), "an unwritten read lend stays lent");
    }

    #[test]
    fn knem_copy_moves_bytes_and_counts() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 10), (1, BufId::Recv, 5), 100, Mech::Knem, 1, &[]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.buffer(1, BufId::Recv)[5..105], pattern(0, 110)[10..110]);
        assert_eq!(res.knem_stats.copies, 1);
        assert_eq!(res.knem_stats.bytes_copied, 100);
        assert_eq!(res.knem_stats.registrations, res.knem_stats.deregistrations);
    }

    #[test]
    fn eager_fragment_delivers_via_bounce() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        emit_send(
            &mut b,
            &P2pConfig::default(),
            &mut seq,
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            1024,
            &[],
        );
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 1024)[..]);
        assert_eq!(res.knem_stats.copies, 0, "eager path never enters the kernel");
        assert_eq!(res.buffer(0, BufId::Temp(0)), &pattern(0, 1024)[..]);
    }

    #[test]
    fn rendezvous_fragment_delivers_via_knem() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        emit_send(
            &mut b,
            &P2pConfig::default(),
            &mut seq,
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            100_000,
            &[],
        );
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 100_000)[..]);
        assert_eq!(res.knem_stats.copies, 1);
    }

    #[test]
    fn fan_out_and_deps() {
        // 0 -> 1 -> {2,3}: a two-level relay.
        let mut b = ScheduleBuilder::new("t", 4);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 512, Mech::Knem, 1, &[]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 512, Mech::Knem, 2, &[a]);
        b.copy((1, BufId::Recv, 0), (3, BufId::Recv, 0), 512, Mech::Knem, 3, &[a]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        for r in 1..4 {
            assert_eq!(res.buffer(r, BufId::Recv), &pattern(0, 512)[..], "rank {r}");
        }
    }

    #[test]
    fn many_ranks_many_ops_deterministic() {
        let build = || {
            let mut b = ScheduleBuilder::new("t", 16);
            // Ring shift: rank r sends its block to r+1.
            let mut arrivals = Vec::new();
            for r in 0..16 {
                let a = b.copy(
                    (r, BufId::Send, 0),
                    ((r + 1) % 16, BufId::Recv, 0),
                    4096,
                    Mech::Knem,
                    (r + 1) % 16,
                    &[],
                );
                arrivals.push(a);
            }
            // Second hop depends on first.
            for r in 0..16 {
                b.copy(
                    (r, BufId::Recv, 0),
                    (r, BufId::Recv, 4096),
                    4096,
                    Mech::Memcpy,
                    r,
                    &[arrivals[(r + 15) % 16]],
                );
            }
            b.finish()
        };
        let a = ThreadExecutor::new().run(&build(), pattern).unwrap();
        let b_ = ThreadExecutor::new().run(&build(), pattern).unwrap();
        for r in 0..16 {
            assert_eq!(a.buffer(r, BufId::Recv), b_.buffer(r, BufId::Recv));
            assert_eq!(&a.buffer(r, BufId::Recv)[..4096], &pattern((r + 15) % 16, 4096)[..]);
            assert_eq!(&a.buffer(r, BufId::Recv)[4096..], &pattern((r + 15) % 16, 4096)[..]);
        }
    }

    #[test]
    fn same_buffer_copies_in_both_directions() {
        // Intra-buffer copies exercise the allocation-free split paths:
        // real data lands via the high-to-low direction, then fans back
        // low-to-high.
        let mut b = ScheduleBuilder::new("t", 1);
        let a = b.copy((0, BufId::Send, 0), (0, BufId::Recv, 64), 64, Mech::Memcpy, 0, &[]);
        let c = b.copy((0, BufId::Recv, 64), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &[a]);
        b.copy((0, BufId::Recv, 0), (0, BufId::Recv, 128), 64, Mech::Memcpy, 0, &[c]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        for seg in [0, 64, 128] {
            assert_eq!(res.buffer(0, BufId::Recv)[seg..seg + 64], pattern(0, 64)[..], "at {seg}");
        }
    }

    #[test]
    fn buffers_can_be_taken_by_ownership() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Memcpy, 1, &[]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
        let owned = res.into_buffers();
        assert_eq!(owned[&(1, BufId::Recv)], pattern(0, 256));
        assert!(owned.contains_key(&(0, BufId::Send)));
    }

    #[test]
    fn invalid_schedule_rejected_before_spawning() {
        let mut b = ScheduleBuilder::new("t", 3);
        b.copy((0, BufId::Send, 0), (2, BufId::Recv, 0), 8, Mech::Memcpy, 2, &[]);
        b.copy((1, BufId::Send, 0), (2, BufId::Recv, 0), 8, Mech::Memcpy, 2, &[]);
        let err = ThreadExecutor::new().run(&b.finish(), pattern).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Schedule(ScheduleError::UnorderedOverlappingWrites { .. })
        ));
    }

    #[test]
    fn injected_knem_fault_propagates_without_hanging() {
        use crate::knem::DeviceFault;
        // A 3-level relay with a device that dies after 2 successful copies:
        // the failing rank poisons the run, every other cursor unwinds, and
        // the caller sees the KNEM error instead of a deadlock.
        let mut b = ScheduleBuilder::new("t", 8);
        let mut prev = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Knem, 1, &[]);
        for r in 2..8 {
            prev =
                b.copy((r - 1, BufId::Recv, 0), (r, BufId::Recv, 0), 256, Mech::Knem, r, &[prev]);
        }
        let device = TransportKind::Knem.create(Some(DeviceFault::permanent_after(2)));
        let err = ThreadExecutor::with_transport(std::sync::Arc::clone(&device))
            .run(&b.finish(), pattern)
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Knem { err: crate::knem::KnemError::BadCookie(_), retries: 0, .. }
        ));
        assert_eq!(device.stats().copies, 2, "exactly the budgeted copies succeeded");
    }

    #[test]
    fn injected_fault_budget_zero_fails_first_copy() {
        use crate::knem::DeviceFault;
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        let device = TransportKind::Knem.create(Some(DeviceFault::permanent_after(0)));
        let err = ThreadExecutor::with_transport(device).run(&b.finish(), pattern).unwrap_err();
        assert!(matches!(err, ExecError::Knem { .. }));
    }

    #[test]
    fn transient_knem_fault_heals_through_retries() {
        use crate::fault::RetryPolicy;
        use crate::knem::DeviceFault;
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Knem, 1, &[]);
        // First two attempts fail, then the device heals: with 3 retries
        // the copy succeeds and the payload arrives intact.
        let device = TransportKind::Knem.create(Some(DeviceFault::transient(0, 2)));
        let res = ThreadExecutor::with_transport(device)
            .with_policy(RetryPolicy::chaos())
            .run(&b.finish(), pattern)
            .unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
        assert_eq!(res.fault_stats.retries, 2);
        let s = res.knem_stats;
        assert_eq!((s.registrations, s.copies), (3, 1), "three attempts, one copy");
    }

    #[test]
    fn crashed_rank_surfaces_as_timeout_not_hang() {
        use crate::fault::RetryPolicy;
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 64, Mech::Memcpy, 2, &[a]);
        let policy = RetryPolicy {
            op_deadline: Some(std::time::Duration::from_millis(50)),
            ..RetryPolicy::chaos()
        };
        let err = ThreadExecutor::new()
            .with_policy(policy)
            .with_faults(FaultPlan::new(17).crash_rank(1, 0))
            .run(&b.finish(), pattern)
            .unwrap_err();
        match err {
            ExecError::Timeout { rank, seed, .. } => {
                assert_eq!(rank, 2, "the surviving dependent times out");
                assert_eq!(seed, Some(17), "seed is quoted for replay");
            }
            other => panic!("expected Timeout, got {other}"),
        }
    }

    #[test]
    fn crash_plan_without_deadline_gets_forced_deadline() {
        let mut b = ScheduleBuilder::new("t", 2);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        let n = b.notify(1, 0, &[a]);
        b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &[n]);
        // Default policy has no deadline; the lethal plan must still
        // terminate (forced deadline) instead of hanging forever.
        let err = ThreadExecutor::new()
            .with_faults(FaultPlan::new(23).crash_rank(1, 0))
            .run(&b.finish(), pattern)
            .unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }));
    }

    #[test]
    fn dropped_notify_times_out_dependents() {
        use crate::fault::RetryPolicy;
        let mut b = ScheduleBuilder::new("t", 2);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        let n = b.notify(1, 0, &[a]);
        b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &[n]);
        let policy = RetryPolicy {
            op_deadline: Some(std::time::Duration::from_millis(50)),
            ..RetryPolicy::chaos()
        };
        let err = ThreadExecutor::new()
            .with_policy(policy)
            .with_faults(FaultPlan::new(31).drop_notify(0))
            .run(&b.finish(), pattern)
            .unwrap_err();
        match &err {
            ExecError::Timeout { rank, .. } => assert_eq!(*rank, 0),
            other => panic!("expected Timeout, got {other}"),
        }
        // The error carries the run's own accounting.
        let stats = err.fault_stats();
        assert_eq!(stats.notifies_dropped, 1, "{stats:?}");
        assert!(stats.timeouts >= 1, "{stats:?}");
    }

    #[test]
    fn stalled_rank_still_completes_correctly() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Memcpy, 1, &[]);
        let res = ThreadExecutor::new()
            .with_faults(FaultPlan::new(5).stall_rank(1, std::time::Duration::from_millis(5)))
            .run(&b.finish(), pattern)
            .unwrap();
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 256)[..]);
        assert_eq!(res.fault_stats.ranks_stalled, 1);
    }

    #[test]
    fn detector_suspects_then_refutes_a_stalled_rank() {
        use crate::detector::{FailureDetector, RankState};
        use crate::fault::RetryPolicy;
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        let n = b.notify(1, 0, &[0]);
        b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &[n]);
        // Rank 1 stalls well past the 5 ms suspicion window but well under
        // the 500 ms deadline: rank 0 suspects it, then the completed
        // notify refutes the suspicion.
        let det =
            std::sync::Arc::new(FailureDetector::with_suspect_after(2, Duration::from_millis(5)));
        let res = ThreadExecutor::new()
            .with_policy(RetryPolicy {
                op_deadline: Some(Duration::from_millis(500)),
                ..RetryPolicy::chaos()
            })
            .with_faults(FaultPlan::new(41).stall_rank(1, Duration::from_millis(40)))
            .with_detector(std::sync::Arc::clone(&det))
            .run(&b.finish(), pattern)
            .unwrap();
        assert_eq!(det.state(1), RankState::Alive, "stall is not death");
        let c = det.counters();
        assert!(c.suspects_raised >= 1, "the stall crossed the suspicion window");
        assert_eq!(c.suspects_raised, c.suspects_refuted, "every suspicion was refuted");
        assert_eq!(c.ranks_confirmed_dead, 0);
        assert_eq!(res.fault_stats.suspects_raised, c.suspects_raised);
        assert_eq!(res.fault_stats.suspects_refuted, c.suspects_refuted);
        // A wait split at the suspicion window is still one wait.
        let w = res.wait_stats;
        assert_eq!(w.fast + w.slow, 2, "two dependency edges: {w:?}");
    }

    #[test]
    fn detector_confirms_a_crashed_rank_via_join_audit() {
        use crate::detector::{FailureDetector, RankState};
        use crate::fault::RetryPolicy;
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Memcpy, 1, &[]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 64, Mech::Memcpy, 2, &[a]);
        let det =
            std::sync::Arc::new(FailureDetector::with_suspect_after(3, Duration::from_millis(5)));
        let err = ThreadExecutor::new()
            .with_policy(RetryPolicy {
                op_deadline: Some(Duration::from_millis(50)),
                ..RetryPolicy::chaos()
            })
            .with_faults(FaultPlan::new(43).crash_rank(1, 0))
            .with_detector(std::sync::Arc::clone(&det))
            .run(&b.finish(), pattern)
            .unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }));
        // The wait on rank 1's op raised Suspect; the join audit (rank 1
        // exited voluntarily with its op unexecuted) confirmed the death.
        assert_eq!(det.state(1), RankState::Confirmed);
        assert_eq!(det.confirmed(), vec![1]);
        assert_eq!(det.state(0), RankState::Alive);
        assert_eq!(det.state(2), RankState::Alive);
        let c = det.counters();
        // The join audit may confirm the death before the waiter's
        // suspicion window even elapses (suspect on a Confirmed rank is a
        // no-op), so suspicion is possible but not guaranteed; the
        // confirmation is.
        assert!(c.suspects_raised <= 1);
        assert_eq!(c.ranks_confirmed_dead, 1);
    }

    #[test]
    fn flapping_rank_is_suspected_refuted_then_confirmed() {
        use crate::detector::{FailureDetector, RankState};
        use crate::fault::RetryPolicy;
        // A 3-op relay chain through rank 1: the flapper — a stall and a
        // crash on one rank — stalls before each op (Suspect → refute on
        // completion), completes 2, then dies on the third (Suspect →
        // Confirmed via join audit).
        let mut b = ScheduleBuilder::new("t", 2);
        let mut prev = Vec::new();
        for i in 0..3 {
            let a = b.copy(
                (0, BufId::Send, 64 * i),
                (1, BufId::Recv, 64 * i),
                64,
                Mech::Memcpy,
                1,
                &prev,
            );
            let n = b.notify(1, 0, &[a]);
            prev = vec![n];
        }
        b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 64, Mech::Memcpy, 0, &prev);
        let det =
            std::sync::Arc::new(FailureDetector::with_suspect_after(2, Duration::from_millis(5)));
        let err = ThreadExecutor::new()
            .with_policy(RetryPolicy {
                op_deadline: Some(Duration::from_millis(100)),
                ..RetryPolicy::chaos()
            })
            .with_faults(
                FaultPlan::new(47).stall_rank(1, Duration::from_millis(20)).crash_rank(1, 4),
            )
            .with_detector(std::sync::Arc::clone(&det))
            .run(&b.finish(), pattern)
            .unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }));
        assert_eq!(det.state(1), RankState::Confirmed, "the flapper finally died");
        let c = det.counters();
        assert!(
            c.suspects_refuted >= 1,
            "at least one flap was refuted before the crash (raised {}, refuted {})",
            c.suspects_raised,
            c.suspects_refuted
        );
        assert_eq!(c.ranks_confirmed_dead, 1);
    }

    #[test]
    fn stale_epoch_run_is_fenced_not_retried() {
        use crate::fault::RetryPolicy;
        let device = TransportKind::Knem.create(None);
        device.fence_epochs_below(7);
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        // A straggler still executing under epoch 3 after the membership
        // layer fenced everything below 7: typed rejection, zero retries
        // burned, the fenced message accounted.
        let err = ThreadExecutor::with_transport(std::sync::Arc::clone(&device))
            .with_policy(RetryPolicy::chaos())
            .with_epoch(3)
            .run(&b.finish(), pattern)
            .unwrap_err();
        match err {
            ExecError::StaleEpoch { epoch, fence, .. } => {
                assert_eq!(epoch, 3);
                assert_eq!(fence, 7);
            }
            other => panic!("expected StaleEpoch, got {other}"),
        }
        assert_eq!(device.fenced_messages(), 1);
        // A current-epoch run on the same device sails through.
        let mut b2 = ScheduleBuilder::new("t", 2);
        b2.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        let res = ThreadExecutor::with_transport(device)
            .with_epoch(7)
            .run(&b2.finish(), pattern)
            .unwrap();
        assert_eq!(res.fault_stats.fenced_messages, 0);
        assert_eq!(res.buffer(1, BufId::Recv), &pattern(0, 64)[..]);
    }

    #[test]
    fn shared_device_accumulates_across_runs() {
        let device = TransportKind::Knem.create(None);
        for _ in 0..3 {
            let mut b = ScheduleBuilder::new("t", 2);
            b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
            ThreadExecutor::with_transport(std::sync::Arc::clone(&device))
                .run(&b.finish(), pattern)
                .unwrap();
        }
        let s = device.stats();
        assert_eq!(s.copies, 3);
        assert_eq!(s.registrations, s.deregistrations, "every run deregistered its cookies");
    }

    #[test]
    fn knem_failure_poisons_cleanly() {
        // Corrupt a validated schedule after the fact: shrink the source
        // buffer so the KNEM pull overruns its region.
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 64, Mech::Knem, 2, &[a]);
        let s = b.finish();
        // Run through a device-level failure by injecting an op that
        // references a region with a bad range via direct device use.
        let dev = TransportKind::Knem.create(None);
        let cookie = dev.register(0, BufId::Send, 0, 32, 0).unwrap();
        assert!(dev.tx(cookie, 1, 0, 64).is_err());
        // The well-formed schedule itself executes fine.
        assert!(ThreadExecutor::new().run(&s, pattern).is_ok());
    }

    #[test]
    fn clean_runs_stamp_and_verify_every_chunk() {
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Knem, 1, &[]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 256, Mech::Memcpy, 2, &[a]);
        let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
        assert_eq!(res.integrity_stats.stamped, 2, "both copies are stamped");
        assert_eq!(res.integrity_stats.verified, 2, "both verify clean");
        assert_eq!(res.integrity_stats.corrupt_detected, 0);
        assert_eq!(res.integrity_stats.retransmits, 0);
        assert_eq!(res.fault_stats.checksums_stamped, 2, "mirrored into fault stats");
    }

    #[test]
    fn transient_corruption_heals_through_verified_retransmit() {
        for kind_name in ["flip", "torn", "stale"] {
            let mut b = ScheduleBuilder::new("t", 2);
            b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 512, Mech::Knem, 1, &[]);
            let plan = match kind_name {
                "flip" => FaultPlan::new(53).flip_bits(1, 0, 0xdead_beef),
                "torn" => FaultPlan::new(53).torn_write(1, 0),
                _ => FaultPlan::new(53).stale_read(1, 0),
            };
            let res = ThreadExecutor::new()
                .with_policy(RetryPolicy::chaos())
                .with_faults(plan)
                .run(&b.finish(), pattern)
                .unwrap();
            // The first attempt arrives corrupt, is detected, and the
            // re-transmit delivers the true payload — byte-exact.
            assert_eq!(
                res.buffer(1, BufId::Recv),
                &pattern(0, 512)[..],
                "{kind_name}: corruption must never reach the destination"
            );
            assert_eq!(res.integrity_stats.corrupt_detected, 1, "{kind_name}");
            assert_eq!(res.integrity_stats.retransmits, 1, "{kind_name}");
            assert_eq!(res.integrity_stats.stamped, 2, "{kind_name}: original + re-transmit");
            assert_eq!(res.integrity_stats.verified, 1, "{kind_name}: only the clean attempt");
            assert!(
                res.fault_stats.retries >= res.fault_stats.retransmits,
                "{kind_name}: retransmits are a subset of retries"
            );
        }
    }

    #[test]
    fn persistent_corrupter_escalates_to_typed_error_and_suspicion() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 256, Mech::Knem, 1, &[]);
        let det = std::sync::Arc::new(FailureDetector::new(2));
        let err = ThreadExecutor::new()
            .with_policy(RetryPolicy::chaos())
            .with_faults(FaultPlan::new(59).corrupt_source(0, 0x5a))
            .with_detector(std::sync::Arc::clone(&det))
            .run(&b.finish(), pattern)
            .unwrap_err();
        match err {
            ExecError::Corrupt { rank, peer, attempts, seed, .. } => {
                assert_eq!(rank, 1, "the pulling rank reports the failure");
                assert_eq!(peer, 0, "the serving rank is blamed");
                assert_eq!(attempts, RetryPolicy::chaos().max_retries);
                assert_eq!(seed, Some(59));
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(err.to_string().contains("fault seed 59"), "{err}");
        assert!(
            det.counters().suspects_raised >= 1,
            "the corrupter must be suspected before escalation"
        );
        // The error carries the run's own accounting: the original pull and
        // every re-transmit were detected, each retry re-transmitted.
        let (stats, retries) = (err.fault_stats(), u64::from(RetryPolicy::chaos().max_retries));
        assert!(stats.corrupt_detected > retries, "{stats:?}");
        assert!(stats.retransmits >= retries, "{stats:?}");
        assert_eq!(stats.suspects_raised, det.counters().suspects_raised, "{stats:?}");
    }

    #[test]
    fn seeded_corruption_runs_heal_and_stay_byte_exact() {
        // A denser schedule so seed-drawn (rank, op_index) targets usually
        // land on real copies; whether or not they do, the payload oracle
        // must hold and every detection must be healed by a re-transmit.
        for seed in 0..16u64 {
            let mut b = ScheduleBuilder::new("t", 4);
            let mut prev = None;
            for r in 0..3usize {
                prev = Some(b.copy(
                    (r, if r == 0 { BufId::Send } else { BufId::Recv }, 0),
                    (r + 1, BufId::Recv, 0),
                    128,
                    Mech::Knem,
                    r + 1,
                    prev.as_slice(),
                ));
            }
            let res = ThreadExecutor::new()
                .with_policy(RetryPolicy::chaos())
                .with_faults(FaultPlan::new(seed).with_seeded_corruption(4))
                .run(&b.finish(), pattern)
                .unwrap();
            assert_eq!(
                res.buffer(3, BufId::Recv),
                &pattern(0, 128)[..],
                "seed {seed}: chain must deliver rank 0's bytes"
            );
            assert_eq!(
                res.integrity_stats.corrupt_detected, res.integrity_stats.retransmits,
                "seed {seed}: every detection is healed by exactly one re-transmit"
            );
            assert_eq!(
                res.integrity_stats.stamped,
                res.integrity_stats.verified + res.integrity_stats.corrupt_detected,
                "seed {seed}: stamp/verify accounting must balance"
            );
        }
    }
}
