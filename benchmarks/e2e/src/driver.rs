//! One run: set-up, the closed measuring loop on the driver thread, and the
//! metrics made from it.

use std::time::{Duration, Instant};

use rand::seq::SliceRandom;

use crate::catalog::PER_LAYER;
use crate::model::model_pass;
use crate::mpi_wl::MpiWorkload;
use crate::plan_wl::PlanChurn;
use crate::probes::{self, process_cpu_seconds};
use crate::sim_wl::SimMatrix;
use crate::spans::{self, Layer};
use crate::stats::{iqr_share, median, quiet_mask, tail_percentile};
use crate::workload::{rng_for, Machines, Mode, Workload};

/// Set-ups per untraced run; `setup_s` is their median. A set-up that takes
/// milliseconds is repeated further, up to the budget, to steady its median.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Shortest slice: whole passes are run until this much time has passed.
const SLICE_MIN: Duration = Duration::from_millis(250);
/// A slice is quiet while the host reference ran at most this much slower
/// than the lower quartile of the run's slices (its own jitter is ~3 %).
const QUIET_TOLERANCE: f64 = 0.05;
/// Failure lines printed in full before the rest are only counted.
const FAILURES_SHOWN: usize = 20;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the contract asks for: end-to-end ones from an untraced
    /// run, per-layer ones from a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed beside the metrics, never gated.
    pub diagnostics: Vec<(&'static str, f64, &'static str)>,
    /// Host level (us) and rate (ops/s) of every slice of an untraced run:
    /// the run's own record of how disturbed it was.
    pub slices: Vec<(f64, f64)>,
    pub spans: Vec<spans::SpanRec>,
    /// Free-text remarks printed under the header line.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "mpi_small" => Box::new(MpiWorkload::build(seed, false)?),
        "mpi_large" => Box::new(MpiWorkload::build(seed, true)?),
        "sim_matrix" => Box::new(SimMatrix::build()),
        "plan_churn" => Box::new(PlanChurn::build(seed)?),
        other => return Err(format!("unknown workload {other:?} (see `list`)")),
    })
}

/// Counts operations and reports the ones that fail.
struct Tally<'a> {
    config: &'a RunConfig,
    attempted: u64,
    failed: u64,
}

impl Tally<'_> {
    fn record(
        &mut self,
        workload: &dyn Workload,
        pass: u64,
        idx: usize,
        check: Result<(), String>,
    ) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failed <= FAILURES_SHOWN as u64 {
                eprintln!(
                    "FAILED workload={} seed={} pass={pass} op={idx} ({}): {why}",
                    self.config.workload,
                    self.config.seed,
                    workload.op_label(idx)
                );
            }
        }
    }
}

/// A fixed piece of work on the driver thread, timed every 50 ms between
/// operations: how fast the host is right now. The kernel keeps several
/// independent multiply chains busy over a cache-resident buffer, so it
/// slows when a neighbour takes the core's execution ports or cycles — the
/// disturbance that moves every number this benchmark reports.
struct HostRef {
    buffer: Vec<u8>,
    last: Instant,
    samples_us: Vec<f64>,
}

impl HostRef {
    const PERIOD: Duration = Duration::from_millis(50);

    fn new() -> Self {
        HostRef {
            buffer: (0..256usize << 10).map(|i| i as u8).collect(),
            last: Instant::now(),
            samples_us: Vec::new(),
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        let mut lanes = [0u64; 8];
        for _ in 0..4 {
            for line in self.buffer.chunks_exact(64) {
                for (lane, word) in lanes.iter_mut().zip(line.chunks_exact(8)) {
                    let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                    *lane = (*lane ^ word).wrapping_mul(0x100_0000_01b3).rotate_left(7);
                }
            }
        }
        std::hint::black_box(lanes);
        self.samples_us
            .push(start.elapsed().as_nanos() as f64 / 1e3);
        self.last = Instant::now();
    }

    fn sample_if_due(&mut self) {
        if self.last.elapsed() >= Self::PERIOD {
            self.sample();
        }
    }

    /// Median of the samples since the last call, taking one now.
    fn take_level(&mut self) -> f64 {
        self.sample();
        median(&std::mem::take(&mut self.samples_us))
    }
}

/// One pass over the op list in the order the seed gives this pass.
/// Returns each op's index and on-clock nanoseconds, in execution order.
fn run_pass(
    workload: &mut dyn Workload,
    tally: &mut Tally,
    pass: u64,
    mode: Mode,
    mut host: Option<&mut HostRef>,
) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..workload.ops_per_pass()).collect();
    order.shuffle(&mut rng_for(tally.config.seed, 0x7061_7373 ^ pass));
    spans::set_enabled(mode != Mode::Plain);
    let busy = order
        .into_iter()
        .map(|idx| {
            let result = workload.run_op(idx, pass, mode);
            tally.record(workload, pass, idx, result.check);
            if let Some(host) = host.as_deref_mut() {
                host.sample_if_due();
            }
            (idx, result.busy_ns)
        })
        .collect();
    spans::set_enabled(false);
    busy
}

/// Builds the workload and runs its warm-up pass: everything a user pays
/// before the first measured operation.
fn set_up(config: &RunConfig, tally: &mut Tally) -> Result<Box<dyn Workload>, String> {
    let mut workload = build(&config.workload, config.seed)?;
    // Pass numbers below zero do not exist; the warm-up uses the last one.
    run_pass(workload.as_mut(), tally, u64::MAX, Mode::Plain, None);
    Ok(workload)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct PassRecord {
    mode: Mode,
    busy_ns: Vec<u64>,
    /// Range of the span buffer this pass recorded.
    spans: std::ops::Range<usize>,
}

impl PassRecord {
    fn busy_seconds(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e9
    }

    fn rate(&self) -> f64 {
        self.busy_ns.len() as f64 / self.busy_seconds().max(f64::MIN_POSITIVE)
    }
}

pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    if config.seconds.is_nan() || config.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

/// Whole passes run back to back for at least [`SLICE_MIN`], with the host
/// level measured beside them.
#[derive(Default)]
struct Slice {
    samples: Vec<(usize, u64)>,
    host_us: f64,
}

impl Slice {
    fn rate(&self) -> f64 {
        let busy: u64 = self.samples.iter().map(|s| s.1).sum();
        self.samples.len() as f64 / (busy as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Median over op kinds of each kind's median time, in microseconds. Every
/// kind runs once per pass, so this is the median op, but unlike the median
/// of the pooled samples it does not jump when half the mass sits exactly
/// between two kinds of different cost.
fn median_op_us<'a>(samples: impl Iterator<Item = &'a (usize, u64)>, kinds: usize) -> f64 {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for &(idx, ns) in samples {
        by_kind[idx].push(ns as f64 / 1e3);
    }
    let medians: Vec<f64> = by_kind
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    median(&medians)
}

fn run_untraced(config: &RunConfig) -> Result<RunReport, String> {
    let mut tally = Tally {
        config,
        attempted: 0,
        failed: 0,
    };
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPS_MIN
        || (setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(config, &mut tally)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let kinds = workload.ops_per_pass();

    let mut host = HostRef::new();
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let mut slices: Vec<Slice> = Vec::new();
    let mut passes = 0u64;
    while start.elapsed().as_secs_f64() < config.seconds {
        let mut slice = Slice::default();
        let slice_start = Instant::now();
        host.take_level();
        while slice_start.elapsed() < SLICE_MIN {
            slice.samples.extend(run_pass(
                workload.as_mut(),
                &mut tally,
                passes,
                Mode::Plain,
                Some(&mut host),
            ));
            passes += 1;
        }
        slice.host_us = host.take_level();
        slices.push(slice);
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu_before;

    // The host is shared: for seconds at a time a neighbour slows it by a
    // tenth to a half. Slices during which the reference kernel ran slower
    // than the run's quiet level are set aside; what is reported is the
    // median over the quiet ones. The unfiltered numbers are printed too.
    let levels: Vec<f64> = slices.iter().map(|s| s.host_us).collect();
    let quiet = quiet_mask(&levels, QUIET_TOLERANCE);
    let quiet_slices = || {
        slices
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(s, _)| s)
    };
    let rates: Vec<f64> = quiet_slices().map(Slice::rate).collect();
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        (
            "op_p50_us",
            median_op_us(quiet_slices().flat_map(|s| &s.samples), kinds),
            "us",
        ),
        ("ops_per_s", median(&rates), "1/s"),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let all_us: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.samples.iter().map(|&(_, ns)| ns as f64 / 1e3))
        .collect();
    let all_rates: Vec<f64> = slices.iter().map(Slice::rate).collect();
    let (tail_q, tail_us) =
        tail_percentile(&all_us).unwrap_or((1.0, all_us.iter().copied().fold(0.0, f64::max)));
    let busy: f64 = all_us.iter().sum::<f64>() / 1e6;
    let diagnostics = vec![
        ("driver.host_level_us", median(&levels), "us"),
        (
            "driver.quiet_share",
            rates.len() as f64 / slices.len() as f64,
            "ratio",
        ),
        (
            "unfiltered.op_p50_us",
            median_op_us(slices.iter().flat_map(|s| &s.samples), kinds),
            "us",
        ),
        ("unfiltered.ops_per_s", median(&all_rates), "1/s"),
        ("driver.op_tail_us", tail_us, "us"),
        ("driver.op_tail_q", tail_q, "ratio"),
        ("driver.op_samples", all_us.len() as f64, "count"),
        ("driver.ops_per_pass", kinds as f64, "count"),
        ("driver.cpu_s_per_op", cpu / all_us.len().max(1) as f64, "s"),
        ("driver.slice_spread", iqr_share(&rates), "ratio"),
        ("driver.check_share", 1.0 - busy / wall, "ratio"),
        ("driver.passes", passes as f64, "count"),
        ("driver.slices", slices.len() as f64, "count"),
        ("driver.measured_s", wall, "s"),
        ("driver.setups", setups.len() as f64, "count"),
    ];
    let slices = slices.iter().map(|s| (s.host_us, s.rate())).collect();
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        diagnostics,
        slices,
        spans: Vec::new(),
        notes: Vec::new(),
    })
}

fn run_traced(config: &RunConfig) -> Result<RunReport, String> {
    let mut tally = Tally {
        config,
        attempted: 0,
        failed: 0,
    };
    let mut workload = set_up(config, &mut tally)?;
    let machines = Machines::default();

    // The simulator's verdict on the workload's scenarios: deterministic,
    // so it runs once, off every clock.
    let registry = pdac_telemetry::global().registry();
    let fills = |snapshot: pdac_telemetry::RegistrySnapshot| {
        snapshot
            .counters
            .get("hwtopo.distance_fills")
            .copied()
            .unwrap_or(0)
    };
    let fills_before = fills(registry.snapshot());
    let model = model_pass(&machines, &workload.scenarios())?;
    let model_fills = fills(registry.snapshot()) - fills_before;

    // Half the run measures the workload, passes taking turns between the
    // plain call and the traced one (and, for `mpi_*`, the re-enactment).
    let modes: &[Mode] = if workload.reenacts() {
        &[Mode::Plain, Mode::Traced, Mode::Reenact]
    } else {
        &[Mode::Plain, Mode::Traced]
    };
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let mut records: Vec<PassRecord> = Vec::new();
    let mut span_count = 0;
    while start.elapsed().as_secs_f64() < config.seconds / 2.0 || records.len() < modes.len() {
        let pass = records.len() as u64;
        let mode = modes[records.len() % modes.len()];
        // Every mode runs the same passes: the pass number, and with it the
        // shuffle and the roots, advances once per round of modes.
        let busy_ns = run_pass(
            workload.as_mut(),
            &mut tally,
            pass / modes.len() as u64,
            mode,
            None,
        )
        .into_iter()
        .map(|(_, ns)| ns)
        .collect();
        let recorded = spans::len();
        records.push(PassRecord {
            mode,
            busy_ns,
            spans: span_count..recorded,
        });
        span_count = recorded;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu_before;
    let all_spans = spans::drain();

    let of_mode = |mode: Mode| records.iter().filter(move |r| r.mode == mode);
    let rates = |mode: Mode| of_mode(mode).map(PassRecord::rate).collect::<Vec<f64>>();
    let busy_per_pass = |mode: Mode| {
        median(
            &of_mode(mode)
                .map(PassRecord::busy_seconds)
                .collect::<Vec<f64>>(),
        )
    };
    let plain_rates = rates(Mode::Plain);
    let plain_samples: Vec<f64> = of_mode(Mode::Plain)
        .flat_map(|r| r.busy_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();

    // Layer shares come from the most detailed mode the workload has.
    let layered = if workload.reenacts() {
        Mode::Reenact
    } else {
        Mode::Traced
    };
    let totals = spans::layer_totals(&all_spans, of_mode(layered).map(|r| r.spans.clone()));
    let op_wall = (totals.op_wall as f64).max(1.0);

    let mut values = probes::run(&machines, config.seed)?;
    values.insert("hwtopo.distance_fills", model_fills as f64);
    values.insert("core.sched_ops", model.sched_ops as f64);
    values.insert("core.sched_bytes", model.shape.bytes as f64);
    values.insert(
        "core.local_msg_share",
        model.shape.local_messages as f64 / model.shape.messages.max(1) as f64,
    );
    values.insert(
        "core.bytes_far_share",
        model.shape.far_bytes as f64 / model.shape.bytes.max(1) as f64,
    );
    if model.coverage_min < 0.95 {
        return Err(format!(
            "critical-path coverage {} below 0.95 on one of the workload's scenarios",
            model.coverage_min
        ));
    }
    values.insert("analyze.coverage_min", model.coverage_min);
    values.insert("model.predicted_s", model.predicted_s);
    values.insert("model.placement_loss_pct", model.placement_loss_pct);
    for (layer, &ns) in Layer::ATTRIBUTED.iter().zip(&totals.layers) {
        let name = PER_LAYER
            .iter()
            .map(|p| p.name)
            .find(|n| n.strip_prefix("share.") == Some(layer.label()))
            .expect("every attributed layer has a share metric");
        values.insert(name, ns as f64 / op_wall);
    }
    values.insert(
        "trace.attributed_share",
        totals.layers.iter().sum::<u64>() as f64 / op_wall,
    );
    let plain_busy = busy_per_pass(Mode::Plain).max(f64::MIN_POSITIVE);
    values.insert(
        "trace.reenact_ratio",
        if workload.reenacts() {
            busy_per_pass(Mode::Reenact) / plain_busy
        } else {
            1.0
        },
    );
    values.insert(
        "trace.overhead_share",
        1.0 - median(&rates(Mode::Traced)) / median(&plain_rates).max(f64::MIN_POSITIVE),
    );
    let (tail_q, tail_us) = tail_percentile(&plain_samples)
        .unwrap_or((1.0, plain_samples.iter().copied().fold(0.0, f64::max)));
    values.insert("driver.op_tail_us", tail_us);
    values.insert("driver.op_tail_q", tail_q);
    values.insert("driver.op_samples", plain_samples.len() as f64);
    values.insert("driver.ops_per_pass", workload.ops_per_pass() as f64);
    let ops_run: usize = records.iter().map(|r| r.busy_ns.len()).sum();
    values.insert("driver.cpu_s_per_op", cpu / ops_run.max(1) as f64);
    values.insert("driver.slice_spread", iqr_share(&plain_rates));
    let busy: f64 = records.iter().map(PassRecord::busy_seconds).sum();
    values.insert("driver.check_share", 1.0 - busy / wall);

    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            values
                .get(p.name)
                .map(|&value| (p.name, value, p.unit))
                .ok_or(format!("no probe measured {}", p.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let diagnostics = vec![
        ("op_p50_us", median(&plain_samples), "us"),
        ("ops_per_s", median(&plain_rates), "1/s"),
        ("driver.passes", records.len() as f64, "count"),
        ("driver.measured_s", wall, "s"),
    ];
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        diagnostics,
        slices: Vec::new(),
        spans: all_spans,
        notes: model
            .worst_placement
            .iter()
            .map(|id| format!("model.placement_loss_pct is set by {id}"))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_op_is_the_median_over_kinds_of_kind_medians() {
        // Kind 0 runs in 1 us, kind 1 in 3 us, kind 2 in 100 us with one
        // slow outlier each: the median op is kind 1's median.
        let samples: Vec<(usize, u64)> = vec![
            (0, 1_000),
            (1, 3_000),
            (2, 100_000),
            (0, 1_000),
            (1, 3_000),
            (2, 100_000),
            (0, 50_000),
            (1, 90_000),
            (2, 900_000),
        ];
        assert_eq!(median_op_us(samples.iter(), 3), 3.0);
        // Two kinds: the mean of their medians, wherever the pooled mass sits.
        let two: Vec<(usize, u64)> = vec![(0, 1_000), (1, 9_000), (0, 1_000), (1, 9_000)];
        assert_eq!(median_op_us(two.iter(), 2), 5.0);
        // A kind that never ran does not count.
        assert_eq!(median_op_us(two.iter(), 3), 5.0);
    }

    #[test]
    fn slice_rate_is_ops_over_time_on_the_clock() {
        let slice = Slice {
            samples: vec![(0, 250_000_000), (1, 250_000_000)],
            host_us: 90.0,
        };
        assert_eq!(slice.rate(), 4.0);
    }
}
