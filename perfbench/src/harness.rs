//! What every workload shares: run settings, the closed loop, the
//! outside-in machine runner, the metric sets, and small statistics.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ltp_dsm::SystemConfig;
use ltp_sim::{Cycle, StopReason};
use ltp_system::{ExperimentSpec, Machine, RunInfo, RunReport};
use ltp_workloads::{Program, WorkloadParams};

use crate::shim::{self, Counts, Tally, TimedFactory};

/// The same cycle horizon `ExperimentSpec::try_run` gives a run.
const HORIZON_CYCLES: u64 = 2_000_000_000;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The benchmark seed; 0 is the paper's default workload seed.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Whether to print the per-layer (traced) metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Smallest inputs, for the benchmark's own tests.
    pub tiny: bool,
}

impl Config {
    /// The workload seed the programs are generated from.
    pub fn workload_seed(&self) -> u64 {
        WorkloadParams::default().seed.wrapping_add(self.seed)
    }

    /// Geometry at `nodes` nodes (`iterations = None` keeps each kernel's
    /// default), seeded from the benchmark seed.
    pub fn params(&self, nodes: u16, iterations: Option<u32>) -> WorkloadParams {
        WorkloadParams {
            nodes,
            seed: self.workload_seed(),
            iterations,
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: operations attempted and failed, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Untraced job wall times, for the metadata line.
    pub walls: Vec<f64>,
}

impl Outcome {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn gate(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }
}

/// Runs `f`, turning a panic into `None` (a failed operation).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    panic::catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs one machine run under [`guarded`]: a panic, a stall or an invalid
/// configuration is reported on stderr and yields `None` (a failed op).
pub fn guarded_run(
    workload: &str,
    f: impl FnOnce() -> Result<MachineRun, String>,
) -> Option<MachineRun> {
    match guarded(f)? {
        Ok(run) => Some(run),
        Err(e) => {
            eprintln!("{workload}: {e}");
            None
        }
    }
}

/// Calls `round` until `seconds` have passed, at least once.
pub fn closed_loop(seconds: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        round();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One machine run driven from outside, as `ExperimentSpec::try_run` drives
/// it, with the host times the harness reads around it.
#[derive(Debug)]
pub struct MachineRun {
    pub report: RunReport,
    /// Wall nanoseconds inside `Machine::run`.
    pub run_ns: u64,
    /// `Machine::shard_busy_ns` after the run.
    pub busy_ns: Vec<u64>,
}

/// Builds the machine for `spec` from prebuilt `programs`, runs it and
/// assembles the same `RunReport` `ExperimentSpec::try_run` would. With a
/// `tally`, programs, policies and probes run behind timing shims.
///
/// # Errors
///
/// Returns a message when the configuration is invalid or the run stalls.
pub fn run_machine(
    spec: &ExperimentSpec,
    programs: Vec<Box<dyn Program>>,
    tally: Option<&Arc<Tally>>,
) -> Result<MachineRun, String> {
    let workload = spec.source.effective_params(spec.workload);
    let config = SystemConfig::builder()
        .nodes(workload.nodes)
        .directory(spec.directory)
        .barrier_fanin(spec.barrier_fanin)
        .build()
        .map_err(|e| e.to_string())?;
    let factory = match tally {
        Some(t) => TimedFactory::wrap(Arc::clone(&spec.policy), t),
        None => Arc::clone(&spec.policy),
    };
    let policies = (0..workload.nodes)
        .map(|_| factory.build(spec.predictor))
        .collect();
    let programs = match tally {
        Some(t) => shim::programs(programs, t),
        None => programs,
    };
    let mut machine = Machine::with_shards(config, policies, programs, spec.shards);
    machine.attach_core_metrics();
    let info = RunInfo {
        workload_name: spec.source.name().to_string(),
        workload,
        directory: spec.directory,
    };
    for probe in &spec.probes {
        let probe = match tally {
            Some(t) => shim::probe_factory(Arc::clone(probe), t),
            None => Arc::clone(probe),
        };
        machine.attach_probe(probe.build(&info));
    }
    let t = Instant::now();
    let summary = machine.run(Cycle::new(HORIZON_CYCLES));
    let run_ns = t.elapsed().as_nanos() as u64;
    if summary.stop == StopReason::HorizonReached && !machine.all_finished() {
        return Err(format!(
            "{} under {} stalled: {} node(s) unfinished",
            spec.source.name(),
            spec.policy.spec(),
            machine.stuck_nodes().len()
        ));
    }
    let busy_ns = machine.shard_busy_ns();
    let (metrics, sections) = machine.finish();
    Ok(MachineRun {
        report: RunReport {
            benchmark: spec.source.name().to_string(),
            policy: spec.policy.name().to_string(),
            policy_spec: spec.policy.spec(),
            directory: spec.directory,
            workload,
            metrics: metrics.ok_or("core metrics probe missing")?,
            sections,
            events_handled: summary.events_handled,
        },
        run_ns,
        busy_ns,
    })
}

/// Machine-side totals over the runs of some number of jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct MachineTotals {
    /// Nanoseconds building programs from their source.
    pub open_ns: u64,
    pub run_ns: u64,
    pub busy_sum_ns: u64,
    pub busy_max_ns: u64,
    /// Boundary wait in thread-seconds: every shard thread of a run waits
    /// while the run's wall time exceeds its busiest shard's.
    pub wait_thread_ns: u64,
    /// Machine runs, and shards summed over them.
    pub runs: u64,
    pub shards: u64,
    pub events: u64,
    pub messages: u64,
    pub misses: u64,
    pub invalidations_sent: u64,
    /// Directory queueing cycles summed over samples, and the sample count.
    pub queueing_sum: f64,
    pub queueing_samples: u64,
}

impl MachineTotals {
    /// Adds one machine run.
    pub fn add(&mut self, run: &MachineRun) {
        self.run_ns += run.run_ns;
        self.busy_sum_ns += run.busy_ns.iter().sum::<u64>();
        let busy_max = run.busy_ns.iter().copied().max().unwrap_or(0);
        self.busy_max_ns += busy_max;
        self.wait_thread_ns += run.run_ns.saturating_sub(busy_max) * run.busy_ns.len() as u64;
        self.runs += 1;
        self.shards += run.busy_ns.len() as u64;
        self.add_report(&run.report);
    }

    /// Adds one report's simulated counters.
    fn add_report(&mut self, report: &RunReport) {
        let m = &report.metrics;
        self.events += report.events_handled;
        self.messages += m.messages;
        self.misses += m.misses;
        self.invalidations_sent += m.invalidations_sent;
        self.queueing_sum += m.dir_queueing.mean_or_zero() * m.dir_queueing.samples() as f64;
        self.queueing_samples += m.dir_queueing.samples();
    }

    /// Folds another set of totals in.
    pub fn merge(&mut self, other: &MachineTotals) {
        self.open_ns += other.open_ns;
        self.run_ns += other.run_ns;
        self.busy_sum_ns += other.busy_sum_ns;
        self.busy_max_ns += other.busy_max_ns;
        self.wait_thread_ns += other.wait_thread_ns;
        self.runs += other.runs;
        self.shards += other.shards;
        self.events += other.events;
        self.messages += other.messages;
        self.misses += other.misses;
        self.invalidations_sent += other.invalidations_sent;
        self.queueing_sum += other.queueing_sum;
        self.queueing_samples += other.queueing_samples;
    }
}

/// Samples behind the end-to-end metrics.
///
/// A time is reported as the first quartile of its samples — the median of
/// the faster half. The host's virtual CPUs share physical cores with other
/// tenants, so the same work runs up to twice as slow for seconds at a
/// time: the median moves with the share of slow seconds in a run, and the
/// fastest sample with whether one rare fast window occurred; the first
/// quartile repeats best from run to run. The metadata line keeps the
/// median, quartiles and every sample. A job made of independent parts
/// (one run per benchmark or trace) is timed per part and its time is the
/// sum of the parts' first quartiles. Set-up is reported as the median of
/// its repetitions, one before each job.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// `parts[p][j]`: seconds of part `p` in job `j`.
    parts: Vec<Vec<f64>>,
    /// Seconds of each set-up.
    setups: Vec<f64>,
    /// Program ops of one job.
    pub ops: u64,
    /// Simulator events of one job (`RunReport.events_handled`; predictor
    /// touches for `predict`, which runs no machine).
    pub events: u64,
    /// Mean over benchmarks of base over `ltp` execution cycles.
    pub ltp_speedup_mean: f64,
    /// Mean over benchmarks of the share of invalidations `ltp` predicted.
    pub ltp_predicted_pct_mean: f64,
}

impl EndToEnd {
    /// Records one set-up.
    pub fn setup(&mut self, seconds: f64) {
        self.setups.push(seconds);
    }

    /// Records one job by the seconds of each of its parts.
    pub fn job(&mut self, parts: &[f64]) {
        self.parts.resize_with(parts.len(), Vec::new);
        for (samples, &s) in self.parts.iter_mut().zip(parts) {
            samples.push(s);
        }
    }

    /// Whole-job seconds, one per job.
    pub fn walls(&self) -> Vec<f64> {
        let jobs = self.parts.first().map_or(0, Vec::len);
        (0..jobs)
            .map(|j| self.parts.iter().map(|p| p[j]).sum())
            .collect()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let wall: f64 = self.parts.iter().map(|p| lower_quartile(p)).sum();
        vec![
            metric("wall_s", wall, "s"),
            metric("ops_per_s", ratio(self.ops as f64, wall), "1/s"),
            metric("events_per_s", ratio(self.events as f64, wall), "1/s"),
            metric("setup_s", quartiles(&self.setups).1, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("ltp_speedup_mean", self.ltp_speedup_mean, "x"),
            metric("ltp_predicted_pct_mean", self.ltp_predicted_pct_mean, "%"),
        ]
    }
}

/// The first quartile of `samples`: the time estimate every comparison of
/// host times in this benchmark uses (see [`EndToEnd`]).
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// The Fig. 9 and Fig. 6 analogs over `(base, ltp)` report pairs: the mean
/// `ltp` speedup over `base`, and the mean share of invalidations `ltp`
/// predicted.
pub fn ltp_means<'a>(
    pairs: impl IntoIterator<Item = (&'a RunReport, &'a RunReport)>,
) -> (f64, f64) {
    let (speedups, pcts): (Vec<f64>, Vec<f64>) = pairs
        .into_iter()
        .map(|(base, ltp)| {
            (
                ltp.metrics.speedup_vs(&base.metrics),
                ltp.metrics.predicted_pct(),
            )
        })
        .unzip();
    (mean(&speedups), mean(&pcts))
}

/// Pairs each benchmark's `ltp` report with its `base` report.
pub fn by_benchmark(reports: &[RunReport]) -> Vec<(&RunReport, &RunReport)> {
    reports
        .iter()
        .filter(|r| r.policy == "ltp")
        .filter_map(|ltp| {
            let base = reports
                .iter()
                .find(|r| r.benchmark == ltp.benchmark && r.policy == "base")?;
            Some((base, ltp))
        })
        .collect()
}

/// Per-layer values, each per job (times in seconds, counts per job).
/// Layers a workload does not exercise stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub next_op_s: f64,
    pub ns_per_op: f64,
    pub open_s: f64,
    pub on_touch_s: f64,
    pub on_sync_s: f64,
    pub touches: f64,
    pub fires: f64,
    pub fire_accuracy: f64,
    pub verified: f64,
    /// Policy time outside `on_touch`/`on_sync` (invalidation and
    /// verification hooks): not printed, but charged in the accounting.
    pub core_other_s: f64,
    pub run_s: f64,
    pub machine_self_s: f64,
    pub events: f64,
    pub messages: f64,
    pub misses: f64,
    pub invalidations_sent: f64,
    pub dir_queueing_mean: f64,
    pub busy_max_s: f64,
    pub busy_sum_s: f64,
    pub wait_s: f64,
    /// The boundary wait of the traced runs themselves, in thread-seconds
    /// (the printed `wait_s` is untraced wall time): charged in the
    /// accounting.
    pub traced_wait_s: f64,
    pub imbalance: f64,
    pub speedup_vs_serial: f64,
    pub probe_s: f64,
    pub probe_events: f64,
    pub probe_overhead_frac: f64,
    pub checkpoint_s: f64,
    pub worker_util: f64,
    pub traced_wall_s: f64,
    pub overhead_s: f64,
    pub residual_s: f64,
}

const NS: f64 = 1e-9;

impl Layers {
    /// Fills the shim-timed layers from `counts` gathered over `jobs` jobs.
    pub fn shims(&mut self, c: &Counts, jobs: usize) {
        let per = 1.0 / jobs.max(1) as f64;
        self.next_op_s = c.next_op_ns as f64 * NS * per;
        self.ns_per_op = ratio(c.next_op_ns as f64, c.ops as f64);
        self.on_touch_s = c.touch_ns as f64 * NS * per;
        self.on_sync_s = c.sync_ns as f64 * NS * per;
        self.touches = c.touches as f64 * per;
        self.fires = c.fires as f64 * per;
        self.fire_accuracy = 100.0 * ratio(c.correct as f64, c.verified as f64);
        self.verified = c.verified as f64 * per;
        self.core_other_s = c.other_ns as f64 * NS * per;
        self.probe_s = c.probe_ns as f64 * NS * per;
        self.probe_events = c.probe_events as f64 * per;
    }

    /// Fills the machine layers from `m`, gathered over `jobs` jobs whose
    /// shimmed calls are `c`. `machine.self_s` is the shards' busy time
    /// minus the program and policy calls made inside it.
    pub fn machine(&mut self, m: &MachineTotals, c: &Counts, jobs: usize) {
        let per = 1.0 / jobs.max(1) as f64;
        let children = c.next_op_ns + c.core_ns();
        self.open_s = m.open_ns as f64 * NS * per;
        self.run_s = m.run_ns as f64 * NS * per;
        self.machine_self_s = m.busy_sum_ns.saturating_sub(children) as f64 * NS * per;
        self.traced_wait_s = m.wait_thread_ns as f64 * NS * per;
        self.events = m.events as f64 * per;
        self.messages = m.messages as f64 * per;
        self.misses = m.misses as f64 * per;
        self.invalidations_sent = m.invalidations_sent as f64 * per;
        self.dir_queueing_mean = ratio(m.queueing_sum, m.queueing_samples as f64);
    }

    /// Fills the shard layers from untraced machine totals over `jobs` jobs.
    pub fn shards(&mut self, m: &MachineTotals, jobs: usize) {
        let per = 1.0 / jobs.max(1) as f64;
        self.busy_max_s = m.busy_max_ns as f64 * NS * per;
        self.busy_sum_s = m.busy_sum_ns as f64 * NS * per;
        self.wait_s = m.run_ns.saturating_sub(m.busy_max_ns) as f64 * NS * per;
        // Busiest shard over the mean shard.
        self.imbalance = ratio(
            m.busy_max_ns as f64 * m.shards as f64,
            m.busy_sum_ns as f64 * m.runs as f64,
        );
    }

    /// Thread-seconds the machine layers spent on the job threads:
    /// program construction and decode, policy hooks, the machine core, and
    /// the shard boundary wait. Probes run on the observer thread and are
    /// not part of it.
    pub fn job_thread_s(&self) -> f64 {
        self.open_s
            + self.next_op_s
            + self.on_touch_s
            + self.on_sync_s
            + self.core_other_s
            + self.machine_self_s
            + self.traced_wait_s
    }

    /// Sets the traced wall time, the overhead against the untraced wall,
    /// and the residual: traced wall minus `thread_s` spread over `threads`
    /// job threads. A negative residual means the layers claim more time
    /// than the job took.
    pub fn account(&mut self, traced_wall: f64, untraced_wall: f64, thread_s: f64, threads: usize) {
        self.traced_wall_s = traced_wall;
        self.overhead_s = traced_wall - untraced_wall;
        self.residual_s = traced_wall - thread_s / threads.max(1) as f64;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("workloads.next_op_s", self.next_op_s, "s"),
            metric("workloads.ns_per_op", self.ns_per_op, "ns"),
            metric("workloads.open_s", self.open_s, "s"),
            metric("core.on_touch_s", self.on_touch_s, "s"),
            metric("core.on_sync_s", self.on_sync_s, "s"),
            metric("core.touches", self.touches, "count"),
            metric("core.fires", self.fires, "count"),
            metric("core.fire_accuracy", self.fire_accuracy, "%"),
            metric("core.verified", self.verified, "count"),
            metric("machine.run_s", self.run_s, "s"),
            metric("machine.self_s", self.machine_self_s, "s"),
            metric("dsm.events", self.events, "count"),
            metric("dsm.messages", self.messages, "count"),
            metric("dsm.misses", self.misses, "count"),
            metric("dsm.invalidations_sent", self.invalidations_sent, "count"),
            metric("dsm.dir_queueing_mean", self.dir_queueing_mean, "cycles"),
            metric("shard.busy_max_s", self.busy_max_s, "s"),
            metric("shard.busy_sum_s", self.busy_sum_s, "s"),
            metric("shard.wait_s", self.wait_s, "s"),
            metric("shard.imbalance", self.imbalance, "x"),
            metric("shard.speedup_vs_serial", self.speedup_vs_serial, "x"),
            metric("probe.on_event_s", self.probe_s, "s"),
            metric("probe.events", self.probe_events, "count"),
            metric("probe.overhead_frac", self.probe_overhead_frac, "ratio"),
            metric("campaign.checkpoint_s", self.checkpoint_s, "s"),
            metric("sweep.worker_util", self.worker_util, "ratio"),
            metric("trace.wall_s", self.traced_wall_s, "s"),
            metric("trace.overhead_s", self.overhead_s, "s"),
            metric("trace.residual_s", self.residual_s, "s"),
        ]
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The process's peak resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory inside the benchmark's own directory, removed when
/// dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.work` itself once the last run is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
