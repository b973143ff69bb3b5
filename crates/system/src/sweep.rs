//! The batched experiment driver: cross products of workloads × policies ×
//! machine geometries, executed in parallel.
//!
//! [`SweepSpec`] is how figures, tables, and ablations are produced: declare
//! the design points once, then [`SweepSpec::execute`] hands the independent
//! runs to the crate's one job runner — the same one behind campaigns and
//! predictor tournaments — whose worker threads pull runs from one shared
//! queue (every [`crate::Machine`] is self-contained, so runs never share
//! mutable state). A reorder buffer on the calling thread streams the
//! per-run [`RunReport`]s through a [`ReportSink`] *in run order*. Because
//! each simulation is deterministic, a sweep on any number of workers
//! produces bit-identical reports — the worker count changes wall-clock
//! time and nothing else.
//!
//! # Examples
//!
//! ```
//! use ltp_core::PolicyRegistry;
//! use ltp_system::SweepSpec;
//! use ltp_workloads::{Benchmark, WorkloadParams};
//!
//! let registry = PolicyRegistry::with_builtins();
//! let reports = SweepSpec::new()
//!     .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
//!     .policy_specs(&registry, &["base", "ltp:bits=13"])
//!     .unwrap()
//!     .geometry(WorkloadParams::quick(4, 3))
//!     .collect();
//! assert_eq!(reports.len(), 4); // 2 benchmarks × 2 policies × 1 geometry
//! assert_eq!(reports[0].policy, "base");
//! ```

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use ltp_core::{PolicyFactory, PolicyRegistry, PolicySpecError, PredictorConfig};
use ltp_dsm::DirectoryKind;
use ltp_workloads::{Benchmark, RunEstimate, Trace, WorkloadParams, WorkloadSource};

use crate::experiment::ExperimentSpec;
use crate::pool;
use crate::probe::{ProbeFactory, ProbeRegistry, ProbeSpecError};
use crate::report::{NullSink, ReportSink, RunReport};
use crate::stuck::{RunOutcome, StuckReport};

/// A cross product of workload sources × policies × machine geometries ×
/// directory organizations, plus the execution strategy for running it.
///
/// Sources may be synthetic benchmarks, recorded traces, or both in one
/// sweep (trace sources pin their recorded geometry; see
/// [`SweepSpec::trace`]). Run order (the `seq` passed to sinks) is
/// row-major over `source × policy × geometry × directory`: the directory
/// varies fastest, then the geometry, then the policy, then the source.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    sources: Vec<WorkloadSource>,
    policies: Vec<Arc<dyn PolicyFactory>>,
    geometries: Vec<WorkloadParams>,
    directories: Vec<DirectoryKind>,
    probes: Vec<Arc<dyn ProbeFactory>>,
    predictor: PredictorConfig,
    threads: Option<usize>,
    shards: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

impl SweepSpec {
    /// An empty sweep: no workloads, no policies, the default geometry
    /// (the paper's 32-node machine), automatic parallelism.
    pub fn new() -> Self {
        SweepSpec {
            sources: Vec::new(),
            policies: Vec::new(),
            geometries: Vec::new(),
            directories: Vec::new(),
            probes: Vec::new(),
            predictor: PredictorConfig::default(),
            threads: None,
            shards: 1,
        }
    }

    /// Adds one workload source (a benchmark, a recorded trace, or an
    /// explicit [`WorkloadSource`]).
    pub fn source(mut self, source: impl Into<WorkloadSource>) -> Self {
        self.sources.push(source.into());
        self
    }

    /// Adds one benchmark.
    pub fn benchmark(self, benchmark: Benchmark) -> Self {
        self.source(benchmark)
    }

    /// Adds several benchmarks.
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.sources
            .extend(benchmarks.into_iter().map(WorkloadSource::from));
        self
    }

    /// Adds the whole nine-application Table 2 suite.
    pub fn all_benchmarks(self) -> Self {
        self.benchmarks(Benchmark::ALL)
    }

    /// Adds one recorded trace as a workload source.
    ///
    /// A trace replays at its recorded geometry regardless of the sweep's
    /// [`SweepSpec::geometry`] list — with several geometries, the trace's
    /// design points repeat identically (sinks still see every run).
    pub fn trace(self, trace: Arc<Trace>) -> Self {
        self.source(trace)
    }

    /// Adds one policy factory (the open end of the API: any external
    /// `impl PolicyFactory` slots in here).
    pub fn policy(mut self, policy: Arc<dyn PolicyFactory>) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds one policy resolved from a spec string.
    ///
    /// # Errors
    ///
    /// Returns the [`PolicySpecError`] from the registry.
    pub fn policy_spec(
        mut self,
        registry: &PolicyRegistry,
        spec: &str,
    ) -> Result<Self, PolicySpecError> {
        self.policies.push(registry.parse(spec)?);
        Ok(self)
    }

    /// Adds several policies resolved from spec strings.
    ///
    /// # Errors
    ///
    /// Returns the first [`PolicySpecError`] encountered.
    pub fn policy_specs(
        mut self,
        registry: &PolicyRegistry,
        specs: &[&str],
    ) -> Result<Self, PolicySpecError> {
        for spec in specs {
            self = self.policy_spec(registry, spec)?;
        }
        Ok(self)
    }

    /// Adds one machine geometry (nodes / seed / iteration override).
    pub fn geometry(mut self, params: WorkloadParams) -> Self {
        self.geometries.push(params);
        self
    }

    /// Shorthand for [`Self::geometry`] with a quick test geometry.
    pub fn quick_geometry(self, nodes: u16, iterations: u32) -> Self {
        self.geometry(WorkloadParams::quick(nodes, iterations))
    }

    /// Adds one directory sharer organization to the cross product (the
    /// default, when none is added, is the paper's full map).
    pub fn directory(mut self, directory: DirectoryKind) -> Self {
        self.directories.push(directory);
        self
    }

    /// Adds several directory organizations.
    pub fn directories(mut self, kinds: impl IntoIterator<Item = DirectoryKind>) -> Self {
        self.directories.extend(kinds);
        self
    }

    /// Attaches one probe factory to *every* run of the cross product: each
    /// run builds a fresh probe from it, and the probe's section lands in
    /// that run's [`RunReport::sections`].
    pub fn probe(mut self, probe: Arc<dyn ProbeFactory>) -> Self {
        self.probes.push(probe);
        self
    }

    /// Attaches one probe resolved from a spec string.
    ///
    /// # Errors
    ///
    /// Returns the [`ProbeSpecError`] from the registry.
    pub fn probe_spec(
        mut self,
        registry: &ProbeRegistry,
        spec: &str,
    ) -> Result<Self, ProbeSpecError> {
        self.probes.push(registry.parse(spec)?);
        Ok(self)
    }

    /// Sets the predictor tuning knobs shared by every run.
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.predictor = predictor;
        self
    }

    /// Sets the number of simulation shards for *every* run of the cross
    /// product (see [`ExperimentSpec::shards`]). Sharding splits one
    /// machine across worker threads; it changes wall-clock time only —
    /// every report stays bit-identical to a one-shard run. `0` is treated
    /// as 1. Orthogonal to [`SweepSpec::threads`], which parallelizes
    /// *across* runs.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Runs on one worker thread, in cross-product order (equivalent to
    /// `threads(1)`).
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Caps worker threads; `0` restores automatic sizing (one worker per
    /// available CPU, capped by the number of runs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Number of runs in the cross product.
    pub fn len(&self) -> usize {
        self.sources.len()
            * self.policies.len()
            * self.geometries.len().max(1)
            * self.directories.len().max(1)
    }

    /// Whether the cross product is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the cross product as individual experiment specs, in
    /// run order.
    pub fn runs(&self) -> Vec<ExperimentSpec> {
        let default_geometry = [WorkloadParams::default()];
        let geometries: &[WorkloadParams] = if self.geometries.is_empty() {
            &default_geometry
        } else {
            &self.geometries
        };
        let default_directory = [DirectoryKind::Full];
        let directories: &[DirectoryKind] = if self.directories.is_empty() {
            &default_directory
        } else {
            &self.directories
        };
        let mut runs = Vec::with_capacity(self.len());
        for source in &self.sources {
            for policy in &self.policies {
                for &workload in geometries {
                    for &directory in directories {
                        runs.push(ExperimentSpec {
                            shards: self.shards,
                            source: source.clone(),
                            policy: Arc::clone(policy),
                            workload: source.effective_params(workload),
                            predictor: self.predictor,
                            directory,
                            probes: self.probes.clone(),
                            barrier_fanin: 4,
                        });
                    }
                }
            }
        }
        runs
    }

    /// The parallel execution order: run indices longest-estimated-first.
    ///
    /// Runs vary 10×+ in length across the suite (dsmc vs raytrace), so
    /// dispatching the long ones first cuts the tail a straggler started
    /// last would otherwise add to a mixed sweep. Estimates come from
    /// [`ExperimentSpec::estimated_ops`] (trace headers, script lengths);
    /// runs of *unknown* length are scheduled first — conservatively
    /// assumed long — in cross-product order, followed by known runs by
    /// descending op count (ties in cross-product order).
    ///
    /// Scheduling changes execution order only: sinks and the returned
    /// report vector always observe cross-product order, and every report
    /// is bit-identical to a serial sweep's. One worker
    /// ([`SweepSpec::serial`]) does not consult the schedule at all — it
    /// has no tail to cut, and running in cross-product order lets every
    /// report reach the sink the moment it finishes.
    pub fn schedule(&self) -> Vec<(usize, Option<RunEstimate>)> {
        Self::schedule_for(&self.runs())
    }

    /// [`SweepSpec::schedule`] over an already-materialized run list — the
    /// parallel executor (and any caller that also needs the runs, like the
    /// CLI's `--debug` dump) reuses the runs it already holds instead of
    /// rebuilding the cross product and every estimate a second time.
    pub fn schedule_for(runs: &[ExperimentSpec]) -> Vec<(usize, Option<RunEstimate>)> {
        let mut entries: Vec<(usize, Option<RunEstimate>)> = runs
            .iter()
            .map(ExperimentSpec::estimated_ops)
            .enumerate()
            .collect();
        entries.sort_by_key(|&(seq, est)| (Reverse(est.map_or(u64::MAX, |e| e.ops)), seq));
        entries
    }

    /// Executes every run, streaming reports through `sink` in run order,
    /// and returns the reports (also in run order).
    ///
    /// Runs execute on the job runner's worker threads: longest-first
    /// ([`SweepSpec::schedule`]) with more than one worker, in run order
    /// with one. A reorder buffer restores run order before the sink
    /// observes anything, and the reports are bit-identical to serial
    /// execution.
    ///
    /// # Errors
    ///
    /// Returns the diagnosis of the first run, in run order, that hit the
    /// cycle horizon ([`ExperimentSpec::try_run`]). Every run before it has
    /// reached the sink; no run starts after it is found.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any run that panics (e.g. an unreadable
    /// trace file), after the runs that finished before it in run order
    /// have reached the sink.
    pub fn execute(&self, sink: &mut dyn ReportSink) -> Result<Vec<RunReport>, Box<StuckReport>> {
        let runs = self.runs();
        let all: Vec<usize> = (0..runs.len()).collect();
        let mut reports = Vec::with_capacity(runs.len());
        // Reorder buffer: the sink sees run order whichever worker
        // finishes first.
        let mut early: BTreeMap<usize, RunOutcome> = BTreeMap::new();
        let result = self.dispatch(&runs, &all, ExperimentSpec::try_run, |seq, outcome| {
            early.insert(seq, outcome);
            while let Some(outcome) = early.remove(&reports.len()) {
                match outcome {
                    RunOutcome::Completed(report) => {
                        sink.record(reports.len(), &report);
                        reports.push(*report);
                    }
                    RunOutcome::Stuck(stuck) => return Err(stuck),
                }
            }
            Ok(())
        });
        sink.finish();
        result.map(|()| reports)
    }

    /// Executes every run and returns the reports in cross-product order.
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnosis if a run hits the cycle horizon,
    /// and re-raises the panic of any run that panics.
    pub fn collect(&self) -> Vec<RunReport> {
        self.execute(&mut NullSink)
            .unwrap_or_else(|stuck| panic!("{}", stuck.render_human()))
    }

    /// Runs `job` on each `pending` run (indices into `runs`, ascending)
    /// through the job runner, handing `(seq, result)` to `consume` on the
    /// calling thread in completion order. The dispatch rule sweeps and
    /// campaigns share: with more than one worker, runs go out
    /// longest-first ([`SweepSpec::schedule_for`]); with one, in
    /// cross-product order, so a streaming sink never waits.
    pub(crate) fn dispatch<T: Send, E>(
        &self,
        runs: &[ExperimentSpec],
        pending: &[usize],
        job: impl Fn(&ExperimentSpec) -> T + Sync,
        consume: impl FnMut(usize, T) -> Result<(), E>,
    ) -> Result<(), E> {
        let order = |workers: usize| {
            if workers == 1 {
                return pending.to_vec();
            }
            let mut wanted = vec![false; runs.len()];
            for &seq in pending {
                wanted[seq] = true;
            }
            Self::schedule_for(runs)
                .into_iter()
                .map(|(seq, _)| seq)
                .filter(|&seq| wanted[seq])
                .collect()
        };
        pool::run(
            pending.len(),
            self.threads,
            order,
            |seq| job(&runs[seq]),
            consume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JsonLinesSink;
    use ltp_core::{NullPolicy, SelfInvalidationPolicy};

    fn small_sweep() -> SweepSpec {
        let registry = PolicyRegistry::with_builtins();
        SweepSpec::new()
            .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
            .policy_specs(&registry, &["base", "dsi", "ltp:bits=13"])
            .unwrap()
            .quick_geometry(4, 3)
    }

    #[test]
    fn cross_product_order_is_row_major() {
        let sweep = small_sweep().quick_geometry(2, 1);
        assert_eq!(sweep.len(), 2 * 3 * 2);
        let runs = sweep.runs();
        assert_eq!(runs.len(), 12);
        // Geometry fastest, then policy, then source.
        assert_eq!(runs[0].source.name(), "em3d");
        assert_eq!(runs[0].workload.nodes, 4);
        assert_eq!(runs[1].workload.nodes, 2);
        assert_eq!(runs[2].policy.name(), "dsi");
        assert_eq!(runs[6].source.name(), "tomcatv");
    }

    #[test]
    fn default_geometry_is_applied_when_none_given() {
        let registry = PolicyRegistry::with_builtins();
        let sweep = SweepSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_spec(&registry, "base")
            .unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep.runs()[0].workload.nodes, 32);
    }

    #[test]
    fn parallel_reports_match_serial_exactly() {
        let sweep = small_sweep();
        let serial = sweep.clone().serial().collect();
        let parallel = sweep.threads(4).collect();
        assert_eq!(serial.len(), 6);
        assert_eq!(serial, parallel, "parallelism must not change results");
    }

    #[test]
    fn sink_sees_runs_in_order_even_in_parallel() {
        let mut sink = JsonLinesSink::new(Vec::new());
        let reports = small_sweep().threads(4).execute(&mut sink).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), reports.len());
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"run\":{i},")),
                "line {i} out of order: {line}"
            );
        }
    }

    #[test]
    fn external_factories_sweep_without_touching_the_system_crate() {
        // The acceptance scenario: a policy defined *outside* every ltp
        // crate, registered and swept through the public API only.
        #[derive(Debug)]
        struct AlwaysOff;
        impl PolicyFactory for AlwaysOff {
            fn name(&self) -> &str {
                "always-off"
            }
            fn build(&self, _config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
                Box::new(NullPolicy)
            }
        }

        let mut registry = PolicyRegistry::with_builtins();
        registry.register_factory(Arc::new(AlwaysOff)).unwrap();
        let reports = SweepSpec::new()
            .benchmark(Benchmark::Ocean)
            .policy_spec(&registry, "always-off")
            .unwrap()
            .quick_geometry(4, 2)
            .collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].policy, "always-off");
        assert_eq!(reports[0].metrics.self_invalidations_sent, 0);
    }

    #[test]
    fn traces_and_synthetics_mix_in_one_sweep() {
        let params = WorkloadParams::quick(4, 2);
        let trace = Arc::new(Trace::record(Benchmark::Em3d, &params));
        let registry = PolicyRegistry::with_builtins();
        let reports = SweepSpec::new()
            .trace(Arc::clone(&trace))
            .benchmark(Benchmark::Em3d)
            .policy_specs(&registry, &["base", "ltp"])
            .unwrap()
            .geometry(params)
            .collect();
        assert_eq!(reports.len(), 4);
        // The trace rows are bit-identical to the synthetic rows.
        assert_eq!(reports[0], reports[2], "base: replay == synthetic");
        assert_eq!(reports[1], reports[3], "ltp: replay == synthetic");
    }

    #[test]
    fn streaming_traces_sweep_identically_to_buffered_ones() {
        let params = WorkloadParams::quick(4, 2);
        let trace = Arc::new(Trace::record(Benchmark::Moldyn, &params));
        let path =
            std::env::temp_dir().join(format!("ltp-sweep-stream-{}.ltrace", std::process::id()));
        trace.save(&path).unwrap();
        let streaming = Arc::new(ltp_workloads::StreamingTrace::open(&path).unwrap());
        let registry = PolicyRegistry::with_builtins();
        let reports = SweepSpec::new()
            .trace(Arc::clone(&trace))
            .source(streaming)
            .policy_specs(&registry, &["base", "ltp"])
            .unwrap()
            .geometry(params)
            .collect();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0], reports[2], "base: streamed == recorded");
        assert_eq!(reports[1], reports[3], "ltp: streamed == recorded");
    }

    #[test]
    fn trace_sources_pin_geometry_in_sweeps() {
        let recorded = WorkloadParams::quick(4, 2);
        let trace = Arc::new(Trace::record(Benchmark::Ocean, &recorded));
        let registry = PolicyRegistry::with_builtins();
        let reports = SweepSpec::new()
            .trace(trace)
            .policy_spec(&registry, "base")
            .unwrap()
            .quick_geometry(8, 9) // ignored by the trace source
            .collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].workload, recorded);
    }

    #[test]
    fn directory_axis_crosses_and_varies_fastest() {
        let registry = PolicyRegistry::with_builtins();
        let sweep = SweepSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_spec(&registry, "base")
            .unwrap()
            .quick_geometry(4, 2)
            .directory(DirectoryKind::Full)
            .directory(DirectoryKind::Coarse { cluster: 2 })
            .directory(DirectoryKind::LimitedPtr { pointers: 2 });
        assert_eq!(sweep.len(), 3);
        let runs = sweep.runs();
        assert_eq!(runs[0].directory, DirectoryKind::Full);
        assert_eq!(runs[1].directory, DirectoryKind::Coarse { cluster: 2 });
        assert_eq!(runs[2].directory, DirectoryKind::LimitedPtr { pointers: 2 });
        let reports = sweep.collect();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].directory, DirectoryKind::Coarse { cluster: 2 });
        // No-directory sweeps default to the full map.
        let default_runs = SweepSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_spec(&registry, "base")
            .unwrap()
            .runs();
        assert_eq!(default_runs[0].directory, DirectoryKind::Full);
    }

    #[test]
    fn empty_sweep_is_a_no_op() {
        let sweep = SweepSpec::new();
        assert!(sweep.is_empty());
        assert!(sweep.collect().is_empty());
    }
}
