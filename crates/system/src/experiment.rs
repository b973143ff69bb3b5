//! The experiment driver: workload × policy × machine geometry → report.
//!
//! [`ExperimentSpec`] describes one run: a [`WorkloadSource`] (a synthetic
//! [`ltp_workloads::Benchmark`], a recorded [`Trace`], or a
//! [`ltp_workloads::StreamingTrace`] decoded incrementally from its file),
//! a shared [`PolicyFactory`] (resolved from a spec string through a
//! [`PolicyRegistry`] or constructed directly), workload sizing, and
//! predictor tuning. Construct one through [`ExperimentSpec::builder`] (or
//! the [`ExperimentSpec::isca00`] / [`ExperimentSpec::quick`] /
//! [`ExperimentSpec::replay`] shorthands), then [`ExperimentSpec::run`] it
//! — or hand many design points to [`crate::SweepSpec`] to execute in
//! parallel.

use std::sync::Arc;

use ltp_core::{
    FnPolicyFactory, NullPolicy, PolicyFactory, PolicyRegistry, PolicySpecError, PredictorConfig,
};
use ltp_dsm::{DirectoryKind, SystemConfig};
use ltp_sim::{Cycle, StopReason};
use ltp_workloads::{RunEstimate, Trace, WorkloadParams, WorkloadSource};

use crate::machine::Machine;
use crate::probe::{FnProbeFactory, Probe, ProbeFactory, ProbeRegistry, ProbeSpecError, RunInfo};
use crate::report::RunReport;
use crate::stuck::{RunOutcome, StuckClass, StuckReport};

/// A complete experiment description.
///
/// # Examples
///
/// ```
/// use ltp_system::ExperimentSpec;
/// use ltp_workloads::Benchmark;
///
/// let report = ExperimentSpec::builder(Benchmark::Em3d)
///     .policy_spec("ltp:bits=13")
///     .unwrap()
///     .nodes(4)
///     .iterations(8)
///     .build()
///     .run();
/// assert!(report.metrics.predicted > 0, "LTP learns em3d's one-touch traces");
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which workload to run: a synthetic benchmark or a recorded trace.
    pub source: WorkloadSource,
    /// The factory instantiating one policy per node.
    pub policy: Arc<dyn PolicyFactory>,
    /// Workload sizing parameters (machine geometry). Trace sources pin
    /// their recorded geometry: whatever is requested here, the run uses
    /// [`WorkloadSource::effective_params`].
    pub workload: WorkloadParams,
    /// Predictor tuning knobs.
    pub predictor: PredictorConfig,
    /// The directory sharer organization (full map, coarse vector, or
    /// limited pointers).
    pub directory: DirectoryKind,
    /// Extra observers: one probe is built per factory for the run, on top
    /// of the always-attached core-metrics probe.
    pub probes: Vec<Arc<dyn ProbeFactory>>,
    /// How many worker shards execute the machine (default 1 = serial;
    /// clamped to the node count). Purely a wall-clock knob: the report is
    /// bit-identical for every value.
    pub shards: usize,
    /// Combining-tree barrier fan-in (default 4, minimum 2). Purely a
    /// bookkeeping-cost knob: releases land on the window grid for every
    /// value, so the report is bit-identical across fan-ins.
    pub barrier_fanin: u16,
}

impl ExperimentSpec {
    /// Starts a builder for any workload source — a
    /// [`ltp_workloads::Benchmark`], a [`Trace`], or an explicit
    /// [`WorkloadSource`] (policy defaults to `base`).
    pub fn builder(source: impl Into<WorkloadSource>) -> ExperimentBuilder {
        let source = source.into();
        let workload = source.effective_params(WorkloadParams::default());
        ExperimentBuilder {
            spec: ExperimentSpec {
                source,
                policy: Arc::new(FnPolicyFactory::new("base", |_| Box::new(NullPolicy))),
                workload,
                predictor: PredictorConfig::default(),
                directory: DirectoryKind::Full,
                probes: Vec::new(),
                shards: 1,
                barrier_fanin: 4,
            },
        }
    }

    /// Starts a builder replaying a recorded trace at its recorded
    /// geometry.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use ltp_system::ExperimentSpec;
    /// use ltp_workloads::{Benchmark, Trace, WorkloadParams};
    ///
    /// let params = WorkloadParams::quick(4, 3);
    /// let trace = Arc::new(Trace::record(Benchmark::Em3d, &params));
    ///
    /// let direct = ExperimentSpec::builder(Benchmark::Em3d)
    ///     .policy_spec("ltp").unwrap().workload(params).build().run();
    /// let replayed = ExperimentSpec::replay(Arc::clone(&trace))
    ///     .policy_spec("ltp").unwrap().build().run();
    /// assert_eq!(replayed, direct, "replay is bit-identical");
    /// ```
    pub fn replay(trace: Arc<Trace>) -> ExperimentBuilder {
        ExperimentSpec::builder(trace)
    }

    /// An experiment on the paper's 32-node machine with default scaling.
    pub fn isca00(source: impl Into<WorkloadSource>, policy: Arc<dyn PolicyFactory>) -> Self {
        ExperimentSpec::builder(source).policy(policy).build()
    }

    /// A small/fast variant for tests.
    pub fn quick(
        source: impl Into<WorkloadSource>,
        policy: Arc<dyn PolicyFactory>,
        nodes: u16,
        iters: u32,
    ) -> Self {
        ExperimentSpec::builder(source)
            .policy(policy)
            .nodes(nodes)
            .iterations(iters)
            .build()
    }

    /// Runs the experiment to completion.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (horizon reached with unfinished
    /// processors) — by construction this indicates a protocol bug, and the
    /// panic message carries the stuck-node diagnosis. Campaign drivers
    /// that must survive stuck runs use [`ExperimentSpec::try_run`].
    pub fn run(&self) -> RunReport {
        match self.try_run() {
            RunOutcome::Completed(report) => *report,
            RunOutcome::Stuck(stuck) => panic!("{}", stuck.render_human()),
        }
    }

    /// Runs the experiment, converting a horizon overrun into a structured
    /// [`StuckReport`] instead of panicking.
    ///
    /// This is the campaign driver's entry point: the known seeded-kernel
    /// lock livelock at wide pinned geometries (see ROADMAP) would
    /// otherwise kill a thousands-of-runs campaign; here it becomes a
    /// per-node diagnosis recorded in the store.
    pub fn try_run(&self) -> RunOutcome {
        let workload = self.source.effective_params(self.workload);
        let config = SystemConfig::builder()
            .nodes(workload.nodes)
            .directory(self.directory)
            .barrier_fanin(self.barrier_fanin)
            .build()
            .expect("valid node count and directory organization");
        let n = workload.nodes;
        let policies = (0..n).map(|_| self.policy.build(self.predictor)).collect();
        let programs = self
            .source
            .programs(&workload)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut machine = Machine::with_shards(config, policies, programs, self.shards);
        machine.attach_core_metrics();
        let info = RunInfo {
            workload_name: self.source.name().to_string(),
            workload,
            directory: self.directory,
        };
        for factory in &self.probes {
            machine.attach_probe(factory.build(&info));
        }

        let summary = machine.run(Cycle::new(HORIZON_CYCLES));
        if summary.stop == StopReason::HorizonReached && !machine.all_finished() {
            let stuck_nodes = machine.stuck_nodes();
            return RunOutcome::Stuck(Box::new(StuckReport {
                benchmark: self.source.name().to_string(),
                policy: self.policy.name().to_string(),
                policy_spec: self.policy.spec(),
                directory: self.directory,
                workload,
                horizon_cycles: HORIZON_CYCLES,
                nodes_finished: workload.nodes
                    - stuck_nodes
                        .iter()
                        .filter(|n| n.class != StuckClass::HoldsLock)
                        .count() as u16,
                stuck_nodes,
                events_handled: summary.events_handled,
            }));
        }
        assert!(machine.all_finished(), "drained but processors unfinished");
        let (metrics, sections) = machine.finish();
        RunOutcome::Completed(Box::new(RunReport {
            benchmark: self.source.name().to_string(),
            policy: self.policy.name().to_string(),
            policy_spec: self.policy.spec(),
            directory: self.directory,
            workload,
            metrics: metrics.expect("core metrics probe attached"),
            sections,
            events_handled: summary.events_handled,
        }))
    }

    /// Up-front run-length estimate at the effective geometry, when the
    /// workload's total op count is knowable cheaply (see
    /// [`WorkloadSource::estimated_ops`]). Drives the sweep scheduler.
    pub fn estimated_ops(&self) -> Option<RunEstimate> {
        self.source
            .estimated_ops(&self.source.effective_params(self.workload))
    }
}

/// Builder for [`ExperimentSpec`] (see [`ExperimentSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    spec: ExperimentSpec,
}

impl ExperimentBuilder {
    /// Sets the policy factory every node will build from.
    pub fn policy(mut self, policy: Arc<dyn PolicyFactory>) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Resolves `spec` through the built-in [`PolicyRegistry`].
    ///
    /// For custom policies, resolve through your own registry and pass the
    /// factory to [`Self::policy`], or use [`Self::policy_spec_in`].
    ///
    /// # Errors
    ///
    /// Returns the [`PolicySpecError`] from the registry.
    pub fn policy_spec(self, spec: &str) -> Result<Self, PolicySpecError> {
        self.policy_spec_in(&PolicyRegistry::with_builtins(), spec)
    }

    /// Resolves `spec` through the given registry.
    ///
    /// # Errors
    ///
    /// Returns the [`PolicySpecError`] from the registry.
    pub fn policy_spec_in(
        self,
        registry: &PolicyRegistry,
        spec: &str,
    ) -> Result<Self, PolicySpecError> {
        let factory = registry.parse(spec)?;
        Ok(self.policy(factory))
    }

    /// Sets the machine size.
    pub fn nodes(mut self, nodes: u16) -> Self {
        self.spec.workload.nodes = nodes;
        self
    }

    /// Overrides the benchmark's default iteration count.
    pub fn iterations(mut self, iters: u32) -> Self {
        self.spec.workload.iterations = Some(iters);
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.workload.seed = seed;
        self
    }

    /// Replaces the whole workload-parameter block.
    pub fn workload(mut self, workload: WorkloadParams) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Sets the predictor tuning knobs.
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.spec.predictor = predictor;
        self
    }

    /// Sets the combining-tree barrier fan-in (default 4; minimum 2).
    pub fn barrier_fanin(mut self, fanin: u16) -> Self {
        self.spec.barrier_fanin = fanin;
        self
    }

    /// Sets the directory sharer organization (default:
    /// [`DirectoryKind::Full`], the paper's exact full map).
    pub fn directory(mut self, directory: DirectoryKind) -> Self {
        self.spec.directory = directory;
        self
    }

    /// Sets the worker shard count (default 1 = serial). Sharding only
    /// changes wall-clock time — the report is bit-identical for every
    /// value, so it is not part of the design point.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Attaches one probe factory: the run builds a fresh probe from it and
    /// its [`crate::MetricsSection`] (if any) lands in
    /// [`RunReport::sections`]. The core-metrics probe is always attached;
    /// this adds observers on top.
    pub fn probe(mut self, probe: Arc<dyn ProbeFactory>) -> Self {
        self.spec.probes.push(probe);
        self
    }

    /// Attaches a probe resolved from a spec string through the built-in
    /// [`ProbeRegistry`] (`"per-node"`, `"hist:self-inv-lead"`,
    /// `"check:strict"`).
    ///
    /// For custom probes, resolve through your own registry and pass the
    /// factory to [`Self::probe`], or use [`Self::probe_spec_in`].
    ///
    /// # Errors
    ///
    /// Returns the [`ProbeSpecError`] from the registry.
    pub fn probe_spec(self, spec: &str) -> Result<Self, ProbeSpecError> {
        self.probe_spec_in(&ProbeRegistry::with_builtins(), spec)
    }

    /// Attaches a probe resolved from `spec` through the given registry.
    ///
    /// # Errors
    ///
    /// Returns the [`ProbeSpecError`] from the registry.
    pub fn probe_spec_in(
        self,
        registry: &ProbeRegistry,
        spec: &str,
    ) -> Result<Self, ProbeSpecError> {
        let factory = registry.parse(spec)?;
        Ok(self.probe(factory))
    }

    /// Attaches an ad-hoc probe built by a closure — the one-experiment
    /// shortcut past defining a [`ProbeFactory`] type (see the
    /// [`crate::probe`] module example).
    pub fn probe_fn(
        self,
        name: &str,
        make: impl Fn() -> Box<dyn Probe> + Send + Sync + 'static,
    ) -> Self {
        self.probe(Arc::new(FnProbeFactory::new(name, move |_| make())))
    }

    /// Finishes the builder.
    pub fn build(self) -> ExperimentSpec {
        self.spec
    }
}

/// Simulation horizon: generous enough for every scaled workload, small
/// enough to fail fast on livelock.
const HORIZON_CYCLES: u64 = 2_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_workloads::Benchmark;

    fn quick(benchmark: Benchmark, spec: &str, nodes: u16, iters: u32) -> RunReport {
        ExperimentSpec::builder(benchmark)
            .policy_spec(spec)
            .unwrap()
            .nodes(nodes)
            .iterations(iters)
            .build()
            .run()
    }

    #[test]
    fn try_run_completes_on_a_healthy_config() {
        let outcome = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp")
            .unwrap()
            .nodes(4)
            .iterations(3)
            .build()
            .try_run();
        assert!(!outcome.is_stuck());
        let report = outcome.completed().expect("completed");
        assert!(report.metrics.exec_cycles > 0);
    }

    #[test]
    fn base_em3d_runs_clean() {
        let report = quick(Benchmark::Em3d, "base", 4, 3);
        assert!(report.metrics.exec_cycles > 0);
        assert!(report.metrics.misses > 0);
        assert_eq!(report.metrics.predicted, 0, "base never self-invalidates");
        assert_eq!(report.metrics.mispredicted, 0);
        assert!(
            report.metrics.not_predicted > 0,
            "sharing causes invalidations"
        );
    }

    #[test]
    fn ltp_em3d_predicts_most_invalidations() {
        let report = quick(Benchmark::Em3d, "ltp", 4, 12);
        let m = &report.metrics;
        assert!(
            m.predicted_pct() > 60.0,
            "em3d is the best case; got {:.1}% ({} of {})",
            m.predicted_pct(),
            m.predicted,
            m.invalidation_events()
        );
        assert!(m.mispredicted_pct() < 10.0);
    }

    #[test]
    fn runs_are_reproducible() {
        let spec = ExperimentSpec::builder(Benchmark::Raytrace)
            .policy_spec("ltp")
            .unwrap()
            .nodes(4)
            .iterations(3)
            .build();
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "same spec, same report");
    }

    #[test]
    fn trace_replay_reproduces_the_synthetic_run() {
        let params = WorkloadParams::quick(4, 3);
        let trace = Arc::new(Trace::record(Benchmark::Raytrace, &params));
        let direct = ExperimentSpec::builder(Benchmark::Raytrace)
            .policy_spec("ltp")
            .unwrap()
            .workload(params)
            .build()
            .run();
        let replayed = ExperimentSpec::replay(trace)
            .policy_spec("ltp")
            .unwrap()
            .build()
            .run();
        assert_eq!(replayed, direct);
    }

    #[test]
    fn trace_geometry_overrides_builder_geometry() {
        let params = WorkloadParams::quick(4, 2);
        let trace = Arc::new(Trace::record(Benchmark::Em3d, &params));
        // A (mistaken) .nodes() override on a trace run is ignored: the
        // recorded geometry wins.
        let report = ExperimentSpec::replay(trace)
            .policy_spec("base")
            .unwrap()
            .nodes(16)
            .build()
            .run();
        assert_eq!(report.workload, params);
    }

    #[test]
    fn report_names_the_policy() {
        let report = quick(Benchmark::Em3d, "ltp:bits=11", 2, 1);
        assert_eq!(report.policy, "ltp");
        assert_eq!(report.policy_spec, "ltp:bits=11,capacity=16");
    }

    #[test]
    fn report_records_the_directory_kind() {
        let report = quick(Benchmark::Em3d, "base", 4, 1);
        assert_eq!(report.directory, DirectoryKind::Full, "default is full");
        let report = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("base")
            .unwrap()
            .nodes(4)
            .iterations(1)
            .directory(DirectoryKind::LimitedPtr { pointers: 2 })
            .build()
            .run();
        assert_eq!(report.directory, DirectoryKind::LimitedPtr { pointers: 2 });
    }

    #[test]
    fn coarse_directory_over_invalidates_but_completes() {
        let full = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("base")
            .unwrap()
            .nodes(8)
            .iterations(4)
            .build()
            .run();
        let coarse = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("base")
            .unwrap()
            .nodes(8)
            .iterations(4)
            .directory(DirectoryKind::Coarse { cluster: 4 })
            .build()
            .run();
        assert_eq!(full.metrics.extra_invalidations, 0, "full map is exact");
        assert!(
            coarse.metrics.invalidations_sent >= full.metrics.invalidations_sent,
            "coarse clusters can only widen invalidation rounds"
        );
    }

    #[test]
    fn sharded_experiment_report_is_bit_identical() {
        let base = ExperimentSpec::builder(Benchmark::Raytrace)
            .policy_spec("ltp")
            .unwrap()
            .nodes(8)
            .iterations(3)
            .build();
        let serial = base.run();
        for shards in [2usize, 4, 8] {
            let mut spec = base.clone();
            spec.shards = shards;
            let sharded = spec.run();
            assert_eq!(
                sharded.to_json(),
                serial.to_json(),
                "{shards}-shard report bytes diverged from serial"
            );
        }
    }

    #[test]
    fn report_serializes() {
        let report = quick(Benchmark::Em3d, "base", 2, 1);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\":\"em3d\""), "{json}");
        assert!(json.contains("\"policy\":\"base\""), "{json}");
    }
}
