//! The offline predictor tournament: many predictor specs raced over the
//! same workloads, without simulating the machine.
//!
//! Where [`crate::SweepSpec`] runs full cycle-accurate simulations,
//! [`PredictSpec`] drains each workload through the logical coherence
//! replay ([`ltp_workloads::replay`]) — identical touches, fills,
//! invalidations, and verification verdicts, no cycles — and tallies each
//! predictor's accuracy, coverage, and timeliness
//! ([`ltp_core::PredictStats`]). One job per (workload × predictor), run
//! on the crate's one job runner (the same one behind sweeps and
//! campaigns); each row lands in its row-major slot (predictor varies
//! fastest) whichever worker finishes first, so a tournament renders
//! bit-identically on any number of threads.
//!
//! Specs that report [`wants_ground_truth`] (the `oracle`) trigger one
//! extra baseline replay per workload; the extracted per-node last-touch
//! ordinals are shared across every job on that workload.
//!
//! [`render_markdown`] turns the rows into the committed
//! `reports/predictors.md` table — fully deterministic (no timestamps, no
//! timings), so CI regenerates and byte-compares it.
//!
//! [`wants_ground_truth`]: ltp_core::SelfInvalidationPolicy::wants_ground_truth
//!
//! # Examples
//!
//! ```
//! use ltp_core::PolicyRegistry;
//! use ltp_system::predict::{render_markdown, PredictSpec};
//! use ltp_workloads::Benchmark;
//!
//! let registry = PolicyRegistry::with_builtins();
//! let rows = PredictSpec::new()
//!     .benchmark(Benchmark::Em3d)
//!     .policy_specs(&registry, &["ltp", "oracle"])
//!     .unwrap()
//!     .quick_geometry(4, 3)
//!     .execute();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[1].stats.accuracy_pct(), Some(100.0), "the oracle is ideal");
//! let table = render_markdown(&rows);
//! assert!(table.contains("| em3d |"));
//! ```

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use ltp_core::{
    BlockId, Fingerprint, FingerprintHasher, JsonObject, JsonValue, PolicyFactory, PolicyRegistry,
    PolicySpecError, PredictStats, PredictorConfig, SelfInvalidationPolicy, StorageStats,
};
use ltp_workloads::{ground_truth, replay, Benchmark, Trace, WorkloadParams, WorkloadSource};

use crate::campaign::{hash_tuning, hash_workload};
use crate::pool;

/// Per-node last-touch ground truth, computed once per workload and
/// shared (via `Arc`) by every job that replays it.
type SharedTruth = Arc<Vec<Vec<(BlockId, u64)>>>;

/// The default tournament field: the paper's three trace predictors, the
/// single-PC strawman, the two adapted branch-predictor designs, and the
/// ideal oracle.
pub const DEFAULT_ZOO: [&str; 7] = [
    "ltp:bits=13",
    "ltp-global",
    "ltp-xor",
    "last-pc",
    "tage:tables=4",
    "perceptron:bits=8",
    "oracle",
];

/// A tournament: workload sources × predictor specs, replayed offline in
/// parallel.
#[derive(Debug, Clone)]
pub struct PredictSpec {
    sources: Vec<WorkloadSource>,
    policies: Vec<Arc<dyn PolicyFactory>>,
    workload: WorkloadParams,
    predictor: PredictorConfig,
    threads: Option<usize>,
}

/// One tournament result: a predictor's tallies on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRow {
    /// Workload source name.
    pub workload: String,
    /// Canonical predictor spec string.
    pub spec: String,
    /// Nodes replayed.
    pub nodes: u16,
    /// Program operations executed.
    pub ops: u64,
    /// Prediction tallies merged across nodes.
    pub stats: PredictStats,
    /// Predictor storage summed across nodes (widest signature reported).
    pub storage: StorageStats,
    /// Wall-clock nanoseconds spent inside the replay (excluded from
    /// [`render_markdown`] — reports stay deterministic).
    pub elapsed_nanos: u64,
}

impl PredictRow {
    /// Renders the row as a JSON object (includes the timing).
    pub fn to_json(&self) -> JsonValue {
        let stats = JsonObject::new()
            .field("touches", self.stats.touches)
            .field("fires", self.stats.fires)
            .field("correct", self.stats.correct)
            .field("premature", self.stats.premature)
            .field("not_predicted", self.stats.not_predicted)
            .field("unresolved", self.stats.unresolved)
            .field(
                "accuracy_pct",
                self.stats
                    .accuracy_pct()
                    .map_or(JsonValue::Null, JsonValue::F64),
            )
            .field(
                "coverage_pct",
                self.stats
                    .coverage_pct()
                    .map_or(JsonValue::Null, JsonValue::F64),
            )
            .field(
                "mean_lead",
                self.stats
                    .mean_lead()
                    .map_or(JsonValue::Null, JsonValue::F64),
            )
            .build();
        let storage = JsonObject::new()
            .field("blocks_tracked", self.storage.blocks_tracked)
            .field("live_entries", self.storage.live_entries)
            .field("signature_bits", self.storage.signature_bits)
            .build();
        JsonObject::new()
            .field("workload", self.workload.as_str())
            .field("predictor", self.spec.as_str())
            .field("nodes", self.nodes)
            .field("ops", self.ops)
            .field("stats", stats)
            .field("storage", storage)
            .field("elapsed_nanos", self.elapsed_nanos)
            .build()
    }
}

impl Default for PredictSpec {
    fn default() -> Self {
        PredictSpec::new()
    }
}

impl PredictSpec {
    /// An empty tournament: no workloads, no predictors, the default
    /// geometry, automatic parallelism.
    pub fn new() -> Self {
        PredictSpec {
            sources: Vec::new(),
            policies: Vec::new(),
            workload: WorkloadParams::default(),
            predictor: PredictorConfig::default(),
            threads: None,
        }
    }

    /// Adds one workload source.
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

    /// Adds one recorded trace (replays at its recorded geometry).
    pub fn trace(self, trace: Arc<Trace>) -> Self {
        self.source(trace)
    }

    /// Adds one predictor factory.
    pub fn policy(mut self, policy: Arc<dyn PolicyFactory>) -> Self {
        self.policies.push(policy);
        self
    }

    /// Adds one predictor resolved from a spec string.
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

    /// Adds several predictors resolved from spec strings.
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

    /// Adds the [`DEFAULT_ZOO`].
    ///
    /// # Errors
    ///
    /// Returns a [`PolicySpecError`] only if the registry was stripped of a
    /// builtin.
    pub fn default_zoo(self, registry: &PolicyRegistry) -> Result<Self, PolicySpecError> {
        self.policy_specs(registry, &DEFAULT_ZOO)
    }

    /// Sets the workload geometry (trace sources pin their own).
    pub fn geometry(mut self, params: WorkloadParams) -> Self {
        self.workload = params;
        self
    }

    /// Shorthand for [`Self::geometry`] with a quick test geometry.
    pub fn quick_geometry(self, nodes: u16, iterations: u32) -> Self {
        self.geometry(WorkloadParams::quick(nodes, iterations))
    }

    /// Sets the predictor tuning knobs shared by every job.
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.predictor = predictor;
        self
    }

    /// Caps worker threads; `0` restores automatic sizing.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Runs on one worker thread (equivalent to `threads(1)`).
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Number of jobs (sources × predictors).
    pub fn len(&self) -> usize {
        self.sources.len() * self.policies.len()
    }

    /// Whether the tournament is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The campaign-store hash of this tournament's inputs: workloads (at
    /// their effective geometry), predictor specs in order, and predictor
    /// tuning, canonicalized with the same field discipline as
    /// [`crate::campaign::run_fingerprint`] and versioned by the same
    /// [`crate::campaign::STORE_FORMAT_VERSION`].
    ///
    /// The committed `reports/predictors.md` carries this hash in its
    /// provenance footer, so a regenerated report states exactly which
    /// trace/spec set produced it — two tables are comparable only when
    /// their fingerprints match.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.update_str("ltp-predict-tournament");
        h.update_u64(u64::from(crate::campaign::STORE_FORMAT_VERSION));
        h.update_u64(self.sources.len() as u64);
        for source in &self.sources {
            hash_workload(&mut h, source, self.workload);
        }
        h.update_u64(self.policies.len() as u64);
        for policy in &self.policies {
            h.update_str(&policy.spec());
        }
        hash_tuning(&mut h, self.predictor);
        h.finish()
    }

    /// Builds one job's policies and runs its replay.
    fn run_job(
        &self,
        source: &WorkloadSource,
        factory: &Arc<dyn PolicyFactory>,
        truth: Option<&SharedTruth>,
    ) -> PredictRow {
        let params = source.effective_params(self.workload);
        let programs = source
            .programs(&params)
            .unwrap_or_else(|e| panic!("workload {} failed to build: {e}", source.name()));
        let mut policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..params.nodes)
            .map(|_| factory.build(self.predictor))
            .collect();
        if let Some(truth) = truth {
            for (policy, node_truth) in policies.iter_mut().zip(truth.iter()) {
                policy.prime_last_touches(node_truth);
            }
        }
        let start = Instant::now();
        let report = replay(programs, &mut policies, false);
        let elapsed_nanos = start.elapsed().as_nanos() as u64;
        let stats = report
            .stats
            .iter()
            .fold(PredictStats::default(), |mut acc, s| {
                acc.merge(s);
                acc
            });
        let storage = policies.iter().fold(StorageStats::default(), |mut acc, p| {
            acc.merge(&p.storage());
            acc
        });
        PredictRow {
            workload: source.name().to_string(),
            spec: factory.spec(),
            nodes: params.nodes,
            ops: report.ops,
            stats,
            storage,
            elapsed_nanos,
        }
    }

    /// Runs every job, returning rows in row-major (source × predictor)
    /// order. Parallelism changes wall-clock time only.
    ///
    /// # Panics
    ///
    /// Panics if a workload fails to build its programs or a replay
    /// deadlocks, re-raising the job's own panic like
    /// [`crate::SweepSpec::execute`].
    pub fn execute(&self) -> Vec<PredictRow> {
        // One baseline replay per source, only when some predictor in the
        // field asks for ground truth; shared by every job on that source.
        let needs_truth = self
            .policies
            .iter()
            .any(|f| f.build(self.predictor).wants_ground_truth());
        let truths: Vec<Option<SharedTruth>> = self
            .sources
            .iter()
            .map(|source| {
                needs_truth.then(|| {
                    let params = source.effective_params(self.workload);
                    let programs = source.programs(&params).unwrap_or_else(|e| {
                        panic!("workload {} failed to build: {e}", source.name())
                    });
                    Arc::new(ground_truth(programs))
                })
            })
            .collect();

        // Job `j` is source `j / policies` × predictor `j % policies`, the
        // row-major slot its row fills.
        let jobs = self.len();
        let mut rows: Vec<Option<PredictRow>> = vec![None; jobs];
        let Ok(()) = pool::run(
            jobs,
            self.threads,
            |_| (0..jobs).collect(),
            |job| {
                let (s, p) = (job / self.policies.len(), job % self.policies.len());
                self.run_job(&self.sources[s], &self.policies[p], truths[s].as_ref())
            },
            |job, row| {
                rows[job] = Some(row);
                Ok::<(), Infallible>(())
            },
        );
        rows.into_iter()
            .map(|r| r.expect("the runner consumed every job"))
            .collect()
    }
}

fn fmt_opt(value: Option<f64>, decimals: usize) -> String {
    match value {
        Some(v) => format!("{v:.decimals$}"),
        None => "—".to_string(),
    }
}

/// Renders tournament rows as the committed markdown report.
///
/// Deterministic by construction: same rows (minus timings) → same bytes.
/// CI regenerates `reports/predictors.md` from the committed trace and
/// byte-compares it against this output.
pub fn render_markdown(rows: &[PredictRow]) -> String {
    let mut out = String::new();
    out.push_str("# Offline predictor tournament\n\n");
    out.push_str(
        "Generated by `ltp predict`. Each row replays one workload through the\n\
         logical coherence model (`ltp-workloads::replay`) under one predictor\n\
         spec and tallies the directory-verified outcomes: **accuracy** =\n\
         correct / (correct + premature), **coverage** = correct / (correct +\n\
         not-predicted) — the paper's Figure 6 metrics — and **mean lead** =\n\
         events between a self-invalidation and the request it served\n\
         (timeliness). Storage is summed across nodes at end of run.\n\n",
    );
    out.push_str(
        "| workload | predictor | nodes | ops | touches | fires | correct | \
         premature | not predicted | accuracy % | coverage % | mean lead | \
         live entries |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for row in rows {
        out.push_str(&format!(
            "| {} | `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            row.workload,
            row.spec,
            row.nodes,
            row.ops,
            row.stats.touches,
            row.stats.fires,
            row.stats.correct,
            row.stats.premature,
            row.stats.not_predicted,
            fmt_opt(row.stats.accuracy_pct(), 2),
            fmt_opt(row.stats.coverage_pct(), 2),
            fmt_opt(row.stats.mean_lead(), 1),
            row.storage.live_entries,
        ));
    }
    out
}

/// Renders the committed report: the tournament table plus a provenance
/// footer stating which inputs produced it.
///
/// The footer carries [`PredictSpec::fingerprint`] — the campaign-store
/// hash of the tournament's workloads, geometry, and predictor specs — so
/// a regenerated `reports/predictors.md` is honest about its inputs:
/// tables whose fingerprints differ were produced from different
/// trace/spec sets and must not be compared row for row.
pub fn render_report(spec: &PredictSpec, rows: &[PredictRow]) -> String {
    let mut out = render_markdown(rows);
    out.push_str(&format!(
        "\n**Provenance:** inputs fingerprint `{}` — the campaign-store hash\n\
         (the `ltp campaign` resume-key canonicalization, store format v{})\n\
         of this tournament's workloads, geometry, and predictor specs.\n\
         Compare tables only when their fingerprints match.\n",
        spec.fingerprint(),
        crate::campaign::STORE_FORMAT_VERSION,
    ));
    out
}

/// Renders tournament rows as a JSON array (includes per-row timings, so
/// not byte-stable across runs — for piping, not committing).
pub fn render_json(rows: &[PredictRow]) -> String {
    JsonValue::Array(rows.iter().map(PredictRow::to_json).collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> PolicyRegistry {
        PolicyRegistry::with_builtins()
    }

    #[test]
    fn rows_come_back_in_row_major_order() {
        let rows = PredictSpec::new()
            .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
            .policy_specs(&registry(), &["ltp", "last-pc"])
            .unwrap()
            .quick_geometry(4, 2)
            .execute();
        let labels: Vec<(String, String)> = rows
            .iter()
            .map(|r| (r.workload.clone(), r.spec.clone()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("em3d".into(), "ltp:bits=13,capacity=16".into()),
                ("em3d".into(), "last-pc:capacity=16".into()),
                ("tomcatv".into(), "ltp:bits=13,capacity=16".into()),
                ("tomcatv".into(), "last-pc:capacity=16".into()),
            ],
            "specs render canonically"
        );
    }

    #[test]
    fn parallel_matches_serial() {
        fn strip(mut rows: Vec<PredictRow>) -> Vec<PredictRow> {
            for r in &mut rows {
                r.elapsed_nanos = 0;
            }
            rows
        }
        let spec = PredictSpec::new()
            .benchmarks([Benchmark::Em3d, Benchmark::Moldyn, Benchmark::Ocean])
            .default_zoo(&registry())
            .unwrap()
            .quick_geometry(4, 2);
        let serial = strip(spec.clone().serial().execute());
        let parallel = strip(spec.threads(4).execute());
        assert_eq!(serial, parallel, "parallelism must not change results");
    }

    #[test]
    fn oracle_dominates_the_zoo() {
        let rows = PredictSpec::new()
            .benchmark(Benchmark::Em3d)
            .default_zoo(&registry())
            .unwrap()
            .quick_geometry(4, 3)
            .execute();
        let oracle = rows.iter().find(|r| r.spec == "oracle").unwrap();
        assert_eq!(oracle.stats.premature, 0);
        assert_eq!(oracle.stats.not_predicted, 0);
        for row in &rows {
            assert!(
                row.stats.correct <= oracle.stats.correct,
                "{}: nothing out-covers the oracle",
                row.spec
            );
        }
    }

    #[test]
    fn markdown_is_deterministic_and_complete() {
        let spec = PredictSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_specs(&registry(), &["ltp:bits=13", "oracle"])
            .unwrap()
            .quick_geometry(4, 2);
        let a = render_markdown(&spec.clone().execute());
        let b = render_markdown(&spec.execute());
        assert_eq!(a, b, "timings must not leak into the report");
        assert!(a.contains("| em3d | `ltp:bits=13,capacity=16` |"), "{a}");
        assert!(a.contains("| em3d | `oracle` |"));
        assert!(a.contains("100.00 | 100.00"), "oracle row is perfect:\n{a}");
    }

    #[test]
    fn json_rows_render() {
        let rows = PredictSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_spec(&registry(), "ltp")
            .unwrap()
            .quick_geometry(4, 2)
            .execute();
        let json = render_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.contains("\"predictor\":\"ltp:bits=13,capacity=16\""));
        assert!(json.contains("\"accuracy_pct\""));
    }
}
