//! Resumable, checkpointed campaign execution over a [`SweepSpec`].
//!
//! A *campaign* is a sweep with a durable store: every run is keyed by a
//! canonical content hash of its complete configuration
//! ([`run_fingerprint`]), and each finished run is checkpointed (fsync'd)
//! into a [`CampaignStore`] the moment it completes. Restarting the same
//! campaign — after Ctrl-C, OOM, a CI timeout, or a panic — skips every
//! checkpointed run and produces a final manifest and aggregate that are
//! **byte-identical** to an uninterrupted execution, because both are
//! composed from the stored documents in canonical cross-product order.
//!
//! Runs execute on the crate's one job runner, dispatched by the rule
//! sweeps use (longest-first with more than one worker, cross-product
//! order with one). Every checkpoint is written on the calling thread, in
//! completion order. A run that panics stops dispatch: the runs already
//! finished are still checkpointed, then its own panic is re-raised, so a
//! rerun resumes.
//!
//! Runs that hit the cycle horizon (the known seeded-kernel lock livelock
//! at wide pinned geometries) are recorded as `stuck` with a structured
//! per-node diagnosis ([`crate::StuckReport`]) instead of killing the
//! campaign; the reporter footnotes them.
//!
//! # Examples
//!
//! ```
//! use ltp_core::PolicyRegistry;
//! use ltp_system::campaign::Campaign;
//! use ltp_system::SweepSpec;
//! use ltp_workloads::Benchmark;
//!
//! let registry = PolicyRegistry::with_builtins();
//! let sweep = SweepSpec::new()
//!     .benchmark(Benchmark::Em3d)
//!     .policy_specs(&registry, &["base", "ltp"])
//!     .unwrap()
//!     .quick_geometry(4, 2);
//! let dir = std::env::temp_dir().join(format!("ltp-doc-campaign-{}", std::process::id()));
//! let summary = Campaign::new(sweep, &dir).run().unwrap();
//! assert_eq!(summary.executed, 2);
//!
//! // Running again skips everything: the store already has both runs.
//! let registry = PolicyRegistry::with_builtins();
//! let sweep = SweepSpec::new()
//!     .benchmark(Benchmark::Em3d)
//!     .policy_specs(&registry, &["base", "ltp"])
//!     .unwrap()
//!     .quick_geometry(4, 2);
//! let again = Campaign::new(sweep, &dir).run().unwrap();
//! assert_eq!(again.executed, 0);
//! assert_eq!(again.skipped, 2);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

mod aggregate;
mod hash;
mod store;

use std::collections::BTreeSet;
use std::path::PathBuf;

use ltp_core::Fingerprint;

use crate::experiment::ExperimentSpec;
use crate::stuck::RunOutcome;
use crate::sweep::SweepSpec;

pub use aggregate::{generate_reports, Artifact, FigureId};
pub use hash::{run_descriptor, run_fingerprint, STORE_FORMAT_VERSION};
pub use store::{CampaignStore, RunStatus, StoreError, StoredRun};

/// Pending/done breakdown of a campaign against its store (`--dry-run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Runs in the cross product.
    pub total: usize,
    /// Runs already checkpointed as finished.
    pub done: usize,
    /// Runs already checkpointed as stuck.
    pub stuck: usize,
    /// Runs still to execute.
    pub pending: usize,
}

/// What a finished campaign did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Runs in the cross product.
    pub total: usize,
    /// Runs executed by *this* invocation.
    pub executed: usize,
    /// Runs skipped because the store already had them (plus duplicate
    /// design points within the cross product, which execute once).
    pub skipped: usize,
    /// Runs recorded as stuck, across the whole campaign.
    pub stuck: usize,
}

/// One run just checkpointed (progress callback payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFinished {
    /// The run's cross-product index.
    pub seq: usize,
    /// The run's content hash.
    pub hash: Fingerprint,
    /// How it ended.
    pub status: RunStatus,
    /// Runs checkpointed by this invocation so far (including this one).
    pub finished: usize,
    /// Runs this invocation set out to execute.
    pub to_execute: usize,
}

/// A sweep bound to a campaign store directory.
#[derive(Debug)]
pub struct Campaign {
    sweep: SweepSpec,
    dir: PathBuf,
}

impl Campaign {
    /// Binds a sweep to a store directory (created on first run).
    pub fn new(sweep: SweepSpec, dir: impl Into<PathBuf>) -> Self {
        Campaign {
            sweep,
            dir: dir.into(),
        }
    }

    /// The pending/done breakdown without executing anything. Creates the
    /// store directory if it does not exist.
    ///
    /// # Errors
    ///
    /// Fails on store trouble (see [`StoreError`]).
    pub fn status(&self) -> Result<CampaignStatus, StoreError> {
        let runs = self.sweep.runs();
        let store = CampaignStore::open(&self.dir)?;
        let completed = store.completed()?;
        let mut status = CampaignStatus {
            total: runs.len(),
            done: 0,
            stuck: 0,
            pending: 0,
        };
        for run in &runs {
            match completed.get(&run_fingerprint(run)) {
                Some(RunStatus::Done) => status.done += 1,
                Some(RunStatus::Stuck) => status.stuck += 1,
                None => status.pending += 1,
            }
        }
        Ok(status)
    }

    /// Runs every pending run and finalizes the store.
    ///
    /// # Errors
    ///
    /// Fails on store trouble; a simulation panic is re-raised with its
    /// own payload (completed runs stay checkpointed, so a rerun resumes).
    pub fn run(&self) -> Result<CampaignSummary, StoreError> {
        self.run_with(&mut |_| {})
    }

    /// [`Campaign::run`] with a progress callback, invoked (on the calling
    /// thread) as each run is checkpointed, in completion order.
    ///
    /// # Errors
    ///
    /// Fails on store trouble.
    pub fn run_with(
        &self,
        progress: &mut dyn FnMut(RunFinished),
    ) -> Result<CampaignSummary, StoreError> {
        let runs = self.sweep.runs();
        let fingerprints: Vec<Fingerprint> = runs.iter().map(run_fingerprint).collect();
        let store = CampaignStore::open(&self.dir)?;
        let completed = store.completed()?;

        // Pending = first occurrence of each not-yet-stored hash. Duplicate
        // design points (e.g. a geometry-pinned trace repeated across the
        // geometry axis) execute once and alias in the aggregate.
        let mut claimed: BTreeSet<Fingerprint> = BTreeSet::new();
        let pending: Vec<usize> = (0..runs.len())
            .filter(|&seq| {
                !completed.contains_key(&fingerprints[seq]) && claimed.insert(fingerprints[seq])
            })
            .collect();
        let skipped = runs.len() - pending.len();

        // Checkpoints happen here, on the calling thread, in completion
        // order — each one fsync'd before the next run's result is taken,
        // so a kill at any point loses at most the in-flight runs.
        let mut finished = 0;
        self.sweep
            .dispatch(&runs, &pending, ExperimentSpec::try_run, |seq, outcome| {
                let hash = fingerprints[seq];
                let spec = run_descriptor(&runs[seq]);
                let status = match &outcome {
                    RunOutcome::Completed(report) => {
                        store.record_done(hash, &spec, report)?;
                        RunStatus::Done
                    }
                    RunOutcome::Stuck(stuck) => {
                        store.record_stuck(hash, &spec, stuck)?;
                        RunStatus::Stuck
                    }
                };
                finished += 1;
                progress(RunFinished {
                    seq,
                    hash,
                    status,
                    finished,
                    to_execute: pending.len(),
                });
                Ok(())
            })?;

        store.finalize(&fingerprints)?;
        let final_statuses = store.completed()?;
        let stuck = fingerprints
            .iter()
            .filter(|fp| final_statuses.get(fp) == Some(&RunStatus::Stuck))
            .count();
        Ok(CampaignSummary {
            total: runs.len(),
            executed: pending.len(),
            skipped,
            stuck,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use ltp_core::PolicyRegistry;
    use ltp_workloads::Benchmark;

    use crate::probe::{MetricsSection, Probe, ProbeCtx, ProbeFactory, RunInfo, SimEvent};

    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltp-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_sweep() -> SweepSpec {
        let registry = PolicyRegistry::with_builtins();
        SweepSpec::new()
            .benchmarks([Benchmark::Em3d, Benchmark::Moldyn])
            .policy_specs(&registry, &["base", "ltp:bits=13"])
            .unwrap()
            .quick_geometry(4, 2)
    }

    #[test]
    fn campaign_completes_and_resume_skips_everything() {
        let dir = tmp_dir("complete");
        let summary = Campaign::new(small_sweep(), &dir).run().unwrap();
        assert_eq!(summary.total, 4);
        assert_eq!(summary.executed, 4);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.stuck, 0);

        let status = Campaign::new(small_sweep(), &dir).status().unwrap();
        assert_eq!(status.done, 4);
        assert_eq!(status.pending, 0);

        let again = Campaign::new(small_sweep(), &dir).run().unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_matches_sweep_report_stream_exactly() {
        // The campaign aggregate is the same JSON-lines document a sweep
        // would stream: `{"run":N,...}` per run, cross-product order.
        let dir = tmp_dir("aggregate");
        Campaign::new(small_sweep(), &dir).run().unwrap();
        let aggregate =
            fs::read_to_string(CampaignStore::open(&dir).unwrap().aggregate_path()).unwrap();

        let mut sink = crate::report::JsonLinesSink::new(Vec::new());
        use crate::report::ReportSink as _;
        for (seq, run) in small_sweep().runs().iter().enumerate() {
            sink.record(seq, &run.run());
        }
        sink.finish();
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(aggregate, streamed, "aggregate == streamed sweep output");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn differing_cross_products_resume_their_intersection() {
        let registry = PolicyRegistry::with_builtins();
        let narrow = SweepSpec::new()
            .benchmark(Benchmark::Em3d)
            .policy_specs(&registry, &["base", "ltp:bits=13"])
            .unwrap()
            .quick_geometry(4, 2);
        let dir = tmp_dir("intersect");
        Campaign::new(narrow, &dir).run().unwrap();

        // The wider campaign shares em3d×{base,ltp}: only moldyn runs.
        let summary = Campaign::new(small_sweep(), &dir).run().unwrap();
        assert_eq!(summary.total, 4);
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.skipped, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A probe that panics at build time while armed — the test's stand-in
    /// for Ctrl-C/OOM mid-campaign. Its spec is constant, so armed and
    /// disarmed campaigns hash identically.
    #[derive(Debug)]
    struct Bomb(Arc<AtomicBool>);

    #[derive(Debug)]
    struct InertProbe;

    impl Probe for InertProbe {
        fn on_event(&mut self, _ctx: &ProbeCtx, _event: &SimEvent) {}
        fn finish(self: Box<Self>) -> Option<MetricsSection> {
            None
        }
    }

    impl ProbeFactory for Bomb {
        fn name(&self) -> &str {
            "test-bomb"
        }
        fn build(&self, info: &RunInfo) -> Box<dyn Probe> {
            if self.0.load(Ordering::SeqCst) && info.workload_name == "moldyn" {
                panic!("simulated mid-campaign abort");
            }
            Box::new(InertProbe)
        }
    }

    fn bombed_sweep(armed: &Arc<AtomicBool>, workers: usize) -> SweepSpec {
        small_sweep()
            .threads(workers)
            .probe(Arc::new(Bomb(Arc::clone(armed))))
    }

    /// Aborts a campaign on `workers` threads, resumes it, and requires the
    /// store a never-interrupted campaign writes.
    fn abort_and_resume(workers: usize) {
        let armed = Arc::new(AtomicBool::new(true));
        let dir = tmp_dir(&format!("abort-{workers}"));

        // The first attempt dies on a moldyn run; the bomb's own message
        // reaches the caller.
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(bombed_sweep(&armed, workers), &dir).run()
        }));
        let payload = aborted.expect_err("the bomb must abort the campaign");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"simulated mid-campaign abort")
        );

        let status = Campaign::new(bombed_sweep(&armed, workers), &dir)
            .status()
            .unwrap();
        assert_eq!(status.done + status.pending, status.total);
        if workers == 1 {
            // Cross-product order: em3d×base and em3d×ltp were checkpointed
            // before moldyn×base 💥, and nothing started after it.
            assert_eq!(status.done, 2);
            assert_eq!(status.pending, 2);
        }

        // Resume executes only the remainder.
        armed.store(false, Ordering::SeqCst);
        let summary = Campaign::new(bombed_sweep(&armed, workers), &dir)
            .run()
            .unwrap();
        assert_eq!(summary.executed, status.pending);
        assert_eq!(summary.skipped, status.done);

        // Byte-identical to a never-interrupted campaign.
        let clean_dir = tmp_dir(&format!("abort-clean-{workers}"));
        Campaign::new(bombed_sweep(&armed, workers), &clean_dir)
            .run()
            .unwrap();
        for file in ["manifest.jsonl", "campaign.jsonl"] {
            let resumed = fs::read(dir.join(file)).unwrap();
            let clean = fs::read(clean_dir.join(file)).unwrap();
            assert_eq!(resumed, clean, "{file} differs after resume");
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&clean_dir).unwrap();
    }

    #[test]
    fn aborted_campaign_resumes_to_a_byte_identical_store() {
        abort_and_resume(1);
        abort_and_resume(2);
    }

    #[test]
    fn progress_callback_sees_every_executed_run() {
        let dir = tmp_dir("progress");
        let mut events = Vec::new();
        Campaign::new(small_sweep().serial(), &dir)
            .run_with(&mut |e| events.push(e))
            .unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events.last().unwrap().finished, 4);
        assert_eq!(events.last().unwrap().to_execute, 4);
        assert!(events.iter().all(|e| e.status == RunStatus::Done));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_campaign_aggregate_matches_serial() {
        let dir_serial = tmp_dir("par-s");
        let dir_parallel = tmp_dir("par-p");
        Campaign::new(small_sweep().serial(), &dir_serial)
            .run()
            .unwrap();
        Campaign::new(small_sweep().threads(4), &dir_parallel)
            .run()
            .unwrap();
        for file in ["manifest.jsonl", "campaign.jsonl"] {
            let serial = fs::read(dir_serial.join(file)).unwrap();
            let parallel = fs::read(dir_parallel.join(file)).unwrap();
            assert_eq!(serial, parallel, "{file} differs under parallelism");
        }
        fs::remove_dir_all(&dir_serial).unwrap();
        fs::remove_dir_all(&dir_parallel).unwrap();
    }
}
