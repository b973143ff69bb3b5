//! `paper32`: the committed Fig./Table cross product — the nine benchmarks
//! under `base`, `dsi` and `ltp` on the 32-node machine at default
//! iterations — run through `Campaign` into a fresh store with two sweep
//! workers, as a user reproducing the paper runs it.
//!
//! Many short serial runs: the machine core, the policies, the sweep
//! scheduler and the store's fsyncs do the work; the shard engine and probes
//! do none.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use ltp_core::PolicyRegistry;
use ltp_system::campaign::Campaign;
use ltp_system::{ExperimentSpec, RunReport, SweepSpec};
use ltp_workloads::Benchmark;

use crate::harness::{
    by_benchmark, closed_loop, guarded, guarded_run, lower_quartile, ltp_means, mean, ratio,
    run_machine, timed, Config, EndToEnd, Layers, MachineTotals, Outcome, WorkDir,
};
use crate::shim::Tally;

const WORKERS: usize = 2;

/// The committed store, relative to the benchmark's directory.
const COMMITTED: &str = "../reports/campaign-isca00";

/// The sweep, its runs in cross-product order, the longest-first dispatch
/// order, and the program ops of one whole campaign.
struct Inputs {
    sweep: SweepSpec,
    runs: Vec<ExperimentSpec>,
    order: Vec<usize>,
    ops: u64,
}

fn build_inputs(cfg: &Config) -> Inputs {
    let registry = PolicyRegistry::with_builtins();
    let (benchmarks, policies, params): (&[Benchmark], &[&str], _) = if cfg.tiny {
        (
            &[Benchmark::Em3d, Benchmark::Ocean],
            &["base", "ltp"],
            cfg.params(4, Some(6)),
        )
    } else {
        (
            &Benchmark::ALL,
            &["base", "dsi", "ltp"],
            cfg.params(32, None),
        )
    };
    let sweep = SweepSpec::new()
        .benchmarks(benchmarks.iter().copied())
        .policy_specs(&registry, policies)
        .expect("built-in policies parse")
        .geometry(params)
        .threads(WORKERS);
    let runs = sweep.runs();
    let schedule = SweepSpec::schedule_for(&runs);
    Inputs {
        ops: schedule.iter().filter_map(|(_, e)| e.map(|e| e.ops)).sum(),
        order: schedule.into_iter().map(|(seq, _)| seq).collect(),
        sweep,
        runs,
    }
}

/// The expected store contents: `campaign.jsonl` lines, and the
/// `manifest.jsonl` lines once known.
struct Expected {
    campaign: Vec<String>,
    manifest: Option<Vec<String>>,
}

fn lines(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .map(|s| s.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

/// Counts the runs whose `campaign.jsonl` or `manifest.jsonl` line in the
/// store at `dir` differs from `expected`, or that did not finish. Learns
/// the manifest from the first store checked when none is expected yet.
fn check_store(dir: &Path, expected: &mut Expected) -> u64 {
    let campaign = lines(&dir.join("campaign.jsonl"));
    let manifest = lines(&dir.join("manifest.jsonl"));
    let want_manifest = expected.manifest.get_or_insert_with(|| manifest.clone());
    let header_ok = manifest.first() == want_manifest.first();
    (0..expected.campaign.len())
        .filter(|&i| {
            let line = manifest.get(i + 1);
            !header_ok
                || campaign.get(i) != Some(&expected.campaign[i])
                || line != want_manifest.get(i + 1)
                || !line.is_some_and(|l| l.contains("\"status\":\"done\""))
        })
        .count() as u64
}

/// Runs the campaign into a fresh store and checks it; returns the wall
/// seconds of `Campaign::run`.
fn campaign_job(inputs: &Inputs, store: &Path, expected: &mut Expected, out: &mut Outcome) -> f64 {
    let _ = fs::remove_dir_all(store);
    let campaign = Campaign::new(inputs.sweep.clone(), store);
    let (result, wall) = timed(|| guarded(|| campaign.run()));
    let n = expected.campaign.len() as u64;
    let failed = match result {
        Some(Ok(_)) => check_store(store, expected),
        Some(Err(e)) => {
            eprintln!("paper32: campaign failed: {e}");
            n
        }
        None => n,
    };
    out.gate(n, failed);
    let _ = fs::remove_dir_all(store);
    wall
}

/// `SweepSpec::collect` over the same sweep: the reference the campaign's
/// lines must equal away from the paper's seed. Returns the reports and
/// the wall seconds.
fn collect(inputs: &Inputs) -> (Vec<RunReport>, f64) {
    timed(|| inputs.sweep.collect())
}

fn render(reports: &[RunReport]) -> Vec<String> {
    reports
        .iter()
        .enumerate()
        .map(|(seq, r)| r.to_json_tagged(Some(seq)))
        .collect()
}

/// Runs every run of the sweep through the outside-in machine runner on
/// [`WORKERS`] threads, longest first, as `SweepSpec` dispatches them.
/// Returns the machine totals, the worker busy seconds, and the runs whose
/// report differs from `expected`.
fn harness_sweep(
    inputs: &Inputs,
    expected: &[String],
    tally: Option<&Arc<Tally>>,
) -> (MachineTotals, f64, u64) {
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(MachineTotals, f64, u64)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut totals = MachineTotals::default();
                    let (mut busy, mut failed) = (0.0, 0u64);
                    while let Some(&seq) = inputs.order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let start = Instant::now();
                        let spec = &inputs.runs[seq];
                        let run = guarded_run("paper32", || {
                            let (programs, open) = timed(|| spec.source.programs(&spec.workload));
                            totals.open_ns += (open * 1e9) as u64;
                            run_machine(spec, programs.map_err(|e| e.to_string())?, tally)
                        });
                        match run {
                            Some(run) => {
                                failed += u64::from(
                                    run.report.to_json_tagged(Some(seq)) != expected[seq],
                                );
                                totals.add(&run);
                            }
                            None => failed += 1,
                        }
                        busy += start.elapsed().as_secs_f64();
                    }
                    (totals, busy, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("harness workers catch run panics"))
            .collect()
    });
    per_worker.into_iter().fold(
        (MachineTotals::default(), 0.0, 0),
        |(mut totals, busy, failed), (t, b, f)| {
            totals.merge(&t);
            (totals, busy + b, failed + f)
        },
    )
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new("paper32").map_err(|e| e.to_string())?;
    let store = work.path().join("store");
    let mut e2e = EndToEnd::default();
    let (inputs, setup_s) = timed(|| build_inputs(cfg));
    e2e.setup(setup_s);

    let (reference, collect_s) = collect(&inputs);
    let mut expected = Expected {
        campaign: render(&reference),
        manifest: None,
    };
    if cfg.seed == 0 && !cfg.tiny {
        // At the paper's seed the store must be the committed one, byte for
        // byte.
        let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(COMMITTED);
        expected.campaign = lines(&committed.join("campaign.jsonl"));
        expected.manifest = Some(lines(&committed.join("manifest.jsonl")));
        if expected.campaign.is_empty() {
            return Err(format!("{} is missing", committed.display()));
        }
    }
    e2e.ops = inputs.ops;
    e2e.events = reference.iter().map(|r| r.events_handled).sum();
    (e2e.ltp_speedup_mean, e2e.ltp_predicted_pct_mean) = ltp_means(by_benchmark(&reference));

    if !cfg.trace {
        closed_loop(cfg.seconds, || {
            let (inputs, setup_s) = timed(|| build_inputs(cfg));
            e2e.setup(setup_s);
            let wall = campaign_job(&inputs, &store, &mut expected, &mut out);
            e2e.job(&[wall]);
        });
        out.walls = e2e.walls();
        out.metrics = e2e.metrics();
        return Ok(out);
    }

    let tally = Arc::new(Tally::default());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut campaigns, mut collects) = (Vec::new(), vec![collect_s]);
    let (mut untraced, mut traced_totals) = (MachineTotals::default(), MachineTotals::default());
    let mut worker_s = 0.0;
    let n = expected.campaign.len() as u64;
    closed_loop(cfg.seconds, || {
        let ((totals, busy, failed), wall) =
            timed(|| harness_sweep(&inputs, &expected.campaign, None));
        out.gate(n, failed);
        untraced.merge(&totals);
        worker_s += busy;
        plain.push(wall);

        let ((totals, _, failed), wall) =
            timed(|| harness_sweep(&inputs, &expected.campaign, Some(&tally)));
        out.gate(n, failed);
        traced_totals.merge(&totals);
        traced.push(wall);

        campaigns.push(campaign_job(&inputs, &store, &mut expected, &mut out));
        let (reports, wall) = collect(&inputs);
        let rendered = render(&reports);
        let failed = (0..rendered.len())
            .filter(|&i| expected.campaign.get(i) != Some(&rendered[i]))
            .count();
        out.gate(n, failed as u64);
        collects.push(wall);
    });
    let counts = tally.snapshot();
    let mut layers = Layers::default();
    layers.shims(&counts, traced.len());
    layers.machine(&traced_totals, &counts, traced.len());
    layers.shards(&untraced, plain.len());
    layers.checkpoint_s = lower_quartile(&campaigns) - lower_quartile(&collects);
    layers.worker_util = ratio(worker_s, WORKERS as f64 * plain.iter().sum::<f64>());
    let thread_s = layers.job_thread_s();
    layers.account(mean(&traced), mean(&plain), thread_s, WORKERS);
    out.walls = plain;
    out.metrics = layers.metrics();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_run_counts_as_one_failed_op() {
        let cfg = Config {
            seed: 5,
            seconds: 0.0,
            trace: false,
            tiny: true,
        };
        let inputs = build_inputs(&cfg);
        let mut expected = Expected {
            campaign: render(&collect(&inputs).0),
            manifest: None,
        };
        let work = WorkDir::new("paper32-test").unwrap();
        let store = work.path().join("store");
        let mut out = Outcome::default();
        campaign_job(&inputs, &store, &mut expected, &mut out);
        assert_eq!((out.attempted, out.failed), (4, 0));
        expected.campaign[1] = expected.campaign[1].replacen("\"misses\":", "\"misses\":9", 1);
        campaign_job(&inputs, &store, &mut expected, &mut out);
        assert_eq!((out.attempted, out.failed), (8, 1));
    }
}
