//! `stream-check`: seeded random traces, each replayed incrementally from
//! its `.ltrace` file (`StreamingTrace`) on the 32-node machine under `ltp`,
//! with the `check` coherence sanitizer attached, on one shard. The traces
//! are random and flat, so decode does real work; this is the only workload
//! that measures streamed decode and the probe observer thread.

use std::path::Path;
use std::sync::Arc;

use ltp_core::JsonValue;
use ltp_system::{ExperimentSpec, RunReport};
use ltp_workloads::{random_trace, StreamingTrace, Trace, WorkloadParams, WorkloadSource};

use crate::harness::{
    closed_loop, guarded_run, lower_quartile, ltp_means, mean, ratio, run_machine, timed, Config,
    EndToEnd, Layers, MachineTotals, Outcome, WorkDir,
};
use crate::shim::Tally;

/// Independent random traces per job: the share of invalidations `ltp`
/// predicts on one random trace varies by about a fifth from seed to seed,
/// and averaging several keeps the run-to-run spread small.
const TRACES: u64 = 4;

/// Approximate ops per node of each generated trace.
const OPS_PER_NODE: u64 = 10_000;

/// The sanitizer's violation count in `report`, if it ran.
fn violations(report: &RunReport) -> Option<u64> {
    let section = report.sections.iter().find(|s| s.name == "check")?;
    let JsonValue::Object(fields) = &section.data else {
        return None;
    };
    fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("violations", JsonValue::U64(n)) => Some(*n),
        _ => None,
    })
}

fn spec(source: impl Into<WorkloadSource>, policy: &str, check: bool) -> ExperimentSpec {
    let builder = ExperimentSpec::builder(source)
        .policy_spec(policy)
        .expect("built-in policy parses");
    if check {
        builder
            .probe_spec("check")
            .expect("built-in probe parses")
            .build()
    } else {
        builder.build()
    }
}

/// One seeded random trace: in memory for the references, and opened from
/// its file for streamed replay.
struct Input {
    buffered: Arc<Trace>,
    streamed: Arc<StreamingTrace>,
}

fn generate(cfg: &Config, dir: &Path) -> Result<Vec<Input>, String> {
    let (nodes, ops_per_node) = if cfg.tiny {
        (8, 4_000)
    } else {
        (32, OPS_PER_NODE)
    };
    (0..TRACES)
        .map(|k| {
            let params = WorkloadParams {
                seed: cfg.workload_seed().wrapping_add(k << 32),
                ..cfg.params(nodes, None)
            };
            let trace = random_trace(&params, ops_per_node);
            let path = dir.join(format!("random-{k}.ltrace"));
            trace.save(&path).map_err(|e| e.to_string())?;
            let streamed = StreamingTrace::open(&path).map_err(|e| e.to_string())?;
            Ok(Input {
                buffered: Arc::new(trace),
                streamed: Arc::new(streamed),
            })
        })
        .collect()
}

/// The reports streamed replays under `ltp` must equal, with or without
/// the sanitizer: buffered replay of each trace, made outside the timed
/// region.
fn references(inputs: &[Input], check: bool) -> Vec<RunReport> {
    inputs
        .iter()
        .map(|i| spec(Arc::clone(&i.buffered), "ltp", check).run())
        .collect()
}

/// One job: streamed replay of every input, each checked against its
/// buffered report and for sanitizer violations. Returns each replay's wall
/// seconds and the machine totals.
fn job(
    inputs: &[Input],
    check: bool,
    expected: &[String],
    tally: Option<&Arc<Tally>>,
    out: &mut Outcome,
) -> (Vec<f64>, MachineTotals) {
    let mut totals = MachineTotals::default();
    let mut walls = Vec::new();
    let mut failed = 0;
    for (input, expected) in inputs.iter().zip(expected) {
        let spec = spec(Arc::clone(&input.streamed), "ltp", check);
        let (run, wall) = timed(|| {
            guarded_run("stream-check", || {
                let (programs, open) = timed(|| StreamingTrace::programs(&input.streamed));
                totals.open_ns += (open * 1e9) as u64;
                run_machine(&spec, programs.map_err(|e| e.to_string())?, tally)
            })
        });
        walls.push(wall);
        let ok = run.is_some_and(|run| {
            totals.add(&run);
            let clean = !check || violations(&run.report) == Some(0);
            clean && &run.report.to_json() == expected
        });
        failed += u64::from(!ok);
    }
    out.gate(inputs.len() as u64, failed);
    (walls, totals)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new("stream-check").map_err(|e| e.to_string())?;
    let mut e2e = EndToEnd::default();
    let (inputs, setup_s) = timed(|| generate(cfg, work.path()));
    e2e.setup(setup_s);
    let inputs = inputs?;
    let checked = references(&inputs, true);
    let expected: Vec<String> = checked.iter().map(RunReport::to_json).collect();
    e2e.ops = inputs.iter().map(|i| i.buffered.total_ops()).sum();
    e2e.events = checked.iter().map(|r| r.events_handled).sum();

    if !cfg.trace {
        closed_loop(cfg.seconds, || {
            let (inputs, setup_s) = timed(|| generate(cfg, work.path()));
            e2e.setup(setup_s);
            match inputs {
                Ok(inputs) => e2e.job(&job(&inputs, true, &expected, None, &mut out).0),
                Err(e) => {
                    eprintln!("stream-check: {e}");
                    out.gate(TRACES, TRACES);
                }
            }
        });
        // Each trace's `ltp` report against a `base` run of the same trace.
        let base: Vec<RunReport> = inputs
            .iter()
            .map(|i| spec(Arc::clone(&i.buffered), "base", false).run())
            .collect();
        (e2e.ltp_speedup_mean, e2e.ltp_predicted_pct_mean) = ltp_means(base.iter().zip(&checked));
        out.walls = e2e.walls();
        out.metrics = e2e.metrics();
        return Ok(out);
    }

    let expected_bare: Vec<String> = references(&inputs, false)
        .iter()
        .map(RunReport::to_json)
        .collect();
    let tally = Arc::new(Tally::default());
    let (mut plain, mut bare, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced_totals) = (MachineTotals::default(), MachineTotals::default());
    closed_loop(cfg.seconds, || {
        let (walls, totals) = job(&inputs, true, &expected, None, &mut out);
        plain.push(walls.iter().sum());
        untraced.merge(&totals);
        let (walls, _) = job(&inputs, false, &expected_bare, None, &mut out);
        bare.push(walls.iter().sum());
        let (walls, totals) = job(&inputs, true, &expected, Some(&tally), &mut out);
        traced.push(walls.iter().sum());
        traced_totals.merge(&totals);
    });
    let counts = tally.snapshot();
    let mut layers = Layers::default();
    layers.shims(&counts, traced.len());
    layers.machine(&traced_totals, &counts, traced.len());
    layers.shards(&untraced, plain.len());
    layers.probe_overhead_frac = ratio(
        lower_quartile(&plain) - lower_quartile(&bare),
        lower_quartile(&bare),
    );
    let thread_s = layers.job_thread_s();
    layers.account(mean(&traced), mean(&plain), thread_s, 1);
    out.walls = plain;
    out.metrics = layers.metrics();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_report_counts_as_a_failed_op() {
        let cfg = Config {
            seed: 2,
            seconds: 0.0,
            trace: false,
            tiny: true,
        };
        let work = WorkDir::new("stream-check-test").unwrap();
        let inputs = generate(&cfg, work.path()).unwrap();
        let mut expected: Vec<String> = references(&inputs, true)
            .iter()
            .map(RunReport::to_json)
            .collect();
        let mut out = Outcome::default();
        job(&inputs, true, &expected, None, &mut out);
        assert_eq!((out.attempted, out.failed), (TRACES, 0));
        expected[1] = expected[1].replacen("\"misses\":", "\"misses\":9", 1);
        job(&inputs, true, &expected, None, &mut out);
        assert_eq!((out.attempted, out.failed), (2 * TRACES, 1));
    }
}
