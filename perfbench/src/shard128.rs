//! `shard128`: em3d, tomcatv and ocean at 128 nodes under `ltp`, each run
//! split over two shards. Window rendezvous and the boundary wait dominate,
//! so a change to the shard engine shows here and nowhere else.

use std::sync::Arc;

use ltp_system::{ExperimentSpec, RunReport};
use ltp_workloads::{Benchmark, Program};

use crate::harness::{
    by_benchmark, closed_loop, guarded_run, lower_quartile, ltp_means, mean, ratio, run_machine,
    timed, Config, EndToEnd, Layers, MachineTotals, Outcome,
};
use crate::shim::Tally;

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Em3d, Benchmark::Tomcatv, Benchmark::Ocean];
const SHARDS: usize = 2;

fn specs(cfg: &Config, policy: &str, shards: usize) -> Vec<ExperimentSpec> {
    let params = if cfg.tiny {
        cfg.params(8, Some(4))
    } else {
        cfg.params(128, Some(4))
    };
    BENCHMARKS
        .iter()
        .map(|&b| {
            ExperimentSpec::builder(b)
                .policy_spec(policy)
                .expect("built-in policy parses")
                .workload(params)
                .shards(shards)
                .build()
        })
        .collect()
}

/// Builds every spec's programs: the job's inputs.
fn programs(specs: &[ExperimentSpec]) -> Vec<Vec<Box<dyn Program>>> {
    specs
        .iter()
        .map(|s| {
            s.source
                .programs(&s.workload)
                .expect("synthetic kernels build at two or more nodes")
        })
        .collect()
}

/// One job: every spec on the machine, checked against the serial reports.
/// Returns each run's wall seconds and the machine totals.
fn job(
    specs: &[ExperimentSpec],
    inputs: Vec<Vec<Box<dyn Program>>>,
    expected: &[String],
    tally: Option<&Arc<Tally>>,
    out: &mut Outcome,
) -> (Vec<f64>, MachineTotals) {
    let mut totals = MachineTotals::default();
    let mut walls = Vec::new();
    let mut failed = 0;
    for ((spec, programs), want) in specs.iter().zip(inputs).zip(expected) {
        let (run, wall) = timed(|| guarded_run("shard128", || run_machine(spec, programs, tally)));
        walls.push(wall);
        match run {
            Some(run) => {
                failed += u64::from(&run.report.to_json() != want);
                totals.add(&run);
            }
            None => failed += 1,
        }
    }
    out.gate(specs.len() as u64, failed);
    (walls, totals)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sharded = specs(cfg, "ltp", SHARDS);
    let serial = specs(cfg, "ltp", 1);
    // The gate: each sharded report equals a serial run of the same spec,
    // made through `ExperimentSpec` outside the timed region.
    let mut reports: Vec<RunReport> = serial.iter().map(ExperimentSpec::run).collect();
    let expected: Vec<String> = reports.iter().map(RunReport::to_json).collect();
    reports.extend(specs(cfg, "base", 1).iter().map(ExperimentSpec::run));

    let mut e2e = EndToEnd::default();
    e2e.ops = sharded
        .iter()
        .filter_map(|s| s.estimated_ops().map(|e| e.ops))
        .sum();
    e2e.events = reports[..serial.len()]
        .iter()
        .map(|r| r.events_handled)
        .sum();
    (e2e.ltp_speedup_mean, e2e.ltp_predicted_pct_mean) = ltp_means(by_benchmark(&reports));

    if !cfg.trace {
        closed_loop(cfg.seconds, || {
            let (inputs, setup_s) = timed(|| programs(&sharded));
            e2e.setup(setup_s);
            e2e.job(&job(&sharded, inputs, &expected, None, &mut out).0);
        });
        out.walls = e2e.walls();
        out.metrics = e2e.metrics();
        return Ok(out);
    }

    let tally = Arc::new(Tally::default());
    let (mut plain, mut traced, mut serial_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced_totals) = (MachineTotals::default(), MachineTotals::default());
    closed_loop(cfg.seconds, || {
        let (walls, totals) = job(&sharded, programs(&sharded), &expected, None, &mut out);
        plain.push(walls.iter().sum());
        untraced.merge(&totals);

        let (walls, totals) = job(
            &sharded,
            programs(&sharded),
            &expected,
            Some(&tally),
            &mut out,
        );
        traced.push(walls.iter().sum());
        traced_totals.merge(&totals);

        let (walls, _) = job(&serial, programs(&serial), &expected, None, &mut out);
        serial_walls.push(walls.iter().sum());
    });
    let counts = tally.snapshot();
    let mut layers = Layers::default();
    layers.shims(&counts, traced.len());
    layers.machine(&traced_totals, &counts, traced.len());
    layers.shards(&untraced, plain.len());
    layers.speedup_vs_serial = ratio(lower_quartile(&serial_walls), lower_quartile(&plain));
    let thread_s = layers.job_thread_s();
    layers.account(mean(&traced), mean(&plain), thread_s, SHARDS);
    out.walls = plain;
    out.metrics = layers.metrics();
    Ok(out)
}
