//! `predict`: the default predictor zoo raced over the suite through
//! `PredictSpec` on two threads — the un-timed coherence replay plus
//! predictor tables, no machine. A change to the predictor tables shows
//! here and barely on `shard128`.

use std::sync::Arc;

use ltp_core::PolicyRegistry;
use ltp_system::predict::{PredictRow, PredictSpec, DEFAULT_ZOO};
use ltp_system::{RunReport, SweepSpec};
use ltp_workloads::{Benchmark, Trace};

use crate::harness::{
    by_benchmark, closed_loop, guarded, ltp_means, mean, timed, Config, EndToEnd, Layers, Outcome,
};
use crate::shim::{self, Tally, TimedFactory};

const THREADS: usize = 2;

/// The suite recorded into traces at the benchmark's geometry.
fn record(cfg: &Config) -> Vec<Arc<Trace>> {
    let (benchmarks, params): (&[Benchmark], _) = if cfg.tiny {
        (&[Benchmark::Em3d, Benchmark::Ocean], cfg.params(4, Some(6)))
    } else {
        (&Benchmark::ALL, cfg.params(32, None))
    };
    benchmarks
        .iter()
        .map(|&b| Arc::new(Trace::record(b, &params)))
        .collect()
}

fn tournament(traces: &[Arc<Trace>], zoo: &[&str], tally: Option<&Arc<Tally>>) -> PredictSpec {
    let registry = PolicyRegistry::with_builtins();
    let mut spec = PredictSpec::new().threads(THREADS);
    for trace in traces {
        spec = spec.trace(Arc::clone(trace));
    }
    for name in zoo {
        let factory = registry.parse(name).expect("zoo specs parse");
        spec = spec.policy(match tally {
            Some(t) => TimedFactory::wrap(factory, t),
            None => factory,
        });
    }
    spec
}

/// Rows with their host timing cleared, for comparison.
fn untimed(mut rows: Vec<PredictRow>) -> Vec<PredictRow> {
    for row in &mut rows {
        row.elapsed_nanos = 0;
    }
    rows
}

/// Counts the rows that differ from `expected`, and `oracle` rows that do
/// not score 100% accuracy and 100% coverage.
fn check_rows(rows: &[PredictRow], expected: &[PredictRow]) -> u64 {
    let mismatched = (0..expected.len())
        .filter(|&i| {
            rows.get(i).map(|r| PredictRow {
                elapsed_nanos: 0,
                ..r.clone()
            }) != Some(expected[i].clone())
        })
        .count();
    let imperfect_oracle = rows
        .iter()
        .filter(|r| r.spec == "oracle")
        .filter(|r| r.stats.accuracy_pct() != Some(100.0) || r.stats.coverage_pct() != Some(100.0))
        .count();
    (mismatched + imperfect_oracle) as u64
}

/// One job: the tournament, checked. Returns the rows and the wall seconds.
fn job(spec: &PredictSpec, expected: &[PredictRow], out: &mut Outcome) -> (Vec<PredictRow>, f64) {
    let (rows, wall) = timed(|| guarded(|| spec.execute()));
    let rows = rows.unwrap_or_default();
    out.gate(expected.len() as u64, check_rows(&rows, expected));
    (rows, wall)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let zoo: &[&str] = if cfg.tiny {
        &["ltp:bits=13", "oracle"]
    } else {
        &DEFAULT_ZOO
    };
    let mut e2e = EndToEnd::default();
    let (traces, setup_s) = timed(|| record(cfg));
    e2e.setup(setup_s);
    let spec = tournament(&traces, zoo, None);
    let expected = untimed(spec.clone().serial().execute());
    e2e.ops = expected.iter().map(|r| r.ops).sum();
    e2e.events = expected.iter().map(|r| r.stats.touches).sum();

    if !cfg.trace {
        closed_loop(cfg.seconds, || {
            let (traces, setup_s) = timed(|| record(cfg));
            e2e.setup(setup_s);
            let (_, wall) = job(&tournament(&traces, zoo, None), &expected, &mut out);
            e2e.job(&[wall]);
        });
        // The replay has no clock: the Fig. 9 and Fig. 6 analogs come from
        // the machine over the same traces, outside the timed region.
        let registry = PolicyRegistry::with_builtins();
        let mut sweep = SweepSpec::new()
            .policy_specs(&registry, &["base", "ltp"])
            .expect("built-in policies parse")
            .threads(THREADS);
        for trace in &traces {
            sweep = sweep.trace(Arc::clone(trace));
        }
        let reports: Vec<RunReport> = sweep.collect();
        (e2e.ltp_speedup_mean, e2e.ltp_predicted_pct_mean) = ltp_means(by_benchmark(&reports));
        out.walls = e2e.walls();
        out.metrics = e2e.metrics();
        return Ok(out);
    }

    let tally = Arc::new(Tally::default());
    let traced_spec = tournament(&traces, zoo, Some(&tally));
    let (mut plain, mut traced, mut replay_s) = (Vec::new(), Vec::new(), 0.0);
    closed_loop(cfg.seconds, || {
        plain.push(job(&spec, &expected, &mut out).1);
        let (rows, wall) = job(&traced_spec, &expected, &mut out);
        traced.push(wall);
        replay_s += rows
            .iter()
            .map(|r| r.elapsed_nanos as f64 * 1e-9)
            .sum::<f64>();
    });
    let mut layers = Layers::default();
    layers.shims(&tally.snapshot(), traced.len());
    // `PredictSpec` builds its programs inside each job, out of reach of a
    // shim; decode is timed in isolation instead, over the same programs,
    // once per time the tournament drains them (each predictor, plus the
    // oracle's ground-truth pass).
    let decode = Arc::new(Tally::default());
    let mut open_s = 0.0;
    for trace in &traces {
        let (programs, s) = timed(|| Trace::programs(trace));
        open_s += s;
        for mut p in shim::programs(programs, &decode) {
            while p.next_op().is_some() {}
        }
    }
    let drains = (zoo.len() + usize::from(zoo.contains(&"oracle"))) as f64;
    let d = decode.snapshot();
    layers.next_op_s = d.next_op_ns as f64 * 1e-9 * drains;
    layers.ns_per_op = d.next_op_ns as f64 / d.ops.max(1) as f64;
    layers.open_s = open_s * drains;
    // Row times cover decode, the policies and the replay engine; the
    // ground-truth pass runs before the rows, on one thread.
    let thread_s = replay_s / traced.len() as f64;
    layers.account(mean(&traced), mean(&plain), thread_s, THREADS);
    out.walls = plain;
    out.metrics = layers.metrics();
    Ok(out)
}
