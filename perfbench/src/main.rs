//! The repository's benchmark: the simulator's host speed and the paper's
//! results, measured end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper32 --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Each workload is a closed loop — one job at a time, from one process —
//! that runs for `--seconds`, checks every job's output, and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (each `{"value", "unit"}`). With
//! `--trace 0` the metrics are the end-to-end ones; `--trace 1` runs the
//! same jobs behind timing shims at the public layer boundaries and prints
//! the per-layer ones. The line before it records the host and the spread.
//! `BENCHMARK.json` at the repository root lists every workload and metric.

mod harness;
mod paper32;
mod predict;
mod shard128;
mod shim;
mod stream_check;

use std::process::{Command, ExitCode};

use ltp_core::{JsonObject, JsonValue};

use harness::{quartiles, Config, Outcome};

const WORKLOADS: [&str; 4] = ["paper32", "shard128", "predict", "stream-check"];

const USAGE: &str = "usage: perfbench --workload <paper32|shard128|predict|stream-check> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: impl IntoIterator<Item = String>) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 15.0,
        trace: false,
        tiny: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "paper32" => paper32::run(cfg),
        "shard128" => shard128::run(cfg),
        "predict" => predict::run(cfg),
        "stream-check" => stream_check::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Whether the result is correct: at least one operation, none failed, and
/// in a traced run the layers account for no more than the wall time.
fn correct(outcome: &Outcome) -> bool {
    let residual_ok = outcome
        .metrics
        .iter()
        .find(|m| m.name == "trace.residual_s")
        .is_none_or(|m| m.value >= 0.0);
    outcome.attempted > 0 && outcome.failed == 0 && residual_ok
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = JsonObject::new();
    for m in &outcome.metrics {
        metrics.push(
            m.name,
            JsonObject::new()
                .field("value", m.value)
                .field("unit", m.unit)
                .build(),
        );
    }
    JsonObject::new()
        .field("correct", correct(outcome))
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics.build())
        .build()
        .render()
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn meta_line(workload: &str, cfg: &Config, outcome: &Outcome) -> String {
    let (q1, median, q3) = quartiles(&outcome.walls);
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let meta = JsonObject::new()
        .field("workload", workload)
        .field("seed", cfg.seed)
        .field("workload_seed", cfg.workload_seed())
        .field("seconds", cfg.seconds)
        .field("trace", cfg.trace)
        .field("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .field("nproc", nproc as u64)
        .field("rustc", command_line("rustc", &["--version"]))
        .field("acceptance_metric", "wall_s")
        .field("repeats", outcome.walls.len() as u64)
        .field(
            "wall_samples_s",
            outcome
                .walls
                .iter()
                .map(|&w| JsonValue::F64(w))
                .collect::<Vec<_>>(),
        )
        .field(
            "wall_s",
            JsonObject::new()
                .field("median", median)
                .field("q1", q1)
                .field("q3", q3)
                .build(),
        )
        .build();
    JsonObject::new().field("meta", meta).build().render()
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &cfg) {
        Ok(outcome) => {
            println!("{}", meta_line(&workload, &cfg, &outcome));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = ltp_core::parse_json(&text).expect("BENCHMARK.json parses");
        let field = |v: &JsonValue, k: &str| match v {
            JsonValue::Object(fields) => {
                fields.iter().find(|(f, _)| f == k).map(|(_, v)| v.clone())
            }
            _ => None,
        };
        let Some(JsonValue::Array(list)) = field(&doc, key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        list.iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Some(JsonValue::Str(n)), Some(JsonValue::Str(u))) => (n, u),
                other => panic!("malformed metric {other:?}"),
            })
            .collect()
    }

    #[test]
    fn tiny_runs_print_every_declared_metric_with_its_unit() {
        for trace in [false, true] {
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            for workload in WORKLOADS {
                let cfg = Config {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    tiny: true,
                };
                let outcome = run(workload, &cfg).expect("tiny run");
                let got: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{workload} trace={trace}");
                assert!(correct(&outcome), "{workload} trace={trace}: {outcome:?}");
                let line = ltp_core::parse_json(&result_line(&outcome)).expect("result parses");
                let JsonValue::Object(fields) = line else {
                    panic!("result is not an object");
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{workload}: {} is {}", m.name, m.value);
                    // Tiny inputs are too short for `ltp` to learn from.
                    let timed = !trace && !m.name.starts_with("ltp_");
                    assert!(!timed || m.value > 0.0, "{workload}: {} is 0", m.name);
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (w, cfg) = parse(args("--workload predict --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("predict", 7, 2.0, true)
        );
        assert!(parse(args("--workload nope")).is_err());
        assert!(parse(args("--workload predict --trace 2")).is_err());
        assert!(parse(args("--seed 1")).is_err());
    }
}
