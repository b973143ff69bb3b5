//! Golden-report tests: `reports/predictors.md` is regenerated from the
//! committed trace, and `tests/data/golden_predict_mixed.md` from the
//! suite plus three random traces; each must match byte for byte.
//!
//! The committed report is the human-readable face of the predictor zoo;
//! this test (and the matching CI step, which regenerates it through the
//! `ltp predict` CLI) pins it to the code. If a predictor, the replay
//! engine, or the renderer changes behaviour, the diff shows up here —
//! regenerate with:
//!
//! ```text
//! cargo run --release -- predict -t tests/data/em3d-4node-3iter.v1.ltrace \
//!     --report reports/predictors.md --quiet
//! ```

use std::sync::Arc;

use ltp::core::PolicyRegistry;
use ltp::system::predict::{render_report, PredictSpec, DEFAULT_ZOO};
use ltp::workloads::{random_trace, Benchmark, Trace, WorkloadParams};

#[test]
fn committed_report_matches_regeneration_byte_for_byte() {
    let golden = include_str!("../reports/predictors.md");
    let trace = Trace::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/em3d-4node-3iter.v1.ltrace"
    ))
    .expect("committed trace loads");
    let registry = PolicyRegistry::with_builtins();
    let spec = PredictSpec::new()
        .trace(Arc::new(trace))
        .default_zoo(&registry)
        .expect("builtin zoo resolves");
    let rows = spec.execute();
    assert_eq!(rows.len(), DEFAULT_ZOO.len(), "one row per zoo member");
    let regenerated = render_report(&spec, &rows);
    assert_eq!(
        regenerated, golden,
        "reports/predictors.md drifted — regenerate it (see module docs)"
    );
    assert!(
        golden.contains("**Provenance:** inputs fingerprint `"),
        "the committed report must state which inputs produced it"
    );
}

/// The zoo over all nine kernels at 8 nodes and 2 iterations plus three
/// random 8-node traces. Their locks and flags park contended waiters in
/// the logical replay, which the em3d report above (barriers only) never
/// does. Regenerate with:
///
/// ```text
/// for s in 1 2 3; do
///   cargo run --release -- gen-trace -n 8 --ops 4000 -s $s -o /tmp/r$s.ltrace
/// done
/// cargo run --release -- predict -b all -n 8 -i 2 \
///     -t /tmp/r1.ltrace,/tmp/r2.ltrace,/tmp/r3.ltrace \
///     --report tests/data/golden_predict_mixed.md --quiet
/// ```
#[test]
fn mixed_tournament_matches_golden_byte_for_byte() {
    let golden = include_str!("data/golden_predict_mixed.md");
    let registry = PolicyRegistry::with_builtins();
    let mut spec = PredictSpec::new()
        .geometry(WorkloadParams::quick(8, 2))
        .benchmarks(Benchmark::ALL);
    for seed in 1..=3 {
        let params = WorkloadParams {
            nodes: 8,
            seed,
            iterations: None,
        };
        spec = spec.trace(Arc::new(random_trace(&params, 4000)));
    }
    let spec = spec.default_zoo(&registry).expect("builtin zoo resolves");
    let rows = spec.execute();
    assert_eq!(rows.len(), 12 * DEFAULT_ZOO.len(), "12 workloads x the zoo");
    assert_eq!(
        render_report(&spec, &rows),
        golden,
        "tests/data/golden_predict_mixed.md drifted — regenerate it (see the test's docs)"
    );
}

#[test]
fn provenance_fingerprint_tracks_the_inputs() {
    let registry = PolicyRegistry::with_builtins();
    let base = PredictSpec::new()
        .benchmark(ltp::workloads::Benchmark::Em3d)
        .default_zoo(&registry)
        .unwrap();
    let same = PredictSpec::new()
        .benchmark(ltp::workloads::Benchmark::Em3d)
        .default_zoo(&registry)
        .unwrap();
    assert_eq!(base.fingerprint(), same.fingerprint());
    let other_workload = PredictSpec::new()
        .benchmark(ltp::workloads::Benchmark::Ocean)
        .default_zoo(&registry)
        .unwrap();
    assert_ne!(base.fingerprint(), other_workload.fingerprint());
    let other_zoo = PredictSpec::new()
        .benchmark(ltp::workloads::Benchmark::Em3d)
        .policy_specs(&registry, &["ltp", "oracle"])
        .unwrap();
    assert_ne!(base.fingerprint(), other_zoo.fingerprint());
}
