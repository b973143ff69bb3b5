//! Cross-crate integration tests: every benchmark × every policy runs to
//! completion on a small machine, deterministically, with sane metrics —
//! and the sweep driver produces the same reports in parallel as serially.

use std::sync::Arc;

use ltp::core::{PolicyFactory, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::system::{ExperimentSpec, ReportSink, RunReport, SweepSpec};
use ltp::workloads::Benchmark;

const POLICIES: [&str; 5] = ["base", "dsi", "last-pc", "ltp", "ltp-global"];

fn quick(benchmark: Benchmark, spec: &str) -> RunReport {
    ExperimentSpec::builder(benchmark)
        .policy_spec(spec)
        .expect("builtin spec")
        .nodes(8)
        .iterations(4)
        .build()
        .run()
}

fn quick_metrics(benchmark: Benchmark, spec: &str, nodes: u16, iters: u32) -> ltp::system::Metrics {
    ExperimentSpec::builder(benchmark)
        .policy_spec(spec)
        .expect("builtin spec")
        .nodes(nodes)
        .iterations(iters)
        .build()
        .run()
        .metrics
}

#[test]
fn every_benchmark_runs_under_every_policy() {
    // One parallel sweep covers the whole matrix — this is also the
    // heaviest exercise of the sweep driver in the test suite.
    let registry = PolicyRegistry::with_builtins();
    let sweep = SweepSpec::new()
        .all_benchmarks()
        .policy_specs(&registry, &POLICIES)
        .expect("builtin specs")
        .quick_geometry(8, 4);
    let reports = sweep.collect();
    assert_eq!(reports.len(), 9 * POLICIES.len());
    for report in &reports {
        let m = &report.metrics;
        let what = format!("{}/{}", report.benchmark, report.policy_spec);
        assert!(m.exec_cycles > 0, "{what} ran");
        assert!(m.misses > 0, "{what} produced traffic");
        assert!(m.invalidation_events() > 0, "{what} produced sharing");
    }
}

#[test]
fn metric_invariants_hold_everywhere() {
    for benchmark in Benchmark::ALL {
        for policy in POLICIES {
            let m = quick(benchmark, policy).metrics;
            assert!(
                m.predicted_timely <= m.predicted,
                "{benchmark}/{policy}: timely ⊆ predicted"
            );
            assert_eq!(
                m.invalidation_events(),
                m.predicted + m.not_predicted,
                "{benchmark}/{policy}: classification partitions events"
            );
            let total_pct = m.predicted_pct() + m.not_predicted_pct();
            assert!(
                (total_pct - 100.0).abs() < 1e-6,
                "{benchmark}/{policy}: percentages sum to 100, got {total_pct}"
            );
            if policy == "base" {
                assert_eq!(m.predicted, 0, "base never predicts");
                assert_eq!(m.mispredicted, 0, "base never mispredicts");
                assert_eq!(m.self_invalidations_sent, 0, "base never self-invalidates");
            }
        }
    }
}

#[test]
fn runs_are_bit_reproducible() {
    for benchmark in [Benchmark::Barnes, Benchmark::Raytrace, Benchmark::Em3d] {
        let spec = ExperimentSpec::builder(benchmark)
            .policy_spec("ltp")
            .expect("builtin spec")
            .nodes(6)
            .iterations(3)
            .build();
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b, "{benchmark}");
    }
}

#[test]
fn parallel_sweep_matches_serial_through_the_facade() {
    let registry = PolicyRegistry::with_builtins();
    let sweep = SweepSpec::new()
        .benchmarks([Benchmark::Em3d, Benchmark::Moldyn])
        .policy_specs(&registry, &["base", "ltp"])
        .expect("builtin specs")
        .quick_geometry(6, 4);
    let serial = sweep.clone().serial().collect();
    /// Keeps what the sweep streams, in the order it streams it.
    struct Streamed(Vec<(usize, RunReport)>);
    impl ReportSink for Streamed {
        fn record(&mut self, seq: usize, report: &RunReport) {
            self.0.push((seq, report.clone()));
        }
    }
    let mut sink = Streamed(Vec::new());
    let parallel = sweep.threads(8).execute(&mut sink).expect("no run stalls");
    assert_eq!(serial, parallel);
    let in_order: Vec<(usize, RunReport)> = serial.into_iter().enumerate().collect();
    assert_eq!(sink.0, in_order, "sink saw the same run order");
}

#[test]
fn custom_factory_sweeps_from_outside_the_system_crate() {
    // The acceptance scenario of the API redesign: define a policy here (a
    // crate that is a *consumer* of ltp-core/ltp-system), register it, and
    // sweep it — without touching any ltp crate.
    #[derive(Debug)]
    struct EveryOther {
        fire: bool,
    }
    impl SelfInvalidationPolicy for EveryOther {
        fn name(&self) -> &'static str {
            "every-other"
        }
        fn on_touch(&mut self, _touch: ltp::core::Touch) -> bool {
            self.fire = !self.fire;
            self.fire
        }
    }

    #[derive(Debug)]
    struct EveryOtherFactory;
    impl PolicyFactory for EveryOtherFactory {
        fn name(&self) -> &str {
            "every-other"
        }
        fn build(&self, _config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
            Box::new(EveryOther { fire: false })
        }
    }

    let mut registry = PolicyRegistry::with_builtins();
    registry
        .register_factory(Arc::new(EveryOtherFactory))
        .expect("name is free");

    let sweep = SweepSpec::new()
        .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
        .policy_specs(&registry, &["base", "every-other"])
        .expect("custom spec resolves")
        .quick_geometry(4, 3);
    let serial = sweep.clone().serial().collect();
    let parallel = sweep.collect();
    assert_eq!(serial, parallel, "custom policies sweep deterministically");
    let custom: Vec<&RunReport> = serial
        .iter()
        .filter(|r| r.policy == "every-other")
        .collect();
    assert_eq!(custom.len(), 2);
    for r in custom {
        assert!(
            r.metrics.self_invalidations_sent > 0,
            "the custom policy actually fired"
        );
    }
}

#[test]
fn seeds_change_stochastic_workloads_only() {
    let run = |benchmark, seed| {
        ExperimentSpec::builder(benchmark)
            .policy_spec("base")
            .expect("builtin spec")
            .nodes(6)
            .iterations(3)
            .seed(seed)
            .build()
            .run()
            .metrics
            .exec_cycles
    };
    // Stochastic kernels react to the seed…
    assert_ne!(run(Benchmark::Barnes, 1), run(Benchmark::Barnes, 2));
    // …static kernels do not.
    assert_eq!(run(Benchmark::Em3d, 1), run(Benchmark::Em3d, 2));
    assert_eq!(run(Benchmark::Tomcatv, 1), run(Benchmark::Tomcatv, 2));
}

#[test]
fn ltp_beats_last_pc_on_multi_touch_kernels() {
    // The paper's core claim, on the kernels built to show it.
    for benchmark in [
        Benchmark::Tomcatv,
        Benchmark::Moldyn,
        Benchmark::Unstructured,
    ] {
        let ltp = quick_metrics(benchmark, "ltp", 8, 12);
        let lpc = quick_metrics(benchmark, "last-pc", 8, 12);
        assert!(
            ltp.predicted_pct() > lpc.predicted_pct() + 30.0,
            "{benchmark}: trace correlation must dominate single-PC \
             (ltp {:.1}% vs last-pc {:.1}%)",
            ltp.predicted_pct(),
            lpc.predicted_pct()
        );
    }
}

#[test]
fn em3d_all_predictors_learn_the_one_touch_pattern() {
    for policy in ["last-pc", "ltp"] {
        let m = quick_metrics(Benchmark::Em3d, policy, 8, 20);
        assert!(
            m.predicted_pct() > 80.0,
            "{policy} on em3d: {:.1}%",
            m.predicted_pct()
        );
        assert!(m.mispredicted_pct() < 5.0);
    }
}

#[test]
fn dsi_skips_migratory_blocks() {
    // unstructured is migratory-dominated: DSI must underperform LTP badly.
    let dsi = quick_metrics(Benchmark::Unstructured, "dsi", 8, 12);
    let ltp = quick_metrics(Benchmark::Unstructured, "ltp", 8, 12);
    assert!(
        ltp.predicted_pct() > dsi.predicted_pct() + 20.0,
        "ltp {:.1}% vs dsi {:.1}%",
        ltp.predicted_pct(),
        dsi.predicted_pct()
    );
}

#[test]
fn global_table_suffers_cross_block_aliasing_on_tomcatv() {
    let per_block = quick_metrics(Benchmark::Tomcatv, "ltp:bits=13", 8, 12);
    let global = quick_metrics(Benchmark::Tomcatv, "ltp-global", 8, 12);
    assert!(
        global.mispredicted_pct() > per_block.mispredicted_pct(),
        "outer/inner subtrace aliasing must show up as global-table prematures \
         (global {:.1}% vs per-block {:.1}%)",
        global.mispredicted_pct(),
        per_block.mispredicted_pct()
    );
}

#[test]
fn dsi_burstiness_shows_in_directory_queueing() {
    let base = quick_metrics(Benchmark::Em3d, "base", 8, 12);
    let dsi = quick_metrics(Benchmark::Em3d, "dsi", 8, 12);
    assert!(
        dsi.dir_queueing.mean_or_zero() > 2.0 * base.dir_queueing.mean_or_zero(),
        "dsi queueing {:.1} vs base {:.1}",
        dsi.dir_queueing.mean_or_zero(),
        base.dir_queueing.mean_or_zero()
    );
}

#[test]
fn ltp_speeds_up_em3d_end_to_end() {
    let base = quick_metrics(Benchmark::Em3d, "base", 8, 20);
    let ltp = quick_metrics(Benchmark::Em3d, "ltp", 8, 20);
    assert!(
        ltp.speedup_vs(&base) > 1.1,
        "speedup {:.3}",
        ltp.speedup_vs(&base)
    );
}

#[test]
fn storage_accounting_reports_signature_tables() {
    let m = quick_metrics(Benchmark::Tomcatv, "ltp", 8, 8);
    assert!(m.storage.blocks_tracked > 0);
    assert!(m.storage.live_entries > 0);
    assert_eq!(m.storage.signature_bits, 13);
    assert!(m.storage.entries_per_block() > 0.0);
    assert!(m.storage.overhead_bytes_per_block() > 0.0);
}
