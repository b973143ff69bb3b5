//! Acceptance tests for the probe/observer API redesign.
//!
//! * **Golden parity** — the core metrics flowing through the new
//!   `CoreMetricsProbe` path must be byte-identical (whole-report JSON) to
//!   the pre-probe simulator, pinned by a committed golden file for every
//!   benchmark at 32 nodes.
//! * **Probe registry conformance** — spec strings resolve, unknown specs
//!   fail with clean errors, and out-of-tree probes register and run.
//! * **Scheduling** — longest-job-first dispatch never changes reports or
//!   their order.

use std::sync::Arc;

use ltp::core::JsonObject;
use ltp::system::{
    ExperimentSpec, MetricsSection, Probe, ProbeCtx, ProbeRegistry, ProbeSpecError, RunReport,
    SimEvent, SweepSpec,
};
use ltp::workloads::{Benchmark, EstimateSource, Trace, WorkloadParams};

fn golden_spec(benchmark: Benchmark) -> ExperimentSpec {
    // Must match how tests/data/golden_core_32.jsonl was generated (by the
    // pre-probe binary): `ltp run -b all -p ltp -n 32 -i 4 --json`.
    ExperimentSpec::builder(benchmark)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(32)
        .iterations(4)
        .build()
}

#[test]
fn core_metrics_json_matches_pre_probe_golden_for_every_benchmark() {
    let golden = include_str!("data/golden_core_32.jsonl");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), Benchmark::ALL.len());
    for (benchmark, expected) in Benchmark::ALL.into_iter().zip(lines) {
        let json = golden_spec(benchmark).run().to_json();
        assert_eq!(
            json, expected,
            "{benchmark}: core metrics drifted from the pre-probe report"
        );
    }
}

#[test]
fn probe_sections_flow_end_to_end_into_reports_and_json() {
    let report = ExperimentSpec::builder(Benchmark::Em3d)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(4)
        .iterations(4)
        .probe_spec("hist:self-inv-lead")
        .expect("hist spec")
        .probe_spec("per-node")
        .expect("per-node spec")
        .build()
        .run();
    assert_eq!(report.sections.len(), 2);
    assert_eq!(report.sections[0].name, "hist:self-inv-lead");
    assert_eq!(report.sections[1].name, "per-node");
    let json = report.to_json();
    assert!(json.contains("\"sections\":{"), "{json}");
    assert!(json.contains("\"hist:self-inv-lead\":{"), "{json}");
    assert!(json.contains("\"per-node\":[{\"node\":0,"), "{json}");
    // The per-node rows sum back to the flat metrics.
    let rows = &report.sections[1].data;
    let rendered = rows.render();
    assert_eq!(rendered.matches("\"node\":").count(), 4, "{rendered}");
    // em3d predicts: the histogram actually collected samples.
    assert!(report.metrics.predicted > 0);
    assert!(
        report.sections[0].data.render().contains("\"samples\":"),
        "histogram section has sample counts"
    );
}

#[test]
fn probes_never_change_the_core_metrics() {
    let plain = ExperimentSpec::builder(Benchmark::Moldyn)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(4)
        .iterations(3)
        .build()
        .run();
    let probed = ExperimentSpec::builder(Benchmark::Moldyn)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(4)
        .iterations(3)
        .probe_spec("per-node")
        .expect("spec")
        .probe_spec("hist:self-inv-lead")
        .expect("spec")
        .build()
        .run();
    assert_eq!(plain.metrics, probed.metrics);
    assert_eq!(plain.events_handled, probed.events_handled);
}

#[test]
fn unknown_probe_specs_fail_cleanly() {
    let registry = ProbeRegistry::with_builtins();
    let err = registry.parse("flamegraph").unwrap_err();
    let ProbeSpecError::UnknownProbe { name, known } = &err else {
        panic!("wrong error: {err}");
    };
    assert_eq!(name, "flamegraph");
    assert!(known.iter().any(|k| k == "per-node"), "{known:?}");
    let msg = err.to_string();
    assert!(msg.contains("unknown probe"), "{msg}");
    assert!(msg.contains("heat"), "lists the known probes: {msg}");
}

#[test]
fn out_of_tree_probes_register_and_sweep() {
    // The acceptance scenario: a probe defined here (a *consumer* crate),
    // registered by spec string, swept over two benchmarks.
    #[derive(Debug, Default)]
    struct MsgCounter {
        sent: u64,
        delivered: u64,
    }
    impl Probe for MsgCounter {
        fn on_event(&mut self, _ctx: &ProbeCtx, event: &SimEvent) {
            match event {
                SimEvent::MessageSent { .. } => self.sent += 1,
                SimEvent::MessageDelivered { .. } => self.delivered += 1,
                _ => {}
            }
        }
        fn finish(self: Box<Self>) -> Option<MetricsSection> {
            Some(MetricsSection::new(
                "msg-counter",
                JsonObject::new()
                    .field("sent", self.sent)
                    .field("delivered", self.delivered)
                    .build(),
            ))
        }
    }

    let mut registry = ProbeRegistry::with_builtins();
    registry
        .register("msg-counter", "counts protocol messages", |_| {
            Ok(Arc::new(ltp::system::FnProbeFactory::new(
                "msg-counter",
                |_| Box::new(MsgCounter::default()),
            )))
        })
        .expect("name is free");

    let policy_registry = ltp::core::PolicyRegistry::with_builtins();
    let reports = SweepSpec::new()
        .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
        .policy_specs(&policy_registry, &["base"])
        .expect("builtin specs")
        .quick_geometry(4, 2)
        .probe_spec(&registry, "msg-counter")
        .expect("custom probe resolves")
        .collect();
    assert_eq!(reports.len(), 2);
    for report in &reports {
        let section = &report.sections[0];
        assert_eq!(section.name, "msg-counter");
        let json = section.data.render();
        assert!(json.starts_with("{\"sent\":"), "{json}");
        // Every message sent is eventually delivered (plus reinjected
        // shelved requests re-arrive without a fresh send).
        assert!(report.metrics.messages > 0);
    }
}

#[test]
fn schedule_orders_longest_first_without_changing_reports() {
    let registry = ltp::core::PolicyRegistry::with_builtins();
    // dsmc and raytrace are the length extremes of the suite at equal
    // iteration counts; add a recorded trace so both estimate sources
    // appear.
    let trace = Arc::new(Trace::record(Benchmark::Em3d, &WorkloadParams::quick(4, 6)));
    let sweep = SweepSpec::new()
        .benchmarks([Benchmark::Raytrace, Benchmark::Dsmc])
        .trace(Arc::clone(&trace))
        .policy_specs(&registry, &["ltp"])
        .expect("builtin spec")
        .quick_geometry(4, 3);

    let schedule = sweep.schedule();
    assert_eq!(schedule.len(), 3);
    // Every run of this sweep has a known estimate…
    let ops: Vec<u64> = schedule
        .iter()
        .map(|(_, e)| e.expect("known").ops)
        .collect();
    assert!(ops.windows(2).all(|w| w[0] >= w[1]), "descending: {ops:?}");
    // …with the right provenance per source kind.
    for (seq, estimate) in &schedule {
        let estimate = estimate.expect("known");
        let expected = if *seq == 2 {
            EstimateSource::TraceHeader // the trace is the third source
        } else {
            EstimateSource::Script
        };
        assert_eq!(estimate.source, expected, "run {seq}");
    }

    // Scheduling is an execution-order concern only: serial and parallel
    // sweeps agree, in cross-product order.
    let serial: Vec<RunReport> = sweep.clone().serial().collect();
    let parallel = sweep.threads(4).collect();
    assert_eq!(serial, parallel);
    assert_eq!(serial[0].benchmark, "raytrace");
    assert_eq!(serial[2].benchmark, "em3d");
}
