//! Trace record/replay fidelity: for every benchmark of the suite,
//! `record` → save → streamed replay produces a `RunReport` bit-identical
//! to the direct synthetic run, through the file format and through the
//! sweep driver alike.

use std::sync::Arc;

use ltp::core::PolicyRegistry;
use ltp::system::{ExperimentSpec, SweepSpec};
use ltp::workloads::{
    collect_ops, Benchmark, StreamingTrace, Trace, TraceError, WorkloadParams, WorkloadSource,
};

/// A scratch path under the OS temp dir, unique per test process and tag.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ltp-test-{}-{tag}.ltrace", std::process::id()))
}

#[test]
fn every_benchmark_replays_bit_identically_through_a_file() {
    // The acceptance criterion of the trace subsystem: capture once,
    // replay anywhere, lose nothing — for all nine kernels, through disk.
    let params = WorkloadParams::quick(4, 2);
    for benchmark in Benchmark::ALL {
        let direct = ExperimentSpec::builder(benchmark)
            .policy_spec("ltp")
            .expect("builtin spec")
            .workload(params)
            .build()
            .run();

        let path = scratch(benchmark.name());
        Trace::record(benchmark, &params)
            .save(&path)
            .expect("trace saves");
        let streamed = StreamingTrace::open(&path).expect("trace opens");
        let replayed = ExperimentSpec::builder(streamed)
            .policy_spec("ltp")
            .expect("builtin spec")
            .build()
            .run();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            replayed, direct,
            "{benchmark}: replay must be bit-identical"
        );
    }
}

#[test]
fn recorded_streams_survive_serialization_exactly() {
    let params = WorkloadParams::quick(3, 2);
    for benchmark in [Benchmark::Barnes, Benchmark::Appbt, Benchmark::Raytrace] {
        let trace = Trace::record(benchmark, &params);
        let path = scratch(&format!("survive-{benchmark}"));
        trace.save(&path).expect("encodes");
        let back = Trace::load(&path).expect("decodes");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace, "{benchmark}");
        // And the replay programs emit exactly the recorded ops.
        let mut programs = back.into_programs();
        for (node, program) in programs.iter_mut().enumerate() {
            assert_eq!(
                collect_ops(program.as_mut()),
                trace.streams()[node],
                "{benchmark} node {node}"
            );
        }
    }
}

#[test]
fn compression_beats_a_naive_fixed_width_encoding() {
    // Varint + delta encoding is the point of the format: the repetitive
    // stencil streams must land far below the ~13 B/op a packed
    // opcode+pc+block encoding would need.
    let trace = Trace::record(Benchmark::Tomcatv, &WorkloadParams::quick(4, 4));
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("encodes");
    let per_op = bytes.len() as f64 / trace.total_ops() as f64;
    assert!(
        per_op < 6.0,
        "expected < 6 B/op from delta+varint coding, got {per_op:.2}"
    );
}

#[test]
fn mixed_sweep_replays_match_synthetic_rows() {
    let params = WorkloadParams::quick(4, 2);
    let registry = PolicyRegistry::with_builtins();
    let traces: Vec<Arc<Trace>> = [Benchmark::Em3d, Benchmark::Unstructured]
        .into_iter()
        .map(|b| Arc::new(Trace::record(b, &params)))
        .collect();

    let mut sweep = SweepSpec::new()
        .benchmarks([Benchmark::Em3d, Benchmark::Unstructured])
        .policy_specs(&registry, &["base", "ltp"])
        .expect("builtin specs")
        .geometry(params);
    for trace in &traces {
        sweep = sweep.trace(Arc::clone(trace));
    }
    let reports = sweep.collect();
    assert_eq!(reports.len(), 8);
    // Row-major order: synthetic em3d, synthetic unstructured, then the
    // two trace sources — each trace row equals its synthetic twin.
    for (synthetic, replayed) in (0..4).zip(4..8) {
        assert_eq!(
            reports[replayed], reports[synthetic],
            "trace row {replayed} vs synthetic row {synthetic}"
        );
    }
}

#[test]
fn replay_works_under_every_policy() {
    let params = WorkloadParams::quick(4, 2);
    let trace = Arc::new(Trace::record(Benchmark::Moldyn, &params));
    for spec in ["base", "dsi", "last-pc", "ltp", "ltp-global"] {
        let direct = ExperimentSpec::builder(Benchmark::Moldyn)
            .policy_spec(spec)
            .expect("builtin spec")
            .workload(params)
            .build()
            .run();
        let replayed = ExperimentSpec::replay(Arc::clone(&trace))
            .policy_spec(spec)
            .expect("builtin spec")
            .build()
            .run();
        assert_eq!(replayed, direct, "{spec}");
    }
}

#[test]
fn malformed_files_are_rejected_with_precise_errors() {
    let params = WorkloadParams::quick(2, 1);
    let trace = Trace::record(Benchmark::Ocean, &params);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("encodes");
    let path = scratch("malformed");
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        Trace::load(&path)
    };

    // Wrong magic.
    let mut wrong = bytes.clone();
    wrong[0] = b'X';
    assert!(matches!(load(&wrong), Err(TraceError::BadMagic)));

    // Future version.
    let mut future = bytes.clone();
    future[7] = 42;
    assert!(matches!(
        load(&future),
        Err(TraceError::UnsupportedVersion(42))
    ));

    // Bit flip anywhere in the body trips the checksum.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 1;
    assert!(matches!(load(&flipped), Err(TraceError::Corrupt(_))));

    // Truncation is corruption too.
    assert!(matches!(
        load(&bytes[..bytes.len() / 2]),
        Err(TraceError::Corrupt(_))
    ));
    std::fs::remove_file(&path).ok();

    // A missing file surfaces as I/O.
    assert!(matches!(
        Trace::load("/nonexistent/ltp-no-such-trace.ltrace"),
        Err(TraceError::Io(_))
    ));
}

#[test]
fn trace_report_carries_the_recorded_workload_name() {
    let params = WorkloadParams::quick(4, 1);
    let trace = Arc::new(Trace::record(Benchmark::Dsmc, &params));
    let report = ExperimentSpec::replay(trace)
        .policy_spec("base")
        .expect("builtin spec")
        .build()
        .run();
    assert_eq!(report.benchmark, "dsmc");
    assert_eq!(report.workload, params);
    assert!(report.to_json().contains("\"benchmark\":\"dsmc\""));
}

#[test]
fn sources_mix_policies_and_geometries_without_interference() {
    // One trace under two policies: the trace streams are shared (Arc),
    // and per-policy results differ while per-policy replays agree.
    let params = WorkloadParams::quick(4, 3);
    let trace = Arc::new(Trace::record(Benchmark::Tomcatv, &params));
    let registry = PolicyRegistry::with_builtins();
    let reports = SweepSpec::new()
        .source(WorkloadSource::Trace(Arc::clone(&trace)))
        .policy_specs(&registry, &["base", "ltp"])
        .expect("builtin specs")
        .collect();
    assert_eq!(reports.len(), 2);
    assert_ne!(
        reports[0].metrics.exec_cycles, reports[1].metrics.exec_cycles,
        "policies actually differ on the replayed workload"
    );
}
