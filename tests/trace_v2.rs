//! Format v2 + streaming replay acceptance: loop compression reaches its
//! target density, streamed replay is bit-identical to buffered replay and
//! to the synthetic run with bounded decoder memory, random valid traces
//! round-trip both decode paths exactly, malformed v2 inputs are rejected
//! precisely, and the committed v1 golden file keeps loading forever.

use std::path::PathBuf;
use std::sync::Arc;

use ltp::system::ExperimentSpec;
use ltp::workloads::trace::{TRACE_VERSION, TRACE_VERSION_V1};
use ltp::workloads::{
    collect_ops, random_trace, Benchmark, StreamingTrace, StreamingTraceProgram, Trace, TraceError,
    WorkloadParams,
};

/// A scratch path under the OS temp dir, unique per test process and tag.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ltp-v2-test-{}-{tag}.ltrace", std::process::id()))
}

/// The committed v1 golden file: em3d, 4 nodes, 3 iterations, default seed,
/// written by format version 1 before v2 existed. Must load forever.
fn golden_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/em3d-4node-3iter.v1.ltrace")
}

#[test]
fn golden_v1_file_still_loads_replays_and_validates() {
    let path = golden_v1_path();

    // The buffered loader reads it...
    let golden = Trace::load(&path).expect("golden v1 file loads");
    assert_eq!(golden.name(), "em3d");
    let params = WorkloadParams::quick(4, 3);
    assert_eq!(golden.workload(), params);

    // ...its content is exactly what recording produces today...
    assert_eq!(golden, Trace::record(Benchmark::Em3d, &params));

    // ...the streaming opener validates and indexes it (this is what
    // `trace-info` runs)...
    let streaming = Arc::new(StreamingTrace::open(&path).expect("golden v1 validates"));
    assert_eq!(streaming.version(), TRACE_VERSION_V1);
    assert_eq!(streaming.total_ops(), golden.total_ops());
    assert_eq!(streaming.repeat_blocks(), 0, "v1 has no repeat blocks");

    // ...and both replay paths reproduce the synthetic run bit-exactly.
    let direct = ExperimentSpec::builder(Benchmark::Em3d)
        .policy_spec("ltp")
        .expect("builtin spec")
        .workload(params)
        .build()
        .run();
    let buffered = ExperimentSpec::replay(Arc::new(golden))
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    let streamed = ExperimentSpec::replay_streaming(streaming)
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    assert_eq!(buffered, direct, "v1 buffered replay == synthetic");
    assert_eq!(streamed, direct, "v1 streamed replay == synthetic");
}

#[test]
fn v1_to_v2_conversion_is_lossless() {
    let golden = Trace::load(golden_v1_path()).expect("golden v1 file loads");
    let mut v2 = Vec::new();
    golden.write_to(&mut v2).expect("re-encodes as v2");
    let back = Trace::read_from(&v2[..]).expect("v2 decodes");
    assert_eq!(back, golden, "v1 -> v2 -> ops is the identity");
    let mut v1 = Vec::new();
    golden
        .write_to_version(&mut v1, TRACE_VERSION_V1)
        .expect("re-encodes as v1");
    // The golden recording has only 3 iterations, so the ceiling is ~3x
    // (prologue + one body + repeat block vs three bodies).
    assert!(
        v2.len() < v1.len() / 2,
        "v2 must be far denser on em3d: v1 {} bytes, v2 {} bytes",
        v1.len(),
        v2.len()
    );
}

#[test]
fn every_benchmark_streams_bit_identically_with_bounded_memory() {
    // The acceptance criterion of the streaming engine, for all nine
    // kernels: synthetic run == buffered file replay == streamed file
    // replay, with per-node decoder memory bounded by the declared window.
    let params = WorkloadParams::quick(4, 2);
    for benchmark in Benchmark::ALL {
        let direct = ExperimentSpec::builder(benchmark)
            .policy_spec("ltp")
            .expect("builtin spec")
            .workload(params)
            .build()
            .run();

        let path = scratch(benchmark.name());
        let trace = Trace::record(benchmark, &params);
        trace.save(&path).expect("trace saves");

        let buffered = ExperimentSpec::replay(Arc::new(Trace::load(&path).expect("loads")))
            .policy_spec("ltp")
            .expect("builtin spec")
            .build()
            .run();
        let streaming = Arc::new(StreamingTrace::open(&path).expect("opens"));
        let streamed = ExperimentSpec::replay_streaming(Arc::clone(&streaming))
            .policy_spec("ltp")
            .expect("builtin spec")
            .build()
            .run();
        assert_eq!(buffered, direct, "{benchmark}: buffered replay differs");
        assert_eq!(streamed, direct, "{benchmark}: streamed replay differs");

        // Memory bound: drain each node's program directly and check the
        // high-water mark against the declared window (ring + one
        // in-flight repeat body => at most 2x the window; windowless
        // streams buffer nothing).
        for node in 0..streaming.nodes() {
            let mut program =
                StreamingTraceProgram::new(Arc::clone(&streaming), node).expect("program opens");
            let ops = collect_ops(&mut program);
            assert_eq!(
                ops,
                trace.streams()[usize::from(node)],
                "{benchmark} node {node}: streamed ops differ"
            );
            let window = program.window_ops();
            assert!(
                program.peak_buffered_ops() <= 2 * window,
                "{benchmark} node {node}: peak {} ops exceeds 2x window {window}",
                program.peak_buffered_ops()
            );
            assert!(
                window as u64 <= streaming.max_window(),
                "{benchmark} node {node}: window exceeds the file maximum"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn loop_compression_reaches_its_density_target() {
    // ROADMAP/acceptance target: <= 0.5 B/op on at least 5 of the 9
    // benchmarks at their scaled default iteration counts (`ltp trace-info`
    // prints the same density for a 32-node recording).
    let params = WorkloadParams {
        nodes: 4,
        seed: 0x15CA_2000,
        iterations: None,
    };
    let mut dense = Vec::new();
    for benchmark in Benchmark::ALL {
        let trace = Trace::record(benchmark, &params);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).expect("encodes");
        let per_op = bytes.len() as f64 / trace.total_ops().max(1) as f64;
        if per_op <= 0.5 {
            dense.push((benchmark.name(), per_op));
        }
    }
    assert!(
        dense.len() >= 5,
        "only {} of 9 benchmarks reached <= 0.5 B/op: {dense:?}",
        dense.len()
    );
}

#[test]
fn random_traces_round_trip_every_decode_path() {
    // Fuzz-style: generate -> encode v2 -> decode buffered and streaming ->
    // bit-identical ops, across seeds and geometries.
    for seed in 0..6u64 {
        let params = WorkloadParams {
            nodes: 2 + (seed % 4) as u16,
            seed: 0xF00D + seed,
            iterations: None,
        };
        let trace = random_trace(&params, 700);
        let path = scratch(&format!("fuzz-{seed}"));
        trace.save(&path).expect("saves");

        let buffered = Trace::load(&path).expect("buffered decode");
        assert_eq!(buffered, trace, "seed {seed}: buffered ops differ");

        let streaming = Arc::new(StreamingTrace::open(&path).expect("streaming open"));
        assert_eq!(streaming.total_ops(), trace.total_ops());
        let mut programs = StreamingTrace::programs(&streaming).expect("programs open");
        for (node, program) in programs.iter_mut().enumerate() {
            assert_eq!(
                collect_ops(program.as_mut()),
                trace.streams()[node],
                "seed {seed} node {node}: streamed ops differ"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn random_traces_simulate_and_stream_identically() {
    // Generated workloads are not just encodable — they run. Buffered and
    // streamed replay of the same generated file report identically.
    let params = WorkloadParams {
        nodes: 4,
        seed: 0xBEEF,
        iterations: None,
    };
    let trace = random_trace(&params, 400);
    let path = scratch("fuzz-sim");
    trace.save(&path).expect("saves");
    let buffered = ExperimentSpec::replay(Arc::new(trace))
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    let streamed =
        ExperimentSpec::replay_streaming(Arc::new(StreamingTrace::open(&path).expect("opens")))
            .policy_spec("ltp")
            .expect("builtin spec")
            .build()
            .run();
    std::fs::remove_file(&path).ok();
    assert_eq!(buffered.benchmark, "random");
    assert_eq!(streamed, buffered, "streamed random replay differs");
}

#[test]
fn corrupt_and_truncated_v2_files_are_rejected_by_both_readers() {
    let trace = random_trace(&WorkloadParams::quick(3, 1), 300);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("encodes");
    assert_eq!(bytes[7], TRACE_VERSION, "fixture is a v2 file");
    let path = scratch("corrupt");

    // Every single-byte truncation point either still fails cleanly —
    // never panics — and full-prefix truncations at interesting boundaries
    // are all Corrupt. (Sampling strides keeps the test fast.)
    for cut in (9..bytes.len()).step_by(41).chain([bytes.len() - 1]) {
        let err = Trace::read_from(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, TraceError::Corrupt(_)),
            "cut at {cut}: unexpected {err}"
        );
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = StreamingTrace::open(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::Corrupt(_)),
            "streaming cut at {cut}: unexpected {err}"
        );
    }

    // Every sampled bit flip in the body is caught by the checksum (or a
    // structural check) in both readers.
    for at in (8..bytes.len() - 8).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x10;
        let err = Trace::read_from(&flipped[..]).unwrap_err();
        assert!(
            matches!(err, TraceError::Corrupt(_)),
            "flip at {at}: unexpected {err}"
        );
        std::fs::write(&path, &flipped).unwrap();
        let err = StreamingTrace::open(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::Corrupt(_)),
            "streaming flip at {at}: unexpected {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_byte_gates_both_readers() {
    let trace = random_trace(&WorkloadParams::quick(2, 1), 100);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("encodes");
    let path = scratch("version-gate");
    for bad in [0u8, 3, 9, 255] {
        let mut tampered = bytes.clone();
        tampered[7] = bad;
        assert!(matches!(
            Trace::read_from(&tampered[..]),
            Err(TraceError::UnsupportedVersion(v)) if v == bad
        ));
        std::fs::write(&path, &tampered).unwrap();
        assert!(matches!(
            StreamingTrace::open(&path),
            Err(TraceError::UnsupportedVersion(v)) if v == bad
        ));
    }
    std::fs::remove_file(&path).ok();
}
