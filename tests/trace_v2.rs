//! Format v2 + streaming replay acceptance: loop compression reaches its
//! target density, streamed replay reproduces the recording and the
//! synthetic run with bounded decoder memory, random valid traces
//! round-trip through a file exactly, malformed v2 inputs are rejected
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

    // It loads, and its content is exactly what recording produces today...
    let golden = Trace::load(&path).expect("golden v1 file loads");
    assert_eq!(golden.name(), "em3d");
    let params = WorkloadParams::quick(4, 3);
    assert_eq!(golden.workload(), params);
    assert_eq!(golden, Trace::record(Benchmark::Em3d, &params));

    // ...the opener validates and indexes it (this is what `trace-info`
    // and `--trace` run)...
    let streaming = Arc::new(StreamingTrace::open(&path).expect("golden v1 validates"));
    assert_eq!(streaming.version(), TRACE_VERSION_V1);
    assert_eq!(streaming.total_ops(), golden.total_ops());
    assert_eq!(streaming.repeat_blocks(), 0, "v1 has no repeat blocks");

    // ...and its streamed replay reproduces the synthetic run bit-exactly.
    let direct = ExperimentSpec::builder(Benchmark::Em3d)
        .policy_spec("ltp")
        .expect("builtin spec")
        .workload(params)
        .build()
        .run();
    let streamed = ExperimentSpec::builder(streaming)
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    assert_eq!(streamed, direct, "v1 streamed replay == synthetic");
}

#[test]
fn v1_to_v2_conversion_is_lossless() {
    let golden = Trace::load(golden_v1_path()).expect("golden v1 file loads");
    let path = scratch("v1-to-v2");
    golden.save(&path).expect("re-encodes as v2");
    let v2_bytes = std::fs::metadata(&path).expect("saved").len();
    let back = Trace::load(&path).expect("v2 decodes");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, golden, "v1 -> v2 -> ops is the identity");
    let mut v1 = Vec::new();
    golden
        .write_to_version(&mut v1, TRACE_VERSION_V1)
        .expect("re-encodes as v1");
    // The golden recording has only 3 iterations, so the ceiling is ~3x
    // (prologue + one body + repeat block vs three bodies).
    assert!(
        v2_bytes < v1.len() as u64 / 2,
        "v2 must be far denser on em3d: v1 {} bytes, v2 {v2_bytes} bytes",
        v1.len()
    );
}

#[test]
fn every_benchmark_streams_bit_identically_with_bounded_memory() {
    // For all nine kernels: every node's streamed ops are exactly the
    // recorded ops, with decoder memory bounded by the declared window
    // (ring + one in-flight repeat body => at most 2x the window;
    // windowless streams buffer nothing). `trace_roundtrip` checks the
    // streamed *runs* against the synthetic ones.
    let params = WorkloadParams::quick(4, 2);
    for benchmark in Benchmark::ALL {
        let path = scratch(benchmark.name());
        let trace = Trace::record(benchmark, &params);
        trace.save(&path).expect("trace saves");
        let streaming = Arc::new(StreamingTrace::open(&path).expect("opens"));
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
fn random_traces_round_trip_through_a_file() {
    // Fuzz-style: generate -> save v2 -> load -> bit-identical ops, across
    // seeds and geometries.
    for seed in 0..6u64 {
        let params = WorkloadParams {
            nodes: 2 + (seed % 4) as u16,
            seed: 0xF00D + seed,
            iterations: None,
        };
        let trace = random_trace(&params, 700);
        let path = scratch(&format!("fuzz-{seed}"));
        trace.save(&path).expect("saves");
        let loaded = Trace::load(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, trace, "seed {seed}: loaded ops differ");
    }
}

#[test]
fn random_traces_simulate_and_stream_identically() {
    // Generated workloads are not just encodable — they run. The streamed
    // replay of a generated file reports exactly as the in-memory
    // recording does.
    let params = WorkloadParams {
        nodes: 4,
        seed: 0xBEEF,
        iterations: None,
    };
    let trace = random_trace(&params, 400);
    let path = scratch("fuzz-sim");
    trace.save(&path).expect("saves");
    let recorded = ExperimentSpec::replay(Arc::new(trace))
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    let streamed = ExperimentSpec::builder(StreamingTrace::open(&path).expect("opens"))
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    std::fs::remove_file(&path).ok();
    assert_eq!(recorded.benchmark, "random");
    assert_eq!(streamed, recorded, "streamed random replay differs");
}

#[test]
fn corrupt_and_truncated_v2_files_are_rejected() {
    let trace = random_trace(&WorkloadParams::quick(3, 1), 300);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("encodes");
    assert_eq!(bytes[7], TRACE_VERSION, "fixture is a v2 file");
    let path = scratch("corrupt");
    let open = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        StreamingTrace::open(&path).unwrap_err()
    };

    // Every sampled truncation point fails cleanly as corruption — never
    // a panic. (Sampling strides keeps the test fast.)
    for cut in (9..bytes.len()).step_by(41).chain([bytes.len() - 1]) {
        let err = open(&bytes[..cut]);
        assert!(
            matches!(err, TraceError::Corrupt(_)),
            "cut at {cut}: unexpected {err}"
        );
    }

    // Every sampled bit flip in the body is caught by the checksum.
    for at in (8..bytes.len() - 8).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x10;
        let err = open(&flipped);
        assert!(
            err.to_string().contains("checksum"),
            "flip at {at}: unexpected {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
