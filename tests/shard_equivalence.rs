//! Sharded-engine equivalence gates: a sharded run is **bit-identical** to
//! the serial machine — same `RunReport` JSON (metrics and every probe
//! section) and same recorded trace bytes — for every benchmark, shard
//! count, and directory organization.
//!
//! These are the determinism gates of the conservative time-stepped shard
//! engine: cross-shard messages travel through per-edge FIFO queues under
//! barrier-synchronized windows, so partitioning must never reorder any
//! observable interaction. Randomized geometries are driven by the seeded
//! [`SimRng`], so every case is reproducible.

use std::sync::Arc;

use ltp::dsm::DirectoryKind;
use ltp::sim::SimRng;
use ltp::system::{ExperimentSpec, RunReport};
use ltp::workloads::{Benchmark, StreamingTrace};

/// Builds the common spec: `benchmark` at a small geometry with the full
/// observer stack attached (per-node breakdown + both histograms), so the
/// equivalence below covers dynamic probe sections, not just core metrics.
fn spec(benchmark: Benchmark, nodes: u16, iters: u32) -> ExperimentSpec {
    ExperimentSpec::builder(benchmark)
        .policy_spec("ltp")
        .unwrap()
        .nodes(nodes)
        .iterations(iters)
        .probe_spec("per-node")
        .unwrap()
        .probe_spec("hist:self-inv-lead")
        .unwrap()
        .probe_spec("hist:msg-latency")
        .unwrap()
        .build()
}

fn run_sharded(base: &ExperimentSpec, shards: usize) -> RunReport {
    let mut spec = base.clone();
    spec.shards = shards;
    spec.run()
}

#[test]
fn all_nine_benchmarks_are_bit_identical_across_shard_counts() {
    for benchmark in Benchmark::ALL {
        let base = spec(benchmark, 8, 2);
        let serial = base.run().to_json();
        for shards in [2usize, 4, 8] {
            let sharded = run_sharded(&base, shards).to_json();
            assert_eq!(
                sharded, serial,
                "{benchmark}: {shards}-shard report bytes diverged from serial"
            );
        }
    }
}

#[test]
fn directory_organizations_shard_identically() {
    // Home assignment is shard-aware for every sharer representation; the
    // imprecise organizations (coarse clusters, limited pointers with
    // broadcast overflow) must partition as cleanly as the full map.
    for directory in [
        DirectoryKind::Full,
        DirectoryKind::Coarse { cluster: 4 },
        DirectoryKind::LimitedPtr { pointers: 4 },
    ] {
        let mut base = spec(Benchmark::Em3d, 8, 3);
        base.directory = directory;
        let serial = base.run().to_json();
        for shards in [2usize, 4, 8] {
            let sharded = run_sharded(&base, shards).to_json();
            assert_eq!(
                sharded, serial,
                "em3d under {directory}: {shards} shards diverged from serial"
            );
        }
    }
}

#[test]
fn record_tee_is_identical_under_sharding() {
    // The live trace recorder observes `OpRetired` through the same
    // canonical-order event feed as every other probe, so the `.ltrace` a
    // sharded run tees out is byte-for-byte the serial recording.
    let path = |tag: &str| {
        std::env::temp_dir().join(format!("ltp-shard-tee-{}-{tag}.ltrace", std::process::id()))
    };
    let record = |shards: usize, tag: &str| {
        let out = path(tag);
        let mut spec = ExperimentSpec::builder(Benchmark::Tomcatv)
            .policy_spec("ltp")
            .unwrap()
            .nodes(8)
            .iterations(3)
            .probe_spec(&format!("record:{}", out.display()))
            .unwrap()
            .build();
        spec.shards = shards;
        let report = spec.run();
        let bytes = std::fs::read(&out).expect("recording written");
        std::fs::remove_file(&out).ok();
        (report.to_json(), bytes)
    };
    let (serial_report, serial_trace) = record(1, "serial");
    // The recording is a valid trace, not just identical garbage.
    let check = path("check");
    std::fs::write(&check, &serial_trace).unwrap();
    StreamingTrace::open(&check).expect("recorded trace validates");
    std::fs::remove_file(&check).ok();
    for shards in [2usize, 4, 8] {
        let (report, trace) = record(shards, &format!("s{shards}"));
        assert_eq!(report, serial_report, "{shards}-shard report diverged");
        assert_eq!(
            trace, serial_trace,
            "{shards}-shard recorded trace bytes diverged from serial"
        );
    }
}

#[test]
fn randomized_geometries_shard_identically() {
    // Random (benchmark, nodes, iterations, shard count) points — shard
    // counts that do not divide the node count exercise the uneven
    // partition ranges, and counts above the node count exercise clamping.
    let mut rng = SimRng::from_seed(0x15CA_2000_0600);
    for case in 0..10 {
        let benchmark = Benchmark::ALL[rng.below(Benchmark::ALL.len() as u64) as usize];
        let nodes = rng.range(2, 12) as u16;
        let iters = rng.range(1, 3) as u32;
        let shards = rng.range(2, 16) as usize;
        let base = spec(benchmark, nodes, iters);
        let serial = base.run().to_json();
        let sharded = run_sharded(&base, shards).to_json();
        assert_eq!(
            sharded, serial,
            "case {case}: {benchmark} n={nodes} i={iters} at {shards} shards"
        );
    }
}

#[test]
fn one_shard_is_the_serial_path() {
    // `shards = 1` runs the machine inline — not a one-worker parallel
    // engine — and is indistinguishable from an unset shard count.
    let base = spec(Benchmark::Dsmc, 6, 2);
    let serial = base.run();
    let one = run_sharded(&base, 1);
    assert_eq!(one, serial, "explicit shards=1 diverged from default");
}

#[test]
fn streamed_replay_shards_identically() {
    // Trace replay through per-node streaming cursors (file-backed
    // programs with read-ahead) under the sharded engine: the whole
    // record → stream → shard pipeline is bit-exact end to end.
    let params = ltp::workloads::WorkloadParams::quick(8, 3);
    let trace = ltp::workloads::Trace::record(Benchmark::Moldyn, &params);
    let path = std::env::temp_dir().join(format!("ltp-shard-stream-{}.ltrace", std::process::id()));
    trace.save(&path).unwrap();
    let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
    let base = ExperimentSpec::builder(Arc::clone(&streaming))
        .policy_spec("ltp")
        .unwrap()
        .build();
    let serial = base.run().to_json();
    for shards in [2usize, 4] {
        let sharded = run_sharded(&base, shards).to_json();
        assert_eq!(sharded, serial, "streamed replay at {shards} shards");
    }
    std::fs::remove_file(&path).ok();
}
