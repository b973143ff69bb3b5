//! Combining-tree barrier acceptance tests.
//!
//! The global barrier fold runs through a combining tree instead of a
//! central wait-set, and the claim is that this changes *cost*, never
//! *behavior*: releases land at window-boundary cycles, so every report is
//! bit-identical to the central wait-set — across fan-ins, shard counts,
//! and machine widths. (The pre-PR 32-node goldens in `tests/probe_api.rs`
//! pin the old wait-set behavior byte-for-byte; everything here extends
//! that to the knobs the tree introduced.)
//!
//! The malformed-workload guard also survives the rewrite: any node
//! arriving at a second barrier id while one is collecting must hard-panic
//! ("distinct barrier"), never silently merge, at any width or fan-in.

use ltp::core::{PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::SystemConfig;
use ltp::sim::{Cycle, SimRng};
use ltp::system::{ExperimentSpec, Machine, RunReport};
use ltp::workloads::{Benchmark, LoopedScript, Op, Program, WorkloadParams};

fn spec(benchmark: Benchmark, nodes: u16, iters: u32, fanin: u16) -> ExperimentSpec {
    ExperimentSpec::builder(benchmark)
        .policy_spec("ltp")
        .unwrap()
        .nodes(nodes)
        .iterations(iters)
        .barrier_fanin(fanin)
        .build()
}

fn run_sharded(base: &ExperimentSpec, shards: usize) -> RunReport {
    let mut spec = base.clone();
    spec.shards = shards;
    spec.run()
}

#[test]
fn every_fanin_is_bit_identical_at_legacy_widths() {
    // 32 and 256 nodes: the widths the central wait-set served. Fan-in
    // only restructures the arrival counters; the released set and the
    // release cycle are properties of the workload and the window grid.
    for &(nodes, iters) in &[(32u16, 2u32), (256, 1)] {
        let baseline = spec(Benchmark::Em3d, nodes, iters, 4).run().to_json();
        for fanin in [2u16, 3, 8, 256] {
            let report = spec(Benchmark::Em3d, nodes, iters, fanin).run().to_json();
            assert_eq!(
                report, baseline,
                "{nodes} nodes: fan-in {fanin} diverged from fan-in 4"
            );
        }
    }
}

#[test]
fn thousand_node_barriers_are_deterministic_across_shard_counts() {
    // 1024 nodes exercises a 5-level fan-in-4 tree; windows partition the
    // arrival records differently at every shard count, so this pins the
    // fold-order independence of the tree (releases quantized to the grid).
    let base = ExperimentSpec::builder(Benchmark::Em3d)
        .policy_spec("base")
        .unwrap()
        .nodes(1024)
        .workload(WorkloadParams::quick(1024, 2))
        .build();
    let serial = base.run().to_json();
    for shards in [2usize, 4, 8] {
        let sharded = run_sharded(&base, shards).to_json();
        assert_eq!(
            sharded, serial,
            "1024 nodes: {shards}-shard report diverged from serial"
        );
    }
}

/// Builds an N-node machine where every node loops `Think(stagger) ;
/// Barrier(i)` over `rounds` sequential barrier ids — except `skipper`,
/// which omits barrier `skipped` entirely (when set). Returns the run
/// outcome via the machine's completion.
fn barrier_storm(nodes: u16, fanin: u16, rounds: u32, rng: &mut SimRng, skip: Option<(u16, u32)>) {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("base").expect("builtin spec");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..nodes)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let programs: Vec<Box<dyn Program>> = (0..nodes)
        .map(|p| {
            let mut body = Vec::new();
            for id in 0..rounds {
                body.push(Op::Think(rng.range(1, 400)));
                if skip != Some((p, id)) {
                    body.push(Op::Barrier(id));
                }
            }
            Box::new(LoopedScript::new(Vec::new(), body, 1)) as Box<dyn Program>
        })
        .collect();
    let cfg = SystemConfig::builder()
        .nodes(nodes)
        .barrier_fanin(fanin)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, policies, programs);
    let summary = machine.run(Cycle::new(50_000_000));
    assert!(
        machine.all_finished(),
        "barrier storm stuck ({:?}):\n{:#?}",
        summary.stop,
        machine.stuck_nodes()
    );
}

#[test]
fn staggered_barrier_storms_complete_at_every_fanin() {
    // Seeded random stagger so arrivals straddle many windows; all live
    // nodes must release every round at every tree shape.
    let mut rng = SimRng::from_seed(0xBA44_1E40_0001);
    for &nodes in &[5u16, 17, 64, 257] {
        for fanin in [2u16, 4, 7] {
            barrier_storm(nodes, fanin, 4, &mut rng, None);
        }
    }
}

#[test]
fn skipped_barriers_hard_panic_at_any_tree_shape() {
    // Fuzzed regression for the "distinct barrier" guard: one random node
    // skips one random (non-final) barrier id, so some node always reaches
    // the next id while others still collect the skipped one. The fold
    // must panic — a silent merge would corrupt release bookkeeping.
    let mut rng = SimRng::from_seed(0xBA44_1E40_0002);
    for case in 0..6 {
        let nodes = *[5u16, 33, 64].get(case % 3).unwrap();
        let fanin = *[2u16, 4].get(case % 2).unwrap();
        let skipper = rng.below(u64::from(nodes)) as u16;
        let skipped = rng.below(2) as u32; // one of the first two of 3 rounds
        let seed = rng.next_u64();
        let result = std::panic::catch_unwind(move || {
            let mut inner = SimRng::from_seed(seed);
            barrier_storm(nodes, fanin, 3, &mut inner, Some((skipper, skipped)));
        });
        let payload = result.expect_err(&format!(
            "case {case}: node {skipper} skipping barrier {skipped} must panic"
        ));
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("distinct barrier"),
            "case {case}: wrong panic: {msg}"
        );
    }
}
