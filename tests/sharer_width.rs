//! Width-generic sharer-set acceptance tests.
//!
//! The hybrid `SharerSet` (inline small-set spilling to a heap bit-vector)
//! replaced the fixed 256-bit array, so three things need pinning:
//!
//! * **Model equivalence** — under seeded random op streams at machine
//!   widths well past the old 256-node ceiling, the hybrid representation
//!   must agree with a naive `BTreeSet` model on every observable: member
//!   queries, length, ascending iteration, equality, and hashing.
//! * **Representation transitions** — crossing the inline capacity in both
//!   directions (inline → spilled → inline) must preserve contents, and
//!   equality/hashing must be *history-independent* (a set that spilled and
//!   shrank equals one built small directly).
//! * **Machine-width end-to-end** — full-map machines beyond 256 nodes run
//!   to completion with consistent invalidation accounting (the 32-node
//!   golden-report parity that pins bit-identity for existing widths lives
//!   in `tests/probe_api.rs` and must keep passing unchanged).

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use ltp::core::{
    BlockId, NodeId, Pc, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy, SharerSet,
};
use ltp::dsm::{DirectoryKind, SystemConfig};
use ltp::sim::{Cycle, SimRng, StopReason};
use ltp::system::{ExperimentSpec, Machine};
use ltp::workloads::{Benchmark, LoopedScript, Op, Program, WorkloadParams};

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Asserts every observable of the hybrid set against the model.
fn assert_agrees(set: &SharerSet, model: &BTreeSet<u16>, width: u16, ctx: &str) {
    assert_eq!(set.len(), model.len(), "{ctx}: length diverged");
    assert_eq!(
        set.is_empty(),
        model.is_empty(),
        "{ctx}: emptiness diverged"
    );
    let ours: Vec<u16> = set.iter().map(|n| n.index() as u16).collect();
    let theirs: Vec<u16> = model.iter().copied().collect();
    assert_eq!(ours, theirs, "{ctx}: ascending iteration diverged");
    // Membership probes beyond the live members (including the width edge).
    let mut rng = SimRng::from_seed(0xC0FFEE ^ u64::from(width));
    for _ in 0..32 {
        let probe = rng.below(u64::from(width)) as u16;
        assert_eq!(
            set.contains(NodeId::new(probe)),
            model.contains(&probe),
            "{ctx}: contains({probe}) diverged"
        );
    }
    // A rebuilt-from-scratch copy must compare and hash equal regardless of
    // the original's insert/remove history.
    let rebuilt: SharerSet = model.iter().map(|&n| NodeId::new(n)).collect();
    assert_eq!(set, &rebuilt, "{ctx}: history-dependent equality");
    assert_eq!(
        hash_of(set),
        hash_of(&rebuilt),
        "{ctx}: history-dependent hash"
    );
}

#[test]
fn fuzzed_equivalence_with_btreeset_model_at_every_width() {
    // 257 and 4096 are the interesting edges: one past the old u16x4 cap,
    // and the scaling target. 32/256 pin the legacy widths.
    for &width in &[32u16, 256, 257, 1024, 4096] {
        let mut rng = SimRng::from_seed(0x5EED_0001 ^ (u64::from(width) << 8));
        let mut set = SharerSet::new();
        let mut model: BTreeSet<u16> = BTreeSet::new();
        for step in 0..4000u32 {
            let node = rng.below(u64::from(width)) as u16;
            match rng.below(10) {
                // Insert-biased so spills actually happen at wide widths.
                0..=5 => {
                    set.insert(NodeId::new(node));
                    model.insert(node);
                }
                6..=8 => {
                    set.remove(NodeId::new(node));
                    model.remove(&node);
                }
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            if step % 257 == 0 {
                assert_agrees(&set, &model, width, &format!("width {width} step {step}"));
            }
        }
        assert_agrees(&set, &model, width, &format!("width {width} final"));
    }
}

#[test]
fn inline_to_spill_to_inline_transitions_preserve_contents() {
    let cap = SharerSet::INLINE as u16;
    let mut set = SharerSet::new();
    // Fill exactly to the inline capacity: still inline.
    for n in 0..cap {
        set.insert(NodeId::new(n * 31));
    }
    assert!(!set.is_spilled(), "at capacity the set stays inline");
    // One more (with a large id, so the bit-vector must size to it): spill.
    set.insert(NodeId::new(4095));
    assert!(set.is_spilled(), "the {}th member spills", cap + 1);
    assert_eq!(set.len(), usize::from(cap) + 1);
    for n in 0..cap {
        assert!(set.contains(NodeId::new(n * 31)));
    }
    assert!(set.contains(NodeId::new(4095)));
    // Remove back below capacity: shrinks to inline with contents intact.
    set.remove(NodeId::new(4095));
    assert!(!set.is_spilled(), "shrinking to capacity re-inlines");
    let survivors: Vec<u16> = set.iter().map(|n| n.index() as u16).collect();
    let expected: Vec<u16> = (0..cap).map(|n| n * 31).collect();
    assert_eq!(survivors, expected);
}

#[test]
fn spill_boundary_cycling_is_stable() {
    // Repeatedly oscillate across the boundary; every pass must land in
    // the same state (no leaked words, no drifting equality).
    let cap = SharerSet::INLINE as u16;
    let mut set = SharerSet::new();
    for n in 0..cap {
        set.insert(NodeId::new(n));
    }
    let inline_snapshot = set.clone();
    let inline_hash = hash_of(&set);
    for round in 0..50u16 {
        let extra = 256 + round * 7;
        set.insert(NodeId::new(extra));
        assert!(set.is_spilled(), "round {round}: insert must spill");
        set.remove(NodeId::new(extra));
        assert!(!set.is_spilled(), "round {round}: remove must re-inline");
        assert_eq!(set, inline_snapshot, "round {round}: contents drifted");
        assert_eq!(hash_of(&set), inline_hash, "round {round}: hash drifted");
    }
}

#[test]
fn wide_full_map_machines_run_with_exact_invalidation_accounting() {
    // A producer/consumer benchmark crossing the old ceiling: every node
    // reads shared data each iteration, so the full map must track >256
    // sharers exactly — any lost sharer shows up as a stuck machine or a
    // missing invalidation. (Machine-level asserts check token
    // monotonicity; `extra_invalidations == 0` pins full-map exactness.)
    // The 1024-node cases are the smallest width of
    // `reports/dir-scaling/wide.jsonl`: under `ltp` self-invalidations
    // cross invalidations, and a sparse entry cache that holds em3d's
    // per-home footprint must stay just as exact.
    for (nodes, policy, directory) in [
        (257u16, "base", DirectoryKind::Full),
        (320, "base", DirectoryKind::Full),
        (1024, "ltp:bits=13", DirectoryKind::Full),
        (1024, "ltp:bits=13", DirectoryKind::Sparse { entries: 64 }),
    ] {
        let report = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec(policy)
            .expect("builtin spec")
            .workload(WorkloadParams::quick(nodes, 1))
            .directory(directory)
            .build()
            .run();
        let m = &report.metrics;
        let case = format!("{nodes} nodes, {policy}, {directory}");
        assert!(m.exec_cycles > 0, "{case}: machine ran");
        assert!(m.invalidations_sent > 0, "{case}: sharing happened");
        assert_eq!(m.extra_invalidations, 0, "{case}: over-invalidated");
        assert_eq!(m.dir_evictions, 0, "{case}: nothing is evicted");
    }
}

#[test]
fn a_single_entry_tracks_more_sharers_than_the_old_ceiling() {
    // The sharpest width proof: every one of 320 nodes reads the same
    // block, then node 0 writes it. The home's *single* full-map entry must
    // hold all 320 sharers at once and invalidate exactly the other 319 —
    // one lost sharer deadlocks the write, one phantom shows up as an
    // extra invalidation.
    let nodes: u16 = 320;
    let read = Op::Read {
        pc: Pc::new(0x8_0000),
        block: BlockId::new(0),
    };
    let write = Op::Write {
        pc: Pc::new(0x8_1000),
        block: BlockId::new(0),
    };
    let programs: Vec<Box<dyn Program>> = (0..nodes)
        .map(|p| {
            let mut body = vec![read, Op::Barrier(0)];
            if p == 0 {
                body.push(write);
            }
            body.push(Op::Barrier(1));
            Box::new(LoopedScript::new(Vec::new(), body, 1)) as Box<dyn Program>
        })
        .collect();
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("base").expect("builtin spec");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..nodes)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let cfg = SystemConfig::builder().nodes(nodes).build().expect("valid");
    let mut machine = Machine::new(cfg, policies, programs);
    machine.attach_core_metrics();
    let summary = machine.run(Cycle::new(50_000_000));
    assert_ne!(
        summary.stop,
        StopReason::HorizonReached,
        "wide invalidation deadlocked:\n{:#?}",
        machine.stuck_nodes()
    );
    let (metrics, _) = machine.finish();
    let m = metrics.expect("core metrics attached");
    assert_eq!(
        m.invalidations_sent,
        u64::from(nodes) - 1,
        "the write must invalidate every other sharer exactly once"
    );
    assert_eq!(m.extra_invalidations, 0, "full maps are exact at any width");
}
