//! Mutation self-test for the coherence sanitizer (`--features mutate`).
//!
//! The sanitizer's value rests on negative evidence: a checker that never
//! fires might be watching nothing. `ltp_dsm::mutation` plants five known
//! protocol bugs behind runtime switches; each test here arms one, runs a
//! real workload with the (non-strict) sanitizer attached, and asserts the
//! mutant is reported — with evidence lines — while the unmutated control
//! run stays silent.
//!
//! The machine is driven directly rather than through `ExperimentSpec`:
//! `DropInvAck` deadlocks its victim transaction, so the run must be
//! allowed to stop without `all_finished()` holding.
//!
//! The exhaustive explorer shares the ground rows of the catalog, and
//! `explorer_flags_skip_eviction_inv` proves it fires on the mutant that
//! breaks one. `WidenCoarseDecode` only over-invalidates, which is safe:
//! the explorer finds no violation for it (the shadow directory is what
//! catches it), so no explorer case exists for it.

#![cfg(feature = "mutate")]

use std::sync::Mutex;

use ltp::core::{JsonValue, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::mutation::{set_active, Mutant};
use ltp::dsm::{DirectoryKind, SystemConfig};
use ltp::sim::Cycle;
use ltp::system::{explore, CoherenceChecker, ExploreConfig, Machine};
use ltp::workloads::{Benchmark, WorkloadParams};

/// The mutant switch is process-global; tests must not interleave.
static MUTANT_LOCK: Mutex<()> = Mutex::new(());

/// Runs `benchmark` at 8 nodes with `mutant` armed and the sanitizer
/// attached; returns the checker section's (violations, invariant names,
/// evidence lines).
fn checked_run(
    mutant: Option<Mutant>,
    benchmark: Benchmark,
    dir: DirectoryKind,
    iterations: u32,
) -> (u64, Vec<String>, Vec<String>) {
    let params = WorkloadParams::quick(8, iterations);
    let cfg = SystemConfig::builder()
        .nodes(params.nodes)
        .directory(dir)
        .build()
        .expect("valid config");
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("ltp").expect("builtin spec");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..params.nodes)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let programs = benchmark.programs(&params);
    let mut machine = Machine::new(cfg, policies, programs);
    machine.attach_probe(Box::new(CoherenceChecker::new(params.nodes, dir, false)));

    set_active(mutant);
    machine.run(Cycle::new(200_000_000));
    set_active(None);

    let (_, sections) = machine.finish();
    let section = sections
        .into_iter()
        .find(|s| s.name == "check")
        .expect("checker section present");
    let JsonValue::Object(fields) = section.data else {
        panic!("checker section is not an object");
    };
    let mut violations = None;
    let mut invariants = Vec::new();
    let mut first = Vec::new();
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("violations", JsonValue::U64(n)) => violations = Some(n),
            ("invariants", JsonValue::Object(by)) => {
                invariants = by.into_iter().map(|(name, _)| name).collect();
            }
            ("first", JsonValue::Array(lines)) => {
                first = lines
                    .into_iter()
                    .filter_map(|l| match l {
                        JsonValue::Str(s) => Some(s),
                        _ => None,
                    })
                    .collect();
            }
            _ => {}
        }
    }
    (violations.expect("violations field"), invariants, first)
}

/// Asserts `mutant` trips the checker (and names `invariant` among the
/// violated rows), then that the identical unmutated run is silent — the
/// flag is attributable to the planted bug, not to the configuration.
fn assert_flagged(
    mutant: Mutant,
    invariant: &str,
    benchmark: Benchmark,
    dir: DirectoryKind,
    iterations: u32,
) {
    let _guard = MUTANT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (violations, invariants, first) = checked_run(Some(mutant), benchmark, dir, iterations);
    assert!(
        violations > 0,
        "{mutant:?} went undetected ({benchmark}, {dir})"
    );
    assert!(
        invariants.iter().any(|i| i == invariant),
        "{mutant:?}: expected a `{invariant}` violation, got {invariants:?}"
    );
    assert!(!first.is_empty(), "{mutant:?}: no evidence recorded");

    let (clean, _, first) = checked_run(None, benchmark, dir, iterations);
    assert_eq!(clean, 0, "control run not silent: {first:?}");
}

#[test]
fn unmutated_control_is_silent() {
    let _guard = MUTANT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (violations, _, first) = checked_run(None, Benchmark::Moldyn, DirectoryKind::Full, 2);
    assert_eq!(violations, 0, "{first:?}");
}

#[test]
fn drop_inv_ack_is_flagged() {
    // The home waits forever for the swallowed ack: the transaction (and
    // its requester) deadlock, surfacing as unresolved conservation debts.
    assert_flagged(
        Mutant::DropInvAck,
        "conservation",
        Benchmark::Moldyn,
        DirectoryKind::Full,
        2,
    );
}

#[test]
fn skip_fill_verify_is_flagged() {
    // A verdict rode the fill but the node never surfaced it to its
    // policy: the §4 verification mask and the predictor silently diverge.
    assert_flagged(
        Mutant::SkipFillVerify,
        "mask",
        Benchmark::Barnes,
        DirectoryKind::Full,
        4,
    );
}

#[test]
fn widen_coarse_decode_is_flagged() {
    // The widened decode invalidates a neighbor cluster the shadow's
    // spec-derived sharer set does not contain.
    assert_flagged(
        Mutant::WidenCoarseDecode,
        "shadow",
        Benchmark::Moldyn,
        DirectoryKind::Coarse { cluster: 2 },
        2,
    );
}

#[test]
fn skip_eviction_inv_is_flagged() {
    // The sparse directory frees the victim entry without invalidating its
    // holders: the shadow predicted an eviction invalidation round that
    // never appears on the wire, and the stale copies later collide with
    // the home's idle record.
    assert_flagged(
        Mutant::SkipEvictionInv,
        "shadow",
        Benchmark::Moldyn,
        DirectoryKind::Sparse { entries: 2 },
        2,
    );
}

#[test]
fn reorder_arrival_is_flagged() {
    // Same-cycle deliveries to one node must pop in source order — the
    // property the sharded boundary merge (and hence `--shards`
    // bit-identity) is built on.
    assert_flagged(
        Mutant::ReorderArrival,
        "determinism",
        Benchmark::Ocean,
        DirectoryKind::Full,
        2,
    );
}

#[test]
fn explorer_flags_skip_eviction_inv() {
    // Three blocks on two nodes co-home a pair, so a one-entry sparse
    // directory evicts; the freed entry's holder keeps its copy while the
    // home's record says Idle.
    let _guard = MUTANT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ExploreConfig {
        nodes: 2,
        blocks: 3,
        ops_per_node: 1,
        directory: DirectoryKind::Sparse { entries: 1 },
        max_states: 100_000,
    };
    set_active(Some(Mutant::SkipEvictionInv));
    let out = explore(&cfg);
    set_active(None);
    let v = out.violation.expect("SkipEvictionInv went undetected");
    assert_eq!(v.invariant, "agreement", "{v:?}");
    assert!(
        !v.trace.is_empty() && v.trace.iter().all(|step| !step.is_empty()),
        "{v:?}"
    );

    let clean = explore(&cfg);
    assert!(clean.violation.is_none(), "{:?}", clean.violation);
}
