//! Differential tests: the offline prediction path against the full
//! simulation.
//!
//! The claim behind `ltp predict` is that predictor quality can be
//! evaluated without simulating the machine. These tests prove the two
//! halves of that claim:
//!
//! 1. **Capture-replay exactness** (all nine benchmarks): wrap every
//!    policy of a full simulation in a [`CapturePolicy`], re-drive the
//!    captured per-node event stream through *fresh* policies with
//!    [`replay_capture`], and assert the offline pass reproduces every
//!    decision and every directory verdict. The offline
//!    [`VerdictEngine`]'s mask accounting is thereby checked against the
//!    real directory's, event for event, on the machine's own
//!    interleaving. (Runs serial: one thread records every callback, each
//!    node's in that node's simulated order.)
//!
//! 2. **Logical-replay equivalence** (the barrier-only benchmarks): run
//!    the *actual* `ltp predict` path — `ltp_workloads::replay`, which
//!    synthesizes the coherence events itself — and assert its verdict
//!    stream matches the machine's `PredictionVerified` events
//!    per-(node, block). For data-race-free programs whose only
//!    synchronization is barriers, conflicting accesses are ordered by
//!    barrier epochs, so hit/miss classification, invalidation points,
//!    and verdicts are timing-independent: the replay is exact, not
//!    approximate. Lock- and flag-based kernels (barnes, dsmc, ocean,
//!    raytrace, appbt) idealize spin waits and are deliberately excluded
//!    here — their offline numbers are faithful aggregates, not
//!    event-for-event replicas (see `crates/workloads/src/replay.rs`).
//!
//! The `timely` flag on machine verdicts is network-timing information
//! with no offline counterpart and is excluded from comparison.

use std::sync::{Arc, Mutex};

use ltp::core::{
    replay_capture, verdicts_by_site, CaptureLog, CapturePolicy, PolicyRegistry, PredictorConfig,
    SelfInvalidationPolicy, VerdictRecord, VerifyOutcome,
};
use ltp::dsm::{DirectoryKind, SystemConfig};
use ltp::sim::Cycle;
use ltp::system::{Machine, MetricsSection, Probe, ProbeCtx, SimEvent};
use ltp::workloads::{replay, Benchmark, WorkloadParams, WorkloadSource};

const NODES: u16 = 4;
const ITERS: u32 = 3;
const HORIZON: u64 = 2_000_000_000;

/// Collects every `PredictionVerified` event the machine emits, in event
/// order (`timely` dropped — it has no offline counterpart).
#[derive(Debug)]
struct VerdictTap(Arc<Mutex<Vec<VerdictRecord>>>);

impl Probe for VerdictTap {
    fn on_event(&mut self, _ctx: &ProbeCtx, event: &SimEvent) {
        if let SimEvent::PredictionVerified {
            node,
            block,
            outcome,
            ..
        } = *event
        {
            self.0.lock().unwrap().push(VerdictRecord {
                node,
                block,
                outcome,
            });
        }
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        None
    }
}

fn programs(bench: Benchmark, params: &WorkloadParams) -> Vec<Box<dyn ltp::workloads::Program>> {
    WorkloadSource::from(bench)
        .programs(params)
        .expect("synthetic benchmarks are infallible")
}

fn ltp_policies(n: u16) -> Vec<Box<dyn SelfInvalidationPolicy>> {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("ltp").expect("builtin spec");
    (0..n)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect()
}

/// Runs `bench` on a serial machine with capture-wrapped LTP policies;
/// returns the capture log plus the machine's own verdict stream.
fn captured_machine_run(bench: Benchmark) -> (CaptureLog, Vec<VerdictRecord>) {
    let params = WorkloadParams::quick(NODES, ITERS);
    let config = SystemConfig::builder()
        .nodes(NODES)
        .directory(DirectoryKind::Full)
        .build()
        .expect("valid config");
    let log = CaptureLog::shared();
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = ltp_policies(NODES)
        .into_iter()
        .enumerate()
        .map(|(n, inner)| {
            Box::new(CapturePolicy::new(
                ltp::core::NodeId::new(n as u16),
                inner,
                Arc::clone(&log),
            )) as Box<dyn SelfInvalidationPolicy>
        })
        .collect();
    let verdicts = Arc::new(Mutex::new(Vec::new()));
    // Machine::new = one shard: policy callbacks happen on one thread, each
    // node's in its simulated order, and the capture log records them so.
    let mut machine = Machine::new(config, policies, programs(bench, &params));
    machine.attach_probe(Box::new(VerdictTap(Arc::clone(&verdicts))));
    machine.run(Cycle::new(HORIZON));
    assert!(machine.all_finished(), "{bench:?} deadlocked");
    drop(machine);
    let log = Arc::try_unwrap(log)
        .expect("machine dropped its policy handles")
        .into_inner()
        .unwrap();
    let verdicts = Arc::try_unwrap(verdicts).unwrap().into_inner().unwrap();
    (log, verdicts)
}

#[test]
fn capture_and_machine_agree_on_every_verdict() {
    for bench in Benchmark::ALL {
        let (log, machine_verdicts) = captured_machine_run(bench);
        // The capture wrapper saw exactly the verdicts the machine emitted,
        // each node's in the same order. Across nodes the orders differ:
        // the event stream is serial, while the machine runs a window's
        // nodes one after another, so callbacks of one window interleave
        // by node.
        for n in 0..NODES {
            let node = ltp::core::NodeId::new(n);
            let of = |vs: &[VerdictRecord]| -> Vec<VerdictRecord> {
                vs.iter().filter(|v| v.node == node).copied().collect()
            };
            assert_eq!(
                of(&log.verdicts),
                of(&machine_verdicts),
                "{bench:?}: node {n}: capture wrapper vs SimEvent stream"
            );
        }
        assert_eq!(
            log.verdicts.len(),
            machine_verdicts.len(),
            "{bench:?}: verdict totals"
        );
        assert!(
            machine_verdicts
                .iter()
                .any(|v| v.outcome == VerifyOutcome::Correct),
            "{bench:?}: LTP verifies at least one prediction"
        );
    }
}

#[test]
fn offline_replay_of_captured_events_is_exact_on_all_benchmarks() {
    for bench in Benchmark::ALL {
        let (log, _) = captured_machine_run(bench);
        let events: Vec<_> = log.records.iter().map(|r| r.event.clone()).collect();
        let mut fresh = ltp_policies(NODES);
        let outcome = replay_capture(&events, &mut fresh);

        // Every decision the fresh policies made offline matches what the
        // captured policies decided inside the machine...
        assert_eq!(
            outcome.records.len(),
            log.records.len(),
            "{bench:?}: event counts"
        );
        for (i, (offline, online)) in outcome.records.iter().zip(&log.records).enumerate() {
            assert_eq!(offline, online, "{bench:?}: decision {i} diverged offline");
        }
        // ...and the offline VerdictEngine reconstructs the directory's
        // verdicts: identical per-(node, block) outcome sequences.
        assert_eq!(
            verdicts_by_site(&outcome.verdicts),
            verdicts_by_site(&log.verdicts),
            "{bench:?}: offline verdict reconstruction diverged"
        );
        let correct = |vs: &[VerdictRecord]| {
            vs.iter()
                .filter(|v| v.outcome == VerifyOutcome::Correct)
                .count()
        };
        assert_eq!(
            correct(&outcome.verdicts),
            correct(&log.verdicts),
            "{bench:?}: correct totals"
        );
        assert_eq!(
            outcome.verdicts.len(),
            log.verdicts.len(),
            "{bench:?}: verdict totals"
        );
    }
}

/// The benchmarks whose only synchronization is barriers — the ones where
/// the full logical replay is provably exact (see the module docs).
const BARRIER_ONLY: [Benchmark; 4] = [
    Benchmark::Em3d,
    Benchmark::Moldyn,
    Benchmark::Tomcatv,
    Benchmark::Unstructured,
];

#[test]
fn logical_replay_matches_machine_verdicts_on_barrier_only_benchmarks() {
    let params = WorkloadParams::quick(NODES, ITERS);
    for bench in BARRIER_ONLY {
        let (_, machine_verdicts) = captured_machine_run(bench);
        let mut policies = ltp_policies(NODES);
        let report = replay(programs(bench, &params), &mut policies, false);
        assert_eq!(
            verdicts_by_site(&report.verdicts),
            verdicts_by_site(&machine_verdicts),
            "{bench:?}: ltp predict's replay diverged from the machine"
        );
        assert_eq!(
            report.verdicts.len(),
            machine_verdicts.len(),
            "{bench:?}: verdict totals"
        );
    }
}
