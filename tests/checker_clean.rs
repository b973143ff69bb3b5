//! Acceptance tests for the coherence sanitizer and the quiescence checker.
//!
//! * **Clean streams** — every benchmark, under the paper's LTP policy,
//!   runs to completion with the strict sanitizer attached: one reported
//!   violation panics the run. This holds across directory organizations
//!   and shard counts (the checker consumes the *merged* stream, so its
//!   section must also be bit-identical across `--shards`).
//! * **Quiescence** — a finished machine's ground state (every directory
//!   record and cached line) satisfies the invariant catalog, and the
//!   checker actually rejects corrupted ground state.

use ltp::core::{PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::{DirectoryKind, Line, SystemConfig};
use ltp::sim::{Cycle, StopReason};
use ltp::system::checker::{quiescence_violations, MachineView};
use ltp::system::{ExperimentSpec, Machine};
use ltp::workloads::{Benchmark, WorkloadParams};

fn checked_spec(benchmark: Benchmark, nodes: u16, dir: DirectoryKind) -> ExperimentSpec {
    ExperimentSpec::builder(benchmark)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(nodes)
        .iterations(2)
        .directory(dir)
        .probe_spec("check:strict")
        .expect("builtin probe")
        .build()
}

#[test]
fn strict_sanitizer_is_silent_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        // check:strict panics at the first violation, so completion is the
        // assertion; also require the checker actually saw traffic.
        let report = checked_spec(benchmark, 8, DirectoryKind::Full).run();
        let section = report
            .sections
            .iter()
            .find(|s| s.name == "check:strict")
            .unwrap_or_else(|| panic!("{benchmark}: check section missing"));
        let json = section.data.render();
        assert!(json.contains("\"violations\":0"), "{benchmark}: {json}");
        assert!(
            !json.contains("\"events\":0"),
            "{benchmark}: no events seen"
        );
    }
}

#[test]
fn sanitizer_is_silent_across_directory_organizations() {
    for dir in [
        DirectoryKind::Full,
        DirectoryKind::Coarse { cluster: 4 },
        DirectoryKind::LimitedPtr { pointers: 2 },
        DirectoryKind::Sparse { entries: 2 },
    ] {
        let report = checked_spec(Benchmark::Em3d, 8, dir).run();
        let section = report
            .sections
            .iter()
            .find(|s| s.name == "check:strict")
            .expect("check section");
        assert!(
            section.data.render().contains("\"violations\":0"),
            "{dir}: {}",
            section.data.render()
        );
    }
}

#[test]
fn strict_sanitizer_is_silent_on_every_benchmark_under_eviction_pressure() {
    // A 2-entry sparse directory cache thrashes on every benchmark, so the
    // sanitizer replays constant eviction/invalidation/ack interleavings —
    // including evictions racing self-invalidations. Strict mode panics on
    // the first divergence, so completion is the assertion; additionally
    // require that real evictions happened, or the pressure is imaginary
    // (in aggregate — benchmarks with tiny per-home footprints, like
    // raytrace, legitimately fit in 2 entries).
    let mut evictions = 0;
    for benchmark in Benchmark::ALL {
        let report = checked_spec(benchmark, 8, DirectoryKind::Sparse { entries: 2 }).run();
        let section = report
            .sections
            .iter()
            .find(|s| s.name == "check:strict")
            .unwrap_or_else(|| panic!("{benchmark}: check section missing"));
        let json = section.data.render();
        assert!(json.contains("\"violations\":0"), "{benchmark}: {json}");
        evictions += report.metrics.dir_evictions;
    }
    assert!(evictions > 0, "no benchmark pressured the 2-entry cache");
}

#[test]
fn checker_section_is_bit_identical_across_shard_counts() {
    let section_with_shards = |shards: usize| {
        let report = ExperimentSpec::builder(Benchmark::Moldyn)
            .policy_spec("ltp")
            .expect("builtin spec")
            .nodes(8)
            .iterations(2)
            .shards(shards)
            .probe_spec("check")
            .expect("builtin probe")
            .build()
            .run();
        report
            .sections
            .iter()
            .find(|s| s.name == "check")
            .expect("check section")
            .data
            .render()
    };
    let serial = section_with_shards(1);
    assert!(serial.contains("\"violations\":0"), "{serial}");
    assert_eq!(serial, section_with_shards(3));
    assert_eq!(serial, section_with_shards(4));
}

#[test]
fn quiescent_ground_state_satisfies_the_catalog() {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("ltp").expect("builtin spec");
    for dir in [
        DirectoryKind::Full,
        DirectoryKind::LimitedPtr { pointers: 1 },
        DirectoryKind::Sparse { entries: 2 },
    ] {
        let params = WorkloadParams::quick(8, 2);
        let cfg = SystemConfig::builder()
            .nodes(params.nodes)
            .directory(dir)
            .build()
            .expect("valid");
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..params.nodes)
            .map(|_| factory.build(PredictorConfig::default()))
            .collect();
        let programs = Benchmark::Unstructured.programs(&params);
        let mut machine = Machine::new(cfg, policies, programs);
        let summary = machine.run(Cycle::new(200_000_000));
        assert_ne!(summary.stop, StopReason::HorizonReached, "deadlock");
        assert!(machine.all_finished());
        let view = machine.view();
        let violations = quiescence_violations(&view);
        assert!(violations.is_empty(), "{dir}: {violations:?}");
    }
}

#[test]
fn quiescence_checker_rejects_corrupted_ground_state() {
    use ltp::core::{BlockId, NodeId};

    // An exclusive line the directory has no record of.
    let mut view = MachineView {
        nodes: 4,
        directory: DirectoryKind::Full,
        ..MachineView::default()
    };
    view.cache_lines.push((
        NodeId::new(1),
        BlockId::new(7),
        Line {
            exclusive: true,
            dirty: true,
            token: 3,
        },
    ));
    let violations = quiescence_violations(&view);
    assert!(
        violations.iter().any(|v| v.invariant == "agreement"),
        "{violations:?}"
    );

    // Work still queued at "quiescence".
    let busy = MachineView {
        nodes: 4,
        directory: DirectoryKind::Full,
        engine_backlog: 2,
        cache_pending: 1,
        ..MachineView::default()
    };
    let violations = quiescence_violations(&busy);
    assert_eq!(
        violations
            .iter()
            .filter(|v| v.invariant == "conservation")
            .count(),
        2,
        "{violations:?}"
    );
}

#[test]
fn quiescence_checker_reads_busy_and_masked_directory_records() {
    use ltp::core::{BlockId, NodeId};
    use ltp::dsm::{Directory, Message, MsgKind};

    let (home, n1, n2, n3) = (
        NodeId::new(0),
        NodeId::new(1),
        NodeId::new(2),
        NodeId::new(3),
    );
    let (busy, masked) = (BlockId::new(0), BlockId::new(1));
    let mut dir = Directory::new(home);
    // n1 reads `busy`, then n2's write leaves it Busy awaiting n1's ack.
    dir.process(Message::new(n1, home, busy, MsgKind::GetS));
    dir.process(Message::new(n2, home, busy, MsgKind::GetX));
    // n1 reads `masked` and self-invalidates it: a timely mask entry.
    dir.process(Message::new(n1, home, masked, MsgKind::GetS));
    dir.process(Message::new(n1, home, masked, MsgKind::SelfInvClean));

    let shared = Line {
        exclusive: false,
        dirty: false,
        token: 0,
    };
    let view = MachineView {
        nodes: 4,
        directory: DirectoryKind::Full,
        dir_blocks: [busy, masked]
            .into_iter()
            .map(|b| (home, b, dir.block(b).expect("tracked block")))
            .collect(),
        // A bystander's copy of the Busy block, and the self-invalidator's
        // copy of the masked block still in place.
        cache_lines: vec![(n1, masked, shared), (n3, busy, shared)],
        ..MachineView::default()
    };
    let violations = quiescence_violations(&view);
    let has = |invariant: &str, detail: &str| {
        violations
            .iter()
            .any(|v| v.invariant == invariant && v.detail == detail)
    };
    assert!(
        has("agreement", "B0 Busy at home yet cached by bystander P3"),
        "{violations:?}"
    );
    assert!(
        has("conservation", "P0: B0 still Busy at quiescence"),
        "{violations:?}"
    );
    assert!(
        has("mask", "P0: P1 is masked for B1 yet still holds a copy"),
        "{violations:?}"
    );
}
