//! Directory-organization equivalence and determinism tests.
//!
//! The tentpole invariants of the scalable sharer representations:
//!
//! * `full` on the new `SharerSet` behaves exactly like the seed's
//!   `BTreeSet` full map — and any organization whose representation stays
//!   exact (`coarse:1`, `ptr:I` that never overflows) is *bit-identical*
//!   to `full`, report for report;
//! * imprecise organizations (`coarse:K>1`, overflowing `ptr:I`) remain
//!   deterministic: same spec, same report;
//! * `extra_invalidations == 0` whenever the sharer count fits the
//!   representation exactly, and only imprecision makes it positive.
//!
//! Random workloads are driven by the repository's seeded [`SimRng`], so
//! every case is reproducible.

use ltp::core::{BlockId, Pc, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::{DirectoryKind, SystemConfig};
use ltp::sim::{Cycle, SimRng, StopReason};
use ltp::system::{ExperimentSpec, Machine, Metrics};
use ltp::workloads::{Benchmark, LoopedScript, Op, Program};

// ---- randomized machine harness (mirrors tests/random_machine.rs) --------

#[derive(Debug, Clone, Copy)]
enum GenOp {
    Think(u16),
    Read(u8, u8),
    Write(u8, u8),
}

fn gen_workload(rng: &mut SimRng, nodes: usize) -> (Vec<Vec<GenOp>>, u32) {
    let per_node = (0..nodes)
        .map(|_| {
            let len = rng.range(1, 10) as usize;
            (0..len)
                .map(|_| match rng.below(3) {
                    0 => GenOp::Think(rng.range(1, 150) as u16),
                    1 => GenOp::Read(rng.below(16) as u8, rng.below(10) as u8),
                    _ => GenOp::Write(rng.below(16) as u8, rng.below(10) as u8),
                })
                .collect()
        })
        .collect();
    (per_node, rng.range(1, 4) as u32)
}

fn lower(per_node: &[Vec<GenOp>], iters: u32) -> Vec<Box<dyn Program>> {
    per_node
        .iter()
        .map(|ops| {
            let mut body: Vec<Op> = Vec::new();
            for op in ops {
                match *op {
                    GenOp::Think(c) => body.push(Op::Think(u64::from(c))),
                    GenOp::Read(b, s) => body.push(Op::Read {
                        pc: Pc::new(0x5_0000 + u32::from(s) * 0x9c4),
                        block: BlockId::new(u64::from(b)),
                    }),
                    GenOp::Write(b, s) => body.push(Op::Write {
                        pc: Pc::new(0x6_0000 + u32::from(s) * 0xa38),
                        block: BlockId::new(u64::from(b)),
                    }),
                }
            }
            body.push(Op::Barrier(0));
            Box::new(LoopedScript::new(Vec::new(), body, iters)) as Box<dyn Program>
        })
        .collect()
}

fn run(
    directory: DirectoryKind,
    policy_spec: &str,
    per_node: &[Vec<GenOp>],
    iters: u32,
) -> Metrics {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse(policy_spec).expect("builtin spec");
    let nodes = per_node.len() as u16;
    let cfg = SystemConfig::builder()
        .nodes(nodes)
        .directory(directory)
        .build()
        .expect("valid");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..nodes)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let mut machine = Machine::new(cfg, policies, lower(per_node, iters));
    machine.attach_core_metrics();
    let summary = machine.run(Cycle::new(200_000_000));
    assert_ne!(
        summary.stop,
        StopReason::HorizonReached,
        "deadlock under {directory} / {policy_spec}:\n{:#?}",
        machine.stuck_nodes()
    );
    assert!(machine.all_finished());
    let (metrics, _) = machine.finish();
    metrics.expect("core metrics attached")
}

#[test]
fn exact_organizations_are_bit_identical_to_full_map() {
    // coarse:1 and a never-overflowing ptr:N are exact representations; a
    // run under them must produce metrics bit-identical to the full map,
    // under every policy, with zero over-invalidation — randomized across
    // workload shapes.
    let mut rng = SimRng::from_seed(0x15CA_2000_0010);
    for case in 0..24 {
        let (per_node, iters) = gen_workload(&mut rng, 4);
        for policy in ["base", "dsi", "ltp"] {
            let full = run(DirectoryKind::Full, policy, &per_node, iters);
            for alias in [
                DirectoryKind::Coarse { cluster: 1 },
                DirectoryKind::LimitedPtr { pointers: 4 },
            ] {
                let m = run(alias, policy, &per_node, iters);
                assert_eq!(m, full, "case {case}: {alias} != full under {policy}");
                assert_eq!(m.broadcast_overflows, 0, "case {case} {alias}");
            }
            assert_eq!(full.extra_invalidations, 0, "case {case} {policy}");
        }
    }
}

#[test]
fn imprecise_organizations_stay_deterministic() {
    let mut rng = SimRng::from_seed(0x15CA_2000_0011);
    for case in 0..12 {
        let (per_node, iters) = gen_workload(&mut rng, 6);
        for directory in [
            DirectoryKind::Coarse { cluster: 3 },
            DirectoryKind::LimitedPtr { pointers: 1 },
        ] {
            for policy in ["base", "ltp"] {
                let a = run(directory, policy, &per_node, iters);
                let b = run(directory, policy, &per_node, iters);
                assert_eq!(a, b, "case {case}: {directory} under {policy}");
            }
        }
    }
}

#[test]
fn exact_fit_has_no_extra_invalidations() {
    // Every node reads the block, then the last one writes it: the sharer
    // count fills each coarse cluster exactly and fits a ptr array sized to
    // the machine, so neither organization over-invalidates.
    let nodes = 4u16;
    let mk = |i: u64| -> Box<dyn Program> {
        let mut ops = vec![
            Op::Read {
                pc: Pc::new(0x100),
                block: BlockId::new(1),
            },
            Op::Barrier(0),
        ];
        if i == 3 {
            ops.push(Op::Write {
                pc: Pc::new(0x200),
                block: BlockId::new(1),
            });
        }
        Box::new(LoopedScript::new(ops, vec![], 0))
    };
    for directory in [
        DirectoryKind::Full,
        DirectoryKind::Coarse { cluster: 2 },
        DirectoryKind::LimitedPtr { pointers: 4 },
    ] {
        let cfg = SystemConfig::builder()
            .nodes(nodes)
            .directory(directory)
            .build()
            .unwrap();
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..nodes)
            .map(|_| Box::new(ltp::core::NullPolicy) as Box<dyn SelfInvalidationPolicy>)
            .collect();
        let mut machine = Machine::new(cfg, policies, (0..u64::from(nodes)).map(mk).collect());
        machine.attach_core_metrics();
        assert_ne!(
            machine.run(Cycle::new(10_000_000)).stop,
            StopReason::HorizonReached
        );
        let (m, _) = machine.finish();
        let m = m.expect("core metrics attached");
        assert_eq!(
            m.extra_invalidations, 0,
            "{directory}: all invalidation targets held copies"
        );
        assert_eq!(m.broadcast_overflows, 0, "{directory}");
        assert_eq!(m.not_predicted, 3, "{directory}: 3 sharers invalidated");
    }
}

#[test]
fn over_invalidation_is_measured_when_the_fit_breaks() {
    // 3 sharers under ptr:1 overflow into broadcast: the write invalidates
    // every other node, including those that never shared.
    let report = |directory| {
        ExperimentSpec::builder(Benchmark::Moldyn)
            .policy_spec("base")
            .unwrap()
            .nodes(8)
            .iterations(4)
            .directory(directory)
            .build()
            .run()
    };
    let full = report(DirectoryKind::Full);
    let ptr1 = report(DirectoryKind::LimitedPtr { pointers: 1 });
    assert_eq!(full.metrics.extra_invalidations, 0);
    assert_eq!(full.metrics.broadcast_overflows, 0);
    assert!(
        ptr1.metrics.broadcast_overflows > 0,
        "moldyn's multi-sharer blocks must overflow a single pointer"
    );
    assert!(
        ptr1.metrics.extra_invalidations > 0,
        "broadcast rounds hit nodes without copies"
    );
    assert!(ptr1.metrics.invalidations_sent > full.metrics.invalidations_sent);
}

#[test]
fn sparse_cache_thrashes_while_full_map_stays_exact_at_64_nodes() {
    // The smallest width of `reports/dir-scaling/suite.jsonl`: under `ltp`
    // the full map sends no invalidation a sharer did not need, and a
    // 16-entry sparse cache is small enough to evict, so the eviction path
    // is exercised rather than assumed.
    let report = |benchmark, directory| {
        ExperimentSpec::builder(benchmark)
            .policy_spec("ltp:bits=13")
            .unwrap()
            .nodes(64)
            .iterations(2)
            .directory(directory)
            .build()
            .run()
    };
    for benchmark in [Benchmark::Em3d, Benchmark::Ocean] {
        let full = report(benchmark, DirectoryKind::Full);
        assert!(full.metrics.invalidations_sent > 0, "{benchmark}");
        assert_eq!(full.metrics.extra_invalidations, 0, "{benchmark}");
        let sparse = report(benchmark, DirectoryKind::Sparse { entries: 16 });
        assert!(
            sparse.metrics.dir_evictions > 0,
            "{benchmark}: sparse:16 must evict at 64 nodes"
        );
        assert_eq!(sparse.metrics.extra_invalidations, 0, "{benchmark}");
    }
}

#[test]
fn all_nine_benchmarks_complete_under_every_organization() {
    // The scaled-down suite completes (no deadlock) under coarse and
    // limited-pointer directories with every built-in policy family's most
    // aggressive member running, and reports stay self-consistent.
    for benchmark in Benchmark::ALL {
        for directory in [
            DirectoryKind::Coarse { cluster: 4 },
            DirectoryKind::LimitedPtr { pointers: 2 },
        ] {
            let report = ExperimentSpec::builder(benchmark)
                .policy_spec("ltp")
                .unwrap()
                .nodes(8)
                .iterations(2)
                .directory(directory)
                .build()
                .run();
            assert!(report.metrics.exec_cycles > 0, "{benchmark} {directory}");
            assert_eq!(report.directory, directory);
        }
    }
}
