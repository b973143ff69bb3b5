//! Randomized tests over the full machine: *any* well-formed random program
//! mix must run to completion (no protocol deadlock), with consistent
//! metrics, under every self-invalidation policy.
//!
//! The machine itself asserts data-token monotonicity at every directory
//! (a committed write may never be lost), so each case doubles as a
//! coherence check under randomized interleavings — including the
//! self-invalidation races the predictors inject.
//!
//! Generation is driven by the repository's own seeded [`SimRng`], so every
//! "random" case is reproducible from its printed seed.

use std::sync::Arc;

use ltp::core::{BlockId, Pc, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::SystemConfig;
use ltp::sim::{Cycle, SimRng, StopReason};
use ltp::system::{ExperimentSpec, Machine};
use ltp::workloads::{random_trace, Lock, LoopedScript, Op, Program, WorkloadParams};

/// A compact generator-friendly description of one memory op.
#[derive(Debug, Clone, Copy)]
enum GenOp {
    Think(u16),
    Read(u8, u8),   // (block, pc-site)
    Write(u8, u8),  // (block, pc-site)
    Locked(u8, u8), // critical section on lock l writing block b
}

fn gen_op(rng: &mut SimRng) -> GenOp {
    match rng.below(4) {
        0 => GenOp::Think(rng.range(1, 200) as u16),
        1 => GenOp::Read(rng.below(24) as u8, rng.below(12) as u8),
        2 => GenOp::Write(rng.below(24) as u8, rng.below(12) as u8),
        _ => GenOp::Locked(rng.below(3) as u8, rng.below(24) as u8),
    }
}

/// Per-node op sequences plus the iteration count; barriers are appended
/// after every node's sequence so the programs stay phase-aligned.
fn gen_workload(rng: &mut SimRng, nodes: usize) -> (Vec<Vec<GenOp>>, u32) {
    let per_node = (0..nodes)
        .map(|_| {
            let len = rng.range(1, 12) as usize;
            (0..len).map(|_| gen_op(rng)).collect()
        })
        .collect();
    (per_node, rng.range(1, 4) as u32)
}

/// Lowers the generated description to real programs. Lock blocks live in a
/// region disjoint from data blocks; every critical section is
/// acquire/write/release, so locks always pair.
fn lower(per_node: &[Vec<GenOp>], iters: u32) -> Vec<Box<dyn Program>> {
    const LOCK_BASE: u64 = 1000;
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
                    GenOp::Locked(l, b) => {
                        let lock = Lock::library(BlockId::new(LOCK_BASE + u64::from(l)), 0x7_2c10);
                        body.push(Op::Lock(lock));
                        body.push(Op::Write {
                            pc: Pc::new(0x7_5e80),
                            block: BlockId::new(u64::from(b)),
                        });
                        body.push(Op::Unlock(lock));
                    }
                }
            }
            body.push(Op::Barrier(0));
            Box::new(LoopedScript::new(Vec::new(), body, iters)) as Box<dyn Program>
        })
        .collect()
}

fn run(policy_spec: &str, per_node: &[Vec<GenOp>], iters: u32) -> ltp::system::Metrics {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse(policy_spec).expect("builtin spec");
    let nodes = per_node.len() as u16;
    let cfg = SystemConfig::builder().nodes(nodes).build().expect("valid");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..nodes)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let mut machine = Machine::new(cfg, policies, lower(per_node, iters));
    machine.attach_core_metrics();
    let summary = machine.run(Cycle::new(200_000_000));
    assert_ne!(
        summary.stop,
        StopReason::HorizonReached,
        "protocol deadlock under {policy_spec}:\n{:#?}",
        machine.stuck_nodes()
    );
    assert!(machine.all_finished());
    let (metrics, _) = machine.finish();
    metrics.expect("core metrics attached")
}

#[test]
fn any_program_mix_completes_under_every_policy() {
    let mut rng = SimRng::from_seed(0x15CA_2000_0001);
    for case in 0..48 {
        let (per_node, iters) = gen_workload(&mut rng, 4);
        for policy in ["base", "dsi", "ltp"] {
            let m = run(policy, &per_node, iters);
            assert_eq!(
                m.invalidation_events(),
                m.predicted + m.not_predicted,
                "case {case} under {policy}"
            );
            assert!(
                m.predicted_timely <= m.predicted,
                "case {case} under {policy}"
            );
            assert!(
                m.mispredicted <= m.self_invalidations_sent,
                "case {case} under {policy}"
            );
        }
    }
}

#[test]
fn self_invalidation_never_changes_program_traffic_shape() {
    // The CPUs execute the same op streams regardless of policy: every
    // program access completes exactly once, as either a hit or a miss
    // (a premature self-invalidation turns a hit into a miss but never
    // adds or removes accesses). Lock spinning adds timing-dependent
    // accesses, so the invariant is asserted for lock-free mixes only.
    let mut rng = SimRng::from_seed(0x15CA_2000_0002);
    let mut lock_free_cases = 0;
    while lock_free_cases < 12 {
        let (per_node, iters) = gen_workload(&mut rng, 3);
        let has_locks = per_node
            .iter()
            .flatten()
            .any(|op| matches!(op, GenOp::Locked(..)));
        if has_locks {
            continue;
        }
        lock_free_cases += 1;
        let base = run("base", &per_node, iters);
        let ltp = run("ltp", &per_node, iters);
        assert_eq!(
            base.hits + base.misses,
            ltp.hits + ltp.misses,
            "case {lock_free_cases}"
        );
    }
}

#[test]
fn deterministic_replay() {
    let mut rng = SimRng::from_seed(0x15CA_2000_0003);
    for case in 0..12 {
        let (per_node, iters) = gen_workload(&mut rng, 3);
        let a = run("ltp", &per_node, iters);
        let b = run("ltp", &per_node, iters);
        assert_eq!(a, b, "case {case}");
    }
}

/// Random traces pin the racy lock, flag and barrier interleavings byte for
/// byte: the golden holds the `--json` report of every run, in run order, as
/// written by
///
/// ```sh
/// for s in 1 2 3; do ltp gen-trace -n 8 --ops 4000 -s $s -o r$s.ltrace; done
/// ltp run -t r1.ltrace,r2.ltrace,r3.ltrace -p base,ltp,tage -d full,sparse:16 \
///     --json > tests/data/golden_random_8.jsonl
/// ```
#[test]
fn random_traces_match_their_golden_reports() {
    let golden = include_str!("data/golden_random_8.jsonl");
    let mut expected = golden.lines();
    for seed in 1..=3 {
        let params = WorkloadParams {
            nodes: 8,
            seed,
            iterations: None,
        };
        let trace = Arc::new(random_trace(&params, 4000));
        for policy in ["base", "ltp", "tage"] {
            for dir in ["full", "sparse:16"] {
                let json = ExperimentSpec::replay(Arc::clone(&trace))
                    .policy_spec(policy)
                    .expect("builtin spec")
                    .directory(dir.parse().expect("directory spec"))
                    .build()
                    .run()
                    .to_json();
                assert_eq!(
                    Some(json.as_str()),
                    expected.next(),
                    "seed {seed}, -p {policy}, -d {dir}"
                );
            }
        }
    }
    assert_eq!(expected.next(), None, "the golden has extra runs");
}
