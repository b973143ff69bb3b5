//! The stuck-run diagnosis, pinned node by node.
//!
//! A run that reaches its horizon names what each unfinished node was
//! doing: its class, the lock, flag, barrier or block it waits on, when it
//! last fetched an op and how many it retired. A node that finished its
//! program holding a lock is named as well. These tests build one node in
//! each waiting state a synchronizing program can park in, and a finished
//! lock holder, and assert the whole `stuck_nodes()` list, at one shard and
//! at one shard per node.

use ltp::core::{BlockId, Pc, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy};
use ltp::dsm::SystemConfig;
use ltp::sim::Cycle;
use ltp::system::{Machine, StuckClass, StuckNode};
use ltp::workloads::{Lock, Op, TraceWriter, WorkloadParams};

/// Node 0 takes lock L and waits at barrier 0; node 1 spins on L; node 2
/// waits on a flag no node ever sets.
fn stuck_machine(shards: usize) -> Machine {
    let lock = Lock::library(BlockId::new(7), 0x100);
    let mut writer = writer();
    writer.push(0, Op::Lock(lock));
    writer.push(0, Op::Barrier(0));
    writer.push(1, Op::Think(5_000));
    writer.push(1, Op::Lock(lock));
    writer.push(
        2,
        Op::FlagWait {
            pc: Pc::new(0x200),
            block: BlockId::new(11),
        },
    );
    machine(writer, shards)
}

/// Node 0 takes lock L and finishes inside its critical section; node 1
/// spins on L; node 2 takes and releases lock M and finishes clean.
fn finished_holder_machine(shards: usize) -> Machine {
    let lock = Lock::library(BlockId::new(7), 0x100);
    let other = Lock::library(BlockId::new(9), 0x300);
    let mut writer = writer();
    writer.push(0, Op::Lock(lock));
    writer.push(1, Op::Think(5_000));
    writer.push(1, Op::Lock(lock));
    writer.push(2, Op::Lock(other));
    writer.push(2, Op::Unlock(other));
    machine(writer, shards)
}

fn writer() -> TraceWriter {
    let params = WorkloadParams {
        nodes: 3,
        ..WorkloadParams::default()
    };
    TraceWriter::new("stuck", params)
}

fn machine(writer: TraceWriter, shards: usize) -> Machine {
    let factory = PolicyRegistry::with_builtins()
        .parse("base")
        .expect("builtin spec");
    let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..3)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let cfg = SystemConfig::builder().nodes(3).build().expect("valid");
    Machine::with_shards(cfg, policies, writer.finish().into_programs(), shards)
}

fn node(node: u16, class: StuckClass, detail: &str, last: u64, ops: u64) -> StuckNode {
    StuckNode {
        node,
        class,
        detail: detail.to_string(),
        last_progress_cycle: last,
        ops_retired: ops,
    }
}

#[test]
fn a_stuck_run_names_each_nodes_wait() {
    let expected = vec![
        node(0, StuckClass::BarrierWait, "barrier 0", 953, 2),
        node(1, StuckClass::LockSpin, "lock block B7 (Test)", 5_000, 2),
        node(2, StuckClass::FlagSpin, "flag block B11", 0, 1),
    ];
    for shards in [1, 3] {
        let mut machine = stuck_machine(shards);
        machine.run(Cycle::new(200_000));
        assert!(!machine.all_finished());
        assert_eq!(machine.stuck_nodes(), expected, "{shards} shard(s)");
    }
}

#[test]
fn a_node_that_finished_holding_a_lock_is_named() {
    let expected = vec![
        node(
            0,
            StuckClass::HoldsLock,
            "finished holding lock block B7",
            0,
            1,
        ),
        node(1, StuckClass::LockSpin, "lock block B7 (Test)", 5_000, 2),
    ];
    for shards in [1, 3] {
        let mut machine = finished_holder_machine(shards);
        machine.run(Cycle::new(200_000));
        assert!(!machine.all_finished());
        assert_eq!(machine.stuck_nodes(), expected, "{shards} shard(s)");
    }
}
