//! Random valid-trace generation (`ltp gen-trace`).
//!
//! Evaluation should not be limited to the nine synthetic kernels; this
//! module emits *random* traces that are nonetheless *valid workloads*:
//! every generated file round-trips the codecs bit-exactly (exercising
//! every opcode, large operand deltas, and loop-shaped regions the v2
//! repeat detector can find) **and** replays to completion on the
//! simulated machine (synchronization is generated coherently — barriers
//! arrive in the same order on every node, locks are always released,
//! flags are set before they are awaited).
//!
//! The generator is the engine of the fuzz-style round-trip tests in
//! `tests/trace_v2.rs` and of the `gen-trace` CLI subcommand.

use ltp_core::{BlockId, Pc};
use ltp_sim::SimRng;

use crate::program::{Lock, Op};
use crate::suite::WorkloadParams;

use super::{Trace, TraceWriter};

/// Block-id ranges for the generated address space: shared data blocks,
/// cross-node lock blocks, and per-node flag blocks never collide.
const DATA_BLOCKS: u64 = 1 << 16;
const LOCK_BLOCK_BASE: u64 = 1 << 20;
const LOCK_BLOCKS: u64 = 8;
const FLAG_BLOCK_BASE: u64 = 1 << 21;

/// Generates a random — but structurally valid and simulatable — trace.
///
/// Deterministic in `params` (the seed drives every choice) and shaped for
/// the codecs: streams mix literal runs, occasional far jumps in PC/block
/// space (stressing the ZigZag deltas), and looped mini-bodies the v2
/// repeat detector compresses. Node streams advance through the same
/// barrier sequence, so the trace replays to completion under any policy.
///
/// `ops_per_node` is approximate (streams end at phase boundaries); every
/// stream holds at least one op.
///
/// # Examples
///
/// ```
/// use ltp_workloads::{random_trace, Trace, WorkloadParams};
///
/// let trace = random_trace(&WorkloadParams::quick(4, 1), 500);
/// assert_eq!(trace.nodes(), 4);
/// assert!(trace.total_ops() >= 4 * 400);
///
/// // Bit-exact round trip through a file in the current format.
/// let path = std::env::temp_dir().join(format!("ltp-doc-gen-{}.ltrace", std::process::id()));
/// trace.save(&path).unwrap();
/// assert_eq!(Trace::load(&path).unwrap(), trace);
/// # std::fs::remove_file(&path).unwrap();
/// ```
///
/// # Panics
///
/// Panics if `params.nodes < 2` (as every workload does).
pub fn random_trace(params: &WorkloadParams, ops_per_node: u64) -> Trace {
    let mut writer = TraceWriter::new("random", *params);
    let mut root = SimRng::from_seed(params.seed ^ 0x6E67_7261_6365); // "gen" salt
    let nodes = params.nodes;

    // Phases end with a barrier on every node; each node fills each phase
    // independently from its own derived stream.
    let phases = (ops_per_node / 64).clamp(1, 32);
    let per_phase = (ops_per_node / phases).max(1);
    let mut node_rngs: Vec<SimRng> = (0..nodes).map(|n| root.derive(u64::from(n))).collect();

    for phase in 0..phases {
        for (node, rng) in node_rngs.iter_mut().enumerate() {
            let mut emitted = 0u64;
            let mut flag_seq = 0u64;
            while emitted < per_phase {
                emitted += emit_burst(&mut writer, node as u16, rng, phase, &mut flag_seq);
            }
            writer.push(node as u16, Op::Barrier(phase as u32));
        }
    }
    writer.finish()
}

/// Emits one burst of ops for `node` and returns how many were pushed.
fn emit_burst(
    writer: &mut TraceWriter,
    node: u16,
    rng: &mut SimRng,
    phase: u64,
    flag_seq: &mut u64,
) -> u64 {
    match rng.next_u64() % 100 {
        // Local computation.
        0..=24 => {
            writer.push(node, Op::Think(rng.next_u64() % 64));
            1
        }
        // Plain shared-memory traffic, mostly near the previous address
        // with occasional far jumps (stressing the delta coder).
        25..=64 => {
            let op = random_mem_op(rng);
            writer.push(node, op);
            1
        }
        // A looped mini-body: the structure the repeat detector exists for.
        65..=79 => {
            let body_len = 2 + (rng.next_u64() % 12) as usize;
            let reps = 2 + rng.next_u64() % 24;
            let body: Vec<Op> = (0..body_len).map(|_| random_mem_op(rng)).collect();
            for _ in 0..reps {
                for &op in &body {
                    writer.push(node, op);
                }
            }
            body_len as u64 * reps
        }
        // A critical section over a shared lock (always released, so the
        // test-and-set expansion at replay time terminates).
        80..=89 => {
            let lock = Lock {
                block: BlockId::new(LOCK_BLOCK_BASE + rng.next_u64() % LOCK_BLOCKS),
                spin_pc: Pc::new(rng.next_u64() as u32 & 0x00FF_FFFC),
                tas_pc: Pc::new(rng.next_u64() as u32 & 0x00FF_FFFC),
                release_pc: Pc::new(rng.next_u64() as u32 & 0x00FF_FFFC),
                exposed: rng.next_u64() % 2 == 0,
            };
            writer.push(node, Op::Lock(lock));
            writer.push(node, random_mem_op(rng));
            writer.push(node, Op::Unlock(lock));
            3
        }
        // A flag set/wait pair on this node's private flag block: the
        // wait's generation requirement is already satisfied by the set,
        // whatever the machine interleaving.
        _ => {
            let block = BlockId::new(
                FLAG_BLOCK_BASE + u64::from(node) * 1024 + phase * 8 + (*flag_seq % 8),
            );
            *flag_seq += 1;
            writer.push(
                node,
                Op::FlagSet {
                    pc: Pc::new(rng.next_u64() as u32 & 0x00FF_FFFC),
                    block,
                },
            );
            writer.push(
                node,
                Op::FlagWait {
                    pc: Pc::new(rng.next_u64() as u32 & 0x00FF_FFFC),
                    block,
                },
            );
            2
        }
    }
}

fn random_mem_op(rng: &mut SimRng) -> Op {
    let pc = Pc::new(if rng.next_u64() % 8 == 0 {
        rng.next_u64() as u32 // far jump, large delta
    } else {
        0x1000 + (rng.next_u64() % 256) as u32 * 4
    });
    let block = BlockId::new(if rng.next_u64() % 16 == 0 {
        rng.next_u64() // full 64-bit id, worst-case zigzag
    } else {
        rng.next_u64() % DATA_BLOCKS
    });
    if rng.next_u64() % 3 == 0 {
        Op::Write { pc, block }
    } else {
        Op::Read { pc, block }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TRACE_VERSION_V1;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let params = WorkloadParams {
            nodes: 3,
            seed: 99,
            iterations: None,
        };
        assert_eq!(random_trace(&params, 300), random_trace(&params, 300));
        let other = WorkloadParams {
            seed: 100,
            ..params
        };
        assert_ne!(random_trace(&params, 300), random_trace(&other, 300));
    }

    #[test]
    fn generated_traces_round_trip_both_versions() {
        for seed in 0..4 {
            let params = WorkloadParams {
                nodes: 2 + (seed as u16 % 3),
                seed,
                iterations: None,
            };
            let trace = random_trace(&params, 400);
            for version in [TRACE_VERSION_V1, super::super::TRACE_VERSION] {
                let mut bytes = Vec::new();
                trace.write_to_version(&mut bytes, version).unwrap();
                assert_eq!(
                    super::super::load_bytes(&bytes).unwrap(),
                    trace,
                    "seed {seed} v{version}"
                );
            }
        }
    }

    #[test]
    fn generated_streams_cover_every_op_kind_eventually() {
        let trace = random_trace(&WorkloadParams::quick(4, 1), 4000);
        for (kind, count) in trace.op_histogram() {
            assert!(count > 0, "no {kind} ops in a 16k-op random trace");
        }
    }

    #[test]
    fn barriers_line_up_across_nodes() {
        let trace = random_trace(&WorkloadParams::quick(3, 1), 500);
        let barrier_seq = |ops: &[Op]| -> Vec<u32> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Barrier(id) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let reference = barrier_seq(&trace.streams()[0]);
        assert!(!reference.is_empty());
        for stream in trace.streams() {
            assert_eq!(barrier_seq(stream), reference);
        }
    }
}
