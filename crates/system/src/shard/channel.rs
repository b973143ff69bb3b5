//! Cross-node exchange records and the worker rendezvous barrier.
//!
//! During a window, nodes never touch each other's state: everything that
//! must reach another node is buffered in the sending shard and delivered
//! after the window —
//!
//! * [`Stamped`] protocol messages bound for any other node, each carrying
//!   its delivery cycle (≥ the next window start, by the lookahead
//!   argument) and the sender's per-node FIFO sequence number, boxed per
//!   destination shard: the sending shard delivers its own box at the end
//!   of its window, the coordinator the others at the window boundary;
//! * [`SyncRecord`]s describing barrier arrivals and program completions,
//!   folded into the global barrier state by the coordinator;
//! * [`ProbeEntry`] event logs, ordered across shards and nodes by the tag
//!   of the event that emitted each entry and replayed into the attached
//!   probes.
//!
//! The sequence stamps make every record's position in the merged order a
//! function of simulated content, never of wall-clock scheduling — this is
//! where bit-identity across shard counts is enforced.

use std::sync::atomic::{AtomicUsize, Ordering};

use ltp_dsm::Message;
use ltp_sim::Cycle;

use crate::probe::SimEvent;

use super::EventKey;

/// A protocol message on its way to another node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamped {
    /// Absolute delivery cycle at the destination.
    pub deliver: Cycle,
    /// The sender node's FIFO sequence number (part of the arrival's
    /// deterministic event key).
    pub seq: u64,
    /// The message itself.
    pub msg: Message,
}

/// What a node did at a synchronization point during a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncEvent {
    /// The node arrived at barrier `id`.
    Arrive(u32),
    /// The node finished its program.
    Finish,
}

/// One barrier-relevant action, logged by the owning shard and folded
/// globally by the coordinator in `(cycle, node)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyncRecord {
    pub at: Cycle,
    pub node: u16,
    pub ev: SyncEvent,
}

/// One probe-visible event, tagged with the `(cycle, key)` of the handler
/// that emitted it. A shard writes its log node by node, so the tags, not
/// the log positions, carry the serial emission order: the observer sorts
/// each window's logs by tag (`ltp_sim::WindowSort`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeEntry {
    /// Time and key of the handled event this emission belongs to. Keys are
    /// globally unique per cycle, and one handler's emissions stay
    /// contiguous, so `(at, key, intra-log position)` is a total order.
    pub at: Cycle,
    pub key: EventKey,
    /// The emission's own timestamp (handlers emit at `now` and occasionally
    /// at later completion times).
    pub now: Cycle,
    pub event: SimEvent,
}

/// A sense-reversing spin barrier for the window rendezvous.
///
/// `std::sync::Barrier` parks threads in the kernel; at tens of thousands of
/// windows per run the wake-up latency dominates the small windows. This
/// barrier spins (with a `yield_now` fallback so oversubscribed machines
/// still make progress), which keeps the per-window synchronization cost in
/// the sub-microsecond range.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    pub fn new(total: usize) -> Self {
        assert!(total > 0);
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `total` participants have called `wait`.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset the count for the next phase, then flip
            // the generation to release the spinners. Participants can only
            // re-enter after observing the flip, so the reset cannot race
            // with next-phase increments.
            self.count.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 10_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn spin_barrier_synchronizes_phases() {
        let threads = 4;
        let barrier = Arc::new(SpinBarrier::new(threads));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for phase in 0..100u64 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // Between the two waits every thread has finished its
                        // increment for this phase.
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen, (phase + 1) * threads as u64);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
