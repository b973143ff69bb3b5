//! The pipelined protocol engine — where Table 4's queueing happens.
//!
//! Each home node's directory is fronted by a [`ProtocolEngine`]: a FIFO of
//! arrived messages drained by a pipelined server. The paper models "an
//! aggressive two-stage pipelined protocol engine" to be fair to DSI's bursty
//! traffic; accordingly a service occupies the engine for
//! `service_time / pipeline_stages` (the initiation interval) while the
//! message's effects complete after the full `service_time`.
//!
//! [`ProtocolEngine::dequeue`] returns each message's *queueing delay*
//! (arrival → service start); the machine puts it, with the service time,
//! on the message's `MessageServiced` event, from which the report folds
//! the two Table 4 columns.

use std::collections::VecDeque;

use ltp_sim::Cycle;

use crate::msg::Message;

/// A home node's protocol engine: FIFO + pipelined server.
///
/// The engine does not know message semantics; the machine driver pops a
/// message when the engine is ready, asks the directory to process it, and
/// reports the resulting service time back via [`ProtocolEngine::begin_service`].
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, NodeId};
/// use ltp_dsm::{Message, MsgKind, ProtocolEngine};
/// use ltp_sim::Cycle;
///
/// let mut eng = ProtocolEngine::new(2);
/// let m = Message::new(NodeId::new(1), NodeId::new(0), BlockId::new(0), MsgKind::GetS);
/// assert!(eng.enqueue(Cycle::new(100), m), "engine was idle: caller schedules a drain");
/// let (msg, queued) = eng.dequeue(Cycle::new(100)).unwrap();
/// assert_eq!(queued, Cycle::ZERO, "serviced the cycle it arrived");
/// let done = eng.begin_service(Cycle::new(100), Cycle::new(128));
/// assert_eq!(done, Cycle::new(228));
/// assert_eq!(msg.kind, MsgKind::GetS);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolEngine {
    queue: VecDeque<(Cycle, Message)>,
    busy_until: Cycle,
    pipeline_stages: u32,
    drain_scheduled: bool,
}

impl ProtocolEngine {
    /// Creates an engine with the given pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `pipeline_stages` is zero.
    pub fn new(pipeline_stages: u32) -> Self {
        assert!(pipeline_stages > 0, "pipeline needs at least one stage");
        ProtocolEngine {
            queue: VecDeque::new(),
            busy_until: Cycle::ZERO,
            pipeline_stages,
            drain_scheduled: false,
        }
    }

    /// Enqueues a message arriving at `now`. Returns `true` when the caller
    /// must schedule a drain (no drain event is outstanding); the drain
    /// should fire at [`ProtocolEngine::next_ready`].
    pub fn enqueue(&mut self, now: Cycle, msg: Message) -> bool {
        self.queue.push_back((now, msg));
        if self.drain_scheduled {
            false
        } else {
            self.drain_scheduled = true;
            true
        }
    }

    /// The earliest time a service may start, given the pipeline occupancy.
    pub fn next_ready(&self, now: Cycle) -> Cycle {
        now.max(self.busy_until)
    }

    /// Pops the next message for service at `now`, with its queueing delay
    /// (the probe event stream reports it). Returns `None` when the queue is
    /// empty (the drain event was stale); the caller must re-arm via
    /// [`ProtocolEngine::enqueue`]'s return value.
    pub fn dequeue(&mut self, now: Cycle) -> Option<(Message, Cycle)> {
        match self.queue.pop_front() {
            Some((arrival, msg)) => {
                debug_assert!(now >= arrival, "service before arrival");
                Some((msg, now - arrival))
            }
            None => {
                self.drain_scheduled = false;
                None
            }
        }
    }

    /// Accounts one service starting at `now` lasting `service_time`;
    /// returns the completion time (when the service's messages depart).
    ///
    /// The engine becomes ready for the next message after one pipeline
    /// initiation interval (`service_time / stages`), not the full latency.
    pub fn begin_service(&mut self, now: Cycle, service_time: Cycle) -> Cycle {
        let ii = Cycle::new((service_time.as_u64() / u64::from(self.pipeline_stages)).max(1));
        self.busy_until = now + ii;
        now + service_time
    }

    /// Whether another drain must be scheduled after a service; clears the
    /// flag when the queue is empty.
    pub fn arm_next_drain(&mut self) -> bool {
        if self.queue.is_empty() {
            self.drain_scheduled = false;
            false
        } else {
            self.drain_scheduled = true;
            true
        }
    }

    /// Messages waiting for service.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use ltp_core::{BlockId, NodeId};

    fn m(i: u16) -> Message {
        Message::new(
            NodeId::new(i),
            NodeId::new(0),
            BlockId::new(0),
            MsgKind::GetS,
        )
    }

    #[test]
    fn first_enqueue_requests_drain_once() {
        let mut e = ProtocolEngine::new(2);
        assert!(e.enqueue(Cycle::new(0), m(1)));
        assert!(!e.enqueue(Cycle::new(1), m(2)), "drain already scheduled");
        assert_eq!(e.backlog(), 2);
    }

    #[test]
    fn queueing_delay_is_wait_time() {
        let mut e = ProtocolEngine::new(2);
        e.enqueue(Cycle::new(10), m(1));
        let (_, queued) = e.dequeue(Cycle::new(50)).unwrap();
        assert_eq!(queued, Cycle::new(40));
    }

    #[test]
    fn pipeline_initiation_interval_is_half_service() {
        let mut e = ProtocolEngine::new(2);
        e.enqueue(Cycle::new(0), m(1));
        e.dequeue(Cycle::new(0));
        let done = e.begin_service(Cycle::new(0), Cycle::new(128));
        assert_eq!(done, Cycle::new(128));
        // Ready again after 64, not 128.
        assert_eq!(e.next_ready(Cycle::new(0)), Cycle::new(64));
        assert_eq!(e.next_ready(Cycle::new(100)), Cycle::new(100));
    }

    #[test]
    fn initiation_interval_clamps_to_one_cycle() {
        // When the service time is shorter than the pipeline depth, the
        // integer initiation interval `service / stages` would round to 0 —
        // letting the next service start in the same cycle and the engine
        // process unboundedly many messages per cycle. The engine must
        // clamp the interval to one cycle.
        for (stages, service) in [(2u32, 1u64), (4, 2), (4, 3), (8, 1)] {
            let mut e = ProtocolEngine::new(stages);
            e.enqueue(Cycle::new(0), m(1));
            e.dequeue(Cycle::new(0));
            let done = e.begin_service(Cycle::new(0), Cycle::new(service));
            assert_eq!(
                done,
                Cycle::new(service),
                "{stages} stages / {service} cycles"
            );
            assert_eq!(
                e.next_ready(Cycle::new(0)),
                Cycle::new(1),
                "{stages} stages / {service} cycles: interval clamps to 1"
            );
        }
        // At exactly service == stages the interval is also 1 — the clamp
        // and the division agree at the boundary.
        let mut e = ProtocolEngine::new(4);
        e.enqueue(Cycle::new(0), m(1));
        e.dequeue(Cycle::new(0));
        e.begin_service(Cycle::new(0), Cycle::new(4));
        assert_eq!(e.next_ready(Cycle::new(0)), Cycle::new(1));
    }

    #[test]
    fn unpipelined_engine_serializes_fully() {
        let mut e = ProtocolEngine::new(1);
        e.enqueue(Cycle::new(0), m(1));
        e.dequeue(Cycle::new(0));
        e.begin_service(Cycle::new(0), Cycle::new(100));
        assert_eq!(e.next_ready(Cycle::new(0)), Cycle::new(100));
    }

    #[test]
    fn drain_rearm_cycle() {
        let mut e = ProtocolEngine::new(2);
        e.enqueue(Cycle::new(0), m(1));
        e.enqueue(Cycle::new(0), m(2));
        e.dequeue(Cycle::new(0)).unwrap();
        e.begin_service(Cycle::new(0), Cycle::new(24));
        assert!(e.arm_next_drain(), "one message left");
        e.dequeue(Cycle::new(12)).unwrap();
        e.begin_service(Cycle::new(12), Cycle::new(24));
        assert!(!e.arm_next_drain(), "queue empty");
        // New arrival now requests a fresh drain.
        assert!(e.enqueue(Cycle::new(20), m(3)));
    }

    #[test]
    fn stale_drain_returns_none_and_resets() {
        let mut e = ProtocolEngine::new(2);
        assert!(e.dequeue(Cycle::new(0)).is_none());
        assert!(e.enqueue(Cycle::new(0), m(1)), "flag was cleared");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        ProtocolEngine::new(0);
    }
}
