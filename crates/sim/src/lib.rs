//! # `ltp-sim` — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the ISCA 2000 *Last-Touch Prediction* reproduction.
//! This crate knows nothing about caches or predictors; it provides:
//!
//! * [`Cycle`] — simulated time in processor cycles;
//! * [`KeyedEventQueue`] — a future-event list with a deterministic total
//!   order and a step lane for per-actor events;
//! * [`RunSummary`]/[`StopReason`] — what a run reports when it stops;
//! * [`SimRng`] — seeded randomness so workloads are reproducible;
//! * [`stats`] — mean accumulators and histograms, used by the probes that
//!   fold the machine's event stream into reports.
//!
//! Determinism is the design center: the paper's predictors learn from the
//! *order* of coherence events, so reproducing its tables requires that two
//! runs with the same configuration observe identical event interleavings.
//! The queue therefore breaks timestamp ties by a content key supplied by
//! the caller, and all randomness flows through explicitly-seeded
//! [`SimRng`] streams.
//!
//! [`KeyedEventQueue`] is a calendar queue: a ring of 256 one-cycle
//! slots covers the cycles from the last popped one onward, a bitmap of
//! occupied slots finds the next busy cycle with `trailing_zeros`, and
//! each slot's keyed bucket stays sorted by `(key, seq)` on insert so a pop
//! is a `pop_front`. Events beyond the ring wait in an overflow binary heap
//! and move into the ring as time advances. Nearly every simulator event
//! lands a few cycles ahead, so a push and a pop cost a bucket access rather
//! than a heap sift.
//!
//! Each slot also has a **step lane**: a bitset over a fixed set of actors
//! (with a summary word per 64 row words), for events that sort before
//! every keyed event of their cycle and among themselves by actor — a
//! machine's per-processor steps. An actor has at most one step pending,
//! so its bit is the whole event: a step has no payload, and the caller's
//! per-actor state says what it means. A schedule is a bit set and a pop a
//! `trailing_zeros`; pops come back as a [`Lane`]. The order is exactly
//! the one a keyed schedule under keys "below every other key, in actor
//! order" would give, so moving such events into the lane changes no
//! output; it keeps spin loops and barrier bursts out of the sorted
//! buckets and copies no payload.
//!
//! Simulated time never runs backwards: scheduling an event before the
//! last popped cycle is a caller bug, checked by a `debug_assert!`.
//! Scheduling at the last popped cycle is allowed and pops in key order
//! among that cycle's remaining events; a windowed caller drains a window
//! with [`KeyedEventQueue::pop_before`].
//!
//! # Examples
//!
//! A two-node ping/pong driven straight off the queue: messages are keyed
//! by their destination, and each node answers with a step of its own
//! lane, which pops first in its cycle.
//!
//! ```
//! use ltp_sim::{Cycle, KeyedEventQueue, Lane};
//!
//! let mut q = KeyedEventQueue::with_actors(2);
//! q.schedule(Cycle::ZERO, 0u16, "ping");
//! let (mut pings, mut steps, mut end) = (0, 0, Cycle::ZERO);
//! while let Some((now, lane)) = q.pop() {
//!     end = now;
//!     match lane {
//!         Lane::Keyed(node, "ping") if pings < 3 => {
//!             pings += 1;
//!             q.schedule_step(now + Cycle::new(1), usize::from(node));
//!             q.schedule(now + Cycle::new(80), 1 - node, "pong");
//!         }
//!         Lane::Keyed(node, "pong") => q.schedule(now + Cycle::new(80), 1 - node, "ping"),
//!         Lane::Keyed(..) => {}
//!         Lane::Step(_) => steps += 1,
//!     }
//! }
//! assert_eq!((pings, steps), (3, 3));
//! assert_eq!(end, Cycle::new(80 * 6));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod rng;
pub mod stats;
mod summary;
mod time;

pub use event::{KeyedEventQueue, Lane};
pub use rng::SimRng;
pub use summary::{RunSummary, StopReason};
pub use time::Cycle;
