//! # `ltp-sim` — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the ISCA 2000 *Last-Touch Prediction* reproduction.
//! This crate knows nothing about caches or predictors; it provides:
//!
//! * [`Cycle`] — simulated time in processor cycles;
//! * [`KeyedEventQueue`] — per-node future-event lists with a
//!   deterministic order, run one window at a time, node by node, and
//!   [`WindowSort`], which puts what such a pass logs back in serial order;
//! * [`RunSummary`]/[`StopReason`] — what a run reports when it stops;
//! * [`SimRng`] — seeded randomness so workloads are reproducible;
//! * [`stats`] — mean accumulators and histograms, used by the probes that
//!   fold the machine's event stream into reports.
//!
//! Determinism is the design center: the paper's predictors learn from the
//! *order* of coherence events, so reproducing its tables requires that two
//! runs with the same configuration observe identical event interleavings.
//! The lists therefore break timestamp ties by a content key supplied by
//! the caller, and all randomness flows through explicitly-seeded
//! [`SimRng`] streams.
//!
//! [`KeyedEventQueue`] keeps one list per node: at most one pending
//! *step* (a payload-free event that pops first in its cycle — a
//! processor's "run next") and the node's keyed events, sorted on insert
//! by `(cycle, key)` and then scheduling order, so a pop is a
//! `pop_front`. A window no longer than the minimum latency between two
//! nodes lets no node reach another inside it, so the window runs node 0
//! to its end, then node 1, and so on, and works out the next event time
//! in the same pass. Simulated time never runs backwards on a node:
//! scheduling an event before the node's last popped cycle is a caller
//! bug, checked by a `debug_assert!`.
//!
//! # Examples
//!
//! A two-node ping/pong over a link 80 cycles long, run in windows of 80
//! cycles: a message sent in one window lands in a later one, so each
//! window runs node 0's events, then node 1's. Each node answers a ping
//! with a step of its own, which pops first in its cycle.
//!
//! ```
//! use ltp_sim::{Cycle, KeyedEventQueue};
//!
//! let mut q = KeyedEventQueue::with_nodes(2);
//! q.schedule(0, Cycle::ZERO, 0u8, "ping");
//! let (mut pings, mut steps, mut end) = (0, 0, Cycle::ZERO);
//! while let Some(next) = q.next_time() {
//!     q.start_window(Cycle::new((next.as_u64() / 80 + 1) * 80));
//!     for node in 0..2 {
//!         while let Some((now, event)) = q.pop(node) {
//!             end = now;
//!             match event {
//!                 Some((_, "ping")) if pings < 3 => {
//!                     pings += 1;
//!                     q.schedule_step(node, now + Cycle::new(1));
//!                     q.schedule(1 - node, now + Cycle::new(80), 0, "pong");
//!                 }
//!                 Some((_, "pong")) => q.schedule(1 - node, now + Cycle::new(80), 0, "ping"),
//!                 Some(_) => {}
//!                 None => steps += 1,
//!             }
//!         }
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

pub use event::{KeyedEventQueue, WindowSort};
pub use rng::SimRng;
pub use summary::{RunSummary, StopReason};
pub use time::Cycle;
