//! # `ltp-sim` — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the ISCA 2000 *Last-Touch Prediction* reproduction.
//! This crate knows nothing about caches or predictors; it provides:
//!
//! * [`Cycle`] — simulated time in processor cycles;
//! * [`KeyedEventQueue`] — a future-event list with a deterministic total
//!   order;
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
//! buckets covers the cycles from the last popped one onward, a bitmap of
//! occupied buckets finds the next busy cycle with `trailing_zeros`, and
//! each bucket stays sorted by `(key, seq)` on insert so a pop is a
//! `pop_front`. Events beyond the ring wait in an overflow binary heap and
//! move into the ring as time advances. Nearly every simulator event lands
//! a few cycles ahead, so a push and a pop cost a bucket access rather
//! than a heap sift.
//!
//! Simulated time never runs backwards: scheduling an event before the
//! last popped cycle is a caller bug, checked by a `debug_assert!`.
//! Scheduling at the last popped cycle is allowed and pops in key order
//! among that cycle's remaining events; a windowed caller drains a window
//! with [`KeyedEventQueue::pop_before`].
//!
//! # Examples
//!
//! A two-node ping/pong driven straight off the queue, keyed by node:
//!
//! ```
//! use ltp_sim::{Cycle, KeyedEventQueue};
//!
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut q = KeyedEventQueue::new();
//! q.schedule(Cycle::ZERO, 0u16, Ev::Ping);
//! let (mut pings, mut end) = (0, Cycle::ZERO);
//! while let Some((now, node, ev)) = q.pop() {
//!     end = now;
//!     match ev {
//!         Ev::Ping if pings < 3 => {
//!             pings += 1;
//!             q.schedule(now + Cycle::new(80), 1 - node, Ev::Pong);
//!         }
//!         Ev::Ping => {}
//!         Ev::Pong => q.schedule(now + Cycle::new(80), 1 - node, Ev::Ping),
//!     }
//! }
//! assert_eq!(pings, 3);
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

pub use event::KeyedEventQueue;
pub use rng::SimRng;
pub use summary::{RunSummary, StopReason};
pub use time::Cycle;
