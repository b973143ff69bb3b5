//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are opaque payloads ordered by `(timestamp, key, insertion
//! sequence)`. The caller-supplied key and the secondary sequence make the
//! ordering a deterministic *total* order. Determinism is a correctness
//! requirement for this repository — last-touch predictor training data is
//! an interleaving of coherence events, and reproducible interleavings are
//! what make the regenerated experiment tables reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// An entry in a [`KeyedEventQueue`]. Private: callers only see payloads.
struct KeyedEntry<K, E> {
    at: Cycle,
    key: K,
    seq: u64,
    payload: E,
}

impl<K: Ord, E> PartialEq for KeyedEntry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}

impl<K: Ord, E> Eq for KeyedEntry<K, E> {}

impl<K: Ord, E> PartialOrd for KeyedEntry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, E> Ord for KeyedEntry<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, key, seq)
        // pops first.
        (&other.at, &other.key, other.seq).cmp(&(&self.at, &self.key, self.seq))
    }
}

/// A future-event list ordered by `(timestamp, key, insertion sequence)`.
///
/// Timestamp ties break by a caller-supplied *content* key rather than by
/// the order of the scheduling calls. When keys identify independent actors
/// (and same-`(time, key)` collisions are either impossible or
/// commutative), the pop order becomes a property of the simulated system
/// rather than of the scheduling call order — which is what lets a
/// partitioned simulation replay the exact serial order regardless of how
/// the actors are distributed across shards.
///
/// # Examples
///
/// ```
/// use ltp_sim::{Cycle, KeyedEventQueue};
///
/// let mut q = KeyedEventQueue::new();
/// q.schedule(Cycle::new(10), 2u8, "second");
/// q.schedule(Cycle::new(10), 1u8, "first");
/// assert_eq!(q.pop(), Some((Cycle::new(10), 1, "first")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), 2, "second")));
/// ```
pub struct KeyedEventQueue<K: Ord, E> {
    heap: BinaryHeap<KeyedEntry<K, E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at` under `key`.
    ///
    /// Same-cycle events are delivered in key order; equal `(at, key)` pairs
    /// fall back to scheduling order.
    pub fn schedule(&mut self, at: Cycle, key: K, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(KeyedEntry {
            at,
            key,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, K, E)> {
        self.heap.pop().map(|e| (e.at, e.key, e.payload))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

impl<K: Ord, E> Default for KeyedEventQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, E> std::fmt::Debug for KeyedEventQueue<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(5), 0u8, 'b');
        q.schedule(Cycle::new(1), 0u8, 'a');
        q.schedule(Cycle::new(9), 0u8, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = KeyedEventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), 0u8, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(3), 0u8, ());
        assert_eq!(q.peek_time(), Some(Cycle::new(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::ZERO, 0u8, ());
        q.schedule(Cycle::ZERO, 0u8, ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let q = KeyedEventQueue::<u8, u8>::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn keyed_queue_orders_by_time_then_key_then_seq() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(5), 9u32, 'd');
        q.schedule(Cycle::new(5), 1u32, 'b');
        q.schedule(Cycle::new(5), 1u32, 'c');
        q.schedule(Cycle::new(1), 7u32, 'a');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn keyed_queue_order_is_insertion_invariant() {
        // The same (time, key) set pops identically regardless of the order
        // it was scheduled in — the property sharding relies on.
        let mut fwd = KeyedEventQueue::new();
        let mut rev = KeyedEventQueue::new();
        let entries: Vec<(u64, u32)> = vec![(3, 2), (1, 5), (3, 1), (2, 9), (1, 0)];
        for &(t, k) in &entries {
            fwd.schedule(Cycle::new(t), k, (t, k));
        }
        for &(t, k) in entries.iter().rev() {
            rev.schedule(Cycle::new(t), k, (t, k));
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_queue_peek_len_and_counts() {
        let mut q = KeyedEventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle::new(4), 0u8, ());
        q.schedule(Cycle::new(2), 0u8, ());
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert!(!format!("{q:?}").is_empty());
    }
}
