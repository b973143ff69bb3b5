//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are opaque payloads ordered by `(timestamp, key, insertion
//! sequence)`. The caller-supplied key and the secondary sequence make the
//! ordering a deterministic *total* order. Determinism is a correctness
//! requirement for this repository — last-touch predictor training data is
//! an interleaving of coherence events, and reproducible interleavings are
//! what make the regenerated experiment tables reproducible.
//!
//! The queue is a calendar queue. Almost every event the machine schedules
//! lands a few cycles ahead of the current one (a CPU step, an NI hop, a
//! directory service), so a ring of one-cycle buckets covering the next
//! `RING` cycles holds nearly all of them; an occupancy bitmap finds the
//! next busy cycle with a few `trailing_zeros`, and each bucket is kept
//! sorted by `(key, seq)` on insert so a pop is a `pop_front`. Events at
//! or beyond the ring's end wait in an overflow heap and migrate into the
//! ring as its base advances.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::RangeInclusive;

use crate::time::Cycle;

/// Cycles covered by the bucket ring (a power of two).
const RING: usize = 256;
/// Occupancy bitmap words, one bit per bucket.
const WORDS: usize = RING / 64;
/// An emptied bucket whose capacity grew past this many entries (a
/// barrier release's burst) gives its buffer back, so a queue's resident
/// size tracks its steady state rather than its largest burst.
const BUCKET_KEEP: usize = 8;

/// An entry in a [`KeyedEventQueue`]. Private: callers only see payloads.
struct KeyedEntry<K, E> {
    at: Cycle,
    key: K,
    seq: u64,
    payload: E,
}

impl<K: Ord, E> KeyedEntry<K, E> {
    /// Whether `self` pops before a same-cycle entry `(key, seq)`.
    fn precedes(&self, key: &K, seq: u64) -> bool {
        (&self.key, self.seq) < (key, seq)
    }
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
/// Time only moves forward: scheduling an event earlier than the last
/// popped one is a caller bug (checked in debug builds). Scheduling at the
/// last popped cycle itself is fine; the event pops in key order among
/// that cycle's remaining events.
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
/// assert_eq!(q.pop_before(Cycle::new(10)), None);
/// assert_eq!(q.pop_before(Cycle::new(11)), Some((Cycle::new(10), 2, "second")));
/// ```
pub struct KeyedEventQueue<K: Ord, E> {
    /// Bucket `t % RING` holds the events at cycle `t` for every `t` in
    /// `[base, base + RING)`, sorted by `(key, seq)`.
    ring: Box<[VecDeque<KeyedEntry<K, E>>]>,
    /// Bit `i` is set iff bucket `i` is non-empty.
    occupied: [u64; WORDS],
    /// Events in the ring.
    ring_len: usize,
    /// Events at or beyond `base + RING`.
    overflow: BinaryHeap<KeyedEntry<K, E>>,
    /// The ring's first cycle: the last popped event's time.
    base: u64,
    next_seq: u64,
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            ring_len: 0,
            overflow: BinaryHeap::new(),
            base: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at` under `key`.
    ///
    /// Same-cycle events are delivered in key order; equal `(at, key)` pairs
    /// fall back to scheduling order. `at` must not precede the last popped
    /// event's time.
    pub fn schedule(&mut self, at: Cycle, key: K, payload: E) {
        debug_assert!(
            at.as_u64() >= self.base,
            "event scheduled at {at}, before the last popped cycle {}",
            self.base
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = KeyedEntry {
            at,
            key,
            seq,
            payload,
        };
        if at.as_u64() - self.base < RING as u64 {
            self.insert_ring(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, K, E)> {
        self.pop_through(u64::MAX)
    }

    /// Removes and returns the earliest pending event if it is due before
    /// `end`; otherwise leaves the queue untouched and returns `None`.
    pub fn pop_before(&mut self, end: Cycle) -> Option<(Cycle, K, E)> {
        self.pop_through(end.as_u64().checked_sub(1)?)
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        match self.next_slot() {
            Some(slot) => self.ring[slot].front().map(|e| e.at),
            None => self.overflow.peek().map(|e| e.at),
        }
    }

    /// Whether an event keyed within `keys` is pending at the last popped
    /// event's cycle (before the first pop: cycle zero).
    ///
    /// # Examples
    ///
    /// ```
    /// use ltp_sim::{Cycle, KeyedEventQueue};
    ///
    /// let mut q = KeyedEventQueue::new();
    /// q.schedule(Cycle::new(4), 1u8, ());
    /// q.schedule(Cycle::new(4), 5u8, ());
    /// q.schedule(Cycle::new(5), 3u8, ());
    /// assert!(q.pop().is_some()); // (4, 1): cycle 4 is now current
    /// assert!(q.pending_now(2..=5));
    /// assert!(!q.pending_now(2..=4), "key 3 waits at cycle 5, not now");
    /// ```
    pub fn pending_now(&self, keys: RangeInclusive<K>) -> bool {
        // The base's bucket holds exactly the events at the base cycle.
        let bucket = &self.ring[slot_of(self.base)];
        let i = bucket.partition_point(|e| e.key < *keys.start());
        bucket.get(i).is_some_and(|e| e.key <= *keys.end())
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the earliest event if its time is at most `last`.
    fn pop_through(&mut self, last: u64) -> Option<(Cycle, K, E)> {
        let slot = match self.next_slot() {
            Some(slot) => slot,
            None => {
                // The ring ran empty: jump it to the overflow's earliest
                // cycle.
                let at = self.overflow.peek()?.at.as_u64();
                if at > last {
                    return None;
                }
                self.advance(at);
                slot_of(at)
            }
        };
        let bucket = &mut self.ring[slot];
        let at = bucket.front()?.at.as_u64();
        if at > last {
            return None;
        }
        let e = bucket.pop_front()?;
        if bucket.is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if bucket.capacity() > BUCKET_KEEP {
                *bucket = VecDeque::new();
            }
        }
        self.ring_len -= 1;
        if at > self.base {
            self.advance(at);
        }
        Some((e.at, e.key, e.payload))
    }

    /// Moves the ring's base to `to` and migrates the overflow events the
    /// ring now covers.
    fn advance(&mut self, to: u64) {
        self.base = to;
        let end = to.saturating_add(RING as u64);
        while self.overflow.peek().is_some_and(|e| e.at.as_u64() < end) {
            let e = self.overflow.pop().expect("peeked entry present");
            self.insert_ring(e);
        }
    }

    /// Inserts `e` into its bucket at its `(key, seq)` position.
    fn insert_ring(&mut self, e: KeyedEntry<K, E>) {
        let slot = slot_of(e.at.as_u64());
        let bucket = &mut self.ring[slot];
        if bucket.back().is_none_or(|b| b.precedes(&e.key, e.seq)) {
            bucket.push_back(e);
        } else {
            let i = bucket.partition_point(|b| b.precedes(&e.key, e.seq));
            bucket.insert(i, e);
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// The first busy bucket at or after the base's, in ring order (which
    /// is time order, since the ring spans exactly `RING` cycles).
    fn next_slot(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = slot_of(self.base);
        let (w0, bit) = (start / 64, start % 64);
        let head = self.occupied[w0] & (!0u64 << bit);
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        // The later words, then wrap back to the base's word, whose bits at
        // or above the base were just found clear.
        (1..=WORDS).find_map(|i| {
            let w = (w0 + i) % WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

/// The ring bucket of cycle `t`.
fn slot_of(t: u64) -> usize {
    (t % RING as u64) as usize
}

impl<K: Ord, E> Default for KeyedEventQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, E> std::fmt::Debug for KeyedEventQueue<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEventQueue")
            .field("pending", &self.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

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
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn pop_before_stops_at_the_window_end() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(3), 0u8, 'a');
        q.schedule(Cycle::new(5 * RING as u64), 0u8, 'b');
        assert_eq!(q.pop_before(Cycle::ZERO), None);
        assert_eq!(q.pop_before(Cycle::new(3)), None);
        assert_eq!(q.pop_before(Cycle::new(4)), Some((Cycle::new(3), 0, 'a')));
        // Only the overflow heap holds the next event.
        assert_eq!(q.pop_before(Cycle::new(5 * RING as u64)), None);
        assert_eq!(q.peek_time(), Some(Cycle::new(5 * RING as u64)));
        assert_eq!(q.pop(), Some((Cycle::new(5 * RING as u64), 0, 'b')));
        assert!(q.is_empty());
    }

    #[test]
    fn emptied_burst_buckets_release_their_buffers() {
        let mut q = KeyedEventQueue::new();
        for k in 0..1000u32 {
            q.schedule(Cycle::new(9), k, ());
        }
        while q.pop().is_some() {}
        assert!(q.ring.iter().all(|b| b.capacity() <= BUCKET_KEEP));
    }

    #[test]
    fn pending_now_sees_only_the_current_cycle() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(2), 1u8, ());
        q.schedule(Cycle::new(2), 4u8, ());
        q.schedule(Cycle::new(3), 2u8, ());
        assert_eq!(q.pop().map(|(t, k, ())| (t.as_u64(), k)), Some((2, 1)));
        // An event at the base cycle, inside and outside the range.
        assert!(q.pending_now(3..=4));
        assert!(!q.pending_now(5..=9));
        // An event one cycle later is not "now".
        assert!(!q.pending_now(2..=2));
        // An emptied bucket: cycle 2 is still current, with nothing left.
        assert_eq!(q.pop().map(|(t, k, ())| (t.as_u64(), k)), Some((2, 4)));
        assert!(!q.pending_now(0..=255));
        assert_eq!(q.pop().map(|(t, k, ())| (t.as_u64(), k)), Some((3, 2)));
        assert!(!q.pending_now(0..=255));
    }

    /// A sorted-`Vec` reference model of `(at, key, seq)` order.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, u8, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, at: u64, key: u8) -> u64 {
            let id = self.next_seq;
            self.next_seq += 1;
            let i = self.pending.partition_point(|&e| e < (at, key, id));
            self.pending.insert(i, (at, key, id));
            id
        }

        fn pop_before(&mut self, end: u64) -> Option<(u64, u8, u64)> {
            (self.pending.first()?.0 < end).then(|| self.pending.remove(0))
        }

        fn pending_now(&self, now: u64, keys: RangeInclusive<u8>) -> bool {
            self.pending
                .iter()
                .any(|&(at, key, _)| at == now && keys.contains(&key))
        }
    }

    /// Pops from both with the same bound; returns the popped time.
    fn pop_both(q: &mut KeyedEventQueue<u8, u64>, model: &mut Model, end: u64) -> Option<u64> {
        let got = q.pop_before(Cycle::new(end));
        let want = model.pop_before(end);
        assert_eq!(got.map(|(t, k, id)| (t.as_u64(), k, id)), want);
        want.map(|(t, ..)| t)
    }

    #[test]
    fn matches_a_sorted_reference_model() {
        let ring = RING as u64;
        for seed in 0..8 {
            let mut rng = SimRng::from_seed(seed);
            let mut q = KeyedEventQueue::new();
            let mut model = Model::default();
            let mut now = 0u64;
            for step in 0..20_000u64 {
                if step % 5_000 == 2_500 {
                    // A same-cycle burst scheduled in shuffled key order (a
                    // barrier release across many nodes).
                    let at = now + rng.below(2 * ring);
                    let mut keys: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
                    rng.shuffle(&mut keys);
                    for key in keys {
                        let id = model.schedule(at, key);
                        q.schedule(Cycle::new(at), key, id);
                    }
                }
                if rng.below(2) == 0 {
                    // Mostly near-future events, some far beyond the ring;
                    // few keys, so (at, key) ties repeat.
                    let delay = if rng.chance(1, 4) {
                        rng.below(4 * ring + 1)
                    } else {
                        rng.below(8)
                    };
                    let key = rng.below(4) as u8;
                    let id = model.schedule(now + delay, key);
                    q.schedule(Cycle::new(now + delay), key, id);
                } else {
                    let end = if rng.chance(1, 4) {
                        u64::MAX
                    } else {
                        now + rng.below(3 * ring)
                    };
                    now = pop_both(&mut q, &mut model, end).unwrap_or(now);
                }
                assert_eq!(q.len(), model.pending.len());
                assert_eq!(
                    q.peek_time().map(Cycle::as_u64),
                    model.pending.first().map(|e| e.0)
                );
                for keys in [0..=0, 1..=2, 3..=3, 2..=250, 0..=255] {
                    assert_eq!(
                        q.pending_now(keys.clone()),
                        model.pending_now(now, keys.clone()),
                        "seed {seed}, step {step}, keys {keys:?}"
                    );
                }
            }
            // Drain both, which also jumps any empty stretch of the ring.
            while pop_both(&mut q, &mut model, u64::MAX).is_some() {}
            assert!(q.is_empty(), "seed {seed}");
        }
    }
}
