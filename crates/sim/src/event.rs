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
//! directory service), so a ring of one-cycle slots covering the next
//! `RING` cycles holds nearly all of them; an occupancy bitmap finds the
//! next busy cycle with a few `trailing_zeros`. Events at or beyond the
//! ring's end wait in an overflow heap and migrate into the ring as its
//! base advances.
//!
//! Each slot has two lanes. The **keyed lane** is a bucket kept sorted by
//! `(key, seq)` on insert, so a pop is a `pop_front`. The **step lane** is
//! a bitset with one bit per *actor* (a dense index fixed at construction),
//! plus a summary word per 64 row words: a step pops before every keyed
//! event of its cycle, and steps pop in actor order. An actor has at most
//! one step pending, so the bit alone is the event: a step carries no
//! payload, and what it means is the caller's per-actor state. A caller
//! whose per-actor activity sorts first in its key order — a simulator's
//! "processor `p` runs next" events — gets the exact order a keyed
//! schedule would give, without sorting those events into the buckets,
//! growing them when a barrier releases every actor at once, or copying a
//! payload in and out.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::RangeInclusive;

use crate::time::Cycle;

/// Cycles covered by the slot ring (a power of two).
const RING: usize = 256;
/// Occupancy bitmap words, one bit per slot.
const WORDS: usize = RING / 64;
/// An emptied bucket whose capacity grew past this many entries (a burst)
/// gives its buffer back, so a queue's resident size tracks its steady
/// state rather than its largest burst.
const BUCKET_KEEP: usize = 8;

/// A popped event: a step of an actor, or a keyed event with its key and
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane<K, E> {
    /// A step of this actor, scheduled by [`KeyedEventQueue::schedule_step`].
    Step(usize),
    /// A keyed event, scheduled by [`KeyedEventQueue::schedule`].
    Keyed(K, E),
}

/// A keyed event. Private: callers only see payloads.
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

/// An event waiting beyond the ring.
enum Far<K, E> {
    Keyed(KeyedEntry<K, E>),
    Step { at: Cycle, actor: usize },
}

impl<K, E> Far<K, E> {
    fn at(&self) -> Cycle {
        match self {
            Far::Keyed(e) => e.at,
            Far::Step { at, .. } => *at,
        }
    }
}

// The heap orders by time alone: migration files each entry into its
// slot's lanes, which order same-cycle events themselves.
impl<K, E> PartialEq for Far<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.at() == other.at()
    }
}

impl<K, E> Eq for Far<K, E> {}

impl<K, E> PartialOrd for Far<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, E> Ord for Far<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest pops first.
        other.at().cmp(&self.at())
    }
}

/// A future-event list ordered by `(timestamp, key, insertion sequence)`,
/// with a step lane for per-actor events that sort first in their cycle.
///
/// Timestamp ties break by a caller-supplied *content* key rather than by
/// the order of the scheduling calls. When keys identify independent actors
/// (and same-`(time, key)` collisions are either impossible or
/// commutative), the pop order becomes a property of the simulated system
/// rather than of the scheduling call order — which is what lets a
/// partitioned simulation replay the exact serial order regardless of how
/// the actors are distributed across shards.
///
/// [`schedule_step`](Self::schedule_step) queues a step, an event with no
/// payload, for one of the actors given to
/// [`with_actors`](Self::with_actors). Within a cycle, steps pop first, in
/// actor order, then the keyed events. An actor has at most one step
/// pending (checked in debug builds).
///
/// Time only moves forward: scheduling an event earlier than the last
/// popped one is a caller bug (checked in debug builds). Scheduling at the
/// last popped cycle itself is fine; the event pops in order among that
/// cycle's remaining events.
///
/// # Examples
///
/// ```
/// use ltp_sim::{Cycle, KeyedEventQueue, Lane};
///
/// let mut q = KeyedEventQueue::with_actors(4);
/// q.schedule(Cycle::new(10), 2u8, "second");
/// q.schedule(Cycle::new(10), 1u8, "first");
/// q.schedule_step(Cycle::new(10), 3);
/// assert_eq!(q.pop(), Some((Cycle::new(10), Lane::Step(3))));
/// assert_eq!(q.pop(), Some((Cycle::new(10), Lane::Keyed(1, "first"))));
/// assert_eq!(q.pop_before(Cycle::new(10)), None);
/// assert_eq!(
///     q.pop_before(Cycle::new(11)),
///     Some((Cycle::new(10), Lane::Keyed(2, "second")))
/// );
/// ```
pub struct KeyedEventQueue<K: Ord, E> {
    /// Bucket `t % RING` holds the keyed events at cycle `t` for every `t`
    /// in `[base, base + RING)`, sorted by `(key, seq)`.
    ring: Box<[VecDeque<KeyedEntry<K, E>>]>,
    /// Slot `s`'s step row: bit `a` of `step_rows[s * row_words..]` is set
    /// iff actor `a` has a step at that slot's cycle.
    step_rows: Box<[u64]>,
    /// Slot `s`'s summary: bit `w` of `step_summary[s * sum_words..]` is
    /// set iff word `w` of its row is non-zero.
    step_summary: Box<[u64]>,
    row_words: usize,
    sum_words: usize,
    /// Bit `a` is set iff actor `a` has a step pending, in the ring or
    /// beyond it.
    stepping: Box<[u64]>,
    /// Bit `i` is set iff slot `i` holds a keyed event or a step.
    occupied: [u64; WORDS],
    /// Events in the ring, both lanes.
    ring_len: usize,
    /// Events at or beyond `base + RING`.
    overflow: BinaryHeap<Far<K, E>>,
    /// The ring's first cycle: the last popped event's time.
    base: u64,
    next_seq: u64,
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue with no step actors.
    pub fn new() -> Self {
        Self::with_actors(0)
    }

    /// Creates an empty queue whose step lane serves actors
    /// `0..actors`.
    pub fn with_actors(actors: usize) -> Self {
        let row_words = actors.div_ceil(64);
        let sum_words = row_words.div_ceil(64);
        KeyedEventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            step_rows: vec![0; RING * row_words].into(),
            step_summary: vec![0; RING * sum_words].into(),
            row_words,
            sum_words,
            stepping: vec![0; row_words].into(),
            occupied: [0; WORDS],
            ring_len: 0,
            overflow: BinaryHeap::new(),
            base: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at` under `key`.
    ///
    /// Same-cycle keyed events are delivered in key order, after the
    /// cycle's steps; equal `(at, key)` pairs fall back to scheduling
    /// order. `at` must not precede the last popped event's time.
    pub fn schedule(&mut self, at: Cycle, key: K, payload: E) {
        self.check_time(at);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = KeyedEntry {
            at,
            key,
            seq,
            payload,
        };
        if self.in_ring(at) {
            self.insert_keyed(entry);
        } else {
            self.overflow.push(Far::Keyed(entry));
        }
    }

    /// Schedules `actor`'s step for delivery at absolute time `at`. It pops
    /// before that cycle's keyed events and after the cycle's steps of
    /// lower actors.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not below the count given to
    /// [`with_actors`](Self::with_actors). In debug builds, also if `actor`
    /// already has a step pending or `at` precedes the last popped event's
    /// time.
    pub fn schedule_step(&mut self, at: Cycle, actor: usize) {
        self.check_time(at);
        let word = &mut self.stepping[actor / 64];
        debug_assert!(
            *word & 1 << (actor % 64) == 0,
            "actor {actor} already has a step pending"
        );
        *word |= 1 << (actor % 64);
        if self.in_ring(at) {
            self.insert_step(slot_of(at.as_u64()), actor);
        } else {
            self.overflow.push(Far::Step { at, actor });
        }
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, Lane<K, E>)> {
        self.pop_through(u64::MAX)
    }

    /// Removes and returns the earliest pending event if it is due before
    /// `end`; otherwise leaves the queue untouched and returns `None`.
    pub fn pop_before(&mut self, end: Cycle) -> Option<(Cycle, Lane<K, E>)> {
        self.pop_through(end.as_u64().checked_sub(1)?)
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        match self.next_slot() {
            Some(slot) => Some(Cycle::new(self.time_of(slot))),
            None => self.overflow.peek().map(Far::at),
        }
    }

    /// Whether a keyed event with a key within `keys` is pending at the
    /// last popped event's cycle (before the first pop: cycle zero). Steps
    /// are not keyed and never match.
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
        // The base's bucket holds exactly the keyed events at the base
        // cycle.
        let bucket = &self.ring[slot_of(self.base)];
        let i = bucket.partition_point(|e| e.key < *keys.start());
        bucket.get(i).is_some_and(|e| e.key <= *keys.end())
    }

    /// Returns the number of pending events, steps included.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Time only moves forward (checked in debug builds).
    fn check_time(&self, at: Cycle) {
        debug_assert!(
            at.as_u64() >= self.base,
            "event scheduled at {at}, before the last popped cycle {}",
            self.base
        );
    }

    /// Whether the ring covers cycle `at` (which is at or after the base).
    fn in_ring(&self, at: Cycle) -> bool {
        at.as_u64() - self.base < RING as u64
    }

    /// The cycle slot `slot` holds: the ring spans exactly `RING` cycles
    /// from the base.
    fn time_of(&self, slot: usize) -> u64 {
        self.base + (slot.wrapping_sub(slot_of(self.base)) % RING) as u64
    }

    /// Pops the earliest event if its time is at most `last`.
    fn pop_through(&mut self, last: u64) -> Option<(Cycle, Lane<K, E>)> {
        let slot = match self.next_slot() {
            Some(slot) => slot,
            None => {
                // The ring ran empty: jump it to the overflow's earliest
                // cycle.
                let at = self.overflow.peek()?.at().as_u64();
                if at > last {
                    return None;
                }
                self.advance(at);
                slot_of(at)
            }
        };
        let at = self.time_of(slot);
        if at > last {
            return None;
        }
        let lane = match self.take_step(slot) {
            Some(actor) => {
                self.stepping[actor / 64] &= !(1 << (actor % 64));
                Lane::Step(actor)
            }
            None => {
                let bucket = &mut self.ring[slot];
                let e = bucket.pop_front().expect("an occupied slot holds an event");
                if bucket.is_empty() && bucket.capacity() > BUCKET_KEEP {
                    *bucket = VecDeque::new();
                }
                Lane::Keyed(e.key, e.payload)
            }
        };
        if self.ring[slot].is_empty() && !self.has_steps(slot) {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.ring_len -= 1;
        if at > self.base {
            self.advance(at);
        }
        Some((Cycle::new(at), lane))
    }

    /// Moves the ring's base to `to` and migrates the overflow events the
    /// ring now covers.
    fn advance(&mut self, to: u64) {
        self.base = to;
        let end = to.saturating_add(RING as u64);
        while self.overflow.peek().is_some_and(|e| e.at().as_u64() < end) {
            match self.overflow.pop().expect("peeked entry present") {
                Far::Keyed(e) => self.insert_keyed(e),
                Far::Step { at, actor } => self.insert_step(slot_of(at.as_u64()), actor),
            }
        }
    }

    /// Inserts `e` into its bucket at its `(key, seq)` position.
    fn insert_keyed(&mut self, e: KeyedEntry<K, E>) {
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

    /// Sets `actor`'s bit in `slot`'s step row.
    fn insert_step(&mut self, slot: usize, actor: usize) {
        let w = actor / 64;
        self.step_rows[slot * self.row_words + w] |= 1 << (actor % 64);
        self.step_summary[slot * self.sum_words + w / 64] |= 1 << (w % 64);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Clears and returns the lowest actor in `slot`'s step row, if any.
    fn take_step(&mut self, slot: usize) -> Option<usize> {
        let sums = &mut self.step_summary[slot * self.sum_words..][..self.sum_words];
        let s = sums.iter().position(|&bits| bits != 0)?;
        let w = s * 64 + sums[s].trailing_zeros() as usize;
        let word = &mut self.step_rows[slot * self.row_words + w];
        let actor = w * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        if *word == 0 {
            sums[s] &= !(1 << (w % 64));
        }
        Some(actor)
    }

    /// Whether `slot`'s step row has any bit set.
    fn has_steps(&self, slot: usize) -> bool {
        self.step_summary[slot * self.sum_words..][..self.sum_words]
            .iter()
            .any(|&bits| bits != 0)
    }

    /// The first busy slot at or after the base's, in ring order (which
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

/// The ring slot of cycle `t`.
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
            .field("actor_words", &self.row_words)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The payload of a keyed event.
    fn payload<K, E>(lane: Lane<K, E>) -> E {
        match lane {
            Lane::Keyed(_, e) => e,
            Lane::Step(a) => panic!("unexpected step of actor {a}"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(5), 0u8, 'b');
        q.schedule(Cycle::new(1), 0u8, 'a');
        q.schedule(Cycle::new(9), 0u8, 'c');
        let order: Vec<char> =
            std::iter::from_fn(|| q.pop().map(|(_, lane)| payload(lane))).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = KeyedEventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), 0u8, i);
        }
        let order: Vec<i32> =
            std::iter::from_fn(|| q.pop().map(|(_, lane)| payload(lane))).collect();
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
        let order: Vec<char> =
            std::iter::from_fn(|| q.pop().map(|(_, lane)| payload(lane))).collect();
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
        assert_eq!(
            q.pop_before(Cycle::new(4)),
            Some((Cycle::new(3), Lane::Keyed(0, 'a')))
        );
        // Only the overflow heap holds the next event.
        assert_eq!(q.pop_before(Cycle::new(5 * RING as u64)), None);
        assert_eq!(q.peek_time(), Some(Cycle::new(5 * RING as u64)));
        assert_eq!(
            q.pop(),
            Some((Cycle::new(5 * RING as u64), Lane::Keyed(0, 'b')))
        );
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

    /// Pops `q`, returning `(cycle, key)` of a keyed event.
    fn pop_keyed(q: &mut KeyedEventQueue<u8, ()>) -> Option<(u64, u8)> {
        q.pop().map(|(t, lane)| match lane {
            Lane::Keyed(k, ()) => (t.as_u64(), k),
            Lane::Step(a) => panic!("unexpected step of actor {a}"),
        })
    }

    #[test]
    fn pending_now_sees_only_the_current_cycle() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(2), 1u8, ());
        q.schedule(Cycle::new(2), 4u8, ());
        q.schedule(Cycle::new(3), 2u8, ());
        assert_eq!(pop_keyed(&mut q), Some((2, 1)));
        // An event at the base cycle, inside and outside the range.
        assert!(q.pending_now(3..=4));
        assert!(!q.pending_now(5..=9));
        // An event one cycle later is not "now".
        assert!(!q.pending_now(2..=2));
        // An emptied bucket: cycle 2 is still current, with nothing left.
        assert_eq!(pop_keyed(&mut q), Some((2, 4)));
        assert!(!q.pending_now(0..=255));
        assert_eq!(pop_keyed(&mut q), Some((3, 2)));
        assert!(!q.pending_now(0..=255));
    }

    #[test]
    fn steps_pop_first_in_their_cycle_in_actor_order() {
        let mut q = KeyedEventQueue::with_actors(200);
        q.schedule(Cycle::new(5), 0u8, 'k');
        q.schedule_step(Cycle::new(5), 130);
        q.schedule_step(Cycle::new(5), 2);
        q.schedule_step(Cycle::new(4), 199);
        q.schedule_step(Cycle::new(5), 64);
        let order: Vec<(u64, Lane<u8, char>)> =
            std::iter::from_fn(|| q.pop().map(|(t, l)| (t.as_u64(), l))).collect();
        assert_eq!(
            order,
            vec![
                (4, Lane::Step(199)),
                (5, Lane::Step(2)),
                (5, Lane::Step(64)),
                (5, Lane::Step(130)),
                (5, Lane::Keyed(0, 'k')),
            ]
        );
        // Each pop freed its actor for another step.
        q.schedule_step(Cycle::new(5 + 3 * RING as u64), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Cycle::new(5 + 3 * RING as u64)));
        assert_eq!(
            q.pop(),
            Some((Cycle::new(5 + 3 * RING as u64), Lane::Step(2)))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a step pending")]
    fn a_second_pending_step_of_one_actor_is_a_caller_bug() {
        let mut q = KeyedEventQueue::<u8, ()>::with_actors(4);
        q.schedule_step(Cycle::new(3), 1);
        q.schedule_step(Cycle::new(9), 1);
    }

    #[test]
    fn pending_now_holds_after_long_step_only_stretches() {
        // More than RING cycles of step-only pops must still advance the
        // slot that `pending_now` reads: a keyed event due in the current
        // cycle stays visible.
        let mut q = KeyedEventQueue::with_actors(2);
        q.schedule_step(Cycle::ZERO, 0);
        let mut now = 0;
        while now < 3 * RING as u64 {
            let (t, lane) = q.pop().expect("the step chain continues");
            assert_eq!((t.as_u64(), lane), (now, Lane::Step(0)));
            now += 41;
            q.schedule_step(Cycle::new(now), 0);
        }
        q.schedule(Cycle::new(now), 7u8, ());
        q.schedule_step(Cycle::new(now + 1), 1);
        assert_eq!(
            q.pop().map(|(t, l)| (t.as_u64(), l)),
            Some((now, Lane::Step(0)))
        );
        assert!(q.pending_now(7..=7), "the keyed event is due now");
        assert!(!q.pending_now(8..=9));
        assert_eq!(
            q.pop().map(|(t, l)| (t.as_u64(), l)),
            Some((now, Lane::Keyed(7, ())))
        );
        assert!(!q.pending_now(0..=255));
        assert_eq!(
            q.pop().map(|(t, l)| (t.as_u64(), l)),
            Some((now + 1, Lane::Step(1)))
        );
        assert!(q.is_empty());
    }

    /// Step-lane actors in the reference-model test: wide enough that a
    /// row spans many words and its summary more than one.
    const ACTORS: usize = 4096 + 64;

    /// A sorted-`Vec` reference model of the queue's order: `(at, lane,
    /// key or actor, seq)`, where lane 0 (steps) sorts before lane 1
    /// (keyed events). Steps carry no payload, so their `seq` is 0.
    struct Model {
        pending: Vec<(u64, u8, u16, u64)>,
        next_seq: u64,
        /// Per actor: whether it has a step pending.
        stepping: Vec<bool>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                pending: Vec::new(),
                next_seq: 0,
                stepping: vec![false; ACTORS],
            }
        }

        fn insert(&mut self, e: (u64, u8, u16, u64)) {
            let i = self.pending.partition_point(|&p| p < e);
            self.pending.insert(i, e);
        }

        fn schedule(&mut self, at: u64, key: u8) -> u64 {
            let id = self.next_seq;
            self.next_seq += 1;
            self.insert((at, 1, u16::from(key), id));
            id
        }

        fn schedule_step(&mut self, at: u64, actor: usize) {
            self.insert((at, 0, actor as u16, 0));
            self.stepping[actor] = true;
        }

        fn pop_before(&mut self, end: u64) -> Option<(u64, u8, u16, u64)> {
            let e = (self.pending.first()?.0 < end).then(|| self.pending.remove(0))?;
            if e.1 == 0 {
                self.stepping[usize::from(e.2)] = false;
            }
            Some(e)
        }

        fn pending_now(&self, now: u64, keys: RangeInclusive<u8>) -> bool {
            self.pending
                .iter()
                .any(|&(at, lane, key, _)| at == now && lane == 1 && keys.contains(&(key as u8)))
        }
    }

    /// Pops from both with the same bound; returns the popped time.
    fn pop_both(q: &mut KeyedEventQueue<u8, u64>, model: &mut Model, end: u64) -> Option<u64> {
        let got = q.pop_before(Cycle::new(end)).map(|(t, lane)| match lane {
            Lane::Step(a) => (t.as_u64(), 0, a as u16, 0),
            Lane::Keyed(k, id) => (t.as_u64(), 1, u16::from(k), id),
        });
        let want = model.pop_before(end);
        assert_eq!(got, want);
        want.map(|(t, ..)| t)
    }

    #[test]
    fn matches_a_sorted_reference_model() {
        let ring = RING as u64;
        for seed in 0..8 {
            let mut rng = SimRng::from_seed(seed);
            let mut q = KeyedEventQueue::with_actors(ACTORS);
            let mut model = Model::new();
            let mut now = 0u64;
            for step in 0..20_000u64 {
                if step % 5_000 == 2_500 {
                    // A same-cycle keyed burst scheduled in shuffled key
                    // order.
                    let at = now + rng.below(2 * ring);
                    let mut keys: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
                    rng.shuffle(&mut keys);
                    for key in keys {
                        let id = model.schedule(at, key);
                        q.schedule(Cycle::new(at), key, id);
                    }
                }
                if step % 5_000 == 1_000 {
                    // A barrier release: every idle actor steps in one
                    // cycle, scheduled in shuffled actor order.
                    let at = now + rng.below(2 * ring);
                    let mut actors: Vec<usize> = (0..4096).collect();
                    rng.shuffle(&mut actors);
                    for actor in actors {
                        if !model.stepping[actor] {
                            model.schedule_step(at, actor);
                            q.schedule_step(Cycle::new(at), actor);
                        }
                    }
                }
                match rng.below(4) {
                    0 | 1 => {
                        // Mostly near-future events, some far beyond the
                        // ring; few keys, so (at, key) ties repeat.
                        let delay = if rng.chance(1, 4) {
                            rng.below(4 * ring + 1)
                        } else {
                            rng.below(8)
                        };
                        let key = rng.below(4) as u8;
                        let id = model.schedule(now + delay, key);
                        q.schedule(Cycle::new(now + delay), key, id);
                    }
                    2 => {
                        // A step of a few busy actors or of any actor,
                        // mixed into the keyed events' cycles or RING and
                        // more cycles ahead.
                        let actor = if rng.chance(1, 2) {
                            rng.below(8) as usize
                        } else {
                            rng.below(ACTORS as u64) as usize
                        };
                        if !model.stepping[actor] {
                            let delay = if rng.chance(1, 4) {
                                ring + rng.below(3 * ring + 1)
                            } else {
                                rng.below(8)
                            };
                            model.schedule_step(now + delay, actor);
                            q.schedule_step(Cycle::new(now + delay), actor);
                        }
                    }
                    _ => {
                        let end = if rng.chance(1, 4) {
                            u64::MAX
                        } else {
                            now + rng.below(3 * ring)
                        };
                        now = pop_both(&mut q, &mut model, end).unwrap_or(now);
                    }
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
