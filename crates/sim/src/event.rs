//! The event lists at the heart of the discrete-event simulator.
//!
//! Events are opaque payloads ordered by `(timestamp, key, insertion
//! sequence)`. The caller-supplied key and the secondary sequence make the
//! ordering a deterministic *total* order. Determinism is a correctness
//! requirement for this repository — last-touch predictor training data is
//! an interleaving of coherence events, and reproducible interleavings are
//! what make the regenerated experiment tables reproducible.
//!
//! The lists are kept **per node**. A windowed simulator whose window is
//! no longer than the minimum latency between two nodes needs no order
//! *across* nodes inside a window: nothing a node does in the window can
//! reach another node before the window ends. So a window runs as a
//! *pass*: node 0's events before the window end, then node 1's, and so
//! on. Each node's events still pop in `(timestamp, key, seq)` order, and
//! the pass works out the earliest event left pending as it goes.
//!
//! A node's list has at most one pending **step**, a payload-free event
//! that pops before the node's keyed events of its cycle (a simulator's
//! "processor `p` runs next"; the caller's per-node state says what it
//! means), and a deque of **keyed** events kept sorted on insert. Nearly
//! every event lands after the node's other pending ones, so an insert is
//! a `push_back` and a pop a `pop_front`.
//!
//! [`WindowSort`] restores the serial order of whatever a pass emits: a
//! log tagged with the `(cycle, key)` of the event that wrote each entry
//! comes out in tag order, entries of one tag in emission order.

use std::collections::VecDeque;

use crate::time::Cycle;

/// A keyed event. Private: callers only see keys and payloads.
struct Entry<K, E> {
    at: Cycle,
    key: K,
    payload: E,
}

/// Stands for "nothing pending" in the times below; no event is due then.
const NONE: Cycle = Cycle::MAX;

/// One node's pending events.
struct NodeList<K, E> {
    /// The earliest of `step` and the first keyed event, so a pass can
    /// tell whether the node has work before the window end without
    /// reaching into `keyed`.
    head: Cycle,
    /// The node's step, or [`NONE`].
    step: Cycle,
    /// Keyed events sorted by `(at, key)`, equal pairs in scheduling
    /// order.
    keyed: VecDeque<Entry<K, E>>,
    /// The last popped event's time: scheduling before it is a caller bug.
    now: Cycle,
}

/// The future-event lists of a set of nodes, run one window at a time,
/// node by node.
///
/// Timestamp ties break by a caller-supplied *content* key rather than by
/// the order of the scheduling calls. When keys identify independent actors
/// (and same-`(time, key)` collisions are either impossible or
/// commutative), each node's pop order is a property of the simulated
/// system rather than of the scheduling call order — which is what lets a
/// partitioned simulation replay the exact serial order regardless of how
/// the nodes are distributed across shards.
///
/// A window is one call to [`start_window`](Self::start_window) followed by
/// a pass that calls [`pop`](Self::pop) for every node, in any order, until
/// it returns `None`. [`next_time`](Self::next_time) is exact between
/// passes: it counts what the pass left pending on every node, including
/// events scheduled during the pass onto nodes it had already run.
///
/// [`schedule_step`](Self::schedule_step) queues a node's step, which pops
/// before the node's keyed events of its cycle. A node has at most one
/// step pending (checked in debug builds). A node's time only moves
/// forward: scheduling an event before its last popped one is a caller bug
/// (checked in debug builds); scheduling at that cycle itself is fine.
///
/// # Examples
///
/// ```
/// use ltp_sim::{Cycle, KeyedEventQueue};
///
/// let mut q = KeyedEventQueue::with_nodes(2);
/// q.schedule(1, Cycle::new(10), 2u8, "second");
/// q.schedule(1, Cycle::new(10), 1u8, "first");
/// q.schedule_step(1, Cycle::new(10));
/// q.schedule(0, Cycle::new(12), 0u8, "later");
/// q.start_window(Cycle::new(11));
/// assert_eq!(q.pop(0), None, "node 0 has nothing before the window end");
/// assert_eq!(q.pop(1), Some((Cycle::new(10), None)), "the step pops first");
/// assert_eq!(q.pop(1), Some((Cycle::new(10), Some((1, "first")))));
/// assert_eq!(q.pop(1), Some((Cycle::new(10), Some((2, "second")))));
/// assert_eq!(q.pop(1), None);
/// assert_eq!(q.next_time(), Some(Cycle::new(12)));
/// ```
pub struct KeyedEventQueue<K, E> {
    nodes: Box<[NodeList<K, E>]>,
    /// End (exclusive) of the window being run; zero before the first.
    end: Cycle,
    /// The earliest pending event at or after `end` seen so far, or
    /// [`NONE`]: folded from every schedule there and from each node the
    /// pass finishes.
    next: Cycle,
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates empty lists for nodes `0..nodes`.
    pub fn with_nodes(nodes: usize) -> Self {
        KeyedEventQueue {
            nodes: (0..nodes)
                .map(|_| NodeList {
                    head: NONE,
                    step: NONE,
                    keyed: VecDeque::new(),
                    now: Cycle::ZERO,
                })
                .collect(),
            end: Cycle::ZERO,
            next: NONE,
        }
    }

    /// Schedules `payload` for `node` at absolute time `at` under `key`.
    ///
    /// Same-cycle keyed events of a node are delivered in key order, after
    /// the node's step of that cycle; equal `(at, key)` pairs fall back to
    /// scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range. In debug builds, also if `at`
    /// precedes the node's last popped event.
    pub fn schedule(&mut self, node: usize, at: Cycle, key: K, payload: E) {
        let list = &mut self.nodes[node];
        check_time(list, node, at);
        // Behind every entry that does not sort after it: usually all.
        let behind = |e: &Entry<K, E>| (e.at, &e.key) <= (at, &key);
        match list.keyed.back() {
            Some(last) if !behind(last) => {
                let i = list.keyed.partition_point(behind);
                list.keyed.insert(i, Entry { at, key, payload });
            }
            _ => list.keyed.push_back(Entry { at, key, payload }),
        }
        list.head = list.head.min(at);
        self.note(at);
    }

    /// Schedules `node`'s step at absolute time `at`. It pops before the
    /// node's keyed events of that cycle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range. In debug builds, also if `node`
    /// already has a step pending or `at` precedes its last popped event.
    pub fn schedule_step(&mut self, node: usize, at: Cycle) {
        let list = &mut self.nodes[node];
        check_time(list, node, at);
        debug_assert!(list.step == NONE, "node {node} already has a step pending");
        list.step = at;
        list.head = list.head.min(at);
        self.note(at);
    }

    /// Starts the window ending at `end` (exclusive): the pass that
    /// follows pops every node's events before `end`.
    pub fn start_window(&mut self, end: Cycle) {
        self.end = end;
        self.next = NONE;
    }

    /// Removes and returns `node`'s earliest event if it is due before the
    /// window end: `None` in the second place is the node's step, `Some`
    /// a keyed event. Once it returns `None`, the node's pass is over and
    /// its earliest remaining event counts towards
    /// [`next_time`](Self::next_time).
    pub fn pop(&mut self, node: usize) -> Option<(Cycle, Option<(K, E)>)> {
        let list = &mut self.nodes[node];
        let at = list.head;
        if at >= self.end {
            self.note(at);
            return None;
        }
        list.now = at;
        // The step pops first in its cycle.
        let event = if list.step == at {
            list.step = NONE;
            None
        } else {
            let e = list.keyed.pop_front().expect("the head is a keyed event");
            Some((e.key, e.payload))
        };
        list.head = list.step.min(list.keyed.front().map_or(NONE, |e| e.at));
        Some((at, event))
    }

    /// The earliest pending event's time, exact between passes (see the
    /// type docs).
    pub fn next_time(&self) -> Option<Cycle> {
        (self.next != NONE).then_some(self.next)
    }

    /// Folds an event at or after the window end into the next time.
    /// Earlier ones are the current pass's business.
    fn note(&mut self, at: Cycle) {
        if at >= self.end {
            self.next = self.next.min(at);
        }
    }
}

/// A node's time only moves forward (checked in debug builds).
fn check_time<K, E>(list: &NodeList<K, E>, node: usize, at: Cycle) {
    debug_assert!(
        at != NONE,
        "event scheduled on node {node} at the end of time"
    );
    debug_assert!(
        at >= list.now,
        "event scheduled on node {node} at {at}, before its last popped cycle {}",
        list.now
    );
}

impl<K, E> std::fmt::Debug for KeyedEventQueue<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending: usize = self
            .nodes
            .iter()
            .map(|n| n.keyed.len() + usize::from(n.step != NONE))
            .sum();
        f.debug_struct("KeyedEventQueue")
            .field("nodes", &self.nodes.len())
            .field("pending", &pending)
            .field("end", &self.end)
            .field("next", &(self.next != NONE).then_some(self.next))
            .finish()
    }
}

/// Puts a log written node by node back into serial order.
///
/// Each entry carries the tag `(cycle, key)` of the event whose handler
/// wrote it. [`sort`](Self::sort) orders a log by tag and keeps the entries
/// of one tag in emission order, so a pass that runs the nodes one after
/// another yields the log a single `(cycle, key)`-ordered queue would have
/// written. It is a counting pass by cycle followed by a stable sort by
/// key within each cycle: meant for one window's log, whose cycles span one
/// window, it keeps one counter per cycle of the span. The buffers are
/// kept across calls.
///
/// # Examples
///
/// ```
/// use ltp_sim::{Cycle, WindowSort};
///
/// // (cycle, key, what): node 0's entries, then node 1's.
/// let mut log = vec![(3, 0, 'a'), (3, 0, 'b'), (5, 0, 'e'), (3, 1, 'c'), (4, 1, 'd')];
/// WindowSort::default().sort(&mut log, |&(at, key, _)| (Cycle::new(at), key));
/// let order: String = log.iter().map(|e| e.2).collect();
/// assert_eq!(order, "abcde");
/// ```
#[derive(Debug)]
pub struct WindowSort<T> {
    /// Per cycle of the span: where its entries start (then, once placed,
    /// where they end).
    starts: Vec<usize>,
    scratch: Vec<T>,
}

impl<T> Default for WindowSort<T> {
    fn default() -> Self {
        WindowSort {
            starts: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<T: Copy> WindowSort<T> {
    /// Sorts `log` by `tag`, stably.
    pub fn sort<K: Ord>(&mut self, log: &mut Vec<T>, tag: impl Fn(&T) -> (Cycle, K)) {
        if log.is_empty() {
            return;
        }
        let (lo, hi) = log.iter().fold((Cycle::MAX, Cycle::ZERO), |(lo, hi), e| {
            let at = tag(e).0;
            (lo.min(at), hi.max(at))
        });
        let offset = |e: &T| (tag(e).0.as_u64() - lo.as_u64()) as usize;
        let span = (hi.as_u64() - lo.as_u64()) as usize + 1;
        self.starts.clear();
        self.starts.resize(span + 1, 0);
        for e in log.iter() {
            self.starts[offset(e) + 1] += 1;
        }
        for c in 1..=span {
            self.starts[c] += self.starts[c - 1];
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(log);
        for e in log.iter() {
            let slot = &mut self.starts[offset(e)];
            self.scratch[*slot] = *e;
            *slot += 1;
        }
        // `starts[c]` now ends cycle `c`, which begins where `c - 1` ends.
        let mut begin = 0;
        for &end in &self.starts[..span] {
            if end - begin > 1 {
                self.scratch[begin..end].sort_by_key(|e| tag(e).1);
            }
            begin = end;
        }
        std::mem::swap(log, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Runs one window on every node in node order, returning `(cycle,
    /// node, key)` of each pop (`None` for a step).
    fn pass<E>(
        q: &mut KeyedEventQueue<u8, E>,
        nodes: usize,
        end: u64,
    ) -> Vec<(u64, usize, Option<u8>)> {
        q.start_window(Cycle::new(end));
        let mut out = Vec::new();
        for node in 0..nodes {
            while let Some((at, ev)) = q.pop(node) {
                out.push((at.as_u64(), node, ev.map(|(k, _)| k)));
            }
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEventQueue::with_nodes(1);
        for t in [50u64, 10, 30, 20, 40] {
            q.schedule(0, Cycle::new(t), 0u8, t);
        }
        q.start_window(Cycle::MAX);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop(0))
            .map(|(t, _)| t.as_u64())
            .collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn keyed_queue_orders_by_time_then_key_then_seq() {
        let mut q = KeyedEventQueue::with_nodes(1);
        q.schedule(0, Cycle::new(5), 3u8, 'c');
        q.schedule(0, Cycle::new(5), 1u8, 'a');
        q.schedule(0, Cycle::new(5), 3u8, 'd');
        q.schedule(0, Cycle::new(4), 9u8, 'z');
        q.schedule(0, Cycle::new(5), 2u8, 'b');
        q.start_window(Cycle::MAX);
        let got: Vec<(u64, u8, char)> = std::iter::from_fn(|| q.pop(0))
            .map(|(t, ev)| {
                let (k, c) = ev.expect("keyed");
                (t.as_u64(), k, c)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (4, 9, 'z'),
                (5, 1, 'a'),
                (5, 2, 'b'),
                (5, 3, 'c'),
                (5, 3, 'd')
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = KeyedEventQueue::with_nodes(1);
        for i in 0..10u32 {
            q.schedule(0, Cycle::new(7), 0u8, i);
        }
        q.start_window(Cycle::MAX);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop(0))
            .map(|(_, ev)| ev.expect("keyed").1)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_queue_order_is_insertion_invariant() {
        // Distinct keys at one cycle: any scheduling order pops the same.
        let mut fwd = KeyedEventQueue::with_nodes(1);
        let mut rev = KeyedEventQueue::with_nodes(1);
        for k in 0..20u8 {
            fwd.schedule(0, Cycle::new(3), k, ());
            rev.schedule(0, Cycle::new(3), 19 - k, ());
        }
        assert_eq!(pass(&mut fwd, 1, 4), pass(&mut rev, 1, 4));
    }

    #[test]
    fn steps_pop_first_in_their_cycle_in_actor_order() {
        // A node's step pops before its keyed events of the same cycle, and
        // a pass runs the nodes in order.
        let mut q = KeyedEventQueue::with_nodes(2);
        q.schedule(0, Cycle::new(5), 0u8, ());
        q.schedule(0, Cycle::new(4), 7u8, ());
        q.schedule_step(0, Cycle::new(5));
        q.schedule_step(1, Cycle::new(6));
        q.schedule(1, Cycle::new(6), 0u8, ());
        assert_eq!(
            pass(&mut q, 2, 100),
            vec![
                (4, 0, Some(7)),
                (5, 0, None),
                (5, 0, Some(0)),
                (6, 1, None),
                (6, 1, Some(0)),
            ]
        );
        // Each pop freed its node for another step.
        q.schedule_step(1, Cycle::new(100));
        assert_eq!(pass(&mut q, 2, 200), vec![(100, 1, None)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a step pending")]
    fn a_second_pending_step_of_one_actor_is_a_caller_bug() {
        let mut q = KeyedEventQueue::<u8, ()>::with_nodes(4);
        q.schedule_step(1, Cycle::new(3));
        q.schedule_step(1, Cycle::new(9));
    }

    #[test]
    fn pop_before_stops_at_the_window_end() {
        // A pass to `end` leaves later events pending, and says when the
        // earliest of them is due.
        let mut q = KeyedEventQueue::with_nodes(2);
        q.schedule(0, Cycle::new(3), 0u8, 'a');
        q.schedule(0, Cycle::new(10), 0u8, 'b');
        q.schedule_step(1, Cycle::new(9));
        assert_eq!(pass(&mut q, 2, 3), vec![]);
        assert_eq!(q.next_time(), Some(Cycle::new(3)));
        assert_eq!(pass(&mut q, 2, 4), vec![(3, 0, Some(0))]);
        assert_eq!(q.next_time(), Some(Cycle::new(9)));
        assert_eq!(pass(&mut q, 2, 10), vec![(9, 1, None)]);
        assert_eq!(q.next_time(), Some(Cycle::new(10)));
        assert_eq!(pass(&mut q, 2, 11), vec![(10, 0, Some(0))]);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn next_time_counts_events_scheduled_onto_nodes_already_run() {
        let mut q = KeyedEventQueue::with_nodes(3);
        q.schedule_step(0, Cycle::new(1));
        q.schedule_step(2, Cycle::new(2));
        q.start_window(Cycle::new(8));
        assert_eq!(q.pop(0), Some((Cycle::new(1), None)));
        assert_eq!(q.pop(0), None, "node 0's pass is over");
        assert_eq!(q.pop(1), None);
        assert_eq!(q.pop(2), Some((Cycle::new(2), None)));
        // Node 2 sends to node 0, whose pass has ended, and to itself.
        q.schedule(0, Cycle::new(9), 1u8, ());
        q.schedule_step(2, Cycle::new(20));
        assert_eq!(q.pop(2), None);
        assert_eq!(q.next_time(), Some(Cycle::new(9)));
        // Between passes, a schedule before the next event moves it.
        q.schedule(1, Cycle::new(8), 1u8, ());
        assert_eq!(q.next_time(), Some(Cycle::new(8)));
    }

    #[test]
    fn peek_does_not_remove() {
        // `next_time` reports the earliest pending event; it still pops.
        let mut q = KeyedEventQueue::with_nodes(1);
        q.schedule(0, Cycle::new(42), 0u8, 'x');
        assert_eq!(q.next_time(), Some(Cycle::new(42)));
        assert_eq!(q.next_time(), Some(Cycle::new(42)));
        assert_eq!(pass(&mut q, 1, 43), vec![(42, 0, Some(0))]);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut q = KeyedEventQueue::with_nodes(2);
        q.schedule(1, Cycle::new(1), 0u8, ());
        q.schedule_step(0, Cycle::new(1));
        let s = format!("{q:?}");
        assert!(s.contains("pending: 2"), "{s}");
    }

    /// A sorted-`Vec` reference model: `(node, at, class, key, seq)`,
    /// where class 0 (the node's step) sorts before class 1 (keyed
    /// events) and `seq` is the scheduling order.
    #[derive(Default)]
    struct Model {
        pending: Vec<(usize, u64, u8, u8, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn insert(&mut self, e: (usize, u64, u8, u8, u64)) {
            let i = self.pending.partition_point(|&p| p < e);
            self.pending.insert(i, e);
        }

        fn stepping(&self, node: usize) -> bool {
            self.pending.iter().any(|e| e.0 == node && e.2 == 0)
        }

        /// `node`'s earliest event if it is due before `end`.
        fn pop(&mut self, node: usize, end: u64) -> Option<(u64, Option<(u8, u64)>)> {
            let i = self.pending.partition_point(|e| e.0 < node);
            let e = *self.pending.get(i).filter(|e| e.0 == node && e.1 < end)?;
            self.pending.remove(i);
            Some((e.1, (e.2 == 1).then_some((e.3, e.4))))
        }
    }

    #[test]
    fn matches_a_sorted_reference_model() {
        const NODES: usize = 16;
        const WINDOW: u64 = 8;
        for seed in 0..8 {
            let mut rng = SimRng::from_seed(seed);
            let mut q = KeyedEventQueue::with_nodes(NODES);
            let mut model = Model::default();
            let mut end = 0u64;
            for _ in 0..2_000 {
                let next = q.next_time().map(Cycle::as_u64);
                assert_eq!(next, model.pending.iter().map(|e| e.1).min(), "seed {seed}");
                let Some(next) = next else {
                    let (node, at) = (rng.below(NODES as u64) as usize, end + rng.below(20));
                    model.insert((node, at, 0, 0, 0));
                    q.schedule_step(node, Cycle::new(at));
                    continue;
                };
                end = (next / WINDOW + 1) * WINDOW;
                q.start_window(Cycle::new(end));
                for node in 0..NODES {
                    while let Some((at, ev)) = q.pop(node) {
                        let got = (at.as_u64(), ev);
                        assert_eq!(Some(got), model.pop(node, end), "seed {seed}");
                        // Handling the event schedules onto its own node
                        // anywhere ahead, and onto any node from the window
                        // end on; few keys, so (at, key) ties repeat. About
                        // 32 events stay pending.
                        let more = rng.below(2) + u64::from(model.pending.len() < 32);
                        for _ in 0..more {
                            let target = rng.below(NODES as u64) as usize;
                            let at = if target == node && rng.chance(2, 3) {
                                got.0 + rng.below(12)
                            } else {
                                end + rng.below(12)
                            };
                            if rng.chance(1, 3) && !model.stepping(target) {
                                model.insert((target, at, 0, 0, 0));
                                q.schedule_step(target, Cycle::new(at));
                            } else {
                                let (key, seq) = (rng.below(3) as u8, model.next_seq);
                                model.next_seq += 1;
                                model.insert((target, at, 1, key, seq));
                                q.schedule(target, Cycle::new(at), key, seq);
                            }
                        }
                    }
                    assert_eq!(model.pop(node, end), None, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn window_sort_orders_by_tag_and_keeps_emission_order() {
        // (cycle, key, emission index), written node by node.
        let log = vec![
            (10u64, 5u8, 0),
            (10, 5, 1),
            (12, 5, 2),
            (11, 6, 3),
            (10, 1, 4),
            (10, 6, 5),
            (12, 1, 6),
            (12, 1, 7),
        ];
        let mut sorted = log.clone();
        let mut order = WindowSort::default();
        order.sort(&mut sorted, |&(at, key, _)| (Cycle::new(at), key));
        let mut want = log.clone();
        want.sort_by_key(|&(at, key, _)| (at, key)); // stable
        assert_eq!(sorted, want);
        // The buffers are reused; an empty log stays empty.
        let mut empty: Vec<(u64, u8, usize)> = Vec::new();
        order.sort(&mut empty, |&(at, key, _)| (Cycle::new(at), key));
        assert!(empty.is_empty());
        // Random windows agree with a full stable sort.
        let mut rng = SimRng::from_seed(7);
        for _ in 0..50 {
            let base = rng.below(1000);
            let mut log: Vec<(u64, u8, usize)> = (0..rng.below(300) as usize)
                .map(|i| (base + rng.below(88), rng.below(6) as u8, i))
                .collect();
            let mut want = log.clone();
            want.sort_by_key(|&(at, key, _)| (at, key));
            order.sort(&mut log, |&(at, key, _)| (Cycle::new(at), key));
            assert_eq!(log, want);
        }
    }
}
