//! Offline prediction evaluation: event capture, directory-free verdict
//! reconstruction, and closed-loop replay.
//!
//! The full machine evaluates a predictor by simulating the entire DSM —
//! network contention, directory occupancy, protocol races. But a predictor
//! is a deterministic function of the *event stream* its node feeds it, and
//! the directory's verification verdicts (paper §4) are a deterministic
//! function of the request stream against its per-block self-invalidation
//! mask. This module exploits both facts:
//!
//! * [`CapturePolicy`] wraps any [`SelfInvalidationPolicy`] inside a live
//!   machine and records every event it is shown plus every decision it
//!   returns into a shared [`CaptureLog`];
//! * [`VerdictEngine`] reimplements the directory's verification-mask rules
//!   (`resolve_mask` in `ltp-dsm`) without any machine: fires add mask
//!   entries, requests resolve them to [`VerifyOutcome::Premature`] (the
//!   firing node asked again first) or [`VerifyOutcome::Correct`] (another
//!   node's conflicting access arrived first), and per-node
//!   [`PredictStats`] accumulate the Fig. 6 metrics;
//! * [`replay_capture`] drains a captured event stream through *fresh*
//!   policies with verdicts regenerated by a [`VerdictEngine`], closing the
//!   loop — `tests/predict_equivalence.rs` asserts the regenerated
//!   decisions and verdicts match the live machine's on all nine
//!   benchmarks.
//!
//! The same [`VerdictEngine`] powers the fully offline `ltp predict` path
//! in `ltp-workloads::replay`, which synthesizes the event stream from a
//! logical (un-timed) coherence replay instead of a capture.
//!
//! # Exactness
//!
//! Verdict reconstruction is exact for **per-block-state** policies (the
//! paper's `ltp` spec): the machine's constant-latency network preserves
//! per-block directory service order in the capture, and per-edge FIFO
//! delivery keeps each node's per-block subsequence of touches,
//! invalidations, and verdicts in machine order. Policies sharing state
//! *across* blocks (`ltp-global`, `ltp-xor`) can observe cross-block verdict
//! interleavings that differ benignly from the machine's; their offline
//! numbers are faithful in aggregate but not event-for-event.

use std::collections::HashMap;

use crate::fast_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::policy::{SelfInvalidationPolicy, SyncKind, Touch, VerifyOutcome};
use crate::types::{BlockId, NodeId};

/// One policy-visible event, tagged with the node that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A load/store/RMW on a shared block (including the miss that filled
    /// it — `touch.fill` is `Some` exactly when the access reached the
    /// directory).
    Touch {
        /// The observing node.
        node: NodeId,
        /// The access as the policy saw it.
        touch: Touch,
    },
    /// An external invalidation removed a cached copy (only delivered when
    /// the node actually held one — stale crossing invalidations are not
    /// policy-visible).
    Invalidated {
        /// The invalidated node.
        node: NodeId,
        /// The removed block.
        block: BlockId,
    },
    /// A synchronization boundary (DSI's bulk-flush hook).
    Sync {
        /// The synchronizing node.
        node: NodeId,
        /// Which boundary.
        kind: SyncKind,
    },
}

/// What the policy answered for one [`StreamEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// `on_touch` returned this fire decision.
    Touch(bool),
    /// `on_invalidation` (no return value).
    Invalidated,
    /// `on_sync` returned this flush list.
    Sync(Vec<BlockId>),
}

/// One event/decision pair in machine order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// The event shown to the policy.
    pub event: StreamEvent,
    /// The decision the policy returned.
    pub decision: Decision,
}

/// A verification verdict delivered to a node's policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictRecord {
    /// The node whose earlier self-invalidation is being verified.
    pub node: NodeId,
    /// The self-invalidated block.
    pub block: BlockId,
    /// The directory's verdict.
    pub outcome: VerifyOutcome,
}

/// Everything a set of [`CapturePolicy`] wrappers recorded during one run.
///
/// Records across all nodes land in one vector in machine callback order.
/// Each node's records are in that node's simulated order, and records of
/// different clock windows are in window order; inside one window the
/// machine runs its nodes one after another, so two nodes' records of the
/// same window interleave by node, not by cycle. No message crosses
/// between nodes inside a window, so this never reorders two records one
/// of which could have caused the other.
#[derive(Debug, Default)]
pub struct CaptureLog {
    /// Event/decision pairs in machine callback order.
    pub records: Vec<CaptureRecord>,
    /// Verdicts in machine callback order (each node's in delivery order).
    pub verdicts: Vec<VerdictRecord>,
}

impl CaptureLog {
    /// An empty log behind the shared handle [`CapturePolicy`] needs.
    pub fn shared() -> Arc<Mutex<CaptureLog>> {
        Arc::new(Mutex::new(CaptureLog::default()))
    }
}

/// Wraps a policy, recording every event and decision into a shared
/// [`CaptureLog`] while forwarding everything to the inner policy
/// unchanged. Behavior-transparent: a machine run with capture wrappers is
/// bit-identical to one without.
#[derive(Debug)]
pub struct CapturePolicy {
    node: NodeId,
    inner: Box<dyn SelfInvalidationPolicy>,
    log: Arc<Mutex<CaptureLog>>,
}

impl CapturePolicy {
    /// Wraps `inner` as node `node`'s policy, recording into `log`.
    pub fn new(
        node: NodeId,
        inner: Box<dyn SelfInvalidationPolicy>,
        log: Arc<Mutex<CaptureLog>>,
    ) -> Self {
        CapturePolicy { node, inner, log }
    }
}

impl SelfInvalidationPolicy for CapturePolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let fire = self.inner.on_touch(touch);
        self.log.lock().unwrap().records.push(CaptureRecord {
            event: StreamEvent::Touch {
                node: self.node,
                touch,
            },
            decision: Decision::Touch(fire),
        });
        fire
    }

    fn on_invalidation(&mut self, block: BlockId) {
        self.inner.on_invalidation(block);
        self.log.lock().unwrap().records.push(CaptureRecord {
            event: StreamEvent::Invalidated {
                node: self.node,
                block,
            },
            decision: Decision::Invalidated,
        });
    }

    fn on_sync(&mut self, kind: SyncKind) -> Vec<BlockId> {
        let flush = self.inner.on_sync(kind);
        self.log.lock().unwrap().records.push(CaptureRecord {
            event: StreamEvent::Sync {
                node: self.node,
                kind,
            },
            decision: Decision::Sync(flush.clone()),
        });
        flush
    }

    fn on_verification(&mut self, block: BlockId, outcome: VerifyOutcome) {
        self.inner.on_verification(block, outcome);
        self.log.lock().unwrap().verdicts.push(VerdictRecord {
            node: self.node,
            block,
            outcome,
        });
    }

    fn storage(&self) -> crate::table::StorageStats {
        self.inner.storage()
    }
}

/// Per-node prediction-quality tallies — the quantities behind Fig. 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Policy-visible touches observed.
    pub touches: u64,
    /// Self-invalidations issued (touch fires plus sync flushes of cached
    /// blocks).
    pub fires: u64,
    /// Fires the directory verified correct (the sharing phase moved on
    /// before this node re-touched the block).
    pub correct: u64,
    /// Fires verified premature (this node re-requested the block first).
    pub premature: u64,
    /// External invalidations the predictor failed to anticipate.
    pub not_predicted: u64,
    /// Fires never resolved by the end of the run (no later request for the
    /// block).
    pub unresolved: u64,
    /// Total stream-events of lead between each correct fire and its
    /// resolving request — the offline timeliness proxy.
    pub lead_events: u64,
}

impl PredictStats {
    /// Accuracy over resolved fires, percent: `correct / (correct +
    /// premature)`. `None` when nothing resolved.
    pub fn accuracy_pct(&self) -> Option<f64> {
        let resolved = self.correct + self.premature;
        (resolved > 0).then(|| self.correct as f64 * 100.0 / resolved as f64)
    }

    /// Coverage, percent: `correct / (correct + not_predicted)` — the share
    /// of invalidation opportunities the predictor converted. `None` when
    /// there were none.
    pub fn coverage_pct(&self) -> Option<f64> {
        let opportunities = self.correct + self.not_predicted;
        (opportunities > 0).then(|| self.correct as f64 * 100.0 / opportunities as f64)
    }

    /// Mean stream-events between a correct fire and the conflicting
    /// request that verified it. `None` when nothing was correct.
    pub fn mean_lead(&self) -> Option<f64> {
        (self.correct > 0).then(|| self.lead_events as f64 / self.correct as f64)
    }

    /// Folds another node's tallies into this one.
    pub fn merge(&mut self, other: &PredictStats) {
        self.touches += other.touches;
        self.fires += other.fires;
        self.correct += other.correct;
        self.premature += other.premature;
        self.not_predicted += other.not_predicted;
        self.unresolved += other.unresolved;
        self.lead_events += other.lead_events;
    }
}

#[derive(Debug, Clone, Copy)]
struct MaskEntry {
    node: NodeId,
    relinquished_exclusive: bool,
    fired_at: u64,
}

/// The directory's per-block verification mask, without the directory.
///
/// Mirrors `resolve_mask` in `ltp-dsm`: a self-invalidation adds a mask
/// entry; the next request for the block resolves entries — the requester's
/// own entry as [`VerifyOutcome::Premature`] (piggybacked on the grant,
/// hence delivered *before* the requester's fill touch), entries whose node
/// relinquished exclusive access or that face a write request as
/// [`VerifyOutcome::Correct`], and the rest are kept for a later
/// conflicting access.
#[derive(Debug)]
pub struct VerdictEngine {
    /// Per block, the unresolved mask entries in firing order. A block's
    /// emptied list stays, so its next fire reuses the allocation; an
    /// empty list counts nothing at [`VerdictEngine::finish`].
    masks: FxHashMap<u64, Vec<MaskEntry>>,
    stats: Vec<PredictStats>,
    clock: u64,
    /// The verdicts of the latest [`VerdictEngine::on_request`].
    resolved: Vec<VerdictRecord>,
}

impl VerdictEngine {
    /// An empty engine tallying `nodes` nodes.
    pub fn new(nodes: u16) -> Self {
        VerdictEngine {
            masks: FxHashMap::default(),
            stats: vec![PredictStats::default(); nodes as usize],
            clock: 0,
            resolved: Vec::new(),
        }
    }

    /// Advances the event clock (call once per replayed stream event; lead
    /// times are measured in these ticks).
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Counts one policy-visible touch for `node`.
    pub fn note_touch(&mut self, node: NodeId) {
        self.stats[node.index()].touches += 1;
    }

    /// Records a self-invalidation by `node` of `block`;
    /// `relinquished_exclusive` is whether the copy held write permission
    /// (the directory resolves such entries on *any* later request, clean
    /// ones only on writes or the owner's own return).
    pub fn on_fire(&mut self, node: NodeId, block: BlockId, relinquished_exclusive: bool) {
        self.stats[node.index()].fires += 1;
        self.masks
            .entry(block.index())
            .or_default()
            .push(MaskEntry {
                node,
                relinquished_exclusive,
                fired_at: self.clock,
            });
    }

    /// Counts an external invalidation `node`'s predictor failed to
    /// anticipate.
    pub fn on_not_predicted(&mut self, node: NodeId) {
        self.stats[node.index()].not_predicted += 1;
    }

    /// Resolves mask entries against a request for `block` by `requester`
    /// (`write_request` = GetX or Upgrade). Returns verdicts in directory
    /// delivery order: the requester's own [`VerifyOutcome::Premature`]
    /// first (it rides the grant), then [`VerifyOutcome::Correct`] entries
    /// in firing order. The caller must deliver each to the matching
    /// policy's `on_verification` — the premature one *before* replaying
    /// the requester's fill touch.
    pub fn on_request(
        &mut self,
        requester: NodeId,
        block: BlockId,
        write_request: bool,
    ) -> &[VerdictRecord] {
        self.resolved.clear();
        let Some(entries) = self.masks.get_mut(&block.index()) else {
            return &self.resolved;
        };
        let (clock, stats, out) = (self.clock, &mut self.stats, &mut self.resolved);
        // One pass: premature verdicts are inserted ahead of the correct
        // ones, each group keeping firing order.
        let mut premature = 0;
        entries.retain(|entry| {
            let s = &mut stats[entry.node.index()];
            if entry.node == requester {
                s.premature += 1;
                let verdict = VerdictRecord {
                    node: entry.node,
                    block,
                    outcome: VerifyOutcome::Premature,
                };
                out.insert(premature, verdict);
                premature += 1;
                false
            } else if entry.relinquished_exclusive || write_request {
                s.correct += 1;
                s.lead_events += clock - entry.fired_at;
                out.push(VerdictRecord {
                    node: entry.node,
                    block,
                    outcome: VerifyOutcome::Correct,
                });
                false
            } else {
                true
            }
        });
        &self.resolved
    }

    /// Tallies unresolved mask entries and returns the per-node stats.
    pub fn finish(mut self) -> Vec<PredictStats> {
        for entries in self.masks.values() {
            for entry in entries {
                self.stats[entry.node.index()].unresolved += 1;
            }
        }
        self.stats
    }
}

/// What [`replay_capture`] produced: regenerated decisions and verdicts
/// plus the engine's stats.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Event/decision pairs, same order as the input events.
    pub records: Vec<CaptureRecord>,
    /// Verdicts in regeneration order (per-(node, block) subsequences match
    /// the machine; global interleaving may differ benignly).
    pub verdicts: Vec<VerdictRecord>,
    /// Per-node tallies.
    pub stats: Vec<PredictStats>,
}

/// Replays a captured event stream through fresh `policies` (one per node),
/// regenerating verification verdicts with a [`VerdictEngine`] instead of
/// reading them from the capture — the closed loop `ltp predict` runs,
/// differentially testable against the machine's own decisions.
pub fn replay_capture(
    events: &[StreamEvent],
    policies: &mut [Box<dyn SelfInvalidationPolicy>],
) -> ReplayOutcome {
    let mut engine = VerdictEngine::new(policies.len() as u16);
    let mut verdicts = Vec::new();
    let mut records = Vec::with_capacity(events.len());
    // (node, block) -> copy holds write permission; presence filters sync
    // flushes of blocks no longer cached and supplies relinquished_exclusive.
    let mut held: FxHashMap<(NodeId, BlockId), bool> = FxHashMap::default();
    for event in events {
        engine.tick();
        match event {
            StreamEvent::Touch { node, touch } => {
                let key = (*node, touch.block);
                if let Some(fill) = touch.fill {
                    let write_request =
                        touch.exclusive || matches!(fill.kind, crate::policy::FillKind::Upgrade);
                    for r in engine.on_request(*node, touch.block, write_request) {
                        policies[r.node.index()].on_verification(r.block, r.outcome);
                        verdicts.push(*r);
                    }
                }
                engine.note_touch(*node);
                let fire = policies[node.index()].on_touch(*touch);
                records.push(CaptureRecord {
                    event: event.clone(),
                    decision: Decision::Touch(fire),
                });
                if fire {
                    held.remove(&key);
                    engine.on_fire(*node, touch.block, touch.exclusive);
                } else {
                    held.insert(key, touch.exclusive);
                }
            }
            StreamEvent::Invalidated { node, block } => {
                policies[node.index()].on_invalidation(*block);
                records.push(CaptureRecord {
                    event: event.clone(),
                    decision: Decision::Invalidated,
                });
                held.remove(&(*node, *block));
                engine.on_not_predicted(*node);
            }
            StreamEvent::Sync { node, kind } => {
                let flush = policies[node.index()].on_sync(*kind);
                records.push(CaptureRecord {
                    event: event.clone(),
                    decision: Decision::Sync(flush.clone()),
                });
                for block in flush {
                    if let Some(exclusive) = held.remove(&(*node, block)) {
                        engine.on_fire(*node, block, exclusive);
                    }
                }
            }
        }
    }
    ReplayOutcome {
        records,
        verdicts,
        stats: engine.finish(),
    }
}

/// Groups verdicts into per-(node, block) outcome sequences — the
/// representation under which offline replay and full simulation are
/// comparable (global interleaving of different nodes' verdicts is
/// delivery-timing, not prediction, and may differ).
pub fn verdicts_by_site(
    verdicts: &[VerdictRecord],
) -> HashMap<(NodeId, BlockId), Vec<VerifyOutcome>> {
    let mut map: HashMap<(NodeId, BlockId), Vec<VerifyOutcome>> = HashMap::new();
    for v in verdicts {
        map.entry((v.node, v.block)).or_default().push(v.outcome);
    }
    map
}

/// A FIFO of per-block pending items keyed by block — shared plumbing for
/// predictors that must match [`SelfInvalidationPolicy::on_verification`]'s
/// per-block FIFO delivery order. A block's emptied queue stays, so its
/// next push reuses the allocation.
#[derive(Debug)]
pub(crate) struct PendingFifo<T> {
    queues: FxHashMap<u64, VecDeque<T>>,
}

impl<T> PendingFifo<T> {
    pub(crate) fn new() -> Self {
        PendingFifo {
            queues: FxHashMap::default(),
        }
    }

    pub(crate) fn push(&mut self, block: BlockId, item: T) {
        self.queues
            .entry(block.index())
            .or_default()
            .push_back(item);
    }

    pub(crate) fn pop(&mut self, block: BlockId) -> Option<T> {
        self.queues.get_mut(&block.index())?.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FillInfo, FillKind, NullPolicy};
    use crate::types::Pc;

    fn touch(block: u64, exclusive: bool, fill: Option<FillKind>) -> Touch {
        Touch {
            block: BlockId::new(block),
            pc: Pc::new(0x100),
            is_write: exclusive,
            exclusive,
            fill: fill.map(|kind| FillInfo {
                kind,
                dir_version: 0,
                migratory_upgrade: false,
            }),
        }
    }

    #[test]
    fn premature_when_firing_node_returns_first() {
        let mut e = VerdictEngine::new(2);
        e.on_fire(NodeId::new(0), BlockId::new(7), false);
        let recs = e.on_request(NodeId::new(0), BlockId::new(7), false);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].outcome, VerifyOutcome::Premature);
        let stats = e.finish();
        assert_eq!(stats[0].premature, 1);
        assert_eq!(stats[0].correct, 0);
    }

    #[test]
    fn correct_when_writer_conflicts() {
        let mut e = VerdictEngine::new(2);
        e.tick();
        e.on_fire(NodeId::new(0), BlockId::new(7), false);
        e.tick();
        e.tick();
        let recs = e.on_request(NodeId::new(1), BlockId::new(7), true);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].node, NodeId::new(0));
        assert_eq!(recs[0].outcome, VerifyOutcome::Correct);
        let stats = e.finish();
        assert_eq!(stats[0].correct, 1);
        assert_eq!(stats[0].lead_events, 2);
    }

    #[test]
    fn clean_entry_survives_reads_until_write() {
        let mut e = VerdictEngine::new(3);
        e.on_fire(NodeId::new(0), BlockId::new(3), false);
        // Another node's read does not resolve a clean entry.
        assert!(e
            .on_request(NodeId::new(1), BlockId::new(3), false)
            .is_empty());
        // A write does.
        let recs = e.on_request(NodeId::new(2), BlockId::new(3), true);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].outcome, VerifyOutcome::Correct);
    }

    #[test]
    fn relinquished_exclusive_resolves_on_read() {
        let mut e = VerdictEngine::new(2);
        e.on_fire(NodeId::new(0), BlockId::new(3), true);
        let recs = e.on_request(NodeId::new(1), BlockId::new(3), false);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].outcome, VerifyOutcome::Correct);
    }

    #[test]
    fn requester_premature_precedes_correct_in_firing_order() {
        let mut e = VerdictEngine::new(3);
        e.on_fire(NodeId::new(1), BlockId::new(4), true);
        e.on_fire(NodeId::new(0), BlockId::new(4), false);
        e.on_fire(NodeId::new(2), BlockId::new(4), false);
        let recs: Vec<(usize, VerifyOutcome)> = e
            .on_request(NodeId::new(0), BlockId::new(4), true)
            .iter()
            .map(|r| (r.node.index(), r.outcome))
            .collect();
        assert_eq!(
            recs,
            [
                (0, VerifyOutcome::Premature),
                (1, VerifyOutcome::Correct),
                (2, VerifyOutcome::Correct)
            ]
        );
        // The emptied mask resolves nothing more and counts nothing.
        assert!(e
            .on_request(NodeId::new(1), BlockId::new(4), true)
            .is_empty());
        assert!(e.finish().iter().all(|s| s.unresolved == 0));
    }

    #[test]
    fn unresolved_entries_counted_at_finish() {
        let mut e = VerdictEngine::new(1);
        e.on_fire(NodeId::new(0), BlockId::new(1), false);
        e.on_fire(NodeId::new(0), BlockId::new(2), true);
        let stats = e.finish();
        assert_eq!(stats[0].unresolved, 2);
    }

    #[test]
    fn capture_is_transparent_and_replayable() {
        let log = CaptureLog::shared();
        let mut p = CapturePolicy::new(NodeId::new(0), Box::new(NullPolicy), log.clone());
        assert_eq!(p.name(), "base");
        assert!(!p.on_touch(touch(5, true, Some(FillKind::Demand))));
        p.on_invalidation(BlockId::new(5));
        assert!(p.on_sync(SyncKind::Barrier).is_empty());
        let captured = log.lock().unwrap();
        assert_eq!(captured.records.len(), 3);
        let events: Vec<StreamEvent> = captured.records.iter().map(|r| r.event.clone()).collect();
        drop(captured);
        let mut fresh: Vec<Box<dyn SelfInvalidationPolicy>> = vec![Box::new(NullPolicy)];
        let outcome = replay_capture(&events, &mut fresh);
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(
            outcome.records,
            log.lock().unwrap().records,
            "null policy decisions replay identically"
        );
        assert_eq!(outcome.stats[0].touches, 1);
        assert_eq!(outcome.stats[0].not_predicted, 1);
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = PredictStats {
            touches: 10,
            fires: 4,
            correct: 3,
            premature: 1,
            not_predicted: 1,
            unresolved: 0,
            lead_events: 30,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.correct, 6);
        assert_eq!(a.accuracy_pct(), Some(75.0));
        assert_eq!(a.coverage_pct(), Some(75.0));
        assert_eq!(a.mean_lead(), Some(10.0));
        assert_eq!(PredictStats::default().accuracy_pct(), None);
    }
}
