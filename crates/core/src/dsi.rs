//! Dynamic Self-Invalidation (Lebeck & Wood, ISCA 1995) — the paper's
//! baseline (§2.1).
//!
//! DSI answers "which blocks?" with a *versioning* protocol and "when?" with
//! a *synchronization-boundary* heuristic:
//!
//! * The directory keeps a write-version number per block, incremented each
//!   time a new writer is granted exclusive access. Every fill reply carries
//!   the current version. A cacher remembers the version of its previous
//!   copy; if a refetched block's version differs, the block is being
//!   actively read *and* written by different processors → mark it a
//!   self-invalidation **candidate**.
//! * Blocks fetched by an exclusive request while the requester held the
//!   only read-only copy (the *migratory* pattern) are deliberately **not**
//!   selected — Lebeck & Wood found such candidates cause frequent premature
//!   self-invalidation (paper §5.1, tomcatv/unstructured discussion).
//! * At every synchronization boundary (lock acquire/release, barrier), all
//!   cached candidates self-invalidate at once — the burst that inflates
//!   directory queueing in Table 4.
//!
//! DSI has no confidence mechanism: verification outcomes are ignored, which
//! is why its premature rate (Figure 6) stays high.

use crate::fast_hash::{FxHashMap, FxHashSet};
use crate::policy::{FillKind, SelfInvalidationPolicy, SyncKind, Touch, VerifyOutcome};
use crate::types::BlockId;

/// The Dynamic Self-Invalidation policy.
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, DsiPolicy, FillInfo, FillKind, Pc, SelfInvalidationPolicy, SyncKind, Touch};
///
/// let mut dsi = DsiPolicy::new();
/// let fill = |version| Touch {
///     block: BlockId::new(1),
///     pc: Pc::new(0x10),
///     is_write: false,
///     exclusive: false,
///     fill: Some(FillInfo { kind: FillKind::Demand, dir_version: version, migratory_upgrade: false }),
/// };
/// // First fetch: version 3 remembered, no candidate yet.
/// dsi.on_touch(fill(3));
/// dsi.on_invalidation(BlockId::new(1));
/// // Refetch with a changed version: actively shared → candidate.
/// dsi.on_touch(fill(5));
/// assert_eq!(dsi.on_sync(SyncKind::Barrier), vec![BlockId::new(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DsiPolicy {
    /// Version of the copy this node last held, per block.
    remembered_version: FxHashMap<BlockId, u32>,
    /// Blocks currently cached whose fetch marked them candidates.
    candidates: FxHashSet<BlockId>,
    /// Blocks currently cached (candidates must still be cached to flush).
    cached: FxHashSet<BlockId>,
    flushed_total: u64,
}

impl DsiPolicy {
    /// Creates a DSI policy with empty version memory.
    pub fn new() -> Self {
        DsiPolicy::default()
    }

    /// Number of blocks flushed at synchronization boundaries so far.
    pub fn flushed_total(&self) -> u64 {
        self.flushed_total
    }

    /// Whether `block` is currently a self-invalidation candidate.
    pub fn is_candidate(&self, block: BlockId) -> bool {
        self.candidates.contains(&block)
    }
}

impl SelfInvalidationPolicy for DsiPolicy {
    fn name(&self) -> &'static str {
        "dsi"
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let Some(fill) = touch.fill else {
            return false; // ordinary hit: DSI only reacts to protocol events
        };
        match fill.kind {
            FillKind::Demand => {
                self.cached.insert(touch.block);
                let candidate = match self.remembered_version.get(&touch.block) {
                    // "If the version numbers are different, the block is
                    // actively shared and is therefore selected."
                    Some(&prev) => prev != fill.dir_version,
                    None => false, // first-ever fetch: no history
                };
                if candidate && !fill.migratory_upgrade {
                    self.candidates.insert(touch.block);
                } else {
                    self.candidates.remove(&touch.block);
                }
                self.remembered_version
                    .insert(touch.block, fill.dir_version);
            }
            FillKind::Upgrade => {
                self.remembered_version
                    .insert(touch.block, fill.dir_version);
                if fill.migratory_upgrade {
                    // Exclusive request while holding the only read-only
                    // copy: migratory; deselect.
                    self.candidates.remove(&touch.block);
                }
            }
        }
        false // DSI never self-invalidates on a touch
    }

    fn on_invalidation(&mut self, block: BlockId) {
        self.cached.remove(&block);
        self.candidates.remove(&block);
    }

    fn on_sync(&mut self, _kind: SyncKind) -> Vec<BlockId> {
        // Flush every cached candidate at once — the characteristic burst.
        let mut flush: Vec<BlockId> = self.candidates.iter().copied().collect();
        flush.sort_unstable(); // deterministic order
        for b in &flush {
            self.cached.remove(b);
        }
        self.candidates.clear();
        self.flushed_total += flush.len() as u64;
        flush
    }

    fn on_verification(&mut self, _block: BlockId, _outcome: VerifyOutcome) {
        // DSI is a heuristic without feedback; outcomes are ignored.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FillInfo;
    use crate::types::Pc;

    fn demand(block: u64, version: u32, migratory: bool) -> Touch {
        Touch {
            block: BlockId::new(block),
            pc: Pc::new(0x10),
            is_write: false,
            exclusive: false,
            fill: Some(FillInfo {
                kind: FillKind::Demand,
                dir_version: version,
                migratory_upgrade: migratory,
            }),
        }
    }

    fn upgrade(block: u64, version: u32, migratory: bool) -> Touch {
        Touch {
            block: BlockId::new(block),
            pc: Pc::new(0x14),
            is_write: true,
            exclusive: true,
            fill: Some(FillInfo {
                kind: FillKind::Upgrade,
                dir_version: version,
                migratory_upgrade: migratory,
            }),
        }
    }

    #[test]
    fn first_fetch_is_never_a_candidate() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 7, false));
        assert!(!dsi.is_candidate(BlockId::new(1)));
        assert!(dsi.on_sync(SyncKind::Barrier).is_empty());
    }

    #[test]
    fn version_change_selects_candidate() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 1, false));
        dsi.on_invalidation(BlockId::new(1));
        dsi.on_touch(demand(1, 2, false));
        assert!(dsi.is_candidate(BlockId::new(1)));
        assert_eq!(dsi.on_sync(SyncKind::LockRelease), vec![BlockId::new(1)]);
        assert_eq!(dsi.flushed_total(), 1);
        // Flushed: a second sync has nothing left.
        assert!(dsi.on_sync(SyncKind::LockRelease).is_empty());
    }

    #[test]
    fn unchanged_version_deselects() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 4, false));
        dsi.on_invalidation(BlockId::new(1));
        dsi.on_touch(demand(1, 4, false));
        assert!(!dsi.is_candidate(BlockId::new(1)));
    }

    #[test]
    fn migratory_blocks_are_excluded() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 1, false));
        dsi.on_invalidation(BlockId::new(1));
        // Version changed but the fetch is migratory: skip.
        dsi.on_touch(demand(1, 2, true));
        assert!(!dsi.is_candidate(BlockId::new(1)));
    }

    #[test]
    fn migratory_upgrade_deselects_candidate() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 1, false));
        dsi.on_invalidation(BlockId::new(1));
        dsi.on_touch(demand(1, 2, false));
        assert!(dsi.is_candidate(BlockId::new(1)));
        dsi.on_touch(upgrade(1, 3, true));
        assert!(!dsi.is_candidate(BlockId::new(1)));
    }

    #[test]
    fn invalidation_removes_candidacy() {
        let mut dsi = DsiPolicy::new();
        dsi.on_touch(demand(1, 1, false));
        dsi.on_invalidation(BlockId::new(1));
        dsi.on_touch(demand(1, 2, false));
        dsi.on_invalidation(BlockId::new(1));
        assert!(dsi.on_sync(SyncKind::Barrier).is_empty());
    }

    #[test]
    fn sync_flush_is_sorted_and_bulk() {
        let mut dsi = DsiPolicy::new();
        for b in [5u64, 3, 9] {
            dsi.on_touch(demand(b, 1, false));
            dsi.on_invalidation(BlockId::new(b));
            dsi.on_touch(demand(b, 2, false));
        }
        let flushed = dsi.on_sync(SyncKind::Barrier);
        assert_eq!(
            flushed,
            vec![BlockId::new(3), BlockId::new(5), BlockId::new(9)]
        );
    }

    #[test]
    fn name_and_storage_defaults() {
        let dsi = DsiPolicy::new();
        assert_eq!(dsi.name(), "dsi");
        assert_eq!(dsi.storage().live_entries, 0);
    }
}
