//! The node-side cache controller.
//!
//! Models the paper's *network cache* (§5: "we assume a large enough network
//! cache to eliminate all capacity/conflict traffic"): infinite capacity, so
//! every miss is a coherence miss and every eviction is an invalidation or a
//! self-invalidation — exactly the traffic the predictors reason about.
//!
//! [`NodeCache`] is a pure state machine: it decides protocol actions but
//! knows nothing about time. The event-driven composition (latencies, NI
//! contention, engine queueing) happens in `ltp-system`.

use ltp_core::{BlockId, FillInfo, FillKind, FxHashMap, NodeId, VerifyOutcome};

use crate::msg::MsgKind;

/// One cached block copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Write permission (Exclusive) vs read-only (Shared).
    pub exclusive: bool,
    /// Whether the copy has been written since fill (implies `exclusive`).
    pub dirty: bool,
    /// The data stamp (the per-block write counter used as simulated data;
    /// see the message-type docs in this crate).
    pub token: u64,
}

/// Outcome of a CPU access presented to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access completes locally.
    Hit {
        /// Whether the line holds write permission after the access.
        exclusive: bool,
    },
    /// The access misses; the returned request must be sent to the home
    /// node and the CPU blocks until the fill.
    Miss(MsgKind),
}

/// What a fill reply told the cache (handed to the node for policy/metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillComplete {
    /// Fill metadata for the self-invalidation policy.
    pub info: FillInfo,
    /// Piggybacked verification verdict, if any.
    pub verify: Option<VerifyOutcome>,
    /// Whether the filled line has write permission.
    pub exclusive: bool,
    /// The data token observed (for coherence checking).
    pub token: u64,
}

/// Response to an external invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvResponse {
    /// Whether a copy was present (false after a self-invalidation race).
    pub had_copy: bool,
    /// Writeback data when the invalidated copy was dirty.
    pub dirty_token: Option<u64>,
}

/// The outstanding miss for a block (one per block; the CPU blocks, so in
/// practice one per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingTx {
    is_write: bool,
    /// A test-and-set fetch: the fill installs the line with write
    /// permission but does **not** apply the blocked store — the driver
    /// decides via [`NodeCache::try_tas`] whether the RMW succeeds.
    is_tas: bool,
}

/// An infinite-capacity network cache with MSI line states.
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, NodeId};
/// use ltp_dsm::{AccessOutcome, MsgKind, NodeCache};
///
/// let mut cache = NodeCache::new(NodeId::new(0));
/// let b = BlockId::new(5);
/// // Cold read: coherence miss.
/// assert_eq!(cache.access(b, false), AccessOutcome::Miss(MsgKind::GetS));
/// ```
#[derive(Debug, Clone)]
pub struct NodeCache {
    node: NodeId,
    lines: FxHashMap<BlockId, Line>,
    pending: FxHashMap<BlockId, PendingTx>,
}

impl NodeCache {
    /// Creates an empty cache for `node`.
    pub fn new(node: NodeId) -> Self {
        NodeCache {
            node,
            lines: FxHashMap::default(),
            pending: FxHashMap::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cached line for `block`, if present.
    pub fn line(&self, block: BlockId) -> Option<Line> {
        self.lines.get(&block).copied()
    }

    /// Whether a miss is outstanding for `block`.
    pub fn is_pending(&self, block: BlockId) -> bool {
        self.pending.contains_key(&block)
    }

    /// Number of blocks currently cached.
    pub fn resident(&self) -> usize {
        self.lines.len()
    }

    /// Iterates the resident lines in arbitrary order (the checker/explorer
    /// inspection surface).
    pub fn lines(&self) -> impl Iterator<Item = (BlockId, Line)> + '_ {
        self.lines.iter().map(|(&b, &l)| (b, l))
    }

    /// Number of outstanding misses.
    pub fn pending_misses(&self) -> usize {
        self.pending.len()
    }

    /// Presents one CPU access.
    ///
    /// On a miss the returned request kind must be sent to the block's home
    /// and the access retried via [`NodeCache::apply_reply`] when the fill
    /// arrives.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called while a miss is outstanding for `block`; the
    /// CPU model is in-order blocking, so this indicates a driver bug.
    pub fn access(&mut self, block: BlockId, is_write: bool) -> AccessOutcome {
        debug_assert!(
            !self.is_pending(block),
            "{}: access to {} while a miss is outstanding",
            self.node,
            block
        );
        match self.lines.get_mut(&block) {
            Some(line) if !is_write => AccessOutcome::Hit {
                exclusive: line.exclusive,
            },
            Some(line) if line.exclusive => {
                line.dirty = true;
                line.token += 1;
                AccessOutcome::Hit { exclusive: true }
            }
            Some(_) => {
                // Write to a Shared copy: upgrade in place.
                self.pending.insert(
                    block,
                    PendingTx {
                        is_write: true,
                        is_tas: false,
                    },
                );
                AccessOutcome::Miss(MsgKind::Upgrade)
            }
            None => {
                self.pending.insert(
                    block,
                    PendingTx {
                        is_write,
                        is_tas: false,
                    },
                );
                AccessOutcome::Miss(if is_write {
                    MsgKind::GetX
                } else {
                    MsgKind::GetS
                })
            }
        }
    }

    /// Presents the fetch half of a test-and-set RMW: acquires write
    /// permission for `block` without performing the store. A hit on an
    /// exclusive line completes locally; otherwise the returned request must
    /// be sent home and the fill applied via [`NodeCache::apply_reply`]. In
    /// both cases the driver then attempts the conditional store with
    /// [`NodeCache::try_tas`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if a miss is already outstanding for `block`.
    pub fn access_tas(&mut self, block: BlockId) -> AccessOutcome {
        debug_assert!(
            !self.is_pending(block),
            "{}: tas on {} while a miss is outstanding",
            self.node,
            block
        );
        match self.lines.get(&block) {
            Some(line) if line.exclusive => AccessOutcome::Hit { exclusive: true },
            Some(_) => {
                self.pending.insert(
                    block,
                    PendingTx {
                        is_write: true,
                        is_tas: true,
                    },
                );
                AccessOutcome::Miss(MsgKind::Upgrade)
            }
            None => {
                self.pending.insert(
                    block,
                    PendingTx {
                        is_write: true,
                        is_tas: true,
                    },
                );
                AccessOutcome::Miss(MsgKind::GetX)
            }
        }
    }

    /// Attempts the conditional store of a test-and-set: succeeds iff the
    /// line is held exclusive with an even token (the lock-free parity),
    /// bumping the token to odd. The lock "value" is thus the block's write
    /// count — protocol-serialized state, so exactly one contender can
    /// observe even-and-exclusive between two releases.
    pub fn try_tas(&mut self, block: BlockId) -> bool {
        match self.lines.get_mut(&block) {
            Some(line) if line.exclusive && line.token % 2 == 0 => {
                line.token += 1;
                line.dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Applies a fill reply (`DataS`, `DataX`, or `UpgradeAck`), completing
    /// the outstanding miss.
    ///
    /// # Panics
    ///
    /// Panics if no miss is outstanding for `block` or the reply kind is not
    /// a fill.
    pub fn apply_reply(&mut self, block: BlockId, kind: MsgKind) -> FillComplete {
        let tx = self
            .pending
            .remove(&block)
            .expect("fill reply without an outstanding miss");
        match kind {
            MsgKind::DataS {
                version,
                token,
                verify,
            } => {
                debug_assert!(!tx.is_write, "DataS for a write miss");
                self.lines.insert(
                    block,
                    Line {
                        exclusive: false,
                        dirty: false,
                        token,
                    },
                );
                FillComplete {
                    info: FillInfo {
                        kind: FillKind::Demand,
                        dir_version: version,
                        migratory_upgrade: false,
                    },
                    verify,
                    exclusive: false,
                    token,
                }
            }
            MsgKind::DataX {
                version,
                token,
                verify,
            } => {
                // A write fill performs the blocked store immediately — but a
                // test-and-set fill installs the granted value untouched: the
                // conditional store is the driver's `try_tas` decision.
                let token = if tx.is_write && !tx.is_tas {
                    token + 1
                } else {
                    token
                };
                self.lines.insert(
                    block,
                    Line {
                        exclusive: true,
                        dirty: tx.is_write && !tx.is_tas,
                        token,
                    },
                );
                FillComplete {
                    info: FillInfo {
                        kind: FillKind::Demand,
                        dir_version: version,
                        migratory_upgrade: false,
                    },
                    verify,
                    exclusive: true,
                    token,
                }
            }
            MsgKind::UpgradeAck {
                version,
                migratory,
                verify,
            } => {
                let line = self
                    .lines
                    .get_mut(&block)
                    .expect("upgrade ack without a cached line");
                line.exclusive = true;
                if !tx.is_tas {
                    line.dirty = true;
                    line.token += 1;
                }
                let token = line.token;
                FillComplete {
                    info: FillInfo {
                        kind: FillKind::Upgrade,
                        dir_version: version,
                        migratory_upgrade: migratory,
                    },
                    verify,
                    exclusive: true,
                    token,
                }
            }
            other => panic!("not a fill reply: {other:?}"),
        }
    }

    /// Handles an external invalidation, producing the `InvAck` parameters.
    ///
    /// If an upgrade was outstanding for the block, the Shared copy is
    /// invalidated and the transaction silently becomes a full write miss —
    /// the directory observes the same race and replies with `DataX`.
    pub fn handle_inv(&mut self, block: BlockId) -> InvResponse {
        match self.lines.remove(&block) {
            Some(line) => InvResponse {
                had_copy: true,
                dirty_token: line.dirty.then_some(line.token),
            },
            None => InvResponse {
                had_copy: false,
                dirty_token: None,
            },
        }
    }

    /// Self-invalidates `block` if it is cached with no outstanding
    /// transaction; returns the protocol notification to send home.
    ///
    /// Returns `None` (and does nothing) when the block is absent or mid
    /// transaction — bulk flush requests from DSI may name such blocks.
    ///
    /// An *exclusive* line always relinquishes with its token, even when
    /// clean: the directory records the owner's token on relinquish, and a
    /// losing test-and-set fill leaves the line exclusive-but-clean (the
    /// granted value installed, the conditional store skipped).
    pub fn self_invalidate(&mut self, block: BlockId) -> Option<MsgKind> {
        if self.is_pending(block) {
            return None;
        }
        let line = self.lines.remove(&block)?;
        Some(if line.exclusive {
            MsgKind::SelfInvDirty { token: line.token }
        } else {
            MsgKind::SelfInvClean
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_s(token: u64) -> MsgKind {
        MsgKind::DataS {
            version: 1,
            token,
            verify: None,
        }
    }

    fn data_x(token: u64) -> MsgKind {
        MsgKind::DataX {
            version: 2,
            token,
            verify: None,
        }
    }

    fn cache() -> NodeCache {
        NodeCache::new(NodeId::new(3))
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut c = cache();
        let b = BlockId::new(1);
        assert_eq!(c.access(b, false), AccessOutcome::Miss(MsgKind::GetS));
        assert!(c.is_pending(b));
        let fill = c.apply_reply(b, data_s(7));
        assert!(!fill.exclusive);
        assert_eq!(fill.token, 7);
        assert_eq!(fill.info.kind, FillKind::Demand);
        assert_eq!(c.access(b, false), AccessOutcome::Hit { exclusive: false });
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn cold_write_misses_as_getx_and_bumps_token() {
        let mut c = cache();
        let b = BlockId::new(2);
        assert_eq!(c.access(b, true), AccessOutcome::Miss(MsgKind::GetX));
        let fill = c.apply_reply(b, data_x(10));
        assert!(fill.exclusive);
        assert_eq!(fill.token, 11, "the blocked store applies on fill");
        assert!(c.line(b).unwrap().dirty);
    }

    #[test]
    fn write_hit_on_exclusive_increments_token() {
        let mut c = cache();
        let b = BlockId::new(3);
        c.access(b, true);
        c.apply_reply(b, data_x(0));
        assert_eq!(c.access(b, true), AccessOutcome::Hit { exclusive: true });
        assert_eq!(c.line(b).unwrap().token, 2);
    }

    #[test]
    fn write_to_shared_copy_upgrades() {
        let mut c = cache();
        let b = BlockId::new(4);
        c.access(b, false);
        c.apply_reply(b, data_s(5));
        assert_eq!(c.access(b, true), AccessOutcome::Miss(MsgKind::Upgrade));
        let fill = c.apply_reply(
            b,
            MsgKind::UpgradeAck {
                version: 3,
                migratory: true,
                verify: None,
            },
        );
        assert_eq!(fill.info.kind, FillKind::Upgrade);
        assert!(fill.info.migratory_upgrade);
        assert_eq!(fill.token, 6, "upgrade applies the store");
        assert!(c.line(b).unwrap().exclusive);
    }

    #[test]
    fn invalidation_of_dirty_copy_returns_writeback() {
        let mut c = cache();
        let b = BlockId::new(5);
        c.access(b, true);
        c.apply_reply(b, data_x(0));
        let resp = c.handle_inv(b);
        assert!(resp.had_copy);
        assert_eq!(resp.dirty_token, Some(1));
        assert_eq!(c.line(b), None);
    }

    #[test]
    fn invalidation_of_clean_copy_has_no_writeback() {
        let mut c = cache();
        let b = BlockId::new(6);
        c.access(b, false);
        c.apply_reply(b, data_s(9));
        let resp = c.handle_inv(b);
        assert!(resp.had_copy);
        assert_eq!(resp.dirty_token, None);
    }

    #[test]
    fn invalidation_of_absent_block_acks_without_copy() {
        let mut c = cache();
        let resp = c.handle_inv(BlockId::new(7));
        assert!(!resp.had_copy);
    }

    #[test]
    fn upgrade_race_demotes_to_write_miss() {
        // The copy is invalidated while an upgrade is outstanding; the
        // directory replies DataX and the cache must accept it.
        let mut c = cache();
        let b = BlockId::new(8);
        c.access(b, false);
        c.apply_reply(b, data_s(4));
        assert_eq!(c.access(b, true), AccessOutcome::Miss(MsgKind::Upgrade));
        let resp = c.handle_inv(b);
        assert!(resp.had_copy);
        // The fill arrives as DataX instead of UpgradeAck.
        let fill = c.apply_reply(b, data_x(5));
        assert!(fill.exclusive);
        assert_eq!(fill.token, 6);
    }

    #[test]
    fn self_invalidate_clean_and_dirty() {
        let mut c = cache();
        let clean = BlockId::new(9);
        c.access(clean, false);
        c.apply_reply(clean, data_s(1));
        assert_eq!(c.self_invalidate(clean), Some(MsgKind::SelfInvClean));
        assert_eq!(c.line(clean), None);

        let dirty = BlockId::new(10);
        c.access(dirty, true);
        c.apply_reply(dirty, data_x(1));
        assert_eq!(
            c.self_invalidate(dirty),
            Some(MsgKind::SelfInvDirty { token: 2 })
        );
    }

    #[test]
    fn self_invalidate_skips_absent_and_pending_blocks() {
        let mut c = cache();
        assert_eq!(c.self_invalidate(BlockId::new(11)), None);
        let b = BlockId::new(12);
        c.access(b, false);
        assert!(c.is_pending(b));
        assert_eq!(c.self_invalidate(b), None);
    }

    #[test]
    fn tas_fetch_installs_granted_value_without_store() {
        let mut c = cache();
        let b = BlockId::new(14);
        assert_eq!(c.access_tas(b), AccessOutcome::Miss(MsgKind::GetX));
        let fill = c.apply_reply(b, data_x(4));
        assert!(fill.exclusive);
        assert_eq!(fill.token, 4, "tas fill does not apply the store");
        assert!(!c.line(b).unwrap().dirty);
        // Even token: the conditional store succeeds and claims the lock.
        assert!(c.try_tas(b));
        let line = c.line(b).unwrap();
        assert_eq!(line.token, 5);
        assert!(line.dirty);
        // Odd token: a second tas on the same copy fails (lock held).
        assert!(!c.try_tas(b));
    }

    #[test]
    fn tas_upgrade_keeps_shared_token() {
        let mut c = cache();
        let b = BlockId::new(15);
        c.access(b, false);
        c.apply_reply(b, data_s(7));
        assert_eq!(c.access_tas(b), AccessOutcome::Miss(MsgKind::Upgrade));
        let fill = c.apply_reply(
            b,
            MsgKind::UpgradeAck {
                version: 9,
                migratory: false,
                verify: None,
            },
        );
        assert_eq!(fill.token, 7, "upgrade-for-tas does not bump");
        assert!(!c.line(b).unwrap().dirty);
        assert!(!c.try_tas(b), "odd token observed: lock is held");
        assert_eq!(c.line(b).unwrap().token, 7);
    }

    #[test]
    fn tas_hit_on_exclusive_line_skips_the_network() {
        let mut c = cache();
        let b = BlockId::new(16);
        c.access(b, true);
        c.apply_reply(b, data_x(1)); // token 2 after the blocked store
        assert_eq!(c.access_tas(b), AccessOutcome::Hit { exclusive: true });
        assert!(c.try_tas(b));
        assert_eq!(c.line(b).unwrap().token, 3);
    }

    #[test]
    fn try_tas_fails_on_absent_or_shared_lines() {
        let mut c = cache();
        assert!(!c.try_tas(BlockId::new(17)));
        let b = BlockId::new(18);
        c.access(b, false);
        c.apply_reply(b, data_s(2));
        assert!(!c.try_tas(b), "shared copy holds no write permission");
    }

    #[test]
    #[should_panic(expected = "not a fill reply")]
    fn apply_reply_rejects_non_fill() {
        let mut c = cache();
        let b = BlockId::new(13);
        c.access(b, false);
        c.apply_reply(b, MsgKind::Inv);
    }
}
