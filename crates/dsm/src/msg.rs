//! Coherence protocol messages.
//!
//! The full-map write-invalidate protocol exchanges the message kinds below.
//! Data-bearing messages carry a `token` — a monotonically increasing
//! per-block write stamp used as simulated "data" so every run doubles as a
//! coherence checker (readers must observe the newest token the directory
//! serialized; the directory asserts token monotonicity on writebacks).

use ltp_core::{BlockId, NodeId, VerifyOutcome};

/// The wire kinds of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Read miss: request a read-only copy.
    GetS,
    /// Write miss: request an exclusive (writable) copy.
    GetX,
    /// Write hit on a Shared copy: request an in-place upgrade.
    Upgrade,
    /// Self-invalidation of a clean read-only copy (a sharer-bit clear).
    SelfInvClean,
    /// Self-invalidation writeback of a dirty exclusive copy.
    SelfInvDirty {
        /// Data stamp being written back.
        token: u64,
    },
    /// Directory → cacher: invalidate your copy (and write back if dirty).
    Inv,
    /// Cacher → directory: invalidation acknowledged.
    InvAck {
        /// Whether a copy was actually present (false after a self-inv race).
        had_copy: bool,
        /// Writeback data when the invalidated copy was dirty.
        dirty_token: Option<u64>,
    },
    /// Read-only data reply.
    DataS {
        /// Directory write-version (DSI's versioning input).
        version: u32,
        /// Data stamp.
        token: u64,
        /// Piggybacked verification verdict for an earlier self-invalidation
        /// by the requester (paper §4).
        verify: Option<VerifyOutcome>,
    },
    /// Exclusive data reply.
    DataX {
        /// Directory write-version after this grant.
        version: u32,
        /// Data stamp.
        token: u64,
        /// Piggybacked verification verdict.
        verify: Option<VerifyOutcome>,
    },
    /// Upgrade grant (no data movement).
    UpgradeAck {
        /// Directory write-version after this grant.
        version: u32,
        /// True when the requester held the only read-only copy — the
        /// migratory pattern DSI deliberately skips.
        migratory: bool,
        /// Piggybacked verification verdict.
        verify: Option<VerifyOutcome>,
    },
    /// Meta notification: an earlier self-invalidation by the destination
    /// was verified correct. `timely` records whether it reached the
    /// directory before the conflicting request (Table 4's timeliness).
    ///
    /// Hardware would piggyback this bit on a later message; here it rides
    /// the ordinary network path (NI serialization + constant latency) like
    /// every other message, which only affects confidence-counter update
    /// timing — off the critical path (documented deviation, DESIGN.md §7).
    /// Routing it through the network keeps every cross-node interaction
    /// under the shard engine's lookahead bound.
    VerifyCorrect {
        /// Whether the self-invalidation arrived before the consumer's
        /// request.
        timely: bool,
    },
}

impl MsgKind {
    /// Whether this kind carries a data payload (a full cache block on the
    /// wire and one memory access at the directory).
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MsgKind::SelfInvDirty { .. }
                | MsgKind::DataS { .. }
                | MsgKind::DataX { .. }
                | MsgKind::InvAck {
                    dirty_token: Some(_),
                    ..
                }
        )
    }

    /// Whether this kind is a demand request that starts a directory
    /// transaction.
    pub fn is_request(self) -> bool {
        matches!(self, MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade)
    }

    /// Whether this kind travels to the block's directory (requests,
    /// self-invalidations and invalidation acks). Every other kind is a
    /// directory's reply to a cache, so only a directory sends it.
    #[inline]
    pub fn to_directory(self) -> bool {
        matches!(
            self,
            MsgKind::GetS
                | MsgKind::GetX
                | MsgKind::Upgrade
                | MsgKind::SelfInvClean
                | MsgKind::SelfInvDirty { .. }
                | MsgKind::InvAck { .. }
        )
    }
}

/// One protocol message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Subject block.
    pub block: BlockId,
    /// Payload kind.
    pub kind: MsgKind,
}

impl Message {
    /// Creates a message.
    pub fn new(src: NodeId, dst: NodeId, block: BlockId, kind: MsgKind) -> Self {
        Message {
            src,
            dst,
            block,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_classification() {
        assert!(MsgKind::DataS {
            version: 0,
            token: 0,
            verify: None
        }
        .carries_data());
        assert!(MsgKind::SelfInvDirty { token: 3 }.carries_data());
        assert!(MsgKind::InvAck {
            had_copy: true,
            dirty_token: Some(1)
        }
        .carries_data());
        assert!(!MsgKind::GetS.carries_data());
        assert!(!MsgKind::Inv.carries_data());
        assert!(!MsgKind::SelfInvClean.carries_data());
        assert!(!MsgKind::InvAck {
            had_copy: false,
            dirty_token: None
        }
        .carries_data());
    }

    #[test]
    fn request_classification() {
        assert!(MsgKind::GetS.is_request());
        assert!(MsgKind::GetX.is_request());
        assert!(MsgKind::Upgrade.is_request());
        assert!(!MsgKind::Inv.is_request());
        assert!(!MsgKind::SelfInvClean.is_request());
    }

    #[test]
    fn direction_classification() {
        assert!(MsgKind::GetS.to_directory());
        assert!(MsgKind::SelfInvDirty { token: 1 }.to_directory());
        assert!(MsgKind::InvAck {
            had_copy: false,
            dirty_token: None
        }
        .to_directory());
        assert!(!MsgKind::Inv.to_directory());
        assert!(!MsgKind::VerifyCorrect { timely: true }.to_directory());
        assert!(!MsgKind::UpgradeAck {
            version: 0,
            migratory: false,
            verify: None
        }
        .to_directory());
    }

    #[test]
    fn message_construction() {
        let m = Message::new(
            NodeId::new(1),
            NodeId::new(2),
            BlockId::new(3),
            MsgKind::GetS,
        );
        assert_eq!(m.src, NodeId::new(1));
        assert_eq!(m.dst, NodeId::new(2));
        assert_eq!(m.block, BlockId::new(3));
    }
}
