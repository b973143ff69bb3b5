//! # `ltp-dsm` — the CC-NUMA substrate
//!
//! The distributed-shared-memory machine the ISCA 2000 Last-Touch Prediction
//! paper evaluates on, rebuilt as composable, individually-tested state
//! machines:
//!
//! * [`SystemConfig`] — Table 1's machine: fixed timing constants (32-byte
//!   blocks, 104-cycle memory, 80-cycle network, ≈416-cycle round trip)
//!   plus the node count, directory organization and barrier fan-in;
//! * [`NodeCache`] — the per-node network cache (infinite capacity: every
//!   miss is a coherence miss, as the paper assumes);
//! * [`Directory`] — the write-invalidate directory with transient states,
//!   self-invalidation race resolution, DSI write-versioning, the §4
//!   verification mask, and a selectable sharer representation
//!   ([`DirectoryKind`]: exact full map, coarse vector, or limited
//!   pointers) built on the allocation-free [`ltp_core::SharerSet`];
//! * [`ProtocolEngine`] — the two-stage pipelined engine; the queueing
//!   delay it returns per message feeds Table 4 through the event stream;
//! * [`NetIface`] — network-interface contention (the paper's only modeled
//!   network contention point);
//! * [`Message`]/[`MsgKind`] — the protocol wire format.
//!
//! Everything here is *untimed* state-machine logic plus timing bookkeeping;
//! the discrete-event composition (who calls what when) lives in
//! `ltp-system`, which keeps each protocol corner unit-testable in
//! isolation.
//!
//! # Protocol summary
//!
//! Blocks are Idle, Shared, or Exclusive at the directory (§2). Reads to
//! Exclusive blocks *invalidate* the writer (the migratory-favoring variant
//! the paper evaluates). Upgrades by a sole sharer are flagged migratory —
//! the pattern DSI refuses to select. Self-invalidations (clean notification
//! or dirty writeback) move blocks to Idle early and enroll the node in the
//! block's verification mask, which later yields per-prediction
//! correct/premature verdicts and Table 4's timeliness.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod barrier;
mod cache;
mod config;
mod directory;
mod engine;
mod msg;
pub mod mutation;
mod network;

pub use barrier::CombiningTree;
pub use cache::{AccessOutcome, FillComplete, InvResponse, Line, NodeCache};
pub use config::{
    ConfigError, DirectoryKind, ParseDirectoryKindError, SystemConfig, SystemConfigBuilder,
};
pub use directory::{
    DirBlockView, DirEvent, DirStateView, DirStep, Directory, MaskEntryView, ServiceClass,
};
pub use engine::ProtocolEngine;
pub use msg::{Message, MsgKind};
pub use network::NetIface;
