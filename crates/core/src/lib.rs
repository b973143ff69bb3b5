//! # `ltp-core` — Last-Touch Predictors
//!
//! The primary contribution of Lai & Falsafi, *"Selective, Accurate, and
//! Timely Self-Invalidation Using Last-Touch Prediction"* (ISCA 2000),
//! implemented as a library:
//!
//! * [`TracePredictor`] — the two-level trace-based predictor, instantiated
//!   as the paper's three variants: [`PerBlockLtp`] (PAp-like, the base
//!   case), [`GlobalLtp`] (PAg-like, storage-reduced), and [`LastPc`] (the
//!   single-instruction strawman);
//! * [`DsiPolicy`] — the Dynamic Self-Invalidation baseline (versioning +
//!   synchronization-boundary flush);
//! * [`SelfInvalidationPolicy`] — the interface a DSM node uses to drive any
//!   of the above;
//! * [`PolicyFactory`] / [`PolicyRegistry`] — the open policy API: spec
//!   strings like `"ltp:bits=13"` resolve to factories, and external crates
//!   register their own (see [`registry`] for the grammar);
//! * signature encoders, table organizations, and [`TwoBitCounter`]
//!   confidence filtering.
//!
//! This crate is simulation-substrate-agnostic: it consumes an abstract
//! stream of coherence events ([`Touch`]es, invalidations, synchronization
//! boundaries, verification verdicts) and produces self-invalidation
//! decisions. The CC-NUMA machine that feeds it lives in `ltp-dsm` /
//! `ltp-system`.
//!
//! # Quick start
//!
//! ```
//! use ltp_core::{
//!     BlockId, FillInfo, FillKind, Pc, PerBlockLtp, PredictorConfig,
//!     SelfInvalidationPolicy, SignatureBits, Touch,
//! };
//!
//! let mut ltp = PerBlockLtp::new(SignatureBits::PER_BLOCK_DEFAULT, 16, PredictorConfig::default());
//! let block = BlockId::new(42);
//!
//! // A block is fetched and touched by one instruction, then invalidated.
//! // Repeat the pattern and the predictor learns the last touch.
//! for _ in 0..2 {
//!     let fill = Touch {
//!         block,
//!         pc: Pc::new(0x4010),
//!         is_write: true,
//!         exclusive: true,
//!         fill: Some(FillInfo { kind: FillKind::Demand, dir_version: 0, migratory_upgrade: false }),
//!     };
//!     assert!(!ltp.on_touch(fill));
//!     ltp.on_invalidation(block);
//! }
//!
//! // Third occurrence: the predictor fires — self-invalidate right now,
//! // hundreds of cycles before the invalidation would have arrived.
//! let fill = Touch {
//!     block,
//!     pc: Pc::new(0x4010),
//!     is_write: true,
//!     exclusive: true,
//!     fill: Some(FillInfo { kind: FillKind::Demand, dir_version: 0, migratory_upgrade: false }),
//! };
//! assert!(ltp.on_touch(fill));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod confidence;
mod decode;
mod dsi;
mod encode;
pub mod fast_hash;
mod fingerprint;
mod last_pc;
mod ltp;
pub mod offline;
mod oracle;
mod perceptron;
mod policy;
pub mod registry;
mod sharer;
mod table;
mod tage;
mod types;

pub use confidence::TwoBitCounter;
pub use decode::{parse_json, JsonParseError};
pub use dsi::DsiPolicy;
pub use encode::{
    json_escape_into, InvalidSignatureBits, JsonObject, JsonValue, Signature, SignatureBits,
    SignatureEncoder, TruncatedAdd, XorRotate,
};
pub use fast_hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use fingerprint::{Fingerprint, FingerprintHasher, FingerprintParseError};
pub use last_pc::{LastPc, LastPcEncoder};
pub use ltp::{GlobalLtp, PerBlockLtp, PredictorConfig, PrematurePenalty, TracePredictor};
pub use offline::{
    replay_capture, verdicts_by_site, CaptureLog, CapturePolicy, CaptureRecord, Decision,
    PredictStats, ReplayOutcome, StreamEvent, VerdictEngine, VerdictRecord,
};
pub use oracle::OraclePolicy;
pub use perceptron::PerceptronPredictor;
pub use policy::{
    FillInfo, FillKind, NullPolicy, SelfInvalidationPolicy, SyncKind, Touch, VerifyOutcome,
};
pub use registry::{FnPolicyFactory, PolicyFactory, PolicyRegistry, PolicySpecError, SpecParams};
pub use sharer::{SharerIter, SharerSet};
pub use table::{GlobalTable, LastTouchTable, PerBlockTable, Probe, StorageStats};
pub use tage::TagePredictor;
pub use types::{BlockId, NodeId, Pc};
