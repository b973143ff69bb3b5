//! # `ltp-workloads` — the synthetic benchmark suite
//!
//! Nine shared-memory kernels reproducing the *sharing patterns and
//! instruction-reuse structure* of the applications in Table 2 of the ISCA
//! 2000 Last-Touch Prediction paper (appbt, barnes, dsmc, em3d, moldyn,
//! ocean, raytrace, tomcatv, unstructured). The real binaries ran on the
//! Wisconsin Wind Tunnel II; what the predictors care about is *which PC
//! sequences touch a block between coherence miss and invalidation, and who
//! asks for it next* — that is what each kernel here reproduces, using the
//! paper's own per-application analysis (§5.1) as the specification.
//!
//! See `DESIGN.md` §3.4 for the per-benchmark mechanism table and
//! [`Benchmark`] for the registry.
//!
//! Beyond the synthetic kernels, the [`trace`] module captures any
//! benchmark's per-node op streams into a compact versioned `.ltrace` file
//! ([`TraceWriter`], [`Trace`]) — loop-compressed in format v2 via a
//! per-stream repeat detector. One decoder reads every file: it validates
//! the whole file on open and replays it incrementally with a bounded
//! per-node window ([`StreamingTrace`], [`StreamingTraceProgram`]);
//! in-memory recordings replay through [`TraceProgram`]. A
//! [`WorkloadSource`] names any kind of workload — synthetic, recorded, or
//! streamed — so traces are first-class inputs to experiments and sweeps.
//! [`random_trace`] generates valid random workloads for fuzzing and
//! import testing.
//!
//! For offline predictor evaluation, [`replay`] drains a workload's
//! programs through an un-timed logical coherence model — same touches,
//! fills, invalidations, and verification verdicts as the full machine,
//! no cycle simulation — and [`ground_truth`] extracts per-node last-touch
//! ordinals for priming the `oracle` policy. This is the engine behind
//! `ltp predict`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod program;
mod replay;
mod source;
mod suite;

pub mod kernels;
pub mod trace;

pub use program::{collect_ops, Lock, LoopedScript, Op, Program};
pub use replay::{ground_truth, replay, ReplayReport};
pub use source::{EstimateSource, RunEstimate, SourceError, WorkloadSource};
pub use suite::{Benchmark, WorkloadParams};
pub use trace::{
    random_trace, StreamingTrace, StreamingTraceProgram, Trace, TraceError, TraceProgram,
    TraceScanStats, TraceWriter,
};
