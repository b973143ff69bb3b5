//! # `ltp-system` — full-system composition
//!
//! Glues the pieces of the ISCA 2000 Last-Touch Prediction reproduction into
//! a runnable machine:
//!
//! * [`Machine`] — 32 nodes, each a program-interpreting CPU plus network
//!   cache plus self-invalidation policy, over the `ltp-dsm` directory
//!   protocol, protocol engines, and contended network interfaces;
//! * [`ExperimentSpec`] — one workload × policy × geometry run, built
//!   through a builder and a [`ltp_core::PolicyRegistry`] spec string; the
//!   workload is any [`ltp_workloads::WorkloadSource`] — a synthetic
//!   benchmark or a recorded [`ltp_workloads::Trace`] (see
//!   [`ExperimentSpec::replay`]);
//! * [`SweepSpec`] — cross products of design points executed in parallel
//!   (longest runs dispatched first), streaming per-run [`RunReport`]s
//!   through a [`ReportSink`];
//! * [`PredictSpec`] — the offline predictor tournament behind
//!   `ltp predict`: workloads drained through the un-timed logical
//!   coherence replay and raced across predictor specs for accuracy,
//!   coverage, and timeliness, about an order of magnitude faster than
//!   full simulation;
//! * [`Metrics`] — the quantities behind Figures 6–9 and Tables 3–4,
//!   reconstructed from the event stream by the built-in
//!   [`probes::CoreMetricsProbe`];
//! * [`probe`] — the observability API: the machine emits typed
//!   [`SimEvent`]s and any number of [`Probe`]s fold them into
//!   self-describing [`MetricsSection`]s (`--probe` on the CLI, `.probe()`
//!   on the builders, [`ProbeRegistry`] spec strings like
//!   `"hist:self-inv-lead"`).
//!
//! # Example
//!
//! ```
//! use ltp_system::ExperimentSpec;
//! use ltp_workloads::Benchmark;
//!
//! // A quick 4-node em3d run with the paper's base-case LTP.
//! let report = ExperimentSpec::builder(Benchmark::Em3d)
//!     .policy_spec("ltp")
//!     .unwrap()
//!     .nodes(4)
//!     .iterations(8)
//!     .build()
//!     .run();
//! assert!(report.metrics.predicted > 0, "LTP learns em3d's one-touch traces");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checker;
mod experiment;
mod machine;
mod metrics;
mod pool;
pub mod predict;
pub mod probe;
pub mod probes;
mod report;
mod shard;
mod stuck;
mod sweep;

pub use checker::{
    explore, CoherenceChecker, ExploreConfig, ExploreOutcome, MachineView, Violation,
};
pub use experiment::{ExperimentBuilder, ExperimentSpec};
pub use machine::Machine;
pub use metrics::Metrics;
pub use predict::{PredictRow, PredictSpec, DEFAULT_ZOO};
pub use probe::{
    FnProbeFactory, MetricsSection, Probe, ProbeCtx, ProbeFactory, ProbeRegistry, ProbeSpecError,
    RunInfo, SimEvent,
};
pub use report::{JsonLinesSink, NullSink, ReportSink, RunReport};
pub use stuck::{RunOutcome, StuckClass, StuckNode, StuckReport};
pub use sweep::SweepSpec;
