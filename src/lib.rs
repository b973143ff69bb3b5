//! # `ltp` — Last-Touch Prediction, reproduced
//!
//! A full reproduction of Lai & Falsafi, *"Selective, Accurate, and Timely
//! Self-Invalidation Using Last-Touch Prediction"* (ISCA 2000): the
//! two-level trace-based Last-Touch Predictor, the Dynamic Self-Invalidation
//! and Last-PC baselines, a 32-node CC-NUMA simulator with a full-map
//! write-invalidate directory protocol, and the nine-benchmark evaluation
//! suite that regenerates every table and figure of the paper.
//!
//! This crate is a facade: it re-exports the five member crates so
//! applications can depend on one name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ltp-core` | predictors: LTP (per-block & global), Last-PC, DSI, signatures, confidence |
//! | [`dsm`] | `ltp-dsm` | directory protocol, caches, protocol engines, network |
//! | [`sim`] | `ltp-sim` | deterministic discrete-event kernel, RNG, statistics |
//! | [`system`] | `ltp-system` | full-machine composition and the experiment driver |
//! | [`workloads`] | `ltp-workloads` | the nine synthetic Table 2 benchmarks |
//!
//! # Quick start
//!
//! Run the paper's headline experiment — the base-case LTP on `em3d` — and
//! inspect the Figure 6 classification. Policies are named by registry spec
//! strings (see [`ltp_core::registry`] for the grammar):
//!
//! ```
//! use ltp::system::ExperimentSpec;
//! use ltp::workloads::Benchmark;
//!
//! let report = ExperimentSpec::builder(Benchmark::Em3d)
//!     .policy_spec("ltp:bits=13")
//!     .unwrap()
//!     .nodes(8)
//!     .iterations(10)
//!     .build()
//!     .run();
//! let m = &report.metrics;
//! assert!(m.predicted_pct() > 50.0, "em3d is the predictor's best case");
//! println!(
//!     "em3d: {:.1}% predicted, {:.1}% mispredicted, {} cycles",
//!     m.predicted_pct(),
//!     m.mispredicted_pct(),
//!     m.exec_cycles
//! );
//! ```
//!
//! Whole design-space sweeps go through [`ltp::system::SweepSpec`], which
//! runs the cross product benchmark × policy × geometry in parallel and
//! streams per-run reports through a [`ltp::system::ReportSink`]:
//!
//! ```
//! use ltp::core::PolicyRegistry;
//! use ltp::system::SweepSpec;
//! use ltp::workloads::Benchmark;
//!
//! let registry = PolicyRegistry::with_builtins();
//! let reports = SweepSpec::new()
//!     .benchmark(Benchmark::Em3d)
//!     .policy_specs(&registry, &["base", "ltp"])
//!     .unwrap()
//!     .quick_geometry(4, 4)
//!     .collect();
//! assert_eq!(reports.len(), 2);
//! ```
//!
//! The runnable examples under `examples/` walk through the predictor API
//! (`quickstart`), the protocol (`protocol_walkthrough`), custom policy
//! registration (`custom_policy`), and three workload scenarios;
//! `ltp campaign` + `ltp report` regenerate every table and figure.
//!
//! [`ltp::system::SweepSpec`]: crate::system::SweepSpec
//! [`ltp::system::ReportSink`]: crate::system::ReportSink

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use ltp_core as core;
pub use ltp_dsm as dsm;
pub use ltp_sim as sim;
pub use ltp_system as system;
pub use ltp_workloads as workloads;
