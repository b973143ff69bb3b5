//! [`WorkloadSource`]: one name for "anything that can drive a machine".
//!
//! The experiment and sweep drivers used to accept only the closed
//! [`Benchmark`] enum; the trace subsystem opens that surface. A source is
//! either a synthetic Table 2 kernel or a recorded [`Trace`], and the two
//! mix freely inside one sweep — an externally produced `.ltrace` file is
//! exactly as runnable as an in-tree benchmark.

use std::fmt;
use std::sync::Arc;

use crate::program::Program;
use crate::suite::{Benchmark, WorkloadParams};
use crate::trace::{StreamingTrace, Trace};

/// Error from building programs out of a [`WorkloadSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Workloads need at least two nodes to share anything.
    TooFewNodes(u16),
    /// A trace was asked to replay at a geometry other than the one it was
    /// recorded on (the per-node streams *are* the workload; use
    /// [`WorkloadSource::effective_params`] to pin the recorded geometry).
    GeometryMismatch {
        /// The workload name recorded in the trace header.
        name: String,
        /// The geometry the trace was recorded on.
        recorded: u16,
        /// The geometry the caller requested.
        requested: u16,
    },
    /// A streaming trace's file could not be reopened (or re-read) when
    /// programs were built — streaming sources hold a path, not ops.
    Trace {
        /// The workload name recorded in the trace header.
        name: String,
        /// The underlying [`crate::TraceError`], rendered.
        message: String,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::TooFewNodes(n) => {
                write!(f, "workloads need at least 2 nodes, got {n}")
            }
            SourceError::GeometryMismatch {
                name,
                recorded,
                requested,
            } => write!(
                f,
                "trace `{name}` was recorded on {recorded} nodes and cannot replay on \
                 {requested} (traces replay at their recorded geometry)"
            ),
            SourceError::Trace { name, message } => {
                write!(f, "streaming trace `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// Where a [`RunEstimate`] came from — surfaced by the sweep driver's
/// `--debug` schedule dump so operators can see *why* a run was ordered
/// where it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// The op totals recorded in a trace file's header.
    TraceHeader,
    /// Summed [`Program::len_hint`]s of the synthetic kernel's scripts.
    Script,
}

impl fmt::Display for EstimateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EstimateSource::TraceHeader => "trace header",
            EstimateSource::Script => "script",
        })
    }
}

/// An up-front estimate of how much work one run is: its total op count
/// across every node, and where that number came from.
///
/// Estimates drive longest-job-first sweep scheduling (see
/// `SweepSpec::schedule` in `ltp-system`); they never influence simulation
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEstimate {
    /// Total operations across every node.
    pub ops: u64,
    /// Provenance of the number.
    pub source: EstimateSource,
}

/// A workload the experiment driver can run: a synthetic benchmark, a
/// fully-decoded trace, or a streaming trace.
///
/// Synthetic sources honour the full [`WorkloadParams`] (nodes, seed,
/// iteration override). Both trace kinds pin their geometry at record
/// time — the per-node streams *are* the workload — so replay always uses
/// the recorded parameters; see [`WorkloadSource::effective_params`].
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// One of the nine Table 2 kernels, generated at run time.
    Synthetic(Benchmark),
    /// A recorded trace, replayed verbatim (geometry pinned at record
    /// time). Shared via [`Arc`] so sweeping one trace under many policies
    /// never copies the streams.
    Trace(Arc<Trace>),
    /// A recorded trace replayed *incrementally from its file* with a
    /// bounded per-node decode window — how every `.ltrace` file replays.
    /// Bit-identical to [`WorkloadSource::Trace`] replay of the same
    /// recording.
    StreamingTrace(Arc<StreamingTrace>),
}

impl WorkloadSource {
    /// The workload's display name: the benchmark name, or the name
    /// recorded in the trace header.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Synthetic(benchmark) => benchmark.name(),
            WorkloadSource::Trace(trace) => trace.name(),
            WorkloadSource::StreamingTrace(trace) => trace.name(),
        }
    }

    /// The parameters a run of this source will actually use: `requested`
    /// for synthetic sources, the recorded parameters for traces.
    pub fn effective_params(&self, requested: WorkloadParams) -> WorkloadParams {
        match self {
            WorkloadSource::Synthetic(_) => requested,
            WorkloadSource::Trace(trace) => trace.workload(),
            WorkloadSource::StreamingTrace(trace) => trace.workload(),
        }
    }

    /// Builds one program per node.
    ///
    /// `params` should already be the [`WorkloadSource::effective_params`]
    /// for this source (the experiment driver guarantees that, which is why
    /// driver-level runs pin rather than reject a trace's geometry).
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::TooFewNodes`] if `params.nodes < 2`,
    /// [`SourceError::GeometryMismatch`] if a trace is asked to replay at a
    /// geometry other than the one it was recorded on, and
    /// [`SourceError::Trace`] if a streaming trace's file cannot be
    /// reopened.
    pub fn programs(&self, params: &WorkloadParams) -> Result<Vec<Box<dyn Program>>, SourceError> {
        if params.nodes < 2 {
            return Err(SourceError::TooFewNodes(params.nodes));
        }
        let mismatch = |name: &str, recorded: u16| SourceError::GeometryMismatch {
            name: name.to_string(),
            recorded,
            requested: params.nodes,
        };
        match self {
            WorkloadSource::Synthetic(benchmark) => Ok(benchmark.programs(params)),
            WorkloadSource::Trace(trace) => {
                if params.nodes != trace.nodes() {
                    return Err(mismatch(trace.name(), trace.nodes()));
                }
                Ok(Trace::programs(trace))
            }
            WorkloadSource::StreamingTrace(trace) => {
                if params.nodes != trace.nodes() {
                    return Err(mismatch(trace.name(), trace.nodes()));
                }
                StreamingTrace::programs(trace).map_err(|e| SourceError::Trace {
                    name: trace.name().to_string(),
                    message: e.to_string(),
                })
            }
        }
    }

    /// Estimates the total op count of a run of this source at `params`
    /// (pass the [`WorkloadSource::effective_params`]), when that is known
    /// up front.
    ///
    /// Traces answer from their header totals without touching any op data;
    /// synthetic benchmarks build their (cheap, one-iteration-sized) scripts
    /// and sum [`Program::len_hint`]. `None` means the length is genuinely
    /// unknown — an openly generative program, or parameters the source
    /// cannot build under — and the caller should schedule conservatively.
    pub fn estimated_ops(&self, params: &WorkloadParams) -> Option<RunEstimate> {
        match self {
            WorkloadSource::Synthetic(benchmark) => {
                if params.nodes < 2 {
                    return None;
                }
                let mut total = 0u64;
                for program in benchmark.programs(params) {
                    total += program.len_hint()?;
                }
                Some(RunEstimate {
                    ops: total,
                    source: EstimateSource::Script,
                })
            }
            WorkloadSource::Trace(trace) => Some(RunEstimate {
                ops: trace.total_ops(),
                source: EstimateSource::TraceHeader,
            }),
            WorkloadSource::StreamingTrace(trace) => Some(RunEstimate {
                ops: trace.total_ops(),
                source: EstimateSource::TraceHeader,
            }),
        }
    }

    /// The underlying benchmark, if this is a synthetic source.
    pub fn as_benchmark(&self) -> Option<Benchmark> {
        match self {
            WorkloadSource::Synthetic(benchmark) => Some(*benchmark),
            WorkloadSource::Trace(_) | WorkloadSource::StreamingTrace(_) => None,
        }
    }
}

impl From<Benchmark> for WorkloadSource {
    fn from(benchmark: Benchmark) -> Self {
        WorkloadSource::Synthetic(benchmark)
    }
}

impl From<Arc<Trace>> for WorkloadSource {
    fn from(trace: Arc<Trace>) -> Self {
        WorkloadSource::Trace(trace)
    }
}

impl From<Trace> for WorkloadSource {
    fn from(trace: Trace) -> Self {
        WorkloadSource::Trace(Arc::new(trace))
    }
}

impl From<Arc<StreamingTrace>> for WorkloadSource {
    fn from(trace: Arc<StreamingTrace>) -> Self {
        WorkloadSource::StreamingTrace(trace)
    }
}

impl From<StreamingTrace> for WorkloadSource {
    fn from(trace: StreamingTrace) -> Self {
        WorkloadSource::StreamingTrace(Arc::new(trace))
    }
}

impl fmt::Display for WorkloadSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::collect_ops;

    #[test]
    fn synthetic_sources_pass_params_through() {
        let source = WorkloadSource::from(Benchmark::Em3d);
        assert_eq!(source.name(), "em3d");
        assert_eq!(source.as_benchmark(), Some(Benchmark::Em3d));
        let params = WorkloadParams::quick(4, 2);
        assert_eq!(source.effective_params(params), params);
        assert_eq!(source.programs(&params).unwrap().len(), 4);
    }

    #[test]
    fn trace_sources_pin_their_recorded_geometry() {
        let recorded = WorkloadParams::quick(3, 1);
        let source = WorkloadSource::from(Trace::record(Benchmark::Ocean, &recorded));
        assert_eq!(source.name(), "ocean");
        assert_eq!(source.as_benchmark(), None);
        // Whatever geometry a sweep requests, the trace replays as recorded.
        assert_eq!(
            source.effective_params(WorkloadParams::quick(16, 50)),
            recorded
        );
    }

    #[test]
    fn trace_replay_matches_the_synthetic_programs() {
        let params = WorkloadParams::quick(3, 2);
        let source = WorkloadSource::from(Trace::record(Benchmark::Moldyn, &params));
        let mut replayed = source.programs(&params).unwrap();
        let mut direct = Benchmark::Moldyn.programs(&params);
        for (r, d) in replayed.iter_mut().zip(direct.iter_mut()) {
            assert_eq!(collect_ops(r.as_mut()), collect_ops(d.as_mut()));
        }
    }

    #[test]
    fn streaming_sources_pin_geometry_and_replay_identically() {
        let params = WorkloadParams::quick(3, 2);
        let trace = Trace::record(Benchmark::Tomcatv, &params);
        let path =
            std::env::temp_dir().join(format!("ltp-source-stream-{}.ltrace", std::process::id()));
        trace.save(&path).unwrap();
        let source = WorkloadSource::from(StreamingTrace::open(&path).unwrap());
        assert_eq!(source.name(), "tomcatv");
        assert_eq!(source.as_benchmark(), None);
        assert_eq!(
            source.effective_params(WorkloadParams::quick(16, 9)),
            params,
            "streaming traces pin their recorded geometry"
        );
        let mut streamed = source.programs(&params).unwrap();
        for (node, program) in streamed.iter_mut().enumerate() {
            assert_eq!(collect_ops(program.as_mut()), trace.streams()[node]);
        }
        // Mismatched geometry is the same clean error as in-memory traces.
        let err = source.programs(&WorkloadParams::quick(4, 2)).unwrap_err();
        assert!(matches!(err, SourceError::GeometryMismatch { .. }), "{err}");
        // A vanished file is a clean SourceError, not a panic.
        std::fs::remove_file(&path).unwrap();
        let err = source.programs(&params).unwrap_err();
        assert!(matches!(err, SourceError::Trace { .. }), "{err}");
        assert!(err.to_string().contains("tomcatv"), "{err}");
    }

    #[test]
    fn trace_programs_reject_mismatched_geometry_cleanly() {
        let source =
            WorkloadSource::from(Trace::record(Benchmark::Em3d, &WorkloadParams::quick(3, 1)));
        let err = source.programs(&WorkloadParams::quick(4, 1)).unwrap_err();
        assert_eq!(
            err,
            SourceError::GeometryMismatch {
                name: "em3d".to_string(),
                recorded: 3,
                requested: 4,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("recorded on 3 nodes"), "{msg}");
        assert!(msg.contains("cannot replay on 4"), "{msg}");
        // Too-small geometries are also a clean error, for every source.
        let err = WorkloadSource::from(Benchmark::Em3d)
            .programs(&WorkloadParams::quick(1, 1))
            .unwrap_err();
        assert_eq!(err, SourceError::TooFewNodes(1));
    }
}
