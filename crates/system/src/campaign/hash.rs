//! Canonical content hashes for experiment runs.
//!
//! Every run in a campaign is keyed by a [`Fingerprint`] of its complete
//! configuration: everything that can change the run's report (policy spec,
//! workload identity, geometry, directory organization, predictor tuning,
//! probes) plus the execution shape (shard count) and the store format
//! version. The hash is the resume key — a restarted campaign skips every
//! run whose fingerprint already appears in the store manifest — so the
//! canonicalization below is part of the on-disk format: changing what goes
//! into the hash (or how) orphans existing stores and MUST be accompanied
//! by a [`STORE_FORMAT_VERSION`] bump.
//!
//! Trace workloads hash at header level: name, recorded geometry, and total
//! op count. Two traces that collide on all three are treated as the same
//! workload (in-tree recordings are deterministic functions of those, so
//! this is exact for them; externally produced traces should use distinct
//! names).

use ltp_core::{
    Fingerprint, FingerprintHasher, JsonObject, JsonValue, PredictorConfig, PrematurePenalty,
};
use ltp_workloads::{WorkloadParams, WorkloadSource};

use crate::experiment::ExperimentSpec;

/// Version of the campaign store on-disk format (manifest layout, run
/// document shape, and the run-fingerprint canonicalization).
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Computes the canonical content hash of one run.
pub fn run_fingerprint(spec: &ExperimentSpec) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.update_str("ltp-campaign-run");
    h.update_u64(u64::from(STORE_FORMAT_VERSION));

    hash_workload(&mut h, &spec.source, spec.workload);

    // Policy + predictor tuning.
    h.update_str(&spec.policy.spec());
    hash_tuning(&mut h, spec.predictor);

    // Machine shape.
    h.update_str(&spec.directory.to_string());
    h.update_u64(u64::from(spec.barrier_fanin));
    h.update_u64(spec.shards.max(1) as u64);

    // Probes change the report's sections, so they are part of the key.
    h.update_u64(spec.probes.len() as u64);
    for probe in &spec.probes {
        h.update_str(&probe.spec());
    }
    h.finish()
}

/// Hashes one workload's identity: its source (a trace at header level)
/// and the effective parameters (trace geometry pinning applied) the run
/// will actually use. Shared with the predictor tournament's fingerprint.
pub(crate) fn hash_workload(
    h: &mut FingerprintHasher,
    source: &WorkloadSource,
    requested: WorkloadParams,
) {
    let workload = source.effective_params(requested);
    match source {
        WorkloadSource::Synthetic(benchmark) => {
            h.update_str("bench");
            h.update_str(benchmark.name());
        }
        // A trace replays identically from memory or streamed from its
        // file, so both kinds hash alike.
        WorkloadSource::Trace(trace) => {
            h.update_str("trace");
            h.update_str(trace.name());
            h.update_u64(trace.total_ops());
        }
        WorkloadSource::StreamingTrace(trace) => {
            h.update_str("trace");
            h.update_str(trace.name());
            h.update_u64(trace.total_ops());
        }
    }
    h.update_u64(u64::from(workload.nodes));
    h.update_u64(workload.seed);
    match workload.iterations {
        Some(iters) => {
            h.update_str("iters");
            h.update_u64(u64::from(iters));
        }
        None => h.update_str("natural"),
    }
}

/// Hashes the predictor tuning every policy is built with. Shared with the
/// predictor tournament's fingerprint.
pub(crate) fn hash_tuning(h: &mut FingerprintHasher, predictor: PredictorConfig) {
    h.update_u64(u64::from(predictor.initial_confidence));
    h.update_str(match predictor.premature_penalty {
        PrematurePenalty::Weaken => "weaken",
        PrematurePenalty::Reset => "reset",
    });
    h.update_u64(u64::from(predictor.self_invalidate_shared));
}

/// The human-readable spec descriptor stored alongside each run — the same
/// facts the fingerprint canonicalizes, as JSON, so a store is
/// self-describing without this build of the tool.
pub fn run_descriptor(spec: &ExperimentSpec) -> JsonValue {
    let workload = spec.source.effective_params(spec.workload);
    let kind = match &spec.source {
        WorkloadSource::Synthetic(_) => "bench",
        WorkloadSource::Trace(_) | WorkloadSource::StreamingTrace(_) => "trace",
    };
    JsonObject::new()
        .field("format", u64::from(STORE_FORMAT_VERSION))
        .field("source_kind", kind)
        .field("source", spec.source.name())
        .field("nodes", workload.nodes)
        .field("seed", workload.seed)
        .field(
            "iterations",
            workload.iterations.map_or(JsonValue::Null, JsonValue::from),
        )
        .field("policy_spec", spec.policy.spec())
        .field("directory", spec.directory.to_string())
        .field("barrier_fanin", spec.barrier_fanin)
        .field("shards", spec.shards.max(1) as u64)
        .field(
            "probes",
            JsonValue::Array(
                spec.probes
                    .iter()
                    .map(|p| JsonValue::from(p.spec()))
                    .collect(),
            ),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ltp_workloads::{Benchmark, Trace, WorkloadParams};

    use super::*;

    fn base_spec() -> ExperimentSpec {
        ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp:bits=13")
            .unwrap()
            .nodes(4)
            .iterations(3)
            .build()
    }

    #[test]
    fn identical_specs_hash_identically() {
        assert_eq!(run_fingerprint(&base_spec()), run_fingerprint(&base_spec()));
    }

    #[test]
    fn every_axis_perturbs_the_hash() {
        let base = run_fingerprint(&base_spec());
        let variants = [
            ExperimentSpec::builder(Benchmark::Moldyn)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("base")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(8)
                .iterations(3)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(4)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .seed(99)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .directory(ltp_dsm::DirectoryKind::Coarse { cluster: 2 })
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .shards(2)
                .build(),
            ExperimentSpec::builder(Benchmark::Em3d)
                .policy_spec("ltp:bits=13")
                .unwrap()
                .nodes(4)
                .iterations(3)
                .probe_spec("per-node")
                .unwrap()
                .build(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, run_fingerprint(v), "variant {i} collided");
        }
    }

    #[test]
    fn iteration_pinning_is_distinct_from_natural_length() {
        // `iterations: None` must not collide with any pinned count.
        let natural = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp")
            .unwrap()
            .nodes(4)
            .build();
        let pinned = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp")
            .unwrap()
            .nodes(4)
            .iterations(0)
            .build();
        assert_ne!(run_fingerprint(&natural), run_fingerprint(&pinned));
    }

    #[test]
    fn trace_replay_hashes_like_its_recording_geometry() {
        let params = WorkloadParams::quick(4, 3);
        let trace = Arc::new(Trace::record(Benchmark::Em3d, &params));
        let a = ExperimentSpec::replay(Arc::clone(&trace))
            .policy_spec("ltp:bits=13")
            .unwrap()
            .build();
        let b = ExperimentSpec::replay(trace)
            .policy_spec("ltp:bits=13")
            .unwrap()
            .nodes(64) // ignored: traces pin their geometry
            .build();
        assert_eq!(run_fingerprint(&a), run_fingerprint(&b));
    }
}
