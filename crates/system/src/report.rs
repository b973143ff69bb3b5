//! Run reports and the streaming [`ReportSink`] API.
//!
//! Every experiment produces a [`RunReport`]; sweeps stream reports through
//! a [`ReportSink`] *in run order* (the cross-product order of the sweep),
//! so a sink observes identical sequences whether the sweep executed
//! serially or in parallel. Two sinks ship in-tree:
//!
//! * [`NullSink`] — discards every report (a sweep returns its reports
//!   anyway);
//! * [`JsonLinesSink`] — writes one JSON object per line to any
//!   [`std::io::Write`] (files, pipes, stdout), the interchange format the
//!   CLI and the benchmark baselines use.
//!
//! Serialization goes through the shared [`ltp_core`] JSON encoder
//! ([`JsonValue`]/[`JsonObject`]): the report document is built as a value
//! tree — the core metrics as the fixed `"metrics"` object, probe output as
//! a self-describing `"sections"` object keyed by section name — and
//! rendered compactly. The `"sections"` key is present only when at least
//! one probe produced a section, so probe-less reports are byte-identical
//! to the pre-probe format.

use std::io;

use ltp_core::{JsonObject, JsonValue};
use ltp_dsm::DirectoryKind;
use ltp_workloads::WorkloadParams;

use crate::metrics::Metrics;
use crate::probe::MetricsSection;

/// The outcome of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The workload that ran: a benchmark name, or the name recorded in a
    /// replayed trace's header.
    pub benchmark: String,
    /// The short family name of the policy ("base", "dsi", "ltp", …).
    pub policy: String,
    /// The canonical policy spec string (parameters included).
    pub policy_spec: String,
    /// The directory sharer organization the run used.
    pub directory: DirectoryKind,
    /// The machine geometry the run used.
    pub workload: WorkloadParams,
    /// Aggregated core metrics (the built-in core-metrics probe).
    pub metrics: Metrics,
    /// Self-describing output of every additional attached probe, in attach
    /// order (empty when no extra probes ran).
    pub sections: Vec<MetricsSection>,
    /// Simulator events handled (activity indicator).
    pub events_handled: u64,
}

impl RunReport {
    /// Encodes the report as one compact JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_tagged(None)
    }

    /// Encodes the report with an optional leading `"run":seq` field (the
    /// sweep's run index), as written by [`JsonLinesSink`].
    pub fn to_json_tagged(&self, seq: Option<usize>) -> String {
        let mut doc = JsonObject::new();
        if let Some(seq) = seq {
            doc.push("run", seq as u64);
        }
        doc.push("benchmark", self.benchmark.as_str());
        doc.push("policy", self.policy.as_str());
        doc.push("policy_spec", self.policy_spec.as_str());
        doc.push("directory", self.directory.to_string());
        doc.push(
            "workload",
            JsonObject::new()
                .field("nodes", self.workload.nodes)
                .field("seed", self.workload.seed)
                .field(
                    "iterations",
                    self.workload
                        .iterations
                        .map_or(JsonValue::Null, JsonValue::from),
                )
                .build(),
        );
        doc.push("metrics", metrics_json(&self.metrics));
        if !self.sections.is_empty() {
            // Sections key a JSON object, so names must be unique there:
            // repeated probes (or name-colliding custom ones) get a `#N`
            // suffix instead of silently shadowing each other in parsers
            // that keep only the last duplicate key. Deduplication is
            // against the keys actually emitted, so a literal "name#2"
            // section cannot collide with a suffixed one either.
            let mut sections = JsonObject::new();
            let mut emitted: Vec<String> = Vec::new();
            for section in &self.sections {
                let mut key = section.name.clone();
                let mut copy = 1;
                while emitted.contains(&key) {
                    copy += 1;
                    key = format!("{}#{copy}", section.name);
                }
                sections.push(&key, section.data.clone());
                emitted.push(key);
            }
            doc.push("sections", sections.build());
        }
        doc.push("events_handled", self.events_handled);
        doc.build().render()
    }
}

/// Encodes [`Metrics`] as a JSON value (the report's `"metrics"` object and
/// the core probe's standalone section share this shape).
pub(crate) fn metrics_json(m: &Metrics) -> JsonValue {
    let mut obj = JsonObject::new()
        .field("predicted", m.predicted)
        .field("predicted_timely", m.predicted_timely)
        .field("not_predicted", m.not_predicted)
        .field("mispredicted", m.mispredicted)
        .field("exec_cycles", m.exec_cycles)
        .field("misses", m.misses)
        .field("hits", m.hits)
        .field("self_invalidations_sent", m.self_invalidations_sent)
        .field("invalidations_sent", m.invalidations_sent)
        .field("extra_invalidations", m.extra_invalidations)
        .field("broadcast_overflows", m.broadcast_overflows);
    // Only sparse directories replace entries; gating the fields on use
    // keeps every unbounded-organization report byte-identical to the
    // pre-sparse format (the golden suite pins those bytes).
    if m.dir_evictions != 0 || m.eviction_invalidations != 0 {
        obj = obj
            .field("dir_evictions", m.dir_evictions)
            .field("eviction_invalidations", m.eviction_invalidations);
    }
    obj.field("messages", m.messages)
        .field("stale_ignored", m.stale_ignored)
        .field(
            "dir_queueing",
            JsonObject::new()
                .field("mean", m.dir_queueing.mean_or_zero())
                .field("samples", m.dir_queueing.samples())
                .build(),
        )
        .field(
            "dir_service",
            JsonObject::new()
                .field("mean", m.dir_service.mean_or_zero())
                .field("samples", m.dir_service.samples())
                .build(),
        )
        .field(
            "storage",
            JsonObject::new()
                .field("blocks_tracked", m.storage.blocks_tracked)
                .field("live_entries", m.storage.live_entries)
                .field("signature_bits", m.storage.signature_bits)
                .build(),
        )
        .build()
}

/// Receives per-run reports as a sweep executes.
///
/// `seq` is the run's index in the sweep's cross-product order; sinks are
/// always called with strictly increasing `seq` (0, 1, 2, …) even when runs
/// complete out of order on worker threads.
pub trait ReportSink {
    /// Observes the report of run `seq`.
    fn record(&mut self, seq: usize, report: &RunReport);

    /// Called once after the last report (flush point).
    fn finish(&mut self) {}
}

/// A sink that discards every report.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ReportSink for NullSink {
    fn record(&mut self, _seq: usize, _report: &RunReport) {}
}

/// Streams each report as one JSON line (`{"run":N,...}`) to a writer.
#[derive(Debug)]
pub struct JsonLinesSink<W: io::Write> {
    out: W,
}

impl<W: io::Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: io::Write> ReportSink for JsonLinesSink<W> {
    /// # Panics
    ///
    /// Panics on writer errors — a sweep whose output silently vanishes is
    /// worse than a crashed sweep.
    fn record(&mut self, seq: usize, report: &RunReport) {
        writeln!(self.out, "{}", report.to_json_tagged(Some(seq)))
            .expect("report sink write failed");
    }

    fn finish(&mut self) {
        self.out.flush().expect("report sink flush failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(policy: &str) -> RunReport {
        RunReport {
            benchmark: "em3d".to_string(),
            policy: policy.to_string(),
            policy_spec: format!("{policy}:bits=13"),
            directory: DirectoryKind::Coarse { cluster: 4 },
            workload: WorkloadParams::quick(4, 2),
            metrics: Metrics {
                predicted: 10,
                not_predicted: 2,
                exec_cycles: 1234,
                ..Metrics::default()
            },
            sections: Vec::new(),
            events_handled: 77,
        }
    }

    #[test]
    fn json_has_expected_fields() {
        let json = report("ltp").to_json();
        for needle in [
            "\"benchmark\":\"em3d\"",
            "\"policy\":\"ltp\"",
            "\"policy_spec\":\"ltp:bits=13\"",
            "\"directory\":\"coarse:4\"",
            "\"predicted\":10",
            "\"exec_cycles\":1234",
            "\"events_handled\":77",
            "\"extra_invalidations\":0",
            "\"broadcast_overflows\":0",
            "\"dir_queueing\":{\"mean\":0,\"samples\":0}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains("\"run\":"), "untagged report has no seq");
        assert!(
            !json.contains("\"sections\""),
            "probe-less reports carry no sections key: {json}"
        );
    }

    #[test]
    fn sections_serialize_keyed_by_name_before_events_handled() {
        let mut r = report("base");
        r.sections.push(MetricsSection::new(
            "custom",
            JsonObject::new().field("k", 7u64).build(),
        ));
        let json = r.to_json();
        assert!(
            json.contains("\"sections\":{\"custom\":{\"k\":7}},\"events_handled\":77"),
            "{json}"
        );
    }

    #[test]
    fn duplicate_section_names_get_disambiguating_suffixes() {
        let mut r = report("base");
        for v in [1u64, 2, 3] {
            r.sections.push(MetricsSection::new(
                "dup",
                JsonObject::new().field("v", v).build(),
            ));
        }
        let json = r.to_json();
        assert!(
            json.contains(
                "\"sections\":{\"dup\":{\"v\":1},\"dup#2\":{\"v\":2},\"dup#3\":{\"v\":3}}"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_lines_sink_tags_and_terminates_lines() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.record(0, &report("base"));
        sink.record(1, &report("ltp"));
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"run\":0,"));
        assert!(lines[1].starts_with("{\"run\":1,"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn null_iterations_render_as_json_null() {
        let mut r = report("base");
        r.workload.iterations = None;
        let json = r.to_json();
        assert!(json.contains("\"iterations\":null"), "{json}");
    }
}
