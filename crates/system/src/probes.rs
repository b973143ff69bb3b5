//! Built-in probes: the core metrics collector, the per-node breakdown,
//! the self-invalidation lead-time and message-latency histograms, and the
//! per-block heat map. (The coherence sanitizer lives in [`crate::checker`].)
//!
//! Every one of these is an ordinary [`Probe`] — nothing here has access
//! the `examples/custom_probe.rs` out-of-tree probe does not.

use std::collections::HashMap;
use std::collections::VecDeque;

use ltp_core::{JsonObject, JsonValue};
use ltp_sim::stats::{Histogram, MeanAccumulator};

use crate::metrics::Metrics;
use crate::probe::{MetricsSection, Probe, ProbeCtx, SimEvent};
use crate::report::metrics_json;

/// Per-node tallies of the accuracy/traffic counters.
#[derive(Debug, Default, Clone, Copy)]
struct NodeTally {
    predicted: u64,
    predicted_timely: u64,
    not_predicted: u64,
    mispredicted: u64,
    misses: u64,
    hits: u64,
    self_inv_sent: u64,
}

/// Classifies one verification verdict into the predicted,
/// predicted-timely and mispredicted counters: the single copy of that
/// mapping, shared by the flat metrics and the per-node breakdown so the
/// breakdown can never drift from the totals it decomposes.
#[inline(always)]
fn count_verdict(
    predicted: &mut u64,
    predicted_timely: &mut u64,
    mispredicted: &mut u64,
    outcome: ltp_core::VerifyOutcome,
    timely: bool,
) {
    match outcome {
        ltp_core::VerifyOutcome::Correct => {
            *predicted += 1;
            *predicted_timely += u64::from(timely);
        }
        ltp_core::VerifyOutcome::Premature => *mispredicted += 1,
    }
}

/// The built-in probe tallying the flat [`Metrics`] struct from the event
/// stream — what every `RunReport`'s `metrics` block is produced by.
///
/// Counts go straight into one [`Metrics`]. Only the directory means are
/// kept per home and merged in home order at the end: a floating-point
/// sum depends on its order, and home order is the same for every shard
/// count.
#[derive(Debug)]
pub struct CoreMetricsProbe {
    m: Metrics,
    queueing: Vec<MeanAccumulator>,
    service: Vec<MeanAccumulator>,
}

impl CoreMetricsProbe {
    /// An empty collector for an `nodes`-node machine.
    pub fn new(nodes: u16) -> Self {
        let n = usize::from(nodes);
        CoreMetricsProbe {
            m: Metrics::default(),
            queueing: vec![MeanAccumulator::new(); n],
            service: vec![MeanAccumulator::new(); n],
        }
    }

    /// Folds one event into the tallies (shared by the typed fast path in
    /// `Machine` and the [`Probe`] impl).
    ///
    /// `#[inline(always)]` is load-bearing: the machine emits events with the
    /// variant known at each call site, so inlining collapses this match to
    /// the one live arm — that is what keeps the default probe stack's
    /// overhead in the noise (see the `probe_overhead` bench).
    #[inline(always)]
    pub fn observe(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        let m = &mut self.m;
        match *event {
            SimEvent::CacheHit { .. } => m.hits += 1,
            SimEvent::CacheMiss { .. } => m.misses += 1,
            SimEvent::Invalidated { had_copy: true, .. } => m.not_predicted += 1,
            SimEvent::SelfInvalidation { .. } => m.self_invalidations_sent += 1,
            SimEvent::PredictionVerified {
                outcome, timely, ..
            } => count_verdict(
                &mut m.predicted,
                &mut m.predicted_timely,
                &mut m.mispredicted,
                outcome,
                timely,
            ),
            SimEvent::MessageDelivered { .. } => m.messages += 1,
            SimEvent::MessageServiced {
                home,
                queueing,
                service,
                ..
            } => {
                self.queueing[home.index()].record_cycles(queueing);
                self.service[home.index()].record_cycles(service);
            }
            SimEvent::InvalidationSent { .. } => m.invalidations_sent += 1,
            SimEvent::InvalidationAcked {
                had_copy: false, ..
            } => m.extra_invalidations += 1,
            SimEvent::BroadcastOverflow { .. } => m.broadcast_overflows += 1,
            SimEvent::DirEntryEvicted { invalidations, .. } => {
                m.dir_evictions += 1;
                m.eviction_invalidations += u64::from(invalidations);
            }
            SimEvent::StaleIgnored { .. } => m.stale_ignored += 1,
            SimEvent::NodeFinished { .. } => m.exec_cycles = m.exec_cycles.max(ctx.now.as_u64()),
            SimEvent::PolicyStorage { stats, .. } => m.storage.merge(&stats),
            _ => {}
        }
    }

    /// Absorbs another collector's tallies (the sharded engine keeps one
    /// collector per shard, statically dispatched on each shard's hot path,
    /// and merges them at the end of the run).
    ///
    /// Bit-exactness: counts are integer sums, and each per-home mean slot
    /// is populated on exactly one shard (homes are partitioned), so
    /// slot-wise merging adds each non-zero contribution to zero and every
    /// floating-point sum lands bit-identical to a single-collector run.
    pub(crate) fn merge(&mut self, other: &CoreMetricsProbe) {
        assert_eq!(
            self.queueing.len(),
            other.queueing.len(),
            "same machine size"
        );
        let (a, b) = (&mut self.m, &other.m);
        a.predicted += b.predicted;
        a.predicted_timely += b.predicted_timely;
        a.not_predicted += b.not_predicted;
        a.mispredicted += b.mispredicted;
        a.exec_cycles = a.exec_cycles.max(b.exec_cycles);
        a.misses += b.misses;
        a.hits += b.hits;
        a.self_invalidations_sent += b.self_invalidations_sent;
        a.invalidations_sent += b.invalidations_sent;
        a.extra_invalidations += b.extra_invalidations;
        a.broadcast_overflows += b.broadcast_overflows;
        a.dir_evictions += b.dir_evictions;
        a.eviction_invalidations += b.eviction_invalidations;
        a.messages += b.messages;
        a.storage.merge(&b.storage);
        a.stale_ignored += b.stale_ignored;
        for (a, b) in self.queueing.iter_mut().zip(&other.queueing) {
            a.merge(b);
        }
        for (a, b) in self.service.iter_mut().zip(&other.service) {
            a.merge(b);
        }
    }

    /// The tallies as the flat [`Metrics`] struct, the per-home means
    /// merged in home order.
    pub fn into_metrics(self) -> Metrics {
        let mut m = self.m;
        for q in &self.queueing {
            m.dir_queueing.merge(q);
        }
        for s in &self.service {
            m.dir_service.merge(s);
        }
        m
    }
}

impl Probe for CoreMetricsProbe {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        self.observe(ctx, event);
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        Some(MetricsSection::new(
            "core",
            metrics_json(&self.into_metrics()),
        ))
    }
}

/// Per-node accuracy and traffic breakdown (`per-node`): one record per
/// node, in node order — the distribution the flat metrics average away.
#[derive(Debug)]
pub struct PerNodeProbe {
    nodes: Vec<NodeTally>,
    ops: Vec<u64>,
    finished_at: Vec<u64>,
}

impl PerNodeProbe {
    /// An empty breakdown for an `nodes`-node machine.
    pub fn new(nodes: u16) -> Self {
        let n = usize::from(nodes);
        PerNodeProbe {
            nodes: vec![NodeTally::default(); n],
            ops: vec![0; n],
            finished_at: vec![0; n],
        }
    }
}

impl Probe for PerNodeProbe {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        match *event {
            SimEvent::OpRetired { node } => self.ops[node.index()] += 1,
            SimEvent::CacheHit { node, .. } => self.nodes[node.index()].hits += 1,
            SimEvent::CacheMiss { node, .. } => self.nodes[node.index()].misses += 1,
            SimEvent::Invalidated {
                node,
                had_copy: true,
                ..
            } => self.nodes[node.index()].not_predicted += 1,
            SimEvent::SelfInvalidation { node, .. } => {
                self.nodes[node.index()].self_inv_sent += 1;
            }
            SimEvent::PredictionVerified {
                node,
                outcome,
                timely,
                ..
            } => {
                let n = &mut self.nodes[node.index()];
                count_verdict(
                    &mut n.predicted,
                    &mut n.predicted_timely,
                    &mut n.mispredicted,
                    outcome,
                    timely,
                );
            }
            SimEvent::NodeFinished { node } => {
                self.finished_at[node.index()] = ctx.now.as_u64();
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        let rows: Vec<JsonValue> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                JsonObject::new()
                    .field("node", i as u64)
                    .field("ops", self.ops[i])
                    .field("finished_at", self.finished_at[i])
                    .field("misses", n.misses)
                    .field("hits", n.hits)
                    .field("predicted", n.predicted)
                    .field("predicted_timely", n.predicted_timely)
                    .field("not_predicted", n.not_predicted)
                    .field("mispredicted", n.mispredicted)
                    .field("self_invalidations_sent", n.self_inv_sent)
                    .build()
            })
            .collect();
        Some(MetricsSection::new("per-node", JsonValue::Array(rows)))
    }
}

/// Lead-time bucket bounds (cycles). The machine's remote round trip is
/// ≈416 cycles; premature predictions typically resolve within a few round
/// trips while correct ones can lead by a whole outer iteration, so the
/// buckets span 2⁶…2¹⁷ cycles.
const LEAD_BOUNDS: [u64; 12] = [
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
];

/// Lead-time histogram of self-invalidations (`hist:self-inv-lead`).
///
/// For every self-invalidation, the probe measures the cycles until its
/// verification verdict resolves — for a *correct* prediction that is how
/// early the block was relinquished before the conflicting access showed up
/// (the paper's timeliness, as a distribution rather than one percentage);
/// for a *premature* one it is how quickly the predictor's own node wanted
/// the block back. Verdicts are matched FIFO per `(node, block)`, the
/// directory's own resolution order; a self-invalidation the directory
/// ignores as stale (its copy was already taken by a crossing `Inv`) never
/// receives a verdict, so its pending entry is retired into `unresolved`
/// when the [`SimEvent::StaleIgnored`] event arrives — otherwise every
/// later verdict on that `(node, block)` would pop the wrong timestamp.
#[derive(Debug)]
pub struct SelfInvLeadProbe {
    pending: HashMap<(u16, u64), VecDeque<u64>>,
    correct_timely: Histogram,
    correct_late: Histogram,
    premature: Histogram,
    unresolved: u64,
}

impl SelfInvLeadProbe {
    /// An empty histogram probe.
    pub fn new() -> Self {
        SelfInvLeadProbe {
            pending: HashMap::new(),
            correct_timely: Histogram::with_bounds(&LEAD_BOUNDS),
            correct_late: Histogram::with_bounds(&LEAD_BOUNDS),
            premature: Histogram::with_bounds(&LEAD_BOUNDS),
            unresolved: 0,
        }
    }
}

impl Default for SelfInvLeadProbe {
    fn default() -> Self {
        SelfInvLeadProbe::new()
    }
}

/// Renders one histogram as `{bounds, counts, samples, mean, max}`.
fn histogram_json(h: &Histogram) -> JsonValue {
    JsonObject::new()
        .field(
            "bounds",
            JsonValue::Array(h.bounds().iter().map(|&b| b.into()).collect()),
        )
        .field(
            "counts",
            JsonValue::Array(h.bucket_counts().iter().map(|&c| c.into()).collect()),
        )
        .field("samples", h.samples())
        .field("mean", h.mean())
        .field("max", h.max())
        .build()
}

impl Probe for SelfInvLeadProbe {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        match *event {
            SimEvent::SelfInvalidation { node, block, .. } => {
                self.pending
                    .entry((node.index() as u16, block.index()))
                    .or_default()
                    .push_back(ctx.now.as_u64());
            }
            SimEvent::StaleIgnored {
                from,
                block,
                kind: ltp_dsm::MsgKind::SelfInvClean | ltp_dsm::MsgKind::SelfInvDirty { .. },
                ..
            } => {
                // This prediction will never be verified; retire its (oldest,
                // by FIFO) pending timestamp so later verdicts match their
                // own sends.
                let retired = self
                    .pending
                    .get_mut(&(from.index() as u16, block.index()))
                    .and_then(VecDeque::pop_front);
                if retired.is_some() {
                    self.unresolved += 1;
                }
            }
            SimEvent::PredictionVerified {
                node,
                block,
                outcome,
                timely,
            } => {
                let Some(sent) = self
                    .pending
                    .get_mut(&(node.index() as u16, block.index()))
                    .and_then(VecDeque::pop_front)
                else {
                    return; // verdict without a matching send: ignore
                };
                let lead = ctx.now.as_u64().saturating_sub(sent);
                match outcome {
                    ltp_core::VerifyOutcome::Correct if timely => {
                        self.correct_timely.record(lead);
                    }
                    ltp_core::VerifyOutcome::Correct => self.correct_late.record(lead),
                    ltp_core::VerifyOutcome::Premature => self.premature.record(lead),
                }
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        let unresolved: u64 =
            self.unresolved + self.pending.values().map(|q| q.len() as u64).sum::<u64>();
        let data = JsonObject::new()
            .field("unit", "cycles")
            .field("correct_timely", histogram_json(&self.correct_timely))
            .field("correct_late", histogram_json(&self.correct_late))
            .field("premature", histogram_json(&self.premature))
            .field("unresolved", unresolved)
            .build();
        Some(MetricsSection::new("hist:self-inv-lead", data))
    }
}

/// The wire kinds in fixed report order — the row order of
/// [`MsgLatencyProbe`]'s section, chosen once so serial and sharded runs
/// render byte-identical JSON.
const MSG_CLASS_NAMES: [&str; 11] = [
    "GetS",
    "GetX",
    "Upgrade",
    "SelfInvClean",
    "SelfInvDirty",
    "Inv",
    "InvAck",
    "DataS",
    "DataX",
    "UpgradeAck",
    "VerifyCorrect",
];

/// Slot of a wire kind in [`MSG_CLASS_NAMES`].
fn msg_class(kind: ltp_dsm::MsgKind) -> usize {
    use ltp_dsm::MsgKind;
    match kind {
        MsgKind::GetS => 0,
        MsgKind::GetX => 1,
        MsgKind::Upgrade => 2,
        MsgKind::SelfInvClean => 3,
        MsgKind::SelfInvDirty { .. } => 4,
        MsgKind::Inv => 5,
        MsgKind::InvAck { .. } => 6,
        MsgKind::DataS { .. } => 7,
        MsgKind::DataX { .. } => 8,
        MsgKind::UpgradeAck { .. } => 9,
        MsgKind::VerifyCorrect { .. } => 10,
    }
}

/// Latency bucket bounds (cycles). Directory service occupancies are tens
/// of cycles; queueing under contention reaches thousands, so the buckets
/// span 2²…2¹³.
const MSG_LAT_BOUNDS: [u64; 12] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Message latency histogram (`hist:msg-latency`).
///
/// Per wire kind: how many messages were delivered
/// ([`SimEvent::MessageDelivered`]), and — for the directory-bound kinds a
/// home's protocol engine services ([`SimEvent::MessageServiced`]) — the
/// distributions of queueing delay, service occupancy, and their sum (the
/// message's total latency at the home). Classes that never appeared are
/// omitted from the section; rows render in the fixed `MSG_CLASS_NAMES`
/// order, so the section is byte-identical however the run was sharded
/// (events reach dynamic probes in canonical order either way).
#[derive(Debug)]
pub struct MsgLatencyProbe {
    delivered: [u64; MSG_CLASS_NAMES.len()],
    queueing: Vec<Histogram>,
    service: Vec<Histogram>,
    total: Vec<Histogram>,
}

impl MsgLatencyProbe {
    /// An empty histogram probe.
    pub fn new() -> Self {
        let hists = || {
            (0..MSG_CLASS_NAMES.len())
                .map(|_| Histogram::with_bounds(&MSG_LAT_BOUNDS))
                .collect()
        };
        MsgLatencyProbe {
            delivered: [0; MSG_CLASS_NAMES.len()],
            queueing: hists(),
            service: hists(),
            total: hists(),
        }
    }
}

impl Default for MsgLatencyProbe {
    fn default() -> Self {
        MsgLatencyProbe::new()
    }
}

impl Probe for MsgLatencyProbe {
    fn on_event(&mut self, _ctx: &ProbeCtx, event: &SimEvent) {
        match *event {
            SimEvent::MessageDelivered { msg } => {
                self.delivered[msg_class(msg.kind)] += 1;
            }
            SimEvent::MessageServiced {
                kind,
                queueing,
                service,
                ..
            } => {
                let c = msg_class(kind);
                self.queueing[c].record(queueing.as_u64());
                self.service[c].record(service.as_u64());
                self.total[c].record(queueing.as_u64() + service.as_u64());
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        let rows: Vec<JsonValue> = MSG_CLASS_NAMES
            .iter()
            .enumerate()
            .filter(|&(c, _)| self.delivered[c] > 0 || self.total[c].samples() > 0)
            .map(|(c, name)| {
                JsonObject::new()
                    .field("class", *name)
                    .field("delivered", self.delivered[c])
                    .field("serviced", self.total[c].samples())
                    .field("queueing", histogram_json(&self.queueing[c]))
                    .field("service", histogram_json(&self.service[c]))
                    .field("total", histogram_json(&self.total[c]))
                    .build()
            })
            .collect();
        let data = JsonObject::new()
            .field("unit", "cycles")
            .field("classes", JsonValue::Array(rows))
            .build();
        Some(MetricsSection::new("hist:msg-latency", data))
    }
}

/// Per-block heat map (`heat:K`): the K hottest blocks by access count.
///
/// Folds the event stream into per-block tallies — accesses (cache hits +
/// misses), demand invalidations the directory sent for the block, and
/// sparse-directory entry evictions that victimized it — then keeps the
/// top K. Ties on access count break toward the lower block id, so the
/// section is a deterministic function of the run. The heat map is how a
/// sweep answers "*which* blocks carry the sharing" before reaching for
/// the per-node breakdown or a trace.
#[derive(Debug)]
pub struct HeatProbe {
    k: usize,
    blocks: HashMap<u64, BlockHeat>,
}

#[derive(Debug, Default, Clone, Copy)]
struct BlockHeat {
    accesses: u64,
    invalidations: u64,
    evictions: u64,
}

impl HeatProbe {
    /// A heat map keeping the `k` hottest blocks.
    pub fn new(k: usize) -> Self {
        HeatProbe {
            k,
            blocks: HashMap::new(),
        }
    }
}

impl Probe for HeatProbe {
    fn on_event(&mut self, _ctx: &ProbeCtx, event: &SimEvent) {
        match *event {
            SimEvent::CacheHit { block, .. } | SimEvent::CacheMiss { block, .. } => {
                self.blocks.entry(block.index()).or_default().accesses += 1;
            }
            SimEvent::InvalidationSent { block, .. } => {
                self.blocks.entry(block.index()).or_default().invalidations += 1;
            }
            SimEvent::DirEntryEvicted { block, .. } => {
                self.blocks.entry(block.index()).or_default().evictions += 1;
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        let mut ranked: Vec<(u64, BlockHeat)> = self.blocks.into_iter().collect();
        ranked.sort_by(|(a_block, a), (b_block, b)| {
            b.accesses.cmp(&a.accesses).then(a_block.cmp(b_block))
        });
        let tracked = ranked.len() as u64;
        ranked.truncate(self.k);
        let top: Vec<JsonValue> = ranked
            .into_iter()
            .map(|(block, heat)| {
                JsonObject::new()
                    .field("block", block)
                    .field("accesses", heat.accesses)
                    .field("invalidations", heat.invalidations)
                    .field("evictions", heat.evictions)
                    .build()
            })
            .collect();
        let data = JsonObject::new()
            .field("k", self.k as u64)
            .field("blocks_tracked", tracked)
            .field("top", JsonValue::Array(top))
            .build();
        Some(MetricsSection::new("heat", data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_core::{BlockId, NodeId, VerifyOutcome};
    use ltp_sim::Cycle;

    fn ctx(now: u64) -> ProbeCtx {
        ProbeCtx {
            now: Cycle::new(now),
            nodes: 2,
        }
    }

    #[test]
    fn lead_probe_matches_verdicts_fifo_per_block() {
        let mut p = Box::new(SelfInvLeadProbe::new());
        let n0 = NodeId::new(0);
        let b = BlockId::new(7);
        let send = |p: &mut SelfInvLeadProbe, at| {
            p.on_event(
                &ctx(at),
                &SimEvent::SelfInvalidation {
                    node: n0,
                    block: b,
                    dirty: false,
                },
            );
        };
        let verify = |p: &mut SelfInvLeadProbe, at, outcome, timely| {
            p.on_event(
                &ctx(at),
                &SimEvent::PredictionVerified {
                    node: n0,
                    block: b,
                    outcome,
                    timely,
                },
            );
        };
        send(&mut p, 100);
        send(&mut p, 700);
        verify(&mut p, 600, VerifyOutcome::Correct, true); // lead 500
        verify(&mut p, 760, VerifyOutcome::Premature, false); // lead 60
        send(&mut p, 1000); // never verified
        let section = p.finish().expect("section");
        assert_eq!(section.name, "hist:self-inv-lead");
        let json = section.data.render();
        assert!(json.contains("\"unresolved\":1"), "{json}");
        assert!(json.contains("\"unit\":\"cycles\""), "{json}");
        // 500 lands in the [256,512) bucket of correct_timely; 60 in the
        // first bucket of premature.
        assert!(json.contains("\"correct_timely\":{\"bounds\":"), "{json}");
    }

    #[test]
    fn lead_probe_retires_stale_self_invalidations() {
        // A self-invalidation the directory ignores as stale never gets a
        // verdict; its pending timestamp must be retired so the *next*
        // prediction's verdict is matched against its own send.
        let mut p = Box::new(SelfInvLeadProbe::new());
        let n0 = NodeId::new(0);
        let b = BlockId::new(7);
        p.on_event(
            &ctx(100),
            &SimEvent::SelfInvalidation {
                node: n0,
                block: b,
                dirty: false,
            },
        );
        p.on_event(
            &ctx(150),
            &SimEvent::StaleIgnored {
                home: NodeId::new(1),
                from: n0,
                block: b,
                kind: ltp_dsm::MsgKind::SelfInvClean,
            },
        );
        p.on_event(
            &ctx(1000),
            &SimEvent::SelfInvalidation {
                node: n0,
                block: b,
                dirty: false,
            },
        );
        p.on_event(
            &ctx(1060),
            &SimEvent::PredictionVerified {
                node: n0,
                block: b,
                outcome: VerifyOutcome::Correct,
                timely: true,
            },
        );
        let json = p.finish().expect("section").data.render();
        assert!(json.contains("\"unresolved\":1"), "{json}");
        // Lead 60 lands in the first bucket — not 960, which would mean the
        // verdict matched the stale send.
        assert!(
            json.contains("\"correct_timely\":{\"bounds\":[64,") && json.contains("\"counts\":[1,"),
            "{json}"
        );
    }

    #[test]
    fn msg_latency_probe_classifies_and_buckets() {
        let mut p = Box::new(MsgLatencyProbe::new());
        let msg = ltp_dsm::Message::new(
            NodeId::new(0),
            NodeId::new(1),
            BlockId::new(3),
            ltp_dsm::MsgKind::GetS,
        );
        p.on_event(&ctx(10), &SimEvent::MessageDelivered { msg });
        p.on_event(
            &ctx(40),
            &SimEvent::MessageServiced {
                home: NodeId::new(1),
                kind: ltp_dsm::MsgKind::GetS,
                queueing: Cycle::new(30),
                service: Cycle::new(14),
                data: true,
            },
        );
        let section = p.finish().expect("section");
        assert_eq!(section.name, "hist:msg-latency");
        let json = section.data.render();
        // Only the one class that appeared renders, with its delivered
        // count, service count, and the 30 + 14 total latency recorded.
        assert!(json.contains("\"class\":\"GetS\""), "{json}");
        assert!(!json.contains("\"class\":\"GetX\""), "{json}");
        assert!(json.contains("\"delivered\":1"), "{json}");
        assert!(json.contains("\"serviced\":1"), "{json}");
        assert!(json.contains("\"unit\":\"cycles\""), "{json}");
    }

    #[test]
    fn core_probe_counts_match_event_stream() {
        let mut p = CoreMetricsProbe::new(2);
        let n1 = NodeId::new(1);
        let b = BlockId::new(3);
        p.observe(
            &ctx(5),
            &SimEvent::CacheMiss {
                node: n1,
                block: b,
                pc: ltp_core::Pc::new(0x10),
                is_write: false,
            },
        );
        p.observe(
            &ctx(9),
            &SimEvent::Invalidated {
                node: n1,
                block: b,
                had_copy: true,
            },
        );
        p.observe(
            &ctx(9),
            &SimEvent::Invalidated {
                node: n1,
                block: b,
                had_copy: false,
            },
        );
        p.observe(&ctx(400), &SimEvent::NodeFinished { node: n1 });
        let m = p.into_metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.not_predicted, 1, "copyless invalidations do not count");
        assert_eq!(m.exec_cycles, 400);
    }

    #[test]
    fn heat_probe_ranks_blocks_by_access_with_id_tiebreak() {
        let mut p = Box::new(HeatProbe::new(2));
        let n0 = NodeId::new(0);
        let touch = |p: &mut HeatProbe, block: u64, times: usize| {
            for _ in 0..times {
                p.on_event(
                    &ctx(1),
                    &SimEvent::CacheHit {
                        node: n0,
                        block: BlockId::new(block),
                        pc: ltp_core::Pc::new(0x10),
                        is_write: false,
                        exclusive: false,
                    },
                );
            }
        };
        // Block 9 is hottest; blocks 3 and 5 tie, so 3 wins the last slot.
        touch(&mut p, 5, 2);
        touch(&mut p, 9, 4);
        touch(&mut p, 3, 2);
        p.on_event(
            &ctx(2),
            &SimEvent::InvalidationSent {
                home: n0,
                to: NodeId::new(1),
                block: BlockId::new(9),
            },
        );
        p.on_event(
            &ctx(3),
            &SimEvent::DirEntryEvicted {
                home: n0,
                block: BlockId::new(9),
                invalidations: 1,
            },
        );
        let section = p.finish().expect("heat section");
        assert_eq!(section.name, "heat");
        assert_eq!(
            section.data.render(),
            "{\"k\":2,\"blocks_tracked\":3,\"top\":[\
             {\"block\":9,\"accesses\":4,\"invalidations\":1,\"evictions\":1},\
             {\"block\":3,\"accesses\":2,\"invalidations\":0,\"evictions\":0}]}"
        );
    }

    #[test]
    fn heat_specs_parse_and_reject_bad_arguments() {
        let registry = crate::probe::ProbeRegistry::with_builtins();
        let factory = registry.parse("heat:8").expect("heat:8 parses");
        assert_eq!(factory.spec(), "heat:8");
        assert!(registry.parse("heat").is_err(), "K is required");
        assert!(registry.parse("heat:0").is_err(), "K of 0 is useless");
        assert!(registry.parse("heat:lots").is_err(), "K must be a number");
    }
}
