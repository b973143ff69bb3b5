//! Structured diagnosis of runs that hit the cycle horizon.
//!
//! Some configurations livelock (the known seeded-kernel lock pathology at
//! wide pinned geometries — see ROADMAP): the machine keeps handling events
//! but some nodes never finish, and the run hits the 2×10⁹-cycle horizon.
//! [`ExperimentSpec::try_run`](crate::ExperimentSpec::try_run) turns that
//! into a [`StuckReport`] — per-node execution class (lock spin vs. barrier
//! wait vs. fill wait), the cycle at which each node last retired an
//! operation, and how many operations it retired — instead of a panic, so
//! campaign drivers can record the run as `stuck` and keep going, and
//! [`SweepSpec::execute`](crate::SweepSpec::execute) can return it.

use ltp_core::{JsonObject, JsonValue};
use ltp_dsm::DirectoryKind;
use ltp_workloads::WorkloadParams;

use crate::report::RunReport;

/// What a stuck node was doing when the horizon hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckClass {
    /// Spinning on a contended lock (test-and-test-and-set loop).
    LockSpin,
    /// Spinning on an ad-hoc flag that never advanced.
    FlagSpin,
    /// Waiting at a barrier for nodes that never arrived.
    BarrierWait,
    /// Waiting for a memory fill that never completed.
    MemWait,
    /// Between completing an access and what follows it — transient, so a
    /// node pinned here points at a lost wakeup.
    Completing,
    /// Ready to fetch the next op but never rescheduled — a lost `CpuStep`.
    Ready,
    /// Finished its program still holding a lock, which any node spinning
    /// on that lock waits for in vain. The only class of a finished node.
    HoldsLock,
}

impl StuckClass {
    /// The stable lowercase identifier used in store documents.
    pub fn as_str(self) -> &'static str {
        match self {
            StuckClass::LockSpin => "lock-spin",
            StuckClass::FlagSpin => "flag-spin",
            StuckClass::BarrierWait => "barrier-wait",
            StuckClass::MemWait => "mem-wait",
            StuckClass::Completing => "completing",
            StuckClass::Ready => "ready",
            StuckClass::HoldsLock => "holds-lock",
        }
    }
}

impl std::fmt::Display for StuckClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One unfinished node's state at the horizon, or a finished node that
/// still holds a lock ([`StuckClass::HoldsLock`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckNode {
    /// The node's index.
    pub node: u16,
    /// What the node was doing.
    pub class: StuckClass,
    /// Human-readable detail (which lock/barrier/block).
    pub detail: String,
    /// Cycle at which the node last retired an operation (fetched fresh
    /// work from its program), `0` if it never did.
    pub last_progress_cycle: u64,
    /// Operations the node retired before stalling.
    pub ops_retired: u64,
}

impl StuckNode {
    fn to_json(&self) -> JsonValue {
        JsonObject::new()
            .field("node", u64::from(self.node))
            .field("class", self.class.as_str())
            .field("detail", self.detail.as_str())
            .field("last_progress_cycle", self.last_progress_cycle)
            .field("ops_retired", self.ops_retired)
            .build()
    }
}

/// The structured diagnosis of one horizon-reached run.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckReport {
    /// The workload that stalled.
    pub benchmark: String,
    /// The short family name of the policy.
    pub policy: String,
    /// The canonical policy spec string.
    pub policy_spec: String,
    /// The directory sharer organization the run used.
    pub directory: DirectoryKind,
    /// The machine geometry the run used.
    pub workload: WorkloadParams,
    /// The horizon that fired, in cycles.
    pub horizon_cycles: u64,
    /// How many nodes *did* finish their programs.
    pub nodes_finished: u16,
    /// Every unfinished node, and every finished node that still holds a
    /// lock, in node order.
    pub stuck_nodes: Vec<StuckNode>,
    /// Simulator events handled before the horizon.
    pub events_handled: u64,
}

impl StuckReport {
    /// Encodes the diagnosis as one compact JSON object (the campaign
    /// store's `"stuck"` document).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field("benchmark", self.benchmark.as_str())
            .field("policy", self.policy.as_str())
            .field("policy_spec", self.policy_spec.as_str())
            .field("directory", self.directory.to_string())
            .field(
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
            )
            .field("horizon_cycles", self.horizon_cycles)
            .field("nodes_finished", u64::from(self.nodes_finished))
            .field(
                "stuck_nodes",
                JsonValue::Array(self.stuck_nodes.iter().map(StuckNode::to_json).collect()),
            )
            .field("events_handled", self.events_handled)
            .build()
            .render()
    }

    /// Renders the diagnosis for humans (panic messages, CLI stderr).
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} under {} stuck at the {}-cycle horizon ({} of {} nodes finished):",
            self.benchmark,
            self.policy_spec,
            self.horizon_cycles,
            self.nodes_finished,
            self.workload.nodes,
        );
        for n in &self.stuck_nodes {
            let _ = writeln!(
                out,
                "  node {}: {} ({}), last progress at cycle {}, {} ops retired",
                n.node, n.class, n.detail, n.last_progress_cycle, n.ops_retired
            );
        }
        out
    }
}

/// What [`ExperimentSpec::try_run`](crate::ExperimentSpec::try_run)
/// produced: a finished report, or a stuck diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run finished; here is its report.
    Completed(Box<RunReport>),
    /// The run hit the horizon with unfinished nodes.
    Stuck(Box<StuckReport>),
}

impl RunOutcome {
    /// The completed report, if the run finished.
    pub fn completed(self) -> Option<RunReport> {
        match self {
            RunOutcome::Completed(r) => Some(*r),
            RunOutcome::Stuck(_) => None,
        }
    }

    /// Whether the run stalled at the horizon.
    pub fn is_stuck(&self) -> bool {
        matches!(self, RunOutcome::Stuck(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_report_serializes_every_node() {
        let report = StuckReport {
            benchmark: "raytrace".to_string(),
            policy: "ltp".to_string(),
            policy_spec: "ltp:bits=13".to_string(),
            directory: DirectoryKind::Full,
            workload: WorkloadParams {
                nodes: 64,
                seed: 7,
                iterations: Some(6),
            },
            horizon_cycles: 2_000_000_000,
            nodes_finished: 62,
            stuck_nodes: vec![
                StuckNode {
                    node: 3,
                    class: StuckClass::LockSpin,
                    detail: "lock block 12".to_string(),
                    last_progress_cycle: 1_999_000_000,
                    ops_retired: 123,
                },
                StuckNode {
                    node: 9,
                    class: StuckClass::BarrierWait,
                    detail: "barrier 4".to_string(),
                    last_progress_cycle: 5_000,
                    ops_retired: 99,
                },
            ],
            events_handled: 42,
        };
        let json = report.to_json();
        for needle in [
            "\"benchmark\":\"raytrace\"",
            "\"horizon_cycles\":2000000000",
            "\"nodes_finished\":62",
            "\"class\":\"lock-spin\"",
            "\"class\":\"barrier-wait\"",
            "\"last_progress_cycle\":1999000000",
            "\"ops_retired\":123",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let human = report.render_human();
        assert!(human.contains("node 3: lock-spin"), "{human}");
        assert!(human.contains("62 of 64 nodes finished"), "{human}");
    }

    #[test]
    fn class_identifiers_are_stable() {
        for (class, s) in [
            (StuckClass::LockSpin, "lock-spin"),
            (StuckClass::FlagSpin, "flag-spin"),
            (StuckClass::BarrierWait, "barrier-wait"),
            (StuckClass::MemWait, "mem-wait"),
            (StuckClass::Completing, "completing"),
            (StuckClass::Ready, "ready"),
            (StuckClass::HoldsLock, "holds-lock"),
        ] {
            assert_eq!(class.as_str(), s);
            assert_eq!(class.to_string(), s);
        }
    }
}
