//! What a simulation run reports when it stops.

use crate::time::Cycle;

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The event queue drained.
    Drained,
    /// The configured horizon was reached with events still pending — almost
    /// always a livelock/deadlock symptom in this repository, surfaced loudly.
    HorizonReached,
}

/// Summary statistics for a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// The clock value when the run stopped.
    pub end_time: Cycle,
    /// Number of events handled.
    pub events_handled: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}
