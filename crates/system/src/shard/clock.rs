//! The conservative virtual clock driving windowed execution.
//!
//! Simulated time is cut into fixed windows `[kL, (k+1)L)` where `L` is the
//! **lookahead**: the minimum latency of any cross-node message
//! (`SystemConfig::MIN_CROSS_NODE_LATENCY` — NI occupancy plus network
//! latency). Within a window every shard may run independently, because a
//! message routed by any handler executing at cycle `t < (k+1)L` cannot be
//! delivered before `t + L ≥ kL + L = (k+1)L` — i.e. never inside the
//! current window. Same-node messages (which deliver instantly) stay on the
//! sending shard, so they need no lookahead.
//!
//! The window grid is fixed (boundaries are always multiples of `L`), which
//! makes the sequence of barrier-release and message-exchange points a
//! function of the configuration alone — independent of the shard count.
//! When the global next-event time jumps, the clock skips empty windows in
//! one step rather than stepping through them.

use ltp_sim::Cycle;

/// Window arithmetic over the fixed lookahead grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowClock {
    lookahead: u64,
}

impl WindowClock {
    /// A clock with the given lookahead (window length) in cycles.
    ///
    /// # Panics
    ///
    /// Panics on zero lookahead — a zero-latency cross-node path would make
    /// concurrent windows unsound.
    pub fn new(lookahead: Cycle) -> Self {
        let lookahead = lookahead.as_u64();
        assert!(lookahead > 0, "shard lookahead must be positive");
        WindowClock { lookahead }
    }

    /// The window `[start, end)` containing cycle `t`.
    pub fn window_of(self, t: Cycle) -> (Cycle, Cycle) {
        let k = t.as_u64() / self.lookahead;
        (
            Cycle::new(k * self.lookahead),
            Cycle::new((k + 1).saturating_mul(self.lookahead)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_the_timeline() {
        let clock = WindowClock::new(Cycle::new(88));
        assert_eq!(
            clock.window_of(Cycle::ZERO),
            (Cycle::new(0), Cycle::new(88))
        );
        assert_eq!(
            clock.window_of(Cycle::new(87)),
            (Cycle::new(0), Cycle::new(88))
        );
        assert_eq!(
            clock.window_of(Cycle::new(88)),
            (Cycle::new(88), Cycle::new(176))
        );
        // Skipping far ahead lands on the same grid.
        let (lo, hi) = clock.window_of(Cycle::new(1_000_000));
        assert_eq!(lo.as_u64() % 88, 0);
        assert_eq!(hi.as_u64() - lo.as_u64(), 88);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_is_rejected() {
        let _ = WindowClock::new(Cycle::ZERO);
    }
}
