//! The point-to-point interconnect.
//!
//! Per Table 1 the network has a constant 80-cycle latency; contention is
//! modeled at the *network interfaces* (§5: "we assume a point-to-point
//! network with a constant latency but model contention at the network
//! interfaces"). Each node owns a [`NetIface`] that serializes outgoing
//! messages — a burst of self-invalidations (DSI's failure mode) therefore
//! drains one message per occupancy period, delaying everything behind it.
//!
//! Because the interface is a FIFO and the latency constant, message order
//! is preserved per (source, destination) pair — an ordering property the
//! directory relies on (a node's `SelfInv` always reaches home before that
//! node's subsequent request for the same block).

use ltp_sim::Cycle;

/// One node's outgoing network interface.
///
/// # Examples
///
/// ```
/// use ltp_dsm::NetIface;
/// use ltp_sim::Cycle;
///
/// let mut ni = NetIface::new(Cycle::new(8));
/// // Two messages handed over at the same instant serialize.
/// assert_eq!(ni.depart(Cycle::new(100)), Cycle::new(108));
/// assert_eq!(ni.depart(Cycle::new(100)), Cycle::new(116));
/// // After the burst drains, the interface is free again.
/// assert_eq!(ni.depart(Cycle::new(500)), Cycle::new(508));
/// ```
#[derive(Debug, Clone)]
pub struct NetIface {
    occupancy: Cycle,
    busy_until: Cycle,
}

impl NetIface {
    /// Creates an interface with the given per-message serialization time.
    pub fn new(occupancy: Cycle) -> Self {
        NetIface {
            occupancy,
            busy_until: Cycle::ZERO,
        }
    }

    /// Hands one message to the interface at `now`; returns its departure
    /// time (arrival at the destination is departure + network latency).
    pub fn depart(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.busy_until);
        self.busy_until = start + self.occupancy;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_bursts() {
        let mut ni = NetIface::new(Cycle::new(8));
        let t1 = ni.depart(Cycle::new(0));
        let t2 = ni.depart(Cycle::new(0));
        let t3 = ni.depart(Cycle::new(0));
        assert_eq!(
            (t1, t2, t3),
            (Cycle::new(8), Cycle::new(16), Cycle::new(24))
        );
    }

    #[test]
    fn idles_between_messages() {
        let mut ni = NetIface::new(Cycle::new(8));
        ni.depart(Cycle::new(0));
        assert_eq!(ni.depart(Cycle::new(100)), Cycle::new(108));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ni = NetIface::new(Cycle::new(8));
        let a = ni.depart(Cycle::new(0));
        let b = ni.depart(Cycle::new(2));
        assert!(a < b, "handover order = departure order");
    }
}
