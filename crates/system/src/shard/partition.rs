//! Node-to-shard assignment.
//!
//! Nodes (and with them their caches, home directories, protocol engines,
//! and network interfaces) are partitioned into contiguous, balanced index
//! ranges — shard `s` owns `[start(s), start(s+1))`. Contiguity keeps the
//! mapping a two-branch arithmetic function (no table lookup on the hot
//! routing path) and makes a shard's node records a slice of the machine's
//! nodes in index order.

use ltp_core::NodeId;

/// A contiguous, balanced partition of `nodes` node indices into `shards`
/// ranges. The first `nodes % shards` shards own one extra node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    nodes: u16,
    shards: u16,
}

impl Partition {
    /// Partitions `nodes` nodes into `shards` ranges. A request for more
    /// shards than nodes is clamped, so every shard owns at least one node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `shards` is zero.
    pub fn new(nodes: u16, shards: usize) -> Self {
        assert!(nodes > 0, "cannot partition zero nodes");
        assert!(shards > 0, "cannot partition into zero shards");
        let shards = (shards.min(usize::from(nodes))) as u16;
        Partition { nodes, shards }
    }

    /// Number of shards in the partition (after clamping).
    pub fn shards(self) -> usize {
        usize::from(self.shards)
    }

    /// The shard owning node `p`.
    #[inline]
    pub fn shard_of(self, p: NodeId) -> usize {
        let i = p.index() as u32;
        let base = u32::from(self.nodes / self.shards);
        let rem = u32::from(self.nodes % self.shards);
        // The first `rem` shards own `base + 1` nodes each.
        let fat = rem * (base + 1);
        if i < fat {
            (i / (base + 1)) as usize
        } else {
            (rem + (i - fat) / base) as usize
        }
    }

    /// The `[lo, hi)` node-index range owned by shard `s`.
    pub fn range(self, s: usize) -> (u16, u16) {
        assert!(s < self.shards(), "shard index out of range");
        let s = s as u16;
        let base = self.nodes / self.shards;
        let rem = self.nodes % self.shards;
        let lo = if s < rem {
            s * (base + 1)
        } else {
            rem * (base + 1) + (s - rem) * base
        };
        let hi = lo + base + u16::from(s < rem);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_all_nodes_exactly_once() {
        for nodes in [2u16, 3, 7, 32, 97, 256] {
            for shards in [1usize, 2, 3, 4, 5, 8, 300] {
                let part = Partition::new(nodes, shards);
                let mut next = 0u16;
                for s in 0..part.shards() {
                    let (lo, hi) = part.range(s);
                    assert_eq!(lo, next, "ranges must be contiguous");
                    assert!(hi > lo, "every shard owns at least one node");
                    for i in lo..hi {
                        assert_eq!(part.shard_of(NodeId::new(i)), s);
                    }
                    next = hi;
                }
                assert_eq!(next, nodes, "ranges must cover all nodes");
            }
        }
    }

    #[test]
    fn balanced_within_one_node() {
        let part = Partition::new(10, 4);
        let sizes: Vec<u16> = (0..4)
            .map(|s| {
                let (lo, hi) = part.range(s);
                hi - lo
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn clamps_shards_to_node_count() {
        let part = Partition::new(3, 8);
        assert_eq!(part.shards(), 3);
    }
}
