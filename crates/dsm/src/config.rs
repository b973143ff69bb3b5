//! System configuration (paper Table 1).
//!
//! The simulated CC-NUMA machine is the paper's Table 1 machine. Its
//! timing is fixed: the associated constants of [`SystemConfig`] hold it.
//! A [`SystemConfig`] chooses only the node count, the directory
//! organization and the barrier fan-in; [`SystemConfig::isca00`] is the
//! 32-node full-map machine of Table 1:
//!
//! | parameter | value |
//! |---|---|
//! | nodes | 32 |
//! | processor speed | 600 MHz |
//! | cache block size | 32 bytes |
//! | local memory / network-cache access | 104 cycles |
//! | network latency | 80 cycles |
//! | round-trip miss latency | ≈416 cycles |
//! | remote-to-local access ratio | ≈4 |
//!
//! The builder validates those three choices ([C-VALIDATE]). The constants
//! decompose the 416-cycle round trip as: NI serialization (8) + network
//! (80) + directory service (24 control + 104 memory) + NI (8) + network
//! (80) + requester-side network-cache fill (104) + issue/fill overhead
//! ≈ 409.
//!
//! [C-VALIDATE]: https://rust-lang.github.io/api-guidelines/dependability.html

use std::fmt;
use std::str::FromStr;

use ltp_core::{BlockId, NodeId};
use ltp_sim::Cycle;

/// Error produced by [`SystemConfigBuilder::build`] on invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine needs at least two nodes to share anything.
    TooFewNodes(u16),
    /// The directory organization parameter is out of range.
    BadDirectory(&'static str),
    /// The combining-tree barrier fan-in must be at least 2.
    BadBarrierFanin(u16),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewNodes(n) => {
                write!(f, "a DSM needs at least 2 nodes, got {n}")
            }
            ConfigError::BadBarrierFanin(f_in) => {
                write!(
                    f,
                    "combining-tree barrier fan-in must be at least 2, got {f_in}"
                )
            }
            ConfigError::BadDirectory(what) => {
                write!(f, "directory organization: {what}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The directory's sharer-representation organization.
///
/// The paper evaluates a 32-node full-map directory; at the 1024–4096-node
/// geometries the roadmap targets, an exact bit per node per block is the
/// classic directory-storage scaling problem, and the classic answers are
/// selectable here:
///
/// * [`DirectoryKind::Full`] — one bit per node, exact (the paper's
///   organization and the default);
/// * [`DirectoryKind::Coarse`] — one bit per `cluster`-node group
///   (Gupta et al.'s *coarse vector*): invalidations broadcast to every
///   node of each marked cluster, and individual departures (self
///   invalidations) cannot clear a shared cluster bit, so stale clusters
///   accumulate *extra* invalidations;
/// * [`DirectoryKind::LimitedPtr`] — `Dir_i_B` limited pointers: up to
///   `pointers` exact sharers, falling back to broadcast-on-write once the
///   pointer array overflows;
/// * [`DirectoryKind::Sparse`] — a bounded directory-entry *cache* of
///   `entries` blocks per home (the SGI-Origin-style sparse directory):
///   entries are exact full maps, but allocating a record for a new block
///   when all `entries` are occupied evicts the least-recently-used stable
///   entry, invalidating its sharers first so the untracked block can fall
///   back to Idle safely.
///
/// Over-invalidation is observable in the run report:
/// `extra_invalidations` counts invalidations acknowledged without a copy,
/// `broadcast_overflows` counts limited-pointer overflow events, and
/// `dir_evictions`/`eviction_invalidations` count sparse replacements and
/// the invalidations they forced.
///
/// The spec-string grammar is `full`, `coarse:<K>`, `ptr:<I>`, `sparse:<E>`:
///
/// ```
/// use ltp_dsm::DirectoryKind;
///
/// assert_eq!("full".parse(), Ok(DirectoryKind::Full));
/// assert_eq!("coarse:4".parse(), Ok(DirectoryKind::Coarse { cluster: 4 }));
/// assert_eq!("ptr:8".parse(), Ok(DirectoryKind::LimitedPtr { pointers: 8 }));
/// assert_eq!("sparse:64".parse(), Ok(DirectoryKind::Sparse { entries: 64 }));
/// assert_eq!(DirectoryKind::Coarse { cluster: 4 }.to_string(), "coarse:4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirectoryKind {
    /// Exact full-map bit vector (the paper's Table 1 machine).
    #[default]
    Full,
    /// Coarse vector: one presence bit per `cluster` consecutive nodes.
    Coarse {
        /// Nodes per presence bit (`coarse:1` is exactly [`DirectoryKind::Full`]).
        cluster: u16,
    },
    /// `Dir_i_B` limited pointers with broadcast on overflow.
    LimitedPtr {
        /// Exact sharers tracked before falling back to broadcast.
        pointers: u16,
    },
    /// Sparse directory: a bounded entry cache with eviction-driven
    /// invalidation.
    Sparse {
        /// Non-Idle blocks tracked per home before replacements evict.
        entries: u16,
    },
}

impl DirectoryKind {
    /// Whether this organization always knows the exact sharer set.
    ///
    /// `full`, `coarse:1`, and `sparse:E` (whose *tracked* entries are exact
    /// full maps) are always exact; `ptr:I` is exact until its pointer array
    /// overflows; wider coarse clusters are never exact.
    pub fn always_exact(self) -> bool {
        match self {
            DirectoryKind::Full => true,
            DirectoryKind::Coarse { cluster } => cluster <= 1,
            DirectoryKind::LimitedPtr { .. } => false,
            DirectoryKind::Sparse { .. } => true,
        }
    }

    /// Validates the organization parameters in isolation (machine-size
    /// checks live in [`DirectoryKind::validate_for`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadDirectory`] when a cluster width, pointer
    /// count, or entry count is zero.
    pub fn validate(self) -> Result<(), ConfigError> {
        match self {
            DirectoryKind::Full => Ok(()),
            DirectoryKind::Coarse { cluster: 0 } => Err(ConfigError::BadDirectory(
                "coarse cluster width must be at least 1",
            )),
            DirectoryKind::Coarse { .. } => Ok(()),
            DirectoryKind::LimitedPtr { pointers: 0 } => Err(ConfigError::BadDirectory(
                "limited-pointer directories need at least 1 pointer",
            )),
            DirectoryKind::LimitedPtr { .. } => Ok(()),
            DirectoryKind::Sparse { entries: 0 } => Err(ConfigError::BadDirectory(
                "sparse directories need at least 1 entry",
            )),
            DirectoryKind::Sparse { .. } => Ok(()),
        }
    }

    /// Validates the organization parameters against a concrete machine
    /// size: a cluster width or pointer count larger than the machine would
    /// be inert misconfiguration, so it is rejected here (the sharer
    /// representation itself is width-generic and imposes no cap).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadDirectory`] when the parameters fail
    /// [`DirectoryKind::validate`] or exceed `nodes`.
    pub fn validate_for(self, nodes: u16) -> Result<(), ConfigError> {
        self.validate()?;
        match self {
            DirectoryKind::Coarse { cluster } if cluster > nodes => Err(ConfigError::BadDirectory(
                "coarse cluster width exceeds the node count",
            )),
            DirectoryKind::LimitedPtr { pointers } if pointers > nodes => Err(
                ConfigError::BadDirectory("limited-pointer count exceeds the node count"),
            ),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for DirectoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honors width/alignment flags so table columns line up.
        match self {
            DirectoryKind::Full => f.pad("full"),
            DirectoryKind::Coarse { cluster } => f.pad(&format!("coarse:{cluster}")),
            DirectoryKind::LimitedPtr { pointers } => f.pad(&format!("ptr:{pointers}")),
            DirectoryKind::Sparse { entries } => f.pad(&format!("sparse:{entries}")),
        }
    }
}

/// Error from parsing a [`DirectoryKind`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDirectoryKindError {
    spec: String,
    reason: &'static str,
}

impl fmt::Display for ParseDirectoryKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid directory spec `{}`: {} (expected full | coarse:<K> | ptr:<I> | sparse:<E>)",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for ParseDirectoryKindError {}

impl FromStr for DirectoryKind {
    type Err = ParseDirectoryKindError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseDirectoryKindError {
            spec: spec.to_string(),
            reason,
        };
        let (name, param) = match spec.split_once(':') {
            Some((name, param)) => (name.trim(), Some(param.trim())),
            None => (spec.trim(), None),
        };
        let parse_param = |what| -> Result<u16, ParseDirectoryKindError> {
            let raw = param.ok_or_else(|| err(what))?;
            let value: u16 = raw.parse().map_err(|_| err(what))?;
            if value == 0 {
                return Err(err(what));
            }
            Ok(value)
        };
        match name {
            "full" => {
                if param.is_some() {
                    return Err(err("`full` takes no parameter"));
                }
                Ok(DirectoryKind::Full)
            }
            "coarse" => Ok(DirectoryKind::Coarse {
                cluster: parse_param("needs a cluster width of at least 1")?,
            }),
            "ptr" => Ok(DirectoryKind::LimitedPtr {
                pointers: parse_param("needs a pointer count of at least 1")?,
            }),
            "sparse" => Ok(DirectoryKind::Sparse {
                entries: parse_param("needs an entry count of at least 1")?,
            }),
            _ => Err(err("unknown organization")),
        }
    }
}

/// Machine configuration: the node count, directory organization and
/// barrier fan-in of a Table 1 machine. Construct via
/// [`SystemConfig::builder`] or [`SystemConfig::isca00`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    nodes: u16,
    directory: DirectoryKind,
    barrier_fanin: u16,
}

impl SystemConfig {
    /// Coherence block size in bytes (Table 1: 32).
    pub const BLOCK_BYTES: u32 = 32;

    /// Processor-cache hit latency.
    pub const CPU_HIT: Cycle = Cycle::new(1);

    /// One local-memory / network-cache access (Table 1: 104 cycles).
    pub const MEM_ACCESS: Cycle = Cycle::new(104);

    /// Protocol-engine occupancy for a control-only message.
    pub const DIR_CONTROL: Cycle = Cycle::new(24);

    /// One-way point-to-point network latency (Table 1: 80 cycles).
    pub const NET_LATENCY: Cycle = Cycle::new(80);

    /// Network-interface serialization time per message (the contention
    /// point the paper models).
    pub const NI_OCCUPANCY: Cycle = Cycle::new(8);

    /// Depth of the pipelined protocol engine (Table 1 note: an "aggressive
    /// two-stage pipelined protocol engine").
    pub const PIPELINE_STAGES: u32 = 2;

    /// Service time for a directory operation that moves data (control +
    /// one memory access).
    pub const DIR_DATA_SERVICE: Cycle =
        Cycle::new(Self::DIR_CONTROL.as_u64() + Self::MEM_ACCESS.as_u64());

    /// The smallest possible latency of any message between two *distinct*
    /// nodes: one NI serialization plus one network hop. Home-local
    /// (`src == dst`) traffic is faster, but it never crosses a shard
    /// boundary, so this bound is the safe lookahead for conservative
    /// time-stepped parallel simulation (`ltp-system`'s shard engine).
    pub const MIN_CROSS_NODE_LATENCY: Cycle =
        Cycle::new(Self::NI_OCCUPANCY.as_u64() + Self::NET_LATENCY.as_u64());

    /// Back-of-envelope remote read round trip for an Idle block, used to
    /// sanity-check against Table 1's 416 cycles.
    pub const REMOTE_ROUND_TRIP_ESTIMATE: Cycle = Cycle::new(
        Self::CPU_HIT.as_u64()
            + 2 * Self::MIN_CROSS_NODE_LATENCY.as_u64()
            + Self::DIR_DATA_SERVICE.as_u64()
            + Self::MEM_ACCESS.as_u64(),
    );

    /// The paper's Table 1 machine: 32 nodes, 32-byte blocks, 104-cycle
    /// memory, 80-cycle network, two-stage pipelined protocol engines.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltp_dsm::SystemConfig;
    ///
    /// let cfg = SystemConfig::isca00();
    /// assert_eq!(cfg.nodes(), 32);
    /// // Remote read round trip ≈ 416 cycles (Table 1).
    /// let rt = SystemConfig::REMOTE_ROUND_TRIP_ESTIMATE;
    /// assert!((380..=440).contains(&rt.as_u64()), "round trip {rt}");
    /// ```
    pub fn isca00() -> Self {
        SystemConfig::builder()
            .build()
            .expect("ISCA'00 defaults are valid")
    }

    /// Starts a builder preloaded with the ISCA'00 defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The directory sharer-representation organization.
    pub fn directory(&self) -> DirectoryKind {
        self.directory
    }

    /// Fan-in of the combining-tree barrier (arrivals combined per tree
    /// node; the tree has O(log_fanin n) depth).
    pub fn barrier_fanin(&self) -> u16 {
        self.barrier_fanin
    }

    /// The home node of `block`: blocks are interleaved round-robin across
    /// nodes, the common fine-grain DSM layout.
    pub fn home_of(&self, block: BlockId) -> NodeId {
        NodeId::new((block.index() % u64::from(self.nodes)) as u16)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::isca00()
    }
}

/// Builder for [`SystemConfig`] (all setters take `&mut self` and return it,
/// so one-liners and stepwise configuration both work).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    nodes: u16,
    directory: DirectoryKind,
    barrier_fanin: u16,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            nodes: 32,
            directory: DirectoryKind::Full,
            barrier_fanin: 4,
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the node count.
    pub fn nodes(&mut self, nodes: u16) -> &mut Self {
        self.nodes = nodes;
        self
    }

    /// Sets the directory sharer-representation organization.
    pub fn directory(&mut self, directory: DirectoryKind) -> &mut Self {
        self.directory = directory;
        self
    }

    /// Sets the combining-tree barrier fan-in (≥2, default 4).
    pub fn barrier_fanin(&mut self, fanin: u16) -> &mut Self {
        self.barrier_fanin = fanin;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if fewer than 2 nodes are configured, the
    /// directory organization is malformed or sized beyond the node count,
    /// or the barrier fan-in is below 2. The node count itself is unbounded
    /// up to `u16::MAX` — the sharer representation is width-generic.
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        if self.nodes < 2 {
            return Err(ConfigError::TooFewNodes(self.nodes));
        }
        if self.barrier_fanin < 2 {
            return Err(ConfigError::BadBarrierFanin(self.barrier_fanin));
        }
        self.directory.validate_for(self.nodes)?;
        Ok(SystemConfig {
            nodes: self.nodes,
            directory: self.directory,
            barrier_fanin: self.barrier_fanin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca00_matches_table1() {
        assert_eq!(SystemConfig::isca00().nodes(), 32);
        assert_eq!(SystemConfig::BLOCK_BYTES, 32);
        assert_eq!(SystemConfig::MEM_ACCESS, Cycle::new(104));
        assert_eq!(SystemConfig::NET_LATENCY, Cycle::new(80));
        assert_eq!(SystemConfig::PIPELINE_STAGES, 2);
        assert_eq!(SystemConfig::DIR_DATA_SERVICE, Cycle::new(128));
        assert_eq!(SystemConfig::MIN_CROSS_NODE_LATENCY, Cycle::new(88));
    }

    #[test]
    fn round_trip_near_416() {
        let rt = SystemConfig::REMOTE_ROUND_TRIP_ESTIMATE.as_u64();
        assert!((380..=440).contains(&rt), "estimate {rt} not near 416");
    }

    #[test]
    fn remote_to_local_ratio_near_4() {
        let ratio = SystemConfig::REMOTE_ROUND_TRIP_ESTIMATE.as_u64() as f64
            / SystemConfig::MEM_ACCESS.as_u64() as f64;
        assert!((3.0..=5.0).contains(&ratio), "ratio {ratio} not ≈4");
    }

    #[test]
    fn homes_are_round_robin() {
        let cfg = SystemConfig::isca00();
        assert_eq!(cfg.home_of(BlockId::new(0)), NodeId::new(0));
        assert_eq!(cfg.home_of(BlockId::new(31)), NodeId::new(31));
        assert_eq!(cfg.home_of(BlockId::new(32)), NodeId::new(0));
        assert_eq!(cfg.home_of(BlockId::new(65)), NodeId::new(1));
    }

    #[test]
    fn builder_validates_nodes() {
        let err = SystemConfig::builder().nodes(1).build().unwrap_err();
        assert_eq!(err, ConfigError::TooFewNodes(1));
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn builder_customization() {
        let cfg = SystemConfig::builder()
            .nodes(4)
            .directory(DirectoryKind::LimitedPtr { pointers: 2 })
            .barrier_fanin(3)
            .build()
            .unwrap();
        assert_eq!(cfg.nodes(), 4);
        assert_eq!(cfg.directory(), DirectoryKind::LimitedPtr { pointers: 2 });
        assert_eq!(cfg.barrier_fanin(), 3);
    }

    #[test]
    fn default_is_isca00() {
        assert_eq!(SystemConfig::default(), SystemConfig::isca00());
    }

    #[test]
    fn default_directory_is_full_map() {
        assert_eq!(SystemConfig::isca00().directory(), DirectoryKind::Full);
    }

    #[test]
    fn builder_accepts_any_machine_width() {
        // The 256-node ceiling is gone: 257 (the old first-illegal width),
        // 1024, and 4096 all build.
        for nodes in [256u16, 257, 1024, 4096] {
            let cfg = SystemConfig::builder()
                .nodes(nodes)
                .directory(DirectoryKind::Coarse { cluster: 8 })
                .build()
                .unwrap();
            assert_eq!(cfg.nodes(), nodes);
            assert_eq!(cfg.directory(), DirectoryKind::Coarse { cluster: 8 });
        }
    }

    #[test]
    fn directory_parameters_validate_against_the_node_count() {
        // 257-node edge: a 257-wide cluster or pointer array is exactly as
        // large as the machine — legal — while 258 exceeds it.
        for kind in [
            DirectoryKind::Coarse { cluster: 257 },
            DirectoryKind::LimitedPtr { pointers: 257 },
        ] {
            SystemConfig::builder()
                .nodes(257)
                .directory(kind)
                .build()
                .unwrap_or_else(|e| panic!("{kind} on 257 nodes must build: {e}"));
            let err = SystemConfig::builder()
                .nodes(257)
                .directory(match kind {
                    DirectoryKind::Coarse { .. } => DirectoryKind::Coarse { cluster: 258 },
                    _ => DirectoryKind::LimitedPtr { pointers: 258 },
                })
                .build()
                .unwrap_err();
            assert!(matches!(err, ConfigError::BadDirectory(_)));
            assert!(err.to_string().contains("node count"), "{err}");
        }
        // Sparse entry counts are a cache size, not a node index: any
        // nonzero value is legal regardless of machine width.
        SystemConfig::builder()
            .nodes(4)
            .directory(DirectoryKind::Sparse { entries: 4096 })
            .build()
            .unwrap();
    }

    #[test]
    fn builder_rejects_malformed_directories() {
        for kind in [
            DirectoryKind::Coarse { cluster: 0 },
            DirectoryKind::LimitedPtr { pointers: 0 },
            DirectoryKind::Sparse { entries: 0 },
            DirectoryKind::Coarse { cluster: 300 },
            DirectoryKind::LimitedPtr { pointers: 300 },
        ] {
            // Default 32-node builder: zero params are always bad, and
            // 300 > 32 exceeds the node count.
            let err = SystemConfig::builder().directory(kind).build().unwrap_err();
            assert!(matches!(err, ConfigError::BadDirectory(_)), "{kind}");
        }
    }

    #[test]
    fn builder_validates_barrier_fanin() {
        for bad in [0u16, 1] {
            let err = SystemConfig::builder()
                .barrier_fanin(bad)
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::BadBarrierFanin(bad));
            assert!(err.to_string().contains("at least 2"));
        }
        let cfg = SystemConfig::builder().barrier_fanin(2).build().unwrap();
        assert_eq!(cfg.barrier_fanin(), 2);
        assert_eq!(SystemConfig::isca00().barrier_fanin(), 4, "default fan-in");
    }

    #[test]
    fn directory_kind_parses_and_round_trips() {
        for spec in [
            "full",
            "coarse:4",
            "ptr:8",
            "coarse:256",
            "coarse:4096",
            "sparse:64",
        ] {
            let kind: DirectoryKind = spec.parse().unwrap();
            assert_eq!(kind.to_string(), spec);
            kind.validate().unwrap();
        }
        for bad in [
            "", "coarse", "ptr", "ptr:0", "sparse", "sparse:0", "full:3", "dir",
        ] {
            assert!(bad.parse::<DirectoryKind>().is_err(), "`{bad}` must fail");
        }
        let msg = "ptr:x".parse::<DirectoryKind>().unwrap_err().to_string();
        assert!(msg.contains("ptr:x"), "{msg}");
        assert!(
            msg.contains("full | coarse:<K> | ptr:<I> | sparse:<E>"),
            "{msg}"
        );
    }

    #[test]
    fn directory_kind_display_honors_padding() {
        assert_eq!(
            format!("{:<10}|", DirectoryKind::Coarse { cluster: 4 }),
            "coarse:4  |"
        );
        assert_eq!(format!("{:>6}|", DirectoryKind::Full), "  full|");
    }

    #[test]
    fn exactness_classification() {
        assert!(DirectoryKind::Full.always_exact());
        assert!(DirectoryKind::Coarse { cluster: 1 }.always_exact());
        assert!(!DirectoryKind::Coarse { cluster: 4 }.always_exact());
        assert!(!DirectoryKind::LimitedPtr { pointers: 4 }.always_exact());
        assert!(
            DirectoryKind::Sparse { entries: 8 }.always_exact(),
            "sparse tracked entries are exact full maps"
        );
    }
}
