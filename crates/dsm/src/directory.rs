//! The write-invalidate directory (paper §2, §4) with selectable sharer
//! representations.
//!
//! Each home node runs a [`Directory`] holding, per block: the sharing state
//! (Idle / Shared / Exclusive, plus a transient Busy state while
//! invalidations are being collected), the sharer representation, the DSI
//! write-version number, the home copy of the data token, the §4
//! *verification mask* of self-invalidators, and a queue of requests shelved
//! while the block is Busy.
//!
//! Sharer tracking is built on [`ltp_core::SharerSet`] — a width-generic
//! hybrid set (inline up to eight sharers, heap bit-vector beyond, any
//! machine width) — interpreted according to the configured
//! [`DirectoryKind`]:
//!
//! * **`full`** — one bit per node, exact; the paper's organization and
//!   bit-identical to the original `BTreeSet` full map (both iterate
//!   ascending);
//! * **`coarse:K`** — one bit per `K`-node cluster. Invalidations go to
//!   every node of each marked cluster; a self-invalidating sharer cannot
//!   clear a cluster bit (its neighbours may still hold copies), so stale
//!   bits accrue *extra* invalidations, which nodes acknowledge without a
//!   copy;
//! * **`ptr:I`** — `Dir_I_B` limited pointers: up to `I` exact sharers,
//!   then a broadcast bit. Writes to overflowed blocks invalidate every
//!   node;
//! * **`sparse:E`** — a bounded directory-entry cache: at most `E` blocks
//!   per home may be tracked (non-Idle) at once. Tracked entries are exact
//!   full maps; allocating beyond `E` evicts the least-recently-used stable
//!   entry, invalidating its holders first (transient Evicting state) so
//!   the untracked block safely falls back to Idle. Memory state (version,
//!   token, verification mask) persists across evictions — only the
//!   *sharing* record is bounded.
//!
//! Over-invalidation is measurable from the [`DirEvent`]s each step
//! returns: [`DirEvent::InvalidationAcked`] with `had_copy: false` marks an
//! invalidation acknowledged without a copy, [`DirEvent::BroadcastOverflow`]
//! a pointer-array overflow, and [`DirEvent::EntryEvicted`] a sparse
//! replacement with the invalidations it forced.
//!
//! The directory is a pure state machine: [`Directory::process`] consumes one
//! message and returns the messages to emit, the requests to re-inject, and
//! the service class for the protocol engine's timing model. All races the
//! protocol can produce — self-invalidations crossing invalidations,
//! upgrades racing writers, stale acknowledgements — are resolved here and
//! covered by unit tests.

use std::collections::VecDeque;

use ltp_core::{BlockId, FxHashMap, NodeId, SharerSet, VerifyOutcome};

use crate::config::DirectoryKind;
use crate::msg::{Message, MsgKind};

/// Engine-time classification of one directory service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// State bookkeeping only.
    Control,
    /// The service moved a data block (one memory access).
    Data,
}

/// A directory-side observation produced while processing one message.
///
/// These are the emission points of the probe API: the report's directory
/// statistics (invalidations sent, over-invalidation acks, broadcast
/// overflows, stale ignores, sparse evictions) are folded from this stream
/// by the `ltp-system` probe layer. Self-invalidations have no event of
/// their own — node-side probes already see each self-invalidation and its
/// verdict (with the timeliness flag) directly. The block concerned is the
/// processed message's block; the home is the directory that emitted the
/// step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEvent {
    /// An invalidation was sent to `to` on behalf of the in-service request.
    InvalidationSent {
        /// The invalidated node.
        to: NodeId,
    },
    /// An invalidation acknowledgement was consumed by an in-flight
    /// transaction. `had_copy = false` marks an over-invalidation (imprecise
    /// sharer representation, or a self-invalidation crossing the `Inv`).
    InvalidationAcked {
        /// The acknowledging node.
        from: NodeId,
        /// Whether the node actually relinquished a cached copy.
        had_copy: bool,
    },
    /// A limited-pointer sharer array overflowed into broadcast mode.
    BroadcastOverflow,
    /// A stale message (ack or self-invalidation for an already-completed
    /// transaction) was ignored.
    StaleIgnored {
        /// The sender of the stale message.
        from: NodeId,
    },
    /// A sparse directory replaced a tracked entry to make room for the
    /// in-service request's block. Unlike the other events, the block
    /// concerned is the *victim*, not the processed message's block.
    EntryEvicted {
        /// The evicted block.
        block: BlockId,
        /// Invalidations sent to the victim's holders (0 if the mutation
        /// hook suppressed them).
        invalidations: u16,
    },
}

/// Result of processing one message at the directory.
#[derive(Debug, Clone, Default)]
pub struct DirStep {
    /// Protocol messages to emit after the service completes.
    pub sends: Vec<Message>,
    /// Shelved requests to re-inject into the engine (the block left its
    /// Busy state).
    pub reinject: Vec<Message>,
    /// Timing class of this service.
    pub data_service: bool,
    /// Observations made during this service, in occurrence order (see
    /// [`DirEvent`]).
    pub events: Vec<DirEvent>,
}

impl DirStep {
    fn control() -> Self {
        DirStep::default()
    }

    fn data() -> Self {
        DirStep {
            data_service: true,
            ..DirStep::default()
        }
    }
}

/// The per-block sharer representation: bit semantics depend on the
/// directory's [`DirectoryKind`] (node bits for `full`/`ptr`, cluster bits
/// for `coarse`), plus the limited-pointer broadcast flag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Sharers {
    set: SharerSet,
    /// `ptr:I` only: the pointer array overflowed; `set` is no longer
    /// tracked and writes broadcast.
    broadcast: bool,
}

/// Stable + transient directory states for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    /// Only the home copy exists.
    Idle,
    /// Read-only copies tracked by the sharer representation.
    Shared(Sharers),
    /// A writable copy at one node.
    Exclusive(NodeId),
    /// Collecting invalidation acks / writeback for an in-flight request.
    Busy(Busy),
    /// Sparse only: collecting invalidation acks for an evicted entry; the
    /// block falls back to Idle when the last holder has answered.
    Evicting {
        /// Nodes whose acknowledgement or writeback is still awaited.
        waiting: SharerSet,
    },
}

/// The in-flight transaction while Busy.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Busy {
    requester: NodeId,
    /// Grant exclusive (GetX/Upgrade) vs read-only (GetS).
    want_exclusive: bool,
    /// Reply with `UpgradeAck` (requester kept its data) instead of `DataX`.
    upgrade_reply: bool,
    /// Nodes whose acknowledgement or writeback is still awaited (always an
    /// exact node set: these are the invalidations actually sent).
    waiting: SharerSet,
    /// Verification verdict to piggyback on the eventual reply.
    verify: Option<VerifyOutcome>,
}

/// One §4 verification-mask entry: a node that self-invalidated and awaits a
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MaskEntry {
    node: NodeId,
    /// The copy relinquished was exclusive (writeback) vs read-only.
    relinquished_exclusive: bool,
    /// Whether the self-invalidation was processed in a stable state —
    /// i.e. it reached the directory *before* the conflicting request
    /// (Table 4's timeliness).
    timely: bool,
}

/// Per-block directory record.
#[derive(Debug, Clone)]
struct DirBlock {
    state: DirState,
    /// DSI write-version: incremented on every exclusive grant.
    version: u32,
    /// Home copy of the data token.
    token: u64,
    /// §4 verification mask.
    mask: Vec<MaskEntry>,
    /// Requests shelved while Busy.
    pending: VecDeque<Message>,
    /// Nodes whose `InvAck` is still in flight for an invalidation that a
    /// crossing self-invalidation already answered. Such an orphaned ack
    /// must not be mistaken for the acknowledgement of a *later*
    /// invalidation of the same node (it would complete a Busy transaction
    /// while the targeted copy is still live, breaking SWMR).
    stale_acks: SharerSet,
    /// Sparse replacement recency: the directory's service tick of the last
    /// message processed for this block (inert outside `sparse:E`).
    last_use: u64,
}

impl Default for DirBlock {
    fn default() -> Self {
        DirBlock {
            state: DirState::Idle,
            version: 0,
            token: 0,
            mask: Vec::new(),
            pending: VecDeque::new(),
            stale_acks: SharerSet::new(),
            last_use: 0,
        }
    }
}

/// Read-only snapshot of one block's sharing state (the checker/explorer
/// inspection surface; see [`Directory::view_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirStateView {
    /// Only the home copy exists.
    Idle,
    /// Read-only copies tracked by the sharer representation.
    Shared {
        /// The stored sharer bits (node bits for `full`/`ptr`, cluster bits
        /// for `coarse`).
        sharers: SharerSet,
        /// `ptr:I` only: the pointer array overflowed into broadcast mode.
        broadcast: bool,
    },
    /// A writable copy at one node.
    Exclusive(NodeId),
    /// Collecting invalidation acks / writeback for an in-flight request.
    Busy {
        /// The node whose request is in flight.
        requester: NodeId,
        /// Grant exclusive (GetX/Upgrade) vs read-only (GetS).
        want_exclusive: bool,
        /// Reply with `UpgradeAck` instead of `DataX`.
        upgrade_reply: bool,
        /// Nodes whose acknowledgement or writeback is still awaited.
        waiting: SharerSet,
        /// Verdict to piggyback on the eventual grant.
        verify: Option<VerifyOutcome>,
    },
    /// Sparse only: collecting invalidation acks for an evicted entry.
    Evicting {
        /// Nodes whose acknowledgement or writeback is still awaited.
        waiting: SharerSet,
    },
}

/// Read-only snapshot of one §4 verification-mask entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskEntryView {
    /// The self-invalidating node awaiting a verdict.
    pub node: NodeId,
    /// The copy relinquished was exclusive (writeback) vs read-only.
    pub relinquished_exclusive: bool,
    /// Whether the self-invalidation reached the directory in a stable state.
    pub timely: bool,
}

/// Read-only snapshot of one per-block directory record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirBlockView {
    /// The sharing state.
    pub state: DirStateView,
    /// DSI write-version (incremented on every exclusive grant).
    pub version: u32,
    /// Home copy of the data token.
    pub token: u64,
    /// §4 verification mask, in insertion order.
    pub mask: Vec<MaskEntryView>,
    /// Requests shelved while Busy, in arrival order.
    pub pending: Vec<Message>,
    /// Nodes owing an orphaned `InvAck` (their self-invalidation crossed an
    /// invalidation in flight).
    pub stale_acks: SharerSet,
}

fn view_block(rec: &DirBlock) -> DirBlockView {
    DirBlockView {
        state: match &rec.state {
            DirState::Idle => DirStateView::Idle,
            DirState::Shared(s) => DirStateView::Shared {
                sharers: s.set.clone(),
                broadcast: s.broadcast,
            },
            DirState::Exclusive(owner) => DirStateView::Exclusive(*owner),
            DirState::Busy(b) => DirStateView::Busy {
                requester: b.requester,
                want_exclusive: b.want_exclusive,
                upgrade_reply: b.upgrade_reply,
                waiting: b.waiting.clone(),
                verify: b.verify,
            },
            DirState::Evicting { waiting } => DirStateView::Evicting {
                waiting: waiting.clone(),
            },
        },
        version: rec.version,
        token: rec.token,
        mask: rec
            .mask
            .iter()
            .map(|m| MaskEntryView {
                node: m.node,
                relinquished_exclusive: m.relinquished_exclusive,
                timely: m.timely,
            })
            .collect(),
        pending: rec.pending.iter().copied().collect(),
        stale_acks: rec.stale_acks.clone(),
    }
}

// ---- representation helpers (free functions so callers can hold a mutable
// borrow of one block while reading the Copy kind/geometry) ----------------

/// The bit a node occupies in the stored set.
fn rep_bit(kind: DirectoryKind, node: NodeId) -> NodeId {
    match kind {
        DirectoryKind::Full | DirectoryKind::LimitedPtr { .. } | DirectoryKind::Sparse { .. } => {
            node
        }
        DirectoryKind::Coarse { cluster } => {
            NodeId::new((node.index() / cluster.max(1) as usize) as u16)
        }
    }
}

/// Whether the representation currently knows the exact sharer set.
fn rep_exact_now(kind: DirectoryKind, s: &Sharers) -> bool {
    match kind {
        DirectoryKind::Full | DirectoryKind::Sparse { .. } => true,
        DirectoryKind::Coarse { cluster } => cluster <= 1,
        DirectoryKind::LimitedPtr { .. } => !s.broadcast,
    }
}

/// Records `node` as a sharer; returns whether this insert overflowed a
/// limited-pointer array into broadcast mode.
fn rep_insert(kind: DirectoryKind, s: &mut Sharers, node: NodeId) -> bool {
    match kind {
        DirectoryKind::Full | DirectoryKind::Coarse { .. } | DirectoryKind::Sparse { .. } => {
            s.set.insert(rep_bit(kind, node));
            false
        }
        DirectoryKind::LimitedPtr { pointers } => {
            if s.broadcast {
                return false;
            }
            s.set.insert(node);
            if s.set.len() > pointers as usize {
                s.set.clear();
                s.broadcast = true;
                true
            } else {
                false
            }
        }
    }
}

/// Whether the representation admits `node` as a (possible) sharer.
fn rep_contains(kind: DirectoryKind, s: &Sharers, node: NodeId) -> bool {
    s.broadcast || s.set.contains(rep_bit(kind, node))
}

/// Forgets a departing sharer where the representation is exact; imprecise
/// representations (wide clusters, overflowed pointers) must keep the bit —
/// other nodes it covers may still hold copies.
fn rep_remove(kind: DirectoryKind, s: &mut Sharers, node: NodeId) {
    if rep_exact_now(kind, s) {
        s.set.remove(node);
    }
}

/// Whether the representation provably tracks no sharer at all.
fn rep_is_empty(s: &Sharers) -> bool {
    !s.broadcast && s.set.is_empty()
}

/// The sharer representation for a single fresh sharer.
fn rep_of(kind: DirectoryKind, node: NodeId) -> Sharers {
    let mut s = Sharers::default();
    rep_insert(kind, &mut s, node);
    s
}

/// The exact nodes an invalidation round must target: the representation
/// expanded to node granularity, minus the requester.
fn inv_targets(kind: DirectoryKind, total_nodes: u16, s: &Sharers, exclude: NodeId) -> SharerSet {
    let mut targets = SharerSet::new();
    match kind {
        DirectoryKind::Full | DirectoryKind::Sparse { .. } => targets = s.set.clone(),
        DirectoryKind::Coarse { cluster } => {
            let k = cluster.max(1);
            let span = crate::mutation::coarse_span(k);
            for c in &s.set {
                let base = c.index() as u16 * k;
                for node in base..(base + span).min(total_nodes) {
                    targets.insert(NodeId::new(node));
                }
            }
        }
        DirectoryKind::LimitedPtr { .. } => {
            if s.broadcast {
                for node in 0..total_nodes {
                    targets.insert(NodeId::new(node));
                }
            } else {
                targets = s.set.clone();
            }
        }
    }
    targets.remove(exclude);
    targets
}

/// A home node's directory.
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, NodeId};
/// use ltp_dsm::{Directory, Message, MsgKind};
///
/// let home = NodeId::new(0);
/// let mut dir = Directory::new(home);
/// let b = BlockId::new(0);
/// // A cold read is served directly from home.
/// let step = dir.process(Message::new(NodeId::new(1), home, b, MsgKind::GetS));
/// assert_eq!(step.sends.len(), 1);
/// assert!(matches!(step.sends[0].kind, MsgKind::DataS { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    home: NodeId,
    kind: DirectoryKind,
    /// Machine size, needed to expand imprecise representations into
    /// invalidation targets.
    nodes: u16,
    blocks: FxHashMap<BlockId, DirBlock>,
    /// Monotonic service tick stamped into each touched block's `last_use`
    /// (the sparse LRU clock; inert outside `sparse:E`).
    tick: u64,
}

impl Directory {
    /// Creates a full-map directory for home node `home` (any machine
    /// width — the full map never expands imprecise representations, so the
    /// node count is immaterial).
    pub fn new(home: NodeId) -> Self {
        Directory::with_kind(home, DirectoryKind::Full, u16::MAX)
    }

    /// Creates a directory with an explicit sharer organization for a
    /// `nodes`-node machine.
    ///
    /// # Panics
    ///
    /// Panics if the kind fails [`DirectoryKind::validate_for`] against
    /// `nodes`.
    pub fn with_kind(home: NodeId, kind: DirectoryKind, nodes: u16) -> Self {
        kind.validate_for(nodes)
            .expect("valid directory organization");
        Directory {
            home,
            kind,
            nodes,
            blocks: FxHashMap::default(),
            tick: 0,
        }
    }

    /// The home node this directory serves.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The sharer organization this directory runs.
    pub fn kind(&self) -> DirectoryKind {
        self.kind
    }

    /// The DSI write-version of `block` (0 if never written).
    pub fn version_of(&self, block: BlockId) -> u32 {
        self.blocks.get(&block).map_or(0, |b| b.version)
    }

    /// Whether `block` is in a stable Idle state (for tests/examples).
    pub fn is_idle(&self, block: BlockId) -> bool {
        self.blocks
            .get(&block)
            .is_none_or(|b| b.state == DirState::Idle)
    }

    /// Read-only snapshot of one tracked block, if the directory has a
    /// record for it (the checker/explorer inspection surface).
    pub fn view_of(&self, block: BlockId) -> Option<DirBlockView> {
        self.blocks.get(&block).map(view_block)
    }

    /// Iterates read-only snapshots of every tracked block, in arbitrary
    /// order. Two directories that agree on every view are
    /// protocol-equivalent.
    pub fn blocks_view(&self) -> impl Iterator<Item = (BlockId, DirBlockView)> + '_ {
        self.blocks.iter().map(|(&b, rec)| (b, view_block(rec)))
    }

    /// Processes one incoming message; see module docs.
    ///
    /// # Panics
    ///
    /// Panics if `msg.dst` is not this directory's home or if a cache reply
    /// kind (`DataS` etc.) is delivered to the directory.
    pub fn process(&mut self, msg: Message) -> DirStep {
        assert_eq!(msg.dst, self.home, "message routed to the wrong home");
        self.tick += 1;
        let tick = self.tick;
        self.blocks.entry(msg.block).or_default().last_use = tick;
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => self.process_request(msg),
            MsgKind::SelfInvClean => self.process_self_inv(msg, None),
            MsgKind::SelfInvDirty { token } => self.process_self_inv(msg, Some(token)),
            MsgKind::InvAck {
                had_copy,
                dirty_token,
            } => self.process_inv_ack(msg, had_copy, dirty_token),
            other => panic!("directory received non-protocol message {other:?}"),
        }
    }

    /// Resolves the verification mask against an arriving request. Returns
    /// the verdict to piggyback for the requester (if it was itself in the
    /// mask) plus zero-latency `VerifyCorrect` notifications for others.
    fn resolve_mask(
        &mut self,
        block: BlockId,
        requester: NodeId,
        write_request: bool,
    ) -> (Option<VerifyOutcome>, Vec<Message>) {
        let home = self.home;
        let entry = self.blocks.entry(block).or_default();
        let mut verify_for_requester = None;
        let mut notifications = Vec::new();
        entry.mask.retain(|m| {
            if m.node == requester {
                // The self-invalidator itself came back first: premature.
                verify_for_requester = Some(VerifyOutcome::Premature);
                false
            } else if m.relinquished_exclusive || write_request {
                // A conflicting access by another node: the relinquished copy
                // would have been invalidated anyway — correct.
                notifications.push(Message::new(
                    home,
                    m.node,
                    block,
                    MsgKind::VerifyCorrect { timely: m.timely },
                ));
                false
            } else {
                // Read-relinquisher observed by another reader: undecided.
                true
            }
        });
        (verify_for_requester, notifications)
    }

    /// Sparse replacement: if servicing a request for the untracked `block`
    /// would exceed the entry budget, evict the least-recently-used stable
    /// entry first — invalidating its holders (the block enters Evicting
    /// until they have all answered). Appends the eviction's sends/events
    /// to `step` and returns whether an eviction happened.
    ///
    /// If every tracked entry is transient (Busy/Evicting), the allocation
    /// proceeds anyway: in-flight transactions may transiently push
    /// occupancy past the budget, exactly as a hardware sparse directory
    /// holds overflow in its transaction buffers.
    fn evict_for(&mut self, block: BlockId, step: &mut DirStep) -> bool {
        let DirectoryKind::Sparse { entries } = self.kind else {
            return false;
        };
        let tracked = |state: &DirState| !matches!(state, DirState::Idle);
        if !matches!(
            self.blocks.get(&block).map(|r| &r.state),
            None | Some(DirState::Idle)
        ) {
            return false; // already tracked: no new entry needed
        }
        let occupied = self.blocks.values().filter(|r| tracked(&r.state)).count();
        if occupied < entries as usize {
            return false;
        }
        // Deterministic LRU over the stable entries (min service tick,
        // block id as the tie-break, independent of map iteration order).
        let victim = self
            .blocks
            .iter()
            .filter(|(&b, r)| {
                b != block && matches!(r.state, DirState::Shared(_) | DirState::Exclusive(_))
            })
            .min_by_key(|(&b, r)| (r.last_use, b))
            .map(|(&b, _)| b);
        let Some(victim) = victim else {
            return false;
        };
        let home = self.home;
        let rec = self.blocks.get_mut(&victim).expect("victim exists");
        // Sparse entries are exact full maps, so the holders to invalidate
        // are exactly the stored set (no exclusion: the evicted block is
        // not the requested one).
        let targets = match &rec.state {
            DirState::Shared(sharers) => sharers.set.clone(),
            DirState::Exclusive(owner) => SharerSet::from_node(*owner),
            _ => unreachable!("victims are stable"),
        };
        if crate::mutation::fire_skip_eviction_inv() {
            // Seeded mutant: free the entry without invalidating holders,
            // leaving stale copies live in their caches.
            rec.state = DirState::Idle;
            step.events.push(DirEvent::EntryEvicted {
                block: victim,
                invalidations: 0,
            });
            return true;
        }
        step.events.push(DirEvent::EntryEvicted {
            block: victim,
            invalidations: targets.len() as u16,
        });
        for n in &targets {
            step.sends.push(Message::new(home, n, victim, MsgKind::Inv));
        }
        rec.state = DirState::Evicting { waiting: targets };
        true
    }

    fn process_request(&mut self, msg: Message) -> DirStep {
        let block = msg.block;
        // Shelve requests for Busy/Evicting blocks (the pipelined engine
        // holds off conflicting transactions rather than NACKing).
        if matches!(
            self.blocks.entry(block).or_default().state,
            DirState::Busy(_) | DirState::Evicting { .. }
        ) {
            self.blocks
                .get_mut(&block)
                .expect("just inserted")
                .pending
                .push_back(msg);
            return DirStep::control();
        }

        let mut prelude = DirStep::control();
        self.evict_for(block, &mut prelude);

        let write_request = matches!(msg.kind, MsgKind::GetX | MsgKind::Upgrade);
        let (verify, mut notifications) = self.resolve_mask(block, msg.src, write_request);
        let home = self.home;
        let kind = self.kind;
        let total = self.nodes;
        let entry = self.blocks.get_mut(&block).expect("resolved above");

        let mut step = match (&mut entry.state, msg.kind) {
            // ---- reads ----------------------------------------------------
            (DirState::Idle, MsgKind::GetS) => {
                entry.state = DirState::Shared(rep_of(kind, msg.src));
                let mut s = DirStep::data();
                s.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataS {
                        version: entry.version,
                        token: entry.token,
                        verify,
                    },
                ));
                s
            }
            (DirState::Shared(sharers), MsgKind::GetS) => {
                let overflowed = rep_insert(kind, sharers, msg.src);
                let mut s = DirStep::data();
                if overflowed {
                    s.events.push(DirEvent::BroadcastOverflow);
                }
                s.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataS {
                        version: entry.version,
                        token: entry.token,
                        verify,
                    },
                ));
                s
            }
            (DirState::Exclusive(owner), MsgKind::GetS) => {
                // Migratory-favoring protocol (§2): a read invalidates the
                // writer's copy entirely.
                debug_assert_ne!(*owner, msg.src, "owner re-requesting its own block");
                let owner = *owner;
                entry.state = DirState::Busy(Busy {
                    requester: msg.src,
                    want_exclusive: false,
                    upgrade_reply: false,
                    waiting: SharerSet::from_node(owner),
                    verify,
                });
                let mut s = DirStep::control();
                s.events.push(DirEvent::InvalidationSent { to: owner });
                s.sends.push(Message::new(home, owner, block, MsgKind::Inv));
                s
            }

            // ---- writes ---------------------------------------------------
            (DirState::Idle, MsgKind::GetX | MsgKind::Upgrade) => {
                // Upgrade on Idle: the requester's copy was invalidated while
                // the upgrade was in flight; serve it as a full write miss.
                entry.version += 1;
                entry.state = DirState::Exclusive(msg.src);
                let mut s = DirStep::data();
                s.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataX {
                        version: entry.version,
                        token: entry.token,
                        verify,
                    },
                ));
                s
            }
            (DirState::Shared(sharers), MsgKind::Upgrade)
                if rep_exact_now(kind, sharers) && sharers.set.contains(msg.src) =>
            {
                // Only an exact representation can prove the requester still
                // holds its copy (and thus safely skip resending the data).
                if sharers.set.len() == 1 {
                    // Sole sharer upgrading: the migratory pattern.
                    entry.version += 1;
                    entry.state = DirState::Exclusive(msg.src);
                    let mut s = DirStep::control();
                    s.sends.push(Message::new(
                        home,
                        msg.src,
                        block,
                        MsgKind::UpgradeAck {
                            version: entry.version,
                            migratory: true,
                            verify,
                        },
                    ));
                    s
                } else {
                    let waiting = inv_targets(kind, total, sharers, msg.src);
                    let mut s = DirStep::control();
                    for n in &waiting {
                        s.events.push(DirEvent::InvalidationSent { to: n });
                        s.sends.push(Message::new(home, n, block, MsgKind::Inv));
                    }
                    entry.state = DirState::Busy(Busy {
                        requester: msg.src,
                        want_exclusive: true,
                        upgrade_reply: true,
                        waiting,
                        verify,
                    });
                    s
                }
            }
            (DirState::Shared(sharers), MsgKind::GetX | MsgKind::Upgrade) => {
                // GetX; or an Upgrade from a node that lost its copy; or an
                // Upgrade under an imprecise representation (wide cluster,
                // overflowed pointers), which is served conservatively as a
                // full write miss — shared copies are clean, so the DataX
                // grant carries the same token an UpgradeAck would confirm.
                let waiting = inv_targets(kind, total, sharers, msg.src);
                if waiting.is_empty() {
                    entry.version += 1;
                    entry.state = DirState::Exclusive(msg.src);
                    let mut s = DirStep::data();
                    s.sends.push(Message::new(
                        home,
                        msg.src,
                        block,
                        MsgKind::DataX {
                            version: entry.version,
                            token: entry.token,
                            verify,
                        },
                    ));
                    s
                } else {
                    let mut s = DirStep::control();
                    for n in &waiting {
                        s.events.push(DirEvent::InvalidationSent { to: n });
                        s.sends.push(Message::new(home, n, block, MsgKind::Inv));
                    }
                    entry.state = DirState::Busy(Busy {
                        requester: msg.src,
                        want_exclusive: true,
                        upgrade_reply: false,
                        waiting,
                        verify,
                    });
                    s
                }
            }
            (DirState::Exclusive(owner), MsgKind::GetX | MsgKind::Upgrade) => {
                debug_assert_ne!(*owner, msg.src, "owner re-requesting exclusively");
                let owner = *owner;
                entry.state = DirState::Busy(Busy {
                    requester: msg.src,
                    want_exclusive: true,
                    upgrade_reply: false,
                    waiting: SharerSet::from_node(owner),
                    verify,
                });
                let mut s = DirStep::control();
                s.events.push(DirEvent::InvalidationSent { to: owner });
                s.sends.push(Message::new(home, owner, block, MsgKind::Inv));
                s
            }
            (DirState::Busy(_) | DirState::Evicting { .. }, _) => {
                unreachable!("busy/evicting handled above")
            }
            (state, kind) => unreachable!("unhandled request {kind:?} in {state:?}"),
        };
        step.sends.append(&mut notifications);
        // An eviction prelude's invalidations/events precede the request's
        // own traffic within the same service.
        prelude.sends.append(&mut step.sends);
        prelude.events.append(&mut step.events);
        prelude.reinject.append(&mut step.reinject);
        prelude.data_service |= step.data_service;
        prelude
    }

    fn process_self_inv(&mut self, msg: Message, writeback: Option<u64>) -> DirStep {
        let block = msg.block;
        let home = self.home;
        let kind = self.kind;
        let entry = self.blocks.entry(block).or_default();
        match &mut entry.state {
            DirState::Shared(sharers)
                if writeback.is_none() && rep_contains(kind, sharers, msg.src) =>
            {
                rep_remove(kind, sharers, msg.src);
                if rep_is_empty(sharers) {
                    entry.state = DirState::Idle;
                }
                entry.mask.push(MaskEntry {
                    node: msg.src,
                    relinquished_exclusive: false,
                    timely: true,
                });
                DirStep::control()
            }
            DirState::Exclusive(owner) if *owner == msg.src => {
                let token = writeback.expect("exclusive owner must write back");
                debug_assert!(token >= entry.token, "token regressed on writeback");
                entry.token = token;
                entry.state = DirState::Idle;
                entry.mask.push(MaskEntry {
                    node: msg.src,
                    relinquished_exclusive: true,
                    timely: true,
                });
                DirStep::data()
            }
            DirState::Busy(busy) if busy.waiting.contains(msg.src) => {
                // The self-invalidation crossed the Inv we sent: it serves as
                // the awaited acknowledgement, but it is *late* — the
                // conflicting request was already being serviced.
                busy.waiting.remove(msg.src);
                let requester = busy.requester;
                let relinq_ex = writeback.is_some();
                // The Inv we sent will still be acknowledged (without a
                // copy); remember to discard that orphaned ack.
                entry.stale_acks.insert(msg.src);
                if let Some(token) = writeback {
                    debug_assert!(token >= entry.token, "token regressed on writeback");
                    entry.token = token;
                }
                let mut step = if relinq_ex {
                    DirStep::data()
                } else {
                    DirStep::control()
                };
                // Verified immediately: the in-service request is the
                // conflicting access. (It cannot be the self-invalidator
                // itself — a node with a cached copy does not request.)
                debug_assert_ne!(requester, msg.src);
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::VerifyCorrect { timely: false },
                ));
                self.finish_busy_if_ready(block, &mut step);
                step
            }
            DirState::Evicting { waiting } if waiting.contains(msg.src) => {
                // The self-invalidation crossed an eviction's Inv: same late
                // -ack treatment as the Busy case, but the entry just falls
                // back to Idle once the last holder has answered.
                waiting.remove(msg.src);
                let relinq_ex = writeback.is_some();
                entry.stale_acks.insert(msg.src);
                if let Some(token) = writeback {
                    debug_assert!(token >= entry.token, "token regressed on writeback");
                    entry.token = token;
                }
                let mut step = if relinq_ex {
                    DirStep::data()
                } else {
                    DirStep::control()
                };
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::VerifyCorrect { timely: false },
                ));
                self.finish_evicting_if_ready(block, &mut step);
                step
            }
            _ => {
                // Stale: the copy was already invalidated by a crossing Inv.
                let mut step = DirStep::control();
                step.events.push(DirEvent::StaleIgnored { from: msg.src });
                step
            }
        }
    }

    fn process_inv_ack(
        &mut self,
        msg: Message,
        had_copy: bool,
        dirty_token: Option<u64>,
    ) -> DirStep {
        let block = msg.block;
        let entry = self.blocks.entry(block).or_default();
        if entry.stale_acks.remove(msg.src) {
            // Orphaned ack for an invalidation a crossing self-invalidation
            // already answered; the node's copy was long gone.
            debug_assert!(!had_copy, "orphaned ack cannot carry a copy");
            let mut step = DirStep::control();
            step.events.push(DirEvent::StaleIgnored { from: msg.src });
            return step;
        }
        match &mut entry.state {
            DirState::Busy(busy) if busy.waiting.contains(msg.src) => {
                busy.waiting.remove(msg.src);
                if let Some(token) = dirty_token {
                    debug_assert!(token >= entry.token, "token regressed on writeback");
                    entry.token = token;
                }
                let mut step = if dirty_token.is_some() {
                    DirStep::data()
                } else {
                    DirStep::control()
                };
                step.events.push(DirEvent::InvalidationAcked {
                    from: msg.src,
                    had_copy,
                });
                self.finish_busy_if_ready(block, &mut step);
                step
            }
            DirState::Evicting { waiting } if waiting.contains(msg.src) => {
                waiting.remove(msg.src);
                if let Some(token) = dirty_token {
                    debug_assert!(token >= entry.token, "token regressed on writeback");
                    entry.token = token;
                }
                let mut step = if dirty_token.is_some() {
                    DirStep::data()
                } else {
                    DirStep::control()
                };
                step.events.push(DirEvent::InvalidationAcked {
                    from: msg.src,
                    had_copy,
                });
                self.finish_evicting_if_ready(block, &mut step);
                step
            }
            _ => {
                // An ack for a transaction a self-invalidation already
                // completed.
                let mut step = DirStep::control();
                step.events.push(DirEvent::StaleIgnored { from: msg.src });
                step
            }
        }
    }

    /// Completes an eviction once every holder has answered: the entry
    /// falls back to Idle and shelved requests re-enter the engine.
    fn finish_evicting_if_ready(&mut self, block: BlockId, step: &mut DirStep) {
        let entry = self.blocks.get_mut(&block).expect("evicting block exists");
        let DirState::Evicting { waiting } = &entry.state else {
            return;
        };
        if !waiting.is_empty() {
            return;
        }
        entry.state = DirState::Idle;
        step.reinject.extend(entry.pending.drain(..));
    }

    /// Completes the Busy transaction once every awaited ack arrived:
    /// sends the grant and re-injects shelved requests.
    fn finish_busy_if_ready(&mut self, block: BlockId, step: &mut DirStep) {
        let home = self.home;
        let kind = self.kind;
        let entry = self.blocks.get_mut(&block).expect("busy block exists");
        let DirState::Busy(busy) = &entry.state else {
            return;
        };
        if !busy.waiting.is_empty() {
            return;
        }
        let busy = busy.clone();
        if busy.want_exclusive {
            entry.version += 1;
            entry.state = DirState::Exclusive(busy.requester);
            let reply = if busy.upgrade_reply {
                MsgKind::UpgradeAck {
                    version: entry.version,
                    migratory: false,
                    verify: busy.verify,
                }
            } else {
                MsgKind::DataX {
                    version: entry.version,
                    token: entry.token,
                    verify: busy.verify,
                }
            };
            step.sends
                .push(Message::new(home, busy.requester, block, reply));
        } else {
            entry.state = DirState::Shared(rep_of(kind, busy.requester));
            step.sends.push(Message::new(
                home,
                busy.requester,
                block,
                MsgKind::DataS {
                    version: entry.version,
                    token: entry.token,
                    verify: busy.verify,
                },
            ));
        }
        // The reply moves data (except pure upgrade acks).
        step.data_service |= !busy.upgrade_reply;
        step.reinject.extend(entry.pending.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    fn msg(src: u16, block: u64, kind: MsgKind) -> Message {
        Message::new(n(src), n(0), b(block), kind)
    }

    fn dir() -> Directory {
        Directory::new(n(0))
    }

    fn ack(had_copy: bool) -> MsgKind {
        MsgKind::InvAck {
            had_copy,
            dirty_token: None,
        }
    }

    /// How many of `step`'s events match `pred`.
    fn count(step: &DirStep, pred: impl Fn(&DirEvent) -> bool) -> usize {
        step.events.iter().filter(|e| pred(e)).count()
    }

    fn is_extra_ack(e: &DirEvent) -> bool {
        matches!(
            e,
            DirEvent::InvalidationAcked {
                had_copy: false,
                ..
            }
        )
    }

    fn is_overflow(e: &DirEvent) -> bool {
        matches!(e, DirEvent::BroadcastOverflow)
    }

    #[test]
    fn cold_read_served_from_home() {
        let mut d = dir();
        let step = d.process(msg(1, 0, MsgKind::GetS));
        assert!(step.data_service);
        assert_eq!(step.sends.len(), 1);
        assert_eq!(step.sends[0].dst, n(1));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::DataS {
                version: 0,
                token: 0,
                verify: None
            }
        ));
    }

    #[test]
    fn write_increments_version() {
        let mut d = dir();
        let step = d.process(msg(1, 0, MsgKind::GetX));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::DataX { version: 1, .. }
        ));
        assert_eq!(d.version_of(b(0)), 1);
    }

    #[test]
    fn read_to_exclusive_invalidates_owner_then_replies() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX));
        // P2 reads: owner P1 must be invalidated first.
        let step = d.process(msg(2, 0, MsgKind::GetS));
        assert_eq!(step.sends.len(), 1);
        assert_eq!(step.sends[0].dst, n(1));
        assert!(matches!(step.sends[0].kind, MsgKind::Inv));
        assert_eq!(step.events, vec![DirEvent::InvalidationSent { to: n(1) }]);
        // P1's writeback completes the transaction.
        let step = d.process(msg(
            1,
            0,
            MsgKind::InvAck {
                had_copy: true,
                dirty_token: Some(5),
            },
        ));
        assert!(step.data_service);
        let reply = step.sends.last().unwrap();
        assert_eq!(reply.dst, n(2));
        assert!(matches!(reply.kind, MsgKind::DataS { token: 5, .. }));
    }

    #[test]
    fn write_to_shared_invalidates_all_readers() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(2, 0, MsgKind::GetS));
        d.process(msg(3, 0, MsgKind::GetS));
        let step = d.process(msg(4, 0, MsgKind::GetX));
        let inv_dsts: Vec<NodeId> = step.sends.iter().map(|m| m.dst).collect();
        assert_eq!(inv_dsts, vec![n(1), n(2), n(3)]);
        // Acks trickle in; the grant goes out with the last one.
        for src in [1, 2, 3] {
            let step = d.process(msg(src, 0, ack(true)));
            if src == 3 {
                assert!(matches!(
                    step.sends.last().unwrap().kind,
                    MsgKind::DataX { version: 1, .. }
                ));
            } else {
                assert!(step.sends.is_empty());
            }
        }
    }

    #[test]
    fn sole_sharer_upgrade_is_migratory() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(1, 0, MsgKind::Upgrade));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::UpgradeAck {
                migratory: true,
                version: 1,
                ..
            }
        ));
    }

    #[test]
    fn multi_sharer_upgrade_is_not_migratory() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(2, 0, MsgKind::GetS));
        let step = d.process(msg(1, 0, MsgKind::Upgrade));
        assert!(matches!(step.sends[0].kind, MsgKind::Inv));
        assert_eq!(step.sends[0].dst, n(2));
        let step = d.process(msg(2, 0, ack(true)));
        assert!(matches!(
            step.sends.last().unwrap().kind,
            MsgKind::UpgradeAck {
                migratory: false,
                ..
            }
        ));
    }

    #[test]
    fn busy_block_shelves_requests_and_reinjects() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX));
        d.process(msg(2, 0, MsgKind::GetS)); // Busy now
        let step = d.process(msg(3, 0, MsgKind::GetS)); // shelved
        assert!(step.sends.is_empty());
        let step = d.process(msg(
            1,
            0,
            MsgKind::InvAck {
                had_copy: true,
                dirty_token: Some(1),
            },
        ));
        assert_eq!(step.reinject.len(), 1);
        assert_eq!(step.reinject[0].src, n(3));
    }

    #[test]
    fn self_inv_clean_clears_sharer_and_masks() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(1, 0, MsgKind::SelfInvClean));
        assert!(step.sends.is_empty());
        assert!(d.is_idle(b(0)));
        assert_eq!(
            d.view_of(b(0)).unwrap().mask,
            vec![MaskEntryView {
                node: n(1),
                relinquished_exclusive: false,
                timely: true,
            }]
        );
        // A subsequent writer finds Idle: 2-hop grant + verification.
        let step = d.process(msg(2, 0, MsgKind::GetX));
        assert_eq!(step.sends.len(), 2);
        assert!(matches!(step.sends[0].kind, MsgKind::DataX { .. }));
        assert!(matches!(
            step.sends[1].kind,
            MsgKind::VerifyCorrect { timely: true }
        ));
        assert_eq!(step.sends[1].dst, n(1));
    }

    #[test]
    fn self_inv_dirty_writes_back_and_idles() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX));
        let step = d.process(msg(1, 0, MsgKind::SelfInvDirty { token: 9 }));
        assert!(step.data_service);
        assert!(d.is_idle(b(0)));
        // The next reader gets the written-back data in 2 hops.
        let step = d.process(msg(2, 0, MsgKind::GetS));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::DataS { token: 9, .. }
        ));
        // …and the self-invalidator learns it was correct & timely.
        assert!(matches!(
            step.sends[1].kind,
            MsgKind::VerifyCorrect { timely: true }
        ));
    }

    #[test]
    fn premature_self_inv_detected_on_reuse() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX));
        d.process(msg(1, 0, MsgKind::SelfInvDirty { token: 2 }));
        // The same node comes back before anyone else: premature.
        let step = d.process(msg(1, 0, MsgKind::GetX));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::DataX {
                verify: Some(VerifyOutcome::Premature),
                token: 2,
                ..
            }
        ));
    }

    #[test]
    fn read_relinquisher_confirmed_only_by_writer() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(2, 0, MsgKind::GetS));
        d.process(msg(1, 0, MsgKind::SelfInvClean));
        // Another reader does not resolve the verdict…
        let step = d.process(msg(3, 0, MsgKind::GetS));
        assert_eq!(step.sends.len(), 1, "no verification yet");
        // …a writer does. P2 and P3 still hold copies and get Invs; P1's
        // self-invalidation is confirmed.
        let step = d.process(msg(4, 0, MsgKind::GetX));
        let verify: Vec<&Message> = step
            .sends
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::VerifyCorrect { .. }))
            .collect();
        assert_eq!(verify.len(), 1);
        assert_eq!(verify[0].dst, n(1));
        let invs = step
            .sends
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Inv))
            .count();
        assert_eq!(invs, 2);
    }

    #[test]
    fn self_inv_crossing_inv_counts_as_late_ack() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX));
        // P2 wants the block: Inv sent to P1.
        d.process(msg(2, 0, MsgKind::GetS));
        // P1's self-invalidation was already in flight: it arrives instead of
        // the InvAck.
        let step = d.process(msg(1, 0, MsgKind::SelfInvDirty { token: 3 }));
        // It completes the transaction…
        let reply = step
            .sends
            .iter()
            .find(|m| matches!(m.kind, MsgKind::DataS { .. }))
            .expect("grant sent");
        assert_eq!(reply.dst, n(2));
        // …but is verified correct-late.
        assert!(step
            .sends
            .iter()
            .any(|m| matches!(m.kind, MsgKind::VerifyCorrect { timely: false }) && m.dst == n(1)));
        assert!(
            d.view_of(b(0)).unwrap().mask.is_empty(),
            "a late self-invalidation is verified on arrival, never enrolled"
        );
        // P1's InvAck for the crossed Inv arrives afterwards: ignored.
        let step = d.process(msg(1, 0, ack(false)));
        assert!(step.sends.is_empty());
        assert_eq!(step.events, vec![DirEvent::StaleIgnored { from: n(1) }]);
    }

    #[test]
    fn stale_self_inv_after_invalidation_is_ignored() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(1, 0, MsgKind::SelfInvClean));
        // A second (buggy/duplicate) self-inv is ignored.
        let step = d.process(msg(1, 0, MsgKind::SelfInvClean));
        assert!(step.sends.is_empty());
        assert_eq!(step.events, vec![DirEvent::StaleIgnored { from: n(1) }]);
    }

    #[test]
    fn upgrade_race_served_as_write_miss() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(2, 0, MsgKind::GetX));
        d.process(msg(1, 0, ack(true)));
        // P1 lost its copy to P2; P1's Upgrade (sent before the Inv arrived)
        // shows up now that the block is Exclusive(P2): treat as GetX.
        let step = d.process(msg(1, 0, MsgKind::Upgrade));
        assert!(matches!(step.sends[0].kind, MsgKind::Inv));
        assert_eq!(step.sends[0].dst, n(2));
        let step = d.process(msg(
            2,
            0,
            MsgKind::InvAck {
                had_copy: true,
                dirty_token: Some(4),
            },
        ));
        let grant = step.sends.last().unwrap();
        assert_eq!(grant.dst, n(1));
        assert!(matches!(grant.kind, MsgKind::DataX { token: 4, .. }));
    }

    #[test]
    fn token_flows_through_write_chain() {
        let mut d = dir();
        d.process(msg(1, 0, MsgKind::GetX)); // P1 writes (token 1 at P1)
        d.process(msg(2, 0, MsgKind::GetX)); // P2 wants it
        let step = d.process(msg(
            1,
            0,
            MsgKind::InvAck {
                had_copy: true,
                dirty_token: Some(1),
            },
        ));
        assert!(
            matches!(
                step.sends.last().unwrap().kind,
                MsgKind::DataX { token: 1, .. }
            ),
            "P2 must observe P1's write"
        );
    }

    #[test]
    #[should_panic(expected = "wrong home")]
    fn misrouted_message_panics() {
        let mut d = dir();
        d.process(Message::new(n(1), n(5), b(0), MsgKind::GetS));
    }

    // ---- coarse-vector organization --------------------------------------

    fn coarse(cluster: u16, nodes: u16) -> Directory {
        Directory::with_kind(n(0), DirectoryKind::Coarse { cluster }, nodes)
    }

    fn ptr(pointers: u16, nodes: u16) -> Directory {
        Directory::with_kind(n(0), DirectoryKind::LimitedPtr { pointers }, nodes)
    }

    #[test]
    fn coarse_write_broadcasts_to_whole_clusters() {
        let mut d = coarse(2, 6);
        d.process(msg(1, 0, MsgKind::GetS)); // cluster {0,1}
        d.process(msg(3, 0, MsgKind::GetS)); // cluster {2,3}
        let step = d.process(msg(5, 0, MsgKind::GetX));
        let inv_dsts: Vec<NodeId> = step.sends.iter().map(|m| m.dst).collect();
        assert_eq!(inv_dsts, vec![n(0), n(1), n(2), n(3)], "whole clusters");
        assert_eq!(
            count(&step, |e| matches!(e, DirEvent::InvalidationSent { .. })),
            4
        );
        // Non-holders ack without a copy: extra invalidations.
        let mut extra = 0;
        for (src, had) in [(0, false), (1, true), (2, false), (3, true)] {
            let step = d.process(msg(src, 0, ack(had)));
            extra += count(&step, is_extra_ack);
            if src == 3 {
                assert!(matches!(
                    step.sends.last().unwrap().kind,
                    MsgKind::DataX { .. }
                ));
            }
        }
        assert_eq!(extra, 2);
    }

    #[test]
    fn coarse_self_inv_cannot_clear_a_cluster_bit() {
        let mut d = coarse(2, 4);
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(1, 0, MsgKind::SelfInvClean));
        assert!(step.sends.is_empty());
        assert!(!d.is_idle(b(0)), "cluster bit must stay set");
        // The next writer invalidates the stale cluster {0,1}; the
        // self-invalidator is verified correct along the way.
        let step = d.process(msg(2, 0, MsgKind::GetX));
        let invs: Vec<NodeId> = step
            .sends
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Inv))
            .map(|m| m.dst)
            .collect();
        assert_eq!(invs, vec![n(0), n(1)]);
        assert!(step
            .sends
            .iter()
            .any(|m| matches!(m.kind, MsgKind::VerifyCorrect { timely: true }) && m.dst == n(1)));
        let first = d.process(msg(0, 0, ack(false)));
        let step = d.process(msg(1, 0, ack(false)));
        assert!(matches!(
            step.sends.last().unwrap().kind,
            MsgKind::DataX { .. }
        ));
        assert_eq!(count(&first, is_extra_ack) + count(&step, is_extra_ack), 2);
    }

    #[test]
    fn coarse_upgrade_is_served_as_a_write_miss() {
        // Cluster width 2: the representation cannot prove P1 is the sole
        // sharer, so even a genuine sole-sharer upgrade must invalidate the
        // cluster and reply with data.
        let mut d = coarse(2, 4);
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(1, 0, MsgKind::Upgrade));
        let invs: Vec<NodeId> = step
            .sends
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Inv))
            .map(|m| m.dst)
            .collect();
        assert_eq!(invs, vec![n(0)], "cluster partner invalidated, not P1");
        let step = d.process(msg(0, 0, ack(false)));
        assert!(
            matches!(step.sends.last().unwrap().kind, MsgKind::DataX { .. }),
            "imprecise representations grant data, never UpgradeAck"
        );
    }

    #[test]
    fn coarse_cluster_1_behaves_like_full_map() {
        let mut full = dir();
        let mut c1 = coarse(1, 8);
        for d in [&mut full, &mut c1] {
            d.process(msg(1, 0, MsgKind::GetS));
            d.process(msg(2, 0, MsgKind::GetS));
            let step = d.process(msg(1, 0, MsgKind::Upgrade));
            assert_eq!(step.sends.len(), 1);
            assert_eq!(step.sends[0].dst, n(2));
            let step = d.process(msg(2, 0, ack(true)));
            assert!(matches!(
                step.sends.last().unwrap().kind,
                MsgKind::UpgradeAck {
                    migratory: false,
                    ..
                }
            ));
            assert_eq!(count(&step, is_extra_ack), 0);
        }
    }

    // ---- limited-pointer organization ------------------------------------

    #[test]
    fn ptr_exact_fit_matches_full_map() {
        let mut d = ptr(2, 8);
        let mut overflows = 0;
        for src in [1, 2] {
            overflows += count(&d.process(msg(src, 0, MsgKind::GetS)), is_overflow);
        }
        let step = d.process(msg(3, 0, MsgKind::GetX));
        let inv_dsts: Vec<NodeId> = step.sends.iter().map(|m| m.dst).collect();
        assert_eq!(inv_dsts, vec![n(1), n(2)], "exact pointers, no broadcast");
        assert_eq!(overflows + count(&step, is_overflow), 0);
        for src in [1, 2] {
            assert_eq!(count(&d.process(msg(src, 0, ack(true))), is_extra_ack), 0);
        }
    }

    #[test]
    fn ptr_overflow_broadcasts_on_write() {
        let mut d = ptr(2, 5);
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(2, 0, MsgKind::GetS));
        let step = d.process(msg(3, 0, MsgKind::GetS)); // third sharer: overflow
        assert_eq!(step.events, vec![DirEvent::BroadcastOverflow]);
        let step = d.process(msg(4, 0, MsgKind::GetX));
        let inv_dsts: Vec<NodeId> = step.sends.iter().map(|m| m.dst).collect();
        assert_eq!(
            inv_dsts,
            vec![n(0), n(1), n(2), n(3)],
            "broadcast to everyone but the requester"
        );
        let mut extra = 0;
        for (src, had) in [(0, false), (1, true), (2, true), (3, true)] {
            extra += count(&d.process(msg(src, 0, ack(had))), is_extra_ack);
        }
        assert_eq!(extra, 1, "only P0");
    }

    #[test]
    fn ptr_exact_self_inv_frees_a_pointer() {
        let mut d = ptr(1, 4);
        d.process(msg(1, 0, MsgKind::GetS));
        d.process(msg(1, 0, MsgKind::SelfInvClean));
        assert!(d.is_idle(b(0)), "the only pointer was removed");
        // A new sharer reuses the freed pointer without overflow.
        let step = d.process(msg(2, 0, MsgKind::GetS));
        assert_eq!(count(&step, is_overflow), 0);
    }

    #[test]
    fn ptr_overflowed_upgrade_is_served_as_a_write_miss() {
        let mut d = ptr(1, 3);
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(2, 0, MsgKind::GetS)); // overflow at the second sharer
        assert_eq!(step.events, vec![DirEvent::BroadcastOverflow]);
        let step = d.process(msg(1, 0, MsgKind::Upgrade));
        let invs: Vec<NodeId> = step
            .sends
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Inv))
            .map(|m| m.dst)
            .collect();
        assert_eq!(invs, vec![n(0), n(2)], "broadcast minus the requester");
        d.process(msg(0, 0, ack(false)));
        let step = d.process(msg(2, 0, ack(true)));
        assert!(matches!(
            step.sends.last().unwrap().kind,
            MsgKind::DataX { .. }
        ));
    }
}
