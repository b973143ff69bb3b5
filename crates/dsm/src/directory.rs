//! The write-invalidate directory (paper §2, §4) with selectable sharer
//! representations.
//!
//! Each home node runs a [`Directory`] holding, per block: the sharing state
//! (Idle / Shared / Exclusive, plus one transient Busy state while
//! invalidations are being collected), the sharer representation, the DSI
//! write-version number, the home copy of the data token, the §4
//! *verification mask* of self-invalidators, and a queue of requests shelved
//! while the block is Busy.
//!
//! A request decides once which copies must go and what its requester
//! gets (a [`Grant`]). If no copy must go, the grant is sent at once;
//! otherwise the home sends the `Inv`s and the block is Busy until the
//! last holder has answered — by an `InvAck`, or by a self-invalidation
//! that crossed its `Inv` (which counts as the answer and is verified
//! late). The last answer sends the grant through the same path and
//! re-injects every shelved request.
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
//!   entry, invalidating its holders first (the victim is Busy with no
//!   grant, and falls back to Idle when they have all answered). Memory
//!   state (version, token, verification mask) persists across evictions —
//!   only the *sharing* record is bounded.
//!
//! Over-invalidation is measurable from the [`DirEvent`]s each step
//! returns: [`DirEvent::InvalidationAcked`] with `had_copy: false` marks an
//! invalidation acknowledged without a copy, [`DirEvent::BroadcastOverflow`]
//! a pointer-array overflow, and [`DirEvent::EntryEvicted`] a sparse
//! replacement with the invalidations it forced.
//!
//! The directory is a pure state machine: [`Directory::process`] consumes one
//! message and returns the messages to emit, the requests to re-inject, and
//! whether the service moved data (the protocol engine's timing model). All
//! races the protocol can produce — self-invalidations crossing
//! invalidations, upgrades racing writers, stale acknowledgements — are
//! resolved here and covered by unit tests.

use std::collections::VecDeque;

use ltp_core::{BlockId, FxHashMap, NodeId, SharerSet, VerifyOutcome};

use crate::config::DirectoryKind;
use crate::msg::{Message, MsgKind};

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
    /// Busy state), in arrival order.
    pub reinject: Vec<Message>,
    /// Whether this service moved a data block (one memory access) rather
    /// than only updating state: the engine's timing class.
    pub data_service: bool,
    /// Observations made during this service, in occurrence order (see
    /// [`DirEvent`]).
    pub events: Vec<DirEvent>,
}

/// The per-block sharer representation: bit semantics depend on the
/// directory's [`DirectoryKind`] (node bits for `full`/`ptr`, cluster bits
/// for `coarse`), plus the limited-pointer broadcast flag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sharers {
    /// The stored sharer bits (node bits for `full`/`ptr`, cluster bits
    /// for `coarse`).
    pub set: SharerSet,
    /// `ptr:I` only: the pointer array overflowed; `set` is no longer
    /// tracked and writes broadcast.
    pub broadcast: bool,
}

/// Stable + transient directory states for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// Only the home copy exists.
    Idle,
    /// Read-only copies tracked by the sharer representation.
    Shared(Sharers),
    /// A writable copy at one node.
    Exclusive(NodeId),
    /// Waiting for every invalidated holder to answer; requests for the
    /// block are shelved meanwhile. The last answer sends the grant, or,
    /// for a sparse eviction, leaves the block Idle.
    Busy {
        /// Nodes whose acknowledgement or writeback is still awaited
        /// (always an exact node set: these are the invalidations actually
        /// sent).
        waiting: SharerSet,
        /// What the in-flight request gets once `waiting` is empty; `None`
        /// for a sparse eviction, which grants nothing.
        grant: Option<Grant>,
    },
}

/// What a request's requester gets: decided when the request is served,
/// sent at once if no copy must be invalidated, or when the last holder
/// has answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The node whose request is in flight.
    pub requester: NodeId,
    /// Grant exclusive (GetX/Upgrade) vs read-only (GetS).
    pub exclusive: bool,
    /// Reply with `UpgradeAck` (requester kept its data) instead of `DataX`.
    pub upgrade_reply: bool,
    /// Verification verdict to piggyback on the reply.
    pub verify: Option<VerifyOutcome>,
}

/// One §4 verification-mask entry: a node that self-invalidated and awaits a
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskEntry {
    /// The self-invalidating node.
    pub node: NodeId,
    /// The copy relinquished was exclusive (writeback) vs read-only.
    pub relinquished_exclusive: bool,
    /// Whether the self-invalidation was processed in a stable state —
    /// i.e. it reached the directory *before* the conflicting request
    /// (Table 4's timeliness).
    pub timely: bool,
}

/// Per-block directory record: the one copy of a block's sharing state,
/// read in place by the checker and the explorer (see
/// [`Directory::block`]).
#[derive(Debug, Clone)]
pub struct DirBlock {
    /// The sharing state.
    pub state: DirState,
    /// DSI write-version: incremented on every exclusive grant.
    pub version: u32,
    /// Home copy of the data token.
    pub token: u64,
    /// §4 verification mask, in insertion order.
    pub mask: Vec<MaskEntry>,
    /// Requests shelved while Busy, in arrival order.
    pub pending: VecDeque<Message>,
    /// Nodes whose `InvAck` is still in flight for an invalidation that a
    /// crossing self-invalidation already answered. Such an orphaned ack
    /// must not be mistaken for the acknowledgement of a *later*
    /// invalidation of the same node (it would complete a Busy transaction
    /// while the targeted copy is still live, breaking SWMR).
    pub stale_acks: SharerSet,
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

    /// The record of one tracked block, if the directory has one (the
    /// checker/explorer inspection surface).
    pub fn block(&self, block: BlockId) -> Option<&DirBlock> {
        self.blocks.get(&block)
    }

    /// Iterates the record of every tracked block, in arbitrary order. Two
    /// directories that agree on every record (recency aside) are
    /// protocol-equivalent.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &DirBlock)> + '_ {
        self.blocks.iter().map(|(&b, rec)| (b, rec))
    }

    /// Processes one incoming message; see module docs. A thin wrapper of
    /// [`Directory::process_into`] that returns a fresh [`DirStep`].
    ///
    /// # Panics
    ///
    /// Panics if `msg.dst` is not this directory's home or if a cache reply
    /// kind (`DataS` etc.) is delivered to the directory.
    pub fn process(&mut self, msg: Message) -> DirStep {
        let mut step = DirStep::default();
        self.process_into(msg, &mut step);
        step
    }

    /// Processes one incoming message into `step`, which is cleared first,
    /// so a caller servicing many messages reuses one set of buffers. Sends
    /// come in service order: a sparse eviction's invalidations first, then
    /// the request's own traffic, then the mask's `VerifyCorrect`
    /// notifications.
    ///
    /// # Panics
    ///
    /// As [`Directory::process`].
    pub fn process_into(&mut self, msg: Message, step: &mut DirStep) {
        assert_eq!(msg.dst, self.home, "message routed to the wrong home");
        step.sends.clear();
        step.reinject.clear();
        step.events.clear();
        step.data_service = false;
        self.tick += 1;
        let tick = self.tick;
        self.blocks.entry(msg.block).or_default().last_use = tick;
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => self.process_request(msg, step),
            MsgKind::SelfInvClean => self.process_self_inv(msg, None, step),
            MsgKind::SelfInvDirty { token } => self.process_self_inv(msg, Some(token), step),
            MsgKind::InvAck {
                had_copy,
                dirty_token,
            } => self.process_inv_ack(msg, had_copy, dirty_token, step),
            other => panic!("directory received non-protocol message {other:?}"),
        }
    }

    /// Resolves the verification mask against an arriving request. Returns
    /// the verdict to piggyback for the requester (if it was itself in the
    /// mask) and appends zero-latency `VerifyCorrect` notifications for
    /// others to `sends`, returning how many.
    fn resolve_mask(
        &mut self,
        block: BlockId,
        requester: NodeId,
        write_request: bool,
        sends: &mut Vec<Message>,
    ) -> (Option<VerifyOutcome>, usize) {
        let home = self.home;
        let entry = self.blocks.entry(block).or_default();
        let mut verify_for_requester = None;
        let before = sends.len();
        entry.mask.retain(|m| {
            if m.node == requester {
                // The self-invalidator itself came back first: premature.
                verify_for_requester = Some(VerifyOutcome::Premature);
                false
            } else if m.relinquished_exclusive || write_request {
                // A conflicting access by another node: the relinquished copy
                // would have been invalidated anyway — correct.
                sends.push(Message::new(
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
        (verify_for_requester, sends.len() - before)
    }

    /// Sparse replacement: if servicing a request for the untracked `block`
    /// would exceed the entry budget, evict the least-recently-used stable
    /// entry first — invalidating its holders (the victim is Busy with no
    /// grant until they have all answered). Appends the eviction's
    /// sends/events to `step`.
    ///
    /// If every tracked entry is Busy, the allocation proceeds anyway:
    /// in-flight transactions may transiently push occupancy past the
    /// budget, exactly as a hardware sparse directory holds overflow in its
    /// transaction buffers.
    fn evict_for(&mut self, block: BlockId, step: &mut DirStep) {
        let DirectoryKind::Sparse { entries } = self.kind else {
            return;
        };
        let tracked = |state: &DirState| !matches!(state, DirState::Idle);
        if !matches!(
            self.blocks.get(&block).map(|r| &r.state),
            None | Some(DirState::Idle)
        ) {
            return; // already tracked: no new entry needed
        }
        let occupied = self.blocks.values().filter(|r| tracked(&r.state)).count();
        if occupied < entries as usize {
            return;
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
            return;
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
            return;
        }
        step.events.push(DirEvent::EntryEvicted {
            block: victim,
            invalidations: targets.len() as u16,
        });
        for n in &targets {
            step.sends.push(Message::new(home, n, victim, MsgKind::Inv));
        }
        rec.state = DirState::Busy {
            waiting: targets,
            grant: None,
        };
    }

    /// Serves a request: decides which copies must go and what the
    /// requester gets, then grants at once or invalidates and waits.
    /// Requests for a Busy block are shelved until it settles.
    fn process_request(&mut self, msg: Message, step: &mut DirStep) {
        let block = msg.block;
        // The pipelined engine holds off conflicting transactions rather
        // than NACKing them.
        let entry = self.blocks.entry(block).or_default();
        if matches!(entry.state, DirState::Busy { .. }) {
            entry.pending.push_back(msg);
            return;
        }

        // An eviction prelude's invalidations and events precede the
        // request's own traffic within the same service.
        self.evict_for(block, step);

        let exclusive = matches!(msg.kind, MsgKind::GetX | MsgKind::Upgrade);
        let notified = step.sends.len();
        let (verify, notifications) = self.resolve_mask(block, msg.src, exclusive, &mut step.sends);
        let home = self.home;
        let kind = self.kind;
        let entry = self.blocks.get_mut(&block).expect("resolved above");

        // Which copies must go, and whether the requester keeps its own.
        let (waiting, upgrade_reply) = match &entry.state {
            // Only the home copy: nothing to invalidate. (An Upgrade here
            // lost its copy while in flight; it is served as a write miss.)
            DirState::Idle => (SharerSet::new(), false),
            // A read joins the other readers.
            DirState::Shared(_) if !exclusive => (SharerSet::new(), false),
            DirState::Shared(sharers) => {
                // Only an exact representation can prove the requester
                // still holds its copy (and thus safely skip resending the
                // data). A GetX, an Upgrade from a node that lost its copy,
                // or an Upgrade under an imprecise representation is served
                // as a full write miss — shared copies are clean, so the
                // DataX carries the same token an UpgradeAck would confirm.
                let upgrade = matches!(msg.kind, MsgKind::Upgrade)
                    && rep_exact_now(kind, sharers)
                    && sharers.set.contains(msg.src);
                let waiting = if upgrade && sharers.set.len() == 1 {
                    // Sole sharer upgrading: the migratory pattern.
                    SharerSet::new()
                } else {
                    inv_targets(kind, self.nodes, sharers, msg.src)
                };
                (waiting, upgrade)
            }
            DirState::Exclusive(owner) => {
                // Migratory-favoring protocol (§2): a read invalidates the
                // writer's copy entirely.
                debug_assert_ne!(*owner, msg.src, "owner re-requesting its own block");
                (SharerSet::from_node(*owner), false)
            }
            DirState::Busy { .. } => unreachable!("shelved above"),
        };
        let g = Grant {
            requester: msg.src,
            exclusive,
            upgrade_reply,
            verify,
        };
        if waiting.is_empty() {
            grant(kind, home, block, entry, g, true, step);
        } else {
            for n in &waiting {
                step.events.push(DirEvent::InvalidationSent { to: n });
                step.sends.push(Message::new(home, n, block, MsgKind::Inv));
            }
            entry.state = DirState::Busy {
                waiting,
                grant: Some(g),
            };
        }
        // The mask notifications go last.
        step.sends[notified..].rotate_left(notifications);
    }

    fn process_self_inv(&mut self, msg: Message, writeback: Option<u64>, step: &mut DirStep) {
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
                step.data_service = true;
            }
            DirState::Busy { waiting, grant } if waiting.contains(msg.src) => {
                // The self-invalidation crossed the Inv we sent: it serves as
                // the awaited acknowledgement, but it is *late* — the
                // conflicting request (or eviction) was already in service.
                // So it is verified at once. (The requester cannot be the
                // self-invalidator — a node with a cached copy does not
                // request.)
                debug_assert!(grant.is_none_or(|g| g.requester != msg.src));
                // The Inv we sent will still be acknowledged (without a
                // copy); remember to discard that orphaned ack.
                entry.stale_acks.insert(msg.src);
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::VerifyCorrect { timely: false },
                ));
                self.finish_if_ready(block, msg.src, writeback, step);
            }
            _ => {
                // Stale: the copy was already invalidated by a crossing Inv.
                step.events.push(DirEvent::StaleIgnored { from: msg.src });
            }
        }
    }

    fn process_inv_ack(
        &mut self,
        msg: Message,
        had_copy: bool,
        dirty_token: Option<u64>,
        step: &mut DirStep,
    ) {
        let block = msg.block;
        let entry = self.blocks.entry(block).or_default();
        if entry.stale_acks.remove(msg.src) {
            // Orphaned ack for an invalidation a crossing self-invalidation
            // already answered; the node's copy was long gone.
            debug_assert!(!had_copy, "orphaned ack cannot carry a copy");
            step.events.push(DirEvent::StaleIgnored { from: msg.src });
            return;
        }
        match &mut entry.state {
            DirState::Busy { waiting, .. } if waiting.contains(msg.src) => {
                step.events.push(DirEvent::InvalidationAcked {
                    from: msg.src,
                    had_copy,
                });
                self.finish_if_ready(block, msg.src, dirty_token, step);
            }
            _ => {
                // An ack for a transaction a self-invalidation already
                // completed.
                step.events.push(DirEvent::StaleIgnored { from: msg.src });
            }
        }
    }

    /// Takes one awaited answer to a Busy block's invalidation — an
    /// `InvAck`, or a self-invalidation that crossed the `Inv`, with the
    /// holder's dirty data if it had any. Once every holder has answered,
    /// ends the wait: sends the grant (a sparse eviction has none and just
    /// leaves the block Idle) and re-injects every shelved request — the
    /// only place they re-enter.
    fn finish_if_ready(
        &mut self,
        block: BlockId,
        from: NodeId,
        writeback: Option<u64>,
        step: &mut DirStep,
    ) {
        let entry = self.blocks.get_mut(&block).expect("busy block exists");
        let DirState::Busy { waiting, grant: g } = &mut entry.state else {
            unreachable!("only a Busy block awaits answers");
        };
        waiting.remove(from);
        let (done, g) = (waiting.is_empty(), *g);
        if let Some(token) = writeback {
            debug_assert!(token >= entry.token, "token regressed on writeback");
            entry.token = token;
        }
        step.data_service = writeback.is_some();
        if !done {
            return;
        }
        entry.state = DirState::Idle;
        if let Some(g) = g {
            grant(self.kind, self.home, block, entry, g, false, step);
        }
        step.reinject.extend(entry.pending.drain(..));
    }
}

/// Sends `g`'s reply and moves the block to the granted state: the only
/// code that builds a `DataS`, `DataX` or `UpgradeAck`. A read joins the
/// block's sharers (an Idle block gets the requester alone); an exclusive
/// grant bumps the write-version. `at_once` marks a grant that needed no
/// invalidation, so an upgrade granted at once came from the sole sharer:
/// the migratory pattern.
fn grant(
    kind: DirectoryKind,
    home: NodeId,
    block: BlockId,
    entry: &mut DirBlock,
    g: Grant,
    at_once: bool,
    step: &mut DirStep,
) {
    let reply = if g.exclusive {
        entry.version += 1;
        entry.state = DirState::Exclusive(g.requester);
        if g.upgrade_reply {
            MsgKind::UpgradeAck {
                version: entry.version,
                migratory: at_once,
                verify: g.verify,
            }
        } else {
            MsgKind::DataX {
                version: entry.version,
                token: entry.token,
                verify: g.verify,
            }
        }
    } else {
        match &mut entry.state {
            DirState::Shared(sharers) => {
                if rep_insert(kind, sharers, g.requester) {
                    step.events.push(DirEvent::BroadcastOverflow);
                }
            }
            state => *state = DirState::Shared(rep_of(kind, g.requester)),
        }
        MsgKind::DataS {
            version: entry.version,
            token: entry.token,
            verify: g.verify,
        }
    };
    // The reply moves data, except a pure upgrade ack.
    step.data_service |= !g.upgrade_reply;
    step.sends
        .push(Message::new(home, g.requester, block, reply));
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
            d.block(b(0)).unwrap().mask,
            vec![MaskEntry {
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
            d.block(b(0)).unwrap().mask.is_empty(),
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

    // ---- sparse organization ---------------------------------------------

    /// A one-entry sparse home where P1 reads B0, then P2's read of B2
    /// evicts B0: the eviction's `Inv` to P1 is in flight.
    fn sparse_mid_eviction() -> Directory {
        let mut d = Directory::with_kind(n(0), DirectoryKind::Sparse { entries: 1 }, 4);
        d.process(msg(1, 0, MsgKind::GetS));
        let step = d.process(msg(2, 2, MsgKind::GetS));
        assert_eq!(
            step.events,
            vec![DirEvent::EntryEvicted {
                block: b(0),
                invalidations: 1,
            }]
        );
        let sends: Vec<(NodeId, BlockId, bool)> = step
            .sends
            .iter()
            .map(|m| (m.dst, m.block, matches!(m.kind, MsgKind::Inv)))
            .collect();
        assert_eq!(sends, vec![(n(1), b(0), true), (n(2), b(2), false)]);
        assert!(matches!(step.sends[1].kind, MsgKind::DataS { .. }));
        assert!(!d.is_idle(b(0)), "the victim waits for its holder");
        d
    }

    #[test]
    fn sparse_eviction_shelves_requests_until_the_last_ack() {
        let mut d = sparse_mid_eviction();
        let step = d.process(msg(3, 0, MsgKind::GetS));
        assert!(step.sends.is_empty(), "shelved behind the eviction");
        assert!(step.reinject.is_empty());
        assert_eq!(d.block(b(0)).unwrap().pending.len(), 1);
        let step = d.process(msg(1, 0, ack(true)));
        assert!(step.sends.is_empty(), "an eviction grants nothing");
        assert_eq!(
            step.events,
            vec![DirEvent::InvalidationAcked {
                from: n(1),
                had_copy: true,
            }]
        );
        assert!(d.is_idle(b(0)));
        assert_eq!(step.reinject.len(), 1);
        assert_eq!(step.reinject[0].src, n(3));
        assert!(matches!(step.reinject[0].kind, MsgKind::GetS));
        assert!(d.block(b(0)).unwrap().pending.is_empty());
    }

    #[test]
    fn self_inv_crossing_an_eviction_inv_is_verified_late() {
        let mut d = sparse_mid_eviction();
        let step = d.process(msg(1, 0, MsgKind::SelfInvClean));
        assert_eq!(step.sends.len(), 1);
        assert_eq!(step.sends[0].dst, n(1));
        assert!(matches!(
            step.sends[0].kind,
            MsgKind::VerifyCorrect { timely: false }
        ));
        assert!(step.reinject.is_empty());
        assert!(
            d.is_idle(b(0)),
            "the crossing self-invalidation ends the wait"
        );
        assert!(d.block(b(0)).unwrap().mask.is_empty());
        // P1's InvAck for the crossed Inv arrives afterwards: ignored.
        let step = d.process(msg(1, 0, ack(false)));
        assert!(step.sends.is_empty());
        assert_eq!(step.events, vec![DirEvent::StaleIgnored { from: n(1) }]);
        assert!(d.is_idle(b(0)));
    }
}
