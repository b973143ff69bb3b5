//! Protocol-correctness analysis: one invariant catalog, two engines.
//!
//! The paper's safety argument — speculative self-invalidation never breaks
//! coherence because the directory's §4 verification mask catches every
//! misprediction — is checked here directly rather than inferred from
//! golden outputs:
//!
//! * the **online sanitizer** ([`CoherenceChecker`], probe spec
//!   `check[:strict]`) replays the live [`SimEvent`] stream against an
//!   independent shadow directory and a node-side ground-state model,
//!   flagging any divergence;
//! * the **exhaustive explorer** ([`mod@explore`]) enumerates every reachable
//!   state of a small configuration over all message interleavings — a
//!   zero-dependency mini-Murphi for the MSI+LTP protocol — and asserts
//!   the same catalog in each state, printing a minimal counterexample
//!   trace on violation.
//!
//! The ground-state rows live in one place. A [`MachineView`] borrows
//! every directory record in place and copies every cached line;
//! `ground_violations` checks the rows that hold in **every** reachable
//! state, messages in flight included, and [`quiescence_violations`] (the
//! end-of-run audit) adds the rows that hold only once nothing is queued
//! or outstanding. The explorer runs the first after every transition and
//! the second at every terminal state; `Machine::view` feeds the second at
//! the end of a run. The sanitizer's rows are event rows: they check each
//! `SimEvent` as it happens.
//!
//! # The invariant catalog
//!
//! | invariant | meaning |
//! |---|---|
//! | `swmr` | at most one writable copy; writers exclude all readers |
//! | `agreement` | cache states and tokens agree with the directory (imprecise sharer organizations checked as over-approximations) |
//! | `freshness` | no node touches a block after relinquishing it without re-fetching |
//! | `conservation` | every message sent is delivered and serviced exactly once; every `Inv` has an `InvAck`; nothing is in flight at quiescence |
//! | `mask` | every verdict the directory issues matches the checker's recomputation from ground state, and every fired prediction gets one |
//! | `shadow` | the real directory's sends, observations, and service classes match the shadow state machine (sharer decode included) |
//! | `determinism` | per-edge FIFO delivery, nondecreasing per-edge delivery cycles, same-cycle arrivals at one node pop in source order |

use std::collections::{BTreeMap, VecDeque};

use ltp_core::{BlockId, FxHashMap, JsonObject, JsonValue, NodeId, VerifyOutcome};
use ltp_dsm::{
    DirBlock, DirState, Directory, DirectoryKind, Grant, Line, Message, MsgKind, NodeCache,
};
use ltp_sim::Cycle;

use crate::probe::{MetricsSection, Probe, ProbeCtx, SimEvent};

pub mod explore;
mod shadow;

pub use explore::{explore, ExploreConfig, ExploreOutcome};
use shadow::{rep_admits, ShadowDir, ShadowDirEvent, ShadowStep};

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The catalog row that failed (see the module docs).
    pub invariant: &'static str,
    /// Simulation time of the triggering event (`Cycle::ZERO` for
    /// end-of-run ground-state checks).
    pub at: Cycle,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] @{}: {}", self.invariant, self.at, self.detail)
    }
}

/// A deterministic view of the machine-wide ground state (every
/// directory record and cached line), produced by
/// [`crate::Machine::view`] and by the explorer for each state it reaches.
/// It borrows the directories' own records and clones none of them.
#[derive(Debug, Clone, Default)]
pub struct MachineView<'a> {
    /// Machine size.
    pub nodes: u16,
    /// The directory sharer organization.
    pub directory: DirectoryKind,
    /// Every tracked directory record, sorted by `(home, block)`.
    pub dir_blocks: Vec<(NodeId, BlockId, &'a DirBlock)>,
    /// Every cached line, sorted by `(node, block)`.
    pub cache_lines: Vec<(NodeId, BlockId, Line)>,
    /// Messages sitting in protocol-engine queues.
    pub engine_backlog: usize,
    /// Outstanding cache misses across all nodes.
    pub cache_pending: usize,
}

impl<'a> MachineView<'a> {
    /// Appends the records of `dirs` and the lines and outstanding misses
    /// of `caches`, keeping both lists sorted.
    pub(crate) fn add(
        &mut self,
        dirs: impl IntoIterator<Item = &'a Directory>,
        caches: impl IntoIterator<Item = &'a NodeCache>,
    ) {
        for dir in dirs {
            let home = dir.home();
            self.dir_blocks
                .extend(dir.blocks().map(|(b, rec)| (home, b, rec)));
        }
        for cache in caches {
            let p = cache.node();
            self.cache_lines
                .extend(cache.lines().map(|(b, line)| (p, b, line)));
            self.cache_pending += cache.pending_misses();
        }
        self.dir_blocks.sort_by_key(|&(home, b, _)| (home, b));
        self.cache_lines.sort_by_key(|&(p, b, _)| (p, b));
    }
}

/// Checks the ground rows of the catalog: the ones that hold in **every**
/// reachable state, messages in flight included. Calls `fail` once per
/// violated row instance, in a deterministic order.
pub(crate) fn ground_violations(
    view: &MachineView<'_>,
    fail: &mut impl FnMut(&'static str, String),
) {
    let dirs: FxHashMap<BlockId, &DirBlock> = view
        .dir_blocks
        .iter()
        .map(|&(_, b, rec)| (b, rec))
        .collect();
    // Per block: (copies, writable copies, first writer).
    let mut copies: BTreeMap<BlockId, (usize, usize, NodeId)> = BTreeMap::new();
    for &(p, b, line) in &view.cache_lines {
        let c = copies.entry(b).or_insert((0, 0, p));
        c.0 += 1;
        if line.exclusive {
            if c.1 == 0 {
                c.2 = p;
            }
            c.1 += 1;
        }
    }

    for (b, &(total, writers, writer)) in &copies {
        if writers > 1 {
            fail(
                "swmr",
                format!("{b} held writable by {writers} nodes at once"),
            );
        } else if writers == 1 && total > 1 {
            fail(
                "swmr",
                format!(
                    "{b} held writable by {writer} alongside {} other cop(ies)",
                    total - 1
                ),
            );
        }
    }

    for &(p, b, line) in &view.cache_lines {
        let Some(rec) = dirs.get(&b) else {
            fail("agreement", format!("{p} caches untracked block {b}"));
            continue;
        };
        match &rec.state {
            DirState::Idle => fail("agreement", format!("{b} Idle at home yet cached by {p}")),
            DirState::Shared(_) if line.exclusive => {
                fail("swmr", format!("{b} Shared at home yet writable at {p}"));
            }
            DirState::Shared(s) if !rep_admits(view.directory, &s.set, s.broadcast, p) => {
                fail(
                    "agreement",
                    format!("{b} cached by {p} but the sharer rep does not admit it"),
                );
            }
            DirState::Exclusive(owner) if *owner != p => fail(
                "swmr",
                format!("{b} owned by {owner} yet also cached by {p}"),
            ),
            // Mid-wait the only legal copies are at the requester and at
            // holders whose invalidation is still in flight.
            DirState::Busy { waiting, grant }
                if grant.is_none_or(|g| g.requester != p) && !waiting.contains(p) =>
            {
                fail(
                    "agreement",
                    format!(
                        "{b} {} at home yet cached by bystander {p}",
                        busy_name(*grant)
                    ),
                );
            }
            _ => {}
        }
        // Tokens, whatever the home's state. A read-only copy at the owner
        // is the sole-sharer upgrade window (UpgradeAck in flight), where
        // the token still matches the home's.
        if line.exclusive {
            if line.token < rec.token {
                fail(
                    "freshness",
                    format!(
                        "{p}'s writable {b} token {} below home's {}",
                        line.token, rec.token
                    ),
                );
            }
        } else if line.token != rec.token {
            if rec.state == DirState::Exclusive(p) {
                fail(
                    "agreement",
                    format!(
                        "upgrading owner {p} holds {b} token {} != home's {}",
                        line.token, rec.token
                    ),
                );
            } else {
                fail(
                    "freshness",
                    format!(
                        "{p}'s shared {b} token {} differs from home's {}",
                        line.token, rec.token
                    ),
                );
            }
        }
    }

    for (home, b, rec) in &view.dir_blocks {
        for m in &rec.mask {
            if holds(view, m.node, *b).is_some() {
                fail(
                    "mask",
                    format!(
                        "{home}: {} is masked for {b} yet still holds a copy",
                        m.node
                    ),
                );
            }
        }
    }
}

/// `p`'s cached copy of `b` in `view`, if any.
fn holds(view: &MachineView<'_>, p: NodeId, b: BlockId) -> Option<Line> {
    view.cache_lines
        .binary_search_by_key(&(p, b), |&(q, qb, _)| (q, qb))
        .ok()
        .map(|i| view.cache_lines[i].2)
}

/// Checks the whole catalog against a *quiescent* machine (a finished run,
/// or an explorer state with no transition left): nothing queued or
/// outstanding, then `ground_violations`, then the rows that hold only
/// once every transaction has settled. Returns every violation found.
pub fn quiescence_violations(view: &MachineView<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |invariant: &'static str, detail: String| {
        out.push(Violation {
            invariant,
            at: Cycle::ZERO,
            detail,
        });
    };
    if view.engine_backlog > 0 {
        fail(
            "conservation",
            format!("{} message(s) queued at quiescence", view.engine_backlog),
        );
    }
    if view.cache_pending > 0 {
        fail(
            "conservation",
            format!("{} miss(es) outstanding at quiescence", view.cache_pending),
        );
    }

    ground_violations(view, &mut fail);

    for (home, b, rec) in &view.dir_blocks {
        if let DirState::Exclusive(owner) = &rec.state {
            match holds(view, *owner, *b) {
                Some(l) if l.exclusive => {}
                Some(_) => fail(
                    "agreement",
                    format!("{home}: {b} owned by {owner} whose copy is read-only"),
                ),
                None => fail(
                    "agreement",
                    format!("{home}: {b} owned by {owner} which holds no copy"),
                ),
            }
        }
        settled_violations(*home, *b, &Settling::of(rec), &mut fail);
    }
    out
}

/// What the settled-state rows read off one directory record, whichever
/// model holds it: the real directory's [`DirBlock`] or the shadow
/// directory's own record.
pub(crate) struct Settling {
    /// The open transaction's state name (`Busy` or `Evicting`), if any.
    pub transient: Option<&'static str>,
    /// Requests shelved behind the open transaction.
    pub shelved: usize,
    /// Nodes still owing an orphaned `InvAck`.
    pub orphaned_acks: usize,
}

impl Settling {
    fn of(rec: &DirBlock) -> Self {
        Settling {
            transient: match &rec.state {
                DirState::Busy { grant, .. } => Some(busy_name(*grant)),
                _ => None,
            },
            shelved: rec.pending.len(),
            orphaned_acks: rec.stale_acks.len(),
        }
    }
}

/// The rows' name for a Busy record: `Busy` while a request waits for its
/// grant, `Evicting` while a sparse eviction (which grants nothing) waits.
fn busy_name(grant: Option<Grant>) -> &'static str {
    if grant.is_some() {
        "Busy"
    } else {
        "Evicting"
    }
}

/// The `conservation` rows that hold once every transaction has settled,
/// for `home`'s record of `b`: no open transaction, no shelved request, no
/// orphaned ack still owed. Shared by the end-of-run audit and the
/// sanitizer's shadow directory.
pub(crate) fn settled_violations(
    home: NodeId,
    b: BlockId,
    rec: &Settling,
    fail: &mut impl FnMut(&'static str, String),
) {
    if let Some(state) = rec.transient {
        fail(
            "conservation",
            format!("{home}: {b} still {state} at quiescence"),
        );
    }
    if rec.shelved > 0 {
        fail(
            "conservation",
            format!(
                "{home}: {b} holds {} shelved request(s) at quiescence",
                rec.shelved
            ),
        );
    }
    if rec.orphaned_acks > 0 {
        fail(
            "conservation",
            format!(
                "{home}: {b} still awaits {} orphaned ack(s) at quiescence",
                rec.orphaned_acks
            ),
        );
    }
}

/// FIFO lane a message travels on. Cross-node traffic serializes through the
/// source's network interface, so the whole `(src, dst)` edge is one FIFO.
/// Same-node messages skip the NI: requests deliver the cycle they are sent,
/// while directory sends depart later under a per-*block* service-order
/// clamp — so only `(block, direction)` lanes are ordered there.
type EdgeLane = (NodeId, NodeId, Option<(BlockId, bool)>);

/// Per-lane bookkeeping: the in-flight FIFO and the last delivery cycle
/// (kept together so one delivery costs one hash lookup).
#[derive(Debug, Default)]
struct LaneState {
    fifo: VecDeque<(Cycle, Message)>,
    last_delivery: Cycle,
}

fn edge_lane(msg: &Message) -> EdgeLane {
    let lane = if msg.src == msg.dst {
        Some((msg.block, msg.kind.to_directory()))
    } else {
        None
    };
    (msg.src, msg.dst, lane)
}

fn fill_verify(kind: MsgKind) -> Option<VerifyOutcome> {
    match kind {
        MsgKind::DataS { verify, .. }
        | MsgKind::DataX { verify, .. }
        | MsgKind::UpgradeAck { verify, .. } => verify,
        _ => None,
    }
}

/// The online coherence sanitizer (probe spec `check`, strict variant
/// `check:strict`).
///
/// Replays the event stream of one run against the invariant catalog and
/// reports a `"check"` metrics section with violation counts and the first
/// few pieces of evidence. `strict` panics at the first violation instead,
/// turning any probe-instrumented run into a hard assertion (useful under a
/// debugger or in CI).
///
/// The checker is deterministic and works on the *merged* stream, so its
/// section is bit-identical across `--shards` values — and one of its
/// catalog rows (`determinism`) asserts exactly the delivery-order
/// guarantees that merging relies on.
#[derive(Debug)]
pub struct CoherenceChecker {
    strict: bool,
    shadows: Vec<ShadowDir>,
    /// Per home: delivered directory-bound messages not yet serviced.
    dir_inbox: Vec<VecDeque<Message>>,
    /// Per home: sends the shadow expects the real directory to emit.
    expected_sends: Vec<VecDeque<Message>>,
    /// Per home: observations the shadow expects.
    expected_events: Vec<VecDeque<ShadowDirEvent>>,
    /// Per home: shelved requests awaiting re-delivery.
    reinjects: Vec<Vec<Message>>,
    /// Per home: reinjected requests whose `DirAccepted` replayed ahead of
    /// their second delivery. The merged stream sorts same-cycle events by
    /// scheduling key, and a reinjection that finds its engine idle starts
    /// its drain in the same cycle under an earlier-sorting key — the only
    /// causal inversion the replay order permits.
    pre_served: Vec<Vec<Message>>,
    /// Per home: the in-flight service's (kind, data-class).
    in_service: Vec<Option<(MsgKind, bool)>>,
    /// Per network lane: sent-but-undelivered messages with send times,
    /// plus the lane's last delivery cycle (monotonicity check).
    edges: FxHashMap<EdgeLane, LaneState>,
    /// Previous genuine delivery, for same-cycle source-order checking.
    last_arrival: Option<(Cycle, NodeId, NodeId)>,
    /// Node-side ground state: installed copies (`true` = exclusive).
    lines: FxHashMap<(NodeId, BlockId), bool>,
    /// Per block: (holder count, exclusive-holder count) — an O(1) mirror
    /// of `lines`, so SWMR checks on fills don't scan the whole ground
    /// state. Every `lines` mutation goes through [`Self::install_line`] /
    /// [`Self::remove_line`] to keep the two in step.
    holders: FxHashMap<BlockId, (u32, u32)>,
    /// Outstanding misses.
    misses: FxHashMap<(NodeId, BlockId), bool>,
    /// Invalidations delivered but not yet acknowledged.
    owed_acks: FxHashMap<(NodeId, BlockId), u64>,
    /// Verdicts delivered to a node but not yet surfaced to its policy.
    verdicts: FxHashMap<(NodeId, BlockId), (VerifyOutcome, bool)>,
    events_seen: u64,
    violations: u64,
    by_invariant: BTreeMap<&'static str, u64>,
    first: Vec<String>,
}

const EVIDENCE_CAP: usize = 8;

impl CoherenceChecker {
    /// Builds a sanitizer for a `nodes`-node machine running `kind`
    /// directories.
    pub fn new(nodes: u16, kind: DirectoryKind, strict: bool) -> Self {
        let n = usize::from(nodes);
        CoherenceChecker {
            strict,
            shadows: (0..nodes)
                .map(|h| ShadowDir::new(NodeId::new(h), kind, nodes))
                .collect(),
            dir_inbox: vec![VecDeque::new(); n],
            expected_sends: vec![VecDeque::new(); n],
            expected_events: vec![VecDeque::new(); n],
            reinjects: vec![Vec::new(); n],
            pre_served: vec![Vec::new(); n],
            in_service: vec![None; n],
            edges: FxHashMap::default(),
            last_arrival: None,
            lines: FxHashMap::default(),
            holders: FxHashMap::default(),
            misses: FxHashMap::default(),
            owed_acks: FxHashMap::default(),
            verdicts: FxHashMap::default(),
            events_seen: 0,
            violations: 0,
            by_invariant: BTreeMap::new(),
            first: Vec::new(),
        }
    }

    fn fail(&mut self, invariant: &'static str, at: Cycle, detail: String) {
        self.violations += 1;
        *self.by_invariant.entry(invariant).or_insert(0) += 1;
        if self.first.len() < EVIDENCE_CAP {
            self.first.push(format!("[{invariant}] @{at}: {detail}"));
        }
        assert!(
            !self.strict,
            "coherence violation [{invariant}] at cycle {at}: {detail}"
        );
    }

    fn take_step(&mut self, home: NodeId, at: Cycle, step: ShadowStep) {
        let h = home.index();
        for v in step.violations {
            self.fail("shadow", at, v);
        }
        self.expected_sends[h].extend(step.sends);
        self.expected_events[h].extend(step.events);
        self.reinjects[h].extend(step.reinject);
        self.in_service[h] = self.in_service[h].map(|(k, _)| (k, step.data));
    }

    fn expect_event(&mut self, home: NodeId, at: Cycle, observed: ShadowDirEvent) {
        match self.expected_events[home.index()].pop_front() {
            Some(want) if want == observed => {}
            Some(want) => self.fail(
                "shadow",
                at,
                format!("{home} observed {observed:?} where the shadow expected {want:?}"),
            ),
            None => self.fail(
                "shadow",
                at,
                format!("{home} observed {observed:?} the shadow did not expect"),
            ),
        }
    }

    /// Installs (or upgrades) `p`'s copy of `b`, keeping the per-block
    /// holder summary in step with `lines`.
    fn install_line(&mut self, p: NodeId, b: BlockId, exclusive: bool) {
        let prev = self.lines.insert((p, b), exclusive);
        let e = self.holders.entry(b).or_insert((0, 0));
        e.0 += u32::from(prev.is_none());
        e.1 = e.1 - u32::from(prev == Some(true)) + u32::from(exclusive);
    }

    /// Removes `p`'s copy of `b` (if any), returning whether it was
    /// exclusive, and keeps the holder summary in step.
    fn remove_line(&mut self, p: NodeId, b: BlockId) -> Option<bool> {
        let prev = self.lines.remove(&(p, b));
        if let Some(ex) = prev {
            if let Some(e) = self.holders.get_mut(&b) {
                e.0 -= 1;
                e.1 -= u32::from(ex);
            }
        }
        prev
    }

    /// Names one holder of `b` other than `p` for violation evidence (the
    /// slow scan only runs once a violation is already established).
    fn holder_besides(&self, p: NodeId, b: BlockId, exclusive_only: bool) -> String {
        self.lines
            .iter()
            .find(|&(&(q, qb), &ex)| qb == b && q != p && (ex || !exclusive_only))
            .map_or_else(|| "another node".to_string(), |(&(q, _), _)| q.to_string())
    }

    fn deliver_fill(&mut self, at: Cycle, msg: Message) {
        let p = msg.dst;
        let b = msg.block;
        if self.misses.remove(&(p, b)).is_none() {
            self.fail(
                "conservation",
                at,
                format!("{p} received a fill for {b} with no miss outstanding"),
            );
        }
        let exclusive = !matches!(msg.kind, MsgKind::DataS { .. });
        let own = self.lines.get(&(p, b)).copied();
        let (total, total_exclusive) = self.holders.get(&b).copied().unwrap_or((0, 0));
        let others = total - u32::from(own.is_some());
        let others_exclusive = total_exclusive - u32::from(own == Some(true));
        if exclusive {
            if others > 0 {
                let q = self.holder_besides(p, b, false);
                self.fail(
                    "swmr",
                    at,
                    format!("{p} granted {b} exclusive while {q} still holds a copy"),
                );
            }
        } else if others_exclusive > 0 {
            let q = self.holder_besides(p, b, true);
            self.fail(
                "swmr",
                at,
                format!("{p} granted {b} shared while {q} holds it exclusive"),
            );
        }
        if matches!(msg.kind, MsgKind::UpgradeAck { .. }) && own.is_none() {
            self.fail(
                "agreement",
                at,
                format!("{p} received an UpgradeAck for {b} with no installed copy"),
            );
        }
        self.install_line(p, b, exclusive);
        if let Some(v) = fill_verify(msg.kind) {
            if self.verdicts.insert((p, b), (v, false)).is_some() {
                self.fail(
                    "mask",
                    at,
                    format!("{p} received a verdict for {b} while one was still unresolved"),
                );
            }
        }
    }

    fn on_delivered(&mut self, at: Cycle, msg: Message) {
        // A directory reinjection is a second delivery of the same message
        // with no second send: exempt from the edge bookkeeping.
        if msg.kind.to_directory() {
            let h = msg.dst.index();
            if let Some(i) = self.pre_served[h].iter().position(|m| *m == msg) {
                // The service already replayed (same-cycle key inversion);
                // this is the matching late delivery event.
                self.pre_served[h].remove(i);
                return;
            }
            if let Some(i) = self.reinjects[h].iter().position(|m| *m == msg) {
                self.reinjects[h].remove(i);
                self.dir_inbox[h].push_back(msg);
                return;
            }
        }
        let lane = self.edges.entry(edge_lane(&msg)).or_default();
        let prev = lane.last_delivery;
        lane.last_delivery = at;
        match lane.fifo.pop_front() {
            Some((sent, m)) if m == msg => {
                if at < sent {
                    self.fail(
                        "determinism",
                        at,
                        format!("{msg:?} delivered at {at}, before its send at {sent}"),
                    );
                }
            }
            Some((_, m)) => self.fail(
                "determinism",
                at,
                format!(
                    "edge {}->{} delivered {msg:?} ahead of {m:?}",
                    msg.src, msg.dst
                ),
            ),
            None => self.fail(
                "conservation",
                at,
                format!("{msg:?} delivered but never sent"),
            ),
        }
        if at < prev {
            self.fail(
                "determinism",
                at,
                format!(
                    "edge {}->{} delivery time regressed from {prev} to {at}",
                    msg.src, msg.dst
                ),
            );
        }
        if let Some((pat, pdst, psrc)) = self.last_arrival {
            if pat == at && pdst == msg.dst && psrc > msg.src {
                self.fail(
                    "determinism",
                    at,
                    format!(
                        "same-cycle arrivals at {} popped out of source order ({psrc} before {})",
                        msg.dst, msg.src
                    ),
                );
            }
        }
        self.last_arrival = Some((at, msg.dst, msg.src));

        if msg.kind.to_directory() {
            self.dir_inbox[msg.dst.index()].push_back(msg);
            return;
        }
        match msg.kind {
            MsgKind::DataS { .. } | MsgKind::DataX { .. } | MsgKind::UpgradeAck { .. } => {
                self.deliver_fill(at, msg);
            }
            MsgKind::VerifyCorrect { timely } => {
                if self
                    .verdicts
                    .insert((msg.dst, msg.block), (VerifyOutcome::Correct, timely))
                    .is_some()
                {
                    self.fail(
                        "mask",
                        at,
                        format!(
                            "{} received a verdict for {} while one was still unresolved",
                            msg.dst, msg.block
                        ),
                    );
                }
            }
            MsgKind::Inv => {} // node-side effects arrive as `Invalidated`
            other => self.fail(
                "conservation",
                at,
                format!("{} received non-cache message {other:?}", msg.dst),
            ),
        }
    }

    fn on_sent(&mut self, at: Cycle, msg: Message) {
        self.edges
            .entry(edge_lane(&msg))
            .or_default()
            .fifo
            .push_back((at, msg));
        if !msg.kind.to_directory() {
            let h = msg.src.index();
            match self.expected_sends[h].pop_front() {
                Some(want) if want == msg => {}
                Some(want) => self.fail(
                    "shadow",
                    at,
                    format!(
                        "{} sent {msg:?} where the shadow expected {want:?}",
                        msg.src
                    ),
                ),
                None => self.fail(
                    "shadow",
                    at,
                    format!("{} sent {msg:?} the shadow did not expect", msg.src),
                ),
            }
            return;
        }
        match msg.kind {
            MsgKind::InvAck { .. } => {
                let owed = self.owed_acks.entry((msg.src, msg.block)).or_insert(0);
                if *owed == 0 {
                    self.fail(
                        "conservation",
                        at,
                        format!(
                            "{} acknowledged an invalidation of {} it never received",
                            msg.src, msg.block
                        ),
                    );
                } else {
                    *owed -= 1;
                }
            }
            MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => {
                if !self.misses.contains_key(&(msg.src, msg.block)) {
                    self.fail(
                        "conservation",
                        at,
                        format!(
                            "{} requested {} with no miss outstanding",
                            msg.src, msg.block
                        ),
                    );
                }
            }
            MsgKind::SelfInvClean | MsgKind::SelfInvDirty { .. } => {}
            _ => unreachable!("directory replies handled above"),
        }
    }

    fn on_accepted(&mut self, at: Cycle, home: NodeId, msg: Message) {
        let h = home.index();
        if let Some(stale) = self.expected_sends[h].pop_front() {
            self.fail(
                "shadow",
                at,
                format!("{home} never sent the expected {stale:?}"),
            );
            self.expected_sends[h].clear();
        }
        if let Some(stale) = self.expected_events[h].pop_front() {
            self.fail(
                "shadow",
                at,
                format!("{home} never observed the expected {stale:?}"),
            );
            self.expected_events[h].clear();
        }
        match self.dir_inbox[h].front() {
            Some(front) if *front == msg => {
                self.dir_inbox[h].pop_front();
            }
            Some(front) => {
                let front = *front;
                self.fail(
                    "conservation",
                    at,
                    format!("{home} serviced {msg:?} ahead of the delivered {front:?}"),
                );
                if let Some(i) = self.dir_inbox[h].iter().position(|m| *m == msg) {
                    self.dir_inbox[h].remove(i);
                }
            }
            // A reinjection that finds its engine idle is serviced in the
            // same cycle, and the replay's key order puts the service ahead
            // of the second delivery: consume the reinjection here and let
            // `on_delivered` absorb the late delivery event.
            None if self.reinjects[h].contains(&msg) => {
                let i = self.reinjects[h]
                    .iter()
                    .position(|m| *m == msg)
                    .expect("containment checked");
                self.reinjects[h].remove(i);
                self.pre_served[h].push(msg);
            }
            None => self.fail(
                "conservation",
                at,
                format!("{home} serviced {msg:?} which was never delivered"),
            ),
        }
        self.in_service[h] = Some((msg.kind, false));
        let step = self.shadows[h].process(msg);
        self.take_step(home, at, step);
    }
}

impl Probe for CoherenceChecker {
    #[allow(clippy::too_many_lines)]
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        self.events_seen += 1;
        let at = ctx.now;
        match *event {
            SimEvent::MessageSent { msg } => self.on_sent(at, msg),
            SimEvent::MessageDelivered { msg } => self.on_delivered(at, msg),
            SimEvent::DirAccepted { home, msg } => self.on_accepted(at, home, msg),
            SimEvent::MessageServiced {
                home, kind, data, ..
            } => match self.in_service[home.index()].take() {
                Some((k, d)) if k == kind && d == data => {}
                Some((k, d)) => self.fail(
                    "shadow",
                    at,
                    format!(
                        "{home} reported service of {kind:?} (data={data}) but accepted {k:?} (data={d})"
                    ),
                ),
                None => self.fail(
                    "conservation",
                    at,
                    format!("{home} reported a service it never accepted"),
                ),
            },
            SimEvent::InvalidationSent { home, to, .. } => {
                self.expect_event(home, at, ShadowDirEvent::InvSent(to));
            }
            SimEvent::InvalidationAcked {
                home,
                from,
                had_copy,
                ..
            } => {
                self.expect_event(home, at, ShadowDirEvent::InvAcked { from, had_copy });
            }
            SimEvent::BroadcastOverflow { home, .. } => {
                self.expect_event(home, at, ShadowDirEvent::Overflow);
            }
            SimEvent::DirEntryEvicted {
                home,
                block,
                invalidations,
            } => {
                self.expect_event(
                    home,
                    at,
                    ShadowDirEvent::Evicted {
                        block,
                        invalidations,
                    },
                );
            }
            SimEvent::StaleIgnored { home, from, .. } => {
                self.expect_event(home, at, ShadowDirEvent::Stale(from));
            }
            SimEvent::Invalidated {
                node,
                block,
                had_copy,
            } => {
                if had_copy != self.remove_line(node, block).is_some() {
                    self.fail(
                        "agreement",
                        at,
                        format!(
                            "{node} reported had_copy={had_copy} for {block}, ground state disagrees"
                        ),
                    );
                }
                *self.owed_acks.entry((node, block)).or_insert(0) += 1;
            }
            SimEvent::SelfInvalidation { node, block, dirty } => {
                if self.misses.contains_key(&(node, block)) {
                    self.fail(
                        "conservation",
                        at,
                        format!("{node} self-invalidated {block} mid-transaction"),
                    );
                }
                match self.remove_line(node, block) {
                    Some(exclusive) => {
                        if dirty != exclusive {
                            self.fail(
                                "agreement",
                                at,
                                format!(
                                    "{node} self-invalidated {block} dirty={dirty} but held it exclusive={exclusive}"
                                ),
                            );
                        }
                    }
                    None => self.fail(
                        "freshness",
                        at,
                        format!("{node} self-invalidated {block} without an installed copy"),
                    ),
                }
            }
            SimEvent::PredictionVerified {
                node,
                block,
                outcome,
                timely,
            } => match self.verdicts.remove(&(node, block)) {
                Some((o, t)) if o == outcome && t == timely => {}
                Some((o, t)) => self.fail(
                    "mask",
                    at,
                    format!(
                        "{node}'s verdict for {block} reported as {outcome:?}/timely={timely}, directory issued {o:?}/timely={t}"
                    ),
                ),
                None => self.fail(
                    "mask",
                    at,
                    format!("{node} surfaced a verdict for {block} the directory never issued"),
                ),
            },
            SimEvent::CacheHit {
                node,
                block,
                is_write,
                exclusive,
                ..
            } => {
                if self.misses.contains_key(&(node, block)) {
                    self.fail(
                        "conservation",
                        at,
                        format!("{node} hit {block} while a miss is outstanding"),
                    );
                }
                match self.lines.get(&(node, block)) {
                    Some(&ex) => {
                        if ex != exclusive {
                            self.fail(
                                "agreement",
                                at,
                                format!("{node} hit {block} exclusive={exclusive}, ground state says {ex}"),
                            );
                        }
                        if is_write && !ex {
                            self.fail(
                                "swmr",
                                at,
                                format!("{node} wrote {block} without write permission"),
                            );
                        }
                    }
                    None => self.fail(
                        "freshness",
                        at,
                        format!("{node} hit {block} after relinquishing it"),
                    ),
                }
            }
            SimEvent::CacheMiss {
                node,
                block,
                is_write,
                ..
            } => {
                if self
                    .misses
                    .insert((node, block), is_write)
                    .is_some()
                {
                    self.fail(
                        "conservation",
                        at,
                        format!("{node} missed {block} while a miss is outstanding"),
                    );
                }
                match self.lines.get(&(node, block)) {
                    Some(&ex) if !is_write => self.fail(
                        "agreement",
                        at,
                        format!("{node} read-missed {block} despite an installed copy (exclusive={ex})"),
                    ),
                    Some(true) => self.fail(
                        "agreement",
                        at,
                        format!("{node} write-missed {block} despite holding it exclusive"),
                    ),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn finish(mut self: Box<Self>) -> Option<MetricsSection> {
        let mut leftovers: Vec<(&'static str, String)> = Vec::new();
        for (edge, lane) in self.edges.iter().filter(|(_, l)| !l.fifo.is_empty()) {
            leftovers.push((
                "conservation",
                format!(
                    "{} message(s) in flight {}->{} at quiescence",
                    lane.fifo.len(),
                    edge.0,
                    edge.1
                ),
            ));
        }
        for (h, q) in self.dir_inbox.iter().enumerate() {
            if !q.is_empty() {
                leftovers.push((
                    "conservation",
                    format!("home {h}: {} delivered message(s) never serviced", q.len()),
                ));
            }
        }
        for (h, r) in self.reinjects.iter().enumerate() {
            if !r.is_empty() {
                leftovers.push((
                    "conservation",
                    format!(
                        "home {h}: {} shelved request(s) never re-delivered",
                        r.len()
                    ),
                ));
            }
        }
        for (h, r) in self.pre_served.iter().enumerate() {
            if !r.is_empty() {
                leftovers.push((
                    "conservation",
                    format!(
                        "home {h}: {} serviced reinjection(s) with no matching delivery",
                        r.len()
                    ),
                ));
            }
        }
        for (&(p, b), &owed) in self.owed_acks.iter().filter(|&(_, &o)| o > 0) {
            leftovers.push((
                "conservation",
                format!("{p}: {owed} invalidation(s) of {b} never acknowledged"),
            ));
        }
        for &(p, b) in self.misses.keys() {
            leftovers.push(("conservation", format!("{p}: miss on {b} never filled")));
        }
        for (&(p, b), &(o, _)) in &self.verdicts {
            leftovers.push((
                "mask",
                format!("{p}: delivered verdict {o:?} for {b} never surfaced"),
            ));
        }
        for (h, q) in self.expected_sends.iter().enumerate() {
            if !q.is_empty() {
                leftovers.push((
                    "shadow",
                    format!("home {h}: {} expected send(s) never emitted", q.len()),
                ));
            }
        }
        let unsettled: Vec<String> = self
            .shadows
            .iter()
            .filter_map(ShadowDir::unsettled)
            .collect();
        for u in unsettled {
            leftovers.push(("conservation", u));
        }
        leftovers.sort();
        for (invariant, detail) in leftovers {
            self.fail(invariant, Cycle::ZERO, detail);
        }

        let mut counts = JsonObject::new();
        for (k, v) in &self.by_invariant {
            counts = counts.field(k, *v);
        }
        Some(MetricsSection::new(
            if self.strict { "check:strict" } else { "check" },
            JsonObject::new()
                .field("events", self.events_seen)
                .field("violations", self.violations)
                .field("invariants", counts.build())
                .field(
                    "first",
                    JsonValue::from(
                        self.first
                            .iter()
                            .map(|s| JsonValue::from(s.as_str()))
                            .collect::<Vec<_>>(),
                    ),
                )
                .build(),
        ))
    }
}
