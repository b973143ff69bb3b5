//! A shadow directory: an independent re-derivation of the protocol's
//! directory state machine, used by the online sanitizer to predict every
//! message and observation the real [`ltp_dsm::Directory`] must produce.
//!
//! The shadow is written from the protocol *specification* (the `ltp-dsm`
//! module docs and the paper's §2/§4), not by calling into the production
//! code: its sharer decode, mask resolution, and race arms are spelled out
//! again here so that a bug planted in one copy (see `ltp_dsm::mutation`)
//! disagrees with the other. Divergence is reported by the checker as a
//! `shadow` violation, with the first differing message as evidence.

use std::collections::VecDeque;

use ltp_core::{BlockId, FxHashMap, NodeId, SharerSet, VerifyOutcome};
use ltp_dsm::{DirectoryKind, Message, MsgKind};

use super::{settled_violations, Settling};

/// What the shadow expects the real directory to observe/emit for one
/// serviced message.
#[derive(Debug, Default)]
pub(crate) struct ShadowStep {
    /// Messages the home must send, in order.
    pub sends: Vec<Message>,
    /// Shelved requests the home must re-present, in order.
    pub reinject: Vec<Message>,
    /// Whether the service must be classed as a data service.
    pub data: bool,
    /// Directory observations (`InvalidationSent` etc.), in order.
    pub events: Vec<ShadowDirEvent>,
    /// Ground-state violations detected *while* processing (promoted
    /// `debug_assert!`s: token regressions, impossible arms).
    pub violations: Vec<String>,
}

/// Mirror of [`ltp_dsm::DirEvent`] for expectation matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowDirEvent {
    InvSent(NodeId),
    InvAcked { from: NodeId, had_copy: bool },
    Overflow,
    Stale(NodeId),
    Evicted { block: BlockId, invalidations: u16 },
}

/// The sharer representation as the spec defines it: node bits for
/// `full`/`ptr`/`sparse`, cluster bits for `coarse`, plus the
/// pointer-overflow broadcast flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Rep {
    set: SharerSet,
    broadcast: bool,
}

/// The bit `node` occupies in the stored set.
fn bit_of(kind: DirectoryKind, node: NodeId) -> NodeId {
    match kind {
        DirectoryKind::Full | DirectoryKind::LimitedPtr { .. } | DirectoryKind::Sparse { .. } => {
            node
        }
        DirectoryKind::Coarse { cluster } => {
            NodeId::new((node.index() / usize::from(cluster.max(1))) as u16)
        }
    }
}

/// Whether the representation is exact right now (and may thus prove a
/// node's membership or forget a departing sharer). Sparse tracked entries
/// are exact full maps — imprecision shows up as evictions, not as
/// over-approximate decode.
fn exact_now(kind: DirectoryKind, r: &Rep) -> bool {
    match kind {
        DirectoryKind::Full | DirectoryKind::Sparse { .. } => true,
        DirectoryKind::Coarse { cluster } => cluster <= 1,
        DirectoryKind::LimitedPtr { .. } => !r.broadcast,
    }
}

/// Whether the representation admits `node` as a possible sharer.
pub(crate) fn rep_admits(
    kind: DirectoryKind,
    set: &SharerSet,
    broadcast: bool,
    node: NodeId,
) -> bool {
    broadcast || set.contains(bit_of(kind, node))
}

fn insert_sharer(kind: DirectoryKind, r: &mut Rep, node: NodeId) -> bool {
    match kind {
        DirectoryKind::Full | DirectoryKind::Coarse { .. } | DirectoryKind::Sparse { .. } => {
            r.set.insert(bit_of(kind, node));
            false
        }
        DirectoryKind::LimitedPtr { pointers } => {
            if r.broadcast {
                return false;
            }
            r.set.insert(node);
            if r.set.len() > usize::from(pointers) {
                r.set.clear();
                r.broadcast = true;
                true
            } else {
                false
            }
        }
    }
}

/// The exact node set an invalidation round must target: the stored
/// representation expanded to node granularity, minus the requester. This
/// is the canonical decode a mutated production decode must disagree with.
pub(crate) fn decode_targets(
    kind: DirectoryKind,
    total: u16,
    set: &SharerSet,
    broadcast: bool,
    exclude: NodeId,
) -> SharerSet {
    let mut targets = SharerSet::new();
    match kind {
        DirectoryKind::Full | DirectoryKind::Sparse { .. } => targets = set.clone(),
        DirectoryKind::Coarse { cluster } => {
            let k = cluster.max(1);
            for c in set {
                let base = c.index() as u16 * k;
                for node in base..(base + k).min(total) {
                    targets.insert(NodeId::new(node));
                }
            }
        }
        DirectoryKind::LimitedPtr { .. } => {
            if broadcast {
                for node in 0..total {
                    targets.insert(NodeId::new(node));
                }
            } else {
                targets = set.clone();
            }
        }
    }
    targets.remove(exclude);
    targets
}

#[derive(Debug, Clone)]
enum SState {
    Idle,
    Shared(Rep),
    Exclusive(NodeId),
    Busy {
        requester: NodeId,
        want_exclusive: bool,
        upgrade_reply: bool,
        waiting: SharerSet,
        verify: Option<VerifyOutcome>,
    },
    /// Sparse only: an evicted entry collecting its holders' acks before
    /// falling back to Idle.
    Evicting {
        waiting: SharerSet,
    },
}

#[derive(Debug, Clone, Copy)]
struct SMask {
    node: NodeId,
    relinquished_exclusive: bool,
    timely: bool,
}

#[derive(Debug)]
struct SBlock {
    state: SState,
    version: u32,
    token: u64,
    mask: Vec<SMask>,
    shelved: VecDeque<Message>,
    /// Nodes owing an orphaned `InvAck` (self-invalidation crossed the Inv);
    /// mirrors the real directory's stale-ack filter.
    stale_acks: SharerSet,
    /// Sparse replacement recency: the home's service tick of the last
    /// message processed for this block.
    last_use: u64,
}

impl SBlock {
    fn settling(&self) -> Settling {
        Settling {
            transient: match self.state {
                SState::Busy { .. } => Some("Busy"),
                SState::Evicting { .. } => Some("Evicting"),
                _ => None,
            },
            shelved: self.shelved.len(),
            orphaned_acks: self.stale_acks.len(),
        }
    }
}

impl Default for SBlock {
    fn default() -> Self {
        SBlock {
            state: SState::Idle,
            version: 0,
            token: 0,
            mask: Vec::new(),
            shelved: VecDeque::new(),
            stale_acks: SharerSet::new(),
            last_use: 0,
        }
    }
}

/// One home's shadow directory.
#[derive(Debug)]
pub(crate) struct ShadowDir {
    home: NodeId,
    kind: DirectoryKind,
    total: u16,
    blocks: FxHashMap<BlockId, SBlock>,
    /// Monotonic service tick (the sparse LRU clock).
    tick: u64,
}

impl ShadowDir {
    pub fn new(home: NodeId, kind: DirectoryKind, total: u16) -> Self {
        ShadowDir {
            home,
            kind,
            total,
            blocks: FxHashMap::default(),
            tick: 0,
        }
    }

    /// The first settled-state row any block violates, if any — none may
    /// at quiescence.
    pub fn unsettled(&self) -> Option<String> {
        let mut first = None;
        for (b, rec) in &self.blocks {
            settled_violations(self.home, *b, &rec.settling(), &mut |_, detail| {
                first.get_or_insert(detail);
            });
            if first.is_some() {
                break;
            }
        }
        first
    }

    /// Processes one serviced message, returning everything the real
    /// directory is obliged to do in response.
    pub fn process(&mut self, msg: Message) -> ShadowStep {
        let mut step = ShadowStep::default();
        if msg.dst != self.home {
            step.violations.push(format!(
                "{} serviced {msg:?} routed to the wrong home",
                self.home
            ));
            return step;
        }
        self.tick += 1;
        let tick = self.tick;
        self.blocks.entry(msg.block).or_default().last_use = tick;
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => self.request(msg, &mut step),
            MsgKind::SelfInvClean => self.self_inv(msg, None, &mut step),
            MsgKind::SelfInvDirty { token } => self.self_inv(msg, Some(token), &mut step),
            MsgKind::InvAck {
                had_copy,
                dirty_token,
            } => self.inv_ack(msg, had_copy, dirty_token, &mut step),
            other => step.violations.push(format!(
                "{}: non-protocol message {other:?} serviced",
                self.home
            )),
        }
        step
    }

    /// §4 mask resolution against an arriving request: the requester's own
    /// entry yields a piggybacked Premature; entries conflicting with the
    /// request (exclusive relinquish, or any relinquish vs a write) yield
    /// immediate `VerifyCorrect` notifications; read-vs-read stays pending.
    fn resolve_mask(
        &mut self,
        block: BlockId,
        requester: NodeId,
        write: bool,
    ) -> (Option<VerifyOutcome>, Vec<Message>) {
        let home = self.home;
        let rec = self.blocks.entry(block).or_default();
        let mut piggyback = None;
        let mut notify = Vec::new();
        rec.mask.retain(|m| {
            if m.node == requester {
                piggyback = Some(VerifyOutcome::Premature);
                false
            } else if m.relinquished_exclusive || write {
                notify.push(Message::new(
                    home,
                    m.node,
                    block,
                    MsgKind::VerifyCorrect { timely: m.timely },
                ));
                false
            } else {
                true
            }
        });
        (piggyback, notify)
    }

    /// Sparse replacement, as the spec defines it: when servicing a request
    /// whose block is untracked while the home already tracks `E` non-Idle
    /// blocks, the least-recently-serviced stable entry (ties broken by
    /// block id) is evicted — every holder is invalidated and the entry
    /// goes Evicting until the acks drain.
    fn predict_eviction(&mut self, block: BlockId, step: &mut ShadowStep) {
        let DirectoryKind::Sparse { entries } = self.kind else {
            return;
        };
        if !matches!(
            self.blocks.get(&block).map(|r| &r.state),
            None | Some(SState::Idle)
        ) {
            return;
        }
        let occupied = self
            .blocks
            .values()
            .filter(|r| !matches!(r.state, SState::Idle))
            .count();
        if occupied < usize::from(entries) {
            return;
        }
        let victim = self
            .blocks
            .iter()
            .filter(|(&b, r)| {
                b != block && matches!(r.state, SState::Shared(_) | SState::Exclusive(_))
            })
            .min_by_key(|(&b, r)| (r.last_use, b))
            .map(|(&b, _)| b);
        let Some(victim) = victim else {
            return;
        };
        let home = self.home;
        let rec = self.blocks.get_mut(&victim).expect("victim exists");
        let targets = match &rec.state {
            SState::Shared(r) => r.set.clone(),
            SState::Exclusive(owner) => SharerSet::from_node(*owner),
            _ => unreachable!("victims are stable"),
        };
        step.events.push(ShadowDirEvent::Evicted {
            block: victim,
            invalidations: targets.len() as u16,
        });
        for n in &targets {
            step.sends.push(Message::new(home, n, victim, MsgKind::Inv));
        }
        rec.state = SState::Evicting { waiting: targets };
    }

    #[allow(clippy::too_many_lines)]
    fn request(&mut self, msg: Message, step: &mut ShadowStep) {
        let block = msg.block;
        let home = self.home;
        let kind = self.kind;
        let total = self.total;
        if matches!(
            self.blocks.entry(block).or_default().state,
            SState::Busy { .. } | SState::Evicting { .. }
        ) {
            // Requests against Busy/Evicting blocks are shelved unresolved.
            self.blocks
                .get_mut(&block)
                .expect("just inserted")
                .shelved
                .push_back(msg);
            return;
        }
        self.predict_eviction(block, step);
        let write = matches!(msg.kind, MsgKind::GetX | MsgKind::Upgrade);
        let (verify, mut notify) = self.resolve_mask(block, msg.src, write);
        let rec = self.blocks.get_mut(&block).expect("resolved above");
        match (&mut rec.state, msg.kind) {
            (SState::Idle, MsgKind::GetS) => {
                let mut r = Rep::default();
                insert_sharer(kind, &mut r, msg.src);
                rec.state = SState::Shared(r);
                step.data = true;
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataS {
                        version: rec.version,
                        token: rec.token,
                        verify,
                    },
                ));
            }
            (SState::Shared(r), MsgKind::GetS) => {
                if insert_sharer(kind, r, msg.src) {
                    step.events.push(ShadowDirEvent::Overflow);
                }
                step.data = true;
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataS {
                        version: rec.version,
                        token: rec.token,
                        verify,
                    },
                ));
            }
            (SState::Exclusive(owner), MsgKind::GetS) => {
                let owner = *owner;
                if owner == msg.src {
                    step.violations
                        .push(format!("{home}: owner {owner} re-requested {block}"));
                }
                rec.state = SState::Busy {
                    requester: msg.src,
                    want_exclusive: false,
                    upgrade_reply: false,
                    waiting: SharerSet::from_node(owner),
                    verify,
                };
                step.events.push(ShadowDirEvent::InvSent(owner));
                step.sends
                    .push(Message::new(home, owner, block, MsgKind::Inv));
            }
            (SState::Idle, MsgKind::GetX | MsgKind::Upgrade) => {
                rec.version += 1;
                rec.state = SState::Exclusive(msg.src);
                step.data = true;
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::DataX {
                        version: rec.version,
                        token: rec.token,
                        verify,
                    },
                ));
            }
            (SState::Shared(r), MsgKind::Upgrade)
                if exact_now(kind, r) && r.set.contains(msg.src) =>
            {
                if r.set.len() == 1 {
                    // Sole-sharer upgrade: the migratory pattern.
                    rec.version += 1;
                    rec.state = SState::Exclusive(msg.src);
                    step.sends.push(Message::new(
                        home,
                        msg.src,
                        block,
                        MsgKind::UpgradeAck {
                            version: rec.version,
                            migratory: true,
                            verify,
                        },
                    ));
                } else {
                    let waiting = decode_targets(kind, total, &r.set, r.broadcast, msg.src);
                    for n in &waiting {
                        step.events.push(ShadowDirEvent::InvSent(n));
                        step.sends.push(Message::new(home, n, block, MsgKind::Inv));
                    }
                    rec.state = SState::Busy {
                        requester: msg.src,
                        want_exclusive: true,
                        upgrade_reply: true,
                        waiting,
                        verify,
                    };
                }
            }
            (SState::Shared(r), MsgKind::GetX | MsgKind::Upgrade) => {
                let waiting = decode_targets(kind, total, &r.set, r.broadcast, msg.src);
                if waiting.is_empty() {
                    rec.version += 1;
                    rec.state = SState::Exclusive(msg.src);
                    step.data = true;
                    step.sends.push(Message::new(
                        home,
                        msg.src,
                        block,
                        MsgKind::DataX {
                            version: rec.version,
                            token: rec.token,
                            verify,
                        },
                    ));
                } else {
                    for n in &waiting {
                        step.events.push(ShadowDirEvent::InvSent(n));
                        step.sends.push(Message::new(home, n, block, MsgKind::Inv));
                    }
                    rec.state = SState::Busy {
                        requester: msg.src,
                        want_exclusive: true,
                        upgrade_reply: false,
                        waiting,
                        verify,
                    };
                }
            }
            (SState::Exclusive(owner), MsgKind::GetX | MsgKind::Upgrade) => {
                let owner = *owner;
                if owner == msg.src {
                    step.violations.push(format!(
                        "{home}: owner {owner} re-requested {block} exclusively"
                    ));
                }
                rec.state = SState::Busy {
                    requester: msg.src,
                    want_exclusive: true,
                    upgrade_reply: false,
                    waiting: SharerSet::from_node(owner),
                    verify,
                };
                step.events.push(ShadowDirEvent::InvSent(owner));
                step.sends
                    .push(Message::new(home, owner, block, MsgKind::Inv));
            }
            (state, k) => step.violations.push(format!(
                "{home}: request {k:?} in impossible state {state:?}"
            )),
        }
        step.sends.append(&mut notify);
    }

    fn self_inv(&mut self, msg: Message, writeback: Option<u64>, step: &mut ShadowStep) {
        let block = msg.block;
        let home = self.home;
        let kind = self.kind;
        let rec = self.blocks.entry(block).or_default();
        match &mut rec.state {
            SState::Shared(r)
                if writeback.is_none() && rep_admits(kind, &r.set, r.broadcast, msg.src) =>
            {
                if exact_now(kind, r) {
                    r.set.remove(msg.src);
                }
                if !r.broadcast && r.set.is_empty() {
                    rec.state = SState::Idle;
                }
                rec.mask.push(SMask {
                    node: msg.src,
                    relinquished_exclusive: false,
                    timely: true,
                });
            }
            SState::Exclusive(owner) if *owner == msg.src => {
                let Some(token) = writeback else {
                    step.violations.push(format!(
                        "{home}: exclusive relinquish of {block} without writeback"
                    ));
                    return;
                };
                if token < rec.token {
                    step.violations.push(format!(
                        "{home}: {block} writeback token {token} regressed below {}",
                        rec.token
                    ));
                }
                rec.token = token;
                rec.state = SState::Idle;
                rec.mask.push(SMask {
                    node: msg.src,
                    relinquished_exclusive: true,
                    timely: true,
                });
                step.data = true;
            }
            SState::Busy { waiting, .. } if waiting.contains(msg.src) => {
                // Crossed the Inv in flight: serves as the awaited ack, but
                // the verdict is late — the conflicting request is already
                // in service. The node's real ack is now an orphan.
                waiting.remove(msg.src);
                rec.stale_acks.insert(msg.src);
                if let Some(token) = writeback {
                    if token < rec.token {
                        step.violations.push(format!(
                            "{home}: {block} writeback token {token} regressed below {}",
                            rec.token
                        ));
                    }
                    rec.token = token;
                    step.data = true;
                }
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::VerifyCorrect { timely: false },
                ));
                self.finish_busy(block, step);
            }
            SState::Evicting { waiting } if waiting.contains(msg.src) => {
                // Crossed an eviction's Inv: same late-ack treatment, the
                // entry just settles to Idle when the last holder answers.
                waiting.remove(msg.src);
                rec.stale_acks.insert(msg.src);
                if let Some(token) = writeback {
                    if token < rec.token {
                        step.violations.push(format!(
                            "{home}: {block} writeback token {token} regressed below {}",
                            rec.token
                        ));
                    }
                    rec.token = token;
                    step.data = true;
                }
                step.sends.push(Message::new(
                    home,
                    msg.src,
                    block,
                    MsgKind::VerifyCorrect { timely: false },
                ));
                self.finish_evicting(block, step);
            }
            _ => step.events.push(ShadowDirEvent::Stale(msg.src)),
        }
    }

    fn inv_ack(
        &mut self,
        msg: Message,
        had_copy: bool,
        dirty_token: Option<u64>,
        step: &mut ShadowStep,
    ) {
        let block = msg.block;
        let rec = self.blocks.entry(block).or_default();
        if rec.stale_acks.remove(msg.src) {
            if had_copy {
                step.violations.push(format!(
                    "{}: {block} orphaned ack from {} carried a copy",
                    self.home, msg.src
                ));
            }
            step.events.push(ShadowDirEvent::Stale(msg.src));
            return;
        }
        match &mut rec.state {
            SState::Busy { waiting, .. } if waiting.contains(msg.src) => {
                waiting.remove(msg.src);
                if let Some(token) = dirty_token {
                    if token < rec.token {
                        step.violations.push(format!(
                            "{}: {block} writeback token {token} regressed below {}",
                            self.home, rec.token
                        ));
                    }
                    rec.token = token;
                    step.data = true;
                }
                step.events.push(ShadowDirEvent::InvAcked {
                    from: msg.src,
                    had_copy,
                });
                self.finish_busy(block, step);
            }
            SState::Evicting { waiting } if waiting.contains(msg.src) => {
                waiting.remove(msg.src);
                if let Some(token) = dirty_token {
                    if token < rec.token {
                        step.violations.push(format!(
                            "{}: {block} writeback token {token} regressed below {}",
                            self.home, rec.token
                        ));
                    }
                    rec.token = token;
                    step.data = true;
                }
                step.events.push(ShadowDirEvent::InvAcked {
                    from: msg.src,
                    had_copy,
                });
                self.finish_evicting(block, step);
            }
            _ => step.events.push(ShadowDirEvent::Stale(msg.src)),
        }
    }

    /// Once the last eviction acknowledgement lands, the entry frees and any
    /// requests shelved behind the eviction replay.
    fn finish_evicting(&mut self, block: BlockId, step: &mut ShadowStep) {
        let rec = self.blocks.get_mut(&block).expect("evicting block exists");
        let SState::Evicting { waiting } = &rec.state else {
            return;
        };
        if !waiting.is_empty() {
            return;
        }
        rec.state = SState::Idle;
        step.reinject.extend(rec.shelved.drain(..));
    }

    fn finish_busy(&mut self, block: BlockId, step: &mut ShadowStep) {
        let home = self.home;
        let kind = self.kind;
        let rec = self.blocks.get_mut(&block).expect("busy block exists");
        let (requester, want_exclusive, upgrade_reply, verify) = match &rec.state {
            SState::Busy {
                requester,
                want_exclusive,
                upgrade_reply,
                waiting,
                verify,
            } => {
                if !waiting.is_empty() {
                    return;
                }
                (*requester, *want_exclusive, *upgrade_reply, *verify)
            }
            _ => return,
        };
        if want_exclusive {
            rec.version += 1;
            rec.state = SState::Exclusive(requester);
            let reply = if upgrade_reply {
                MsgKind::UpgradeAck {
                    version: rec.version,
                    migratory: false,
                    verify,
                }
            } else {
                MsgKind::DataX {
                    version: rec.version,
                    token: rec.token,
                    verify,
                }
            };
            step.sends.push(Message::new(home, requester, block, reply));
        } else {
            let mut r = Rep::default();
            insert_sharer(kind, &mut r, requester);
            rec.state = SState::Shared(r);
            step.sends.push(Message::new(
                home,
                requester,
                block,
                MsgKind::DataS {
                    version: rec.version,
                    token: rec.token,
                    verify,
                },
            ));
        }
        step.data |= !upgrade_reply;
        step.reinject.extend(rec.shelved.drain(..));
    }
}
