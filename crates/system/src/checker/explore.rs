//! Exhaustive small-configuration model checker (`ltp check`).
//!
//! Enumerates the **full reachable state space** of a tiny machine — real
//! [`NodeCache`] and [`Directory`] components, modeled per-edge FIFO
//! channels and per-home service queues — over *every* interleaving of
//! processor issue, self-invalidation, message delivery, and directory
//! service. The invariant catalog (module docs of [`crate::checker`]) is
//! asserted in every discovered state; a violation yields the shortest
//! event trace that reaches it (BFS order), printed as a replayable
//! counterexample.
//!
//! This is deliberately a zero-dependency mini-Murphi: exhaustive up to the
//! configured op budget, deterministic, and fast enough for CI because the
//! interesting protocol races (self-invalidation crossing an invalidation,
//! upgrade losing to a remote write, broadcast overflow, mask resolution
//! order) all manifest with 2–3 nodes and 1–2 blocks.

use std::collections::{BTreeMap, VecDeque};

use ltp_core::{BlockId, FxHashMap, NodeId, VerifyOutcome};
use ltp_dsm::{
    AccessOutcome, DirStateView, Directory, DirectoryKind, Line, Message, MsgKind, NodeCache,
};

use super::shadow::rep_admits;

/// The configuration a [`explore`] run enumerates.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Machine size (keep at 2–3; the state space is exponential).
    pub nodes: u16,
    /// Number of distinct blocks in the op alphabet (1–3; homes are
    /// `block % nodes`, so 3 blocks on 2 nodes co-home a pair — the
    /// geometry that exercises sparse-directory evictions).
    pub blocks: u64,
    /// Reads/writes each node may issue (the run budget).
    pub ops_per_node: u32,
    /// Directory sharer organization under test.
    pub directory: DirectoryKind,
    /// Abort (with `truncated = true`) after this many discovered states.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            nodes: 2,
            blocks: 1,
            ops_per_node: 3,
            directory: DirectoryKind::Full,
            max_states: 4_000_000,
        }
    }
}

impl ExploreConfig {
    fn home_of(&self, block: BlockId) -> NodeId {
        NodeId::new((block.index() % u64::from(self.nodes)) as u16)
    }
}

/// The shortest trace reaching an invariant violation.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The failed catalog row.
    pub invariant: &'static str,
    /// Evidence from the violating state.
    pub detail: String,
    /// Transition labels from the initial state to the violation, in order.
    pub trace: Vec<String>,
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Distinct reachable states discovered.
    pub states: usize,
    /// Transitions taken (edges of the reachability graph).
    pub transitions: usize,
    /// The first (shortest, by BFS) violation, if any.
    pub violation: Option<CounterExample>,
    /// True when `max_states` stopped the search before exhaustion.
    pub truncated: bool,
}

/// One per-node program: a budget of ops and the op currently stalled on a
/// miss (block, is_write).
#[derive(Debug, Clone)]
struct Run {
    remaining: u32,
    blocked: Option<(BlockId, bool)>,
}

#[derive(Debug, Clone)]
struct State {
    caches: Vec<NodeCache>,
    dirs: Vec<Directory>,
    /// Point-to-point FIFO channels, the NI-serialization model. Empty
    /// channels are removed so encodings stay canonical.
    edges: BTreeMap<(u16, u16), VecDeque<Message>>,
    /// Per-home directory service queues (arrival order).
    engines: Vec<VecDeque<Message>>,
    runs: Vec<Run>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    /// Node issues a read (`false`) or write (`true`) to a block.
    Issue(u16, u64, bool),
    /// Node speculatively self-invalidates a valid, non-pending line.
    SelfInv(u16, u64),
    /// Deliver the head of one channel.
    Deliver(u16, u16),
    /// The home's engine services the head of its queue.
    Service(u16),
}

fn label(st: &State, c: Choice) -> String {
    match c {
        Choice::Issue(n, b, w) => {
            format!("n{n}: {} b{b}", if w { "write" } else { "read" })
        }
        Choice::SelfInv(n, b) => format!("n{n}: self-invalidate b{b}"),
        Choice::Deliver(s, d) => {
            let kind = st
                .edges
                .get(&(s, d))
                .and_then(|q| q.front())
                .map_or_else(|| "?".to_string(), |m| format!("{:?}", m.kind));
            format!("deliver n{s}->n{d}: {kind}")
        }
        Choice::Service(h) => {
            let kind = st.engines[usize::from(h)]
                .front()
                .map_or_else(|| "?".to_string(), |m| format!("{:?}", m.kind));
            format!("h{h}: service {kind}")
        }
    }
}

fn choices(cfg: &ExploreConfig, st: &State) -> Vec<Choice> {
    let mut out = Vec::new();
    for n in 0..cfg.nodes {
        let run = &st.runs[usize::from(n)];
        if run.blocked.is_none() && run.remaining > 0 {
            for b in 0..cfg.blocks {
                out.push(Choice::Issue(n, b, false));
                out.push(Choice::Issue(n, b, true));
            }
        }
        for (b, _) in st.caches[usize::from(n)].lines() {
            if run.blocked.is_none_or(|(pb, _)| pb != b) {
                out.push(Choice::SelfInv(n, b.index()));
            }
        }
    }
    // `lines()` iterates a hash map; keep choice order canonical.
    out.sort_by_key(|c| match *c {
        Choice::Issue(n, b, w) => (0, n, b, u16::from(w)),
        Choice::SelfInv(n, b) => (1, n, b, 0),
        _ => unreachable!(),
    });
    for (&(s, d), q) in &st.edges {
        if !q.is_empty() {
            out.push(Choice::Deliver(s, d));
        }
    }
    for h in 0..cfg.nodes {
        if !st.engines[usize::from(h)].is_empty() {
            out.push(Choice::Service(h));
        }
    }
    out
}

fn push_edge(st: &mut State, msg: Message) {
    st.edges
        .entry((msg.src.index() as u16, msg.dst.index() as u16))
        .or_default()
        .push_back(msg);
}

fn directory_bound(kind: MsgKind) -> bool {
    matches!(
        kind,
        MsgKind::GetS
            | MsgKind::GetX
            | MsgKind::Upgrade
            | MsgKind::SelfInvClean
            | MsgKind::SelfInvDirty { .. }
            | MsgKind::InvAck { .. }
    )
}

/// Applies one transition. `Err` is a transition-level violation (a message
/// that cannot legally be delivered in the source state).
fn step(cfg: &ExploreConfig, st: &State, c: Choice) -> Result<State, (&'static str, String)> {
    let mut next = st.clone();
    match c {
        Choice::Issue(n, b, is_write) => {
            let node = NodeId::new(n);
            let block = BlockId::new(b);
            let run = &mut next.runs[usize::from(n)];
            run.remaining -= 1;
            match next.caches[usize::from(n)].access(block, is_write) {
                AccessOutcome::Hit { .. } => {}
                AccessOutcome::Miss(kind) => {
                    next.runs[usize::from(n)].blocked = Some((block, is_write));
                    push_edge(
                        &mut next,
                        Message::new(node, cfg.home_of(block), block, kind),
                    );
                }
            }
        }
        Choice::SelfInv(n, b) => {
            let node = NodeId::new(n);
            let block = BlockId::new(b);
            let kind = next.caches[usize::from(n)]
                .self_invalidate(block)
                .expect("choice enumerated on a valid line");
            push_edge(
                &mut next,
                Message::new(node, cfg.home_of(block), block, kind),
            );
        }
        Choice::Deliver(s, d) => {
            let msg = {
                let q = next.edges.get_mut(&(s, d)).expect("choice on live edge");
                let m = q.pop_front().expect("choice on non-empty edge");
                if q.is_empty() {
                    next.edges.remove(&(s, d));
                }
                m
            };
            if directory_bound(msg.kind) {
                next.engines[usize::from(d)].push_back(msg);
            } else {
                match msg.kind {
                    MsgKind::Inv => {
                        let resp = next.caches[usize::from(d)].handle_inv(msg.block);
                        push_edge(
                            &mut next,
                            Message::new(
                                msg.dst,
                                msg.src,
                                msg.block,
                                MsgKind::InvAck {
                                    had_copy: resp.had_copy,
                                    dirty_token: resp.dirty_token,
                                },
                            ),
                        );
                    }
                    MsgKind::VerifyCorrect { .. } => {}
                    _ => {
                        // A fill must land on the node's outstanding miss.
                        let run = &mut next.runs[usize::from(d)];
                        if run.blocked.is_none_or(|(b, _)| b != msg.block) {
                            return Err((
                                "conservation",
                                format!(
                                    "n{d} received {:?} for b{} with no miss outstanding",
                                    msg.kind,
                                    msg.block.index()
                                ),
                            ));
                        }
                        run.blocked = None;
                        next.caches[usize::from(d)].apply_reply(msg.block, msg.kind);
                    }
                }
            }
        }
        Choice::Service(h) => {
            let msg = next.engines[usize::from(h)]
                .pop_front()
                .expect("choice on non-empty engine");
            let dir_step = next.dirs[usize::from(h)].process(msg);
            for m in dir_step.sends {
                push_edge(&mut next, m);
            }
            for m in dir_step.reinject {
                next.engines[usize::from(h)].push_back(m);
            }
        }
    }
    Ok(next)
}

// --- invariant catalog over a full explorer state -------------------------

#[allow(clippy::too_many_lines)]
fn check_state(cfg: &ExploreConfig, st: &State) -> Option<(&'static str, String)> {
    // Holder map: block -> [(node, line)].
    let mut holders: BTreeMap<BlockId, Vec<(NodeId, Line)>> = BTreeMap::new();
    for (n, cache) in st.caches.iter().enumerate() {
        for (b, line) in cache.lines() {
            holders
                .entry(b)
                .or_default()
                .push((NodeId::new(n as u16), line));
        }
    }

    // SWMR: a writable copy excludes every other copy.
    for (b, hs) in &holders {
        let writers: Vec<NodeId> = hs
            .iter()
            .filter(|(_, l)| l.exclusive)
            .map(|&(n, _)| n)
            .collect();
        if writers.len() > 1 {
            return Some((
                "swmr",
                format!(
                    "b{} held exclusive by {writers:?} simultaneously",
                    b.index()
                ),
            ));
        }
        if writers.len() == 1 && hs.len() > 1 {
            return Some((
                "swmr",
                format!(
                    "b{} held exclusive by {} alongside {} other cop(ies)",
                    b.index(),
                    writers[0],
                    hs.len() - 1
                ),
            ));
        }
    }

    // Cache/directory agreement, per tracked record at the block's home.
    for dir in &st.dirs {
        for (b, rec) in dir.blocks_view() {
            let hs = holders.get(&b).map_or(&[][..], Vec::as_slice);
            match &rec.state {
                DirStateView::Idle => {
                    if let Some(&(n, _)) = hs.first() {
                        return Some((
                            "agreement",
                            format!("b{} Idle at home yet cached by {n}", b.index()),
                        ));
                    }
                }
                DirStateView::Shared { sharers, broadcast } => {
                    for &(n, line) in hs {
                        if line.exclusive {
                            return Some((
                                "swmr",
                                format!("b{} Shared at home yet exclusive at {n}", b.index()),
                            ));
                        }
                        if !rep_admits(cfg.directory, sharers, *broadcast, n) {
                            return Some((
                                "agreement",
                                format!(
                                    "b{} cached by {n} but the sharer rep does not admit it",
                                    b.index()
                                ),
                            ));
                        }
                        if line.token != rec.token {
                            return Some((
                                "freshness",
                                format!(
                                    "b{}: {n} reads token {} while home serialized {}",
                                    b.index(),
                                    line.token,
                                    rec.token
                                ),
                            ));
                        }
                    }
                }
                DirStateView::Exclusive(owner) => {
                    for &(n, line) in hs {
                        if n != *owner {
                            return Some((
                                "swmr",
                                format!("b{} owned by {owner} yet also cached by {n}", b.index()),
                            ));
                        }
                        // A read-only copy at the owner is legal only in the
                        // sole-sharer upgrade window (UpgradeAck in flight),
                        // where the token still matches the home's.
                        if line.exclusive {
                            if line.token < rec.token {
                                return Some((
                                    "freshness",
                                    format!(
                                        "b{}: owner {owner} holds token {} below home's {}",
                                        b.index(),
                                        line.token,
                                        rec.token
                                    ),
                                ));
                            }
                        } else if line.token != rec.token {
                            return Some((
                                "agreement",
                                format!(
                                    "b{}: upgrading owner {owner} holds token {} != home's {}",
                                    b.index(),
                                    line.token,
                                    rec.token
                                ),
                            ));
                        }
                    }
                }
                DirStateView::Busy {
                    requester, waiting, ..
                } => {
                    for &(n, _) in hs {
                        if n != *requester && !waiting.contains(n) {
                            return Some((
                                "agreement",
                                format!("b{} Busy at home yet cached by bystander {n}", b.index()),
                            ));
                        }
                    }
                }
                DirStateView::Evicting { waiting } => {
                    // Mid-eviction the only legal copies are at holders whose
                    // invalidation is still in flight.
                    for &(n, _) in hs {
                        if !waiting.contains(n) {
                            return Some((
                                "agreement",
                                format!(
                                    "b{} Evicting at home yet cached by bystander {n}",
                                    b.index()
                                ),
                            ));
                        }
                    }
                }
            }
            for m in &rec.mask {
                if holders
                    .get(&b)
                    .is_some_and(|hs| hs.iter().any(|&(n, _)| n == m.node))
                {
                    return Some((
                        "mask",
                        format!(
                            "b{}: {} is in the verification mask yet holds a copy",
                            b.index(),
                            m.node
                        ),
                    ));
                }
            }
        }
    }
    None
}

// --- canonical state encoding (the visited-set key) -----------------------

fn enc_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn enc_verify(out: &mut Vec<u8>, v: Option<VerifyOutcome>) {
    out.push(match v {
        None => 0,
        Some(VerifyOutcome::Correct) => 1,
        Some(VerifyOutcome::Premature) => 2,
    });
}

fn enc_msg(out: &mut Vec<u8>, m: &Message) {
    enc_u16(out, m.src.index() as u16);
    enc_u16(out, m.dst.index() as u16);
    enc_u64(out, m.block.index());
    match m.kind {
        MsgKind::GetS => out.push(0),
        MsgKind::GetX => out.push(1),
        MsgKind::Upgrade => out.push(2),
        MsgKind::SelfInvClean => out.push(3),
        MsgKind::SelfInvDirty { token } => {
            out.push(4);
            enc_u64(out, token);
        }
        MsgKind::Inv => out.push(5),
        MsgKind::InvAck {
            had_copy,
            dirty_token,
        } => {
            out.push(6);
            out.push(u8::from(had_copy));
            enc_u64(out, dirty_token.map_or(u64::MAX, |t| t));
            out.push(u8::from(dirty_token.is_some()));
        }
        MsgKind::DataS {
            version,
            token,
            verify,
        } => {
            out.push(7);
            enc_u32(out, version);
            enc_u64(out, token);
            enc_verify(out, verify);
        }
        MsgKind::DataX {
            version,
            token,
            verify,
        } => {
            out.push(8);
            enc_u32(out, version);
            enc_u64(out, token);
            enc_verify(out, verify);
        }
        MsgKind::UpgradeAck {
            version,
            migratory,
            verify,
        } => {
            out.push(9);
            enc_u32(out, version);
            out.push(u8::from(migratory));
            enc_verify(out, verify);
        }
        MsgKind::VerifyCorrect { timely } => {
            out.push(10);
            out.push(u8::from(timely));
        }
    }
}

fn encode(st: &State) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    for (n, cache) in st.caches.iter().enumerate() {
        out.push(b'C');
        enc_u16(&mut out, n as u16);
        let mut lines: Vec<(BlockId, Line)> = cache.lines().collect();
        lines.sort_by_key(|&(b, _)| b);
        for (b, line) in lines {
            enc_u64(&mut out, b.index());
            out.push(u8::from(line.exclusive) | (u8::from(line.dirty) << 1));
            enc_u64(&mut out, line.token);
        }
        let run = &st.runs[n];
        enc_u32(&mut out, run.remaining);
        match run.blocked {
            None => out.push(0),
            Some((b, w)) => {
                out.push(1 + u8::from(w));
                enc_u64(&mut out, b.index());
            }
        }
    }
    for dir in &st.dirs {
        out.push(b'D');
        let mut blocks: Vec<_> = dir.blocks_view().collect();
        blocks.sort_by_key(|&(b, _)| b);
        for (b, rec) in blocks {
            enc_u64(&mut out, b.index());
            enc_u32(&mut out, rec.version);
            enc_u64(&mut out, rec.token);
            match &rec.state {
                DirStateView::Idle => out.push(0),
                DirStateView::Shared { sharers, broadcast } => {
                    out.push(1);
                    out.push(u8::from(*broadcast));
                    enc_u16(&mut out, sharers.len() as u16);
                    for n in sharers {
                        enc_u16(&mut out, n.index() as u16);
                    }
                }
                DirStateView::Exclusive(o) => {
                    out.push(2);
                    enc_u16(&mut out, o.index() as u16);
                }
                DirStateView::Busy {
                    requester,
                    want_exclusive,
                    upgrade_reply,
                    waiting,
                    verify,
                } => {
                    out.push(3);
                    enc_u16(&mut out, requester.index() as u16);
                    out.push(u8::from(*want_exclusive) | (u8::from(*upgrade_reply) << 1));
                    enc_verify(&mut out, *verify);
                    enc_u16(&mut out, waiting.len() as u16);
                    for n in waiting {
                        enc_u16(&mut out, n.index() as u16);
                    }
                }
                DirStateView::Evicting { waiting } => {
                    out.push(4);
                    enc_u16(&mut out, waiting.len() as u16);
                    for n in waiting {
                        enc_u16(&mut out, n.index() as u16);
                    }
                }
            }
            out.push(rec.mask.len() as u8);
            for m in &rec.mask {
                enc_u16(&mut out, m.node.index() as u16);
                out.push(u8::from(m.relinquished_exclusive) | (u8::from(m.timely) << 1));
            }
            out.push(rec.pending.len() as u8);
            for m in &rec.pending {
                enc_msg(&mut out, m);
            }
            enc_u16(&mut out, rec.stale_acks.len() as u16);
            for n in rec.stale_acks {
                enc_u16(&mut out, n.index() as u16);
            }
        }
    }
    for (&(s, d), q) in &st.edges {
        out.push(b'E');
        enc_u16(&mut out, s);
        enc_u16(&mut out, d);
        for m in q {
            enc_msg(&mut out, m);
        }
    }
    for (h, q) in st.engines.iter().enumerate() {
        if !q.is_empty() {
            out.push(b'Q');
            enc_u16(&mut out, h as u16);
            for m in q {
                enc_msg(&mut out, m);
            }
        }
    }
    out
}

// --- the search -----------------------------------------------------------

const ROOT: u32 = u32::MAX;

struct Meta {
    parent: u32,
    label: String,
}

fn trace_to(meta: &[Meta], mut id: u32, last: Option<String>) -> Vec<String> {
    let mut trace = Vec::new();
    while id != ROOT {
        let m = &meta[id as usize];
        trace.push(m.label.clone());
        id = m.parent;
    }
    trace.reverse();
    trace.extend(last);
    trace
}

/// Exhaustively explores `cfg`, checking the invariant catalog in every
/// reachable state. Deterministic: identical configs yield identical
/// outcomes (state and transition counts included).
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    let initial = State {
        caches: (0..cfg.nodes)
            .map(|n| NodeCache::new(NodeId::new(n)))
            .collect(),
        dirs: (0..cfg.nodes)
            .map(|n| Directory::with_kind(NodeId::new(n), cfg.directory, cfg.nodes))
            .collect(),
        edges: BTreeMap::new(),
        engines: (0..cfg.nodes).map(|_| VecDeque::new()).collect(),
        runs: (0..cfg.nodes)
            .map(|_| Run {
                remaining: cfg.ops_per_node,
                blocked: None,
            })
            .collect(),
    };

    let mut index: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
    let mut meta: Vec<Meta> = Vec::new();
    let mut frontier: VecDeque<(State, u32)> = VecDeque::new();
    let mut transitions = 0usize;
    let mut truncated = false;

    index.insert(encode(&initial), 0);
    meta.push(Meta {
        parent: ROOT,
        label: String::new(),
    });
    if let Some((invariant, detail)) = check_state(cfg, &initial) {
        return ExploreOutcome {
            states: 1,
            transitions: 0,
            violation: Some(CounterExample {
                invariant,
                detail,
                trace: Vec::new(),
            }),
            truncated: false,
        };
    }
    frontier.push_back((initial, 0));

    while let Some((st, id)) = frontier.pop_front() {
        let cs = choices(cfg, &st);
        if cs.is_empty() {
            // Terminal state: legal only when every program ran to
            // completion with nothing in flight.
            let stuck = st
                .runs
                .iter()
                .any(|r| r.remaining > 0 || r.blocked.is_some());
            if stuck {
                return ExploreOutcome {
                    states: index.len(),
                    transitions,
                    violation: Some(CounterExample {
                        invariant: "conservation",
                        detail: "deadlock: blocked program with no deliverable message".into(),
                        trace: trace_to(&meta, id, None),
                    }),
                    truncated,
                };
            }
            continue;
        }
        for c in cs {
            transitions += 1;
            let lbl = label(&st, c);
            let next = match step(cfg, &st, c) {
                Ok(next) => next,
                Err((invariant, detail)) => {
                    return ExploreOutcome {
                        states: index.len(),
                        transitions,
                        violation: Some(CounterExample {
                            invariant,
                            detail,
                            trace: trace_to(&meta, id, Some(lbl)),
                        }),
                        truncated,
                    };
                }
            };
            let key = encode(&next);
            if index.contains_key(&key) {
                continue;
            }
            let next_id = meta.len() as u32;
            index.insert(key, next_id);
            meta.push(Meta {
                parent: id,
                label: lbl,
            });
            if let Some((invariant, detail)) = check_state(cfg, &next) {
                return ExploreOutcome {
                    states: index.len(),
                    transitions,
                    violation: Some(CounterExample {
                        invariant,
                        detail,
                        trace: trace_to(&meta, next_id, None),
                    }),
                    truncated,
                };
            }
            if index.len() >= cfg.max_states {
                truncated = true;
                frontier.clear();
                break;
            }
            frontier.push_back((next, next_id));
        }
        if truncated {
            break;
        }
    }

    ExploreOutcome {
        states: index.len(),
        transitions,
        violation: None,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_one_block_full_is_clean() {
        let out = explore(&ExploreConfig {
            nodes: 2,
            blocks: 1,
            ops_per_node: 2,
            directory: DirectoryKind::Full,
            max_states: 1_000_000,
        });
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(!out.truncated);
        assert!(out.states > 10);
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ExploreConfig {
            nodes: 2,
            blocks: 1,
            ops_per_node: 2,
            directory: DirectoryKind::LimitedPtr { pointers: 1 },
            max_states: 1_000_000,
        };
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }
}
