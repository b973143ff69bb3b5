//! Exhaustive small-configuration model checker (`ltp check`).
//!
//! Enumerates the **full reachable state space** of a tiny machine — real
//! [`NodeCache`] and [`Directory`] components, modeled per-edge FIFO
//! channels and per-home service queues — over *every* interleaving of
//! processor issue, self-invalidation, message delivery, and directory
//! service. Each discovered state is viewed through a [`MachineView`]
//! and checked against the catalog of [`crate::checker`]: its ground rows
//! after every transition, the whole end-of-run audit
//! ([`quiescence_violations`]) at every state with no transition left. A
//! violation yields the shortest event trace that reaches it (BFS order),
//! printed as a replayable counterexample.
//!
//! This is deliberately a zero-dependency mini-Murphi: exhaustive up to the
//! configured op budget, deterministic, and fast enough for CI because the
//! interesting protocol races (self-invalidation crossing an invalidation,
//! upgrade losing to a remote write, broadcast overflow, mask resolution
//! order) all manifest with 2–3 nodes and 1–2 blocks.

use std::collections::{BTreeMap, VecDeque};

use ltp_core::{BlockId, FxHashMap, NodeId, VerifyOutcome};
use ltp_dsm::{
    AccessOutcome, DirState, Directory, DirectoryKind, Message, MsgKind, NodeCache, SystemConfig,
};

use super::{ground_violations, quiescence_violations, MachineView};

/// The configuration a [`explore`] run enumerates.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Machine size (keep at 2–3; the state space is exponential).
    pub nodes: u16,
    /// Number of distinct blocks in the op alphabet (1–3; homes are
    /// [`SystemConfig::home_of`], `block % nodes`, so 3 blocks on 2 nodes
    /// co-home a pair — the geometry that exercises sparse-directory
    /// evictions).
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

impl State {
    /// Empty caches and directories, idle channels, full op budgets.
    fn initial(cfg: &ExploreConfig) -> State {
        State {
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
        }
    }
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

/// Applies one transition. `Err` is a transition-level violation (a message
/// that cannot legally be delivered in the source state).
fn step(sys: &SystemConfig, st: &State, c: Choice) -> Result<State, (&'static str, String)> {
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
                        Message::new(node, sys.home_of(block), block, kind),
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
                Message::new(node, sys.home_of(block), block, kind),
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
            if msg.kind.to_directory() {
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

/// Views `st` for the shared catalog. Queued and in-flight messages
/// count as engine backlog.
fn view<'a>(cfg: &ExploreConfig, st: &'a State) -> MachineView<'a> {
    let mut view = MachineView {
        nodes: cfg.nodes,
        directory: cfg.directory,
        engine_backlog: st
            .engines
            .iter()
            .chain(st.edges.values())
            .map(VecDeque::len)
            .sum(),
        ..MachineView::default()
    };
    view.add(&st.dirs, &st.caches);
    view
}

/// The first ground-row violation in a state's view, if any.
fn ground_violation(view: &MachineView<'_>) -> Option<(&'static str, String)> {
    let mut first = None;
    ground_violations(view, &mut |invariant, detail| {
        first.get_or_insert((invariant, detail));
    });
    first
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

/// The visited-set key of `st`, whose `view` supplies the cached
/// lines and directory records (both sorted, so the key is canonical).
fn encode(st: &State, view: &MachineView<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    let mut lines = view.cache_lines.iter().peekable();
    for (n, run) in st.runs.iter().enumerate() {
        let node = NodeId::new(n as u16);
        out.push(b'C');
        enc_u16(&mut out, n as u16);
        while let Some((_, b, line)) = lines.next_if(|&&(p, ..)| p == node) {
            enc_u64(&mut out, b.index());
            out.push(u8::from(line.exclusive) | (u8::from(line.dirty) << 1));
            enc_u64(&mut out, line.token);
        }
        enc_u32(&mut out, run.remaining);
        match run.blocked {
            None => out.push(0),
            Some((b, w)) => {
                out.push(1 + u8::from(w));
                enc_u64(&mut out, b.index());
            }
        }
    }
    let mut blocks = view.dir_blocks.iter().peekable();
    for dir in &st.dirs {
        out.push(b'D');
        while let Some((_, b, rec)) = blocks.next_if(|&&(h, ..)| h == dir.home()) {
            enc_u64(&mut out, b.index());
            enc_u32(&mut out, rec.version);
            enc_u64(&mut out, rec.token);
            match &rec.state {
                DirState::Idle => out.push(0),
                DirState::Shared(s) => {
                    out.push(1);
                    out.push(u8::from(s.broadcast));
                    enc_u16(&mut out, s.set.len() as u16);
                    for n in &s.set {
                        enc_u16(&mut out, n.index() as u16);
                    }
                }
                DirState::Exclusive(o) => {
                    out.push(2);
                    enc_u16(&mut out, o.index() as u16);
                }
                DirState::Busy { waiting, grant } => {
                    // Tag 3 for a request's wait, 4 for an eviction's.
                    match grant {
                        Some(g) => {
                            out.push(3);
                            enc_u16(&mut out, g.requester.index() as u16);
                            out.push(u8::from(g.exclusive) | (u8::from(g.upgrade_reply) << 1));
                            enc_verify(&mut out, g.verify);
                        }
                        None => out.push(4),
                    }
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
            for n in &rec.stale_acks {
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

struct Meta {
    parent: u32,
    label: String,
}

/// The labels of the transitions from the initial state (id 0) to state
/// `id`, then `last`.
fn trace_to(meta: &[Meta], mut id: u32, last: Option<String>) -> Vec<String> {
    let mut trace = Vec::new();
    while id != 0 {
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
///
/// # Panics
///
/// Panics if `cfg.nodes` is below 2, the smallest machine a
/// [`SystemConfig`] describes.
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    // The modeled machine, for its block-to-home mapping.
    let sys = SystemConfig::builder()
        .nodes(cfg.nodes)
        .build()
        .expect("the explored machine has at least two nodes");
    let initial = State::initial(cfg);
    let mut index: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
    let mut meta: Vec<Meta> = Vec::new();
    let mut frontier: VecDeque<(State, u32)> = VecDeque::new();
    let mut transitions = 0usize;
    let mut truncated = false;

    // Each reached state is snapshotted once: the snapshot gives both its
    // visited-set key and, if the state is new, the ground rows' input.
    let snapshot = view(cfg, &initial);
    index.insert(encode(&initial, &snapshot), 0);
    meta.push(Meta {
        parent: 0,
        label: String::new(),
    });
    let found = |(invariant, detail), trace| {
        Some(CounterExample {
            invariant,
            detail,
            trace,
        })
    };
    let violation = 'search: {
        if let Some(v) = ground_violation(&snapshot) {
            break 'search found(v, Vec::new());
        }
        frontier.push_back((initial, 0));
        while let Some((st, id)) = frontier.pop_front() {
            let cs = choices(cfg, &st);
            if cs.is_empty() {
                // Terminal state: the end-of-run audit must pass. A program
                // blocked with nothing deliverable is an outstanding miss.
                if let Some(v) = quiescence_violations(&view(cfg, &st)).into_iter().next() {
                    break 'search found((v.invariant, v.detail), trace_to(&meta, id, None));
                }
                continue;
            }
            for c in cs {
                transitions += 1;
                let lbl = label(&st, c);
                let next = match step(&sys, &st, c) {
                    Ok(next) => next,
                    Err(v) => break 'search found(v, trace_to(&meta, id, Some(lbl))),
                };
                let snapshot = view(cfg, &next);
                let key = encode(&next, &snapshot);
                if index.contains_key(&key) {
                    continue;
                }
                let next_id = meta.len() as u32;
                index.insert(key, next_id);
                meta.push(Meta {
                    parent: id,
                    label: lbl,
                });
                if let Some(v) = ground_violation(&snapshot) {
                    break 'search found(v, trace_to(&meta, next_id, None));
                }
                if index.len() >= cfg.max_states {
                    truncated = true;
                    break 'search None;
                }
                frontier.push_back((next, next_id));
            }
        }
        None
    };

    ExploreOutcome {
        states: index.len(),
        transitions,
        violation,
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

    #[test]
    fn untracked_copy_breaks_agreement() {
        // A read-only copy installed behind the home's back: the directory
        // never recorded the block, so the copy cannot be accounted for.
        let cfg = ExploreConfig::default();
        let mut st = State::initial(&cfg);
        let block = BlockId::new(0);
        let cache = &mut st.caches[1];
        assert!(matches!(cache.access(block, false), AccessOutcome::Miss(_)));
        cache.apply_reply(
            block,
            MsgKind::DataS {
                version: 0,
                token: 0,
                verify: None,
            },
        );
        let (invariant, detail) =
            ground_violation(&view(&cfg, &st)).expect("untracked copy passed");
        assert_eq!(invariant, "agreement", "{detail}");
        assert!(detail.contains("untracked"), "{detail}");
    }
}
