//! The sharded simulation engine: one slice of the machine per worker.
//!
//! A [`Shard`] owns a contiguous range of nodes — one record per node
//! holding its CPU state, cache, policy, program, home directory,
//! protocol engine and network interface — plus one future-event list per
//! node. Within a clock window (see [`clock`]) a shard runs completely
//! independently; everything that crosses a shard boundary (protocol
//! messages, barrier arrivals, probe events) is buffered and exchanged by
//! the coordinating [`crate::Machine`] at window boundaries (see
//! [`channel`]).
//!
//! # Why sharded runs are bit-identical to serial runs
//!
//! Two properties combine to make the execution independent of the shard
//! count:
//!
//! 1. **Conservative windows.** The window length equals the minimum
//!    cross-node message latency (NI occupancy + network hop), so no event
//!    executed inside a window can schedule work on *another node* within
//!    the same window. Cross-node messages handed over after the window are
//!    always scheduled into windows that have not run yet.
//! 2. **Content-keyed event order.** Every event carries an [`EventKey`]
//!    derived from simulated content (event class, acting node, sender, and
//!    the sender's per-node FIFO sequence number). A node's same-cycle
//!    events pop in key order — a property of the simulated machine, not of
//!    which shard scheduled what first. Keys are unique per cycle (each
//!    node does one thing at a time; arrivals are FIFO-stamped), so
//!    `(cycle, key)` is a total order of the machine's events that every
//!    shard count reproduces exactly.
//!
//! The serial engine is the 1-shard instance of the same machinery — there
//! is no separate serial code path to diverge from.
//!
//! # Why a shard runs its window node by node
//!
//! The first property holds for nodes as much as for shards: inside a
//! window no node can reach another one, so the window's outcome does not
//! depend on how the nodes' events interleave — only each node's own
//! events must run in `(cycle, key)` order. A shard therefore keeps one
//! event list per node (ltp-sim's [`KeyedEventQueue`]) and runs a window
//! as a pass: node 0 to the window end, then node 1, and so on. This is
//! the same split `--shards N` makes, taken down to one node, and no
//! global order is kept at all. What the pass logs for the probes is put
//! back in serial `(cycle, key)` order by the observer (see
//! [`channel::ProbeEntry`]).
//!
//! The pass keeps the property by construction: a handler takes the local
//! index of the node it runs and schedules only onto that node (checked in
//! debug builds). Every message to another node leaves the same way,
//! through the outbox slot of its destination's shard, and reaches its
//! destination's list only after the pass: the shard drains its own slot
//! at the end of [`Shard::run_window`], the coordinator the other slots at
//! the boundary. Both go through [`Shard::deliver`], which checks in debug
//! builds that the delivery lies at or after the window end.

pub(crate) mod channel;
pub(crate) mod clock;
mod partition;

use std::any::Any;

use ltp_core::{
    BlockId, FxHashMap, NodeId, Pc, SelfInvalidationPolicy, SyncKind, Touch, VerifyOutcome,
};
use ltp_dsm::{
    AccessOutcome, DirEvent, DirStep, Directory, Message, MsgKind, NetIface, NodeCache,
    ProtocolEngine, SystemConfig,
};
use ltp_sim::{Cycle, KeyedEventQueue};
use ltp_workloads::{Lock, Op, Program};

use crate::probe::{ProbeCtx, SimEvent};
use crate::probes::CoreMetricsProbe;

use channel::{ProbeEntry, Stamped, SyncEvent, SyncRecord};

pub use partition::Partition;

/// Cycles between successive spin-test reads while a lock is observed held.
/// Coarse enough to keep event counts bounded, fine enough that waiting
/// times translate into visibly variable spin-trace lengths.
const SPIN_INTERVAL: u64 = 40;

/// The keyed events of a node's list.
///
/// A node's own CPU activity is the payload-free step of its list, and
/// the node's [`ExecState`] says what it does: a node waiting at a barrier
/// resumes from it (the barrier released at the previous window boundary;
/// scheduled by the coordinator, never by shards), any other node runs its
/// next operation or the next phase of its access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A protocol message arrives at `msg.dst`.
    Arrive(Message),
    /// The protocol engine at this home may start its next service.
    EngineDrain,
}

/// The deterministic same-cycle ordering key (see the module docs).
///
/// Packed into one integer that compares as the tuple of its fields, most
/// significant first: event class (CPU activity before arrivals before
/// engine drains before directory reinjections), then the acting node,
/// then the sender and its FIFO sequence number for arrivals.
///
/// Class-0 events (CPU steps and barrier resumes) are not keyed in the
/// event lists: each is its node's step, which pops first in its cycle —
/// exactly where its key sorts. Their keys still tag what they emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey(u128);

impl EventKey {
    fn new(class: u8, actor: u16, src: u16, seq: u64) -> Self {
        EventKey(
            u128::from(class) << 96
                | u128::from(actor) << 80
                | u128::from(src) << 64
                | u128::from(seq),
        )
    }

    /// A CPU step or barrier resume of node `p`. A node waiting at a
    /// barrier has no CPU step pending, so a node has at most one class-0
    /// event pending.
    fn cpu(p: NodeId) -> Self {
        EventKey::new(0, p.index() as u16, 0, 0)
    }

    /// `Arrive` at `dst`, uniquely identified by the sender and the sender's
    /// per-node send sequence number.
    fn arrive(dst: NodeId, src: NodeId, seq: u64) -> Self {
        EventKey::new(
            1,
            dst.index() as u16,
            ltp_dsm::mutation::arrive_key_src(src.index() as u16),
            seq,
        )
    }

    /// `EngineDrain` at home `h`. Duplicate same-cycle drains are idempotent
    /// (the engine dequeues nothing), so the insertion-sequence fallback
    /// never orders observable work.
    fn drain(h: NodeId) -> Self {
        EventKey::new(2, h.index() as u16, 0, 0)
    }

    /// A directory reinjection at home `h` (a request re-presented after a
    /// pending transaction completes). Stamped from the home's own
    /// reinjection counter — a separate class so it cannot collide with a
    /// genuine arrival from the same sender.
    fn reinject(h: NodeId, src: NodeId, seq: u64) -> Self {
        EventKey::new(3, h.index() as u16, src.index() as u16, seq)
    }
}

/// One access of a node's CPU: what it is, from which its pc, block and
/// write flag follow. The node's [`ExecState`] carries the same record
/// through every phase of the access — parked for the next step, blocked
/// on a fill, completing — so it is the only description of an access in
/// flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// An ordinary program load.
    Load { pc: Pc, block: BlockId },
    /// An ordinary program store; a flag set is one too (the flag's
    /// generation is the block token the write bumps).
    Store { pc: Pc, block: BlockId },
    /// The spin-test read of a lock acquisition, repeated until the lock
    /// looks free.
    LockTest(Lock),
    /// Observed free; after a randomized backoff, re-read to confirm it is
    /// still free before attempting the test-and-set. Most contenders see
    /// the winner's store at this point and go back to spinning without
    /// ever issuing the RMW — classic test-and-test-and-set with backoff,
    /// which keeps the thundering herd off the directory and makes
    /// lock-block traces vary from visit to visit.
    LockConfirm(Lock),
    /// Confirmed free: the test-and-set RMW. Its success is decided against
    /// *protocol-serialized* state: on a hit the line already holds write
    /// permission, so the swap applies in place; on a miss the fetch
    /// installs the line exclusively ([`NodeCache::access_tas`]) and the
    /// swap applies the moment the fill lands — before anything else can
    /// intervene, exactly like a hardware RMW holding the line.
    LockTas(Lock),
    /// The releasing store of a lock.
    LockRelease(Lock),
    /// The spin load of an ad-hoc flag wait.
    FlagWait { pc: Pc, block: BlockId },
}

impl Access {
    fn block(self) -> BlockId {
        match self {
            Access::Load { block, .. }
            | Access::Store { block, .. }
            | Access::FlagWait { block, .. } => block,
            Access::LockTest(lock)
            | Access::LockConfirm(lock)
            | Access::LockTas(lock)
            | Access::LockRelease(lock) => lock.block,
        }
    }

    fn pc(self) -> Pc {
        match self {
            Access::Load { pc, .. } | Access::Store { pc, .. } | Access::FlagWait { pc, .. } => pc,
            Access::LockTest(lock) | Access::LockConfirm(lock) => lock.spin_pc,
            Access::LockTas(lock) => lock.tas_pc,
            Access::LockRelease(lock) => lock.release_pc,
        }
    }

    fn is_write(self) -> bool {
        matches!(
            self,
            Access::Store { .. } | Access::LockTas(_) | Access::LockRelease(_)
        )
    }
}

/// What a node's CPU is doing: its next step reads this (see [`Event`]).
#[derive(Debug, Clone, Copy)]
enum ExecState {
    /// The next step fetches a fresh op.
    Ready,
    /// A lock stage or a flag's spin load waits for its (next) try: the
    /// next step issues it.
    Parked(Access),
    /// The access missed; its fill completes it.
    Blocked(Access),
    /// The access completed (hit or fill applied) and the CPU is waiting out
    /// its latency; the next step runs what follows it. Deferring that
    /// keeps its *state* changes (lock transitions, sync flushes) at the
    /// same timestamp as the messages they emit — running them early would
    /// let an invalidation arriving in between observe a cache the flush
    /// has already mutated.
    Completing {
        access: Access,
        /// The outcome of a [`Access::LockTas`], decided when the access
        /// completed (only its consequences wait); `false` for any other
        /// access.
        tas_won: bool,
    },
    /// Waiting at a barrier.
    InBarrier(u32),
    /// Program complete.
    Finished,
}

/// One node: processor (program interpreter), cache and policy, and the
/// home side — directory, protocol engine and network interface.
struct Node {
    id: NodeId,
    cache: NodeCache,
    policy: Box<dyn SelfInvalidationPolicy>,
    program: Box<dyn Program>,
    exec: ExecState,
    /// Cumulative failed lock attempts — execution state (it seeds the
    /// deterministic backoff), not a metric.
    lock_failures: u64,
    /// Cycle of the most recent op fetch — the node's last forward
    /// progress, reported by the stuck-run watchdog.
    last_progress: Cycle,
    /// Operations this node has retired (fetched from its program).
    ops_retired: u64,
    /// The lock blocks this node holds, in acquisition order: added on a
    /// won test-and-set, dropped on release. Read only by the stuck-run
    /// diagnosis, which names a node that finished holding a lock.
    held_locks: Vec<BlockId>,
    /// Flag-wait progress: how many generations of each flag block this
    /// node has consumed. The flag's current generation is the block's
    /// data token (its write count), so spins observe real coherence state
    /// — a stale cached copy really does show the old generation.
    flag_waited: FxHashMap<BlockId, u64>,
    /// The directory of the blocks homed here, the engine that services
    /// it, and the interface every message this node sends departs from.
    dir: Directory,
    engine: ProtocolEngine,
    ni: NetIface,
    /// Per-block timestamp of the home's last departed directory send.
    ///
    /// The pipelined engine completes short (control) services faster than
    /// long (data) ones, so a later-serviced `Inv` could otherwise depart
    /// before an earlier grant for the same block and overtake it on the
    /// (per source→destination FIFO) network — delivering an invalidation
    /// for a copy that has not arrived yet. Directory sends for one block
    /// therefore depart in service order.
    send_order: FxHashMap<BlockId, Cycle>,
    /// FIFO sequence of the messages this node sends (part of arrival
    /// event keys).
    send_seq: u64,
    /// Sequence of this home's directory reinjections.
    reinject_seq: u64,
}

impl Node {
    /// The departure of a directory send for `block` whose service is
    /// `done`: no earlier than the block's previous send (see
    /// `send_order`).
    fn dir_depart(&mut self, block: BlockId, done: Cycle) -> Cycle {
        let last = self.send_order.entry(block).or_insert(Cycle::ZERO);
        *last = done.max(*last);
        *last
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("exec", &self.exec)
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// One shard: a contiguous node range of the machine with one event list
/// per node, plus the boundary buffers the coordinator drains.
#[derive(Debug)]
pub(crate) struct Shard {
    cfg: SystemConfig,
    part: Partition,
    /// This shard's index and first owned node (`nodes` and the event
    /// lists are indexed by `node - lo`).
    index: usize,
    lo: usize,
    nodes: Vec<Node>,
    /// The future-event lists, one per local node; class-0 events are
    /// each node's step (see [`Event`]).
    events: KeyedEventQueue<EventKey, Event>,
    /// The local node whose events the pass is running: the only node a
    /// handler schedules onto.
    cur: usize,
    /// The directory service output buffer, reused by every service.
    dir_step: DirStep,
    /// Per-destination-shard buffers of messages to other nodes. The
    /// shard drains its own slot at the end of each window, the
    /// coordinator the others at the boundary.
    outbox: Vec<Vec<Stamped>>,
    /// Barrier arrivals and program completions this window.
    sync_log: Vec<SyncRecord>,
    /// Probe-visible events this window (only populated when generic probes
    /// are attached; see `log_events`).
    probe_log: Vec<ProbeEntry>,
    /// Whether probe-visible events are logged for boundary replay.
    log_events: bool,
    /// The built-in core-metrics observer, statically dispatched on the hot
    /// path; one per shard, merged by the coordinator at `finish`.
    core: Option<CoreMetricsProbe>,
    /// `(cycle, key)` of the event currently being handled — the tag under
    /// which its emissions are logged, giving the boundary merge the exact
    /// serial emission order.
    cur_at: Cycle,
    cur_key: EventKey,
    /// Simulated events: pops off the event lists.
    events_handled: u64,
    last_event_time: Cycle,
    finished_local: usize,
    last_finish_local: Cycle,
    /// Host nanoseconds this shard has spent inside windows (monotonic
    /// clock deltas around [`Shard::run_window`]). Exact work when windows
    /// run unpreempted, i.e. on a host with a core per shard. Purely
    /// observational: never read on the simulation path.
    busy_ns: u64,
    /// The payload of a panic caught in this shard's window, stored by the
    /// thread that ran it and re-raised by the coordinator at the boundary.
    pub panic: Option<Box<dyn Any + Send>>,
}

impl Shard {
    /// Builds shard `index` of `part`, owning `[lo, lo + policies.len())`,
    /// with its initial `CpuStep`s primed at time zero.
    pub fn new(
        cfg: SystemConfig,
        part: Partition,
        index: usize,
        policies: Vec<Box<dyn SelfInvalidationPolicy>>,
        programs: Vec<Box<dyn Program>>,
    ) -> Self {
        let (lo, hi) = part.range(index);
        let count = usize::from(hi - lo);
        assert_eq!(policies.len(), count, "one policy per owned node");
        assert_eq!(programs.len(), count, "one program per owned node");
        let nodes: Vec<Node> = policies
            .into_iter()
            .zip(programs)
            .zip(lo..hi)
            .map(|((policy, program), id)| {
                let id = NodeId::new(id);
                Node {
                    id,
                    cache: NodeCache::new(id),
                    policy,
                    program,
                    exec: ExecState::Ready,
                    lock_failures: 0,
                    last_progress: Cycle::ZERO,
                    ops_retired: 0,
                    held_locks: Vec::new(),
                    flag_waited: FxHashMap::default(),
                    dir: Directory::with_kind(id, cfg.directory(), cfg.nodes()),
                    engine: ProtocolEngine::new(SystemConfig::PIPELINE_STAGES),
                    ni: NetIface::new(SystemConfig::NI_OCCUPANCY),
                    send_order: FxHashMap::default(),
                    send_seq: 0,
                    reinject_seq: 0,
                }
            })
            .collect();
        let mut events = KeyedEventQueue::with_nodes(count);
        for i in 0..count {
            events.schedule_step(i, Cycle::ZERO);
        }
        Shard {
            cfg,
            part,
            index,
            lo: usize::from(lo),
            nodes,
            events,
            cur: 0,
            dir_step: DirStep::default(),
            outbox: (0..part.shards()).map(|_| Vec::new()).collect(),
            sync_log: Vec::new(),
            probe_log: Vec::new(),
            log_events: false,
            core: None,
            cur_at: Cycle::ZERO,
            cur_key: EventKey::cpu(NodeId::new(lo)),
            events_handled: 0,
            last_event_time: Cycle::ZERO,
            finished_local: 0,
            last_finish_local: Cycle::ZERO,
            busy_ns: 0,
            panic: None,
        }
    }

    // ---- coordinator interface -------------------------------------------

    /// Runs every pending event in `[start, end)`, node by node, then
    /// delivers the window's messages between this shard's own nodes (see
    /// the module docs).
    pub fn run_window(&mut self, start: Cycle, end: Cycle) {
        let t0 = std::time::Instant::now();
        self.events.start_window(end);
        for i in 0..self.nodes.len() {
            self.run_node(i, start);
        }
        self.deliver_own(end);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Runs local node `i`'s events up to the window end.
    fn run_node(&mut self, i: usize, start: Cycle) {
        self.cur = i;
        while let Some((at, event)) = self.events.pop(i) {
            debug_assert!(at >= start, "event at {at} predates window start {start}");
            self.cur_at = at;
            self.events_handled += 1;
            self.last_event_time = self.last_event_time.max(at);
            match event {
                None => {
                    self.cur_key = EventKey::cpu(self.nodes[i].id);
                    match self.nodes[i].exec {
                        ExecState::InBarrier(_) => self.barrier_resume(at, i),
                        _ => self.cpu_step(at, i),
                    }
                }
                Some((key, ev)) => {
                    self.cur_key = key;
                    match ev {
                        Event::Arrive(msg) => self.arrive(at, i, msg),
                        Event::EngineDrain => self.engine_drain(at, i),
                    }
                }
            }
        }
    }

    /// Delivers the messages the window ending at `end` sent between this
    /// shard's own nodes.
    fn deliver_own(&mut self, end: Cycle) {
        let mut mail = std::mem::take(&mut self.outbox[self.index]);
        for st in mail.drain(..) {
            self.deliver(st, end);
        }
        self.outbox[self.index] = mail;
    }

    /// Host nanoseconds spent executing windows so far (barrier waits and
    /// coordinator boundary work excluded).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Earliest pending event time (the coordinator's window-selection and
    /// termination input).
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.events.next_time()
    }

    /// Enables or disables boundary event logging (on when any generic probe
    /// is attached to the machine).
    pub fn set_log_events(&mut self, log: bool) {
        self.log_events = log;
    }

    /// Attaches this shard's slice of the core-metrics collector.
    pub fn attach_core(&mut self, core: CoreMetricsProbe) {
        self.core = Some(core);
    }

    /// Takes the core-metrics collector for end-of-run merging.
    pub fn take_core(&mut self) -> Option<CoreMetricsProbe> {
        self.core.take()
    }

    /// Puts a message sent in the window ending at `end` on its local
    /// destination's event list: the one way in for every message between
    /// two nodes.
    pub fn deliver(&mut self, st: Stamped, end: Cycle) {
        // The window's node-by-node pass rests on this (see the module
        // docs): another node hears of a message in a later window.
        debug_assert!(
            st.deliver >= end,
            "{} → {} delivers at {}, inside the window ending {end}",
            st.msg.src,
            st.msg.dst,
            st.deliver
        );
        self.events.schedule(
            st.msg.dst.index() - self.lo,
            st.deliver,
            EventKey::arrive(st.msg.dst, st.msg.src, st.seq),
            Event::Arrive(st.msg),
        );
    }

    /// Schedules a barrier release for a local node at window boundary `at`
    /// (coordinator only).
    pub fn schedule_resume(&mut self, at: Cycle, node: NodeId, id: u32) {
        let i = node.index() - self.lo;
        debug_assert!(
            matches!(self.nodes[i].exec, ExecState::InBarrier(b) if b == id),
            "{node} released from a barrier it was not waiting at"
        );
        self.events.schedule_step(i, at);
    }

    /// Swaps the messages this window boxed for shard `dst` into `buf`,
    /// which must be empty and becomes the shard's next outbox: buffers
    /// circulate between the shards and the coordinator instead of being
    /// allocated every window.
    pub fn swap_outbox(&mut self, dst: usize, buf: &mut Vec<Stamped>) {
        debug_assert!(buf.is_empty(), "a swapped-in outbox must be empty");
        std::mem::swap(&mut self.outbox[dst], buf);
    }

    /// Moves the barrier/finish records accumulated this window to the end
    /// of `out`, keeping the log's buffer.
    pub fn drain_sync_log_into(&mut self, out: &mut Vec<SyncRecord>) {
        out.append(&mut self.sync_log);
    }

    /// The window's probe log, for the coordinator's boundary merge.
    pub fn probe_log_mut(&mut self) -> &mut Vec<ProbeEntry> {
        &mut self.probe_log
    }

    /// Events handled by this shard so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Timestamp of the latest event handled by this shard.
    pub fn last_event_time(&self) -> Cycle {
        self.last_event_time
    }

    /// Locally finished node count.
    pub fn finished_local(&self) -> usize {
        self.finished_local
    }

    /// Latest local program-completion time.
    pub fn last_finish_local(&self) -> Cycle {
        self.last_finish_local
    }

    /// Number of nodes owned by this shard.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Appends this shard's unfinished nodes, and its finished nodes that
    /// still hold a lock, structured, to a watchdog diagnosis (see
    /// [`crate::StuckReport`]).
    pub fn stuck_nodes_into(&self, out: &mut Vec<crate::StuckNode>) {
        use crate::stuck::{StuckClass, StuckNode};
        for n in &self.nodes {
            let (class, detail) = match n.exec {
                ExecState::Finished if n.held_locks.is_empty() => continue,
                ExecState::Finished => {
                    let blocks: Vec<String> = n.held_locks.iter().map(|b| b.to_string()).collect();
                    (
                        StuckClass::HoldsLock,
                        format!("finished holding lock block {}", blocks.join(", ")),
                    )
                }
                ExecState::Parked(Access::FlagWait { block, .. }) => {
                    (StuckClass::FlagSpin, format!("flag block {block}"))
                }
                ExecState::Parked(access) => {
                    // Only the lock stages and flag waits park.
                    let stage = match access {
                        Access::LockTest(_) => "Test",
                        Access::LockConfirm(_) => "Confirm",
                        _ => "Tas",
                    };
                    (
                        StuckClass::LockSpin,
                        format!("lock block {} ({stage})", access.block()),
                    )
                }
                ExecState::InBarrier(id) => (StuckClass::BarrierWait, format!("barrier {id}")),
                ExecState::Blocked(access) => (
                    StuckClass::MemWait,
                    format!(
                        "{} block {}",
                        if access.is_write() { "write" } else { "read" },
                        access.block()
                    ),
                ),
                ExecState::Completing { access, .. } => (
                    StuckClass::Completing,
                    format!("completing block {}", access.block()),
                ),
                ExecState::Ready => (StuckClass::Ready, "awaiting CpuStep".to_string()),
            };
            out.push(StuckNode {
                node: n.id.index() as u16,
                class,
                detail,
                last_progress_cycle: n.last_progress.as_u64(),
                ops_retired: n.ops_retired,
            });
        }
    }

    /// End-of-run policy storage stats for local node `i` (shard order is
    /// node order, so the coordinator can emit `PolicyStorage` events in
    /// global node order).
    pub fn policy_storage(&self, i: usize) -> (NodeId, ltp_core::StorageStats) {
        (self.nodes[i].id, self.nodes[i].policy.storage())
    }

    /// The cached line a local node holds for `block`, if any (test/debug
    /// introspection).
    pub fn cached_line(&self, p: NodeId, block: BlockId) -> Option<ltp_dsm::Line> {
        self.nodes[p.index() - self.lo].cache.line(block)
    }

    /// Appends this shard's slice of the machine-wide ground state to a
    /// [`crate::checker::MachineView`].
    pub fn view_into<'a>(&'a self, view: &mut crate::checker::MachineView<'a>) {
        view.add(
            self.nodes.iter().map(|n| &n.dir),
            self.nodes.iter().map(|n| &n.cache),
        );
        view.engine_backlog += self.nodes.iter().map(|n| n.engine.backlog()).sum::<usize>();
    }

    // ---- observation -----------------------------------------------------

    /// Delivers one event to the shard-local core collector and, when
    /// generic probes are attached, to the boundary replay log.
    #[inline(always)]
    fn emit(&mut self, now: Cycle, event: SimEvent) {
        if let Some(core) = &mut self.core {
            let ctx = ProbeCtx {
                now,
                nodes: self.cfg.nodes(),
            };
            core.observe(&ctx, &event);
        }
        if self.log_events {
            self.probe_log.push(ProbeEntry {
                at: self.cur_at,
                key: self.cur_key,
                now,
                event,
            });
        }
    }

    /// Logs one event that the core-metrics tallies provably ignore (ops
    /// retired, messages sent, lock/barrier activity). The event is built
    /// lazily, so with no generic probe attached — the default stack —
    /// these very hot emission points cost one branch.
    #[inline(always)]
    fn emit_aux(&mut self, now: Cycle, event: impl FnOnce() -> SimEvent) {
        if self.log_events {
            let event = event();
            self.probe_log.push(ProbeEntry {
                at: self.cur_at,
                key: self.cur_key,
                now,
                event,
            });
        }
    }

    // ---- scheduling and routing ------------------------------------------

    /// Schedules a keyed event on local node `i`, the node being run.
    #[inline(always)]
    fn schedule(&mut self, i: usize, at: Cycle, key: EventKey, event: Event) {
        debug_assert_eq!(i, self.cur, "a handler schedules onto another node");
        self.events.schedule(i, at, key, event);
    }

    /// Schedules the next `CpuStep` of local node `i`, the node being run.
    #[inline(always)]
    fn sched_cpu(&mut self, i: usize, at: Cycle) {
        debug_assert_eq!(i, self.cur, "a handler schedules onto another node");
        self.events.schedule_step(i, at);
    }

    /// Routes a message from local node `i` at `at`: a message to the node
    /// itself delivers instantly; any other serializes through the node's
    /// NI, crosses the network and waits in the outbox slot of its
    /// destination's shard.
    fn route(&mut self, i: usize, msg: Message, at: Cycle) {
        self.emit_aux(at, || SimEvent::MessageSent { msg });
        let node = &mut self.nodes[i];
        let seq = node.send_seq;
        node.send_seq += 1;
        if msg.dst == msg.src {
            let key = EventKey::arrive(msg.dst, msg.src, seq);
            self.schedule(i, at, key, Event::Arrive(msg));
            return;
        }
        let deliver = node.ni.depart(at) + SystemConfig::NET_LATENCY;
        self.outbox[self.part.shard_of(msg.dst)].push(Stamped { deliver, seq, msg });
    }

    // ---- CPU execution ---------------------------------------------------

    fn cpu_step(&mut self, now: Cycle, i: usize) {
        match self.nodes[i].exec {
            ExecState::Ready => self.fetch_and_issue(now, i),
            ExecState::Parked(access) => self.issue(now, i, access),
            ExecState::Completing { access, tas_won } => {
                self.finish_access(now, i, access, tas_won);
            }
            state => unreachable!("CpuStep for {} in state {state:?}", self.nodes[i].id),
        }
    }

    fn fetch_and_issue(&mut self, now: Cycle, i: usize) {
        let p = self.nodes[i].id;
        let Some(op) = self.nodes[i].program.next_op() else {
            self.nodes[i].exec = ExecState::Finished;
            self.finished_local += 1;
            self.last_finish_local = self.last_finish_local.max(now);
            self.emit(now, SimEvent::NodeFinished { node: p });
            // A node finishing shrinks the barrier population; the
            // coordinator folds this record and releases any barrier that
            // was waiting only on this node.
            self.sync_log.push(SyncRecord {
                at: now,
                node: p.index() as u16,
                ev: SyncEvent::Finish,
            });
            return;
        };
        self.nodes[i].last_progress = now;
        self.nodes[i].ops_retired += 1;
        self.emit_aux(now, || SimEvent::OpRetired { node: p });
        let access = match op {
            Op::Think(c) => return self.sched_cpu(i, now + Cycle::new(c)),
            Op::Barrier(id) => return self.barrier_arrive(now, i, id),
            Op::Read { pc, block } => Access::Load { pc, block },
            Op::Write { pc, block } | Op::FlagSet { pc, block } => Access::Store { pc, block },
            Op::Lock(lock) => Access::LockTest(lock),
            Op::Unlock(lock) => Access::LockRelease(lock),
            Op::FlagWait { pc, block } => Access::FlagWait { pc, block },
        };
        self.issue(now, i, access);
    }

    /// Presents `access` to local node `i`'s cache: a hit completes at
    /// once, a miss blocks the node and sends its request home.
    #[inline]
    fn issue(&mut self, now: Cycle, i: usize, access: Access) {
        let p = self.nodes[i].id;
        let (pc, block, is_write) = (access.pc(), access.block(), access.is_write());
        let tas = matches!(access, Access::LockTas(_));
        let cache = &mut self.nodes[i].cache;
        let outcome = if tas {
            cache.access_tas(block)
        } else {
            cache.access(block, is_write)
        };
        match outcome {
            AccessOutcome::Hit { exclusive } => {
                self.emit(
                    now,
                    SimEvent::CacheHit {
                        node: p,
                        block,
                        pc,
                        is_write,
                        exclusive,
                    },
                );
                let tas_won = tas && self.nodes[i].cache.try_tas(block);
                let touch = Touch {
                    block,
                    pc,
                    is_write,
                    exclusive,
                    fill: None,
                };
                self.complete(now, i, access, touch, tas_won);
            }
            AccessOutcome::Miss(kind) => {
                self.emit(
                    now,
                    SimEvent::CacheMiss {
                        node: p,
                        block,
                        pc,
                        is_write,
                    },
                );
                self.nodes[i].exec = ExecState::Blocked(access);
                let home = self.cfg.home_of(block);
                self.route(i, Message::new(p, home, block, kind), now);
            }
        }
    }

    /// The end of an access, hit or fill: the policy sees its `touch` and
    /// may self-invalidate the block, then the node waits out the access's
    /// latency in [`ExecState::Completing`] — a cache hit, or for a fill
    /// the requester-side network-cache install, one memory access (this
    /// is what stretches the round trip to Table 1's ≈416 cycles).
    #[inline(always)]
    fn complete(&mut self, now: Cycle, i: usize, access: Access, touch: Touch, tas_won: bool) {
        let latency = if touch.fill.is_some() {
            SystemConfig::MEM_ACCESS
        } else {
            SystemConfig::CPU_HIT
        };
        if self.nodes[i].policy.on_touch(touch) {
            self.self_invalidate(now, i, touch.block);
        }
        self.nodes[i].exec = ExecState::Completing { access, tas_won };
        self.sched_cpu(i, now + latency);
    }

    /// Whether a lock block currently *looks held* from local node `i`'s
    /// cached copy: the lock value is the block's token parity (odd =
    /// held). An absent line reads as generation 0 — free — which is
    /// benign: the confirm read and the test-and-set itself are
    /// protocol-serialized.
    fn lock_looks_held(&self, i: usize, block: BlockId) -> bool {
        self.nodes[i].cache.line(block).map_or(0, |l| l.token) % 2 == 1
    }

    /// Parks local node `i` until `at`, when its next step issues `access`.
    fn park(&mut self, i: usize, access: Access, at: Cycle) {
        self.nodes[i].exec = ExecState::Parked(access);
        self.sched_cpu(i, at);
    }

    /// Parks local node `i` for a randomized number of spin intervals after
    /// a lock looked free or its test-and-set lost, then issues `next`. The
    /// deterministic pseudo-random backoff breaks up the test-and-set herd
    /// so lock-block traces vary per visit (the raytrace §5.4 effect:
    /// "locks spin a variable number of times per visit").
    fn back_off(&mut self, now: Cycle, i: usize, next: Access) {
        let node = &mut self.nodes[i];
        node.lock_failures += 1;
        let slots = backoff_slots(node.id, node.lock_failures);
        self.park(i, next, now + Cycle::new(SPIN_INTERVAL * slots));
    }

    /// Runs what follows a completed access at its proper time, advancing
    /// the lock and flag state machines and scheduling the processor's
    /// next step.
    fn finish_access(&mut self, now: Cycle, i: usize, access: Access, tas_won: bool) {
        let p = self.nodes[i].id;
        match access {
            Access::Load { .. } | Access::Store { .. } => {
                self.nodes[i].exec = ExecState::Ready;
                self.sched_cpu(i, now);
            }
            Access::LockTest(lock) | Access::LockConfirm(lock)
                if self.lock_looks_held(i, lock.block) =>
            {
                // Keep spinning — after a confirm, someone won during the
                // backoff, and the test-and-set is never issued. Each
                // retest is a real touch of the lock block (usually a cache
                // hit, until a release invalidates the copy).
                self.park(i, Access::LockTest(lock), now + Cycle::new(SPIN_INTERVAL));
            }
            // Looks free: back off, then confirm before attempting the RMW.
            Access::LockTest(lock) => self.back_off(now, i, Access::LockConfirm(lock)),
            Access::LockConfirm(lock) => self.park(i, Access::LockTas(lock), now),
            // Lost the race: back off before spinning again.
            Access::LockTas(lock) if !tas_won => self.back_off(now, i, Access::LockTest(lock)),
            Access::LockTas(lock) => {
                self.nodes[i].held_locks.push(lock.block);
                self.emit_aux(now, || SimEvent::LockAcquired {
                    node: p,
                    block: lock.block,
                });
                self.nodes[i].exec = ExecState::Ready;
                if lock.exposed {
                    self.sync_boundary(now, i, SyncKind::LockAcquire);
                }
                self.sched_cpu(i, now);
            }
            Access::LockRelease(lock) => {
                // The releasing store bumped the token back to even (held →
                // free) through the ordinary write path — possibly refetching
                // the line exclusively first if a spinner's read had stolen
                // it.
                debug_assert!(
                    !self.lock_looks_held(i, lock.block)
                        || self.nodes[i].cache.line(lock.block).is_none(),
                    "release left the lock looking held"
                );
                let held = &mut self.nodes[i].held_locks;
                if let Some(k) = held.iter().position(|&b| b == lock.block) {
                    held.remove(k);
                }
                self.emit_aux(now, || SimEvent::LockReleased {
                    node: p,
                    block: lock.block,
                });
                self.nodes[i].exec = ExecState::Ready;
                if lock.exposed {
                    self.sync_boundary(now, i, SyncKind::LockRelease);
                }
                self.sched_cpu(i, now);
            }
            Access::FlagWait { block, .. } => {
                // Observe the generation from the (possibly stale) cached
                // copy — exactly what real spin code would see.
                let node = &mut self.nodes[i];
                let observed = node.cache.line(block).map_or(0, |l| l.token);
                let waited = node.flag_waited.entry(block).or_insert(0);
                if observed > *waited {
                    *waited += 1;
                    node.exec = ExecState::Ready;
                    self.sched_cpu(i, now);
                } else {
                    self.park(i, access, now + Cycle::new(SPIN_INTERVAL));
                }
            }
        }
    }

    fn barrier_arrive(&mut self, now: Cycle, i: usize, id: u32) {
        let p = self.nodes[i].id;
        self.emit_aux(now, || SimEvent::BarrierEnter { node: p, id });
        self.nodes[i].exec = ExecState::InBarrier(id);
        self.sync_log.push(SyncRecord {
            at: now,
            node: p.index() as u16,
            ev: SyncEvent::Arrive(id),
        });
    }

    /// Handles the coordinator's release of a barrier this node was waiting
    /// at: the synchronization flush (DSI's burst) runs here, under this
    /// window's ordinary emission and routing paths.
    fn barrier_resume(&mut self, now: Cycle, i: usize) {
        self.nodes[i].exec = ExecState::Ready;
        self.sync_boundary(now, i, SyncKind::Barrier);
        self.sched_cpu(i, now + SystemConfig::CPU_HIT);
    }

    /// Reports a synchronization boundary to the node's policy and performs
    /// any bulk self-invalidation it requests (DSI's flush).
    fn sync_boundary(&mut self, now: Cycle, i: usize, kind: SyncKind) {
        let flushes = self.nodes[i].policy.on_sync(kind);
        for block in flushes {
            self.self_invalidate(now, i, block);
        }
    }

    /// Executes one self-invalidation: drops the local copy and notifies the
    /// home (clean notification or dirty writeback).
    fn self_invalidate(&mut self, now: Cycle, i: usize, block: BlockId) {
        let p = self.nodes[i].id;
        let Some(kind) = self.nodes[i].cache.self_invalidate(block) else {
            return; // absent or mid-transaction: skip (bulk flushes may race)
        };
        self.emit(
            now,
            SimEvent::SelfInvalidation {
                node: p,
                block,
                dirty: matches!(kind, MsgKind::SelfInvDirty { .. }),
            },
        );
        let home = self.cfg.home_of(block);
        self.route(i, Message::new(p, home, block, kind), now);
    }

    // ---- message handling ------------------------------------------------

    fn arrive(&mut self, now: Cycle, i: usize, msg: Message) {
        self.emit(now, SimEvent::MessageDelivered { msg });
        if msg.kind.to_directory() {
            let engine = &mut self.nodes[i].engine;
            if engine.enqueue(now, msg) {
                let at = engine.next_ready(now);
                self.schedule(i, at, EventKey::drain(msg.dst), Event::EngineDrain);
            }
        } else {
            self.cache_side(now, i, msg);
        }
    }

    fn engine_drain(&mut self, now: Cycle, i: usize) {
        let h = self.nodes[i].id;
        let Some((msg, queued)) = self.nodes[i].engine.dequeue(now) else {
            return;
        };
        self.emit_aux(now, || SimEvent::DirAccepted { home: h, msg });
        // The retained buffer, taken out for the duration of this service
        // so its sends can be routed through `&mut self`.
        let mut step = std::mem::take(&mut self.dir_step);
        self.nodes[i].dir.process_into(msg, &mut step);
        let service = if step.data_service {
            SystemConfig::DIR_DATA_SERVICE
        } else {
            SystemConfig::DIR_CONTROL
        };
        let done = self.nodes[i].engine.begin_service(now, service);
        self.emit(
            now,
            SimEvent::MessageServiced {
                home: h,
                kind: msg.kind,
                queueing: queued,
                service,
                data: step.data_service,
            },
        );
        for &event in &step.events {
            let block = msg.block;
            self.emit(
                now,
                match event {
                    DirEvent::InvalidationSent { to } => {
                        SimEvent::InvalidationSent { home: h, to, block }
                    }
                    DirEvent::InvalidationAcked { from, had_copy } => SimEvent::InvalidationAcked {
                        home: h,
                        from,
                        block,
                        had_copy,
                    },
                    DirEvent::BroadcastOverflow => SimEvent::BroadcastOverflow { home: h, block },
                    DirEvent::StaleIgnored { from } => SimEvent::StaleIgnored {
                        home: h,
                        from,
                        block,
                        kind: msg.kind,
                    },
                    DirEvent::EntryEvicted {
                        block: victim,
                        invalidations,
                    } => SimEvent::DirEntryEvicted {
                        home: h,
                        block: victim,
                        invalidations,
                    },
                },
            );
        }
        // Sends for one block leave in service order (see `send_order`). A
        // sparse eviction's invalidations ride in the same service but
        // target the *victim* block, so each send keeps its own block's
        // order.
        let depart = self.nodes[i].dir_depart(msg.block, done);
        for &m in &step.sends {
            let at = if m.block == msg.block {
                depart
            } else {
                self.nodes[i].dir_depart(m.block, done)
            };
            self.route(i, m, at);
        }
        for &r in &step.reinject {
            let node = &mut self.nodes[i];
            let seq = node.reinject_seq;
            node.reinject_seq += 1;
            let key = EventKey::reinject(h, r.src, seq);
            self.schedule(i, depart, key, Event::Arrive(r));
        }
        self.dir_step = step;
        let engine = &mut self.nodes[i].engine;
        if engine.arm_next_drain() {
            let at = engine.next_ready(now);
            self.schedule(i, at, EventKey::drain(h), Event::EngineDrain);
        }
    }

    fn cache_side(&mut self, now: Cycle, i: usize, msg: Message) {
        let p = msg.dst;
        match msg.kind {
            MsgKind::Inv => {
                let resp = self.nodes[i].cache.handle_inv(msg.block);
                self.emit(
                    now,
                    SimEvent::Invalidated {
                        node: p,
                        block: msg.block,
                        had_copy: resp.had_copy,
                    },
                );
                if resp.had_copy {
                    self.nodes[i].policy.on_invalidation(msg.block);
                }
                if ltp_dsm::mutation::fire_drop_invack() {
                    return;
                }
                let home = self.cfg.home_of(msg.block);
                self.route(
                    i,
                    Message::new(
                        p,
                        home,
                        msg.block,
                        MsgKind::InvAck {
                            had_copy: resp.had_copy,
                            dirty_token: resp.dirty_token,
                        },
                    ),
                    now,
                );
            }
            MsgKind::VerifyCorrect { timely } => {
                self.emit(
                    now,
                    SimEvent::PredictionVerified {
                        node: p,
                        block: msg.block,
                        outcome: VerifyOutcome::Correct,
                        timely,
                    },
                );
                self.nodes[i]
                    .policy
                    .on_verification(msg.block, VerifyOutcome::Correct);
            }
            MsgKind::DataS { .. } | MsgKind::DataX { .. } | MsgKind::UpgradeAck { .. } => {
                self.complete_fill(now, i, msg);
            }
            other => unreachable!("cache received {other:?}"),
        }
    }

    fn complete_fill(&mut self, now: Cycle, i: usize, msg: Message) {
        let p = msg.dst;
        let ExecState::Blocked(access) = self.nodes[i].exec else {
            unreachable!("fill for {p} which is not blocked");
        };
        debug_assert_eq!(access.block(), msg.block, "fill for the wrong block");
        let fill = self.nodes[i].cache.apply_reply(msg.block, msg.kind);
        // A test-and-set applies the moment its fetch lands, before the
        // policy or anything else can observe the line — the atomic's
        // outcome is decided purely by the protocol-serialized token parity
        // the fill delivered.
        let tas_won =
            matches!(access, Access::LockTas(_)) && self.nodes[i].cache.try_tas(msg.block);
        // Resolve an earlier prediction first (FIFO per block), then start
        // the new trace with this access's touch.
        if let Some(v) = fill
            .verify
            .filter(|_| !ltp_dsm::mutation::fire_skip_fill_verify())
        {
            // Verdicts piggybacked on fills resolved when this very request
            // reached the directory — never timely.
            self.emit(
                now,
                SimEvent::PredictionVerified {
                    node: p,
                    block: msg.block,
                    outcome: v,
                    timely: false,
                },
            );
            self.nodes[i].policy.on_verification(msg.block, v);
        }
        let touch = Touch {
            block: msg.block,
            pc: access.pc(),
            is_write: access.is_write(),
            exclusive: fill.exclusive,
            fill: Some(fill.info),
        };
        self.complete(now, i, access, touch, tas_won);
    }
}

/// Deterministic pseudo-random backoff (in spin-interval slots) after a
/// failed test-and-set, derived from the node id and its cumulative
/// failure count so reruns reproduce exactly.
pub(crate) fn backoff_slots(p: NodeId, failures: u64) -> u64 {
    let mut z = (p.index() as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(failures.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 29;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    1 + ((z >> 33) % 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_keys_order_by_class_then_actor() {
        let cpu = EventKey::cpu(NodeId::new(3));
        let arrive = EventKey::arrive(NodeId::new(0), NodeId::new(9), 4);
        let drain = EventKey::drain(NodeId::new(0));
        let reinject = EventKey::reinject(NodeId::new(0), NodeId::new(9), 0);
        assert!(cpu < arrive, "CPU activity precedes arrivals");
        assert!(arrive < drain, "arrivals precede engine drains");
        assert!(drain < reinject, "drains precede reinjections");
        assert!(EventKey::cpu(NodeId::new(1)) < EventKey::cpu(NodeId::new(2)));
        assert!(
            EventKey::arrive(NodeId::new(0), NodeId::new(1), 5)
                < EventKey::arrive(NodeId::new(0), NodeId::new(1), 6),
            "same-edge arrivals order by FIFO sequence"
        );
    }

    const BLOCK: BlockId = BlockId::new(7);

    /// A 2-node, 1-shard slice whose node 0 reads [`BLOCK`] (homed on
    /// node 1) once and finishes; node 1 runs no program.
    fn two_node_shard() -> Shard {
        let cfg = SystemConfig::builder().nodes(2).build().expect("valid");
        let read = Op::Read {
            pc: Pc::new(0x40),
            block: BLOCK,
        };
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(ltp_workloads::LoopedScript::new(vec![read], Vec::new(), 0)),
            Box::new(ltp_workloads::LoopedScript::new(Vec::new(), Vec::new(), 0)),
        ];
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = (0..2)
            .map(|_| Box::new(ltp_core::NullPolicy) as Box<dyn SelfInvalidationPolicy>)
            .collect();
        Shard::new(cfg, Partition::new(2, 1), 0, policies, programs)
    }

    fn clock() -> clock::WindowClock {
        clock::WindowClock::new(SystemConfig::MIN_CROSS_NODE_LATENCY)
    }

    /// [`two_node_shard`] run to the end over the window grid, as the
    /// coordinator runs it: the line is cached and the lists have drained.
    /// Returns the last event's cycle.
    fn shard_with_cached_line() -> (Shard, Cycle) {
        let mut shard = two_node_shard();
        while let Some(t) = shard.next_event_time() {
            let (start, end) = clock().window_of(t);
            shard.run_window(start, end);
        }
        assert!(shard.cached_line(NodeId::new(0), BLOCK).is_some());
        let now = shard.last_event_time();
        (shard, now)
    }

    #[test]
    fn a_hit_completes_at_its_own_cpu_step() {
        let (mut shard, now) = shard_with_cached_line();
        let p = NodeId::new(0);
        // Node 0 read-hits BLOCK as the event `(now, cpu(0))`.
        shard.cur = 0;
        shard.cur_at = now;
        shard.cur_key = EventKey::cpu(p);
        let read = Access::Load {
            pc: Pc::new(0x40),
            block: BLOCK,
        };
        shard.issue(now, 0, read);
        assert!(
            matches!(shard.nodes[0].exec, ExecState::Completing { .. }),
            "the hit waits out its latency"
        );
        let events = shard.events_handled();
        let resume_at = now + SystemConfig::CPU_HIT;
        let (start, end) = clock().window_of(resume_at);
        shard.run_window(start, end);
        // The `Completing` step, then the fetch that finds the program done.
        assert_eq!(shard.events_handled(), events + 2);
        assert_eq!(shard.last_event_time(), resume_at);
        assert!(matches!(shard.nodes[0].exec, ExecState::Finished));
        assert_eq!(shard.next_event_time(), None);
    }

    #[test]
    fn a_message_to_another_node_waits_for_the_end_of_window_drain() {
        let mut shard = two_node_shard();
        let (start, end) = clock().window_of(Cycle::ZERO);
        shard.events.start_window(end);
        // Node 0's first step misses on BLOCK and sends a request to its
        // home, node 1 — on the same shard, yet through the outbox.
        shard.run_node(0, start);
        let sent = match shard.outbox[0][..] {
            [st] => st,
            ref other => panic!("expected one boxed message, got {other:?}"),
        };
        assert_eq!(
            (sent.msg.src, sent.msg.dst),
            (NodeId::new(0), NodeId::new(1))
        );
        // Node 1's pass does not see it, and nothing else is pending.
        shard.run_node(1, start);
        assert_eq!(shard.outbox[0].len(), 1);
        assert_eq!(shard.next_event_time(), None);
        // The end-of-window drain puts it on node 1's list.
        shard.deliver_own(end);
        assert!(shard.outbox[0].is_empty());
        let deliver = Cycle::ZERO + SystemConfig::NI_OCCUPANCY + SystemConfig::NET_LATENCY;
        assert_eq!(shard.next_event_time(), Some(deliver));
        let (_, end) = clock().window_of(deliver);
        shard.events.start_window(end);
        assert_eq!(
            shard.events.pop(1),
            Some((
                deliver,
                Some((
                    EventKey::arrive(sent.msg.dst, sent.msg.src, 0),
                    Event::Arrive(sent.msg)
                ))
            ))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inside the window ending")]
    fn a_window_longer_than_the_lookahead_is_caught() {
        // Node 0's miss reaches its home, node 1, inside the window. The
        // pass has already run node 1 when the window's messages are
        // delivered, so the arrival would run a window late: any such
        // delivery is a bug.
        two_node_shard().run_window(Cycle::ZERO, Cycle::new(1 << 20));
    }

    #[test]
    fn backoff_is_deterministic_and_spread() {
        let a = backoff_slots(NodeId::new(3), 7);
        let b = backoff_slots(NodeId::new(3), 7);
        assert_eq!(a, b);
        assert!((1..=6).contains(&a));
        let spread: std::collections::HashSet<u64> = (0..16u16)
            .map(|n| backoff_slots(NodeId::new(n), 1))
            .collect();
        assert!(spread.len() > 2, "backoff must not be uniform: {spread:?}");
    }
}
