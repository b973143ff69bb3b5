//! The sharded simulation engine: one slice of the machine per worker.
//!
//! A [`Shard`] owns a contiguous range of nodes *and their home
//! directories* — caches, policies, programs, protocol engines, and network
//! interfaces — plus its own future-event list. Within a clock window (see
//! [`clock`]) a shard runs completely independently; everything that crosses
//! a shard boundary (protocol messages, barrier arrivals, probe events) is
//! buffered and exchanged by the coordinating [`crate::Machine`] at window
//! boundaries (see [`channel`]).
//!
//! # Why sharded runs are bit-identical to serial runs
//!
//! Two properties combine to make the execution independent of the shard
//! count:
//!
//! 1. **Conservative windows.** The window length equals the minimum
//!    cross-node message latency (NI occupancy + network hop), so no event
//!    executed inside a window can schedule work on *another node* within
//!    the same window. Cross-shard messages handed over at the boundary are
//!    always scheduled into windows that have not run yet.
//! 2. **Content-keyed event order.** Every event carries an [`EventKey`]
//!    derived from simulated content (event class, acting node, sender, and
//!    the sender's per-node FIFO sequence number). Same-cycle events pop in
//!    key order — a property of the simulated machine, not of which shard
//!    scheduled what first. Keys are unique per cycle (each node does one
//!    thing at a time; arrivals are FIFO-stamped), so the global pop order
//!    is a total order that every shard count reproduces exactly.
//!
//! The serial engine is the 1-shard instance of the same machinery — there
//! is no separate serial code path to diverge from.

pub(crate) mod channel;
pub(crate) mod clock;
mod partition;

use ltp_core::{
    BlockId, FxHashMap, NodeId, Pc, SelfInvalidationPolicy, SyncKind, Touch, VerifyOutcome,
};
use ltp_dsm::{
    AccessOutcome, DirEvent, Directory, Message, MsgKind, NetIface, NodeCache, ProtocolEngine,
    SystemConfig,
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

/// The event alphabet of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The processor on this node is ready for its next operation.
    CpuStep(NodeId),
    /// A protocol message arrives at `msg.dst`.
    Arrive(Message),
    /// The protocol engine at this home may start its next service.
    EngineDrain(NodeId),
    /// A barrier the node was waiting at released at the previous window
    /// boundary; the node performs its synchronization flush and resumes.
    /// Scheduled by the coordinator, never by shards.
    BarrierResume {
        /// The resuming node.
        node: NodeId,
        /// The released barrier.
        id: u32,
    },
}

/// The deterministic same-cycle ordering key (see the module docs).
///
/// Derived `Ord` compares fields in declaration order: event class first
/// (CPU activity before arrivals before engine drains before directory
/// reinjections), then the acting node, then the sender and its FIFO
/// sequence number for arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    class: u8,
    actor: u16,
    src: u16,
    seq: u64,
}

impl EventKey {
    /// `CpuStep` / `BarrierResume` for node `p`. A node waiting at a barrier
    /// has no pending `CpuStep`, so the two uses can never collide on the
    /// same `(cycle, key)`.
    fn cpu(p: NodeId) -> Self {
        EventKey {
            class: 0,
            actor: p.index() as u16,
            src: 0,
            seq: 0,
        }
    }

    /// `Arrive` at `dst`, uniquely identified by the sender and the sender's
    /// per-node send sequence number.
    fn arrive(dst: NodeId, src: NodeId, seq: u64) -> Self {
        EventKey {
            class: 1,
            actor: dst.index() as u16,
            src: ltp_dsm::mutation::arrive_key_src(src.index() as u16),
            seq,
        }
    }

    /// `EngineDrain` at home `h`. Duplicate same-cycle drains are idempotent
    /// (the engine dequeues nothing), so the insertion-sequence fallback
    /// never orders observable work.
    fn drain(h: NodeId) -> Self {
        EventKey {
            class: 2,
            actor: h.index() as u16,
            src: 0,
            seq: 0,
        }
    }

    /// A directory reinjection at home `h` (a request re-presented after a
    /// pending transaction completes). Stamped from the home's own
    /// reinjection counter — a separate class so it cannot collide with a
    /// genuine arrival from the same sender.
    fn reinject(h: NodeId, src: NodeId, seq: u64) -> Self {
        EventKey {
            class: 3,
            actor: h.index() as u16,
            src: src.index() as u16,
            seq,
        }
    }
}

/// What the blocked CPU was doing when its access missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Continuation {
    /// An ordinary program load/store.
    Plain,
    /// The spin-test read of a lock acquisition.
    LockTest(Lock),
    /// The post-backoff confirmation read before a test-and-set.
    LockConfirm(Lock),
    /// The test-and-set write of a lock acquisition.
    LockTas(Lock),
    /// The releasing store of a lock.
    LockRelease(Lock),
    /// The spin load of an ad-hoc flag wait.
    FlagWait(Pc),
}

/// Context of an outstanding miss.
#[derive(Debug, Clone, Copy)]
struct MemCtx {
    block: BlockId,
    pc: Pc,
    is_write: bool,
    cont: Continuation,
}

/// Per-node execution state.
#[derive(Debug)]
enum ExecState {
    /// The next `CpuStep` fetches a fresh op.
    Ready,
    /// Mid lock-acquisition; the next `CpuStep` continues the given stage.
    Locking(Lock, LockStage),
    /// Spinning on an ad-hoc flag; the next `CpuStep` re-reads it.
    FlagSpin(Pc, BlockId),
    /// Waiting for a fill.
    BlockedMem(MemCtx),
    /// An access completed (hit or fill applied) and the CPU is waiting out
    /// its latency; the next `CpuStep` runs the continuation. Deferring the
    /// continuation keeps its *state* changes (lock transitions, sync
    /// flushes) at the same timestamp as the messages they emit — running
    /// them early would let an invalidation arriving in between observe a
    /// cache the flush has already mutated.
    Completing(BlockId, Continuation, bool),
    /// Waiting at a barrier.
    InBarrier(u32),
    /// Program complete.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockStage {
    /// Spin-reading until the lock looks free.
    Test,
    /// Observed free; after a randomized backoff, re-read to confirm it is
    /// still free before attempting the test-and-set. Most contenders see
    /// the winner's store at this point and go back to spinning without
    /// ever issuing the RMW — classic test-and-test-and-set with backoff,
    /// which keeps the thundering herd off the directory and makes
    /// lock-block traces vary from visit to visit.
    Confirm,
    /// Confirmed free: issue the test-and-set RMW.
    Tas,
}

/// One node: processor (program interpreter), cache, and policy.
struct NodeState {
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
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeState")
            .field("id", &self.id)
            .field("exec", &self.exec)
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// One shard: a contiguous node range of the machine with its own event
/// queue, plus the boundary buffers the coordinator drains.
#[derive(Debug)]
pub(crate) struct Shard {
    cfg: SystemConfig,
    part: Partition,
    /// This shard's index and first owned node (all per-node vectors below
    /// are indexed by `node - lo`).
    index: usize,
    lo: u16,
    nodes: Vec<NodeState>,
    dirs: Vec<Directory>,
    engines: Vec<ProtocolEngine>,
    nis: Vec<NetIface>,
    /// Per-home, per-block timestamp of the last departed directory send.
    ///
    /// The pipelined engine completes short (control) services faster than
    /// long (data) ones, so a later-serviced `Inv` could otherwise depart
    /// before an earlier grant for the same block and overtake it on the
    /// (per source→destination FIFO) network — delivering an invalidation
    /// for a copy that has not arrived yet. Directory sends for one block
    /// therefore depart in service order.
    dir_send_order: Vec<FxHashMap<BlockId, Cycle>>,
    /// Per-local-node FIFO sequence for sent messages (part of arrival
    /// event keys).
    send_seq: Vec<u64>,
    /// Per-local-home sequence for directory reinjections.
    reinject_seq: Vec<u64>,
    /// Flag-wait progress: how many generations of each flag block this node
    /// has consumed. The flag's current generation is the block's data token
    /// (its write count), so spins observe real coherence state — a stale
    /// cached copy really does show the old generation.
    flag_waited: FxHashMap<(u16, BlockId), u64>,
    queue: KeyedEventQueue<EventKey, Event>,
    /// Per-destination-shard buffers of messages leaving this shard, drained
    /// by the coordinator at each window boundary.
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
    events_handled: u64,
    last_event_time: Cycle,
    finished_local: usize,
    last_finish_local: Cycle,
    /// Host nanoseconds this shard has spent inside windows (monotonic
    /// clock deltas around [`Shard::run_window`]). Exact work when windows
    /// run unpreempted, i.e. on a host with a core per shard. Purely
    /// observational: never read on the simulation path.
    busy_ns: u64,
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
        let nodes: Vec<NodeState> = policies
            .into_iter()
            .zip(programs)
            .enumerate()
            .map(|(i, (policy, program))| {
                let id = NodeId::new(lo + i as u16);
                NodeState {
                    id,
                    cache: NodeCache::new(id),
                    policy,
                    program,
                    exec: ExecState::Ready,
                    lock_failures: 0,
                    last_progress: Cycle::ZERO,
                    ops_retired: 0,
                }
            })
            .collect();
        let dirs = (0..count)
            .map(|i| Directory::with_kind(NodeId::new(lo + i as u16), cfg.directory(), cfg.nodes()))
            .collect();
        let engines = (0..count)
            .map(|_| ProtocolEngine::new(SystemConfig::PIPELINE_STAGES))
            .collect();
        let nis = (0..count)
            .map(|_| NetIface::new(SystemConfig::NI_OCCUPANCY))
            .collect();
        let mut queue = KeyedEventQueue::new();
        for i in 0..count {
            let id = NodeId::new(lo + i as u16);
            queue.schedule(Cycle::ZERO, EventKey::cpu(id), Event::CpuStep(id));
        }
        Shard {
            cfg,
            part,
            index,
            lo,
            nodes,
            dirs,
            engines,
            nis,
            dir_send_order: (0..count).map(|_| FxHashMap::default()).collect(),
            send_seq: vec![0; count],
            reinject_seq: vec![0; count],
            flag_waited: FxHashMap::default(),
            queue,
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
        }
    }

    /// Local index of a node owned by this shard.
    #[inline(always)]
    fn li(&self, p: NodeId) -> usize {
        debug_assert_eq!(self.part.shard_of(p), self.index, "{p} not on this shard");
        p.index() - usize::from(self.lo)
    }

    // ---- coordinator interface -------------------------------------------

    /// Runs every pending event in `[start, end)`.
    pub fn run_window(&mut self, start: Cycle, end: Cycle) {
        let _ = start;
        let t0 = std::time::Instant::now();
        while let Some((at, key, ev)) = self.queue.pop_before(end) {
            debug_assert!(at >= start, "event at {at} predates window start {start}");
            self.cur_at = at;
            self.cur_key = key;
            self.events_handled += 1;
            self.last_event_time = self.last_event_time.max(at);
            match ev {
                Event::CpuStep(p) => self.cpu_step(at, p),
                Event::Arrive(msg) => self.arrive(at, msg),
                Event::EngineDrain(h) => self.engine_drain(at, h),
                Event::BarrierResume { node, id } => self.barrier_resume(at, node, id),
            }
        }
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Host nanoseconds spent executing windows so far (barrier waits and
    /// coordinator boundary work excluded).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Earliest pending event time (the coordinator's window-selection and
    /// termination input).
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.queue.peek_time()
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

    /// Schedules a message delivered from another shard (coordinator only).
    pub fn schedule_inbound(&mut self, st: Stamped) {
        self.queue.schedule(
            st.deliver,
            EventKey::arrive(st.msg.dst, st.msg.src, st.seq),
            Event::Arrive(st.msg),
        );
    }

    /// Schedules a barrier release for a local node at window boundary `at`
    /// (coordinator only).
    pub fn schedule_resume(&mut self, at: Cycle, node: NodeId, id: u32) {
        self.queue
            .schedule(at, EventKey::cpu(node), Event::BarrierResume { node, id });
    }

    /// Takes the per-destination outboxes accumulated this window.
    pub fn take_outboxes(&mut self) -> Vec<Vec<Stamped>> {
        let shards = self.outbox.len();
        std::mem::replace(&mut self.outbox, (0..shards).map(|_| Vec::new()).collect())
    }

    /// Drains the barrier/finish records accumulated this window.
    pub fn take_sync_log(&mut self) -> Vec<SyncRecord> {
        std::mem::take(&mut self.sync_log)
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

    /// Appends this shard's unfinished nodes, structured, to a watchdog
    /// diagnosis (see [`crate::StuckReport`]).
    pub fn stuck_nodes_into(&self, out: &mut Vec<crate::StuckNode>) {
        use crate::stuck::{StuckClass, StuckNode};
        for n in &self.nodes {
            let (class, detail) = match &n.exec {
                ExecState::Finished => continue,
                ExecState::Locking(lock, stage) => (
                    StuckClass::LockSpin,
                    format!("lock block {} ({stage:?})", lock.block),
                ),
                ExecState::FlagSpin(_, block) => {
                    (StuckClass::FlagSpin, format!("flag block {block}"))
                }
                ExecState::InBarrier(id) => (StuckClass::BarrierWait, format!("barrier {id}")),
                ExecState::BlockedMem(ctx) => (
                    StuckClass::MemWait,
                    format!(
                        "{} block {}",
                        if ctx.is_write { "write" } else { "read" },
                        ctx.block
                    ),
                ),
                ExecState::Completing(block, ..) => {
                    (StuckClass::Completing, format!("completing block {block}"))
                }
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
        self.nodes[self.li(p)].cache.line(block)
    }

    /// Appends this shard's slice of the machine-wide ground state to a
    /// [`crate::checker::MachineView`].
    pub fn view_into(&self, view: &mut crate::checker::MachineView) {
        for dir in &self.dirs {
            let home = dir.home();
            for (b, rec) in dir.blocks_view() {
                view.dir_blocks.push((home, b, rec));
            }
        }
        for n in &self.nodes {
            for (b, line) in n.cache.lines() {
                view.cache_lines.push((n.id, b, line));
            }
            view.cache_pending += n.cache.pending_misses();
        }
        view.engine_backlog += self
            .engines
            .iter()
            .map(ProtocolEngine::backlog)
            .sum::<usize>();
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

    // ---- routing ---------------------------------------------------------

    /// Routes a message from its (local) source at `at`: same-node messages
    /// deliver instantly; everything else serializes through the source NI
    /// and crosses the network, landing either back on this shard's queue or
    /// in the outbox for the destination's shard.
    fn route(&mut self, msg: Message, at: Cycle) {
        self.emit_aux(at, || SimEvent::MessageSent { msg });
        let seq = {
            let s = &mut self.send_seq[msg.src.index() - usize::from(self.lo)];
            let v = *s;
            *s += 1;
            v
        };
        if msg.src == msg.dst {
            self.queue.schedule(
                at,
                EventKey::arrive(msg.dst, msg.src, seq),
                Event::Arrive(msg),
            );
            return;
        }
        let src_li = self.li(msg.src);
        let depart = self.nis[src_li].depart(at);
        let deliver = depart + SystemConfig::NET_LATENCY;
        let dst_shard = self.part.shard_of(msg.dst);
        if dst_shard == self.index {
            self.queue.schedule(
                deliver,
                EventKey::arrive(msg.dst, msg.src, seq),
                Event::Arrive(msg),
            );
        } else {
            self.outbox[dst_shard].push(Stamped { deliver, seq, msg });
        }
    }

    fn is_directory_bound(kind: MsgKind) -> bool {
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

    // ---- CPU execution ---------------------------------------------------

    fn cpu_step(&mut self, now: Cycle, p: NodeId) {
        let i = self.li(p);
        match &self.nodes[i].exec {
            ExecState::Ready => self.fetch_and_issue(now, p),
            ExecState::FlagSpin(pc, block) => {
                let (pc, block) = (*pc, *block);
                self.issue_access(now, p, pc, block, false, Continuation::FlagWait(pc));
            }
            ExecState::Locking(lock, stage) => {
                let (lock, stage) = (*lock, *stage);
                match stage {
                    LockStage::Test | LockStage::Confirm => self.issue_access(
                        now,
                        p,
                        lock.spin_pc,
                        lock.block,
                        false,
                        if stage == LockStage::Test {
                            Continuation::LockTest(lock)
                        } else {
                            Continuation::LockConfirm(lock)
                        },
                    ),
                    LockStage::Tas => self.issue_tas(now, p, lock),
                }
            }
            ExecState::Completing(block, cont, tas_won) => {
                let (block, cont, tas_won) = (*block, *cont, *tas_won);
                self.finish_access(now, p, block, cont, tas_won);
            }
            state => unreachable!("CpuStep for {p} in state {state:?}"),
        }
    }

    fn fetch_and_issue(&mut self, now: Cycle, p: NodeId) {
        let i = self.li(p);
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
        match op {
            Op::Think(c) => {
                self.queue
                    .schedule(now + Cycle::new(c), EventKey::cpu(p), Event::CpuStep(p));
            }
            Op::Read { pc, block } => {
                self.issue_access(now, p, pc, block, false, Continuation::Plain);
            }
            Op::Write { pc, block } => {
                self.issue_access(now, p, pc, block, true, Continuation::Plain);
            }
            Op::Lock(lock) => {
                self.nodes[i].exec = ExecState::Locking(lock, LockStage::Test);
                self.issue_access(
                    now,
                    p,
                    lock.spin_pc,
                    lock.block,
                    false,
                    Continuation::LockTest(lock),
                );
            }
            Op::Unlock(lock) => {
                self.issue_access(
                    now,
                    p,
                    lock.release_pc,
                    lock.block,
                    true,
                    Continuation::LockRelease(lock),
                );
            }
            Op::Barrier(id) => self.barrier_arrive(now, p, id),
            Op::FlagSet { pc, block } => {
                // The signalling store is an ordinary write; the flag's
                // generation is the block token the write bumps.
                self.issue_access(now, p, pc, block, true, Continuation::Plain);
            }
            Op::FlagWait { pc, block } => {
                self.issue_access(now, p, pc, block, false, Continuation::FlagWait(pc));
            }
        }
    }

    fn issue_access(
        &mut self,
        now: Cycle,
        p: NodeId,
        pc: Pc,
        block: BlockId,
        is_write: bool,
        cont: Continuation,
    ) {
        let i = self.li(p);
        match self.nodes[i].cache.access(block, is_write) {
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
                let fire = self.nodes[i].policy.on_touch(Touch {
                    block,
                    pc,
                    is_write,
                    exclusive,
                    fill: None,
                });
                if fire {
                    self.self_invalidate(now, p, block);
                }
                self.complete_access(now + SystemConfig::CPU_HIT, p, block, cont, false);
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
                self.nodes[i].exec = ExecState::BlockedMem(MemCtx {
                    block,
                    pc,
                    is_write,
                    cont,
                });
                let home = self.cfg.home_of(block);
                self.route(Message::new(p, home, block, kind), now);
            }
        }
    }

    /// Issues the test-and-set RMW of a lock acquisition. The atomic's
    /// success is decided against *protocol-serialized* state: on a hit the
    /// line already holds write permission, so the swap applies in place; on
    /// a miss the fetch installs the line exclusively ([`NodeCache::access_tas`])
    /// and the swap applies the moment the fill lands — before anything else
    /// can intervene, exactly like a hardware RMW holding the line.
    fn issue_tas(&mut self, now: Cycle, p: NodeId, lock: Lock) {
        let i = self.li(p);
        let (pc, block) = (lock.tas_pc, lock.block);
        match self.nodes[i].cache.access_tas(block) {
            AccessOutcome::Hit { exclusive } => {
                self.emit(
                    now,
                    SimEvent::CacheHit {
                        node: p,
                        block,
                        pc,
                        is_write: true,
                        exclusive,
                    },
                );
                let won = self.nodes[i].cache.try_tas(block);
                let fire = self.nodes[i].policy.on_touch(Touch {
                    block,
                    pc,
                    is_write: true,
                    exclusive,
                    fill: None,
                });
                if fire {
                    self.self_invalidate(now, p, block);
                }
                self.complete_access(
                    now + SystemConfig::CPU_HIT,
                    p,
                    block,
                    Continuation::LockTas(lock),
                    won,
                );
            }
            AccessOutcome::Miss(kind) => {
                self.emit(
                    now,
                    SimEvent::CacheMiss {
                        node: p,
                        block,
                        pc,
                        is_write: true,
                    },
                );
                self.nodes[i].exec = ExecState::BlockedMem(MemCtx {
                    block,
                    pc,
                    is_write: true,
                    cont: Continuation::LockTas(lock),
                });
                let home = self.cfg.home_of(block);
                self.route(Message::new(p, home, block, kind), now);
            }
        }
    }

    /// Whether a lock block currently *looks held* from this node's cached
    /// copy: the lock value is the block's token parity (odd = held). An
    /// absent line reads as generation 0 — free — which is benign: the
    /// confirm read and the test-and-set itself are protocol-serialized.
    fn lock_looks_held(&self, p: NodeId, block: BlockId) -> bool {
        self.nodes[self.li(p)]
            .cache
            .line(block)
            .map_or(0, |l| l.token)
            % 2
            == 1
    }

    /// Finishes an access (hit or fill) once its latency elapses: parks the
    /// node in [`ExecState::Completing`] and schedules the continuation to
    /// run at `resume_at`. `tas_won` is meaningful only for
    /// [`Continuation::LockTas`] (the RMW outcome is decided at fill time,
    /// against protocol-serialized state; only its *consequences* wait).
    fn complete_access(
        &mut self,
        resume_at: Cycle,
        p: NodeId,
        block: BlockId,
        cont: Continuation,
        tas_won: bool,
    ) {
        let i = self.li(p);
        self.nodes[i].exec = ExecState::Completing(block, cont, tas_won);
        self.sched_cpu(resume_at, p);
    }

    /// Runs an access's continuation at its proper time, advancing lock
    /// state machines and scheduling the processor's next step.
    fn finish_access(
        &mut self,
        now: Cycle,
        p: NodeId,
        block: BlockId,
        cont: Continuation,
        tas_won: bool,
    ) {
        let resume_at = now;
        let i = self.li(p);
        match cont {
            Continuation::Plain => {
                self.nodes[i].exec = ExecState::Ready;
                self.sched_cpu(resume_at, p);
            }
            Continuation::LockTest(lock) => {
                debug_assert_eq!(block, lock.block);
                if self.lock_looks_held(p, lock.block) {
                    // Keep spinning: each retest is a real touch of the lock
                    // block (usually a cache hit, until a release
                    // invalidates the copy).
                    self.nodes[i].exec = ExecState::Locking(lock, LockStage::Test);
                    self.sched_cpu(resume_at + Cycle::new(SPIN_INTERVAL), p);
                } else {
                    // Looks free: back off a randomized interval, then
                    // confirm before attempting the RMW.
                    self.nodes[i].lock_failures += 1;
                    let slots = backoff_slots(p, self.nodes[i].lock_failures);
                    self.nodes[i].exec = ExecState::Locking(lock, LockStage::Confirm);
                    self.sched_cpu(resume_at + Cycle::new(SPIN_INTERVAL * slots), p);
                }
            }
            Continuation::LockConfirm(lock) => {
                debug_assert_eq!(block, lock.block);
                if self.lock_looks_held(p, lock.block) {
                    // Someone won during the backoff: resume spinning
                    // without ever issuing the test-and-set.
                    self.nodes[i].exec = ExecState::Locking(lock, LockStage::Test);
                    self.sched_cpu(resume_at + Cycle::new(SPIN_INTERVAL), p);
                } else {
                    self.nodes[i].exec = ExecState::Locking(lock, LockStage::Tas);
                    self.sched_cpu(resume_at, p);
                }
            }
            Continuation::LockTas(lock) => {
                if !tas_won {
                    // Lost the race: back off before spinning again. The
                    // deterministic pseudo-random backoff breaks up the
                    // test-and-set herd so lock-block traces vary per visit
                    // (the raytrace §5.4 effect: "locks spin a variable
                    // number of times per visit").
                    self.nodes[i].lock_failures += 1;
                    let backoff = backoff_slots(p, self.nodes[i].lock_failures);
                    self.nodes[i].exec = ExecState::Locking(lock, LockStage::Test);
                    self.sched_cpu(resume_at + Cycle::new(SPIN_INTERVAL * backoff), p);
                } else {
                    self.emit_aux(resume_at, || SimEvent::LockAcquired {
                        node: p,
                        block: lock.block,
                    });
                    self.nodes[i].exec = ExecState::Ready;
                    if lock.exposed {
                        self.sync_boundary(resume_at, p, SyncKind::LockAcquire);
                    }
                    self.sched_cpu(resume_at, p);
                }
            }
            Continuation::LockRelease(lock) => {
                // The releasing store bumped the token back to even (held →
                // free) through the ordinary write path — possibly refetching
                // the line exclusively first if a spinner's read had stolen
                // it.
                debug_assert!(
                    !self.lock_looks_held(p, lock.block)
                        || self.nodes[i].cache.line(lock.block).is_none(),
                    "release left the lock looking held"
                );
                self.emit_aux(resume_at, || SimEvent::LockReleased {
                    node: p,
                    block: lock.block,
                });
                self.nodes[i].exec = ExecState::Ready;
                if lock.exposed {
                    self.sync_boundary(resume_at, p, SyncKind::LockRelease);
                }
                self.sched_cpu(resume_at, p);
            }
            Continuation::FlagWait(pc) => {
                // Observe the generation from the (possibly stale) cached
                // copy — exactly what real spin code would see.
                let observed = self.nodes[i].cache.line(block).map_or(0, |l| l.token);
                let waited = self
                    .flag_waited
                    .entry((p.index() as u16, block))
                    .or_insert(0);
                if observed > *waited {
                    *waited += 1;
                    self.nodes[i].exec = ExecState::Ready;
                    self.sched_cpu(resume_at, p);
                } else {
                    self.nodes[i].exec = ExecState::FlagSpin(pc, block);
                    self.sched_cpu(resume_at + Cycle::new(SPIN_INTERVAL), p);
                }
            }
        }
    }

    #[inline(always)]
    fn sched_cpu(&mut self, at: Cycle, p: NodeId) {
        self.queue.schedule(at, EventKey::cpu(p), Event::CpuStep(p));
    }

    fn barrier_arrive(&mut self, now: Cycle, p: NodeId, id: u32) {
        self.emit_aux(now, || SimEvent::BarrierEnter { node: p, id });
        let i = self.li(p);
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
    fn barrier_resume(&mut self, now: Cycle, p: NodeId, id: u32) {
        let i = self.li(p);
        debug_assert!(
            matches!(self.nodes[i].exec, ExecState::InBarrier(b) if b == id),
            "node released from a barrier it was not waiting at"
        );
        self.nodes[i].exec = ExecState::Ready;
        self.sync_boundary(now, p, SyncKind::Barrier);
        self.sched_cpu(now + SystemConfig::CPU_HIT, p);
    }

    /// Reports a synchronization boundary to the node's policy and performs
    /// any bulk self-invalidation it requests (DSI's flush).
    fn sync_boundary(&mut self, now: Cycle, p: NodeId, kind: SyncKind) {
        let i = self.li(p);
        let flushes = self.nodes[i].policy.on_sync(kind);
        for block in flushes {
            self.self_invalidate(now, p, block);
        }
    }

    /// Executes one self-invalidation: drops the local copy and notifies the
    /// home (clean notification or dirty writeback).
    fn self_invalidate(&mut self, now: Cycle, p: NodeId, block: BlockId) {
        let i = self.li(p);
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
        self.route(Message::new(p, home, block, kind), now);
    }

    // ---- message handling ------------------------------------------------

    fn arrive(&mut self, now: Cycle, msg: Message) {
        self.emit(now, SimEvent::MessageDelivered { msg });
        if Self::is_directory_bound(msg.kind) {
            let h = self.li(msg.dst);
            if self.engines[h].enqueue(now, msg) {
                let at = self.engines[h].next_ready(now);
                self.queue
                    .schedule(at, EventKey::drain(msg.dst), Event::EngineDrain(msg.dst));
            }
        } else {
            self.cache_side(now, msg);
        }
    }

    fn engine_drain(&mut self, now: Cycle, h: NodeId) {
        let hi = self.li(h);
        let Some((msg, queued)) = self.engines[hi].dequeue(now) else {
            return;
        };
        self.emit_aux(now, || SimEvent::DirAccepted { home: h, msg });
        let step = self.dirs[hi].process(msg);
        let service = if step.data_service {
            SystemConfig::DIR_DATA_SERVICE
        } else {
            SystemConfig::DIR_CONTROL
        };
        let done = self.engines[hi].begin_service(now, service);
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
        // Clamp departures so sends for one block leave in service order
        // (see `dir_send_order`). A sparse eviction's invalidations ride in
        // the same service but target the *victim* block, so each send
        // clamps on its own block's lane.
        let depart = {
            let last = self.dir_send_order[hi]
                .entry(msg.block)
                .or_insert(Cycle::ZERO);
            let depart = done.max(*last);
            *last = depart;
            depart
        };
        for m in step.sends {
            let at = if m.block == msg.block {
                depart
            } else {
                let last = self.dir_send_order[hi]
                    .entry(m.block)
                    .or_insert(Cycle::ZERO);
                let at = done.max(*last);
                *last = at;
                at
            };
            self.route(m, at);
        }
        for r in step.reinject {
            let seq = {
                let s = &mut self.reinject_seq[hi];
                let v = *s;
                *s += 1;
                v
            };
            self.queue
                .schedule(depart, EventKey::reinject(h, r.src, seq), Event::Arrive(r));
        }
        if self.engines[hi].arm_next_drain() {
            let at = self.engines[hi].next_ready(now);
            self.queue
                .schedule(at, EventKey::drain(h), Event::EngineDrain(h));
        }
    }

    fn cache_side(&mut self, now: Cycle, msg: Message) {
        let p = msg.dst;
        let i = self.li(p);
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
                self.complete_fill(now, msg);
            }
            other => unreachable!("cache received {other:?}"),
        }
    }

    fn complete_fill(&mut self, now: Cycle, msg: Message) {
        let p = msg.dst;
        let i = self.li(p);
        let ExecState::BlockedMem(ctx) = self.nodes[i].exec else {
            unreachable!("fill for {p} which is not blocked");
        };
        debug_assert_eq!(ctx.block, msg.block, "fill for the wrong block");
        let fill = self.nodes[i].cache.apply_reply(msg.block, msg.kind);
        // A test-and-set applies the moment its fetch lands, before the
        // policy or anything else can observe the line — the atomic's
        // outcome is decided purely by the protocol-serialized token parity
        // the fill delivered.
        let tas_won =
            matches!(ctx.cont, Continuation::LockTas(_)) && self.nodes[i].cache.try_tas(msg.block);
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
        let fire = self.nodes[i].policy.on_touch(Touch {
            block: ctx.block,
            pc: ctx.pc,
            is_write: ctx.is_write,
            exclusive: fill.exclusive,
            fill: Some(fill.info),
        });
        if fire {
            self.self_invalidate(now, p, ctx.block);
        }
        // The requester-side network-cache install costs one memory access
        // (this is what stretches the round trip to Table 1's ≈416 cycles).
        self.complete_access(
            now + SystemConfig::MEM_ACCESS,
            p,
            ctx.block,
            ctx.cont,
            tas_won,
        );
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
