//! The machine coordinator: shards, windows, and global synchronization.
//!
//! [`Machine`] assembles the full CC-NUMA system — CPUs, caches, policies,
//! directories, protocol engines, and network interfaces — as a set of
//! [`crate::shard`] slices and drives them through conservatively
//! synchronized clock windows:
//!
//! 1. pick the next window `[kL, (k+1)L)` containing the globally earliest
//!    pending event (`L` = minimum cross-node latency, the lookahead);
//! 2. run every shard's slice of that window independently — shard 0 on the
//!    calling thread, shards `1..N` on `N − 1` scoped worker threads; each
//!    shard runs its nodes one after another, then delivers the messages
//!    between them (see [`crate::shard`]);
//! 3. at the boundary, exchange cross-shard messages, merge and replay the
//!    shards' probe logs, and fold barrier arrivals into the global barrier
//!    state (releases are scheduled at the boundary cycle).
//!
//! Because window boundaries lie on a fixed grid, cross-shard messages are
//! stamped with content-derived FIFO keys, and each node's same-cycle
//! events pop in a deterministic content-keyed order, the run is
//! **bit-identical for every shard count** — `--shards 8` produces the
//! same `RunReport` bytes as a serial run. The serial path *is* the 1-shard instance of the same loop:
//! no worker is spawned and the rendezvous never blocks.
//!
//! Locks are executed as test-and-test-and-set loops over their shared
//! block, with the lock value carried by the block's write-token parity
//! (odd = held), so lock state lives entirely in coherence state and needs
//! no global word — essential for sharding, and faithful to how the paper's
//! benchmarks actually synchronize.
//!
//! The machine keeps **no metrics of its own**: every observable action is
//! emitted as a [`SimEvent`]. Attach the built-in
//! [`crate::probes::CoreMetricsProbe`] via [`Machine::attach_core_metrics`]
//! to reconstruct the classic flat [`Metrics`] (collected per shard,
//! statically dispatched, merged at the end); attach any number of
//! [`Probe`]s for everything else — generic probes observe the merged
//! cross-shard event stream in exact serial order.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;

use ltp_core::{BlockId, NodeId, SelfInvalidationPolicy};
use ltp_dsm::{CombiningTree, SystemConfig};
use ltp_sim::{Cycle, RunSummary, StopReason, WindowSort};
use ltp_workloads::Program;

use crate::metrics::Metrics;
use crate::probe::{MetricsSection, Probe, ProbeCtx, SimEvent};
use crate::probes::CoreMetricsProbe;
use crate::shard::channel::{ProbeEntry, SpinBarrier, Stamped, SyncEvent, SyncRecord};
use crate::shard::clock::WindowClock;
use crate::shard::{Partition, Shard};

/// Global barrier bookkeeping, folded from the shards' per-window logs.
///
/// All live (unfinished) nodes must arrive at the *same* barrier id before
/// it releases; a second id showing up while one is collecting is a
/// malformed workload and is rejected with a hard error (not a
/// `debug_assert`), because silently merging distinct barriers would corrupt
/// the release bookkeeping.
///
/// Arrival counting runs through a [`CombiningTree`] (fan-in from
/// [`SystemConfig::barrier_fanin`]) instead of a central wait-set, so a
/// 4096-node barrier costs O(log n) per arrival rather than funnelling
/// every node through one counter. The tree only changes *how* completion
/// is detected: records still fold in the deterministic `(cycle, node)`
/// order and releases are still scheduled at the window-boundary cycle, so
/// release timing — and therefore every simulated cycle count — is
/// bit-identical to the central wait-set at any shard count.
#[derive(Debug)]
struct GlobalSync {
    tree: CombiningTree,
    /// The barrier currently collecting arrivals, with its waiters so far
    /// (kept alongside the tree for the release event and resume fan-out).
    waiting: Option<(u32, Vec<u16>)>,
}

impl GlobalSync {
    fn new(total: u16, fanin: u16) -> Self {
        GlobalSync {
            tree: CombiningTree::new(total, fanin),
            waiting: None,
        }
    }

    /// Folds one window's synchronization records (pre-sorted by
    /// `(cycle, node)` — the deterministic global arrival order) into the
    /// barrier state, returning every barrier that released, in release
    /// order, with its waiters sorted by node index.
    fn fold(&mut self, records: &[SyncRecord]) -> Vec<(u32, Vec<u16>)> {
        let mut released = Vec::new();
        for r in records {
            let complete = match r.ev {
                // A finish shrinks the live population, which can be what
                // completes a partially-arrived barrier.
                SyncEvent::Finish => self.tree.retire(r.node),
                SyncEvent::Arrive(id) => {
                    match &mut self.waiting {
                        Some((other, waiters)) if *other != id => panic!(
                            "{} arrived at barrier {id} while {} node(s) wait at distinct \
                             barrier {other}: the workload skips or reorders barriers",
                            NodeId::new(r.node),
                            waiters.len()
                        ),
                        Some((_, waiters)) => waiters.push(r.node),
                        None => self.waiting = Some((id, vec![r.node])),
                    }
                    self.tree.arrive(r.node)
                }
            };
            // The tree also reports completion when the *last* live node
            // retires with nothing collecting; only a real barrier releases.
            if complete && self.waiting.is_some() {
                let (id, mut waiters) = self.waiting.take().expect("checked above");
                waiters.sort_unstable();
                released.push((id, waiters));
                self.tree.reset_episode();
            }
        }
        released
    }
}

/// Bounded depth of the probe-observer channel, in batches. Deep enough to
/// absorb bursty batches without stalling the simulation, shallow enough to
/// bound the memory held by in-flight logs.
const OBSERVER_DEPTH: usize = 4;

/// Entries accumulated before a batch is handed to the observer thread.
/// Channel hops cost microseconds (mutex + thread wake), so windows are
/// batched until the handoff cost is noise per event.
const OBSERVER_BATCH: usize = 32 * 1024;

/// One unit of work for the probe-observer thread, sent in simulation
/// order.
enum ObserverMsg {
    /// Accumulated per-window, per-shard event logs (chronological outer
    /// order, one log per shard for each window, each written node by node
    /// — the observer puts every window into serial emission order).
    Batch(Vec<Vec<ProbeEntry>>),
    /// A barrier release folded at a window boundary; sent after a flush,
    /// so it sits exactly where the serial replay would put it.
    Sync { event: SimEvent, now: Cycle },
}

/// The observer thread disappeared mid-run — a probe panicked (e.g.
/// `check:strict` on a violation). The run stops and the panic payload is
/// re-raised when the observer is joined.
struct ObserverDead;

/// Where window probe logs go: a dedicated thread that owns the probes for
/// the duration of a run.
///
/// Generic probes ([`Machine::attach_probe`]) observe the merged cross-shard
/// event stream in exact serial order — but nothing about that order
/// requires the *simulation* to wait for them. The machine hands batches of
/// window logs to the observer thread, which orders each window (see
/// [`WindowSort`]) and dispatches it while the shards already run the next
/// window: the simulation's critical path pays only the per-event log
/// append, and the probes' own work (metrics, histograms, the coherence
/// sanitizer) overlaps execution. Drained buffers are recycled, so
/// steady-state logging allocates nothing,
/// and the channel is bounded — a probe slower than the simulation
/// backpressures it instead of accumulating unbounded logs.
struct Observer {
    tx: SyncSender<ObserverMsg>,
    /// Emptied log buffers coming back from the observer for reuse.
    recycle: Receiver<Vec<ProbeEntry>>,
    thread: JoinHandle<Vec<Box<dyn Probe>>>,
    /// Windows accumulated since the last send (outer: chronological,
    /// inner: shard order).
    pending: Vec<Vec<ProbeEntry>>,
    pending_entries: usize,
}

impl Observer {
    /// Moves `probes` onto a fresh observer thread, which will receive
    /// `shards` logs per window.
    fn spawn(probes: Vec<Box<dyn Probe>>, nodes: u16, shards: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel::<ObserverMsg>(OBSERVER_DEPTH);
        let (recycle_tx, recycle) = mpsc::channel::<Vec<ProbeEntry>>();
        let thread = std::thread::spawn(move || {
            let mut probes = probes;
            let mut window: Vec<ProbeEntry> = Vec::new();
            let mut order = WindowSort::default();
            while let Ok(msg) = rx.recv() {
                match msg {
                    ObserverMsg::Batch(mut logs) => {
                        // Windows cover disjoint ascending cycle ranges, so
                        // ordering each window orders the batch.
                        for logs in logs.chunks_mut(shards) {
                            window.clear();
                            for log in logs {
                                window.append(log);
                            }
                            order.sort(&mut window, |e| (e.at, e.key));
                            replay(&window, &mut probes, nodes);
                        }
                        for log in logs {
                            // The coordinator may already be gone; buffers
                            // then simply drop.
                            let _ = recycle_tx.send(log);
                        }
                    }
                    ObserverMsg::Sync { event, now } => {
                        let ctx = ProbeCtx { now, nodes };
                        for p in &mut probes {
                            p.on_event(&ctx, &event);
                        }
                    }
                }
            }
            probes
        });
        Observer {
            tx,
            recycle,
            thread,
            pending: Vec::new(),
            pending_entries: 0,
        }
    }

    /// Takes one window's per-shard logs at a boundary, sending the batch
    /// once it is large enough.
    fn window(&mut self, shards: &mut [MutexGuard<'_, Shard>]) -> Result<(), ObserverDead> {
        for s in shards.iter_mut() {
            let mut log = self.recycle.try_recv().unwrap_or_default();
            debug_assert!(log.is_empty(), "recycled buffers come back drained");
            std::mem::swap(s.probe_log_mut(), &mut log);
            self.pending_entries += log.len();
            self.pending.push(log);
        }
        if self.pending_entries >= OBSERVER_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    /// Dispatches one boundary-time event (barrier releases), in order with
    /// the window entries around it.
    fn sync_event(&mut self, event: SimEvent, now: Cycle) -> Result<(), ObserverDead> {
        self.flush()?;
        self.tx
            .send(ObserverMsg::Sync { event, now })
            .map_err(|_| ObserverDead)
    }

    /// Sends the accumulated batch (if any) to the observer thread.
    fn flush(&mut self) -> Result<(), ObserverDead> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.pending_entries = 0;
        self.tx
            .send(ObserverMsg::Batch(std::mem::take(&mut self.pending)))
            .map_err(|_| ObserverDead)
    }

    /// Joins the observer, recovering the probes. Re-raises the probe's
    /// panic if the thread died on one.
    fn join(mut self) -> Vec<Box<dyn Probe>> {
        let _ = self.flush();
        let Observer {
            tx,
            recycle,
            thread,
            ..
        } = self;
        drop(tx); // close the channel so the thread drains and exits
        drop(recycle);
        match thread.join() {
            Ok(probes) => probes,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// Dispatches one window's log entries, already in serial emission order:
/// `(at, key)` is globally unique per cycle and the window's sort is
/// stable, so one handler's emissions stay contiguous and in order.
fn replay(entries: &[ProbeEntry], probes: &mut [Box<dyn Probe>], nodes: u16) {
    for e in entries {
        let ctx = ProbeCtx { now: e.now, nodes };
        for p in probes.iter_mut() {
            p.on_event(&ctx, &e.event);
        }
    }
}

/// The composed CC-NUMA machine.
///
/// Build one with [`Machine::new`] (serial) or [`Machine::with_shards`]
/// (parallel), attach observers ([`Machine::attach_core_metrics`] for the
/// classic flat [`Metrics`], [`Machine::attach_probe`] for anything else),
/// drive it with [`Machine::run`], then call [`Machine::finish`].
///
/// Most users should go through `ltp_system::ExperimentSpec` instead.
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    part: Partition,
    clock: WindowClock,
    /// The machine slices. During a run each shard's thread locks it for
    /// the duration of a window, and the calling thread locks all of them
    /// (uncontended — workers are parked at the rendezvous barrier) for
    /// boundary work. Between runs they are reached through `get_mut`.
    shards: Vec<Mutex<Shard>>,
    sync: GlobalSync,
    /// Attached observers, called in attach order on every event of the
    /// merged stream.
    probes: Vec<Box<dyn Probe>>,
}

impl Machine {
    /// Assembles a serial (single-shard) machine from per-node policies and
    /// programs.
    ///
    /// # Panics
    ///
    /// Panics unless `policies` and `programs` both have exactly
    /// `cfg.nodes()` elements.
    pub fn new(
        cfg: SystemConfig,
        policies: Vec<Box<dyn SelfInvalidationPolicy>>,
        programs: Vec<Box<dyn Program>>,
    ) -> Self {
        Machine::with_shards(cfg, policies, programs, 1)
    }

    /// Assembles a machine partitioned into `shards` slices (clamped to the
    /// node count), each run on its own thread — the calling thread counts
    /// as one. Results are bit-identical for every value of `shards`; only
    /// wall-clock time changes.
    ///
    /// # Panics
    ///
    /// Panics unless `policies` and `programs` both have exactly
    /// `cfg.nodes()` elements, or if `shards` is zero.
    pub fn with_shards(
        cfg: SystemConfig,
        policies: Vec<Box<dyn SelfInvalidationPolicy>>,
        programs: Vec<Box<dyn Program>>,
        shards: usize,
    ) -> Self {
        let n = cfg.nodes() as usize;
        assert_eq!(policies.len(), n, "one policy per node");
        assert_eq!(programs.len(), n, "one program per node");
        let part = Partition::new(cfg.nodes(), shards);
        let clock = WindowClock::new(SystemConfig::MIN_CROSS_NODE_LATENCY);
        let mut policies = policies.into_iter();
        let mut programs = programs.into_iter();
        let shards = (0..part.shards())
            .map(|s| {
                let (lo, hi) = part.range(s);
                let count = usize::from(hi - lo);
                Mutex::new(Shard::new(
                    cfg.clone(),
                    part,
                    s,
                    policies.by_ref().take(count).collect(),
                    programs.by_ref().take(count).collect(),
                ))
            })
            .collect();
        let sync = GlobalSync::new(cfg.nodes(), cfg.barrier_fanin());
        Machine {
            cfg,
            part,
            clock,
            shards,
            sync,
            probes: Vec::new(),
        }
    }

    /// The number of shards this machine runs on (after clamping to the
    /// node count).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether every processor has finished its program.
    pub fn all_finished(&self) -> bool {
        let done: usize = self.shards.iter().map(|s| lock(s).finished_local()).sum();
        done == self.cfg.nodes() as usize
    }

    /// Structured per-node stuck diagnosis (all unfinished nodes, in node
    /// order — shards own contiguous ranges, so concatenation is sorted).
    pub fn stuck_nodes(&self) -> Vec<crate::StuckNode> {
        let mut out = Vec::new();
        for s in &self.shards {
            lock(s).stuck_nodes_into(&mut out);
        }
        out
    }

    /// Host nanoseconds each shard has spent executing its windows (barrier
    /// waits and boundary work excluded), indexed by shard. Exact per-shard
    /// work when the host has at least one core per shard, so no window is
    /// preempted. The work-partition view of a run: `serial busy / max
    /// shard busy` is the speedup the partition supports, and the number to
    /// look at when a sharded run scales worse than expected (imbalance
    /// shows up as one outlier shard).
    pub fn shard_busy_ns(&self) -> Vec<u64> {
        self.shards.iter().map(|s| lock(s).busy_ns()).collect()
    }

    /// The write-token of the copy of `block` cached at `p`, if present —
    /// test/debug introspection (e.g. asserting lost-update freedom through
    /// a contended lock; the token counts the block's writes).
    pub fn cached_token(&self, p: NodeId, block: BlockId) -> Option<u64> {
        lock(&self.shards[self.part.shard_of(p)])
            .cached_line(p, block)
            .map(|l| l.token)
    }

    /// Views the machine-wide ground state (every directory record, in
    /// place, and every cached line) for invariant checking — see
    /// [`crate::checker::quiescence_violations`]. Deterministically sorted.
    /// Takes `&mut self` to reach the shards without locking them.
    pub fn view(&mut self) -> crate::checker::MachineView<'_> {
        let mut view = crate::checker::MachineView {
            nodes: self.cfg.nodes(),
            directory: self.cfg.directory(),
            ..Default::default()
        };
        for s in &mut self.shards {
            lock_mut(s).view_into(&mut view);
        }
        view
    }

    // ---- observation -----------------------------------------------------

    /// Attaches the built-in core-metrics observer. Without it,
    /// [`Machine::finish`] yields no [`Metrics`]. Internally one collector
    /// per shard tallies its own slice (statically dispatched on the hot
    /// path); [`Machine::finish`] merges them — bit-identically, since
    /// nodes and homes are partitioned.
    pub fn attach_core_metrics(&mut self) {
        for s in &mut self.shards {
            lock_mut(s).attach_core(CoreMetricsProbe::new(self.cfg.nodes()));
        }
    }

    /// Attaches one observer; probes see every subsequent event of the
    /// merged cross-shard stream, in attach order. With at least one probe
    /// attached, shards log events during windows and the coordinator
    /// replays the merged log at each boundary — in exact serial emission
    /// order, regardless of the shard count.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probes.push(probe);
    }

    // ---- execution -------------------------------------------------------

    /// Runs the machine until all events drain or the horizon is exceeded.
    ///
    /// The horizon is enforced at window granularity: whole windows run, so
    /// events inside the final window but past the horizon are still
    /// handled. This keeps the check shard-count-invariant; the horizon is a
    /// deadlock backstop, not a precision instrument.
    ///
    /// The calling thread picks every window, runs shard 0's slice of it,
    /// and does all boundary work; shards `1..N` run on `N − 1` scoped
    /// workers that rendezvous with it twice per window on a spin barrier
    /// sized to `N`. With one shard no worker is spawned and the barrier
    /// never blocks. A panic in any shard's window or in the boundary fold
    /// shuts the workers down and is re-raised here.
    pub fn run(&mut self, horizon: Cycle) -> RunSummary {
        let log_events = !self.probes.is_empty();
        for s in &mut self.shards {
            lock_mut(s).set_log_events(log_events);
        }
        // Generic probes move onto the observer thread for the duration of
        // the run (see [`Observer`]) and come back at the end.
        let mut observer = log_events.then(|| {
            Observer::spawn(
                std::mem::take(&mut self.probes),
                self.cfg.nodes(),
                self.shards.len(),
            )
        });
        let (clock, part, shards, sync) = (self.clock, self.part, &self.shards, &mut self.sync);
        let barrier = SpinBarrier::new(shards.len());
        // Written only by the calling thread while the workers are parked,
        // and read by them after the rendezvous that follows.
        let running = AtomicBool::new(true);
        let win_start = AtomicU64::new(0);
        let win_end = AtomicU64::new(0);
        let mut bufs = BoundaryBufs::default();
        // The first window's start; each boundary then reads the next one
        // off the shards it already holds.
        let mut t_min = shards
            .iter()
            .filter_map(|s| lock(s).next_event_time())
            .min();
        let stop = std::thread::scope(|scope| {
            for shard in &shards[1..] {
                let (barrier, running, win_start, win_end) =
                    (&barrier, &running, &win_start, &win_end);
                scope.spawn(move || loop {
                    barrier.wait();
                    if !running.load(Ordering::Acquire) {
                        break;
                    }
                    let start = Cycle::new(win_start.load(Ordering::Acquire));
                    let end = Cycle::new(win_end.load(Ordering::Acquire));
                    run_window(shard, start, end);
                    barrier.wait();
                });
            }
            // Releases the parked workers to observe the cleared flag and
            // exit; the scope joins them.
            let shut_down = || {
                running.store(false, Ordering::Release);
                barrier.wait();
            };
            // Every shard's guard during boundary work, in one buffer kept
            // across windows; cleared (unlocking) before the next window.
            let mut guards: Vec<MutexGuard<'_, Shard>> = Vec::with_capacity(shards.len());
            loop {
                // Boundary phase: workers are parked at the rendezvous, so
                // every lock is uncontended.
                let (start, end) = match t_min {
                    None => {
                        shut_down();
                        return Ok(StopReason::Drained);
                    }
                    Some(t) if t > horizon => {
                        shut_down();
                        return Ok(StopReason::HorizonReached);
                    }
                    Some(t) => clock.window_of(t),
                };
                win_start.store(start.as_u64(), Ordering::Release);
                win_end.store(end.as_u64(), Ordering::Release);
                barrier.wait(); // workers start the window
                run_window(&shards[0], start, end);
                barrier.wait(); // every shard finished the window

                // The boundary re-raises a window's panic and can panic
                // itself (malformed barrier workloads), so it runs under
                // catch_unwind to shut the workers down before re-raising.
                let fold = panic::catch_unwind(AssertUnwindSafe(|| {
                    guards.extend(shards.iter().map(lock));
                    boundary(&mut guards, sync, &mut bufs, observer.as_mut(), part, end)?;
                    let next = guards.iter().filter_map(|g| g.next_event_time()).min();
                    guards.clear();
                    Ok(next)
                }));
                match fold {
                    Ok(Ok(next)) => t_min = next,
                    // The observer thread died (a probe panicked); joining
                    // it re-raises the panic.
                    Ok(Err(ObserverDead)) => {
                        shut_down();
                        return Err(ObserverDead);
                    }
                    Err(payload) => {
                        shut_down();
                        panic::resume_unwind(payload);
                    }
                }
            }
        });
        if let Some(observer) = observer {
            // Re-raises the probe's own panic if the observer died mid-run
            // (`Err(ObserverDead)` below).
            self.probes = observer.join();
        }
        let stop = match stop {
            Ok(stop) => stop,
            Err(ObserverDead) => unreachable!("a dead observer re-raises its panic on join"),
        };
        let mut end_time = Cycle::ZERO;
        let mut events_handled = 0;
        for s in &mut self.shards {
            let s = lock_mut(s);
            end_time = end_time.max(s.last_event_time());
            events_handled += s.events_handled();
        }
        RunSummary {
            end_time,
            events_handled,
            stop,
        }
    }

    // ---- teardown --------------------------------------------------------

    /// Finishes the run: merges the per-shard core collectors, emits the
    /// end-of-run [`SimEvent::PolicyStorage`] accounting (one event per
    /// node, in node order), then consumes the machine and every observer.
    /// Returns the core [`Metrics`] (if [`Machine::attach_core_metrics`] was
    /// called) and one [`MetricsSection`] per attached probe that produced
    /// one.
    pub fn finish(mut self) -> (Option<Metrics>, Vec<MetricsSection>) {
        let mut shards: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect();
        let now = shards
            .iter()
            .map(|s| s.last_finish_local())
            .max()
            .unwrap_or(Cycle::ZERO);
        let mut core: Option<CoreMetricsProbe> = None;
        for s in &mut shards {
            if let Some(c) = s.take_core() {
                match &mut core {
                    None => core = Some(c),
                    Some(acc) => acc.merge(&c),
                }
            }
        }
        let ctx = ProbeCtx {
            now,
            nodes: self.cfg.nodes(),
        };
        // Shards own contiguous ascending node ranges, so iterating shards
        // then local nodes is global node order.
        for s in &shards {
            for i in 0..s.node_count() {
                let (node, stats) = s.policy_storage(i);
                let event = SimEvent::PolicyStorage { node, stats };
                if let Some(core) = &mut core {
                    core.observe(&ctx, &event);
                }
                for probe in &mut self.probes {
                    probe.on_event(&ctx, &event);
                }
            }
        }
        let metrics = core.map(CoreMetricsProbe::into_metrics);
        let sections = self.probes.drain(..).filter_map(|p| p.finish()).collect();
        (metrics, sections)
    }
}

/// Locks a shard, shrugging off poison: a worker panic poisons its mutex,
/// but the coordinator still needs the state for diagnosis/teardown, and
/// the panic itself is re-raised separately.
fn lock<'a>(m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `get_mut` with the same poison handling (`&mut self` accessors between
/// runs — no locking at all).
fn lock_mut(m: &mut Mutex<Shard>) -> &mut Shard {
    m.get_mut().unwrap_or_else(|p| p.into_inner())
}

/// Runs one shard's slice of a window, storing a panic in the shard
/// instead of unwinding: the thread must still reach the closing
/// rendezvous, or every other thread would wait for it forever.
fn run_window(shard: &Mutex<Shard>, start: Cycle, end: Cycle) {
    let mut shard = lock(shard);
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| shard.run_window(start, end))) {
        shard.panic = Some(payload);
    }
}

/// Scratch buffers of the window boundary, kept across windows so the
/// exchange allocates only when a window outgrows every earlier one.
#[derive(Debug, Default)]
struct BoundaryBufs {
    /// The empty outbox swapped into a shard; it comes back holding that
    /// shard's messages for one destination, which are drained from it.
    mail: Vec<Stamped>,
    /// All shards' sync records of one window.
    records: Vec<SyncRecord>,
}

/// One window boundary: re-raising a window's panic, cross-shard message
/// exchange, probe-log handoff to the observer, and the global barrier
/// fold. Returns `Err` when the observer thread has died (a probe
/// panicked).
fn boundary(
    shards: &mut [MutexGuard<'_, Shard>],
    sync: &mut GlobalSync,
    bufs: &mut BoundaryBufs,
    mut observer: Option<&mut Observer>,
    part: Partition,
    end: Cycle,
) -> Result<(), ObserverDead> {
    // 1. A shard that panicked stopped mid-window: nothing of it is used.
    for s in shards.iter_mut() {
        if let Some(payload) = s.panic.take() {
            panic::resume_unwind(payload);
        }
    }
    // 2. Redistribute cross-shard messages into their destination lists
    //    (each shard delivered its own slot at the end of its window).
    for src in 0..shards.len() {
        for dst in (0..shards.len()).filter(|&dst| dst != src) {
            shards[src].swap_outbox(dst, &mut bufs.mail);
            for st in bufs.mail.drain(..) {
                shards[dst].deliver(st, end);
            }
        }
    }
    // 3. Hand the shards' event logs (in shard order) to the observer
    //    thread, batched so the probes' work overlaps the next window (see
    //    [`Observer`]).
    if let Some(observer) = observer.as_deref_mut() {
        observer.window(shards)?;
    }
    // 4. Fold barrier arrivals and completions (in global `(cycle, node)`
    //    order) and schedule releases at the boundary cycle — a grid point,
    //    hence identical for every shard count.
    let records = &mut bufs.records;
    records.clear();
    for s in shards.iter_mut() {
        s.drain_sync_log_into(records);
    }
    if !records.is_empty() {
        records.sort_by_key(|r| (r.at, r.node));
        for (id, waiters) in sync.fold(records) {
            let event = SimEvent::BarrierRelease {
                id,
                waiters: waiters.len() as u16,
            };
            if let Some(observer) = observer.as_deref_mut() {
                observer.sync_event(event, end)?;
            }
            for w in waiters {
                let node = NodeId::new(w);
                shards[part.shard_of(node)].schedule_resume(end, node, id);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_core::{NullPolicy, Pc, Touch, VerifyOutcome};
    use ltp_sim::StopReason;
    use ltp_workloads::{Lock, LoopedScript, Op};

    fn small_cfg(nodes: u16) -> SystemConfig {
        SystemConfig::builder().nodes(nodes).build().unwrap()
    }

    fn null_policies(n: u16) -> Vec<Box<dyn SelfInvalidationPolicy>> {
        (0..n)
            .map(|_| Box::new(NullPolicy) as Box<dyn SelfInvalidationPolicy>)
            .collect()
    }

    fn run(mut machine: Machine) -> (Metrics, StopReason) {
        machine.attach_core_metrics();
        let summary = machine.run(Cycle::new(50_000_000));
        assert_ne!(
            summary.stop,
            StopReason::HorizonReached,
            "machine stuck:\n{:#?}",
            machine.stuck_nodes()
        );
        let (m, sections) = machine.finish();
        assert!(sections.is_empty(), "no extra probes attached");
        (m.expect("core metrics attached"), summary.stop)
    }

    fn read(pc: u32, b: u64) -> Op {
        Op::Read {
            pc: Pc::new(pc),
            block: BlockId::new(b),
        }
    }

    fn write(pc: u32, b: u64) -> Op {
        Op::Write {
            pc: Pc::new(pc),
            block: BlockId::new(b),
        }
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|_| Box::new(LoopedScript::new(vec![], vec![], 0)) as Box<dyn Program>)
            .collect();
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (m, _) = run(machine);
        assert!(m.exec_cycles < 10);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn single_remote_read_round_trip_near_416() {
        let cfg = small_cfg(2);
        // Node 1 reads block 0 (home: node 0). One remote miss.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![], vec![], 0)),
            Box::new(LoopedScript::new(vec![read(0x10, 0)], vec![], 0)),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (m, _) = run(machine);
        assert_eq!(m.misses, 1);
        assert!(
            (380..=450).contains(&m.exec_cycles),
            "round trip {} not ≈416",
            m.exec_cycles
        );
    }

    #[test]
    fn producer_consumer_counts_invalidations() {
        let cfg = small_cfg(4);
        // Node 1 writes block 0 then barriers; node 2 reads it after the
        // barrier (invalidating node 1's exclusive copy); others just
        // barrier.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(0)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![write(0x20, 0), Op::Barrier(0)],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![Op::Barrier(0), read(0x30, 0)],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(vec![Op::Barrier(0)], vec![], 0)),
        ];
        let machine = Machine::new(cfg, null_policies(4), programs);
        let (m, _) = run(machine);
        // The read invalidated the writer's copy: one invalidation event,
        // not predicted (base system).
        assert_eq!(m.not_predicted, 1);
        assert_eq!(m.predicted, 0);
        assert_eq!(m.invalidations_sent, 1);
    }

    #[test]
    fn lock_provides_mutual_exclusion_traffic() {
        let cfg = small_cfg(4);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let body = vec![
            Op::Lock(lock),
            write(0x200, 4), // protected block (home: node 0)
            Op::Unlock(lock),
            Op::Think(50),
        ];
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i as u64 * 13)],
                    body.clone(),
                    5,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(4), programs);
        let (m, _) = run(machine);
        // 4 nodes × 5 critical sections each; the protected block migrates,
        // so plenty of invalidations happen and the run completes (mutual
        // exclusion never deadlocks).
        assert!(m.not_predicted > 0);
        assert!(m.misses >= 20, "each CS needs at least one miss");
    }

    #[test]
    fn barrier_synchronizes_all_nodes() {
        let cfg = small_cfg(8);
        let programs: Vec<Box<dyn Program>> = (0..8u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 100), Op::Barrier(0), write(0x40, i)],
                    vec![],
                    0,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(8), programs);
        let (m, _) = run(machine);
        // All the writes happen after the slowest node arrives (700+).
        assert!(m.exec_cycles > 700);
        assert_eq!(m.misses, 8);
    }

    /// A policy that self-invalidates after every touch — maximal
    /// speculation pressure on the protocol's race handling.
    #[derive(Debug, Default)]
    struct AlwaysFire {
        fired: u64,
        correct: u64,
        premature: u64,
    }

    impl SelfInvalidationPolicy for AlwaysFire {
        fn name(&self) -> &'static str {
            "always-fire"
        }
        fn on_touch(&mut self, _t: Touch) -> bool {
            self.fired += 1;
            true
        }
        fn on_verification(&mut self, _b: BlockId, outcome: VerifyOutcome) {
            match outcome {
                VerifyOutcome::Correct => self.correct += 1,
                VerifyOutcome::Premature => self.premature += 1,
            }
        }
    }

    #[test]
    fn always_firing_policy_survives_and_gets_verified() {
        // Two nodes ping-ponging a block while self-invalidating after
        // every single touch: the densest possible self-invalidation race
        // load. The run must complete and verification verdicts must flow.
        let cfg = small_cfg(2);
        let mk = |stagger: u64| -> Box<dyn Program> {
            Box::new(LoopedScript::new(
                vec![Op::Think(stagger)],
                vec![
                    write(0x40, 0),
                    Op::Think(300),
                    read(0x44, 1),
                    Op::Think(200),
                ],
                20,
            ))
        };
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = vec![
            Box::new(AlwaysFire::default()),
            Box::new(AlwaysFire::default()),
        ];
        let machine = Machine::new(cfg, policies, vec![mk(0), mk(150)]);
        let (m, _) = run(machine);
        assert!(m.self_invalidations_sent > 10, "speculation actually ran");
        assert!(
            m.predicted + m.mispredicted > 0,
            "the directory verified outcomes"
        );
        // Token monotonicity is asserted inside the directory on every
        // writeback; reaching here means no write was lost.
    }

    #[test]
    fn premature_self_invalidation_is_reported_to_the_culprit() {
        // One node writes the same block repeatedly while always firing:
        // every refetch is by the self-invalidator itself → premature.
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(
                vec![],
                vec![write(0x60, 0), Op::Think(100)],
                10,
            )),
            Box::new(LoopedScript::new(vec![], vec![], 0)),
        ];
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = vec![
            Box::new(AlwaysFire::default()),
            Box::new(AlwaysFire::default()),
        ];
        let machine = Machine::new(cfg, policies, programs);
        let (m, _) = run(machine);
        assert!(m.mispredicted >= 8, "got {} prematures", m.mispredicted);
        assert_eq!(m.predicted, 0, "nobody else ever wants the block");
    }

    #[test]
    fn flag_handoff_pipelines_across_nodes() {
        // A 3-stage pipeline: node 0 signals node 1, node 1 signals node 2.
        let cfg = small_cfg(3);
        let flag = |i: u64| BlockId::new(100 + i);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(
                vec![
                    write(0x10, 0),
                    Op::FlagSet {
                        pc: Pc::new(0x20),
                        block: flag(1),
                    },
                ],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![
                    Op::FlagWait {
                        pc: Pc::new(0x24),
                        block: flag(1),
                    },
                    read(0x14, 0),
                    write(0x18, 1),
                    Op::FlagSet {
                        pc: Pc::new(0x20),
                        block: flag(2),
                    },
                ],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![
                    Op::FlagWait {
                        pc: Pc::new(0x24),
                        block: flag(2),
                    },
                    read(0x1c, 1),
                ],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(3), programs);
        let (m, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
        // The chain forced real coherence transfers of blocks 0 and 1.
        assert!(m.not_predicted >= 2, "handoffs invalidate producer copies");
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        // Under a contended lock with a shared counter block, each holder
        // writes the counter once; the token (write count) at the end must
        // equal the total number of critical sections — no lost updates.
        let cfg = small_cfg(6);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let cs = 4u32;
        let programs: Vec<Box<dyn Program>> = (0..6u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 29)],
                    vec![
                        Op::Lock(lock),
                        write(0x200, 7),
                        Op::Unlock(lock),
                        Op::Think(120),
                    ],
                    cs,
                )) as Box<dyn Program>
            })
            .collect();
        let mut machine = Machine::new(cfg, null_policies(6), programs);
        let summary = machine.run(Cycle::new(50_000_000));
        assert_ne!(summary.stop, StopReason::HorizonReached);
        // Recover the final token from cache state: the last writer holds
        // the newest token (6 nodes × 4 sections).
        let newest = (0..6)
            .filter_map(|i| machine.cached_token(NodeId::new(i), BlockId::new(7)))
            .max()
            .expect("someone holds the counter");
        assert_eq!(newest, u64::from(cs) * 6, "every critical section counted");
    }

    #[test]
    #[should_panic(expected = "distinct barrier")]
    fn skipped_barrier_is_a_hard_error() {
        // Node 0 skips barrier 0 entirely and arrives at barrier 1 while
        // node 1 still waits at barrier 0. The seed silently merged the two
        // wait-sets (debug_assert only); now it is a hard error in release
        // builds too.
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(1)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(100), Op::Barrier(0), Op::Barrier(1)],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let _ = run(machine);
    }

    #[test]
    fn sequential_barrier_ids_release_in_order() {
        // The same nodes passing barriers 0, 1, 2 in lockstep must release
        // each one (per-id wait-sets never mix consecutive phases).
        let cfg = small_cfg(3);
        let programs: Vec<Box<dyn Program>> = (0..3u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![
                        Op::Think(i * 50),
                        Op::Barrier(0),
                        write(0x10, i),
                        Op::Barrier(1),
                        read(0x14, (i + 1) % 3),
                        Op::Barrier(2),
                    ],
                    vec![],
                    0,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(3), programs);
        let (_, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
    }

    #[test]
    fn finished_nodes_do_not_block_barriers() {
        let cfg = small_cfg(2);
        // Node 0 finishes immediately; node 1 then hits a barrier that only
        // it participates in.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(500), Op::Barrier(0)],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (_, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
    }

    /// Builds the contended-lock + barrier workload used for shard
    /// equivalence checks: every machine-level mechanism (locks, barriers,
    /// flags, invalidations, reinjections) in one pot.
    fn mixed_workload(nodes: u16) -> (SystemConfig, Vec<Box<dyn Program>>) {
        let cfg = small_cfg(nodes);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let programs: Vec<Box<dyn Program>> = (0..u64::from(nodes))
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 17), Op::Barrier(0)],
                    vec![
                        Op::Lock(lock),
                        write(0x200, 7),
                        Op::Unlock(lock),
                        read(0x210, 3 + i % 4),
                        write(0x214, 11 + i % 3),
                        Op::Think(60 + i * 7),
                        Op::Barrier(1),
                    ],
                    3,
                )) as Box<dyn Program>
            })
            .collect();
        (cfg, programs)
    }

    #[test]
    fn sharded_runs_match_serial_exactly() {
        let serial = {
            let (cfg, programs) = mixed_workload(6);
            run(Machine::new(cfg, null_policies(6), programs))
        };
        for shards in [2usize, 3, 4, 6] {
            let (cfg, programs) = mixed_workload(6);
            let sharded = run(Machine::with_shards(
                cfg,
                null_policies(6),
                programs,
                shards,
            ));
            assert_eq!(serial, sharded, "{shards}-shard run diverged from serial");
        }
    }

    #[test]
    fn one_shard_machine_is_the_serial_path() {
        let (cfg, programs) = mixed_workload(4);
        let machine = Machine::with_shards(cfg, null_policies(4), programs, 1);
        assert_eq!(machine.shards(), 1);
        let (m, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
        assert!(m.misses > 0);
    }

    /// A program that panics the first time its node fetches an op.
    #[derive(Debug)]
    struct Explodes(u16);

    impl Program for Explodes {
        fn next_op(&mut self) -> Option<Op> {
            panic!("program of node {} exploded", self.0)
        }
    }

    #[test]
    fn worker_panic_is_reraised_not_deadlocked() {
        // Every case must shut the workers down and surface its own panic
        // message instead of hanging the scope.
        let exploding_at = |nodes: u16, bad: u16| -> Vec<Box<dyn Program>> {
            (0..nodes)
                .map(|i| -> Box<dyn Program> {
                    if i == bad {
                        Box::new(Explodes(i))
                    } else {
                        Box::new(LoopedScript::new(vec![Op::Think(500)], vec![], 0))
                    }
                })
                .collect()
        };
        // A shard-1 node skips a barrier, so the fold panics at a boundary
        // on the calling thread.
        let skipped_barrier: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(1)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(100), Op::Barrier(0)],
                vec![],
                0,
            )),
        ];
        let cases = vec![
            (2, 2, skipped_barrier, "distinct barrier"),
            // Shard 0, which runs on the calling thread.
            (4, 2, exploding_at(4, 0), "program of node 0 exploded"),
            // The last worker shard.
            (6, 3, exploding_at(6, 5), "program of node 5 exploded"),
            // A 1-shard machine, which spawns no worker.
            (2, 1, exploding_at(2, 1), "program of node 1 exploded"),
        ];
        for (nodes, shards, programs, expected) in cases {
            let mut machine =
                Machine::with_shards(small_cfg(nodes), null_policies(nodes), programs, shards);
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                machine.run(Cycle::new(50_000_000));
            }))
            .expect_err("the run must re-raise the panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains(expected),
                "{shards}-shard case: unexpected panic: {msg}"
            );
        }
    }
}
