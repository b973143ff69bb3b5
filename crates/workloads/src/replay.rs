//! Logical coherence replay: the directory-free fast path behind
//! `ltp predict`.
//!
//! Drains a workload's per-node programs through an idealized, *un-timed*
//! MSI coherence model: per-block sharer/owner state is tracked exactly
//! (full-map, the machine's default), every load/store becomes the same
//! [`Touch`] the full machine would deliver (demand fills, upgrades,
//! migratory upgrades, write-version numbers), external invalidations and
//! synchronization boundaries reach the policies at the same per-block
//! points — but no cycles, no network, no protocol engine occupancy. A
//! [`ltp_core::VerdictEngine`] reproduces the directory's verification-mask
//! verdicts, closing the predictor feedback loop. The result is pure table
//! updates: roughly an order of magnitude faster than even this repo's
//! lightweight machine (`ltp predict` vs `ltp run`; the perfbench
//! `predict` workload measures it), and far more against a cycle-accurate
//! simulator, whose per-op cost the replay never pays.
//!
//! # Scheduling model
//!
//! Nodes execute round-robin, one operation per runnable node per round, in
//! node order. Synchronization is idealized:
//!
//! * **Locks** — a free lock is acquired immediately with the machine's
//!   test-and-test-and-set touch sequence (two spin-PC loads, one TAS
//!   store); contenders block without spinning and retry, so waiters wake
//!   in node order. No backoff, no wasted spin touches.
//! * **Flags** — [`Op::FlagWait`] consumes one signal generation
//!   (`writes > waited`), touching the flag block once on success;
//!   blocked waiters emit no touches.
//! * **Parked contenders** — a node whose lock or flag attempt fails is
//!   parked on the block and skipped until the block is written (a flag
//!   set, the releasing store, any store) — the only events that can
//!   change the attempt's outcome, since a lock is released only by its
//!   releasing store. The schedule is the one a retry every round gives: a
//!   failed attempt changes nothing the replay reports, and a woken node
//!   retries at its own turn in node order — nodes after the waker in the
//!   same round, nodes before it in the next. A parked node still counts
//!   as runnable for the barrier, and a round in which every unfinished
//!   node is parked or at the barrier is the deadlock.
//! * **Barriers** — a node arriving at [`Op::Barrier`] blocks until every
//!   unfinished node arrives; all are released in node order, each
//!   receiving its [`SyncKind::Barrier`] boundary (and flushing whatever
//!   its policy returns).
//!
//! For data-race-free programs whose only synchronization is barriers, the
//! per-(node, block) event subsequences this produces are *identical* to
//! the full machine's — conflicting accesses are ordered by barrier epochs,
//! so hit/miss classification, fill kinds, invalidation points, and
//! verdicts are timing-independent (`tests/predict_equivalence.rs` asserts
//! this). Lock- and flag-based kernels keep the same logical structure but
//! lose the timing-dependent spin retests the machine performs, so their
//! offline metrics are faithful approximations, not replicas.
//!
//! # Ground truth
//!
//! With recording enabled, a replay marks, per (node, block), the 1-based
//! touch ordinals after which the block was externally invalidated — the
//! last-touch ground truth that primes
//! [`ltp_core::SelfInvalidationPolicy::prime_last_touches`] (the `oracle`
//! spec). The operation schedule above depends only on program order,
//! locks, flags, and barriers — never on policy decisions — so the touch
//! ordinals recorded under a baseline replay remain valid when the oracle
//! actuates, and the oracle achieves 100% accuracy and coverage by
//! construction (fuzzed in `tests/predict_properties.rs`, including on
//! random racy traces).

use std::collections::BTreeSet;

use ltp_core::FxHashMap;

use ltp_core::{
    BlockId, FillInfo, FillKind, NodeId, NullPolicy, PredictStats, SelfInvalidationPolicy,
    SyncKind, Touch, VerdictEngine, VerdictRecord,
};

use crate::program::{Lock, Op, Program};

/// What a logical replay produced.
#[derive(Debug)]
pub struct ReplayReport {
    /// Per-node prediction tallies.
    pub stats: Vec<PredictStats>,
    /// Every verification verdict delivered, in delivery order.
    pub verdicts: Vec<VerdictRecord>,
    /// Total program operations executed (including think time and
    /// synchronization).
    pub ops: u64,
    /// Per node: (block, 1-based touch ordinal) pairs marking observed last
    /// touches. `Some` only when recording was requested.
    pub ground_truth: Option<Vec<Vec<(BlockId, u64)>>>,
}

/// A dense node bitset: the replay's full-map sharer vector. Iteration is
/// ascending by node id, matching the directory's invalidation order.
#[derive(Debug, Default)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn contains(&self, p: u16) -> bool {
        self.words
            .get(p as usize / 64)
            .is_some_and(|w| (w >> (p % 64)) & 1 == 1)
    }

    fn insert(&mut self, p: u16) {
        let word = p as usize / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (p % 64);
    }

    fn remove(&mut self, p: u16) {
        if let Some(w) = self.words.get_mut(p as usize / 64) {
            *w &= !(1 << (p % 64));
        }
    }

    fn clear(&mut self) {
        self.words.clear();
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some((wi * 64 + bit as usize) as u16)
            })
        })
    }
}

/// Per-block directory state: exact full-map sharers plus owner.
#[derive(Debug, Default)]
struct BlockState {
    sharers: NodeSet,
    owner: Option<u16>,
    version: u32,
    /// Writes ever performed — the flag-generation token.
    writes: u64,
    /// Nodes parked on this block: a failed [`Op::Lock`] or
    /// [`Op::FlagWait`] on it, waiting for the next write or release.
    waiters: Vec<u16>,
}

impl BlockState {
    /// Unparks every node waiting on this block: a write or a lock release
    /// is all that can change the outcome of their failed attempts.
    fn wake(&mut self, parked: &mut [bool]) {
        for p in self.waiters.drain(..) {
            parked[p as usize] = false;
        }
    }
}

struct Replayer<'a> {
    policies: &'a mut [Box<dyn SelfInvalidationPolicy>],
    engine: VerdictEngine,
    blocks: FxHashMap<u64, BlockState>,
    verdicts: Vec<VerdictRecord>,
    /// Lock blocks currently held.
    locks_held: BTreeSet<u64>,
    /// Flag generations consumed, per (node, block).
    waited: FxHashMap<(u16, u64), u64>,
    /// Per (node, block): touches delivered (1-based ordinals).
    touch_seq: FxHashMap<(u16, u64), u64>,
    /// Per node: recorded last-touch marks (when recording).
    marks: Option<Vec<Vec<(BlockId, u64)>>>,
    /// Per node: parked on a block's `waiters` (see the scheduling model).
    parked: Vec<bool>,
    /// Scratch for a write miss's victims, reused across writes.
    victims: Vec<u16>,
}

impl Replayer<'_> {
    fn holds(&self, p: u16, b: u64) -> bool {
        self.blocks
            .get(&b)
            .is_some_and(|s| s.owner == Some(p) || s.sharers.contains(p))
    }

    /// Sends `p`'s request for `block` to the verdict engine and delivers
    /// the verdicts it resolves to their policies.
    fn request(&mut self, p: u16, block: BlockId, write_request: bool) {
        let recs = self.engine.on_request(NodeId::new(p), block, write_request);
        for r in recs {
            self.policies[r.node.index()].on_verification(r.block, r.outcome);
        }
        self.verdicts.extend_from_slice(recs);
    }

    /// Parks `p` on block `b` after a failed lock or flag attempt.
    fn park(&mut self, p: u16, b: u64) {
        self.blocks.entry(b).or_default().waiters.push(p);
        self.parked[p as usize] = true;
    }

    /// An external invalidation of `victim`'s copy of `b` (it holds one).
    fn invalidate(&mut self, victim: u16, b: u64) {
        let block = BlockId::new(b);
        self.policies[victim as usize].on_invalidation(block);
        self.engine.on_not_predicted(NodeId::new(victim));
        if let Some(marks) = &mut self.marks {
            let ordinal = self.touch_seq.get(&(victim, b)).copied().unwrap_or(0);
            if ordinal > 0 {
                marks[victim as usize].push((block, ordinal));
            }
        }
        let state = self.blocks.get_mut(&b).expect("holder implies state");
        state.sharers.remove(victim);
        if state.owner == Some(victim) {
            state.owner = None; // writeback
        }
    }

    /// Removes `p`'s copy of `b` after a self-invalidation and registers
    /// the fire with the verdict engine.
    fn self_invalidate(&mut self, p: u16, b: u64) {
        let state = self.blocks.get_mut(&b).expect("holder implies state");
        let was_owner = state.owner == Some(p);
        if was_owner {
            state.owner = None;
        }
        state.sharers.remove(p);
        self.engine
            .on_fire(NodeId::new(p), BlockId::new(b), was_owner);
    }

    /// Delivers one touch to `p`'s policy, handling a fire.
    fn touch(&mut self, p: u16, touch: Touch) {
        self.engine.tick();
        self.engine.note_touch(NodeId::new(p));
        if self.marks.is_some() {
            *self.touch_seq.entry((p, touch.block.index())).or_insert(0) += 1;
        }
        if self.policies[p as usize].on_touch(touch) {
            self.self_invalidate(p, touch.block.index());
        }
    }

    /// Executes a load: hit, or GetS through the logical directory.
    fn read(&mut self, p: u16, pc: ltp_core::Pc, b: u64) {
        let block = BlockId::new(b);
        if let Some(state) = self.blocks.get(&b) {
            let exclusive = state.owner == Some(p);
            if exclusive || state.sharers.contains(p) {
                self.touch(
                    p,
                    Touch {
                        block,
                        pc,
                        is_write: false,
                        exclusive,
                        fill: None,
                    },
                );
                return;
            }
        }
        self.request(p, block, false);
        // Migratory-favoring §2: a read invalidates the writer entirely.
        if let Some(owner) = self.blocks.entry(b).or_default().owner {
            self.invalidate(owner, b);
        }
        let state = self.blocks.get_mut(&b).expect("entry created above");
        state.sharers.insert(p);
        let version = state.version;
        self.touch(
            p,
            Touch {
                block,
                pc,
                is_write: false,
                exclusive: false,
                fill: Some(FillInfo {
                    kind: FillKind::Demand,
                    dir_version: version,
                    migratory_upgrade: false,
                }),
            },
        );
    }

    /// Executes a store: hit, Upgrade, or GetX through the logical
    /// directory.
    fn write(&mut self, p: u16, pc: ltp_core::Pc, b: u64) {
        let block = BlockId::new(b);
        let state = self.blocks.entry(b).or_default();
        state.writes += 1;
        state.wake(&mut self.parked);
        let owner_hit = state.owner == Some(p);
        let holds_shared = state.sharers.contains(p);
        if owner_hit {
            self.touch(
                p,
                Touch {
                    block,
                    pc,
                    is_write: true,
                    exclusive: true,
                    fill: None,
                },
            );
            return;
        }
        self.request(p, block, true);
        let state = self.blocks.get(&b).expect("entry exists");
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend(
            state
                .sharers
                .iter()
                .filter(|&s| s != p)
                .chain(state.owner.into_iter().filter(|&o| o != p)),
        );
        let migratory = holds_shared && victims.is_empty();
        for &v in &victims {
            self.invalidate(v, b);
        }
        self.victims = victims;
        let state = self.blocks.get_mut(&b).expect("entry exists");
        state.sharers.clear();
        state.version += 1;
        state.owner = Some(p);
        let version = state.version;
        self.touch(
            p,
            Touch {
                block,
                pc,
                is_write: true,
                exclusive: true,
                fill: Some(FillInfo {
                    // An in-place upgrade only when the requester still held
                    // its shared copy; otherwise a full write miss.
                    kind: if holds_shared {
                        FillKind::Upgrade
                    } else {
                        FillKind::Demand
                    },
                    dir_version: version,
                    migratory_upgrade: migratory,
                }),
            },
        );
    }

    /// Delivers a synchronization boundary and flushes whatever the policy
    /// returns (ignoring blocks not cached, like the machine's controller).
    fn sync(&mut self, p: u16, kind: SyncKind) {
        self.engine.tick();
        let flush = self.policies[p as usize].on_sync(kind);
        for block in flush {
            if self.holds(p, block.index()) {
                self.self_invalidate(p, block.index());
            }
        }
    }
}

/// Outcome of attempting one operation.
enum Exec {
    Done,
    /// A lock or flag wait failed on this block.
    Blocked(u64),
    EnteredBarrier(u32),
}

/// Drains `programs` (one per node) through fresh `policies` (one per
/// node), returning per-node [`PredictStats`], the verdict stream, and —
/// when `record_ground_truth` — the per-node last-touch marks. Panics on
/// program deadlock (a lock never released, a flag never signalled, or
/// mismatched concurrent barrier ids), mirroring the machine's own
/// failure mode.
pub fn replay(
    mut programs: Vec<Box<dyn Program>>,
    policies: &mut [Box<dyn SelfInvalidationPolicy>],
    record_ground_truth: bool,
) -> ReplayReport {
    let n = programs.len();
    assert_eq!(n, policies.len(), "one policy per node");
    let mut r = Replayer {
        policies,
        engine: VerdictEngine::new(n as u16),
        blocks: FxHashMap::default(),
        verdicts: Vec::new(),
        locks_held: BTreeSet::new(),
        waited: FxHashMap::default(),
        touch_seq: FxHashMap::default(),
        marks: record_ground_truth.then(|| vec![Vec::new(); n]),
        parked: vec![false; n],
        victims: Vec::new(),
    };
    let mut pending: Vec<Option<Op>> = (0..n).map(|_| None).collect();
    let mut finished = vec![false; n];
    let mut in_barrier = vec![false; n];
    // O(1) release check: the barrier opens when every unfinished node has
    // arrived. `barrier_id` pins the epoch's id; a node arriving at a
    // different one is the machine's deadlock (asserted on entry).
    let mut runnable = n;
    let mut waiting = 0usize;
    let mut barrier_id: Option<u32> = None;
    let mut ops: u64 = 0;

    // Releases the barrier once every unfinished node has arrived.
    fn maybe_release_barrier(
        r: &mut Replayer<'_>,
        runnable: usize,
        waiting: &mut usize,
        barrier_id: &mut Option<u32>,
        in_barrier: &mut [bool],
    ) -> bool {
        if *waiting == 0 || *waiting != runnable {
            return false;
        }
        for (p, waiting_here) in in_barrier.iter_mut().enumerate() {
            if std::mem::take(waiting_here) {
                r.sync(p as u16, SyncKind::Barrier);
            }
        }
        *waiting = 0;
        *barrier_id = None;
        true
    }

    loop {
        let mut progress = false;
        for p in 0..n {
            if finished[p] || in_barrier[p] || r.parked[p] {
                continue;
            }
            let Some(op) = pending[p].take().or_else(|| programs[p].next_op()) else {
                finished[p] = true;
                runnable -= 1;
                progress = true;
                progress |= maybe_release_barrier(
                    &mut r,
                    runnable,
                    &mut waiting,
                    &mut barrier_id,
                    &mut in_barrier,
                );
                continue;
            };
            let exec = match op {
                Op::Think(_) => Exec::Done,
                Op::Read { pc, block } => {
                    r.read(p as u16, pc, block.index());
                    Exec::Done
                }
                Op::Write { pc, block } | Op::FlagSet { pc, block } => {
                    r.write(p as u16, pc, block.index());
                    Exec::Done
                }
                Op::Lock(lock) => {
                    if r.locks_held.contains(&lock.block.index()) {
                        Exec::Blocked(lock.block.index())
                    } else {
                        acquire(&mut r, p as u16, lock);
                        Exec::Done
                    }
                }
                Op::Unlock(lock) => {
                    // The releasing store wakes the lock's waiters; they
                    // retry after this op, with the lock free.
                    r.write(p as u16, lock.release_pc, lock.block.index());
                    r.locks_held.remove(&lock.block.index());
                    if lock.exposed {
                        r.sync(p as u16, SyncKind::LockRelease);
                    }
                    Exec::Done
                }
                Op::FlagWait { pc, block } => {
                    let b = block.index();
                    let signalled = r.blocks.get(&b).map_or(0, |s| s.writes);
                    let waited = r.waited.entry((p as u16, b)).or_insert(0);
                    if signalled > *waited {
                        *waited += 1;
                        r.read(p as u16, pc, b);
                        Exec::Done
                    } else {
                        Exec::Blocked(b)
                    }
                }
                Op::Barrier(id) => Exec::EnteredBarrier(id),
            };
            match exec {
                Exec::Done => {
                    ops += 1;
                    progress = true;
                }
                Exec::Blocked(b) => {
                    pending[p] = Some(op);
                    r.park(p as u16, b);
                }
                Exec::EnteredBarrier(id) => {
                    ops += 1;
                    progress = true;
                    match barrier_id {
                        None => barrier_id = Some(id),
                        Some(prev) => assert_eq!(
                            id, prev,
                            "concurrent distinct barrier ids: nodes disagree on the barrier"
                        ),
                    }
                    in_barrier[p] = true;
                    waiting += 1;
                    maybe_release_barrier(
                        &mut r,
                        runnable,
                        &mut waiting,
                        &mut barrier_id,
                        &mut in_barrier,
                    );
                }
            }
        }
        if finished.iter().all(|f| *f) {
            break;
        }
        assert!(
            progress,
            "logical replay deadlocked: every runnable node is blocked \
             (a lock never released or a flag never signalled)"
        );
    }

    let ground_truth = r.marks.take();
    let verdicts = std::mem::take(&mut r.verdicts);
    let stats = r.engine.finish();
    ReplayReport {
        stats,
        verdicts,
        ops,
        ground_truth,
    }
}

/// The machine's uncontended test-and-test-and-set acquire: two spin-PC
/// loads (test, confirm) and the TAS store.
fn acquire(r: &mut Replayer<'_>, p: u16, lock: Lock) {
    r.read(p, lock.spin_pc, lock.block.index());
    r.read(p, lock.spin_pc, lock.block.index());
    r.write(p, lock.tas_pc, lock.block.index());
    r.locks_held.insert(lock.block.index());
    if lock.exposed {
        r.sync(p, SyncKind::LockAcquire);
    }
}

/// Computes per-node last-touch ground truth with a baseline (never-fire)
/// replay: for each node, the (block, 1-based touch ordinal) pairs after
/// which the block was externally invalidated. Feed the node's pairs to
/// [`SelfInvalidationPolicy::prime_last_touches`].
pub fn ground_truth(programs: Vec<Box<dyn Program>>) -> Vec<Vec<(BlockId, u64)>> {
    let n = programs.len();
    let mut nulls: Vec<Box<dyn SelfInvalidationPolicy>> = (0..n)
        .map(|_| Box::new(NullPolicy) as Box<dyn SelfInvalidationPolicy>)
        .collect();
    replay(programs, &mut nulls, true)
        .ground_truth
        .expect("recording was requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::WorkloadSource;
    use crate::suite::{Benchmark, WorkloadParams};
    use ltp_core::{PolicyRegistry, PredictorConfig};

    fn policies(spec: &str, n: u16) -> Vec<Box<dyn SelfInvalidationPolicy>> {
        let registry = PolicyRegistry::with_builtins();
        let factory = registry.parse(spec).unwrap();
        (0..n)
            .map(|_| factory.build(PredictorConfig::default()))
            .collect()
    }

    fn programs(bench: Benchmark) -> Vec<Box<dyn crate::Program>> {
        WorkloadSource::from(bench)
            .programs(&WorkloadParams::quick(4, 3))
            .unwrap()
    }

    #[test]
    fn every_benchmark_replays_to_completion() {
        for bench in Benchmark::ALL {
            let mut pols = policies("ltp", 4);
            let report = replay(programs(bench), &mut pols, false);
            assert!(report.ops > 0, "{bench:?} executed ops");
            let total: u64 = report.stats.iter().map(|s| s.touches).sum();
            assert!(total > 0, "{bench:?} touched blocks");
        }
    }

    fn script(ops: Vec<Op>) -> Box<dyn Program> {
        Box::new(crate::LoopedScript::new(ops, Vec::new(), 0))
    }

    #[test]
    #[should_panic(expected = "logical replay deadlocked")]
    fn a_lock_never_released_deadlocks() {
        let lock = Lock::library(BlockId::new(3), 0x100);
        let programs = vec![
            script(vec![Op::Lock(lock)]),
            script(vec![Op::Think(1), Op::Lock(lock)]),
        ];
        replay(programs, &mut policies("ltp", 2), false);
    }

    #[test]
    #[should_panic(expected = "logical replay deadlocked")]
    fn a_flag_never_set_deadlocks() {
        let (pc, block) = (ltp_core::Pc::new(0x200), BlockId::new(5));
        let programs = vec![
            script(vec![Op::FlagWait { pc, block }]),
            // Writes to other blocks keep the round busy without waking.
            script(vec![
                Op::Write {
                    pc,
                    block: BlockId::new(6),
                };
                8
            ]),
        ];
        replay(programs, &mut policies("ltp", 2), false);
    }

    #[test]
    fn replay_is_deterministic() {
        for bench in [Benchmark::Em3d, Benchmark::Barnes, Benchmark::Appbt] {
            let mut a = policies("ltp", 4);
            let mut b = policies("ltp", 4);
            let ra = replay(programs(bench), &mut a, false);
            let rb = replay(programs(bench), &mut b, false);
            assert_eq!(ra.stats, rb.stats, "{bench:?}");
            assert_eq!(ra.verdicts, rb.verdicts, "{bench:?}");
        }
    }

    #[test]
    fn ltp_learns_under_logical_replay() {
        let mut pols = policies("ltp", 4);
        let report = replay(programs(Benchmark::Em3d), &mut pols, false);
        let merged = report
            .stats
            .iter()
            .fold(PredictStats::default(), |mut acc, s| {
                acc.merge(s);
                acc
            });
        assert!(merged.correct > 0, "em3d's one-touch traces are learnable");
        assert!(
            merged.correct > merged.premature,
            "the paper's predictor is accurate on em3d: {merged:?}"
        );
    }

    #[test]
    fn oracle_is_perfect_on_every_benchmark() {
        for bench in Benchmark::ALL {
            let truth = ground_truth(programs(bench));
            let mut pols = policies("oracle", 4);
            for (p, t) in pols.iter_mut().zip(&truth) {
                p.prime_last_touches(t);
            }
            let report = replay(programs(bench), &mut pols, false);
            let merged = report
                .stats
                .iter()
                .fold(PredictStats::default(), |mut acc, s| {
                    acc.merge(s);
                    acc
                });
            assert_eq!(merged.premature, 0, "{bench:?}: oracle never premature");
            assert_eq!(merged.not_predicted, 0, "{bench:?}: oracle never misses");
            let marked: usize = truth.iter().map(Vec::len).sum();
            assert_eq!(
                merged.fires as usize, marked,
                "{bench:?}: every marked last touch fires"
            );
            if marked > 0 {
                assert_eq!(merged.accuracy_pct(), Some(100.0), "{bench:?}");
                assert_eq!(merged.coverage_pct(), Some(100.0), "{bench:?}");
            }
        }
    }
}
