//! Timing shims: wrappers around the simulator's public trait objects
//! ([`Program`], [`SelfInvalidationPolicy`] / [`PolicyFactory`], [`Probe`] /
//! [`ProbeFactory`]) that time every call crossing a layer boundary from
//! outside the program.
//!
//! Each shim owned by one node (or one probe) keeps plain local counters and
//! folds them into the shared [`Tally`] once, when it is dropped or
//! finished, so shims on different shard threads never contend on a cache
//! line while the machine runs. Every shim forwards names, specs and
//! non-timed hooks unchanged, so a shimmed run reports bit-identically to an
//! unshimmed one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ltp_core::{
    BlockId, PolicyFactory, PredictorConfig, SelfInvalidationPolicy, StorageStats, SyncKind, Touch,
    VerifyOutcome,
};
use ltp_system::{MetricsSection, Probe, ProbeCtx, ProbeFactory, RunInfo, SimEvent};
use ltp_workloads::{Op, Program};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Shared per-layer totals (host nanoseconds and call counts).
        #[derive(Debug, Default)]
        pub struct Tally {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A plain snapshot of [`Tally`], also a shim's local accumulator.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counts {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Tally {
            /// The current totals.
            pub fn snapshot(&self) -> Counts {
                Counts { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            /// Folds one shim's local counts in. `Relaxed` suffices: the
            /// totals publish no other data, and every reader joins the
            /// threads that wrote them first.
            fn add(&self, c: &Counts) {
                $(self.$name.fetch_add(c.$name, Ordering::Relaxed);)*
            }
        }
    };
}

counters!(
    /// Nanoseconds inside `Program::next_op`.
    next_op_ns,
    /// Ops returned by `Program::next_op`.
    ops,
    /// Nanoseconds inside `SelfInvalidationPolicy::on_touch`.
    touch_ns,
    /// `on_touch` calls.
    touches,
    /// Self-invalidations requested (touch fires plus sync flushes).
    fires,
    /// Nanoseconds inside `SelfInvalidationPolicy::on_sync`.
    sync_ns,
    /// Nanoseconds inside `on_invalidation` and `on_verification`.
    other_ns,
    /// Verdicts delivered through `on_verification`.
    verified,
    /// Of those, verdicts that were `Correct`.
    correct,
    /// Nanoseconds inside `Probe::on_event`.
    probe_ns,
    /// `Probe::on_event` calls.
    probe_events,
);

impl Counts {
    /// Nanoseconds spent inside every timed policy hook.
    pub fn core_ns(&self) -> u64 {
        self.touch_ns + self.sync_ns + self.other_ns
    }
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Wraps every program so its `next_op` calls are timed into `tally`.
pub fn programs(programs: Vec<Box<dyn Program>>, tally: &Arc<Tally>) -> Vec<Box<dyn Program>> {
    programs
        .into_iter()
        .map(|inner| {
            Box::new(TimedProgram {
                inner,
                local: Counts::default(),
                tally: Arc::clone(tally),
            }) as Box<dyn Program>
        })
        .collect()
}

#[derive(Debug)]
struct TimedProgram {
    inner: Box<dyn Program>,
    local: Counts,
    tally: Arc<Tally>,
}

impl Program for TimedProgram {
    fn next_op(&mut self) -> Option<Op> {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.local.next_op_ns += nanos_since(t);
        self.local.ops += u64::from(op.is_some());
        op
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        self.tally.add(&self.local);
    }
}

/// A [`PolicyFactory`] whose policies time every hook into a [`Tally`].
/// Name and spec are the wrapped factory's, so reports and campaign hashes
/// are unchanged.
#[derive(Debug)]
pub struct TimedFactory {
    inner: Arc<dyn PolicyFactory>,
    tally: Arc<Tally>,
}

impl TimedFactory {
    /// Wraps `inner`, timing into `tally`.
    pub fn wrap(inner: Arc<dyn PolicyFactory>, tally: &Arc<Tally>) -> Arc<dyn PolicyFactory> {
        Arc::new(TimedFactory {
            inner,
            tally: Arc::clone(tally),
        })
    }
}

impl PolicyFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn build(&self, config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
        Box::new(TimedPolicy {
            inner: self.inner.build(config),
            local: Counts::default(),
            tally: Arc::clone(&self.tally),
        })
    }
}

#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn SelfInvalidationPolicy>,
    local: Counts,
    tally: Arc<Tally>,
}

impl SelfInvalidationPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let t = Instant::now();
        let fire = self.inner.on_touch(touch);
        self.local.touch_ns += nanos_since(t);
        self.local.touches += 1;
        self.local.fires += u64::from(fire);
        fire
    }

    fn on_invalidation(&mut self, block: BlockId) {
        let t = Instant::now();
        self.inner.on_invalidation(block);
        self.local.other_ns += nanos_since(t);
    }

    fn on_sync(&mut self, kind: SyncKind) -> Vec<BlockId> {
        let t = Instant::now();
        let flushed = self.inner.on_sync(kind);
        self.local.sync_ns += nanos_since(t);
        self.local.fires += flushed.len() as u64;
        flushed
    }

    fn on_verification(&mut self, block: BlockId, outcome: VerifyOutcome) {
        let t = Instant::now();
        self.inner.on_verification(block, outcome);
        self.local.other_ns += nanos_since(t);
        self.local.verified += 1;
        self.local.correct += u64::from(outcome == VerifyOutcome::Correct);
    }

    fn wants_ground_truth(&self) -> bool {
        self.inner.wants_ground_truth()
    }

    fn prime_last_touches(&mut self, last_touches: &[(BlockId, u64)]) {
        self.inner.prime_last_touches(last_touches);
    }

    fn storage(&self) -> StorageStats {
        self.inner.storage()
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.tally.add(&self.local);
    }
}

/// Wraps a probe factory so each probe's `on_event` is timed into `tally`.
pub fn probe_factory(inner: Arc<dyn ProbeFactory>, tally: &Arc<Tally>) -> Arc<dyn ProbeFactory> {
    Arc::new(TimedProbeFactory {
        inner,
        tally: Arc::clone(tally),
    })
}

#[derive(Debug)]
struct TimedProbeFactory {
    inner: Arc<dyn ProbeFactory>,
    tally: Arc<Tally>,
}

impl ProbeFactory for TimedProbeFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn build(&self, run: &RunInfo) -> Box<dyn Probe> {
        Box::new(TimedProbe {
            inner: self.inner.build(run),
            local: Counts::default(),
            tally: Arc::clone(&self.tally),
        })
    }
}

#[derive(Debug)]
struct TimedProbe {
    inner: Box<dyn Probe>,
    local: Counts,
    tally: Arc<Tally>,
}

impl Probe for TimedProbe {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        let t = Instant::now();
        self.inner.on_event(ctx, event);
        self.local.probe_ns += nanos_since(t);
        self.local.probe_events += 1;
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        self.tally.add(&self.local);
        self.inner.finish()
    }
}
