//! The probe/observer API: a typed simulation event stream plus the
//! [`Probe`] trait consumers implement to collect anything from it.
//!
//! Historically every metric lived in one hard-coded flat
//! [`crate::Metrics`] struct whose every field had to be hand-threaded
//! through `Machine`, `RunReport`, a hand-rolled JSON writer, and the CLI
//! tables. The probe API inverts that: the machine emits a [`SimEvent`] at
//! every point where it used to bump a counter, and *observers* — probes —
//! fold the stream into whatever they want. The flat metrics themselves are
//! now just the built-in [`crate::probes::CoreMetricsProbe`]; new metrics
//! are new probes, not new struct fields.
//!
//! # The pieces
//!
//! * [`SimEvent`] — the event catalog (op retired, cache hit/miss, message
//!   sent/delivered/serviced, invalidations with `had_copy`,
//!   self-invalidations, prediction verdicts, barrier and lock activity,
//!   end-of-run storage accounting);
//! * [`Probe`] — `on_event` per event plus a consuming `finish` that yields
//!   an optional self-describing [`MetricsSection`];
//! * [`ProbeFactory`] — builds one fresh probe per run (sweeps share
//!   factories across worker threads, so factories are `Send + Sync`);
//! * [`ProbeRegistry`] — resolves probe *spec strings* (`"per-node"`,
//!   `"hist:self-inv-lead"`, `"heat:16"`) to factories, exactly as
//!   [`ltp_core::PolicyRegistry`] does for policies, and is open to
//!   external registrations. Every built-in is one registry entry returning
//!   an [`FnProbeFactory`].
//!
//! # Spec-string grammar
//!
//! ```text
//! spec := name [ ":" argument ]
//! ```
//!
//! The name selects a registered constructor; everything after the first
//! `:` is passed to it verbatim (trimmed) as a free-form argument —
//! histogram selectors, counts, whatever the probe family needs.
//!
//! # Writing a probe
//!
//! ```
//! use ltp_core::JsonObject;
//! use ltp_system::{ExperimentSpec, MetricsSection, Probe, ProbeCtx, SimEvent};
//! use ltp_workloads::Benchmark;
//!
//! /// Counts barrier releases.
//! #[derive(Debug, Default)]
//! struct BarrierCounter {
//!     releases: u64,
//! }
//!
//! impl Probe for BarrierCounter {
//!     fn on_event(&mut self, _ctx: &ProbeCtx, event: &SimEvent) {
//!         if let SimEvent::BarrierRelease { .. } = event {
//!             self.releases += 1;
//!         }
//!     }
//!     fn finish(self: Box<Self>) -> Option<MetricsSection> {
//!         Some(MetricsSection::new(
//!             "barriers",
//!             JsonObject::new().field("releases", self.releases).build(),
//!         ))
//!     }
//! }
//!
//! let report = ExperimentSpec::builder(Benchmark::Ocean)
//!     .policy_spec("base").unwrap()
//!     .nodes(4).iterations(2)
//!     .probe_fn("barriers", || Box::new(BarrierCounter::default()))
//!     .build()
//!     .run();
//! let section = &report.sections[0];
//! assert_eq!(section.name, "barriers");
//! assert!(section.data.render().starts_with("{\"releases\":"));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ltp_core::{BlockId, JsonValue, NodeId, Pc, StorageStats, VerifyOutcome};
use ltp_dsm::{DirectoryKind, Message};
use ltp_sim::Cycle;
use ltp_workloads::WorkloadParams;

use crate::checker::CoherenceChecker;
use crate::probes::{HeatProbe, MsgLatencyProbe, PerNodeProbe, SelfInvLeadProbe};

/// One observation from the running machine.
///
/// Events are emitted at exactly the points where the pre-probe simulator
/// updated its hard-coded counters, plus the synchronization and per-op
/// hooks new consumers need. Every variant is `Copy`; probes receive them
/// by reference in simulation order.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SimEvent {
    /// A processor fetched its next program operation (emitted at issue,
    /// once per [`ltp_workloads::Op`] — spin retries and protocol traffic
    /// are *not* ops).
    OpRetired {
        /// The fetching processor.
        node: NodeId,
    },
    /// A shared-memory access hit in the node's network cache.
    CacheHit {
        /// The accessing processor.
        node: NodeId,
        /// Block touched.
        block: BlockId,
        /// Static instruction site.
        pc: Pc,
        /// Store (vs load).
        is_write: bool,
        /// The cached copy was exclusive.
        exclusive: bool,
    },
    /// A shared-memory access missed (a coherence request was issued).
    CacheMiss {
        /// The accessing processor.
        node: NodeId,
        /// Block touched.
        block: BlockId,
        /// Static instruction site.
        pc: Pc,
        /// Store (vs load).
        is_write: bool,
    },
    /// A protocol message left its source (before NI serialization).
    MessageSent {
        /// The message.
        msg: Message,
    },
    /// A protocol message reached its destination node.
    MessageDelivered {
        /// The message.
        msg: Message,
    },
    /// A home's protocol engine dequeued a message and handed it to the
    /// directory state machine (start of service; the matching
    /// [`SimEvent::MessageServiced`] follows with the timing). Unlike
    /// `MessageServiced` this carries the *full* message, so checkers can
    /// replay directory decisions from ground state.
    DirAccepted {
        /// The home node servicing the message.
        home: NodeId,
        /// The message entering service.
        msg: Message,
    },
    /// A home's protocol engine completed one directory service.
    MessageServiced {
        /// The home node whose engine serviced the message.
        home: NodeId,
        /// The serviced message's wire kind.
        kind: ltp_dsm::MsgKind,
        /// Cycles the message waited in the engine queue.
        queueing: Cycle,
        /// Service occupancy (control vs data timing class).
        service: Cycle,
        /// Whether the service moved a data block.
        data: bool,
    },
    /// The directory sent an invalidation on behalf of a request.
    InvalidationSent {
        /// The home that sent it.
        home: NodeId,
        /// The invalidated node.
        to: NodeId,
        /// The block.
        block: BlockId,
    },
    /// The directory consumed an invalidation acknowledgement;
    /// `had_copy = false` is an over-invalidation.
    InvalidationAcked {
        /// The home that consumed it.
        home: NodeId,
        /// The acknowledging node.
        from: NodeId,
        /// The block.
        block: BlockId,
        /// Whether a cached copy was actually relinquished.
        had_copy: bool,
    },
    /// A limited-pointer sharer array overflowed into broadcast mode.
    BroadcastOverflow {
        /// The home whose array overflowed.
        home: NodeId,
        /// The block.
        block: BlockId,
    },
    /// A `sparse:E` directory replaced a tracked entry: the victim block's
    /// holders were sent eviction invalidations (counted separately from
    /// demand `InvalidationSent` traffic).
    DirEntryEvicted {
        /// The home whose entry cache replaced an entry.
        home: NodeId,
        /// The *victim* block whose entry was reclaimed.
        block: BlockId,
        /// Eviction invalidations sent for the victim (0 under the
        /// `SkipEvictionInv` mutant).
        invalidations: u16,
    },
    /// The directory ignored a stale message (race bookkeeping). A stale
    /// *self-invalidation* (`kind` is `SelfInvClean`/`SelfInvDirty`) means
    /// that prediction will never receive a verdict — lead-time trackers
    /// must retire it here.
    StaleIgnored {
        /// The home that ignored it.
        home: NodeId,
        /// The stale sender.
        from: NodeId,
        /// The block.
        block: BlockId,
        /// The stale message's kind.
        kind: ltp_dsm::MsgKind,
    },
    /// An invalidation arrived at a node's cache. `had_copy = true` is the
    /// paper's "not predicted" class: a real invalidation removed a copy no
    /// prediction saved.
    Invalidated {
        /// The invalidated node.
        node: NodeId,
        /// The block.
        block: BlockId,
        /// Whether a copy was dropped.
        had_copy: bool,
    },
    /// A node self-invalidated a block — a last-touch prediction *fired*.
    SelfInvalidation {
        /// The predicting node.
        node: NodeId,
        /// The block.
        block: BlockId,
        /// The relinquished copy was dirty (writeback) vs clean.
        dirty: bool,
    },
    /// The directory's verification verdict for an earlier
    /// self-invalidation reached the predicting node.
    /// [`VerifyOutcome::Correct`] with `timely` is the paper's best case;
    /// `Correct` without `timely` arrived after the conflicting request was
    /// already in service (late); [`VerifyOutcome::Premature`] means the
    /// predictor fired early and the node itself came back first.
    PredictionVerified {
        /// The node that predicted.
        node: NodeId,
        /// The block.
        block: BlockId,
        /// Correct or premature.
        outcome: VerifyOutcome,
        /// For correct verdicts: the self-invalidation reached the
        /// directory before the conflicting request (Table 4 timeliness).
        timely: bool,
    },
    /// A processor arrived at a barrier.
    BarrierEnter {
        /// The arriving processor.
        node: NodeId,
        /// Barrier identifier.
        id: u32,
    },
    /// A barrier released every waiting processor.
    BarrierRelease {
        /// Barrier identifier.
        id: u32,
        /// How many processors were released.
        waiters: u16,
    },
    /// A processor won a lock's test-and-set.
    LockAcquired {
        /// The new owner.
        node: NodeId,
        /// The lock block.
        block: BlockId,
    },
    /// A processor released a lock.
    LockReleased {
        /// The former owner.
        node: NodeId,
        /// The lock block.
        block: BlockId,
    },
    /// A processor finished its program (at the context's `now`).
    NodeFinished {
        /// The finished processor.
        node: NodeId,
    },
    /// End-of-run predictor storage accounting for one node (emitted once
    /// per node, in node order, after the simulation drains).
    PolicyStorage {
        /// The node.
        node: NodeId,
        /// Its policy's storage statistics.
        stats: StorageStats,
    },
}

/// Context shared by every event delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCtx {
    /// The simulation time of the event.
    pub now: Cycle,
    /// The machine size.
    pub nodes: u16,
}

/// What a probe factory is told about the run it is instrumenting.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// The workload's display name (benchmark name or trace-header name).
    pub workload_name: String,
    /// The effective workload parameters (trace geometry already pinned).
    pub workload: WorkloadParams,
    /// The directory sharer organization of the run.
    pub directory: DirectoryKind,
}

/// One named, self-describing block of collected metrics.
///
/// `RunReport` serializes sections under a `"sections"` JSON object keyed
/// by name, so a section is anything [`JsonValue`] can express — no report
/// or CLI code changes when a new probe ships.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSection {
    /// The section's name (conventionally the probe's spec string).
    pub name: String,
    /// The collected data.
    pub data: JsonValue,
}

impl MetricsSection {
    /// Creates a section.
    pub fn new(name: &str, data: JsonValue) -> Self {
        MetricsSection {
            name: name.to_string(),
            data,
        }
    }
}

/// A simulation observer.
///
/// Probes receive every [`SimEvent`] of one run in simulation order and
/// fold them into whatever state they like; [`Probe::finish`] consumes the
/// probe after the run drains and yields an optional [`MetricsSection`] for
/// the report (`None` adds no section).
///
/// Probes must be deterministic: reports are compared bit-for-bit across
/// serial/parallel and record/replay runs. They run on sweep worker
/// threads, hence `Send`.
pub trait Probe: fmt::Debug + Send {
    /// Observes one event.
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent);

    /// Consumes the probe after the run completes.
    fn finish(self: Box<Self>) -> Option<MetricsSection>;
}

/// Builds one fresh [`Probe`] per run.
///
/// Factories are the unit of registration and sweeping: one factory
/// attached to a sweep instruments every run of the cross product with its
/// own probe instance.
pub trait ProbeFactory: fmt::Debug + Send + Sync {
    /// The probe family name (`"per-node"`, `"hist"`, …).
    fn name(&self) -> &str;

    /// The canonical spec string reconstructing this factory. Defaults to
    /// [`Self::name`] for argument-less probes.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// Instantiates one probe for one run.
    fn build(&self, run: &RunInfo) -> Box<dyn Probe>;
}

/// A [`ProbeFactory`] wrapping a closure under its canonical spec string —
/// how every built-in probe is defined, and the quickest way to attach an
/// ad-hoc probe type to a single experiment (see
/// [`crate::ExperimentBuilder::probe_fn`]). The family name is the spec up
/// to its first `:` (`"hist:msg-latency"` is a `"hist"`).
pub struct FnProbeFactory {
    spec: String,
    make: Box<MakeProbe>,
}

type MakeProbe = dyn Fn(&RunInfo) -> Box<dyn Probe> + Send + Sync;

impl FnProbeFactory {
    /// Wraps `make`, which builds one probe for the run it is told about,
    /// under the canonical `spec`.
    pub fn new(
        spec: impl Into<String>,
        make: impl Fn(&RunInfo) -> Box<dyn Probe> + Send + Sync + 'static,
    ) -> Self {
        FnProbeFactory {
            spec: spec.into(),
            make: Box::new(make),
        }
    }
}

impl fmt::Debug for FnProbeFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnProbeFactory")
            .field("spec", &self.spec)
            .finish()
    }
}

impl ProbeFactory for FnProbeFactory {
    fn name(&self) -> &str {
        self.spec
            .split_once(':')
            .map_or(&self.spec, |(name, _)| name)
    }

    fn spec(&self) -> String {
        self.spec.clone()
    }

    fn build(&self, run: &RunInfo) -> Box<dyn Probe> {
        (self.make)(run)
    }
}

/// Error produced while resolving a probe spec string or registering a
/// probe name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeSpecError {
    /// The spec string was empty.
    EmptySpec,
    /// No probe of this name is registered.
    UnknownProbe {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// The probe requires an argument and none was given.
    MissingArg {
        /// The probe being configured.
        probe: String,
        /// What the probe wanted (e.g. `"an output path"`).
        expected: String,
    },
    /// The probe takes no argument but one was given.
    UnexpectedArg {
        /// The probe being configured.
        probe: String,
        /// The rejected argument.
        arg: String,
    },
    /// The argument was not one the probe understands.
    InvalidArg {
        /// The probe being configured.
        probe: String,
        /// The rejected argument.
        arg: String,
        /// What the probe wanted.
        expected: String,
    },
    /// `register` was called with a name that is already taken.
    DuplicateName {
        /// The contested name.
        name: String,
    },
}

impl fmt::Display for ProbeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeSpecError::EmptySpec => write!(f, "empty probe spec"),
            ProbeSpecError::UnknownProbe { name, known } => {
                write!(f, "unknown probe `{name}` (known: {})", known.join(", "))
            }
            ProbeSpecError::MissingArg { probe, expected } => {
                write!(f, "probe `{probe}` needs an argument: {expected}")
            }
            ProbeSpecError::UnexpectedArg { probe, arg } => {
                write!(f, "probe `{probe}` takes no argument, got `{arg}`")
            }
            ProbeSpecError::InvalidArg {
                probe,
                arg,
                expected,
            } => write!(
                f,
                "probe `{probe}`: argument `{arg}` invalid, expected {expected}"
            ),
            ProbeSpecError::DuplicateName { name } => {
                write!(f, "a probe named `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for ProbeSpecError {}

type ProbeConstructor =
    Box<dyn Fn(Option<&str>) -> Result<Arc<dyn ProbeFactory>, ProbeSpecError> + Send + Sync>;

struct ProbeEntry {
    summary: String,
    make: ProbeConstructor,
}

/// Maps probe names to factory constructors — the probe-side mirror of
/// [`ltp_core::PolicyRegistry`].
///
/// [`ProbeRegistry::with_builtins`] pre-registers the in-tree probes;
/// [`ProbeRegistry::register`] opens the table to external crates (see
/// `examples/custom_probe.rs`).
///
/// # Examples
///
/// ```
/// use ltp_system::ProbeRegistry;
///
/// let registry = ProbeRegistry::with_builtins();
/// assert!(registry.parse("per-node").is_ok());
/// assert!(registry.parse("hist:self-inv-lead").is_ok());
/// assert!(registry.parse("hist:nope").is_err(), "unknown histogram");
/// assert!(registry.parse("no-such-probe").is_err());
/// ```
pub struct ProbeRegistry {
    entries: BTreeMap<String, ProbeEntry>,
}

impl fmt::Debug for ProbeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for ProbeRegistry {
    /// Equivalent to [`ProbeRegistry::with_builtins`].
    fn default() -> Self {
        ProbeRegistry::with_builtins()
    }
}

impl ProbeRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        ProbeRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// A registry pre-loaded with the built-in probes:
    ///
    /// | spec | probe |
    /// |---|---|
    /// | `check`, `check:strict` | online coherence sanitizer |
    /// | `per-node` | per-node accuracy/traffic breakdown |
    /// | `hist:self-inv-lead` | lead-time histogram of self-invalidations |
    /// | `hist:msg-latency` | directory queueing/service latency per message class |
    /// | `heat:<K>` | the K hottest blocks by access count |
    pub fn with_builtins() -> Self {
        let mut r = ProbeRegistry::empty();
        r.register(
            "check",
            "online coherence sanitizer: replay the event stream against an \
             independent shadow directory and the invariant catalog \
             (check:strict panics at the first violation)",
            |arg| {
                let strict = match arg {
                    None => false,
                    Some("strict") => true,
                    Some(other) => {
                        return Err(ProbeSpecError::InvalidArg {
                            probe: "check".to_string(),
                            arg: other.to_string(),
                            expected: "no argument, or :strict".to_string(),
                        })
                    }
                };
                let spec = if strict { "check:strict" } else { "check" };
                Ok(Arc::new(FnProbeFactory::new(spec, move |run| {
                    Box::new(CoherenceChecker::new(
                        run.workload.nodes,
                        run.directory,
                        strict,
                    ))
                })))
            },
        )
        .expect("fresh registry");
        r.register(
            "per-node",
            "per-node accuracy and traffic breakdown (one record per node)",
            |arg| match arg {
                None => Ok(Arc::new(FnProbeFactory::new("per-node", |run| {
                    Box::new(PerNodeProbe::new(run.workload.nodes))
                }))),
                Some(arg) => Err(ProbeSpecError::UnexpectedArg {
                    probe: "per-node".to_string(),
                    arg: arg.to_string(),
                }),
            },
        )
        .expect("fresh registry");
        r.register(
            "hist",
            "distribution probes; hist:self-inv-lead = lead time between a \
             self-invalidation and its verification verdict, \
             hist:msg-latency = directory queueing/service latency per \
             message class",
            |arg| match arg {
                Some("self-inv-lead") => {
                    Ok(Arc::new(FnProbeFactory::new("hist:self-inv-lead", |_| {
                        Box::new(SelfInvLeadProbe::new())
                    })))
                }
                Some("msg-latency") => {
                    Ok(Arc::new(FnProbeFactory::new("hist:msg-latency", |_| {
                        Box::new(MsgLatencyProbe::new())
                    })))
                }
                Some(other) => Err(ProbeSpecError::InvalidArg {
                    probe: "hist".to_string(),
                    arg: other.to_string(),
                    expected: "one of: self-inv-lead, msg-latency".to_string(),
                }),
                None => Err(ProbeSpecError::MissingArg {
                    probe: "hist".to_string(),
                    expected: "a histogram name (hist:self-inv-lead, hist:msg-latency)".to_string(),
                }),
            },
        )
        .expect("fresh registry");
        r.register(
            "heat",
            "per-block heat map: the K hottest blocks by access count, with \
             demand invalidations and directory-entry evictions (heat:<K>)",
            |arg| match arg {
                Some(k) => match k.parse::<usize>() {
                    Ok(k) if k >= 1 => Ok(Arc::new(FnProbeFactory::new(
                        format!("heat:{k}"),
                        move |_| Box::new(HeatProbe::new(k)),
                    ))),
                    _ => Err(ProbeSpecError::InvalidArg {
                        probe: "heat".to_string(),
                        arg: k.to_string(),
                        expected: "a block count of at least 1 (heat:<K>)".to_string(),
                    }),
                },
                None => Err(ProbeSpecError::MissingArg {
                    probe: "heat".to_string(),
                    expected: "a block count (heat:<K>)".to_string(),
                }),
            },
        )
        .expect("fresh registry");
        r
    }

    /// Registers a probe constructor under `name`. The constructor receives
    /// the spec's argument (the trimmed text after the first `:`, if any).
    ///
    /// # Errors
    ///
    /// Returns [`ProbeSpecError::DuplicateName`] if `name` is taken.
    pub fn register(
        &mut self,
        name: &str,
        summary: &str,
        make: impl Fn(Option<&str>) -> Result<Arc<dyn ProbeFactory>, ProbeSpecError>
            + Send
            + Sync
            + 'static,
    ) -> Result<(), ProbeSpecError> {
        if self.entries.contains_key(name) {
            return Err(ProbeSpecError::DuplicateName {
                name: name.to_string(),
            });
        }
        self.entries.insert(
            name.to_string(),
            ProbeEntry {
                summary: summary.to_string(),
                make: Box::new(make),
            },
        );
        Ok(())
    }

    /// Registers one argument-less factory under its own
    /// [`ProbeFactory::name`].
    ///
    /// # Errors
    ///
    /// Returns [`ProbeSpecError::DuplicateName`] if the name is taken.
    pub fn register_factory(
        &mut self,
        factory: Arc<dyn ProbeFactory>,
    ) -> Result<(), ProbeSpecError> {
        let name = factory.name().to_string();
        let summary = format!("custom probe `{}`", factory.spec());
        self.register(&name, &summary, move |arg| match arg {
            None => Ok(Arc::clone(&factory)),
            Some(arg) => Err(ProbeSpecError::UnexpectedArg {
                probe: factory.name().to_string(),
                arg: arg.to_string(),
            }),
        })
    }

    /// Resolves a spec string (`name[:argument]`) to a factory.
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeSpecError`] describing exactly what was wrong.
    pub fn parse(&self, spec: &str) -> Result<Arc<dyn ProbeFactory>, ProbeSpecError> {
        let (name, arg) = match spec.split_once(':') {
            Some((name, arg)) => (name.trim(), Some(arg.trim())),
            None => (spec.trim(), None),
        };
        if name.is_empty() {
            return Err(ProbeSpecError::EmptySpec);
        }
        let arg = arg.filter(|a| !a.is_empty());
        let Some(entry) = self.entries.get(name) else {
            return Err(ProbeSpecError::UnknownProbe {
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            });
        };
        (entry.make)(arg)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// All registered `(name, summary)` pairs, sorted by name.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .map(|(name, e)| (name.as_str(), e.summary.as_str()))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_resolve_and_round_trip() {
        let registry = ProbeRegistry::with_builtins();
        for (spec, canonical) in [
            ("check", "check"),
            ("check:strict", "check:strict"),
            ("per-node", "per-node"),
            ("hist:self-inv-lead", "hist:self-inv-lead"),
            (" hist : self-inv-lead ", "hist:self-inv-lead"),
            ("hist:msg-latency", "hist:msg-latency"),
            ("heat:016", "heat:16"),
            ("heat:16", "heat:16"),
        ] {
            let factory = registry
                .parse(spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(factory.spec(), canonical);
        }
        let names: Vec<&str> = registry.names().collect();
        assert_eq!(names, ["check", "heat", "hist", "per-node"]);
    }

    #[test]
    fn spec_errors_are_precise() {
        let registry = ProbeRegistry::with_builtins();
        assert!(matches!(registry.parse(""), Err(ProbeSpecError::EmptySpec)));
        let err = registry.parse("nope").unwrap_err();
        assert!(matches!(err, ProbeSpecError::UnknownProbe { .. }), "{err}");
        assert!(err.to_string().contains("per-node"), "{err}");
        assert!(matches!(
            registry.parse("hist"),
            Err(ProbeSpecError::MissingArg { .. })
        ));
        assert!(matches!(
            registry.parse("check:lenient"),
            Err(ProbeSpecError::InvalidArg { .. })
        ));
        assert!(matches!(
            registry.parse("hist:uptime"),
            Err(ProbeSpecError::InvalidArg { .. })
        ));
        assert!(matches!(
            registry.parse("per-node:extra"),
            Err(ProbeSpecError::UnexpectedArg { .. })
        ));
        assert!(matches!(
            registry.parse("heat"),
            Err(ProbeSpecError::MissingArg { .. })
        ));
        assert!(matches!(
            registry.parse("heat:"),
            Err(ProbeSpecError::MissingArg { .. })
        ));
    }

    #[test]
    fn registration_is_open_and_names_stay_unique() {
        let mut registry = ProbeRegistry::with_builtins();
        registry
            .register_factory(Arc::new(FnProbeFactory::new("noop", |_| {
                #[derive(Debug)]
                struct Noop;
                impl Probe for Noop {
                    fn on_event(&mut self, _ctx: &ProbeCtx, _event: &SimEvent) {}
                    fn finish(self: Box<Self>) -> Option<MetricsSection> {
                        None
                    }
                }
                Box::new(Noop)
            })))
            .unwrap();
        assert!(registry.contains("noop"));
        assert!(registry.parse("noop").is_ok());
        assert!(matches!(
            registry.register("per-node", "dup", |_| Err(ProbeSpecError::EmptySpec)),
            Err(ProbeSpecError::DuplicateName { .. })
        ));
        assert_eq!(registry.entries().count(), 5);
    }
}
