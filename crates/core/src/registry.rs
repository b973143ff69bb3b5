//! The open policy API: [`PolicyFactory`] and the [`PolicyRegistry`].
//!
//! Historically the experiment driver hard-wired a closed enum of policy
//! kinds; adding a predictor variant meant editing the system crate. The
//! registry inverts that: a policy is *anything* implementing
//! [`PolicyFactory`], and experiments name policies by **spec string**,
//! resolved through a [`PolicyRegistry`] that applications can extend.
//!
//! # Spec-string grammar
//!
//! ```text
//! spec    := name [ ":" params ]
//! name    := one or more of [a-z0-9-]
//! params  := param { "," param }
//! param   := key "=" value
//! key     := one or more of [a-z0-9_-]
//! value   := integer (decimal or 0x-hex) | "true" | "false"
//! ```
//!
//! Whitespace around names, keys, and values is ignored. Every parameter is
//! optional; omitted parameters take the factory's documented default.
//! Unknown policy names, unknown keys, duplicate keys, and malformed values
//! are all reported as typed [`PolicySpecError`]s.
//!
//! # Built-in policies
//!
//! Each built-in is one [`PolicyRegistry::with_builtins`] entry: it parses
//! the spec's parameters once and returns a [`FnPolicyFactory`] carrying
//! the canonical spec formatted from the parsed values (so `ltp` resolves
//! to `ltp:bits=13,capacity=16`) and a closure building the policy.
//!
//! | spec | policy | parameters (default) |
//! |---|---|---|
//! | `base` | no self-invalidation | — |
//! | `dsi` | Dynamic Self-Invalidation | — |
//! | `last-pc` | single-PC strawman | `capacity` (16) |
//! | `ltp` | per-block trace LTP | `bits` (13), `capacity` (16) |
//! | `ltp-global` | global-table trace LTP | `bits` (30), `sets` (256), `ways` (2) |
//! | `ltp-xor` | per-block LTP, XOR-rotate encoder | `bits` (13), `rot` (5), `capacity` (16) |
//! | `oracle` | ideal last-touch oracle (offline upper bound) | — |
//! | `perceptron` | perceptron last-touch predictor | `bits` (8), `hist` (4), `size` (256), `theta` (8) |
//! | `tage` | TAGE-style tagged geometric-history predictor | `tables` (4), `size` (512) |
//!
//! # Examples
//!
//! Resolve a built-in, then register and resolve a custom factory:
//!
//! ```
//! use std::sync::Arc;
//!
//! use ltp_core::{
//!     NullPolicy, PolicyFactory, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy,
//! };
//!
//! let mut registry = PolicyRegistry::with_builtins();
//! let ltp = registry.parse("ltp:bits=11").unwrap();
//! assert_eq!(ltp.name(), "ltp");
//! assert_eq!(ltp.build(PredictorConfig::default()).name(), "ltp");
//!
//! #[derive(Debug)]
//! struct Quiet;
//! impl PolicyFactory for Quiet {
//!     fn name(&self) -> &str {
//!         "quiet"
//!     }
//!     fn build(&self, _config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
//!         Box::new(NullPolicy)
//!     }
//! }
//!
//! registry.register_factory(Arc::new(Quiet)).unwrap();
//! assert!(registry.parse("quiet").is_ok());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::dsi::DsiPolicy;
use crate::encode::{SignatureBits, XorRotate};
use crate::last_pc::LastPc;
use crate::ltp::{GlobalLtp, PerBlockLtp, PredictorConfig, TracePredictor};
use crate::oracle::OraclePolicy;
use crate::perceptron::{
    PerceptronPredictor, PERCEPTRON_DEFAULT_BITS, PERCEPTRON_DEFAULT_HIST, PERCEPTRON_DEFAULT_SIZE,
    PERCEPTRON_DEFAULT_THETA,
};
use crate::policy::{NullPolicy, SelfInvalidationPolicy};
use crate::table::PerBlockTable;
use crate::tage::{TagePredictor, TAGE_DEFAULT_SIZE, TAGE_DEFAULT_TABLES};

/// Default per-block signature-table capacity (LRU beyond this). Sized above
/// the paper's worst observed demand (dsmc: 7.8 signatures/block).
pub const DEFAULT_PER_BLOCK_CAPACITY: usize = 16;

/// Builds one self-invalidation policy instance per node of a machine.
///
/// A factory is the unit of registration and sweeping: it carries the policy
/// *geometry* (signature width, table organization, …) while the per-run
/// tuning knobs arrive via [`PredictorConfig`] at build time. Factories are
/// shared across the worker threads of a sweep, hence `Send + Sync`.
pub trait PolicyFactory: fmt::Debug + Send + Sync {
    /// The short family name used in report tables and figure legends
    /// (`"base"`, `"dsi"`, `"ltp"`, …).
    fn name(&self) -> &str;

    /// The canonical spec string reconstructing this factory, parameters
    /// included (e.g. `"ltp:bits=13,capacity=16"`). Defaults to
    /// [`Self::name`] for parameterless policies.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// Instantiates one policy object for one node.
    fn build(&self, config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy>;
}

/// A [`PolicyFactory`] wrapping a build closure under its canonical spec
/// string — how every built-in policy is defined. The family name is the
/// spec up to its first `:` (`"ltp:bits=13,capacity=16"` is an `"ltp"`).
///
/// # Examples
///
/// ```
/// use ltp_core::{FnPolicyFactory, NullPolicy, PolicyFactory, PredictorConfig};
///
/// let quiet = FnPolicyFactory::new("quiet:level=3", |_| Box::new(NullPolicy));
/// assert_eq!(quiet.name(), "quiet");
/// assert_eq!(quiet.spec(), "quiet:level=3");
/// assert_eq!(quiet.build(PredictorConfig::default()).name(), "base");
/// ```
pub struct FnPolicyFactory {
    spec: String,
    build: Box<dyn Fn(PredictorConfig) -> Box<dyn SelfInvalidationPolicy> + Send + Sync>,
}

impl FnPolicyFactory {
    /// Wraps `build` under the canonical `spec`.
    pub fn new(
        spec: impl Into<String>,
        build: impl Fn(PredictorConfig) -> Box<dyn SelfInvalidationPolicy> + Send + Sync + 'static,
    ) -> Self {
        FnPolicyFactory {
            spec: spec.into(),
            build: Box::new(build),
        }
    }
}

impl fmt::Debug for FnPolicyFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnPolicyFactory")
            .field("spec", &self.spec)
            .finish()
    }
}

impl PolicyFactory for FnPolicyFactory {
    fn name(&self) -> &str {
        self.spec
            .split_once(':')
            .map_or(&self.spec, |(name, _)| name)
    }

    fn spec(&self) -> String {
        self.spec.clone()
    }

    fn build(&self, config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
        (self.build)(config)
    }
}

/// Error produced while resolving a policy spec string or registering a
/// policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpecError {
    /// The spec string was empty (or only a parameter list).
    EmptySpec,
    /// No policy of this name is registered.
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// A parameter was not of the form `key=value`.
    MalformedParam {
        /// The offending fragment.
        param: String,
    },
    /// The same key appeared twice in one spec.
    DuplicateParam {
        /// The duplicated key.
        key: String,
    },
    /// A value failed to parse as the type the factory expects.
    InvalidValue {
        /// The parameter key.
        key: String,
        /// The rejected value.
        value: String,
        /// What the factory wanted (e.g. `"integer in 1..=32"`).
        expected: String,
    },
    /// The policy does not understand this parameter.
    UnknownParam {
        /// The policy being configured.
        policy: String,
        /// The unrecognized key.
        key: String,
    },
    /// `register` was called with a name that is already taken.
    DuplicateName {
        /// The contested name.
        name: String,
    },
}

impl fmt::Display for PolicySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpecError::EmptySpec => write!(f, "empty policy spec"),
            PolicySpecError::UnknownPolicy { name, known } => {
                write!(f, "unknown policy `{name}` (known: {})", known.join(", "))
            }
            PolicySpecError::MalformedParam { param } => {
                write!(f, "malformed parameter `{param}` (expected key=value)")
            }
            PolicySpecError::DuplicateParam { key } => {
                write!(f, "parameter `{key}` given twice")
            }
            PolicySpecError::InvalidValue {
                key,
                value,
                expected,
            } => write!(f, "parameter `{key}={value}`: expected {expected}"),
            PolicySpecError::UnknownParam { policy, key } => {
                write!(f, "policy `{policy}` has no parameter `{key}`")
            }
            PolicySpecError::DuplicateName { name } => {
                write!(f, "a policy named `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for PolicySpecError {}

/// The parsed `key=value` list of one spec string, handed to a policy
/// constructor.
///
/// Constructors *take* the parameters they understand; whatever is left
/// untaken when the constructor returns is reported as an
/// [`PolicySpecError::UnknownParam`], so typos never pass silently.
#[derive(Debug)]
pub struct SpecParams {
    pairs: BTreeMap<String, String>,
    taken: BTreeSet<String>,
}

impl SpecParams {
    fn parse(params: &str) -> Result<Self, PolicySpecError> {
        let mut pairs = BTreeMap::new();
        for fragment in params.split(',') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            let Some((key, value)) = fragment.split_once('=') else {
                return Err(PolicySpecError::MalformedParam {
                    param: fragment.to_string(),
                });
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if key.is_empty() || value.is_empty() {
                return Err(PolicySpecError::MalformedParam {
                    param: fragment.to_string(),
                });
            }
            if pairs.insert(key.clone(), value).is_some() {
                return Err(PolicySpecError::DuplicateParam { key });
            }
        }
        Ok(SpecParams {
            pairs,
            taken: BTreeSet::new(),
        })
    }

    /// Takes a raw string parameter.
    pub fn take_str(&mut self, key: &str) -> Option<String> {
        let value = self.pairs.get(key).cloned();
        if value.is_some() {
            self.taken.insert(key.to_string());
        }
        value
    }

    /// Takes an unsigned integer parameter (decimal or `0x`-prefixed hex).
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpecError::InvalidValue`] when present but
    /// unparsable.
    pub fn take_u64(&mut self, key: &str) -> Result<Option<u64>, PolicySpecError> {
        let Some(raw) = self.take_str(key) else {
            return Ok(None);
        };
        let parsed = raw
            .strip_prefix("0x")
            .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
        match parsed {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(PolicySpecError::InvalidValue {
                key: key.to_string(),
                value: raw,
                expected: "an unsigned integer".to_string(),
            }),
        }
    }

    /// Takes an integer parameter constrained to `lo..=hi`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpecError::InvalidValue`] when present but
    /// unparsable or out of range.
    pub fn take_u64_in(
        &mut self,
        key: &str,
        lo: u64,
        hi: u64,
    ) -> Result<Option<u64>, PolicySpecError> {
        match self.take_u64(key)? {
            Some(v) if (lo..=hi).contains(&v) => Ok(Some(v)),
            Some(v) => Err(PolicySpecError::InvalidValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: format!("an integer in {lo}..={hi}"),
            }),
            None => Ok(None),
        }
    }

    /// Takes a boolean parameter (`true` / `false`).
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpecError::InvalidValue`] when present but neither
    /// `true` nor `false`.
    pub fn take_bool(&mut self, key: &str) -> Result<Option<bool>, PolicySpecError> {
        match self.take_str(key).as_deref() {
            None => Ok(None),
            Some("true") => Ok(Some(true)),
            Some("false") => Ok(Some(false)),
            Some(other) => Err(PolicySpecError::InvalidValue {
                key: key.to_string(),
                value: other.to_string(),
                expected: "`true` or `false`".to_string(),
            }),
        }
    }

    /// The first parameter key the constructor did not take, if any.
    fn first_untaken(&self) -> Option<&str> {
        self.pairs
            .keys()
            .find(|k| !self.taken.contains(*k))
            .map(String::as_str)
    }
}

/// The signature-width parameter shared by every LTP variant.
fn take_bits(
    params: &mut SpecParams,
    default: SignatureBits,
) -> Result<SignatureBits, PolicySpecError> {
    match params.take_u64_in("bits", 1, 32)? {
        Some(v) => Ok(SignatureBits::new(v as u8).expect("range-checked above")),
        None => Ok(default),
    }
}

/// The per-block signature-table capacity shared by the per-block
/// predictors.
fn take_capacity(params: &mut SpecParams) -> Result<usize, PolicySpecError> {
    Ok(params
        .take_u64_in("capacity", 1, 1 << 20)?
        .unwrap_or(DEFAULT_PER_BLOCK_CAPACITY as u64) as usize)
}

type Constructor =
    Box<dyn Fn(&mut SpecParams) -> Result<Arc<dyn PolicyFactory>, PolicySpecError> + Send + Sync>;

struct Entry {
    summary: String,
    make: Constructor,
}

/// Maps policy names to factory constructors; the experiment and sweep
/// drivers resolve every policy spec string through one of these.
///
/// [`PolicyRegistry::with_builtins`] pre-registers the six policies of the
/// paper's evaluation plus the predictor zoo (`tage`, `perceptron`,
/// `oracle`); [`PolicyRegistry::register`] and
/// [`PolicyRegistry::register_factory`] open the table to external crates —
/// a new policy is an `impl PolicyFactory`, not a fork of the system crate.
pub struct PolicyRegistry {
    entries: BTreeMap<String, Entry>,
}

impl fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for PolicyRegistry {
    /// Equivalent to [`PolicyRegistry::with_builtins`].
    fn default() -> Self {
        PolicyRegistry::with_builtins()
    }
}

impl PolicyRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        PolicyRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// A registry pre-loaded with the six policies of the paper's
    /// evaluation plus the predictor zoo — `oracle`, `perceptron`, `tage`
    /// (see the module table).
    pub fn with_builtins() -> Self {
        let mut r = PolicyRegistry::empty();
        r.register("base", "no self-invalidation (the baseline DSM)", |_| {
            Ok(Arc::new(FnPolicyFactory::new("base", |_| {
                Box::new(NullPolicy)
            })))
        })
        .expect("fresh registry");
        r.register("dsi", "Dynamic Self-Invalidation (Lebeck & Wood)", |_| {
            Ok(Arc::new(FnPolicyFactory::new("dsi", |_| {
                Box::new(DsiPolicy::new())
            })))
        })
        .expect("fresh registry");
        r.register(
            "last-pc",
            "single-instruction last-touch predictor [capacity=16]",
            |p| {
                let capacity = take_capacity(p)?;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!("last-pc:capacity={capacity}"),
                    move |config| Box::new(LastPc::with_config(capacity, config)),
                )))
            },
        )
        .expect("fresh registry");
        r.register(
            "ltp",
            "per-block trace LTP, the paper's base case [bits=13,capacity=16]",
            |p| {
                let bits = take_bits(p, SignatureBits::PER_BLOCK_DEFAULT)?;
                let capacity = take_capacity(p)?;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!("ltp:bits={},capacity={capacity}", bits.get()),
                    move |config| Box::new(PerBlockLtp::new(bits, capacity, config)),
                )))
            },
        )
        .expect("fresh registry");
        // The PAg organization exists to cut storage, so its default table
        // is sized well below the aggregate per-block capacity and competes
        // for entries; 30-bit signatures are needed for usable accuracy.
        r.register(
            "ltp-global",
            "global-table trace LTP (PAg-like) [bits=30,sets=256,ways=2]",
            |p| {
                let bits = take_bits(p, SignatureBits::BASE)?;
                let sets = p.take_u64_in("sets", 1, 1 << 24)?.unwrap_or(256) as usize;
                let ways = p.take_u64_in("ways", 1, 64)?.unwrap_or(2) as usize;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!("ltp-global:bits={},sets={sets},ways={ways}", bits.get()),
                    move |config| Box::new(GlobalLtp::new(bits, sets, ways, config)),
                )))
            },
        )
        .expect("fresh registry");
        r.register(
            "ltp-xor",
            "per-block LTP with the XOR-rotate encoder [bits=13,rot=5,capacity=16]",
            |p| {
                let bits = take_bits(p, SignatureBits::PER_BLOCK_DEFAULT)?;
                let rotation = p.take_u64_in("rot", 1, 31)?.unwrap_or(5) as u32;
                let capacity = take_capacity(p)?;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!(
                        "ltp-xor:bits={},rot={rotation},capacity={capacity}",
                        bits.get()
                    ),
                    move |config| {
                        Box::new(TracePredictor::with_parts(
                            XorRotate::new(bits, rotation),
                            PerBlockTable::new(bits, capacity, config.initial_confidence),
                            config,
                            "ltp-xor",
                        ))
                    },
                )))
            },
        )
        .expect("fresh registry");
        // Unprimed until the offline evaluation path supplies ground truth,
        // so the oracle never fires inside a live machine.
        r.register(
            "oracle",
            "ideal last-touch oracle, primed from ground truth (offline upper bound)",
            |_| {
                Ok(Arc::new(FnPolicyFactory::new("oracle", |_| {
                    Box::new(OraclePolicy::new())
                })))
            },
        )
        .expect("fresh registry");
        r.register(
            "perceptron",
            "perceptron last-touch predictor [bits=8,hist=4,size=256,theta=8]",
            |p| {
                let bits =
                    p.take_u64_in("bits", 1, 31)?
                        .unwrap_or(u64::from(PERCEPTRON_DEFAULT_BITS)) as u32;
                let hist = p
                    .take_u64_in("hist", 1, 64)?
                    .unwrap_or(PERCEPTRON_DEFAULT_HIST as u64) as usize;
                let size = p
                    .take_u64_in("size", 1, 1 << 20)?
                    .unwrap_or(PERCEPTRON_DEFAULT_SIZE as u64) as usize;
                let theta = p
                    .take_u64_in("theta", 1, 1 << 20)?
                    .unwrap_or(PERCEPTRON_DEFAULT_THETA as u64) as i32;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!("perceptron:bits={bits},hist={hist},size={size},theta={theta}"),
                    move |config| {
                        Box::new(PerceptronPredictor::new(bits, hist, size, theta, config))
                    },
                )))
            },
        )
        .expect("fresh registry");
        r.register(
            "tage",
            "TAGE-style tagged geometric-history last-touch predictor [tables=4,size=512]",
            |p| {
                let tables = p
                    .take_u64_in("tables", 1, 8)?
                    .unwrap_or(TAGE_DEFAULT_TABLES as u64) as usize;
                let size = p
                    .take_u64_in("size", 1, 1 << 20)?
                    .unwrap_or(TAGE_DEFAULT_SIZE as u64) as usize;
                Ok(Arc::new(FnPolicyFactory::new(
                    format!("tage:tables={tables},size={size}"),
                    move |config| Box::new(TagePredictor::new(tables, size, config)),
                )))
            },
        )
        .expect("fresh registry");
        r
    }

    /// Registers a policy constructor under `name`.
    ///
    /// The constructor receives the parsed parameter list and returns a
    /// shareable factory; parameters it does not take are rejected as
    /// unknown.
    ///
    /// # Examples
    ///
    /// A parameterized external policy, registered and resolved by spec
    /// string:
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use ltp_core::{
    ///     NullPolicy, PolicyFactory, PolicyRegistry, PredictorConfig, SelfInvalidationPolicy,
    /// };
    ///
    /// #[derive(Debug)]
    /// struct EveryN(u64);
    /// impl PolicyFactory for EveryN {
    ///     fn name(&self) -> &str {
    ///         "every-n"
    ///     }
    ///     fn spec(&self) -> String {
    ///         format!("every-n:n={}", self.0)
    ///     }
    ///     fn build(&self, _config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
    ///         Box::new(NullPolicy) // a real policy would count touches
    ///     }
    /// }
    ///
    /// let mut registry = PolicyRegistry::with_builtins();
    /// registry
    ///     .register("every-n", "fires every n touches [n=8]", |params| {
    ///         let n = params.take_u64_in("n", 1, 1 << 16)?.unwrap_or(8);
    ///         Ok(Arc::new(EveryN(n)))
    ///     })
    ///     .unwrap();
    /// assert_eq!(registry.parse("every-n:n=4").unwrap().spec(), "every-n:n=4");
    /// assert!(registry.parse("every-n:typo=1").is_err(), "unknown keys are rejected");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpecError::DuplicateName`] if `name` is taken.
    pub fn register(
        &mut self,
        name: &str,
        summary: &str,
        make: impl Fn(&mut SpecParams) -> Result<Arc<dyn PolicyFactory>, PolicySpecError>
            + Send
            + Sync
            + 'static,
    ) -> Result<(), PolicySpecError> {
        if self.entries.contains_key(name) {
            return Err(PolicySpecError::DuplicateName {
                name: name.to_string(),
            });
        }
        self.entries.insert(
            name.to_string(),
            Entry {
                summary: summary.to_string(),
                make: Box::new(make),
            },
        );
        Ok(())
    }

    /// Registers one parameterless factory instance under its own
    /// [`PolicyFactory::name`].
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpecError::DuplicateName`] if the name is taken.
    pub fn register_factory(
        &mut self,
        factory: Arc<dyn PolicyFactory>,
    ) -> Result<(), PolicySpecError> {
        let name = factory.name().to_string();
        let summary = format!("custom factory `{}`", factory.spec());
        self.register(&name, &summary, move |_| Ok(Arc::clone(&factory)))
    }

    /// Resolves a spec string (see the module-level grammar) to a factory.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicySpecError`] describing exactly what was wrong with
    /// the spec.
    pub fn parse(&self, spec: &str) -> Result<Arc<dyn PolicyFactory>, PolicySpecError> {
        let (name, params) = match spec.split_once(':') {
            Some((name, params)) => (name.trim(), params),
            None => (spec.trim(), ""),
        };
        if name.is_empty() {
            return Err(PolicySpecError::EmptySpec);
        }
        let Some(entry) = self.entries.get(name) else {
            return Err(PolicySpecError::UnknownPolicy {
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            });
        };
        let mut params = SpecParams::parse(params)?;
        let factory = (entry.make)(&mut params)?;
        if let Some(key) = params.first_untaken() {
            return Err(PolicySpecError::UnknownParam {
                policy: name.to_string(),
                key: key.to_string(),
            });
        }
        Ok(factory)
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
    use crate::policy::{FillInfo, FillKind, SyncKind, Touch, VerifyOutcome};
    use crate::types::{BlockId, Pc};

    const BUILTIN_SPECS: [&str; 14] = [
        "base",
        "dsi",
        "last-pc",
        "ltp",
        "ltp:bits=6",
        "ltp:bits=30,capacity=4",
        "ltp-global",
        "ltp-global:bits=30,sets=64,ways=4",
        "ltp-xor:rot=7",
        "oracle",
        "perceptron",
        "perceptron:bits=6,hist=3,size=64,theta=4",
        "tage",
        "tage:tables=3,size=64",
    ];

    fn touch(block: u64, pc: u32, fill: bool) -> Touch {
        Touch {
            block: BlockId::new(block),
            pc: Pc::new(pc),
            is_write: false,
            exclusive: false,
            fill: fill.then_some(FillInfo {
                kind: FillKind::Demand,
                dir_version: 0,
                migratory_upgrade: false,
            }),
        }
    }

    /// Drives one policy through a short but complete life cycle: repeated
    /// fill/hit/invalidate episodes over a few blocks, a synchronization
    /// boundary, and verification verdicts for everything that fired — the
    /// full protocol contract of `SelfInvalidationPolicy`.
    fn exercise(policy: &mut dyn SelfInvalidationPolicy) {
        let mut pending: Vec<BlockId> = Vec::new();
        for episode in 0..6u32 {
            for block in 0..3u64 {
                let mut fired = policy.on_touch(touch(block, 0x4000, true));
                for step in 0..3u32 {
                    if fired {
                        break;
                    }
                    fired = policy.on_touch(touch(block, 0x4010 + step * 8, false));
                }
                if fired {
                    pending.push(BlockId::new(block));
                } else {
                    policy.on_invalidation(BlockId::new(block));
                }
            }
            for block in policy.on_sync(if episode % 2 == 0 {
                SyncKind::Barrier
            } else {
                SyncKind::LockRelease
            }) {
                pending.push(block);
            }
            for (i, block) in pending.drain(..).enumerate() {
                policy.on_verification(
                    block,
                    if i % 2 == 0 {
                        VerifyOutcome::Correct
                    } else {
                        VerifyOutcome::Premature
                    },
                );
            }
        }
        let storage = policy.storage();
        assert!(
            storage.live_entries <= storage.blocks_tracked.max(1) * 1024,
            "storage accounting stays sane"
        );
    }

    #[test]
    fn every_builtin_spec_builds_and_survives_a_trace() {
        let registry = PolicyRegistry::with_builtins();
        for spec in BUILTIN_SPECS {
            let factory = registry
                .parse(spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!factory.name().is_empty());
            // The canonical spec must round-trip through the registry.
            let canonical = factory.spec();
            let again = registry
                .parse(&canonical)
                .unwrap_or_else(|e| panic!("canonical `{canonical}`: {e}"));
            assert_eq!(again.spec(), canonical);
            let mut policy = factory.build(PredictorConfig::default());
            assert_eq!(policy.name(), factory.name());
            exercise(policy.as_mut());
        }
    }

    #[test]
    fn builtin_names_are_complete() {
        let registry = PolicyRegistry::with_builtins();
        let names: Vec<&str> = registry.names().collect();
        assert_eq!(
            names,
            [
                "base",
                "dsi",
                "last-pc",
                "ltp",
                "ltp-global",
                "ltp-xor",
                "oracle",
                "perceptron",
                "tage"
            ]
        );
        assert!(registry.contains("ltp"));
        assert!(!registry.contains("ltp2"));
    }

    #[test]
    fn parameters_are_applied() {
        let registry = PolicyRegistry::with_builtins();
        let f = registry.parse("ltp:bits=6,capacity=2").unwrap();
        assert_eq!(f.spec(), "ltp:bits=6,capacity=2");
        let f = registry
            .parse(" ltp-global : bits=13 , sets=0x40 ")
            .unwrap();
        assert_eq!(f.spec(), "ltp-global:bits=13,sets=64,ways=2");
    }

    #[test]
    fn spec_errors_are_precise() {
        let registry = PolicyRegistry::with_builtins();
        assert!(matches!(
            registry.parse(""),
            Err(PolicySpecError::EmptySpec)
        ));
        assert!(matches!(
            registry.parse("ltp2"),
            Err(PolicySpecError::UnknownPolicy { .. })
        ));
        assert!(matches!(
            registry.parse("ltp:bits"),
            Err(PolicySpecError::MalformedParam { .. })
        ));
        assert!(matches!(
            registry.parse("ltp:bits=13,bits=6"),
            Err(PolicySpecError::DuplicateParam { .. })
        ));
        assert!(matches!(
            registry.parse("ltp:bits=99"),
            Err(PolicySpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            registry.parse("ltp:bots=13"),
            Err(PolicySpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            registry.parse("base:bits=13"),
            Err(PolicySpecError::UnknownParam { .. })
        ));
        let err = registry.parse("nope").unwrap_err();
        assert!(err.to_string().contains("ltp-global"), "{err}");
    }

    #[test]
    fn external_registration_is_open() {
        #[derive(Debug)]
        struct EveryN(u32);
        impl PolicyFactory for EveryN {
            fn name(&self) -> &str {
                "every-n"
            }
            fn spec(&self) -> String {
                format!("every-n:n={}", self.0)
            }
            fn build(&self, _config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
                Box::new(NullPolicy)
            }
        }

        let mut registry = PolicyRegistry::with_builtins();
        registry
            .register("every-n", "fires every n touches [n=8]", |p| {
                let n = p.take_u64_in("n", 1, 1 << 16)?.unwrap_or(8) as u32;
                Ok(Arc::new(EveryN(n)))
            })
            .unwrap();
        let f = registry.parse("every-n:n=4").unwrap();
        assert_eq!(f.spec(), "every-n:n=4");
        // Names stay unique.
        let base = registry.parse("base").unwrap();
        assert!(matches!(
            registry.register("ltp", "dup", move |_| Ok(Arc::clone(&base))),
            Err(PolicySpecError::DuplicateName { .. })
        ));
        assert!(matches!(
            registry.register_factory(Arc::new(FnPolicyFactory::new("base", |_| {
                Box::new(NullPolicy)
            }))),
            Err(PolicySpecError::DuplicateName { .. })
        ));
    }
}
