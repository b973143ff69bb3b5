//! `ltp` — command-line front end for the Last-Touch Prediction
//! reproduction.
//!
//! ```text
//! ltp list                                  # benchmarks and machine
//! ltp list-policies                         # registered policies + grammar
//! ltp run -b em3d -p ltp:bits=13            # one experiment, detailed report
//! ltp run -b all -p base,dsi,ltp            # cross product, one row per run
//! ltp check                                 # model-check the protocol
//! ltp record -b em3d -o em3d.ltrace         # capture a trace file
//! ltp run --trace em3d.ltrace -p ltp        # replay it as a workload
//! ltp gen-trace -o fuzz.ltrace --ops 50000  # random valid workload
//! ltp trace-info em3d.ltrace                # inspect/validate a trace file
//! ltp predict -b all                        # offline predictor tournament
//! ltp predict -t em3d.ltrace --report reports/predictors.md
//! ```
//!
//! See `docs/manual.md` for the full manual.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ltp::core::{parse_json, JsonValue, PolicyFactory, PolicyRegistry};
use ltp::dsm::{DirectoryKind, SystemConfig};
use ltp::system::campaign::{generate_reports, Campaign, FigureId, RunStatus};
use ltp::system::predict::{render_json, render_report, PredictSpec, DEFAULT_ZOO};
use ltp::system::{
    explore, ExploreConfig, JsonLinesSink, NullSink, ProbeRegistry, RunReport, SweepSpec,
};
use ltp::workloads::{
    random_trace, Benchmark, StreamingTrace, Trace, WorkloadParams, WorkloadSource,
};

const USAGE: &str = "\
ltp — Last-Touch Prediction reproduction (Lai & Falsafi, ISCA 2000)

USAGE:
    ltp list
    ltp list-policies
    ltp list-probes
    ltp run        -b <b1,..|all> and/or -t <FILE> -p <spec1,..> [options]
    ltp check      [-d <kind,..>] [-n <N>] [--ops <N>]
    ltp record     -b <benchmark> -o <FILE.ltrace> [options]
    ltp gen-trace  -o <FILE.ltrace> [options]
    ltp trace-info <FILE.ltrace> [FILE..]
    ltp predict    -b <b1,..|all> and/or -t <FILE> [-p <spec1,..>] [options]
    ltp campaign   [SPEC.json] [-b .. -p .. -n .. -d ..] -o <DIR> [--resume] [--dry-run]
    ltp report     <DIR> [--fig all|1|2|6|7|9|t2|t3|t4] [-o <OUTDIR>]

OPTIONS:
    -b, --benchmarks <names>  comma-separated benchmarks, or `all`
    -p, --policies <specs>    comma-separated policy spec strings
                              (grammar: name[:key=value,..]; see list-policies)
    -t, --trace <FILE[,..]>   trace file(s) to replay as workloads, streamed
                              from disk (mixable with -b)
    -o, --output <FILE>       output trace file (record, gen-trace), store
                              directory (campaign), artifact directory (report)
        --ops <N>             ops per node to generate (gen-trace; default
                              65536) or to explore (check)
    -n, --nodes <N[,N..]>     machine size(s)          [default: 32]
    -i, --iters <N>           iteration override       [default: per-benchmark]
    -s, --seed <S>            workload seed            [default: 0x15CA2000]
    -d, --dir <kind[,..]>     directory sharer organization(s)  [default: full]
                              full | coarse:<K> (1 bit per K-node cluster)
                                   | ptr:<I>    (Dir_I_B limited pointers)
                                   | sparse:<E> (bounded entry cache, E entries)
    -j, --jobs <N>            worker threads for runs or predict jobs
                                                       [default: all cores]
        --shards <N|auto>     threads per machine              [default: 1]
                              splits each simulated machine across N threads,
                              the calling thread included; reports stay
                              bit-identical to --shards 1
                              (`auto` = one thread per available core)
        --probe <spec>        attach a probe to every run (repeatable)
                              e.g. --probe per-node --probe hist:self-inv-lead
                              (grammar: name[:argument]; see list-probes)
        --check               (run) attach the coherence sanitizer to every
                              run; exit 1 on violations
        --report <FILE>       write the tournament markdown table to FILE (predict only)
        --resume              (campaign) continue into a non-empty store
        --dry-run             (campaign) print done/pending counts and exit
        --fig <ids>           (report) comma-separated artifacts    [default: all]
        --json                emit RunReports as JSON to stdout
        --json-lines <FILE>   stream per-run JSON lines to FILE
        --debug               print the sweep schedule (estimated ops + source)
        --quiet               suppress the human-readable output

`run` simulates workloads × policies × geometries × directories. One run
prints a detailed report; more print one table row per run, with its
speedup over the `base` row of the same workload, geometry and directory.

`check` model-checks the protocol invariant catalog (docs/manual.md §12):
it enumerates every message interleaving of 2–3-node configurations and
prints a minimal counterexample on failure.

`predict` replays workloads through the offline logical coherence model —
no cycle simulation — and races predictor specs (default: the full zoo,
including `tage`, `perceptron`, and the ideal `oracle`) for the paper's
accuracy / coverage / timeliness metrics.

`campaign` runs a cross product through a resumable content-addressed
store: every run is keyed by a canonical fingerprint of its full
configuration, completed runs are checkpointed (fsync'd) as they finish,
and a restarted campaign skips everything already in the store — the
final aggregate is byte-identical to an uninterrupted run. `report`
folds a campaign store into the paper's figures and tables (markdown +
JSON) without re-running anything. See docs/manual.md §Campaigns.

Each option applies only to the commands listed in docs/manual.md §3; any
other command rejects it. Trace files replay at their recorded geometry
(-n/-i/-s do not apply).
Every table and figure of the paper is regenerated by `ltp campaign` + `ltp report`.
Full manual: docs/manual.md";

/// Every command, including the help spellings.
const COMMANDS: &[&str] = &[
    "list",
    "list-policies",
    "list-probes",
    "run",
    "check",
    "record",
    "gen-trace",
    "trace-info",
    "predict",
    "campaign",
    "report",
    "help",
    "--help",
    "-h",
];

/// One option: its spellings (space-separated, the canonical long name
/// first), whether it takes a value, and the comma-separated commands it
/// applies to. Every other command rejects the option.
#[derive(Debug)]
struct OptionSpec {
    names: &'static str,
    takes_value: bool,
    commands: &'static str,
}

const fn opt(names: &'static str, takes_value: bool, commands: &'static str) -> OptionSpec {
    OptionSpec {
        names,
        takes_value,
        commands,
    }
}

impl OptionSpec {
    /// The canonical long name.
    fn name(&self) -> &'static str {
        self.names.split(' ').next().unwrap_or(self.names)
    }

    fn applies_to(&self, command: &str) -> bool {
        self.commands.split(',').any(|c| c == command)
    }
}

/// The option table (manual §3 mirrors it).
#[rustfmt::skip]
const OPTIONS: &[OptionSpec] = &[
    opt("--benchmarks -b --benchmark", true, "run,record,predict,campaign"),
    opt("--policies -p --policy", true, "run,predict,campaign"),
    opt("--trace -t --traces", true, "run,trace-info,predict,campaign"),
    opt("--output -o", true, "record,gen-trace,campaign,report"),
    opt("--ops", true, "gen-trace,check"),
    opt("--nodes -n", true, "run,check,record,gen-trace,predict,campaign"),
    opt("--iters -i", true, "run,record,predict,campaign"),
    opt("--seed -s", true, "run,record,gen-trace,predict,campaign"),
    opt("--dir -d --dirs", true, "run,check,campaign"),
    opt("--jobs -j", true, "run,predict,campaign"),
    opt("--shards", true, "run,campaign"),
    opt("--probe --probes", true, "run,campaign"),
    opt("--check", false, "run"),
    opt("--report", true, "predict"),
    opt("--resume", false, "campaign"),
    opt("--dry-run", false, "campaign"),
    opt("--fig --figs", true, "report"),
    opt("--json", false, "run,predict"),
    opt("--json-lines", true, "run"),
    opt("--debug", false, "run"),
    opt("--quiet", false, "run,check,record,gen-trace,predict,campaign,report"),
];

/// The [`OPTIONS`] entry spelled `name`.
fn option_spec(name: &str) -> Option<&'static OptionSpec> {
    OPTIONS
        .iter()
        .find(|o| o.names.split(' ').any(|n| n == name))
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
struct Options {
    /// The options given, in order.
    given: Vec<&'static OptionSpec>,
    benchmarks: Option<String>,
    policies: Option<String>,
    traces: Vec<String>,
    output: Option<String>,
    ops: Option<u64>,
    positional: Vec<String>,
    nodes: Vec<u16>,
    dirs: Vec<DirectoryKind>,
    iters: Option<u32>,
    seed: Option<u64>,
    jobs: Option<usize>,
    shards: Option<usize>,
    probes: Vec<String>,
    check: bool,
    report: Option<String>,
    resume: bool,
    dry_run: bool,
    figs: Option<String>,
    json: bool,
    json_lines: Option<String>,
    debug: bool,
    quiet: bool,
}

impl Options {
    /// Parses and stores one option (`value` is empty for a switch). The
    /// command line and campaign spec files both come through here.
    fn set(&mut self, spec: &'static OptionSpec, value: &str) -> Result<(), String> {
        let name = spec.name();
        self.given.push(spec);
        fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            value.trim().parse().map_err(|e| format!("{name}: {e}"))
        }
        match name {
            "--benchmarks" => self.benchmarks = Some(value.to_string()),
            "--policies" => self.policies = Some(value.to_string()),
            "--trace" => self.traces.extend(
                value
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string),
            ),
            "--output" => self.output = Some(value.to_string()),
            "--ops" => self.ops = Some(number(name, value)?),
            "--nodes" => {
                for n in value.split(',') {
                    let n: u16 = n.trim().parse().map_err(|e| format!("--nodes: {e}"))?;
                    if n < 2 {
                        return Err(format!(
                            "--nodes: {n} is out of range (machines have at least 2 nodes)"
                        ));
                    }
                    self.nodes.push(n);
                }
            }
            "--dir" => {
                for d in value.split(',').map(str::trim).filter(|d| !d.is_empty()) {
                    self.dirs
                        .push(d.parse().map_err(|e| format!("--dir: {e}"))?);
                }
            }
            "--iters" => self.iters = Some(number(name, value)?),
            "--seed" => {
                let raw = value.trim();
                let parsed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
                self.seed = Some(parsed.map_err(|e| format!("--seed: {e}"))?);
            }
            "--jobs" => self.jobs = Some(number(name, value)?),
            "--shards" => {
                self.shards = Some(if value.trim() == "auto" {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                } else {
                    match number(name, value)? {
                        0 => return Err("--shards: need at least 1 shard (or `auto`)".to_string()),
                        n => n,
                    }
                });
            }
            "--probe" => self.probes.push(value.to_string()),
            "--check" => self.check = true,
            "--report" => self.report = Some(value.to_string()),
            "--resume" => self.resume = true,
            "--dry-run" => self.dry_run = true,
            "--fig" => self.figs = Some(value.to_string()),
            "--json" => self.json = true,
            "--json-lines" => self.json_lines = Some(value.to_string()),
            "--debug" => self.debug = true,
            "--quiet" => self.quiet = true,
            _ => unreachable!("every OPTIONS entry is parsed"),
        }
        Ok(())
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            opts.positional.push(arg.clone());
            continue;
        }
        let spec = option_spec(arg).ok_or_else(|| format!("unknown option `{arg}`"))?;
        let value = if spec.takes_value {
            it.next()
                .ok_or_else(|| format!("{} needs a value", spec.name()))?
        } else {
            ""
        };
        opts.set(spec, value)?;
    }
    Ok(opts)
}

/// Rejects an unknown command, a stray positional argument, and every
/// option the command does not take (see [`OPTIONS`]).
fn check_applies(command: &str, opts: &Options) -> Result<(), String> {
    if !COMMANDS.contains(&command) {
        return Err(format!("unknown command `{command}`"));
    }
    // Only trace-info (files), campaign (spec file), and report (store dir)
    // take positional arguments; everywhere else a bare word is a mistake
    // (e.g. a trace path missing its --trace).
    if !matches!(command, "trace-info" | "campaign" | "report") {
        if let Some(stray) = opts.positional.first() {
            return Err(format!("unexpected argument `{stray}`"));
        }
    }
    for spec in &opts.given {
        if !spec.applies_to(command) {
            return Err(format!(
                "{} does not apply to `{command}` (it applies to: {})",
                spec.name(),
                spec.commands.replace(',', ", ")
            ));
        }
    }
    Ok(())
}

/// Resolves `-b` benchmarks plus `--trace` files into workload sources,
/// benchmarks first (in `-b` order), traces after (in `--trace` order).
fn parse_sources(opts: &Options) -> Result<Vec<WorkloadSource>, String> {
    let mut sources: Vec<WorkloadSource> = Vec::new();
    if opts.benchmarks.is_some() {
        sources.extend(
            parse_benchmarks(opts)?
                .into_iter()
                .map(WorkloadSource::from),
        );
    }
    for path in &opts.traces {
        // Open validates the whole file; replay then streams it node by
        // node with a bounded window, never materializing it.
        let trace = StreamingTrace::open(path).map_err(|e| format!("--trace {path}: {e}"))?;
        sources.push(WorkloadSource::from(trace));
    }
    if sources.is_empty() {
        return Err("no workloads: give --benchmarks and/or --trace".to_string());
    }
    // Traces replay at their recorded geometry. When benchmarks are mixed
    // in, -n applies to them and the traces pin (as documented); with only
    // traces, an explicit conflicting --nodes can only be a mistake —
    // reject it with a clean one-line error instead of silently ignoring
    // the flag.
    if opts.benchmarks.is_none() && !opts.nodes.is_empty() {
        for source in &sources {
            let recorded = source.effective_params(WorkloadParams::default()).nodes;
            if let Some(&bad) = opts.nodes.iter().find(|&&n| n != recorded) {
                return Err(format!(
                    "trace `{}` was recorded on {recorded} nodes; --nodes {bad} does not \
                     apply (traces replay at their recorded geometry — drop --nodes)",
                    source.name()
                ));
            }
        }
    }
    Ok(sources)
}

fn parse_benchmarks(opts: &Options) -> Result<Vec<Benchmark>, String> {
    let raw = opts.benchmarks.as_deref().ok_or("missing --benchmarks")?;
    if raw == "all" {
        return Ok(Benchmark::ALL.to_vec());
    }
    let benchmarks: Vec<Benchmark> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`")))
        .collect::<Result<_, _>>()?;
    if benchmarks.is_empty() {
        return Err("--benchmarks names no benchmark".to_string());
    }
    Ok(benchmarks)
}

fn parse_policies(
    registry: &PolicyRegistry,
    opts: &Options,
) -> Result<Vec<Arc<dyn PolicyFactory>>, String> {
    let raw = opts.policies.as_deref().ok_or("missing --policies")?;
    let policies: Vec<Arc<dyn PolicyFactory>> = split_specs(raw)
        .into_iter()
        .map(|spec| registry.parse(&spec).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if policies.is_empty() {
        return Err("--policies names no policy".to_string());
    }
    Ok(policies)
}

/// Splits a comma-separated policy list while keeping parameter lists
/// intact: a bare `key=value` fragment belongs to the preceding spec
/// (policy names never contain `=`), so
/// `base,ltp-global:bits=30,sets=1024` is two specs, not three.
fn split_specs(raw: &str) -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    for fragment in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match specs.last_mut() {
            Some(last) if fragment.contains('=') && !fragment.contains(':') => {
                last.push(',');
                last.push_str(fragment);
            }
            _ => specs.push(fragment.to_string()),
        }
    }
    specs
}

/// One workload geometry per `-n` value (the paper machine when none is
/// given): [`WorkloadParams::default()`] with `-s` and `-i` applied.
fn geometries(opts: &Options) -> Vec<WorkloadParams> {
    let base = WorkloadParams::default();
    let nodes = if opts.nodes.is_empty() {
        vec![base.nodes]
    } else {
        opts.nodes.clone()
    };
    nodes
        .into_iter()
        .map(|nodes| WorkloadParams {
            nodes,
            seed: opts.seed.unwrap_or(base.seed),
            iterations: opts.iters.or(base.iterations),
        })
        .collect()
}

/// The one geometry of a `command` that takes a single `--nodes` value.
fn single_geometry(command: &str, opts: &Options) -> Result<WorkloadParams, String> {
    match geometries(opts)[..] {
        [params] => Ok(params),
        _ => Err(format!("{command} takes a single --nodes value")),
    }
}

/// Whether `record` names the same file as the (existing) input `trace`
/// path — the `record:` probe's self-overwrite guard. The record file
/// usually does not exist yet, so its parent directory is canonicalized
/// instead.
fn same_output_as_input(record: &str, trace: &str) -> bool {
    let record_path = std::path::Path::new(record);
    let trace_canon = std::fs::canonicalize(trace).ok();
    let record_canon = std::fs::canonicalize(record_path).ok().or_else(|| {
        let dir = match record_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        let name = record_path.file_name()?;
        Some(std::fs::canonicalize(dir).ok()?.join(name))
    });
    match (trace_canon, record_canon) {
        (Some(a), Some(b)) => a == b,
        _ => record == trace,
    }
}

fn print_report(report: &RunReport) {
    let m = &report.metrics;
    println!(
        "{:<14} {:<28} dir {:<10} exec {:>10} cycles ({} events)",
        report.benchmark,
        report.policy_spec,
        report.directory,
        m.exec_cycles,
        report.events_handled
    );
    println!(
        "    invalidations: {:>6} predicted ({:.1}%), {:>6} not predicted ({:.1}%), \
         {:>5} premature ({:.1}%)",
        m.predicted,
        m.predicted_pct(),
        m.not_predicted,
        m.not_predicted_pct(),
        m.mispredicted,
        m.mispredicted_pct()
    );
    println!(
        "    timeliness {:.1}% | misses {} | hits {} | messages {} | self-inv sent {}",
        m.timeliness_pct(),
        m.misses,
        m.hits,
        m.messages,
        m.self_invalidations_sent
    );
    println!(
        "    directory: queueing {:.1} cycles, service {:.1} cycles | storage: \
         {:.1} entries/block, {:.1} B/block",
        m.dir_queueing.mean_or_zero(),
        m.dir_service.mean_or_zero(),
        m.storage.entries_per_block(),
        m.storage.overhead_bytes_per_block()
    );
    if m.extra_invalidations > 0 || m.broadcast_overflows > 0 {
        println!(
            "    over-invalidation ({}): {} extra invalidations, {} broadcast overflows",
            report.directory, m.extra_invalidations, m.broadcast_overflows
        );
    }
    if m.dir_evictions > 0 {
        println!(
            "    entry-cache pressure ({}): {} evictions, {} eviction invalidations",
            report.directory, m.dir_evictions, m.eviction_invalidations
        );
    }
    print_probe_sections(report);
}

/// The `probe <name>: ...` lines under a report or a table row.
fn print_probe_sections(report: &RunReport) {
    for section in &report.sections {
        println!("    probe {}: {}", section.name, section.data);
    }
}

/// Prints the reports: JSON objects with `--json`, nothing with `--quiet`,
/// the detailed report of a single run, and otherwise one table row per
/// run with its speedup over the `base` row of the same workload, geometry
/// and directory (`-` when the invocation has no such row).
fn emit(reports: &[RunReport], opts: &Options) {
    if opts.json {
        for report in reports {
            println!("{}", report.to_json());
        }
        return;
    }
    if opts.quiet {
        return;
    }
    if let [report] = reports {
        print_report(report);
        println!();
        return;
    }
    println!(
        "{:<14} {:<30} {:>6} {:<10} {:>12} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "benchmark",
        "policy",
        "nodes",
        "dir",
        "exec(cyc)",
        "pred%",
        "mis%",
        "timely%",
        "extra-inv",
        "speedup"
    );
    for r in reports {
        let base = reports.iter().find(|b| {
            b.policy == "base"
                && b.benchmark == r.benchmark
                && b.workload == r.workload
                && b.directory == r.directory
        });
        let m = &r.metrics;
        println!(
            "{:<14} {:<30} {:>6} {:<10} {:>12} {:>8.1} {:>8.1} {:>8.1} {:>9} {:>8}",
            r.benchmark,
            r.policy_spec,
            r.workload.nodes,
            r.directory,
            m.exec_cycles,
            m.predicted_pct(),
            m.mispredicted_pct(),
            m.timeliness_pct(),
            m.extra_invalidations,
            base.map_or_else(
                || "-".to_string(),
                |b| format!("{:.3}", m.speedup_vs(&b.metrics))
            )
        );
        print_probe_sections(r);
    }
}

fn cmd_list() {
    println!("benchmarks (paper Table 2):");
    for b in Benchmark::ALL {
        println!(
            "  {:<14} {} (scaled: {} iterations)",
            b.name(),
            b.paper_input(),
            b.default_iterations()
        );
    }
    println!();
    println!(
        "machine (paper Table 1): {} nodes, {}B blocks, memory {}, network {}, \
         round trip ≈{}",
        SystemConfig::isca00().nodes(),
        SystemConfig::BLOCK_BYTES,
        SystemConfig::MEM_ACCESS,
        SystemConfig::NET_LATENCY,
        SystemConfig::REMOTE_ROUND_TRIP_ESTIMATE
    );
    println!();
    println!("directory organizations (--dir, sweepable; any machine width):");
    println!("  full        exact full-map bit vector (paper Table 1; default)");
    println!("  coarse:<K>  coarse vector, 1 bit per K-node cluster (invalidations");
    println!("              broadcast to marked clusters; over-invalidation shows up");
    println!("              as `extra_invalidations` in reports)");
    println!("  ptr:<I>     Dir_I_B limited pointers, broadcast once >I sharers");
    println!("              (`broadcast_overflows` counts the fallbacks)");
    println!("  sparse:<E>  bounded directory entry cache with E entries per home;");
    println!("              replacing an entry invalidates the victim's holders");
    println!("              (`dir_evictions` / `eviction_invalidations` in reports)");
    println!();
    println!("policies: see `ltp list-policies`");
}

fn cmd_list_policies(registry: &PolicyRegistry) {
    println!("registered policies (spec grammar: name[:key=value,key=value..]):");
    for (name, summary) in registry.entries() {
        println!("  {name:<12} {summary}");
    }
    println!();
    println!("examples:");
    println!("  ltp run -b em3d -p ltp");
    println!("  ltp run -b tomcatv -p ltp:bits=6");
    println!("  ltp run -b all -p base,dsi,ltp:bits=13,ltp-global:sets=1024");
    println!();
    println!("external policies: implement ltp_core::PolicyFactory and register it");
    println!("in a PolicyRegistry (see examples/custom_policy.rs).");
}

fn cmd_list_probes(probes: &ProbeRegistry) {
    println!("registered probes (spec grammar: name[:argument]):");
    for (name, summary) in probes.entries() {
        println!("  {name:<12} {summary}");
    }
    println!();
    println!("examples:");
    println!("  ltp run -b em3d -p ltp --probe per-node --probe hist:self-inv-lead");
    println!("  ltp run -b em3d -p ltp --probe record:em3d-live.ltrace");
    println!("  ltp run -b all -p base,ltp --probe per-node --json-lines out.jsonl");
    println!();
    println!("probe output lands in the report's `sections` (JSON) / the");
    println!("`probe <name>: ...` lines (tables). external probes: implement");
    println!("ltp_system::Probe + ProbeFactory and register them in a");
    println!("ProbeRegistry (see examples/custom_probe.rs).");
}

/// Builds the sweep behind `run` and `campaign`, refusing a trace
/// recording that would not tee exactly one run before anything executes
/// or is written.
fn build_sweep(
    sources: Vec<WorkloadSource>,
    policies: Vec<Arc<dyn PolicyFactory>>,
    probes: &ProbeRegistry,
    opts: &Options,
) -> Result<SweepSpec, String> {
    let mut sweep = SweepSpec::new();
    for source in sources {
        sweep = sweep.source(source);
    }
    for policy in policies {
        sweep = sweep.policy(policy);
    }
    for g in geometries(opts) {
        sweep = sweep.geometry(g);
    }
    for &d in &opts.dirs {
        sweep = sweep.directory(d);
    }
    // Each run's geometry is the one it will actually use (a trace source
    // pins its recorded node count), so validate the directory against it.
    for run in sweep.runs() {
        check_directory(run.directory, run.workload.nodes)?;
    }
    for spec in &opts.probes {
        sweep = sweep.probe_spec(probes, spec).map_err(|e| e.to_string())?;
    }
    if opts.check && !opts.probes.iter().any(|s| s.trim().starts_with("check")) {
        sweep = sweep
            .probe_spec(probes, "check")
            .map_err(|e| e.to_string())?;
    }
    // Trace recording (`--probe record:<file>`) tees exactly one run:
    // concurrent runs would race their saves to the one output file, and
    // overwriting the trace being replayed destroys the input mid-read.
    // `sweep.len()` is the single source of truth for the run count.
    let record_outputs: Vec<&str> = opts
        .probes
        .iter()
        .filter_map(|spec| {
            let (name, arg) = spec.split_once(':')?;
            (name.trim() == "record").then_some(arg.trim())
        })
        .collect();
    if !record_outputs.is_empty() {
        if sweep.len() != 1 {
            return Err(format!(
                "trace recording captures exactly one run, but this invocation makes {}; \
                 narrow -b/-p/-n/-d to a single combination",
                sweep.len()
            ));
        }
        for record in &record_outputs {
            if let Some(input) = opts.traces.iter().find(|t| same_output_as_input(record, t)) {
                return Err(format!(
                    "recording to {record} would overwrite the trace being replayed \
                     ({input}); choose a different output path"
                ));
            }
        }
        // Open each output before simulating, as `--json-lines` does, so an
        // unwritable path fails now rather than after the run.
        for record in &record_outputs {
            File::create(record).map_err(|e| format!("record:{record}: {e}"))?;
        }
    }
    if let Some(jobs) = opts.jobs {
        sweep = sweep.threads(jobs);
    }
    if let Some(shards) = opts.shards {
        sweep = sweep.shards(shards);
    }
    Ok(sweep)
}

/// Rejects a `--dir` organization sized beyond a `nodes`-node machine.
fn check_directory(kind: DirectoryKind, nodes: u16) -> Result<(), String> {
    kind.validate_for(nodes)
        .map_err(|e| format!("--dir {kind} on {nodes} nodes: {e}"))
}

/// Reads the sanitizer's `check` section out of every report and fails
/// with the collected evidence when any run saw a violation.
fn scan_check_sections(reports: &[RunReport]) -> Result<(), String> {
    fn field<'v>(value: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
        match value {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let mut total = 0u64;
    let mut evidence: Vec<String> = Vec::new();
    for report in reports {
        for section in &report.sections {
            if section.name != "check" && section.name != "check:strict" {
                continue;
            }
            let Some(&JsonValue::U64(violations)) = field(&section.data, "violations") else {
                continue;
            };
            if violations == 0 {
                continue;
            }
            total += violations;
            let what = format!(
                "{} / {} / {} nodes / {}",
                report.benchmark, report.policy_spec, report.workload.nodes, report.directory
            );
            evidence.push(format!("{what}: {violations} violation(s)"));
            if let Some(JsonValue::Array(first)) = field(&section.data, "first") {
                for line in first {
                    if let JsonValue::Str(s) = line {
                        evidence.push(format!("  {s}"));
                    }
                }
            }
        }
    }
    if total == 0 {
        return Ok(());
    }
    Err(format!(
        "coherence check failed: {total} violation(s)\n{}",
        evidence.join("\n")
    ))
}

/// `ltp run`: simulates the cross product and prints it (see [`emit`]).
fn cmd_run(
    registry: &PolicyRegistry,
    probes: &ProbeRegistry,
    opts: &Options,
) -> Result<(), String> {
    let sources = parse_sources(opts)?;
    let policies = parse_policies(registry, opts)?;
    let sweep = build_sweep(sources, policies, probes, opts)?;
    if opts.debug {
        if opts.jobs == Some(1) {
            eprintln!("# -j 1: one worker, runs proceed in cross-product order");
        } else {
            let runs = sweep.runs();
            for (pos, (seq, estimate)) in SweepSpec::schedule_for(&runs).into_iter().enumerate() {
                let run = &runs[seq];
                let what = format!(
                    "{} / {} / {} nodes / {}",
                    run.source.name(),
                    run.policy.spec(),
                    run.workload.nodes,
                    run.directory
                );
                match estimate {
                    Some(e) => eprintln!(
                        "# schedule[{pos}] = run {seq}: {what} — ~{} ops (from {})",
                        e.ops, e.source
                    ),
                    None => eprintln!(
                        "# schedule[{pos}] = run {seq}: {what} — length unknown, scheduled first"
                    ),
                }
            }
        }
    }
    let started = Instant::now();
    let outcome = match &opts.json_lines {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("--json-lines {path}: {e}"))?;
            sweep.execute(&mut JsonLinesSink::new(BufWriter::new(file)))
        }
        None => sweep.execute(&mut NullSink),
    };
    let reports = outcome.map_err(|stuck| stuck.render_human().trim_end().to_string())?;
    if !opts.quiet && !opts.json && reports.len() > 1 {
        eprintln!(
            "# {} runs in {:.2}s",
            reports.len(),
            started.elapsed().as_secs_f64()
        );
    }
    if opts.check {
        scan_check_sections(&reports)?;
    }
    emit(&reports, opts);
    if opts.check && !opts.json && !opts.quiet {
        println!(
            "coherence check passed: {} run(s), 0 violations",
            reports.len()
        );
    }
    Ok(())
}

/// `ltp check`: model-checks the acceptance geometries crossed with the
/// requested (default: all four) sharer organizations over every message
/// interleaving.
fn cmd_check(opts: &Options) -> Result<(), String> {
    let kinds: Vec<DirectoryKind> = if opts.dirs.is_empty() {
        vec![
            DirectoryKind::Full,
            DirectoryKind::Coarse { cluster: 1 },
            DirectoryKind::LimitedPtr { pointers: 1 },
            DirectoryKind::Sparse { entries: 1 },
        ]
    } else {
        opts.dirs.clone()
    };
    // (nodes, blocks, ops-per-node): exhaustive yet CI-sized. The op budget
    // bounds the search; --ops overrides it for deeper local runs, and
    // -n restricts the matrix to one geometry. The 3-block geometry
    // co-homes blocks 0 and 2 (home = block mod nodes), which is what
    // drives a 1-entry sparse cache through its eviction states.
    let mut geometries: Vec<(u16, u64, u32)> = vec![(2, 1, 3), (3, 2, 1), (2, 3, 1)];
    if !opts.nodes.is_empty() {
        geometries.retain(|(n, _, _)| opts.nodes.contains(n));
        if geometries.is_empty() {
            return Err("-n: no exhaustive geometry matches (available: 2, 3)".to_string());
        }
    }
    for kind in &kinds {
        for &(nodes, _, _) in &geometries {
            check_directory(*kind, nodes)?;
        }
    }
    let started = Instant::now();
    for kind in &kinds {
        for &(nodes, blocks, default_ops) in &geometries {
            let ops_per_node = opts
                .ops
                .map_or(default_ops, |n| u32::try_from(n).unwrap_or(u32::MAX));
            let config = ExploreConfig {
                nodes,
                blocks,
                ops_per_node,
                directory: *kind,
                max_states: 50_000_000,
            };
            let out = explore(&config);
            if let Some(cx) = out.violation {
                let mut msg = format!(
                    "invariant `{}` violated ({}) in {nodes}-node/{blocks}-block/{kind} \
                     after {} states\ncounterexample ({} steps):",
                    cx.invariant,
                    cx.detail,
                    out.states,
                    cx.trace.len()
                );
                for (i, step) in cx.trace.iter().enumerate() {
                    msg.push_str(&format!("\n  {i:>3}. {step}"));
                }
                return Err(msg);
            }
            if !opts.quiet {
                println!(
                    "  ok  {nodes} nodes / {blocks} block(s) / {ops_per_node} ops / {kind:<9} — \
                     {} states, {} transitions{}",
                    out.states,
                    out.transitions,
                    if out.truncated { " (TRUNCATED)" } else { "" }
                );
            }
            if out.truncated {
                return Err(format!(
                    "state space truncated at {} states; lower --ops",
                    out.states
                ));
            }
        }
    }
    if !opts.quiet {
        println!(
            "exhaustive check passed: {} config(s), 0 violations, {:.2}s",
            kinds.len() * geometries.len(),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

fn cmd_record(opts: &Options) -> Result<(), String> {
    let benchmarks = parse_benchmarks(opts)?;
    let Some(output) = opts.output.as_deref() else {
        return Err("record needs --output <FILE.ltrace>".to_string());
    };
    let [benchmark] = benchmarks[..] else {
        return Err("record captures exactly one benchmark per file".to_string());
    };
    let params = single_geometry("record", opts)?;
    let trace = Trace::record(benchmark, &params);
    save_trace(&trace, output)?;
    if !opts.quiet {
        report_written("recorded", &trace, output);
    }
    Ok(())
}

fn cmd_gen_trace(opts: &Options) -> Result<(), String> {
    let Some(output) = opts.output.as_deref() else {
        return Err("gen-trace needs --output <FILE.ltrace>".to_string());
    };
    let params = single_geometry("gen-trace", opts)?;
    let trace = random_trace(&params, opts.ops.unwrap_or(1 << 16));
    save_trace(&trace, output)?;
    if !opts.quiet {
        report_written("generated", &trace, output);
    }
    Ok(())
}

/// Writes a trace in the current format version.
fn save_trace(trace: &Trace, output: &str) -> Result<(), String> {
    trace
        .save(output)
        .map_err(|e| format!("--output {output}: {e}"))
}

fn report_written(verb: &str, trace: &Trace, output: &str) {
    let bytes = std::fs::metadata(output).map_or(0, |m| m.len());
    println!(
        "{verb} {}: {} nodes, {} ops -> {} ({} bytes, {:.2} B/op)",
        trace.name(),
        trace.nodes(),
        trace.total_ops(),
        output,
        bytes,
        bytes as f64 / trace.total_ops().max(1) as f64
    );
}

fn cmd_predict(registry: &PolicyRegistry, opts: &Options) -> Result<(), String> {
    let sources = parse_sources(opts)?;
    let params = single_geometry("predict", opts)?;
    // Explicit -p specs race; without them the whole default zoo runs.
    let policies = if opts.policies.is_some() {
        parse_policies(registry, opts)?
    } else {
        DEFAULT_ZOO
            .iter()
            .map(|s| registry.parse(s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    };
    let mut spec = PredictSpec::new().geometry(params);
    for source in sources {
        spec = spec.source(source);
    }
    for policy in policies {
        spec = spec.policy(policy);
    }
    if let Some(jobs) = opts.jobs {
        spec = spec.threads(jobs);
    }
    let jobs = spec.len();
    let started = Instant::now();
    let rows = spec.execute();
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(path) = &opts.report {
        std::fs::write(path, render_report(&spec, &rows))
            .map_err(|e| format!("--report {path}: {e}"))?;
    }
    if opts.json {
        println!("{}", render_json(&rows));
    } else if !opts.quiet {
        print!("{}", render_report(&spec, &rows));
        let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
        eprintln!(
            "# {jobs} jobs, {total_ops} replayed ops in {elapsed:.2}s ({:.0} ops/s offline)",
            total_ops as f64 / elapsed.max(f64::EPSILON)
        );
        if let Some(path) = &opts.report {
            eprintln!("# report written to {path}");
        }
    }
    Ok(())
}

/// Merges a campaign spec file into `opts`. Flags given on the command
/// line win; the file fills in whatever they left unset. The grammar is
/// the flag surface as JSON: each key goes through its flag's own parsing
/// and validation, and takes a scalar or an array (joined with commas, or
/// one `--probe` per entry):
///
/// ```json
/// {
///   "benchmarks": ["em3d", "tomcatv"],
///   "policies": ["base", "dsi", "ltp:bits=13"],
///   "nodes": [8, 16],
///   "dirs": ["full", "coarse:2"],
///   "seed": 365633536,
///   "iterations": 3,
///   "shards": 1,
///   "jobs": 4,
///   "probes": ["per-node"]
/// }
/// ```
fn apply_campaign_spec(path: &str, opts: &mut Options) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(fields) = doc.as_object() else {
        return Err(format!("{path}: campaign spec must be a JSON object"));
    };
    let from_cli = opts.given.clone();
    for (key, value) in fields {
        let flag = match key.as_str() {
            "benchmarks" => "--benchmarks",
            "policies" => "--policies",
            "traces" => "--trace",
            "nodes" => "--nodes",
            "dirs" => "--dir",
            "probes" => "--probe",
            "seed" => "--seed",
            "iterations" => "--iters",
            "shards" => "--shards",
            "jobs" => "--jobs",
            other => return Err(format!("{path}: unknown campaign spec key `{other}`")),
        };
        let spec = option_spec(flag).expect("campaign spec keys name options");
        if from_cli.iter().any(|given| given.name() == flag) {
            continue;
        }
        let items = value.as_array().unwrap_or(std::slice::from_ref(value));
        let values: Vec<String> = items
            .iter()
            .map(|v| match v {
                JsonValue::Str(s) => Ok(s.clone()),
                JsonValue::U64(_) | JsonValue::I64(_) => Ok(v.to_string()),
                _ => Err(format!(
                    "{path}: `{key}` takes a string, a number, or an array of them"
                )),
            })
            .collect::<Result<_, _>>()?;
        let joined = [values.join(",")];
        let each: &[String] = if flag == "--probe" { &values } else { &joined };
        for value in each {
            opts.set(spec, value).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

/// `ltp campaign`: the resumable checkpointed sweep driver.
fn cmd_campaign(
    registry: &PolicyRegistry,
    probes: &ProbeRegistry,
    opts: &Options,
) -> Result<(), String> {
    let mut opts = opts.clone();
    match opts.positional.len() {
        0 => {}
        1 => {
            let spec = opts.positional[0].clone();
            apply_campaign_spec(&spec, &mut opts)?;
        }
        _ => return Err("campaign takes at most one SPEC.json".to_string()),
    }
    let Some(dir) = opts.output.clone() else {
        return Err("campaign needs --output <DIR> (the store directory)".to_string());
    };
    let sources = parse_sources(&opts)?;
    let policies = parse_policies(registry, &opts)?;
    let sweep = build_sweep(sources, policies, probes, &opts)?;
    let campaign = Campaign::new(sweep, &dir);
    let status = campaign.status().map_err(|e| e.to_string())?;
    if opts.dry_run {
        println!(
            "campaign {dir}: {} run(s) total — {} done, {} stuck, {} pending",
            status.total, status.done, status.stuck, status.pending
        );
        return Ok(());
    }
    let stored = status.done + status.stuck;
    if stored > 0 && !opts.resume {
        return Err(format!(
            "store {dir} already holds {stored} completed run(s); pass --resume to \
             continue it (or --dry-run to inspect)"
        ));
    }
    if !opts.quiet {
        println!(
            "campaign {dir}: {} run(s) — {} already stored, {} to execute",
            status.total, stored, status.pending
        );
    }
    let started = Instant::now();
    let quiet = opts.quiet;
    let summary = campaign
        .run_with(&mut |finished| {
            if !quiet {
                let verdict = match finished.status {
                    RunStatus::Done => "done",
                    RunStatus::Stuck => "STUCK",
                };
                println!(
                    "  [{}/{}] {verdict}  run {} ({})",
                    finished.finished, finished.to_execute, finished.seq, finished.hash
                );
            }
        })
        .map_err(|e| e.to_string())?;
    if !opts.quiet {
        println!(
            "campaign complete: {} run(s) — {} executed, {} skipped (already stored), \
             {} stuck — in {:.2}s",
            summary.total,
            summary.executed,
            summary.skipped,
            summary.stuck,
            started.elapsed().as_secs_f64()
        );
        println!(
            "aggregate: {}",
            std::path::Path::new(&dir).join("campaign.jsonl").display()
        );
    }
    Ok(())
}

/// `ltp report`: folds a campaign store into the paper artifacts.
fn cmd_report(opts: &Options) -> Result<(), String> {
    let [dir] = &opts.positional[..] else {
        return Err("report takes exactly one campaign store DIR".to_string());
    };
    let figures: Vec<FigureId> = match opts.figs.as_deref() {
        None | Some("all") => FigureId::ALL.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                FigureId::parse(s)
                    .ok_or_else(|| format!("--fig: unknown artifact `{s}` (see usage)"))
            })
            .collect::<Result<_, _>>()?,
    };
    if figures.is_empty() {
        return Err("--fig names no artifact".to_string());
    }
    let out = opts.output.clone().map_or_else(
        || std::path::Path::new(dir).join("reports"),
        std::path::PathBuf::from,
    );
    let artifacts =
        generate_reports(std::path::Path::new(dir), &out, &figures).map_err(|e| e.to_string())?;
    if !opts.quiet {
        for artifact in &artifacts {
            println!(
                "{}  {}",
                artifact.figure.stem(),
                artifact.markdown.display()
            );
        }
        println!(
            "{} artifact(s) written to {}",
            artifacts.len(),
            out.display()
        );
    }
    Ok(())
}

fn cmd_trace_info(opts: &Options) -> Result<(), String> {
    let mut paths: Vec<&str> = opts.positional.iter().map(String::as_str).collect();
    paths.extend(opts.traces.iter().map(String::as_str));
    if paths.is_empty() {
        return Err("trace-info needs at least one trace file".to_string());
    }
    for path in paths {
        // The streaming opener is the validator: one sequential pass checks
        // magic, version, checksum, and the structure of every stream, and
        // yields the per-stream metadata without materializing any ops.
        let info = StreamingTrace::open(path).map_err(|e| format!("{path}: {e}"))?;
        let w = info.workload();
        println!("{path}:");
        println!(
            "  format v{} | workload {} | {} nodes | seed {:#x} | iterations {}",
            info.version(),
            info.name(),
            w.nodes,
            w.seed,
            w.iterations
                .map_or_else(|| "default".to_string(), |i| i.to_string())
        );
        println!(
            "  {} ops in {} bytes ({:.2} B/op encoded)",
            info.total_ops(),
            info.file_bytes(),
            info.file_bytes() as f64 / info.total_ops().max(1) as f64
        );
        let per_node: Vec<u64> = (0..info.nodes()).map(|n| info.stream_ops(n)).collect();
        println!(
            "  ops/node: min {}, max {}",
            per_node.iter().min().unwrap_or(&0),
            per_node.iter().max().unwrap_or(&0)
        );
        // The full per-stream breakdown from the stream headers — skew
        // between nodes is invisible in min/max alone.
        println!(
            "  per node: {}",
            per_node
                .iter()
                .enumerate()
                .map(|(n, ops)| format!("{n}:{ops}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "  repeat blocks: {} | max decode window: {} ops",
            info.repeat_blocks(),
            info.max_window()
        );
        // The histogram and the v1-size comparison need every op — streamed
        // node by node in O(window) memory, never materialized, so
        // trace-info works on files far larger than RAM.
        let info = Arc::new(info);
        let stats = StreamingTrace::scan_stats(&info).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "  vs format v1: {} bytes ({:.2} B/op, {:.2}x this file)",
            stats.v1_bytes,
            stats.v1_bytes as f64 / info.total_ops().max(1) as f64,
            stats.v1_bytes as f64 / info.file_bytes().max(1) as f64
        );
        let breakdown: Vec<String> = stats
            .histogram
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(kind, count)| format!("{kind} {count}"))
            .collect();
        println!("  by kind: {}", breakdown.join(", "));
    }
    Ok(())
}

fn main() -> ExitCode {
    let registry = PolicyRegistry::with_builtins();
    let probes = ProbeRegistry::with_builtins();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        println!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = parse_options(rest).and_then(|opts| {
        check_applies(command, &opts)?;
        match command.as_str() {
            "list" => {
                cmd_list();
                Ok(())
            }
            "list-policies" => {
                cmd_list_policies(&registry);
                Ok(())
            }
            "list-probes" => {
                cmd_list_probes(&probes);
                Ok(())
            }
            "run" => cmd_run(&registry, &probes, &opts),
            "check" => cmd_check(&opts),
            "record" => cmd_record(&opts),
            "gen-trace" => cmd_gen_trace(&opts),
            "trace-info" => cmd_trace_info(&opts),
            "predict" => cmd_predict(&registry, &opts),
            "campaign" => cmd_campaign(&registry, &probes, &opts),
            "report" => cmd_report(&opts),
            // help, --help, -h
            _ => {
                println!("{USAGE}");
                Ok(())
            }
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run 'ltp help' for usage");
            ExitCode::FAILURE
        }
    }
}
