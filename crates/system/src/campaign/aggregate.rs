//! The reporter: folds a campaign store into the paper's artifacts.
//!
//! `ltp report DIR` reads the checkpointed run documents (never re-running
//! anything) and regenerates the headline figures and tables of Lai &
//! Falsafi (ISCA 2000) as markdown + machine-readable JSON:
//!
//! | artifact | paper analog | contents |
//! |---|---|---|
//! | `fig1`  | Fig. 1 | protocol traffic per policy, messages normalized to base |
//! | `fig2`  | Fig. 2 | self-invalidation behavior (sent/verified/timely/premature) |
//! | `fig6`  | Fig. 6 | prediction accuracy/coverage breakdown per benchmark |
//! | `fig7`  | Fig. 7 | execution time normalized to base MSI |
//! | `fig9`  | Fig. 9 | speedup over base MSI, with per-policy averages |
//! | `t2`    | Table 2 | workload characterization under the base protocol |
//! | `t3`    | Table 3 | predictor storage (blocks tracked, live entries, bits) |
//! | `t4`    | Table 4 | timeliness and directory occupancy |
//!
//! Every artifact is a deterministic function of the store: rows sort by
//! (benchmark, policy, nodes, directory), floats render at fixed
//! precision, and nothing timestamps itself — regenerating from the same
//! store is byte-identical, which is what lets CI `cmp` committed
//! artifacts. Stuck runs are excluded from tables and footnoted.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ltp_core::{JsonObject, JsonValue};

use super::store::{CampaignStore, RunStatus, StoreError};

/// One of the report artifacts (`--fig` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureId {
    /// Protocol traffic (Fig. 1 analog).
    Fig1,
    /// Self-invalidation behavior (Fig. 2 analog).
    Fig2,
    /// Prediction breakdown (Fig. 6 analog).
    Fig6,
    /// Normalized execution time (Fig. 7 analog).
    Fig7,
    /// Speedups (Fig. 9 analog).
    Fig9,
    /// Workload characterization (Table 2 analog).
    T2,
    /// Predictor storage (Table 3 analog).
    T3,
    /// Timeliness and directory occupancy (Table 4 analog).
    T4,
}

impl FigureId {
    /// Every artifact, in catalog order.
    pub const ALL: [FigureId; 8] = [
        FigureId::Fig1,
        FigureId::Fig2,
        FigureId::Fig6,
        FigureId::Fig7,
        FigureId::Fig9,
        FigureId::T2,
        FigureId::T3,
        FigureId::T4,
    ];

    /// Parses a `--fig` selector (`1`, `fig6`, `t3`, …).
    pub fn parse(s: &str) -> Option<FigureId> {
        match s.trim_start_matches("fig") {
            "1" => Some(FigureId::Fig1),
            "2" => Some(FigureId::Fig2),
            "6" => Some(FigureId::Fig6),
            "7" => Some(FigureId::Fig7),
            "9" => Some(FigureId::Fig9),
            "t2" => Some(FigureId::T2),
            "t3" => Some(FigureId::T3),
            "t4" => Some(FigureId::T4),
            _ => None,
        }
    }

    /// The artifact's file stem (`fig6` → `fig6.md` + `fig6.json`).
    pub fn stem(self) -> &'static str {
        match self {
            FigureId::Fig1 => "fig1",
            FigureId::Fig2 => "fig2",
            FigureId::Fig6 => "fig6",
            FigureId::Fig7 => "fig7",
            FigureId::Fig9 => "fig9",
            FigureId::T2 => "t2",
            FigureId::T3 => "t3",
            FigureId::T4 => "t4",
        }
    }

    fn title(self) -> &'static str {
        match self {
            FigureId::Fig1 => "Protocol traffic (Fig. 1 analog)",
            FigureId::Fig2 => "Self-invalidation behavior (Fig. 2 analog)",
            FigureId::Fig6 => "Prediction breakdown (Fig. 6 analog)",
            FigureId::Fig7 => "Execution time normalized to base MSI (Fig. 7 analog)",
            FigureId::Fig9 => "Speedup over base MSI (Fig. 9 analog)",
            FigureId::T2 => "Workload characterization under base MSI (Table 2 analog)",
            FigureId::T3 => "Predictor storage (Table 3 analog)",
            FigureId::T4 => "Timeliness and directory occupancy (Table 4 analog)",
        }
    }
}

/// One generated artifact pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Which figure/table.
    pub figure: FigureId,
    /// The rendered markdown file.
    pub markdown: PathBuf,
    /// The machine-readable JSON file.
    pub json: PathBuf,
}

/// One completed run, flattened for aggregation.
#[derive(Debug, Clone)]
struct Row {
    benchmark: String,
    policy: String,
    policy_spec: String,
    directory: String,
    nodes: u64,
    seed: u64,
    iterations: Option<u64>,
    predicted: u64,
    predicted_timely: u64,
    not_predicted: u64,
    mispredicted: u64,
    exec_cycles: u64,
    misses: u64,
    hits: u64,
    self_invalidations_sent: u64,
    invalidations_sent: u64,
    extra_invalidations: u64,
    broadcast_overflows: u64,
    messages: u64,
    stale_ignored: u64,
    dir_queueing_mean: f64,
    dir_service_mean: f64,
    storage_blocks: u64,
    storage_entries: u64,
    storage_bits: u64,
}

impl Row {
    fn invalidation_events(&self) -> u64 {
        self.predicted + self.not_predicted
    }

    /// The geometry key a policy row and its base row must share for
    /// normalization to be meaningful.
    fn geometry_key(&self) -> (String, u64, u64, Option<u64>, String) {
        (
            self.benchmark.clone(),
            self.nodes,
            self.seed,
            self.iterations,
            self.directory.clone(),
        )
    }
}

/// One stuck run, for footnotes.
#[derive(Debug, Clone)]
struct StuckRow {
    benchmark: String,
    policy_spec: String,
    directory: String,
    nodes: u64,
    unfinished: u64,
}

fn u(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn parse_row(body: &JsonValue) -> Option<Row> {
    let metrics = body.get("metrics")?;
    let workload = body.get("workload")?;
    Some(Row {
        benchmark: body.get("benchmark")?.as_str()?.to_string(),
        policy: body.get("policy")?.as_str()?.to_string(),
        policy_spec: body.get("policy_spec")?.as_str()?.to_string(),
        directory: body.get("directory")?.as_str()?.to_string(),
        nodes: u(workload, "nodes"),
        seed: u(workload, "seed"),
        iterations: workload.get("iterations").and_then(JsonValue::as_u64),
        predicted: u(metrics, "predicted"),
        predicted_timely: u(metrics, "predicted_timely"),
        not_predicted: u(metrics, "not_predicted"),
        mispredicted: u(metrics, "mispredicted"),
        exec_cycles: u(metrics, "exec_cycles"),
        misses: u(metrics, "misses"),
        hits: u(metrics, "hits"),
        self_invalidations_sent: u(metrics, "self_invalidations_sent"),
        invalidations_sent: u(metrics, "invalidations_sent"),
        extra_invalidations: u(metrics, "extra_invalidations"),
        broadcast_overflows: u(metrics, "broadcast_overflows"),
        messages: u(metrics, "messages"),
        stale_ignored: u(metrics, "stale_ignored"),
        dir_queueing_mean: metrics
            .get("dir_queueing")
            .and_then(|q| q.get("mean"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        dir_service_mean: metrics
            .get("dir_service")
            .and_then(|q| q.get("mean"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        storage_blocks: metrics.get("storage").map_or(0, |s| u(s, "blocks_tracked")),
        storage_entries: metrics.get("storage").map_or(0, |s| u(s, "live_entries")),
        storage_bits: metrics.get("storage").map_or(0, |s| u(s, "signature_bits")),
    })
}

fn parse_stuck(body: &JsonValue) -> Option<StuckRow> {
    let workload = body.get("workload")?;
    Some(StuckRow {
        benchmark: body.get("benchmark")?.as_str()?.to_string(),
        policy_spec: body.get("policy_spec")?.as_str()?.to_string(),
        directory: body.get("directory")?.as_str()?.to_string(),
        nodes: u(workload, "nodes"),
        unfinished: body
            .get("stuck_nodes")
            .and_then(JsonValue::as_array)
            .map_or(0, |a| a.len() as u64),
    })
}

/// Well-known policy families render in this order (the paper's
/// base-then-strawmen-then-LTP narrative); unknown families follow
/// alphabetically.
fn policy_rank(policy: &str) -> (usize, &str) {
    const ORDER: [&str; 6] = ["base", "dsi", "last-pc", "ltp", "ltp-global", "ltp-xor"];
    (
        ORDER
            .iter()
            .position(|p| *p == policy)
            .unwrap_or(ORDER.len()),
        policy,
    )
}

fn sort_rows(rows: &mut [Row]) {
    rows.sort_by(|a, b| {
        (
            &a.benchmark,
            policy_rank(&a.policy),
            &a.policy_spec,
            a.nodes,
            &a.directory,
            a.seed,
            a.iterations,
        )
            .cmp(&(
                &b.benchmark,
                policy_rank(&b.policy),
                &b.policy_spec,
                b.nodes,
                &b.directory,
                b.seed,
                b.iterations,
            ))
    });
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Generates the selected artifacts from the store at `store_dir` into
/// `out_dir` (created if missing).
///
/// # Errors
///
/// Fails on store trouble or malformed stored documents, and — before
/// creating anything — when `store_dir` holds no store (no
/// `manifest.jsonl`), so a mistyped path never yields blank figures.
pub fn generate_reports(
    store_dir: &Path,
    out_dir: &Path,
    figures: &[FigureId],
) -> Result<Vec<Artifact>, StoreError> {
    if !store_dir.join("manifest.jsonl").is_file() {
        return Err(StoreError::Io(
            store_dir.to_path_buf(),
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "not a campaign store (no manifest.jsonl)",
            ),
        ));
    }
    let store = CampaignStore::open(store_dir)?;
    let mut rows = Vec::new();
    let mut stuck = Vec::new();
    for (&hash, &status) in &store.completed()? {
        let run = store.load_run(hash)?;
        let malformed = || {
            StoreError::Malformed(
                store.dir().join("runs").join(format!("{hash}.json")),
                "unrecognized run document shape".to_string(),
            )
        };
        match status {
            RunStatus::Done => rows.push(parse_row(&run.body).ok_or_else(malformed)?),
            RunStatus::Stuck => stuck.push(parse_stuck(&run.body).ok_or_else(malformed)?),
        }
    }
    sort_rows(&mut rows);
    stuck.sort_by(|a, b| {
        (&a.benchmark, &a.policy_spec, a.nodes, &a.directory).cmp(&(
            &b.benchmark,
            &b.policy_spec,
            b.nodes,
            &b.directory,
        ))
    });

    fs::create_dir_all(out_dir).map_err(|e| StoreError::Io(out_dir.to_path_buf(), e))?;
    let mut artifacts = Vec::new();
    for &figure in figures {
        let (markdown, json) = render(figure, &rows, &stuck);
        let md_path = out_dir.join(format!("{}.md", figure.stem()));
        let json_path = out_dir.join(format!("{}.json", figure.stem()));
        fs::write(&md_path, markdown).map_err(|e| StoreError::Io(md_path.clone(), e))?;
        fs::write(&json_path, json).map_err(|e| StoreError::Io(json_path.clone(), e))?;
        artifacts.push(Artifact {
            figure,
            markdown: md_path,
            json: json_path,
        });
    }
    Ok(artifacts)
}

/// Renders one artifact: `(markdown, json)`.
fn render(figure: FigureId, rows: &[Row], stuck: &[StuckRow]) -> (String, String) {
    let mut md = format!("# {}\n\nGenerated by `ltp report`.\n\n", figure.title());
    let mut json_rows: Vec<JsonValue> = Vec::new();

    // Base-policy lookup for normalized figures.
    let base_exec = |row: &Row| -> Option<u64> {
        rows.iter()
            .find(|b| b.policy == "base" && b.geometry_key() == row.geometry_key())
            .map(|b| b.exec_cycles)
    };

    match figure {
        FigureId::Fig1 => {
            md.push_str("| benchmark | policy | nodes | dir | messages | msgs vs base | invalidations | self-inv | over-inv | bcast overflows |\n");
            md.push_str("|---|---|---:|---|---:|---:|---:|---:|---:|---:|\n");
            for r in rows {
                let norm = base_exec(r).map_or(0.0, |_| {
                    let base_msgs = rows
                        .iter()
                        .find(|b| b.policy == "base" && b.geometry_key() == r.geometry_key())
                        .map_or(0, |b| b.messages);
                    if base_msgs == 0 {
                        0.0
                    } else {
                        r.messages as f64 / base_msgs as f64
                    }
                });
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {} | {:.3} | {} | {} | {} | {} |",
                    r.benchmark,
                    r.policy_spec,
                    r.nodes,
                    r.directory,
                    r.messages,
                    norm,
                    r.invalidations_sent,
                    r.self_invalidations_sent,
                    r.extra_invalidations,
                    r.broadcast_overflows,
                );
                json_rows.push(
                    row_key(r)
                        .field("messages", r.messages)
                        .field("messages_vs_base", fixed(norm, 3))
                        .field("invalidations_sent", r.invalidations_sent)
                        .field("self_invalidations_sent", r.self_invalidations_sent)
                        .field("extra_invalidations", r.extra_invalidations)
                        .field("broadcast_overflows", r.broadcast_overflows)
                        .build(),
                );
            }
        }
        FigureId::Fig2 => {
            md.push_str("| benchmark | policy | nodes | dir | self-inv sent | verified correct | timely | premature | stale ignored |\n");
            md.push_str("|---|---|---:|---|---:|---:|---:|---:|---:|\n");
            for r in rows.iter().filter(|r| r.policy != "base") {
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {} | {} | {} | {} | {} |",
                    r.benchmark,
                    r.policy_spec,
                    r.nodes,
                    r.directory,
                    r.self_invalidations_sent,
                    r.predicted,
                    r.predicted_timely,
                    r.mispredicted,
                    r.stale_ignored,
                );
                json_rows.push(
                    row_key(r)
                        .field("self_invalidations_sent", r.self_invalidations_sent)
                        .field("predicted", r.predicted)
                        .field("predicted_timely", r.predicted_timely)
                        .field("mispredicted", r.mispredicted)
                        .field("stale_ignored", r.stale_ignored)
                        .build(),
                );
            }
        }
        FigureId::Fig6 => {
            md.push_str("| benchmark | policy | nodes | dir | predicted % | not predicted % | mispredicted % | timely % |\n");
            md.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
            for r in rows.iter().filter(|r| r.policy != "base") {
                let events = r.invalidation_events();
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |",
                    r.benchmark,
                    r.policy_spec,
                    r.nodes,
                    r.directory,
                    percent(r.predicted, events),
                    percent(r.not_predicted, events),
                    percent(r.mispredicted, events),
                    percent(r.predicted_timely, r.predicted),
                );
                json_rows.push(
                    row_key(r)
                        .field("predicted_pct", fixed(percent(r.predicted, events), 1))
                        .field(
                            "not_predicted_pct",
                            fixed(percent(r.not_predicted, events), 1),
                        )
                        .field(
                            "mispredicted_pct",
                            fixed(percent(r.mispredicted, events), 1),
                        )
                        .field(
                            "timeliness_pct",
                            fixed(percent(r.predicted_timely, r.predicted), 1),
                        )
                        .build(),
                );
            }
            // Per-policy averages over benchmarks (the paper's headline
            // "LTP predicts 79% on average" numbers).
            append_policy_averages(&mut md, &mut json_rows, rows, |r| {
                percent(r.predicted, r.invalidation_events())
            });
        }
        FigureId::Fig7 | FigureId::Fig9 => {
            let speedup = figure == FigureId::Fig9;
            if speedup {
                md.push_str("| benchmark | policy | nodes | dir | speedup vs base |\n");
            } else {
                md.push_str("| benchmark | policy | nodes | dir | normalized time |\n");
            }
            md.push_str("|---|---|---:|---|---:|\n");
            for r in rows.iter().filter(|r| r.policy != "base") {
                let Some(base) = base_exec(r) else { continue };
                if base == 0 || r.exec_cycles == 0 {
                    continue;
                }
                let value = if speedup {
                    base as f64 / r.exec_cycles as f64
                } else {
                    r.exec_cycles as f64 / base as f64
                };
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {:.3} |",
                    r.benchmark, r.policy_spec, r.nodes, r.directory, value,
                );
                json_rows.push(
                    row_key(r)
                        .field("exec_cycles", r.exec_cycles)
                        .field("base_exec_cycles", base)
                        .field(
                            if speedup {
                                "speedup"
                            } else {
                                "normalized_time"
                            },
                            fixed(value, 3),
                        )
                        .build(),
                );
            }
            if speedup {
                append_policy_averages(&mut md, &mut json_rows, rows, |r| {
                    base_exec(r).map_or(0.0, |base| {
                        if r.exec_cycles == 0 {
                            0.0
                        } else {
                            base as f64 / r.exec_cycles as f64
                        }
                    })
                });
            }
        }
        FigureId::T2 => {
            md.push_str("| benchmark | nodes | dir | exec cycles | misses | hits | miss % | invalidations | messages |\n");
            md.push_str("|---|---:|---|---:|---:|---:|---:|---:|---:|\n");
            for r in rows.iter().filter(|r| r.policy == "base") {
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {} | {:.2} | {} | {} |",
                    r.benchmark,
                    r.nodes,
                    r.directory,
                    r.exec_cycles,
                    r.misses,
                    r.hits,
                    percent(r.misses, r.misses + r.hits),
                    r.invalidations_sent,
                    r.messages,
                );
                json_rows.push(
                    row_key(r)
                        .field("exec_cycles", r.exec_cycles)
                        .field("misses", r.misses)
                        .field("hits", r.hits)
                        .field("miss_pct", fixed(percent(r.misses, r.misses + r.hits), 2))
                        .field("invalidations_sent", r.invalidations_sent)
                        .field("messages", r.messages)
                        .build(),
                );
            }
        }
        FigureId::T3 => {
            md.push_str("| benchmark | policy | nodes | dir | blocks tracked | live entries | signature bits |\n");
            md.push_str("|---|---|---:|---|---:|---:|---:|\n");
            for r in rows
                .iter()
                .filter(|r| r.storage_blocks > 0 || r.storage_entries > 0)
            {
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {} | {} | {} |",
                    r.benchmark,
                    r.policy_spec,
                    r.nodes,
                    r.directory,
                    r.storage_blocks,
                    r.storage_entries,
                    r.storage_bits,
                );
                json_rows.push(
                    row_key(r)
                        .field("blocks_tracked", r.storage_blocks)
                        .field("live_entries", r.storage_entries)
                        .field("signature_bits", r.storage_bits)
                        .build(),
                );
            }
        }
        FigureId::T4 => {
            md.push_str(
                "| benchmark | policy | nodes | dir | timely % | dir queueing | dir service |\n",
            );
            md.push_str("|---|---|---:|---|---:|---:|---:|\n");
            for r in rows {
                let _ = writeln!(
                    md,
                    "| {} | `{}` | {} | {} | {:.1} | {:.2} | {:.2} |",
                    r.benchmark,
                    r.policy_spec,
                    r.nodes,
                    r.directory,
                    percent(r.predicted_timely, r.predicted),
                    r.dir_queueing_mean,
                    r.dir_service_mean,
                );
                json_rows.push(
                    row_key(r)
                        .field(
                            "timeliness_pct",
                            fixed(percent(r.predicted_timely, r.predicted), 1),
                        )
                        .field("dir_queueing_mean", fixed(r.dir_queueing_mean, 2))
                        .field("dir_service_mean", fixed(r.dir_service_mean, 2))
                        .build(),
                );
            }
        }
    }

    if !stuck.is_empty() {
        let _ = writeln!(
            md,
            "\n> **Stuck runs ({}), excluded from the table:**",
            stuck.len()
        );
        for s in stuck {
            let _ = writeln!(
                md,
                "> {} under `{}` at {} nodes ({}): {} nodes unfinished at the horizon.",
                s.benchmark, s.policy_spec, s.nodes, s.directory, s.unfinished
            );
        }
    }

    let json = JsonObject::new()
        .field("figure", figure.stem())
        .field("rows", JsonValue::Array(json_rows))
        .field(
            "stuck",
            JsonValue::Array(
                stuck
                    .iter()
                    .map(|s| {
                        JsonObject::new()
                            .field("benchmark", s.benchmark.as_str())
                            .field("policy_spec", s.policy_spec.as_str())
                            .field("nodes", s.nodes)
                            .field("directory", s.directory.as_str())
                            .field("unfinished_nodes", s.unfinished)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
        .render();
    (md, format!("{json}\n"))
}

/// The identifying prefix fields every JSON row starts with.
fn row_key(r: &Row) -> JsonObject {
    JsonObject::new()
        .field("benchmark", r.benchmark.as_str())
        .field("policy_spec", r.policy_spec.as_str())
        .field("nodes", r.nodes)
        .field("directory", r.directory.as_str())
}

/// Rounds to `prec` decimal places so JSON artifacts carry the same
/// precision as the markdown tables (and stay platform-independent).
fn fixed(x: f64, prec: u32) -> f64 {
    let scale = 10f64.powi(prec as i32);
    (x * scale).round() / scale
}

/// Appends a per-policy arithmetic-mean block (over the non-base rows'
/// `value`) to both renderings.
fn append_policy_averages(
    md: &mut String,
    json_rows: &mut Vec<JsonValue>,
    rows: &[Row],
    value: impl Fn(&Row) -> f64,
) {
    let mut specs: Vec<&str> = rows
        .iter()
        .filter(|r| r.policy != "base")
        .map(|r| r.policy_spec.as_str())
        .collect();
    specs.dedup();
    specs.sort_unstable();
    specs.dedup();
    if specs.is_empty() {
        return;
    }
    md.push_str("\n**Per-policy averages (arithmetic mean over rows):**\n\n");
    for spec in specs {
        let values: Vec<f64> = rows
            .iter()
            .filter(|r| r.policy_spec == spec)
            .map(&value)
            .collect();
        if values.is_empty() {
            continue;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let _ = writeln!(md, "- `{spec}`: {mean:.2}");
        json_rows.push(
            JsonObject::new()
                .field("policy_spec", spec)
                .field("average", fixed(mean, 2))
                .build(),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use ltp_core::PolicyRegistry;
    use ltp_workloads::Benchmark;

    use super::super::Campaign;
    use crate::sweep::SweepSpec;

    use super::*;

    fn reported_campaign(tag: &str) -> (PathBuf, PathBuf) {
        let registry = PolicyRegistry::with_builtins();
        let sweep = SweepSpec::new()
            .benchmarks([Benchmark::Em3d, Benchmark::Tomcatv])
            .policy_specs(&registry, &["base", "dsi", "ltp:bits=13"])
            .unwrap()
            .quick_geometry(4, 3);
        let store =
            std::env::temp_dir().join(format!("ltp-aggregate-{tag}-store-{}", std::process::id()));
        let out =
            std::env::temp_dir().join(format!("ltp-aggregate-{tag}-out-{}", std::process::id()));
        let _ = fs::remove_dir_all(&store);
        let _ = fs::remove_dir_all(&out);
        Campaign::new(sweep, &store).run().unwrap();
        (store, out)
    }

    #[test]
    fn figure_selectors_parse() {
        assert_eq!(FigureId::parse("6"), Some(FigureId::Fig6));
        assert_eq!(FigureId::parse("fig9"), Some(FigureId::Fig9));
        assert_eq!(FigureId::parse("t4"), Some(FigureId::T4));
        assert_eq!(FigureId::parse("bogus"), None);
        for figure in FigureId::ALL {
            assert_eq!(FigureId::parse(figure.stem()), Some(figure));
        }
    }

    #[test]
    fn reports_generate_and_are_deterministic() {
        let (store, out) = reported_campaign("determinism");
        let artifacts = generate_reports(&store, &out, &FigureId::ALL).unwrap();
        assert_eq!(artifacts.len(), FigureId::ALL.len());

        let fig6 = fs::read_to_string(out.join("fig6.md")).unwrap();
        assert!(fig6.contains("| em3d |"), "{fig6}");
        assert!(fig6.contains("`ltp:bits=13,capacity=16`"), "{fig6}");
        assert!(!fig6.contains("`base`"), "fig6 excludes the base rows");

        let fig9 = fs::read_to_string(out.join("fig9.md")).unwrap();
        assert!(fig9.contains("speedup"), "{fig9}");
        assert!(fig9.contains("Per-policy averages"), "{fig9}");

        let t2 = fs::read_to_string(out.join("t2.md")).unwrap();
        assert!(t2.contains("| em3d |"), "{t2}");

        // Regeneration is byte-identical.
        let first: Vec<(String, Vec<u8>)> = artifacts
            .iter()
            .flat_map(|a| [a.markdown.clone(), a.json.clone()])
            .map(|p| (p.display().to_string(), fs::read(&p).unwrap()))
            .collect();
        generate_reports(&store, &out, &FigureId::ALL).unwrap();
        for (path, bytes) in &first {
            assert_eq!(
                &fs::read(path).unwrap(),
                bytes,
                "{path} drifted on regeneration"
            );
        }
        fs::remove_dir_all(&store).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn json_artifacts_parse_and_carry_rows() {
        let (store, out) = reported_campaign("json");
        generate_reports(&store, &out, &[FigureId::Fig6]).unwrap();
        let doc =
            ltp_core::parse_json(&fs::read_to_string(out.join("fig6.json")).unwrap()).unwrap();
        assert_eq!(doc.get("figure").and_then(JsonValue::as_str), Some("fig6"));
        let rows = doc.get("rows").and_then(JsonValue::as_array).unwrap();
        // 2 benchmarks × 2 non-base policies + 2 per-policy average rows.
        assert_eq!(rows.len(), 6);
        assert!(rows[0].get("predicted_pct").is_some());
        fs::remove_dir_all(&store).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }
}
