//! The `ltp` binary's error surface: a bad invocation exits 1 with a short
//! message on stderr, not the full usage text.

use std::process::Command;

use ltp::core::BlockId;
use ltp::workloads::{Lock, Op, TraceWriter, WorkloadParams};

#[test]
fn unknown_flag_exits_1_with_a_short_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["run", "--no-such-flag"])
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(
        stderr.lines().count() <= 2,
        "more than two stderr lines:\n{stderr}"
    );
}

/// Runs `ltp` with `args` and requires the one-line option error: exit 1,
/// an `error:` line naming `flag`, and the usage hint.
fn rejects_option(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(args)
        .output()
        .expect("the ltp binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{args:?}: {stderr}");
    assert!(
        lines[0].starts_with(&format!("error: {flag} does not apply to")),
        "{args:?}: {stderr}"
    );
    assert_eq!(lines[1], "run 'ltp help' for usage");
}

#[test]
fn options_a_command_ignores_are_rejected() {
    let dir = std::env::temp_dir().join(format!("ltp-cli-options-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();
    let (jsonl, ltrace) = (path("f.jsonl"), path("r.ltrace"));

    // The model checker runs no workload; a `-b` there would be ignored.
    rejects_option(&["check", "-b", "em3d"], "--benchmarks");
    // `predict` replays no machine: no directory, shards or run stream.
    rejects_option(
        &[
            "predict",
            "-b",
            "em3d",
            "-d",
            "coarse:4",
            "--shards",
            "3",
            "--json-lines",
            &jsonl,
        ],
        "--dir",
    );
    rejects_option(&["predict", "-b", "em3d", "--shards", "3"], "--shards");
    rejects_option(
        &["predict", "-b", "em3d", "--json-lines", &jsonl],
        "--json-lines",
    );
    // `record` captures a workload, not a run of a policy.
    rejects_option(
        &[
            "record", "-b", "em3d", "-p", "ltp", "-d", "coarse:2", "-j", "3", "-o", &ltrace,
        ],
        "--policies",
    );
    rejects_option(
        &["record", "-b", "em3d", "-j", "3", "-o", &ltrace],
        "--jobs",
    );
    // `trace-info` inspects files as they are.
    rejects_option(&["trace-info", &ltrace, "-n", "8", "-p", "ltp"], "--nodes");
    // The model checker enumerates interleavings; it runs no sweep.
    rejects_option(&["check", "-j", "2"], "--jobs");

    assert!(!dir.join("f.jsonl").exists(), "no output file is written");
    assert!(!dir.join("r.ltrace").exists(), "no trace file is written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn removed_simulate_commands_are_unknown() {
    for command in ["compare", "suite", "sweep"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
            .args([command, "-b", "em3d"])
            .output()
            .expect("the ltp binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(
            lines,
            [
                format!("error: unknown command `{command}`").as_str(),
                "run 'ltp help' for usage"
            ],
            "{command}"
        );
        assert!(out.stdout.is_empty(), "{command} prints nothing to stdout");
    }
}

#[test]
fn a_run_of_several_prints_a_table_with_speedup_over_base() {
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["run", "-b", "em3d", "-p", "base,ltp", "-n", "4", "-i", "1"])
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "a header and two rows:\n{stdout}");
    assert!(lines[0].starts_with("benchmark"), "{stdout}");
    assert!(lines[0].trim_end().ends_with("speedup"), "{stdout}");
    assert!(lines[1].starts_with("em3d") && lines[1].contains(" base "));
    assert!(lines[1].trim_end().ends_with(" 1.000"), "{stdout}");
}

#[test]
fn a_stuck_run_exits_1_with_its_diagnosis() {
    // Both nodes take lock B7 and never release it: the winner finishes
    // holding it, and the other spins on it until the cycle horizon.
    let dir = std::env::temp_dir().join(format!("ltp-cli-stuck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, jsonl) = (dir.join("held.ltrace"), dir.join("runs.jsonl"));
    let lock = Lock::library(BlockId::new(7), 0x100);
    let params = WorkloadParams {
        nodes: 2,
        ..WorkloadParams::default()
    };
    let mut writer = TraceWriter::new("held", params);
    writer.push(0, Op::Lock(lock));
    writer.push(1, Op::Think(100));
    writer.push(1, Op::Lock(lock));
    writer.finish().save(&trace).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["run", "-b", "em3d", "-n", "4", "-i", "1", "--trace"])
        .arg(&trace)
        .args(["-p", "base", "-j", "1", "--json-lines"])
        .arg(&jsonl)
        .output()
        .expect("the ltp binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error:"), "stderr: {stderr}");
    assert!(stderr.contains("lock-spin"), "stderr: {stderr}");
    // The winner finished inside its critical section: it is named, and
    // still counted as finished.
    assert!(
        stderr.contains("holds-lock (finished holding lock block B7)"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("(1 of 2 nodes finished)"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // The em3d run precedes the stuck one in run order, so it is recorded.
    let lines = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = lines.lines().collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with(r#"{"run":0,"benchmark":"em3d","#),
        "{lines:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `ltp` with `args` and requires a clean failure: exit 1, exactly
/// one `error:` line, and no Rust panic. Returns stderr.
fn fails_cleanly(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(args)
        .output()
        .expect("the ltp binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{args:?}: {stderr}"
    );
    stderr
}

#[test]
fn a_directory_wider_than_the_machine_exits_1() {
    let dir = std::env::temp_dir().join(format!("ltp-cli-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("em3d4.ltrace").display().to_string();
    let store = dir.join("store").display().to_string();
    let recorded = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["record", "-b", "em3d", "-n", "4", "-i", "1", "-o", &trace])
        .output()
        .expect("the ltp binary runs");
    assert!(recorded.status.success());

    let stderr = fails_cleanly(&[
        "run", "-b", "em3d", "-n", "4", "-i", "1", "-p", "ltp", "-d", "ptr:9",
    ]);
    assert!(stderr.contains("ptr:9 on 4 nodes"), "{stderr}");
    // A trace replays at its recorded 4 nodes, whatever the default is.
    let stderr = fails_cleanly(&["run", "-t", &trace, "-p", "ltp", "-d", "coarse:8"]);
    assert!(stderr.contains("coarse:8 on 4 nodes"), "{stderr}");
    let stderr = fails_cleanly(&[
        "campaign", "-b", "em3d", "-n", "4", "-i", "1", "-p", "ltp", "-d", "ptr:9", "-o", &store,
    ]);
    assert!(stderr.contains("ptr:9 on 4 nodes"), "{stderr}");
    assert!(!dir.join("store").exists(), "no store directory is created");
    let stderr = fails_cleanly(&["check", "-d", "ptr:3", "-n", "2", "--ops", "1"]);
    assert!(stderr.contains("ptr:3 on 2 nodes"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_report_over_a_missing_store_exits_1_and_creates_nothing() {
    let missing = std::env::temp_dir().join(format!("ltp-cli-report-{}", std::process::id()));
    let stderr = fails_cleanly(&["report", &missing.display().to_string()]);
    assert!(stderr.contains("not a campaign store"), "{stderr}");
    assert!(!missing.exists(), "the store path is not created");
}

/// The committed 4-node, 3-iteration em3d recording at the default seed.
fn fixture() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/em3d-4node-3iter.v1.ltrace"
    )
    .to_string()
}

#[test]
fn a_trace_only_invocation_rejects_a_conflicting_iters_or_seed() {
    let trace = fixture();
    let dir = std::env::temp_dir().join(format!("ltp-cli-geometry-{}", std::process::id()));
    let (store, out) = (dir.join("store"), dir.join("out.ltrace"));
    let (store, out) = (store.to_str().unwrap(), out.to_str().unwrap());
    for (args, flag) in [
        (
            vec!["run", "-t", &trace, "-p", "ltp", "-i", "5"],
            "--iters 5",
        ),
        (
            vec!["run", "-t", &trace, "-p", "ltp", "-s", "7"],
            "--seed 0x7",
        ),
        (vec!["predict", "-t", &trace, "-i", "9"], "--iters 9"),
        (
            vec![
                "campaign", "-t", &trace, "-p", "ltp", "-i", "5", "-o", store,
            ],
            "--iters 5",
        ),
        (
            vec!["record", "-t", &trace, "-s", "7", "-o", out],
            "--seed 0x7",
        ),
    ] {
        let stderr = fails_cleanly(&args);
        assert!(
            stderr.contains(&format!("{flag} does not apply")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!dir.exists(), "no store or trace file is written");
    // Values equal to the recording's are accepted.
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["run", "-t", &trace, "-p", "base", "-n", "4", "-i", "3"])
        .args(["-s", "0x15CA2000", "--quiet"])
        .output()
        .expect("the ltp binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn record_takes_exactly_one_workload_at_its_geometry() {
    let trace = fixture();
    let out = std::env::temp_dir().join(format!("ltp-cli-record-{}.ltrace", std::process::id()));
    let out = out.to_str().unwrap();
    let stderr = fails_cleanly(&["record", "-b", "em3d", "-t", &trace, "-o", out]);
    assert!(stderr.contains("exactly one workload"), "{stderr}");
    let stderr = fails_cleanly(&["record", "-t", &trace, "-n", "8", "-o", out]);
    assert!(stderr.contains("--nodes 8 does not apply"), "{stderr}");
    assert!(
        !std::path::Path::new(out).exists(),
        "no trace file is written"
    );
}

#[test]
fn a_check_probe_prints_the_pass_line_and_check_is_not_an_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(["run", "-b", "em3d", "-p", "base,ltp", "-n", "4", "-i", "1"])
        .args(["--probe", "check"])
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("coherence check passed: 2 run(s), 0 violations"),
        "{stdout}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args([
            "run", "-b", "em3d", "-p", "ltp", "-n", "4", "-i", "1", "--check",
        ])
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown option `--check`"),
        "{stderr}"
    );
}

#[test]
fn a_campaign_with_a_check_probe_reports_its_verdict() {
    let dir = std::env::temp_dir().join(format!("ltp-cli-campaign-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.display().to_string();
    let campaign = [
        "campaign", "-b", "em3d", "-p", "ltp", "-n", "4", "-i", "2", "--probe", "check", "-o",
        &store,
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args(campaign)
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("coherence check passed: 1 run(s), 0 violations"),
        "{stdout}"
    );

    // The verdict reads the store, so a resumed campaign that executes
    // nothing still fails on a stored violation.
    let runs: Vec<_> = std::fs::read_dir(dir.join("runs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(runs.len(), 1);
    let doc = std::fs::read_to_string(&runs[0]).unwrap();
    assert!(doc.contains(r#""violations":0"#), "{doc}");
    std::fs::write(
        &runs[0],
        doc.replace(r#""violations":0"#, r#""violations":2"#),
    )
    .unwrap();
    let stderr = fails_cleanly(&[&campaign[..], &["--resume"]].concat());
    assert!(
        stderr.contains("coherence check failed: 2 violation(s)"),
        "{stderr}"
    );
    assert!(stderr.contains("em3d / ltp:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_lists_every_option_spelling() {
    let spellings: Vec<&str> = options_table()
        .into_iter()
        .flat_map(|(names, _)| names)
        .collect();
    assert!(spellings.len() > 20, "{spellings:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .arg("help")
        .output()
        .expect("the ltp binary runs");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let words: Vec<&str> = help
        .split(|c: char| c.is_whitespace() || c == ',' || c == '(' || c == ')')
        .collect();
    for spelling in spellings {
        assert!(words.contains(&spelling), "`ltp help` misses {spelling}");
    }
    assert!(!words.contains(&"--check"), "{help}");
}

/// The OPTIONS table of the binary's source as `(spellings, commands)`
/// pairs: the first and third arguments of each `opt(...)` entry, the
/// canonical long name first.
fn options_table() -> Vec<(Vec<&'static str>, Vec<&'static str>)> {
    let source = include_str!("../src/main.rs");
    let table = source
        .split_once("const OPTIONS: &[OptionSpec] = &[")
        .and_then(|(_, rest)| rest.split_once("\n];"))
        .expect("the OPTIONS table")
        .0;
    table
        .split("opt(\"")
        .skip(1)
        .map(|entry| {
            // `names", "value", "commands", "help…`
            let fields: Vec<&str> = entry.split('"').collect();
            (
                fields[0].split(' ').collect(),
                fields[4].split(',').collect(),
            )
        })
        .collect()
}

#[test]
fn manual_section_3_matches_the_options_table() {
    let manual = include_str!("../docs/manual.md");
    let section = manual
        .split_once("## 3. Shared options")
        .and_then(|(_, rest)| rest.split_once("\n## 4."))
        .expect("manual §3")
        .0;
    // Each table row names one or more options (`-b, --benchmarks
    // <names>`, `--resume`, `--dry-run`) and the commands they apply to.
    let mut manual_rows: Vec<(&str, Vec<&str>)> = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        // Cells split on ` | `; the pipe escaped inside `<N\|auto>` has
        // no spaces around it.
        let cells: Vec<&str> = row.split(" | ").map(str::trim).collect();
        let (option, applies) = (cells[0].trim_start_matches("| "), cells[1]);
        let mut commands: Vec<&str> = applies.split(", ").collect();
        commands.sort_unstable();
        for name in option
            .split(|c: char| c == '`' || c == ',' || c.is_whitespace())
            .filter(|w| w.starts_with("--"))
        {
            manual_rows.push((name, commands.clone()));
        }
    }
    let table = options_table();
    assert!(table.len() > 15, "{table:?}");
    assert_eq!(manual_rows.len(), table.len(), "{manual_rows:?}");
    for (names, mut commands) in table {
        commands.sort_unstable();
        let name = names[0];
        let row = manual_rows.iter().find(|(n, _)| *n == name);
        let (_, documented) = row.unwrap_or_else(|| panic!("manual §3 lacks {name}"));
        assert_eq!(
            documented, &commands,
            "manual §3 and OPTIONS disagree on where {name} applies"
        );
    }
}
