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

#[test]
fn a_campaign_cannot_tee_many_runs_into_one_trace() {
    let dir = std::env::temp_dir().join(format!("ltp-cli-campaign-{}", std::process::id()));
    let record = dir.with_extension("ltrace");
    let out = Command::new(env!("CARGO_BIN_EXE_ltp"))
        .args([
            "campaign",
            "-b",
            "em3d,ocean,tomcatv",
            "-p",
            "base,ltp",
            "-n",
            "4",
            "-i",
            "2",
        ])
        .arg("--probe")
        .arg(format!("record:{}", record.display()))
        .arg("-o")
        .arg(&dir)
        .output()
        .expect("the ltp binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exactly one run"), "stderr: {stderr}");
    assert!(
        stderr.lines().count() <= 2,
        "more than two stderr lines:\n{stderr}"
    );
    assert!(!record.exists(), "no trace file is written");
    assert!(!dir.exists(), "no store directory is created");
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
    // Node 0 takes lock B7 and never releases it; node 1 spins on it until
    // the cycle horizon.
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
