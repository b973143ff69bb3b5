//! The `ltp` binary's error surface: a bad invocation exits 1 with a short
//! message on stderr, not the full usage text.

use std::process::Command;

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

    // `suite` always runs the whole suite; a `-b` there was dropped.
    rejects_option(
        &["suite", "-p", "base", "-b", "em3d", "--json-lines", &jsonl],
        "--benchmarks",
    );
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
    rejects_option(&["check", "--exhaustive", "-j", "2"], "--jobs");

    assert!(!dir.join("f.jsonl").exists(), "no output file is written");
    assert!(!dir.join("r.ltrace").exists(), "no trace file is written");
    std::fs::remove_dir_all(&dir).unwrap();
}
