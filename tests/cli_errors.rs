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
