//! Process-level campaign resume: SIGKILL the `ltp campaign` CLI
//! mid-flight, resume it, and require the final store — manifest,
//! aggregate, and every generated report artifact — to be byte-identical
//! to an uninterrupted campaign's.
//!
//! The thread-level abort path (a panicking worker inside one process) is
//! covered by the `ltp-system` unit tests; this test kills the whole
//! process so nothing gets to unwind, which is the crash the fsync'd
//! checkpoint discipline exists for.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The campaign under test: the full suite × {base, ltp} at one small
/// geometry, serial (`-j 1`) so checkpoints land one at a time and the
/// kill window is wide.
const CAMPAIGN_ARGS: &[&str] = &[
    "campaign", "-b", "all", "-p", "base,ltp", "-n", "8", "-i", "4", "-j", "1",
];
const TOTAL_RUNS: usize = 18;

fn ltp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ltp"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltp-campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Complete (newline-terminated) manifest run lines — the checkpoints a
/// resume will trust. A torn trailing line from the kill is not counted,
/// matching the store's own recovery rule.
fn checkpointed(dir: &Path) -> usize {
    let Ok(text) = fs::read_to_string(dir.join("manifest.jsonl")) else {
        return 0;
    };
    let complete = match text.rfind('\n') {
        Some(i) => &text[..=i],
        None => "",
    };
    complete.lines().skip(1).filter(|l| !l.is_empty()).count()
}

#[test]
fn killed_campaign_resumes_to_a_byte_identical_store() {
    let interrupted = tmp_dir("killed");
    let clean = tmp_dir("clean");

    // Launch, wait for at least two durable checkpoints, then SIGKILL.
    let mut child = ltp()
        .args(CAMPAIGN_ARGS)
        .arg("-o")
        .arg(&interrupted)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("campaign child spawns");
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut finished_early = false;
    loop {
        if checkpointed(&interrupted) >= 2 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // The whole campaign beat us to the finish line; the test
            // degrades to resume-skips-everything, which must still be
            // byte-identical.
            assert!(status.success(), "campaign child failed: {status}");
            finished_early = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no campaign checkpoint appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    if !finished_early {
        child.kill().expect("kill campaign child");
    }
    let _ = child.wait();

    let done_before = checkpointed(&interrupted);
    assert!(done_before >= 2, "kill landed before any checkpoint");

    // Resume. Completed runs are skipped — verified by the run counts the
    // driver prints — and the remainder executes.
    let resumed = ltp()
        .args(CAMPAIGN_ARGS)
        .arg("-o")
        .arg(&interrupted)
        .arg("--resume")
        .output()
        .expect("resume runs");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let expected = format!(
        "{} executed, {} skipped (already stored)",
        TOTAL_RUNS - done_before,
        done_before
    );
    assert!(
        stdout.contains(&expected),
        "resume counts wrong: wanted `{expected}` in:\n{stdout}"
    );

    // The uninterrupted reference campaign.
    let reference = ltp()
        .args(CAMPAIGN_ARGS)
        .arg("-o")
        .arg(&clean)
        .output()
        .expect("clean campaign runs");
    assert!(
        reference.status.success(),
        "clean campaign failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Byte-identical store: canonicalized manifest and final aggregate.
    for file in ["manifest.jsonl", "campaign.jsonl"] {
        let a = fs::read(interrupted.join(file)).expect(file);
        let b = fs::read(clean.join(file)).expect(file);
        assert_eq!(a, b, "{file} differs between resumed and clean campaigns");
    }

    // Byte-identical artifacts: `ltp report` over either store.
    for dir in [&interrupted, &clean] {
        let report = ltp()
            .arg("report")
            .arg(dir)
            .arg("--quiet")
            .status()
            .expect("report runs");
        assert!(report.success(), "report failed for {}", dir.display());
    }
    for stem in ["fig1", "fig2", "fig6", "fig7", "fig9", "t2", "t3", "t4"] {
        for ext in ["md", "json"] {
            let file = format!("reports/{stem}.{ext}");
            let a = fs::read(interrupted.join(&file)).expect(&file);
            let b = fs::read(clean.join(&file)).expect(&file);
            assert_eq!(a, b, "{file} differs between resumed and clean stores");
        }
    }

    fs::remove_dir_all(&interrupted).unwrap();
    fs::remove_dir_all(&clean).unwrap();
}

#[test]
fn campaign_refuses_a_dirty_store_without_resume() {
    let dir = tmp_dir("guard");
    let args = [
        "campaign", "-b", "em3d", "-p", "base", "-n", "4", "-i", "2", "-o",
    ];
    let first = ltp()
        .args(args)
        .arg(&dir)
        .output()
        .expect("first campaign runs");
    assert!(first.status.success());
    let second = ltp()
        .args(args)
        .arg(&dir)
        .output()
        .expect("second campaign runs");
    assert!(
        !second.status.success(),
        "a non-empty store must demand --resume"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("--resume"), "unhelpful error: {stderr}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spec_file_scalars_parse_like_their_flags() {
    let dir = tmp_dir("scalar-spec");
    fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let store = dir.join("store");
    // A scalar `nodes` (and `"shards":"auto"`, as `--shards auto`) is one
    // value, not a dropped key.
    fs::write(
        &spec,
        r#"{"benchmarks":["em3d"],"policies":["base"],"nodes":16,"iterations":2,"shards":"auto"}"#,
    )
    .unwrap();
    for extra in [&["--dry-run"][..], &["--quiet"][..]] {
        let out = ltp()
            .arg("campaign")
            .arg(&spec)
            .arg("-o")
            .arg(&store)
            .args(extra)
            .output()
            .expect("campaign runs");
        assert!(
            out.status.success(),
            "campaign {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let aggregate = fs::read_to_string(store.join("campaign.jsonl")).unwrap();
    assert_eq!(aggregate.lines().count(), 1);
    assert!(
        aggregate.contains("\"nodes\":16,"),
        "the run is stored at 16 nodes: {aggregate}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
