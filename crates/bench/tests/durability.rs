//! Durability gates for the campaign runtime:
//!
//! * a campaign SIGKILLed mid-flight and rerun with `--resume` produces
//!   a byte-identical final document;
//! * a second `--resume` run replays every cell from the journal;
//! * an unwritable checkpoint directory costs only the cache, with a
//!   one-line diagnostic instead of failing the run;
//! * an unwritable output directory fails `cs-bench` with a diagnostic.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::{canonical_json, run_suite, SuiteOptions};
use cleanupspec_obs::JsonValue;
use cleanupspec_workloads::spec::SPEC_WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cs_bench_cmd(out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cs-bench"));
    cmd.args([
        "--modes",
        "cleanupspec",
        "--workloads",
        "gcc,mcf,lbm",
        "--insts",
        "6000",
        "--threads",
        "2",
        "--out",
    ])
    .arg(out)
    .args(extra)
    // The suite must not pick up ambient caches or thread overrides:
    // the test pins its own sizing.
    .env_remove("CLEANUPSPEC_CHECKPOINT_DIR")
    .env_remove("CLEANUPSPEC_THREADS");
    cmd
}

fn canonical_doc(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = JsonValue::parse(&text).expect("BENCH document parses");
    canonical_json(&doc)
}

/// The headline acceptance test: SIGKILL a campaign mid-flight, resume
/// it, and demand the final document be byte-identical (canonicalized —
/// host wall-clock fields are legitimately nondeterministic) to an
/// uninterrupted run's.
#[test]
fn sigkill_mid_campaign_then_resume_matches_uninterrupted_run() {
    let work = scratch("kill-resume");
    std::fs::create_dir_all(&work).unwrap();
    let baseline = work.join("baseline.json");
    let resumed = work.join("resumed.json");
    let jdir = work.join("campaign");

    // Uninterrupted reference run (no journal).
    let out = cs_bench_cmd(&baseline, &[])
        .output()
        .expect("spawn cs-bench");
    assert!(
        out.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Interrupted run: wait for the journal to hold at least one
    // completed task (line 1 is the campaign header), then SIGKILL.
    let jdir_arg = jdir.to_string_lossy().into_owned();
    let mut child = cs_bench_cmd(&resumed, &["--resume", &jdir_arg])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cs-bench");
    let journal_file = jdir.join("journal.csj");
    let mut killed_midway = false;
    for _ in 0..600 {
        if let Some(_status) = child.try_wait().expect("try_wait") {
            break; // Finished before we could kill it; resume still must work.
        }
        let tasks = std::fs::read_to_string(&journal_file)
            .map(|t| t.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if tasks >= 1 {
            child.kill().expect("SIGKILL");
            killed_midway = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.wait();

    // Resume to completion.
    let output = cs_bench_cmd(&resumed, &["--resume", &jdir_arg])
        .output()
        .expect("spawn cs-bench");
    assert!(
        output.status.success(),
        "resumed run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("resuming from"),
        "resume preflight notice missing: {stderr}"
    );
    if killed_midway {
        assert!(
            stderr.contains("replayed from the campaign journal"),
            "no cells were replayed after a mid-flight kill: {stderr}"
        );
    }
    assert_eq!(
        canonical_doc(&baseline),
        canonical_doc(&resumed),
        "resumed document differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// In-process double-run: the second suite over the same journal replays
/// every cell and produces a canonically identical document.
#[test]
fn second_suite_run_replays_every_cell_from_the_journal() {
    let jdir = scratch("double-run");
    let workloads: Vec<_> = SPEC_WORKLOADS
        .iter()
        .filter(|w| w.name == "gcc" || w.name == "mcf")
        .cloned()
        .collect();
    let mut opts = SuiteOptions::new(&[SecurityMode::CleanupSpec], &workloads);
    opts.cfg.insts = 4_000;
    opts.cfg.threads = 2;
    opts.resume_dir = Some(jdir.clone());
    let first = run_suite(&opts);
    assert_eq!(first.resumed, 0);
    let second = run_suite(&opts);
    // 2 modes (NonSecure forced in) x 2 workloads.
    assert_eq!(second.resumed, 4, "second run must replay every cell");
    let a = canonical_json(&JsonValue::parse(&first.report.to_json()).unwrap());
    let b = canonical_json(&JsonValue::parse(&second.report.to_json()).unwrap());
    assert_eq!(a, b, "replayed document differs");
    let _ = std::fs::remove_dir_all(&jdir);
}

/// An unwritable checkpoint directory must not fail the run: one
/// diagnostic line, results simply not cached, exit 0.
#[test]
fn unwritable_checkpoint_dir_degrades_with_a_diagnostic() {
    let work = scratch("ro-ckpt");
    std::fs::create_dir_all(&work).unwrap();
    // A regular file where a directory is expected blocks every write
    // beneath it — works even when the test runs as root, unlike
    // permission bits.
    let blocker = work.join("blocked");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let ckpt = blocker.join("ckpt");
    let out = work.join("BENCH.json");
    let output = Command::new(env!("CARGO_BIN_EXE_cs-bench"))
        .args([
            "--modes",
            "cleanupspec",
            "--workloads",
            "gcc",
            "--insts",
            "4000",
        ])
        .args(["--threads", "2", "--out"])
        .arg(&out)
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .env_remove("CLEANUPSPEC_CHECKPOINT_DIR")
        .env_remove("CLEANUPSPEC_THREADS")
        .output()
        .expect("spawn cs-bench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "run must succeed despite the unwritable checkpoint dir: {stderr}"
    );
    assert!(
        stderr.contains("unwritable"),
        "expected the one-line degradation diagnostic, got: {stderr}"
    );
    assert!(out.exists(), "BENCH document must still be written");
    let _ = std::fs::remove_dir_all(&work);
}

/// An unwritable output directory must fail the run with a diagnostic:
/// the BENCH document is the run's product.
#[test]
fn unwritable_out_dir_fails_cs_bench() {
    let work = scratch("ro-out");
    std::fs::create_dir_all(&work).unwrap();
    let blocker = work.join("blocked");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let output = cs_bench_cmd(&blocker.join("BENCH.json"), &[])
        .output()
        .expect("spawn cs-bench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "run must fail when its document cannot be written: {stderr}"
    );
    assert!(
        stderr.contains("cannot write"),
        "expected the write diagnostic, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&work);
}
