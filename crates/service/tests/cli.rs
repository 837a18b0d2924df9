//! `l2q-serve` and `l2q-client` refuse a command line they do not
//! understand before doing any work: a misspelled flag must not start a
//! server that silently runs without it.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args`, failing the test if it is still running after
/// 20 s (a binary that ignores an unknown flag goes on to serve).
fn run_bounded(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            let out = child.wait_with_output().expect("reap");
            panic!(
                "{args:?} still running after 20 s; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

/// Asserts `bin args` exits non-zero without serving and says `needle`
/// on stderr.
fn assert_refused(bin: &str, args: &[&str], needle: &str) {
    let out = run_bounded(bin, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0; stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr lacks {needle}: {stderr}"
    );
    assert!(
        !stdout.contains("listening on"),
        "{args:?} served: {stdout}"
    );
    assert!(!stderr.contains("building corpus"), "{args:?}: {stderr}");
}

#[test]
fn serve_refuses_an_unknown_flag_and_fsync_without_a_data_dir() {
    let serve = env!("CARGO_BIN_EXE_l2q-serve");
    assert_refused(
        serve,
        &["--port", "0", "--data-dri", "harvests"],
        "'--data-dri'",
    );
    assert_refused(
        serve,
        &["--port", "0", "--fsync", "always"],
        "--fsync needs --data-dir",
    );
}

#[test]
fn client_refuses_an_unknown_flag_before_connecting() {
    assert_refused(
        env!("CARGO_BIN_EXE_l2q-client"),
        &[
            "--addr",
            "127.0.0.1:1",
            "step",
            "--session",
            "1",
            "--step",
            "5",
        ],
        "'--step'",
    );
}
