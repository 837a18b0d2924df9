//! `l2q-router` refuses a flag it does not know before binding its port:
//! a misspelled or retired flag must not start a router that silently
//! runs without it.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn router_refuses_an_unknown_flag() {
    let args = [
        "--port",
        "0",
        "--shard",
        "alpha=127.0.0.1:1",
        "--fail-threshold",
        "9",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_l2q-router"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // A router that ignores the flag goes on to serve: fail, not hang.
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("l2q-router {args:?} still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stderr: {stderr}");
    assert!(stderr.contains("'--fail-threshold'"), "stderr: {stderr}");
    assert!(!stdout.contains("listening on"), "stdout: {stdout}");
}
