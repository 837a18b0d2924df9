//! `l2q-client` output piped into a reader that exits early (`| head`,
//! `| grep -q`) must end the client quietly with success, not a panic.

#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

#[test]
fn client_exits_cleanly_when_its_reader_hangs_up() {
    // Stdout is a socket whose peer is already closed, so the first write
    // fails with EPIPE — no race against a reader exiting at its own pace.
    let (reader, writer) = UnixStream::pair().expect("socket pair");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_l2q-client"))
        .arg("--help")
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .stderr(Stdio::piped())
        .output()
        .expect("run l2q-client");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
