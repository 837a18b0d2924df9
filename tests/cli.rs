//! `l2q` refuses a flag it does not know before building a corpus: a
//! misspelled `--queries` must not run a harvest with the default budget.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn harvest_refuses_an_unknown_flag() {
    let args = [
        "harvest",
        "--domain",
        "researchers",
        "--entity",
        "3",
        "--aspect",
        "RESEARCH",
        "--entities",
        "12",
        "--pages",
        "5",
        "--querys",
        "5",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_l2q"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("l2q {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stdout: {stdout}");
    assert!(stderr.contains("'--querys'"), "stderr: {stderr}");
    assert!(!stdout.contains("harvesting"), "stdout: {stdout}");
}
