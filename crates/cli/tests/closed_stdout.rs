//! `rto-cli` run with its stdout reader already gone: the report's
//! write fails with `BrokenPipe`, and the run must end quietly with
//! status 0 rather than panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_reader_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rto-cli"))
        .args([
            "sweep",
            "--horizon",
            "1",
            "--seeds",
            "1",
            "--jobs",
            "1",
            "--json",
        ])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("rto-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
}
