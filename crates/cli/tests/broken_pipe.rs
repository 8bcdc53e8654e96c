//! `wrt … | head` must end cleanly: a reader that hangs up before the
//! output is complete is not a crash.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closing_stdout_early_is_a_clean_exit() {
    // ~20k netlist lines: far more than a pipe buffers, so the writer is
    // still mid-output when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_wrt"))
        .args(["generate", "--gates", "20000", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("wrt spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line arrives");
    // The reader (and with it the pipe's read end) is dropped here.
    let output = child.wait_with_output().expect("wrt exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!first.is_empty(), "the first line was written");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "exit {:?}: {stderr}", output.status);
}
