//! `repro` refuses a valued flag with a missing or malformed value:
//! exit 2, the flag's name and the usage on stderr, and no panic.

use std::process::Command;

fn refused(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?} does not name {flag}: {stderr}"
    );
    assert!(
        stderr.contains("usage: repro"),
        "{args:?} prints no usage: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_trailing_flag_without_its_value_exits_2() {
    refused(&["fig19", "--seed"], "--seed");
    refused(&["fig19", "--fast", "--resume"], "--resume");
}

#[test]
fn a_malformed_value_exits_2() {
    refused(&["--threads", "abc"], "--threads");
    refused(&["fig19", "--hosts", "-3"], "--hosts");
    refused(
        &["bench-check", "--tolerance-pct", "ten"],
        "--tolerance-pct",
    );
}
