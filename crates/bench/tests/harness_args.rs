//! Every harness binary refuses a positional argument that does not
//! parse: it exits 2 with its usage line before running anything, so a
//! mistyped gate fails the run instead of falling back to a default.

use std::process::Command;

#[test]
fn a_harness_refuses_an_argument_that_does_not_parse() {
    for (name, binary) in [
        ("chaos", env!("CARGO_BIN_EXE_chaos")),
        ("fleet", env!("CARGO_BIN_EXE_fleet")),
        ("scaling", env!("CARGO_BIN_EXE_scaling")),
        ("throughput", env!("CARGO_BIN_EXE_throughput")),
        ("v2x", env!("CARGO_BIN_EXE_v2x")),
    ] {
        let out = Command::new(binary).args(["1", "2x"]).output().expect("the harness starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(&format!("usage: {name} [")), "{name}: {stderr}");
    }
}
