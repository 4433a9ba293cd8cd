//! The `repro` command line: an unknown flag is a usage error (exit 2,
//! the flag named on stderr), and every spelling of help exits 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        ["mc", "--compare-pruning"],
        ["certify", "--frobnicate"],
        ["table1", "--nonsense"],
    ] {
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(args[1]),
            "repro {args:?} must name the flag: {stderr}"
        );
    }
}

#[test]
fn help_exits_zero() {
    for arg in ["help", "--help", "-h"] {
        let out = repro(&[arg]);
        assert_eq!(out.status.code(), Some(0), "repro {arg}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("subcommands:"));
    }
}
