//! The `repro` command line: an unknown flag or ablation name is a usage
//! error (exit 2, the offending word named on stderr), every spelling of
//! help exits 0 without running anything, and the ablation tables print
//! their pinned bytes.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
        ["ablation", "bogus"],
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

/// Run `repro args`, killing it if it has not exited within `deadline`:
/// a subcommand that ignores `--help` and starts serving fails the test
/// instead of hanging it.
fn repro_within(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the repro binary runs");
    let start = Instant::now();
    while child.try_wait().expect("poll repro").is_none() {
        if start.elapsed() > deadline {
            child.kill().expect("kill repro");
            let out = child.wait_with_output().expect("reap repro");
            panic!(
                "repro {args:?} was still running after {deadline:?}; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("repro output")
}

#[test]
fn help_exits_zero() {
    for args in [
        &["help"][..],
        &["--help"],
        &["-h"],
        &["serve", "--help"],
        &["storm", "--help"],
        &["serve", "--addr", "127.0.0.1:0", "-h"],
    ] {
        let out = repro_within(args, Duration::from_secs(20));
        assert_eq!(out.status.code(), Some(0), "repro {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("subcommands:"), "repro {args:?}: {stdout}");
    }
}

/// `repro ablation <name>` must exit 0 and print exactly `expected`. The
/// tables were pinned from the criterion benches that printed them before
/// `repro ablation` did.
fn assert_ablation(name: &str, expected: &str) {
    let out = repro(&["ablation", name]);
    assert_eq!(out.status.code(), Some(0), "repro ablation {name}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn ablation_comm_prints_the_bandwidth_sweep() {
    assert_ablation(
        "comm",
        "\
# Ablation: dmda GFLOP/s at n = 16 vs PCI bandwidth
   bandwidth    GFLOP/s
    infinite     663.13
      16.0GB     660.50
       8.0GB     649.34
       4.0GB     639.82
       2.0GB     612.61
       1.0GB     548.46
       0.5GB     352.91
",
    );
}

#[test]
fn ablation_priorities_prints_idle_per_size() {
    assert_ablation(
        "priorities",
        "\
# Ablation: dmda (FIFO) vs dmdas (priority-sorted), GPU idle %
 tiles    dmda GF/s   dmdas GF/s  idle dmda idle dmdas
     4       115.07       119.75      54.7%      52.9%
     8       347.95       407.81      30.4%      13.1%
    12       536.10       594.53      13.1%       5.5%
    16       663.13       667.49       7.2%       2.8%
    24       781.92       809.32       2.5%       1.0%
    32       828.45       861.47       1.1%       0.5%
",
    );
}
