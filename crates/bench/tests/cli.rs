//! The binaries' command-line contract: a misconfiguration exits with
//! status 2 before anything runs, and `--threads` changes no output.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not run {bin}: {e}"))
}

#[test]
fn misconfigurations_exit_with_status_2() {
    let exp = env!("CARGO_BIN_EXE_exp");
    let throughput = env!("CARGO_BIN_EXE_exp_throughput");
    for (bin, args) in [
        (exp, &["--threads", "0", "table1"][..]),
        (exp, &["--threads", "x", "table1"]),
        (exp, &["--thread", "2", "table1"]),
        (exp, &["--threads", "2", "--threads", "8", "table1"]),
        (throughput, &[]),
        (throughput, &["--stream", "--crowded"]),
        (throughput, &["--threads", "2", "--stream"]),
    ] {
        let out = run(bin, args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran something");
    }
    // A bare `exp_throughput` names the modes it can run.
    let bare = run(throughput, &[]);
    let usage = String::from_utf8_lossy(&bare.stderr);
    for mode in ["--stream", "--crowded", "--check-stream-archive"] {
        assert!(usage.contains(mode), "usage lacks {mode}: {usage}");
    }
}

#[test]
fn thread_count_changes_no_table() {
    let exp = env!("CARGO_BIN_EXE_exp");
    for table in ["table1", "table5"] {
        let one = run(exp, &["--threads", "1", table]);
        let two = run(exp, &["--threads", "2", table]);
        assert!(one.status.success() && two.status.success(), "{table}");
        assert!(!one.stdout.is_empty(), "{table} printed nothing");
        assert_eq!(one.stdout, two.stdout, "{table} differs at 2 threads");
    }
}
