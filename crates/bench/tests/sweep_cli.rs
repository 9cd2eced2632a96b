//! The `figures` and `ablations` binaries refuse a command line they
//! cannot honour: an unknown id (before or after `--runs N`) or a `--runs`
//! value that is not a positive count exits 2, naming the argument, before
//! any sweep runs or any CSV is written.

use std::process::Command;

fn assert_refused(bin: &str, args: &[&str], named: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?} must name {named}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn figures_rejects_unknown_ids_and_bad_run_counts() {
    let bin = env!("CARGO_BIN_EXE_figures");
    assert_refused(bin, &["fig99"], "\"fig99\"");
    assert_refused(bin, &["fig08", "--runs", "4", "fig18x"], "\"fig18x\"");
    assert_refused(bin, &["fig08", "--runs", "four"], "\"four\"");
}

#[test]
fn ablations_rejects_unknown_ids_and_bad_run_counts() {
    let bin = env!("CARGO_BIN_EXE_ablations");
    assert_refused(bin, &["impairment"], "\"impairment\"");
    assert_refused(bin, &["--runs", "4", "latencyy"], "\"latencyy\"");
    assert_refused(bin, &["latency", "--runs", "0"], "\"0\"");
}
