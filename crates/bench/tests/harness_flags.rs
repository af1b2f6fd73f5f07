//! Command-line validation of the harness binaries: a flag value the
//! supervision envelope cannot hold is a usage error (exit 2), reported
//! before any measurement starts.

use std::process::Command;

#[test]
fn infinite_run_budget_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_error_summary"))
        .args(["--quick", "--backend", "flow", "--no-bench-json"])
        .args(["--run-budget", "inf"])
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--run-budget"));
}
