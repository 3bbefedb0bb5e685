//! The `carat-cli sim --metrics` exit path for a cadence that would
//! schedule more samples than the recorder may hold: a structured
//! configuration error and exit code 2, not an allocation abort.

use std::process::Command;

#[test]
fn a_tiny_metrics_cadence_exits_2_with_a_config_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_carat-cli"))
        .args([
            "sim",
            "--workload",
            "lb8",
            "--n",
            "8",
            "--measure-s",
            "60",
            "--metrics",
            "0.0001",
        ])
        .output()
        .expect("carat-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: invalid configuration: invalid metrics.sample_ms"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report for a rejected run");
}
