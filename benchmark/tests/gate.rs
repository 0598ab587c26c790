//! The correctness gate on a real run of the built program: a run checked
//! against a flipped reference must count failed operations, say
//! `"correct": false` and exit non-zero; the same run with the true
//! reference passes.

use std::process::Command;

fn run(extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_svsim-benchmark"))
        .args([
            "--workload",
            "serve_mixed",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    (
        output.status.success(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

#[test]
fn flipped_reference_fails_the_run() {
    let (ok, line) = run(&["--corrupt-reference"]);
    assert!(!ok, "a run against a flipped reference must exit non-zero");
    assert!(line.contains(r#""correct": false"#), "{line}");
    assert!(!line.contains(r#""failed": 0,"#), "{line}");
}

#[test]
fn true_reference_passes_and_prints_every_end_to_end_metric() {
    let (ok, line) = run(&[]);
    assert!(ok, "{line}");
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert!(line.contains(r#""failed": 0, "metrics": {"#), "{line}");
    for name in [
        "setup_s",
        "run_ms_p50",
        "vs_single_ratio",
        "jobs_per_s",
        "small_ms_p50",
        "small_ms_p95",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!(r#""{name}": {{"value": "#)),
            "{name} missing: {line}"
        );
    }
}
