//! The linter's own gates: the real workspace must scan clean (all five
//! rules running), and the seeded fixture violation must be caught —
//! proving the rules actually fire, not that the scanner is inert.

use std::path::{Path, PathBuf};
use svsim_verify::lint::{run, Severity};

fn repo_root() -> PathBuf {
    // crates/verify -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_scans_clean_with_all_rules() {
    let report = run(&repo_root()).expect("lint scan");
    for f in &report.findings {
        eprintln!("{f}");
    }
    assert_eq!(report.errors(), 0, "workspace must lint clean");
    assert_eq!(
        report.warnings(),
        0,
        "workspace must lint clean under --deny-warnings"
    );
    for rule in [
        "unsafe-confined",
        "safety-comment",
        "ffi-confined",
        "accessor-manifest",
        "retryable-exhaustive",
    ] {
        assert!(
            report.rules_run.contains(&rule),
            "rule {rule} did not run on the workspace"
        );
    }
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn seeded_fixture_violations_are_caught() {
    let fixture = repo_root().join("crates/verify/fixtures/lint_violation");
    let report = run(&fixture).expect("fixture scan");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&"unsafe-confined"),
        "fixture unsafe not flagged: {rules:?}"
    );
    assert!(
        rules.contains(&"ffi-confined"),
        "fixture extern \"C\" not flagged: {rules:?}"
    );
    // The `shmem_ptr` accessor may be called from the partitioned executor
    // and from nowhere else in the core crate.
    let flagged = |file: &str| {
        report
            .findings
            .iter()
            .any(|f| f.file == file && f.rule == "unsafe-confined")
    };
    assert!(
        flagged("crates/core/src/view.rs"),
        "`as_cells` outside exec.rs not flagged: {:?}",
        report.findings
    );
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file == "crates/core/src/exec.rs"),
        "the allowlisted call site must pass"
    );
    // The kernel layer may hold its one `unsafe` call, but not without the
    // SAFETY comment that names the detection above it.
    let unjustified: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/core/src/kernels.rs")
        .collect();
    assert!(
        unjustified.len() == 1
            && unjustified[0].rule == "safety-comment"
            && unjustified[0].severity == Severity::Warning,
        "`unsafe` without SAFETY in kernels.rs not flagged (once, by R2): {unjustified:?}"
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.severity == Severity::Error || f.rule == "safety-comment"),
        "every other fixture violation must be an error"
    );
}
