//! OpenQASM-to-results integration: programs enter as text and leave as
//! measurement statistics, crossing every layer of the stack.

use sv_sim::core::{SimConfig, Simulator};
use sv_sim::qasm::parse_circuit;

#[test]
fn bernstein_vazirani_from_qasm_text() {
    // Hand-written BV with secret 101.
    let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[3];
x q[3]; h q[3];
h q[0]; h q[1]; h q[2];
cx q[0], q[3];
cx q[2], q[3];
h q[0]; h q[1]; h q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"#;
    let circuit = parse_circuit(src).unwrap();
    let mut sim = Simulator::new(
        4,
        SimConfig {
            seed: 3,
            ..SimConfig::single_device()
        },
    )
    .unwrap();
    let summary = sim.run(&circuit).unwrap();
    assert_eq!(summary.cbits, 0b101);
}

#[test]
fn qasm_matches_builder_circuit() {
    // The same QFT written in QASM and via the workloads generator must
    // produce identical states.
    let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n");
    for i in 0..4u32 {
        src.push_str(&format!("h q[{i}];\n"));
        for j in i + 1..4 {
            let denom = 1u32 << (j - i);
            src.push_str(&format!("cu1(pi/{denom}) q[{j}], q[{i}];\n"));
        }
    }
    src.push_str("swap q[0], q[3];\nswap q[1], q[2];\n");
    let from_qasm = parse_circuit(&src).unwrap();
    let from_builder = sv_sim::workloads::algos::qft(4).unwrap();

    let mut sim_a = Simulator::new(4, SimConfig::single_device()).unwrap();
    sim_a.run(&from_qasm).unwrap();
    let mut sim_b = Simulator::new(4, SimConfig::single_device()).unwrap();
    sim_b.run(&from_builder).unwrap();
    assert!(sim_a.state().max_diff(sim_b.state()) < 1e-12);
}

#[test]
fn user_gates_and_conditionals_survive_the_distributed_backend() {
    let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[1];
gate bell a, b { h a; cx a, b; }
bell q[0], q[1];
measure q[0] -> c[0];
if (c == 1) x q[2];
"#;
    let circuit = parse_circuit(src).unwrap();
    for seed in 0..8u64 {
        let mut sim = Simulator::new(
            3,
            SimConfig {
                seed,
                ..SimConfig::scale_out(4)
            },
        )
        .unwrap();
        let summary = sim.run(&circuit).unwrap();
        // q[2] must track the measured bit exactly.
        let p2 = sv_sim::core::measure::prob_one(sim.state(), 2);
        if summary.cbits == 1 {
            assert!((p2 - 1.0).abs() < 1e-9);
        } else {
            assert!(p2 < 1e-9);
        }
    }
}

#[test]
fn roundtrip_display_reparses() {
    // Circuit::Display emits QASM-like text for gates; build a circuit,
    // print it, wrap with headers, re-parse, and compare.
    let circuit = sv_sim::workloads::algos::ghz(5).unwrap();
    let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n");
    for line in circuit.to_string().lines().skip(1) {
        src.push_str(line);
        src.push('\n');
    }
    let reparsed = parse_circuit(&src).unwrap();
    let mut sim_a = Simulator::new(5, SimConfig::single_device()).unwrap();
    sim_a.run(&circuit).unwrap();
    let mut sim_b = Simulator::new(5, SimConfig::single_device()).unwrap();
    sim_b.run(&reparsed).unwrap();
    assert!(sim_a.state().max_diff(sim_b.state()) < 1e-12);
}

#[test]
fn parse_errors_carry_locations() {
    let err = parse_circuit("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("frobnicate"), "got: {msg}");
}

#[test]
fn replayed_qasm_parse_hits_the_engine_plan_cache() {
    // A service that re-parses the same QASM source per request submits
    // equal-but-distinct Arc<Circuit>s. The compile stage's plan cache
    // keys structurally, so the second parse must HIT; a one-gate edit
    // must MISS and recompile.
    use std::sync::Arc;
    use sv_sim::engine::{Engine, EngineConfig, JobOutput, JobRequest, JobSpec};

    let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0]; cx q[0], q[1]; t q[2]; cx q[2], q[3]; h q[3];
"#;
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let config = SimConfig {
        seed: 5,
        ..SimConfig::single_device()
    };
    let run = |source: &str| {
        let circuit = Arc::new(parse_circuit(source).unwrap());
        let handle = engine
            .submit(JobRequest::new(JobSpec::OneShot {
                circuit,
                config,
                shots: 0,
                return_state: true,
            }))
            .unwrap();
        match handle.wait().unwrap() {
            JobOutput::OneShot { state, .. } => state.expect("state requested"),
            other => panic!("one-shot output expected, got {other:?}"),
        }
    };

    let first = run(src);
    let second = run(src); // independent parse, same source
    assert_eq!(first.re(), second.re());
    assert_eq!(first.im(), second.im());
    let edited = src.replace("t q[2];", "s q[2];");
    let _ = run(&edited); // one-gate edit
    let metrics = engine.shutdown();
    assert_eq!(
        (metrics.plan_cache_hits, metrics.plan_cache_misses),
        (1, 2),
        "re-parsed QASM must hit; the one-gate edit must miss"
    );
}

/// Run the built `sv-sim` binary: exit code, stdout, stderr.
fn sv_sim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sv-sim"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A two-qubit Bell circuit on disk for the CLI tests (one file per test).
fn bell_qasm_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("svsim-cli-{tag}-{}.qasm", std::process::id()));
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
    )
    .unwrap();
    path
}

/// The built binary refuses what it cannot act on instead of ignoring it: a
/// misspelt flag, a value flag with nothing after it, the removed fusion
/// window flag and the removed bench commands are all usage errors (exit 2)
/// that name the offender.
#[test]
fn cli_rejects_unknown_and_valueless_flags() {
    let path = bell_qasm_file("flags");
    let file = path.to_str().unwrap();

    let (code, stdout, _) = sv_sim(&["run", file, "--shots", "100", "--seed", "3"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("sampled 100 shots"), "{stdout}");

    let (code, stdout, stderr) = sv_sim(&["run", file, "--shot", "100"]);
    assert_eq!(code, Some(2), "misspelt flag must not run: {stdout}");
    assert!(stderr.contains("--shot "), "names the flag: {stderr}");

    let (code, _, stderr) = sv_sim(&["run", file, "--seed"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--seed needs a value"), "{stderr}");

    let (code, _, stderr) = sv_sim(&["fault-bench", "--pes"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--pes needs a value"), "{stderr}");

    let fusion = "--fuse";
    for cmd in ["run", "analyze"] {
        let (code, stdout, stderr) = sv_sim(&[cmd, file, fusion, "3"]);
        assert_eq!(code, Some(2), "{cmd} {fusion} must not run: {stdout}");
        assert!(stderr.contains(fusion), "{cmd}: names the flag: {stderr}");
    }

    for removed in ["serve-bench", "remap-bench", "fuse-bench"] {
        let (code, _, stderr) = sv_sim(&[removed]);
        assert_eq!(code, Some(2), "{removed}");
        assert!(stderr.starts_with("usage:"), "{removed}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A numeric flag whose value does not parse is an error that names the flag
/// and the value (exit 1), raised before the command does any work: nothing
/// reaches stdout, not even a run that would otherwise have finished.
#[test]
fn cli_rejects_a_malformed_numeric_flag_before_any_work() {
    let path = bell_qasm_file("numeric");
    let file = path.to_str().unwrap();
    for (args, flag, value) in [
        (
            vec!["run", file, "--amplitudes", "-1"],
            "--amplitudes",
            "-1",
        ),
        (vec!["run", file, "--seed", "x"], "--seed", "x"),
        (vec!["run", file, "--shots", "1e3"], "--shots", "1e3"),
        (
            vec!["run", file, "--backend", "out:two"],
            "--backend",
            "two",
        ),
        (vec!["fault-bench", "--hang-ms", "abc"], "--hang-ms", "abc"),
        (vec!["analyze", file, "--seed", "abc"], "--seed", "abc"),
        (
            vec!["estimate", file, "--platform", "v100", "--workers", "x"],
            "--workers",
            "x",
        ),
        (vec!["verify", "--max-states", "x"], "--max-states", "x"),
    ] {
        let (code, stdout, stderr) = sv_sim(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: {flag}: invalid value '{value}'"),
            "{args:?}"
        );
        assert!(stdout.is_empty(), "{args:?} printed first: {stdout}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `estimate --workers` takes the worker counts a run could use: a count
/// that is not a power of two, or exceeds the amplitudes, is an error that
/// names it (exit 1), not a panic in the traffic model.
#[test]
fn cli_estimate_rejects_a_worker_count_no_run_could_use() {
    let path = bell_qasm_file("workers");
    let file = path.to_str().unwrap();
    let estimate =
        |workers: &str| sv_sim(&["estimate", file, "--platform", "v100", "--workers", workers]);

    let (code, stdout, stderr) = estimate("2");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("modeled latency on NVIDIA_V100 x2"),
        "{stdout}"
    );
    // Two qubits: 3 is no power of two, 8 exceeds the 4 amplitudes.
    for bad in ["3", "8"] {
        let (code, _, stderr) = estimate(bad);
        assert_eq!(code, Some(1), "--workers {bad}: {stderr}");
        assert!(stderr.contains(&format!("worker count {bad} ")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Hostile input is a typed error naming its cause — exit 1 — never a panic
/// (101) or a stack overflow (134): non-finite angles, expressions nested
/// past the parser's bound, gates whose bodies reach themselves, register
/// widths that would wrap, and quantum registers wider than a state vector
/// (to run, to broadcast a gate or a barrier over, or to price).
#[test]
fn cli_refuses_hostile_qasm_with_the_cause() {
    let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    let q1 = "qreg q[1];\n";
    let deep = |expr: String| format!("{header}{q1}rz({expr}) q[0];\n");
    let cases: Vec<(&str, String, &[&str], &str)> = vec![
        (
            "inf",
            deep("1e400".into()),
            &["run"],
            "gate rz: parameter 0 is inf",
        ),
        (
            "nan",
            deep("0/0".into()),
            &["run", "--shots", "0"],
            "gate rz: parameter 0 is NaN",
        ),
        (
            "parens",
            deep(format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000))),
            &["run"],
            "nested deeper than 256 levels",
        ),
        (
            "minus",
            deep("-".repeat(100_000) + "1"),
            &["run"],
            "nested deeper than 256 levels",
        ),
        (
            "pow",
            deep("1^".repeat(100_000) + "1"),
            &["run"],
            "nested deeper than 256 levels",
        ),
        (
            "self",
            format!("{header}{q1}gate g a {{ g a; }}\ng q[0];\n"),
            &["run"],
            "gate g called in the body of gate g before its declaration",
        ),
        (
            "mutual",
            format!("{header}{q1}gate a x {{ b x; }}\ngate b x {{ a x; }}\na q[0];\n"),
            &["run"],
            "gate b called in the body of gate a before its declaration",
        ),
        (
            "wide",
            format!("{header}qreg q[4294967297];\nh q[0];\n"),
            &["run"],
            "quantum register q[4294967297]: its bits would be numbered past 4294967295",
        ),
        (
            "wrap",
            format!("{header}qreg a[2147483648];\nqreg b[2147483648];\nqreg c[3];\nh c[0];\n"),
            &["run"],
            "quantum register a[2147483648]: 2147483648 qubits in all",
        ),
        (
            "broadcast",
            format!("{header}qreg a[4294967294];\nqreg b[1];\nh a;\n"),
            &["run"],
            "quantum register a[4294967294]: 4294967294 qubits in all; a state vector holds at most 63",
        ),
        (
            "barrier",
            format!("{header}qreg b[1];\nqreg a[4294967293];\nbarrier a;\n"),
            &["run"],
            "quantum register a[4294967293]: 4294967294 qubits in all",
        ),
        (
            "price100",
            format!("{header}qreg q[100];\nh q[99];\n"),
            &["estimate", "--platform", "v100"],
            "quantum register q[100]: 100 qubits in all; a state vector holds at most 63 (2^63 amplitudes)",
        ),
        (
            "price64",
            format!("{header}qreg q[64];\nh q[63];\n"),
            &["estimate", "--platform", "v100"],
            "quantum register q[64]: 64 qubits in all",
        ),
    ];
    for (tag, src, command, cause) in cases {
        let path =
            std::env::temp_dir().join(format!("svsim-hostile-{tag}-{}.qasm", std::process::id()));
        std::fs::write(&path, src).unwrap();
        let file = path.to_str().unwrap();
        let mut args = vec![command[0], file];
        args.extend(&command[1..]);
        let (code, _, stderr) = sv_sim(&args);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
        assert!(stderr.contains(cause), "{tag}: {stderr}");
    }
    // Forty qubits still price, and above what one qubit fewer costs.
    let price = |n: u32| {
        let path =
            std::env::temp_dir().join(format!("svsim-price-{n}-{}.qasm", std::process::id()));
        std::fs::write(&path, format!("{header}qreg q[{n}];\nh q[{}];\n", n - 1)).unwrap();
        let (code, stdout, stderr) =
            sv_sim(&["estimate", path.to_str().unwrap(), "--platform", "v100"]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, Some(0), "{n} qubits: {stderr}");
        let ms = stdout
            .split("x1: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .unwrap();
        ms.parse::<f64>().unwrap()
    };
    assert!(price(40) > price(39));
}
