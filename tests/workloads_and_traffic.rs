//! Workload-suite integration: every Table 4 routine runs on the
//! distributed backends, and the analytic traffic model matches the
//! measured SHMEM counters exactly.

use sv_sim::core::{state_checksum, CompiledPlan, DispatchMode, Scheduled, SimConfig, Simulator};
use sv_sim::ir::Circuit;
use sv_sim::workloads::{large_suite, medium_suite, Category};

fn unitary_part(c: &Circuit) -> Circuit {
    let mut out = Circuit::new(c.n_qubits());
    for op in c.ops() {
        if let sv_sim::ir::Op::Gate(g) = op {
            out.push_gate(*g).unwrap();
        }
    }
    out
}

/// Every medium workload, measurements included, on single-device runtime
/// parsing, scale-up and thread scale-out with remap off and on: amplitudes
/// (by `state_checksum`, over the exact f64 bit patterns) and classical bits
/// identical to the single-device reference at the same seed.
#[test]
fn medium_suite_agrees_between_single_and_scaleout() {
    let run = |circuit: &Circuit, config: SimConfig| {
        let mut sim = Simulator::new(circuit.n_qubits(), SimConfig { seed: 7, ..config }).unwrap();
        let cbits = sim.run(circuit).unwrap().cbits;
        (state_checksum(sim.state()), cbits)
    };
    for spec in medium_suite() {
        assert_eq!(spec.category, Category::Medium);
        let circuit = spec.circuit().unwrap();
        let reference = run(&circuit, SimConfig::single_device());
        for config in [
            SimConfig {
                dispatch: DispatchMode::RuntimeParse,
                ..SimConfig::single_device()
            },
            SimConfig::scale_up(4),
            SimConfig::scale_out(4),
            SimConfig {
                remap: true,
                ..SimConfig::scale_out(4)
            },
        ] {
            assert_eq!(
                run(&circuit, config),
                reference,
                "{} diverged from single-device: {config:?}",
                spec.name
            );
        }
    }
}

/// Tile runs give consecutive gates one shared pass over cache-resident
/// memory: a barrier follows only the last kernel of a run. On the
/// single-device plan of every Table 4 workload no kernel costs more than
/// one pass, every workload wider than the inner tile (2^11 amplitudes)
/// saves passes, and the deep ones (>= 300 gates) average at least two
/// kernels per pass. Compile-only, so the whole suite fits a debug build.
#[test]
fn tile_runs_share_amplitude_passes_on_deep_workloads() {
    let mut deep_kernels_per_pass = Vec::new();
    for spec in medium_suite().into_iter().chain(large_suite()) {
        let circuit = spec.circuit().unwrap();
        let n = circuit.n_qubits();
        let plan = CompiledPlan::compile(&circuit, n, &SimConfig::single_device());
        let kernels = plan.n_kernels();
        let passes = plan
            .schedule()
            .filter(|s| matches!(s, Scheduled::Kernel { barrier: true, .. }))
            .count();
        assert!(
            passes <= kernels,
            "{}: {passes} passes for {kernels} kernels",
            spec.name
        );
        if n > 11 {
            assert!(
                passes < kernels,
                "{}: no tile run shares a pass ({kernels} kernels)",
                spec.name
            );
            if circuit.stats().gates >= 300 {
                deep_kernels_per_pass.push(kernels as f64 / passes.max(1) as f64);
            }
        }
    }
    assert!(
        !deep_kernels_per_pass.is_empty(),
        "the suite has deep workloads wider than a tile"
    );
    let mean = deep_kernels_per_pass.iter().sum::<f64>() / deep_kernels_per_pass.len() as f64;
    assert!(
        mean >= 2.0,
        "mean kernels per pass {mean:.2} < 2.0 over {} deep workloads",
        deep_kernels_per_pass.len()
    );
}

#[test]
fn traffic_prediction_matches_measurement_on_suite() {
    // The closed-form communication model must agree with the measured
    // one-sided SHMEM traffic for every medium circuit at several PE
    // counts. (ShmemView moves re and im separately: 2 measured f64 ops
    // per modeled amplitude op.)
    for spec in medium_suite().iter().take(5) {
        let circuit = unitary_part(&spec.circuit().unwrap());
        let n = circuit.n_qubits();
        for n_pes in [2usize, 4, 8] {
            let mut sim = Simulator::new(n, SimConfig::scale_out(n_pes)).unwrap();
            let predicted = sim.predict_traffic(&circuit);
            let summary = sim.run(&circuit).unwrap();
            let measured = summary.total_traffic();
            assert_eq!(
                measured.remote_gets + measured.remote_puts,
                2 * predicted.remote_amp_ops,
                "{} at {n_pes} PEs: model vs measured mismatch",
                spec.name
            );
            // Bytes match exactly: the model's 16 bytes per amplitude op
            // equal the fabric's two 8-byte word transfers.
            assert_eq!(
                measured.remote_bytes(),
                predicted.remote_bytes,
                "{} at {n_pes} PEs: byte mismatch",
                spec.name
            );
        }
    }
}

#[test]
fn remote_fraction_grows_with_partition_count() {
    // The structural reason scale-out saturates (Fig. 12): more partitions
    // put more qubits above the boundary, so remote volume grows.
    let circuit = sv_sim::workloads::algos::qft(12).unwrap();
    let mut previous = 0u64;
    for n_pes in [2usize, 4, 8, 16] {
        let sim = Simulator::new(12, SimConfig::scale_out(n_pes)).unwrap();
        let t = sim.predict_traffic(&circuit);
        assert!(
            t.remote_amp_ops >= previous,
            "remote volume should not shrink with more PEs"
        );
        previous = t.remote_amp_ops;
    }
    assert!(previous > 0);
}

#[test]
fn scaleup_peer_traffic_is_also_counted() {
    let circuit = sv_sim::workloads::algos::ghz(10).unwrap();
    let mut sim = Simulator::new(10, SimConfig::scale_up(4)).unwrap();
    let summary = sim.run(&circuit).unwrap();
    let total = summary.total_traffic();
    assert!(total.total_ops() > 0);
    assert!(
        total.remote_ops() > 0,
        "the CX chain must cross partition boundaries"
    );
    // Scale-up's lent walk counts each amplitude as one 16-byte access, one
    // op per amplitude: measured ops equal the model's amplitude ops exactly.
    let predicted = sim.predict_traffic(&circuit);
    assert_eq!(total.remote_ops(), predicted.remote_amp_ops);
}

#[test]
fn large_suite_structural_stats() {
    // Don't run the 2^23 states in CI-style tests; validate structure.
    for spec in sv_sim::workloads::large_suite() {
        let c = spec.circuit().unwrap();
        let s = c.stats();
        assert!(s.gates > 0, "{}", spec.name);
        assert!(
            s.cx <= s.gates,
            "{}: CX count cannot exceed gate count",
            spec.name
        );
        assert_eq!(spec.category, Category::Large);
    }
}
