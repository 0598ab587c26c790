//! Fused-vs-unfused differential tests over the Table 4 workload suite.
//!
//! Gate fusion replays the original micro-ops inside each dense window
//! sweep instead of premultiplying matrices, so a fused run must be
//! *bit-identical* — not merely close — to the unfused run on every
//! backend, dispatch mode, and remap setting. These tests hold that line
//! with `state_checksum` (a checksum over the exact f64 bit patterns).

use sv_sim::core::{
    state_checksum, CompiledPlan, DispatchMode, ShmemBackend, SimConfig, Simulator,
};
use sv_sim::workloads::{large_suite, medium_suite};

fn checksum_run(circuit: &sv_sim::ir::Circuit, config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
    let summary = sim.run(circuit).unwrap();
    (state_checksum(sim.state()), summary.cbits)
}

/// Every medium workload, fused at windows 1..=3, across single-device,
/// runtime-parse, scale-up, and thread scale-out with remap on and off:
/// all bit-identical to the unfused single-device reference.
#[test]
fn medium_suite_fused_is_bit_identical_everywhere() {
    for spec in medium_suite() {
        let circuit = spec.circuit().unwrap();
        let (ref_sum, ref_cbits) = checksum_run(
            &circuit,
            SimConfig {
                seed: 7,
                ..SimConfig::single_device()
            },
        );
        for window in 1..=3u8 {
            let configs = [
                SimConfig {
                    seed: 7,
                    fuse: window,
                    ..SimConfig::single_device()
                },
                SimConfig {
                    seed: 7,
                    dispatch: DispatchMode::RuntimeParse,
                    fuse: window,
                    ..SimConfig::single_device()
                },
                SimConfig {
                    seed: 7,
                    fuse: window,
                    ..SimConfig::scale_up(4)
                },
                SimConfig {
                    seed: 7,
                    fuse: window,
                    ..SimConfig::scale_out(4)
                },
                SimConfig {
                    seed: 7,
                    remap: true,
                    fuse: window,
                    ..SimConfig::scale_out(4)
                },
            ];
            for config in configs {
                let (sum, cbits) = checksum_run(&circuit, config);
                assert_eq!(
                    sum, ref_sum,
                    "{} state diverged (window {window}, {config:?})",
                    spec.name
                );
                assert_eq!(
                    cbits, ref_cbits,
                    "{} cbits diverged (window {window}, {config:?})",
                    spec.name
                );
            }
        }
    }
}

/// Fusion must actually collapse amplitude passes on gate-dense workloads,
/// while never growing the queue on any workload (traffic monotonicity).
/// On the deep workloads (>= 300 gates, <= 18 qubits) the collapse must
/// average at least 2 source kernels per amplitude pass at window 3 —
/// compile-only, so the whole suite fits a debug-build test.
#[test]
fn fusion_collapses_passes_without_inflating_any_workload() {
    let mut collapsed = 0usize;
    let mut deep_kernels_per_pass = Vec::new();
    let n_medium = medium_suite().len();
    for (i, spec) in medium_suite().into_iter().chain(large_suite()).enumerate() {
        let circuit = spec.circuit().unwrap();
        let n = circuit.n_qubits();
        if n > 18 {
            continue;
        }
        let unfused = CompiledPlan::compile(&circuit, n, &SimConfig::single_device());
        let fused = CompiledPlan::compile(
            &circuit,
            n,
            &SimConfig {
                fuse: 3,
                ..SimConfig::single_device()
            },
        );
        assert_eq!(
            fused.n_source_kernels(),
            unfused.n_kernels(),
            "{}: fusion must preserve every source kernel",
            spec.name
        );
        assert!(
            fused.n_kernels() <= unfused.n_kernels(),
            "{}: fusion grew the queue {} -> {}",
            spec.name,
            unfused.n_kernels(),
            fused.n_kernels()
        );
        if i < n_medium && fused.n_kernels() < unfused.n_kernels() {
            collapsed += 1;
        }
        if circuit.stats().gates >= 300 {
            deep_kernels_per_pass
                .push(fused.n_source_kernels() as f64 / fused.n_kernels().max(1) as f64);
        }
    }
    assert!(
        collapsed >= 6,
        "fusion collapsed passes on only {collapsed}/8 medium workloads"
    );
    assert!(
        !deep_kernels_per_pass.is_empty(),
        "the suite has deep workloads"
    );
    let mean = deep_kernels_per_pass.iter().sum::<f64>() / deep_kernels_per_pass.len() as f64;
    assert!(
        mean >= 2.0,
        "mean source kernels per fused pass {mean:.2} < 2.0 over {} deep workloads",
        deep_kernels_per_pass.len()
    );
}

/// The full Table 4 gate for fusion: every medium + large workload, thread
/// vs process PEs, remap on and off, fused at window 3, compared by
/// amplitude checksum and classical bits against the unfused single-device
/// reference. Release-mode CI leg (`scripts/ci.sh`).
#[test]
#[ignore = "release-mode CI leg: runs via scripts/ci.sh (cargo test --release -- --include-ignored)"]
fn full_suite_fused_bit_identity_thread_vs_process() {
    let suite: Vec<_> = medium_suite().into_iter().chain(large_suite()).collect();
    assert_eq!(suite.len(), 16, "the full Table 4 suite");
    for spec in suite {
        let circuit = spec.circuit().unwrap();
        let (ref_sum, ref_cbits) = checksum_run(
            &circuit,
            SimConfig {
                seed: 11,
                ..SimConfig::single_device()
            },
        );
        for backend in [ShmemBackend::Thread, ShmemBackend::Process] {
            for remap in [false, true] {
                let config = SimConfig {
                    seed: 11,
                    remap,
                    shmem_backend: backend,
                    fuse: 3,
                    ..SimConfig::scale_out(4)
                };
                let (sum, cbits) = checksum_run(&circuit, config);
                assert_eq!(
                    sum, ref_sum,
                    "{} state diverged ({backend:?}, remap={remap})",
                    spec.name
                );
                assert_eq!(
                    cbits, ref_cbits,
                    "{} cbits diverged ({backend:?}, remap={remap})",
                    spec.name
                );
            }
        }
    }
}
