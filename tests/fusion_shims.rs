//! The simulator has no gate fusion, but two fusion entry points stay as
//! inert shims because the frozen benchmark still reaches them:
//! `SimConfig::fuse` (accepted and ignored) and `fuse_compiled` (hands the
//! queue back unchanged). These tests hold both to "changes nothing".

use sv_sim::core::compile::compile_gate;
use sv_sim::core::{
    fuse_compiled, state_checksum, CompiledPlan, DispatchMode, SimConfig, Simulator,
};
use sv_sim::workloads::medium_suite;

/// Every `fuse` value lowers the plan `fuse: 0` lowers and runs it to the
/// same amplitudes, classical bits, traffic counters and exchange count, on
/// single-device (both dispatch modes), scale-up and scale-out with remap
/// off and on — measurements included.
#[test]
fn fuse_config_is_accepted_and_ignored_on_every_backend() {
    let run = |circuit: &sv_sim::ir::Circuit, config: SimConfig| {
        let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
        let summary = sim.run(circuit).unwrap();
        (
            state_checksum(sim.state()),
            summary.cbits,
            summary.total_traffic(),
            summary.remap_swaps,
        )
    };
    for spec in medium_suite().into_iter().take(4) {
        let circuit = spec.circuit().unwrap();
        let n = circuit.n_qubits();
        for base in [
            SimConfig::single_device(),
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
            let plain = SimConfig {
                seed: 5,
                fuse: 0,
                ..base
            };
            let plain_plan = CompiledPlan::compile(&circuit, n, &plain);
            let reference = run(&circuit, plain);
            for fuse in [1u8, 3, 9, u8::MAX] {
                let config = SimConfig { fuse, ..plain };
                let plan = CompiledPlan::compile(&circuit, n, &config);
                assert!(
                    plan.matches(&circuit, n, &plain) && plain_plan.matches(&circuit, n, &config),
                    "{}: fuse {fuse} changed the plan's shape ({base:?})",
                    spec.name
                );
                assert!(
                    plan.schedule()
                        .map(|s| format!("{s:?}"))
                        .eq(plain_plan.schedule().map(|s| format!("{s:?}"))),
                    "{}: fuse {fuse} changed the schedule ({base:?})",
                    spec.name
                );
                assert_eq!(
                    run(&circuit, config),
                    reference,
                    "{}: fuse {fuse} changed the run ({base:?})",
                    spec.name
                );
            }
        }
    }
}

/// `fuse_compiled` returns its input queue, element for element, with one
/// single-kernel range per entry, whatever the window.
#[test]
fn fuse_compiled_hands_back_the_queue_one_kernel_per_range() {
    for spec in medium_suite().into_iter().take(4) {
        let circuit = spec.circuit().unwrap();
        let n = circuit.n_qubits();
        let mut queue = Vec::new();
        for op in circuit.ops() {
            if let sv_sim::ir::Op::Gate(g) = op {
                compile_gate(g, n, true, &mut queue);
            }
        }
        assert!(!queue.is_empty(), "{} has gates", spec.name);
        for window in [0u8, 1, 2, 3, 9] {
            let (out, ranges) = fuse_compiled(&queue, n, window);
            assert_eq!(out, queue, "{}: window {window}", spec.name);
            assert_eq!(ranges.len(), queue.len(), "{}: window {window}", spec.name);
            for (k, r) in ranges.iter().enumerate() {
                assert_eq!(*r, k..k + 1, "{}: window {window}", spec.name);
            }
        }
    }
    assert_eq!(fuse_compiled(&[], 3, 3), (Vec::new(), Vec::new()));
}
