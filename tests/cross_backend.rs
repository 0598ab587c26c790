//! Cross-backend differential tests: every execution path of the SV-Sim
//! reproduction must produce bit-identical (up to f64 rounding) states.

use sv_sim::baselines::{BaselineSim, FusionSim, GenericMatrixSim, InterpreterSim};
use sv_sim::core::{DispatchMode, SimConfig, Simulator};
use sv_sim::ir::Circuit;
use sv_sim::workloads::random::random_circuit;

fn run_state(circuit: &Circuit, config: SimConfig) -> Vec<f64> {
    let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
    sim.run(circuit).unwrap();
    let mut out = sim.state().re().to_vec();
    out.extend_from_slice(sim.state().im());
    out
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Seeded case count standing in for the original proptest configuration.
const CASES: u64 = 12;

/// Any random ISA circuit gives the same state on every backend,
/// dispatch mode, and specialization setting.
#[test]
fn all_execution_paths_agree() {
    for seed in 0..CASES {
        let n = 6u32;
        let n_gates = 5 + (seed as usize * 7) % 55;
        let circuit = random_circuit(n, n_gates, seed);
        let reference = run_state(&circuit, SimConfig::single_device());
        let configs = [
            SimConfig {
                dispatch: DispatchMode::RuntimeParse,
                ..SimConfig::single_device()
            },
            SimConfig {
                specialized: false,
                ..SimConfig::single_device()
            },
            SimConfig::scale_up(2),
            SimConfig::scale_up(8),
            SimConfig {
                dispatch: DispatchMode::RuntimeParse,
                ..SimConfig::scale_up(4)
            },
            SimConfig::scale_out(2),
            SimConfig {
                specialized: false,
                ..SimConfig::scale_out(4)
            },
            SimConfig::scale_out(8),
        ];
        for config in configs {
            let got = run_state(&circuit, config);
            assert!(
                max_diff(&got, &reference) < 1e-10,
                "{config:?} diverged by {}",
                max_diff(&got, &reference)
            );
        }
    }
}

/// The independent baseline simulators agree with the core.
#[test]
fn baselines_agree() {
    for seed in 0..CASES {
        let n = 5u32;
        let n_gates = 5 + (seed as usize * 5) % 35;
        let circuit = random_circuit(n, n_gates, seed);
        let mut sim = Simulator::new(n, SimConfig::single_device()).unwrap();
        sim.run(&circuit).unwrap();
        let reference = sim.amplitudes();
        let sims: Vec<Box<dyn BaselineSim>> = vec![
            Box::new(GenericMatrixSim),
            Box::new(InterpreterSim),
            Box::new(FusionSim),
        ];
        for mut b in sims {
            let got = b.run(&circuit).unwrap();
            let d = got
                .iter()
                .zip(&reference)
                .map(|(x, y)| (*x - *y).norm())
                .fold(0.0, f64::max);
            assert!(d < 1e-9, "{} diverged by {d}", b.name());
        }
    }
}

/// Unitarity: running a circuit then its inverse returns |0...0>.
#[test]
fn circuit_inverse_roundtrip() {
    for seed in 0..CASES {
        let n = 6u32;
        let n_gates = 5 + (seed as usize * 11) % 45;
        let circuit = random_circuit(n, n_gates, seed).decompose_compound(); // inverses exist for basic/standard gates
        let inverse = circuit.inverse().unwrap();
        let mut sim = Simulator::new(n, SimConfig::single_device()).unwrap();
        sim.run(&circuit).unwrap();
        sim.run(&inverse).unwrap();
        let probs = sim.probabilities();
        assert!((probs[0] - 1.0).abs() < 1e-9, "returned P0 = {}", probs[0]);
    }
}

/// Norm preservation under every gate stream.
#[test]
fn norm_is_preserved() {
    for seed in 0..CASES {
        let circuit = random_circuit(7, 100, seed);
        let mut sim = Simulator::new(7, SimConfig::scale_out(4)).unwrap();
        sim.run(&circuit).unwrap();
        assert!((sim.state().norm_sqr() - 1.0).abs() < 1e-9);
    }
}

/// Measurement outcomes, final amplitudes and samples agree bit for bit
/// across backends for the same seed — the pre-drawn random stream makes
/// collapse deterministic everywhere, through mid-circuit measurement,
/// reset and classically conditioned gates, whatever the device count,
/// fusion window, checkpoint segmentation or dispatch mode.
#[test]
fn measurement_streams_are_identical() {
    use sv_sim::ir::{Gate, GateKind};
    let n = 5u32;
    let mut circuit = Circuit::with_cbits(n, n);
    for q in 0..n {
        circuit.apply(GateKind::H, &[q], &[]).unwrap();
    }
    circuit.apply(GateKind::CX, &[0, 4], &[]).unwrap();
    circuit.measure(4, 0).unwrap();
    let flip = Gate::new(GateKind::X, &[3], &[]).unwrap();
    circuit.if_eq(0, 1, 1, flip).unwrap();
    circuit.apply(GateKind::RY, &[3], &[0.7]).unwrap();
    circuit.apply(GateKind::CX, &[3, 1], &[]).unwrap();
    circuit.reset(3).unwrap();
    circuit.apply(GateKind::CU1, &[1, 4], &[0.3]).unwrap();
    circuit.apply(GateKind::H, &[4], &[]).unwrap();
    for q in 0..n {
        circuit.measure(q, q).unwrap();
    }

    let mut configs = vec![SimConfig::scale_out(2)];
    for n_devices in [2, 4, 8] {
        for fuse in [0, 3] {
            for checkpoint_every in [0, 3] {
                for dispatch in [DispatchMode::PreloadedFnPointer, DispatchMode::RuntimeParse] {
                    configs.push(SimConfig {
                        fuse,
                        checkpoint_every,
                        dispatch,
                        ..SimConfig::scale_up(n_devices)
                    });
                }
            }
        }
    }
    for seed in 0..10u64 {
        let observe = |config: SimConfig| {
            let mut sim = Simulator::new(n, SimConfig { seed, ..config }).unwrap();
            let cbits = sim.run(&circuit).unwrap().cbits;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (re, im) = (bits(sim.state().re()), bits(sim.state().im()));
            (cbits, re, im, sim.sample(64))
        };
        let reference = observe(SimConfig::single_device());
        for config in &configs {
            assert!(
                observe(*config) == reference,
                "seed {seed}: {config:?} diverged from single-device"
            );
        }
    }
}

/// Every kernel class on the qubits `q`, in an order that keeps neighbours
/// fusable.
fn every_kernel_on(c: &mut Circuit, q: [u32; 5]) {
    use sv_sim::ir::GateKind::*;
    let [a, b, d, e, f] = q;
    let gates: [(sv_sim::ir::GateKind, &[u32], &[f64]); 17] = [
        (X, &[a], &[]),
        (Y, &[b], &[]),
        (Z, &[d], &[]),
        (H, &[a], &[]),
        (T, &[a], &[]),
        (RZ, &[b], &[0.3]),
        (U3, &[d], &[0.1, 0.2, 0.3]),
        (CX, &[a, b], &[]),
        (CZ, &[b, d], &[]),
        (CRZ, &[d, a], &[0.7]),
        (CCX, &[a, b, d], &[]),
        (C4X, &[a, b, d, e, f], &[]),
        (SWAP, &[a, d], &[]),
        (CSWAP, &[b, a, d], &[]),
        (RZZ, &[a, b], &[0.4]),
        (RXX, &[b, d], &[0.9]),
        (H, &[e], &[]),
    ];
    for (kind, qubits, params) in gates {
        c.apply(kind, qubits, params).unwrap();
    }
}

/// The fast path against the path it replaces. A partitioned run sends its
/// partition-local kernels to the PE's own slab and credits the counters per
/// kernel; a launch that observes individual words — a fault plan holding a
/// `Get` spec (here one that never fires), or the race detector — issues
/// every access through the view as before. Same amplitudes bit for bit,
/// same classical bits, the same counters on every PE field by field: an
/// off-by-one-word credit on any kernel class shows as a traffic mismatch.
#[test]
fn slab_path_is_indistinguishable_from_the_observed_per_word_path() {
    use std::sync::Arc;
    use sv_sim::ir::{Gate, GateKind};
    use sv_sim::shmem::{FaultAction, FaultPlan};
    use sv_sim::types::PeOp;

    // 7 qubits: the partition boundary is 6 at 2 PEs and 5 at 4. Every
    // kernel class wholly below both, then straddling both; a measured
    // partition-index qubit steering conditioned gates on either side; a
    // reset (and its restoring X) on either side.
    let n = 7u32;
    let mut circuit = Circuit::with_cbits(n, 3);
    for q in 0..n {
        circuit.apply(GateKind::H, &[q], &[]).unwrap();
    }
    every_kernel_on(&mut circuit, [0, 1, 2, 3, 4]);
    every_kernel_on(&mut circuit, [6, 2, 5, 0, 4]);
    circuit.measure(6, 0).unwrap();
    for value in [0, 1] {
        let low = Gate::new(GateKind::RY, &[1], &[0.7]).unwrap();
        let high = Gate::new(GateKind::RY, &[5 + value as u32], &[0.7]).unwrap();
        circuit.if_eq(0, 1, value, low).unwrap();
        circuit.if_eq(0, 1, value, high).unwrap();
    }
    circuit.reset(2).unwrap();
    circuit.reset(5).unwrap();
    every_kernel_on(&mut circuit, [5, 6, 3, 1, 0]);
    circuit.measure(0, 1).unwrap();
    circuit.measure(5, 2).unwrap();

    let observe = |config: SimConfig, plan: Option<FaultPlan>| {
        let mut sim = Simulator::new(n, config).unwrap();
        sim.set_fault_plan(plan.map(Arc::new));
        let summary = sim.run(&circuit).unwrap();
        assert!(summary.races.is_empty());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let state = (bits(sim.state().re()), bits(sim.state().im()));
        (
            (state, summary.cbits, summary.traffic),
            summary.slab_kernels,
        )
    };
    let never = |op| FaultPlan::new().with(0, op, u64::MAX, FaultAction::Delay(0));

    let mut configs = Vec::new();
    for fuse in [0, 3] {
        for dispatch in [DispatchMode::PreloadedFnPointer, DispatchMode::RuntimeParse] {
            for seed in [1, 2] {
                let with = |base: SimConfig| SimConfig {
                    fuse,
                    dispatch,
                    seed,
                    ..base
                };
                configs.push(with(SimConfig::scale_up(2)));
                for n_pes in [2, 4] {
                    configs.push(with(SimConfig::scale_out(n_pes)));
                    configs.push(with(SimConfig {
                        remap: true,
                        ..SimConfig::scale_out(n_pes)
                    }));
                }
            }
        }
    }
    for config in configs {
        let (plain, on_slab) = observe(config, None);
        assert!(on_slab > 0, "{config:?}: no kernel took the slab");

        let (by_word, none) = observe(config, Some(never(PeOp::Get)));
        assert_eq!(none, 0, "{config:?}: a Get spec must see every get");
        assert!(
            plain == by_word,
            "{config:?}: slab and per-word runs differ"
        );

        // A plan that only watches barriers observes no words: the slab
        // stays, and every barrier it counts is still there.
        let (at_barriers, kept) = observe(config, Some(never(PeOp::Barrier)));
        assert_eq!(kept, on_slab, "{config:?}");
        assert!(plain == at_barriers, "{config:?}");

        if matches!(config.backend, sv_sim::core::BackendKind::ScaleOut { .. }) {
            let (detected, none) = observe(
                SimConfig {
                    detect_races: true,
                    ..config
                },
                None,
            );
            assert_eq!(none, 0, "{config:?}: the detector must see every word");
            assert!(
                plain == detected,
                "{config:?}: slab and detected runs differ"
            );
        }

        let single = SimConfig {
            backend: sv_sim::core::BackendKind::SingleDevice,
            remap: false,
            ..config
        };
        let ((state, cbits, _), none) = observe(single, None);
        assert_eq!(none, 0, "a single device has no slab to speak of");
        assert!((&state, cbits) == (&plain.0, plain.1), "{config:?}");
    }
}
