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

/// Every gate that runs on a cheaper body than the dense 2×2 — CCX, C3X and
/// C4X on `k_x`, CH on `k_h`, CY on `k_y`, RY and CRY on the real rotation
/// `k_ry`, RX and CRX on `k_rx` — against its dense matrix applied by
/// `baselines::dense`, with its controls below the target and above it, on a
/// state with no zero amplitude.
#[test]
fn rerouted_gates_agree_with_the_dense_baseline() {
    use sv_sim::baselines::dense::apply_kq;
    use sv_sim::ir::{matrices::gate_matrix, Gate, GateKind::*};
    let n = 6u32;
    let mut prep = Circuit::new(n);
    for q in 0..n {
        let q_f = f64::from(q);
        prep.apply(U3, &[q], &[0.3 + q_f, 0.7 * q_f, -0.2]).unwrap();
    }
    let state_after = |circuit: &Circuit| {
        let mut sim = Simulator::new(n, SimConfig::single_device()).unwrap();
        sim.run(circuit).unwrap();
        sim.amplitudes()
    };
    let before = state_after(&prep);
    let gates: [(_, &[u32], &[f64]); 15] = [
        (CCX, &[0, 1, 2], &[]),
        (CCX, &[5, 3, 1], &[]),
        (C3X, &[0, 4, 5, 2], &[]),
        (C4X, &[1, 5, 0, 4, 3], &[]),
        (CH, &[0, 3], &[]),
        (CH, &[4, 1], &[]),
        (CY, &[2, 5], &[]),
        (CY, &[5, 0], &[]),
        (RY, &[0], &[0.7]),
        (RY, &[4], &[-2.1]),
        (CRY, &[1, 3], &[0.9]),
        (CRY, &[3, 0], &[2.6]),
        (RX, &[2], &[1.3]),
        (CRX, &[0, 5], &[-0.4]),
        (CRX, &[4, 2], &[2.2]),
    ];
    for (kind, qubits, params) in gates {
        let gate = Gate::new(kind, qubits, params).unwrap();
        let mut circuit = prep.clone();
        circuit.push_gate(gate).unwrap();
        let mut want = before.clone();
        apply_kq(&mut want, &gate_matrix(&gate), qubits);
        let got = state_after(&circuit);
        let d = (got.iter().zip(&want))
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max);
        assert!(d < 1e-12, "{gate} diverged from its dense matrix by {d}");
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
        for checkpoint_every in [0, 3] {
            for dispatch in [DispatchMode::PreloadedFnPointer, DispatchMode::RuntimeParse] {
                configs.push(SimConfig {
                    checkpoint_every,
                    dispatch,
                    ..SimConfig::scale_up(n_devices)
                });
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

/// The partitioned walk against the single device. A partitioned run
/// reaches the state as plain memory: partition-local kernels on the PE's
/// own slab, accounted for per kernel; boundary kernels as runs lent by
/// whichever partition owns them, accounted for per run (where the lowest
/// involved qubit leaves no run of 8: a pair kernel on its one qubit below 5
/// as whole stretches, clipped where the owning partition ends; anything
/// else amplitude by amplitude out of the same lent memory). Same amplitudes
/// bit for bit and the same classical bits as one device. A fault plan
/// whose specs never fire, or the race detector, changes nothing: the same
/// kernels on the slab, the same counters on every PE field by field, no
/// race. (What each kernel counts against the word accessors that lend
/// nothing: `exec::tests::lending_views_and_the_slab_count_what_the_word_accessors_count`
/// in `svsim-core`.)
#[test]
fn plain_memory_paths_agree_with_the_single_device_and_under_observation() {
    use std::sync::Arc;
    use sv_sim::ir::{Gate, GateKind};
    use sv_sim::shmem::{FaultAction, FaultPlan};
    use sv_sim::types::PeOp;

    // 10 qubits: the partition boundary is 9 at 2 PEs, 8 at 4, 7 at 8. Every
    // kernel class wholly below all three, then straddling them with its
    // lowest qubit at 3 or above (runs of 8 to 512 lent across the
    // boundary: one-qubit kernels on the top qubit, cx / cz / crz / ccx /
    // c4x / swap / cswap / rzz / rxx with operands on both sides), then
    // straddling with its lowest qubit at 0 (no runs: lent amplitude by
    // amplitude); pair kernels on targets 0 to 4 under a control above
    // every boundary (stretches of 32 to 512 amplitudes lent across it, cut
    // at each partition's end) and under one at 7 (above the boundary at 8
    // PEs only); two low controls over the top target, and a controlled
    // phase on 0 and 1 and under the top qubit (the masked chunk patterns:
    // whole chunks of a PE's own slab, amplitude by amplitude out of a lent
    // partition); a measured partition-index qubit steering conditioned
    // gates on either side; a reset (and its restoring X) on either side.
    let n = 10u32;
    let top = n - 1;
    let mut circuit = Circuit::with_cbits(n, 3);
    for q in 0..n {
        circuit.apply(GateKind::H, &[q], &[]).unwrap();
    }
    every_kernel_on(&mut circuit, [0, 1, 2, 3, 4]);
    every_kernel_on(&mut circuit, [top, 5, top - 1, 3, top - 2]);
    every_kernel_on(&mut circuit, [top - 2, top, top - 3, top - 1, 4]);
    every_kernel_on(&mut circuit, [top, 0, top - 1, 1, 2]);
    let low_pairs: [(GateKind, &[u32], &[f64]); 15] = [
        (GateKind::CX, &[top, 0], &[]),
        (GateKind::CRY, &[top, 1], &[0.9]),
        (GateKind::CRZ, &[top, 2], &[0.7]),
        (GateKind::CX, &[top, 3], &[]),
        (GateKind::CRY, &[top, 4], &[0.9]),
        (GateKind::CH, &[top - 1, 1], &[]),
        (GateKind::CY, &[top - 2, 2], &[]),
        (GateKind::CCX, &[top, 5, 0], &[]),
        (GateKind::CRX, &[top - 2, 0], &[0.4]),
        (GateKind::CCX, &[top - 1, 4, 2], &[]),
        (GateKind::CCX, &[0, 1, top], &[]),
        (GateKind::CU1, &[0, 1], &[0.37]),
        (GateKind::CU1, &[1, 0], &[0.37]),
        (GateKind::CU1, &[top, 0], &[0.37]),
        (GateKind::CX, &[1, 0], &[]),
    ];
    for (kind, qubits, params) in low_pairs {
        circuit.apply(kind, qubits, params).unwrap();
    }
    circuit.measure(top, 0).unwrap();
    for value in [0, 1] {
        let low = Gate::new(GateKind::RY, &[1], &[0.7]).unwrap();
        let high = Gate::new(GateKind::RY, &[top - 1 + value as u32], &[0.7]).unwrap();
        circuit.if_eq(0, 1, value, low).unwrap();
        circuit.if_eq(0, 1, value, high).unwrap();
    }
    circuit.reset(2).unwrap();
    circuit.reset(top - 1).unwrap();
    every_kernel_on(&mut circuit, [top - 1, top, 3, 1, 0]);
    circuit.measure(0, 1).unwrap();
    circuit.measure(top - 1, 2).unwrap();

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
    for dispatch in [DispatchMode::PreloadedFnPointer, DispatchMode::RuntimeParse] {
        for seed in [1, 2] {
            let with = |base: SimConfig| SimConfig {
                dispatch,
                seed,
                ..base
            };
            configs.push(with(SimConfig::scale_up(2)));
            for n_pes in [2, 4, 8] {
                configs.push(with(SimConfig::scale_out(n_pes)));
                configs.push(with(SimConfig {
                    remap: true,
                    ..SimConfig::scale_out(n_pes)
                }));
            }
        }
    }
    for config in configs {
        let (plain, on_slab) = observe(config, None);
        assert!(on_slab > 0, "{config:?}: no kernel took the slab");

        // Plans that never fire, on the borrows and on the barriers.
        for op in [PeOp::Get, PeOp::Put, PeOp::Barrier] {
            let (observed, kept) = observe(config, Some(never(op)));
            assert_eq!(kept, on_slab, "{config:?} {op:?}");
            assert!(plain == observed, "{config:?} {op:?}: the walks differ");
        }
        let detected = SimConfig {
            detect_races: true,
            ..config
        };
        let (detected, kept) = observe(detected, None);
        assert_eq!(kept, on_slab, "{config:?}");
        assert!(
            plain == detected,
            "{config:?}: plain and detected runs differ"
        );

        let single = SimConfig {
            backend: sv_sim::core::BackendKind::SingleDevice,
            remap: false,
            ..config
        };
        let ((state, cbits, _), none) = observe(single, None);
        assert_eq!(none, 0, "a single device has no partition to speak of");
        assert!((&state, cbits) == (&plain.0, plain.1), "{config:?}");
    }
}

/// The race detector watches the walk production runs. `square_root_n18`
/// (the `deep_incache` circuit) at 2 thread PEs: each PE's slab is two L2
/// tiles, its tile runs skip the tiles they keep all `+0.0`, and a detected
/// run walks exactly that — the same tile runs and slab kernels, the same
/// zero tiles skipped, every PE's counters equal field by field — and finds
/// no race.
#[test]
fn the_detector_watches_the_tiled_slab_walk_of_square_root_n18() {
    detector_watches_square_root_n18(SimConfig::scale_out(2));
}

/// [`the_detector_watches_the_tiled_slab_walk_of_square_root_n18`] on 2
/// scale-up devices, which walk the same lent walk.
#[test]
fn the_detector_watches_scale_up_on_square_root_n18() {
    detector_watches_square_root_n18(SimConfig::scale_up(2));
}

fn detector_watches_square_root_n18(plain: SimConfig) {
    let square_root = sv_sim::workloads::large_suite()
        .into_iter()
        .find(|spec| spec.name == "square_root_n18")
        .expect("a Table 4 routine");
    let circuit = square_root.circuit().unwrap();
    let detected = SimConfig {
        detect_races: true,
        ..plain
    };
    let (sum, cbits, p) = run_summary(&circuit, plain);
    let (detected_sum, detected_cbits, d) = run_summary(&circuit, detected);
    let walked =
        |s: &sv_sim::core::RunSummary| (s.tile_runs, s.tiled_kernels, s.slab_kernels, s.zero_tiles);
    assert!(
        p.tile_runs > 0 && p.slab_kernels > 0 && p.zero_tiles > 0,
        "{:?}",
        walked(&p)
    );
    assert_eq!(walked(&d), walked(&p));
    assert_eq!(d.traffic, p.traffic);
    assert!(d.races.is_empty(), "{:?}", d.races);
    assert_eq!((detected_sum, detected_cbits), (sum, cbits));
}

/// A 17-qubit `dnn_layers` with a measurement between its layers.
fn dnn_n17_with_a_measure() -> Circuit {
    use sv_sim::workloads::qnn::dnn_layers;
    let mut dnn = Circuit::with_cbits(17, 1);
    dnn.extend(&dnn_layers(17, 2, 7).unwrap()).unwrap();
    dnn.measure(16, 0).unwrap();
    dnn.extend(&dnn_layers(17, 1, 8).unwrap()).unwrap();
    dnn
}

/// Checksum, classical bits and tile-run counts of one run.
fn run_tiles(circuit: &Circuit, config: SimConfig) -> (u64, u64, (usize, usize)) {
    let (checksum, cbits, summary) = run_summary(circuit, config);
    (checksum, cbits, (summary.tile_runs, summary.tiled_kernels))
}

/// Checksum, classical bits and summary of one run.
fn run_summary(circuit: &Circuit, config: SimConfig) -> (u64, u64, sv_sim::core::RunSummary) {
    let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
    let summary = sim.run(circuit).unwrap();
    let checksum = sv_sim::core::state_checksum(sim.state());
    (checksum, summary.cbits, summary)
}

/// Tile-major execution at the shipped tile widths (2^15 amplitudes, then
/// 2^11 inside them) on one device: a 17-qubit state is four tiles, so the
/// preloaded walk sweeps its runs of tile-local kernels tile by tile, and
/// their sub-runs below qubit 11 sub-tile by sub-tile, while the
/// runtime-parse walk of the same circuit never tiles and is the reference.
/// On `square_root_n18` (the `deep_incache` circuit) and a `dnn_layers` with
/// a measure inside.
#[test]
fn tile_major_runs_agree_with_runtime_parsed_ones_at_the_shipped_tile_width() {
    let square_root = sv_sim::workloads::large_suite()
        .into_iter()
        .find(|spec| spec.name == "square_root_n18")
        .expect("a Table 4 routine");
    for (name, circuit, most) in [
        ("square_root_n18", square_root.circuit().unwrap(), true),
        ("dnn_layers(17)", dnn_n17_with_a_measure(), false),
    ] {
        let parse = SimConfig {
            dispatch: DispatchMode::RuntimeParse,
            ..SimConfig::single_device()
        };
        let (untiled_sum, untiled_cbits, none) = run_tiles(&circuit, parse);
        assert_eq!(none, (0, 0), "{name}: runtime parsing never tiles");
        let (sum, cbits, summary) = run_summary(&circuit, SimConfig::single_device());
        let (runs, kernels) = (summary.tile_runs, summary.tiled_kernels);
        let (inner_runs, inner) = (summary.inner_tile_runs, summary.inner_tiled_kernels);
        assert!(
            runs > 0 && kernels > 2 * runs,
            "{name}: {runs} runs of {kernels}"
        );
        assert!(
            inner_runs > 0 && inner >= 2 * inner_runs && inner <= kernels,
            "{name}: {inner_runs} sub-runs of {inner}"
        );
        let compiled = sv_sim::core::CompiledPlan::compile(&circuit, 17, &parse).n_kernels();
        // Most of the deep circuit's kernels ran in L2 tiles, and most of
        // those in L1 sub-tiles too.
        assert!(
            !most || (10 * kernels > 9 * compiled && 100 * inner >= 85 * compiled),
            "{name}: {kernels} and {inner} of {compiled}"
        );
        assert_eq!((sum, cbits), (untiled_sum, untiled_cbits), "{name}");
    }
}

/// Zero tiles at the shipped tile widths: every Table 4 circuit of at most
/// 20 qubits leaves the same state and classical bits on one device, which
/// skips the tiles its runs keep all `+0.0` and the finest tiles its kernels
/// leave alone, as under runtime parsing, which never tiles and so never
/// skips. The arithmetic circuits and the QFT, whose states stay sparse for
/// most of the run, do skip; `square_root_n18` more than the 978 tile and
/// sub-tile sweeps its tile runs alone skip, since kernels skip groups of
/// known-zero tiles too.
#[test]
fn zero_tile_skips_leave_the_suite_as_runtime_parsing_does() {
    use sv_sim::workloads::{large_suite, medium_suite};
    let sparse = [
        "square_root_n18",
        "bigadder_n18",
        "multiplier_n15",
        "qft_n20",
    ];
    let parse = SimConfig {
        dispatch: DispatchMode::RuntimeParse,
        ..SimConfig::single_device()
    };
    let mut skipped = 0;
    for spec in medium_suite().into_iter().chain(large_suite()) {
        let circuit = spec.circuit().unwrap();
        if circuit.n_qubits() > 20 {
            continue;
        }
        let name = spec.name;
        let (sum, cbits, summary) = run_summary(&circuit, SimConfig::single_device());
        let (want_sum, want_cbits, untiled) = run_summary(&circuit, parse);
        assert_eq!(
            untiled.zero_tiles, 0,
            "{name}: runtime parsing skips nothing"
        );
        assert_eq!((sum, cbits), (want_sum, want_cbits), "{name}");
        if sparse.contains(&name) {
            assert!(summary.zero_tiles > 0, "{name}: nothing skipped");
            skipped += 1;
        }
        if name == "square_root_n18" {
            let runs_alone = 978;
            assert!(
                summary.zero_tiles > runs_alone,
                "{name}: {}",
                summary.zero_tiles
            );
        }
    }
    assert_eq!(skipped, sparse.len(), "every sparse circuit was walked");
}

/// The same on thread PEs: at 2 PEs a 17-qubit slab is two tiles, so each PE
/// sweeps its tile runs tile by tile and passes one barrier per run; scale-up
/// and scale-out, remapped or not, agree with the single device. At 16
/// qubits — the benchmark's `scaleout_fine` shape — each slab is one L2
/// tile, so its runs are at the inner width, 2^11 amplitudes, one barrier
/// each (`backend.out2.barriers`), and the state is the untiled walk's.
#[test]
fn tile_major_runs_agree_across_thread_pes_at_the_shipped_tile_width() {
    let circuit = dnn_n17_with_a_measure();
    let (single_sum, single_cbits, _) = run_tiles(&circuit, SimConfig::single_device());
    let remapped = SimConfig {
        remap: true,
        ..SimConfig::scale_out(2)
    };
    for config in [SimConfig::scale_up(2), SimConfig::scale_out(2), remapped] {
        let (sum, cbits, (runs, kernels)) = run_tiles(&circuit, config);
        assert!(runs > 0 && kernels > 2 * runs, "{config:?}: {runs} runs");
        assert_eq!((sum, cbits), (single_sum, single_cbits), "{config:?}");
    }
    let fine = sv_sim::workloads::qnn::dnn_layers(16, 12, 1).unwrap();
    let (sum, cbits, summary) = run_summary(&fine, SimConfig::scale_out(2));
    let tiles = (summary.tile_runs, summary.tiled_kernels);
    let inner = (summary.inner_tile_runs, summary.inner_tiled_kernels);
    assert_eq!((tiles, inner), ((26, 406), (0, 0)));
    assert_eq!(summary.traffic[0].barriers, 612 - (406 - 26));
    let parse = SimConfig {
        dispatch: DispatchMode::RuntimeParse,
        ..SimConfig::scale_out(2)
    };
    let (untiled_sum, untiled_cbits, untiled) = run_summary(&fine, parse);
    assert_eq!((untiled.tile_runs, untiled.traffic[0].barriers), (0, 612));
    assert_eq!((sum, cbits), (untiled_sum, untiled_cbits));
}

/// One device below one L2 tile and a sweep template: a 13-qubit state and a
/// QAOA n12 trial tile at 2^11 alone, bit-identically to the untiled walk.
#[test]
fn memory_of_at_most_one_l2_tile_runs_in_l1_tiles() {
    use sv_sim::workloads::qnn::dnn_layers;
    let dnn = dnn_layers(13, 3, 4).unwrap();
    let parse = SimConfig {
        dispatch: DispatchMode::RuntimeParse,
        ..SimConfig::single_device()
    };
    let (sum, cbits, summary) = run_summary(&dnn, SimConfig::single_device());
    assert!(summary.tile_runs > 0 && summary.tiled_kernels > 2 * summary.tile_runs);
    assert_eq!(summary.inner_tile_runs, 0, "one level: 2^11");
    let (untiled_sum, untiled_cbits, none) = run_tiles(&dnn, parse);
    assert_eq!(none, (0, 0));
    assert_eq!((sum, cbits), (untiled_sum, untiled_cbits));

    use sv_sim::vqa::templates::{qaoa_params, qaoa_template};
    let graph = sv_sim::workloads::qaoa::Graph::random(12, 0.5, 9);
    let template = qaoa_template(&graph, 2).unwrap();
    let mut compiled = template.compile().unwrap();
    for trial in 0..3 {
        let t = f64::from(trial);
        let values = qaoa_params(&[0.3 + t, -0.8 * t], &[0.45 - t, 1.1 + t]);
        let swept = compiled.run(&values).unwrap();
        let circuit = template.bind(&values).unwrap();
        let (_, _, summary) = run_summary(&circuit, SimConfig::single_device());
        assert!(
            summary.tile_runs > 0,
            "trial {trial}: a 12-qubit trial tiles"
        );
        let mut untiled = Simulator::new(12, parse).unwrap();
        untiled.run(&circuit).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(swept.re()),
            bits(untiled.state().re()),
            "trial {trial}"
        );
        assert_eq!(
            bits(swept.im()),
            bits(untiled.state().im()),
            "trial {trial}"
        );
    }
}
