//! Batched-VQA ablation: compile-once parameter patching vs full circuit
//! re-synthesis per trial (the paper's §7 future-work direction), measured
//! on this machine as the median of 10 timed runs of 16 trials each.

use svsim_bench::{fmt_time, print_table, time_median};
use svsim_core::{ParamCircuit, ParamValue, SimConfig, Simulator};
use svsim_ir::GateKind;

/// A hardware-efficient ansatz: L layers of RY/RZ + CX ring on n qubits.
fn ansatz(n: u32, layers: u32) -> ParamCircuit {
    let mut t = ParamCircuit::new(n);
    let mut var = 0usize;
    for q in 0..n {
        t.push_fixed(GateKind::H, &[q], &[]).unwrap();
    }
    for _ in 0..layers {
        for q in 0..n {
            t.push(GateKind::RY, &[q], &[ParamValue::Var(var)]).unwrap();
            var += 1;
            t.push(GateKind::RZ, &[q], &[ParamValue::Var(var)]).unwrap();
            var += 1;
        }
        for q in 0..n {
            t.push_fixed(GateKind::CX, &[q, (q + 1) % n], &[]).unwrap();
        }
    }
    t
}

fn main() {
    let n = 6u32;
    let template = ansatz(n, 8);
    let n_vars = template.n_vars();
    let trials: Vec<Vec<f64>> = (0..16)
        .map(|i| (0..n_vars).map(|j| 0.01 * (i * j) as f64).collect())
        .collect();
    let reps = 10;
    let mut compiled = template.compile().unwrap();
    let t_patch = time_median(reps, || {
        for v in &trials {
            let s = compiled.run(v).unwrap();
            std::hint::black_box(s.re()[0]);
        }
    });
    let t_resynth = time_median(reps, || {
        for v in &trials {
            let circuit = template.bind(v).unwrap();
            let mut sim = Simulator::new(n, SimConfig::single_device()).unwrap();
            sim.run(&circuit).unwrap();
            std::hint::black_box(sim.state().re()[0]);
        }
    });
    print_table(
        "Batched VQA: 16 trials of a 6-qubit, 8-layer ansatz",
        &["path", "16 trials", "vs patch"],
        &[
            vec![
                "compiled_template_patch".into(),
                fmt_time(t_patch),
                "1.0x".into(),
            ],
            vec![
                "resynthesize_per_trial".into(),
                fmt_time(t_resynth),
                format!("{:.1}x", t_resynth / t_patch),
            ],
        ],
    );
}
