//! Figure 14: **measured** simulation-latency comparison of SV-Sim against
//! the baseline simulator designs (Qiskit-Aer-style generalized matrices,
//! Cirq-style interpretation, qsim-style fusion), all running on this
//! machine.
//!
//! The paper's claim: the specialized fn-pointer design is ~10x faster on
//! average than the framework simulators. Here everything runs on one CPU
//! core, so the ratio isolates exactly the software mechanisms the paper
//! credits: gate specialization + preloaded dispatch vs. dense generalized
//! updates and runtime parsing.

use svsim_baselines::{BaselineSim, FusionSim, GenericMatrixSim, InterpreterSim};
use svsim_bench::{fmt_time, print_table, time_median};
use svsim_core::{DispatchMode, SimConfig, Simulator};
use svsim_ir::Circuit;
use svsim_workloads::medium_suite;

fn strip_measurements(c: &Circuit) -> Circuit {
    let mut out = Circuit::new(c.n_qubits());
    for op in c.ops() {
        if let svsim_ir::Op::Gate(g) = op {
            out.push_gate(*g).expect("validated");
        }
    }
    out
}

fn main() {
    let reps = 5;
    let mut rows = Vec::new();
    let mut geo_means = [0.0f64; 4];
    let mut count = 0usize;
    for spec in medium_suite() {
        let c = strip_measurements(&spec.circuit().expect("workload builds"));
        let n = c.n_qubits();

        let t_svsim = time_median(reps, || {
            let mut sim = Simulator::new(n, SimConfig::single_device()).unwrap();
            sim.run(&c).unwrap();
            std::hint::black_box(sim.state().re()[0]);
        });
        let t_parse = time_median(reps, || {
            let mut sim = Simulator::new(
                n,
                SimConfig {
                    dispatch: DispatchMode::RuntimeParse,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            sim.run(&c).unwrap();
            std::hint::black_box(sim.state().re()[0]);
        });
        let t_generic = time_median(reps, || {
            let s = GenericMatrixSim.run(&c).unwrap();
            std::hint::black_box(s[0]);
        });
        let t_interp = time_median(reps, || {
            let s = InterpreterSim.run(&c).unwrap();
            std::hint::black_box(s[0]);
        });
        let t_fusion = time_median(reps, || {
            let s = FusionSim.run(&c).unwrap();
            std::hint::black_box(s[0]);
        });

        rows.push(vec![
            spec.name.to_string(),
            fmt_time(t_svsim),
            format!("{} ({:.1}x)", fmt_time(t_parse), t_parse / t_svsim),
            format!("{} ({:.1}x)", fmt_time(t_generic), t_generic / t_svsim),
            format!("{} ({:.1}x)", fmt_time(t_interp), t_interp / t_svsim),
            format!("{} ({:.1}x)", fmt_time(t_fusion), t_fusion / t_svsim),
        ]);
        geo_means[0] += (t_generic / t_svsim).ln();
        geo_means[1] += (t_interp / t_svsim).ln();
        geo_means[2] += (t_fusion / t_svsim).ln();
        geo_means[3] += (t_parse / t_svsim).ln();
        count += 1;
    }
    print_table(
        "Figure 14: measured latency, SV-Sim vs baseline simulator designs (single core)",
        &[
            "circuit",
            "SV-Sim",
            "SV-Sim/runtime-parse",
            "Aer-style generic",
            "Cirq-style interp",
            "qsim-style fusion",
        ],
        &rows,
    );
    println!(
        "\ngeometric-mean slowdown vs SV-Sim: generic {:.1}x, interpreter {:.1}x, \
         fusion {:.1}x, runtime-parse {:.2}x",
        (geo_means[0] / count as f64).exp(),
        (geo_means[1] / count as f64).exp(),
        (geo_means[2] / count as f64).exp(),
        (geo_means[3] / count as f64).exp(),
    );
    println!("paper shape: SV-Sim ~10x faster on average than Qiskit/Cirq/Q# simulators.");
}
