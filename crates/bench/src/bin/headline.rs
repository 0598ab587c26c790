//! The paper's headline result: "using SV-Sim, the 16-GPU DGX-2 machine
//! can simulate a 24-qubit 2.3M-gate VQE circuit in 3.5 mins" (196 s).
//!
//! We price one UCCSD-VQE iteration at 24 qubits on the modeled DGX-2.

use svsim_core::{CompiledPlan, SimConfig};
use svsim_perfmodel::{devices, interconnects, scale_up};
use svsim_workloads::{uccsd_gate_count, UccsdAnsatz};

fn main() {
    let n = 24u32;
    let ansatz = UccsdAnsatz::new(n, n / 2);
    let gates = uccsd_gate_count(n, n / 2);
    println!(
        "24-qubit half-filling UCCSD: {} parameters, {gates} gates per iteration",
        ansatz.n_params()
    );

    // Pricing uses a representative compiled gate mix. Materializing 1M+
    // gates is wasteful; instead compile one single and one double
    // excitation and scale by the term counts.
    let singles = ansatz.singles().len() as f64;
    let doubles = ansatz.doubles().len() as f64;
    let probe_s = {
        let mut a = svsim_ir::Circuit::new(n);
        let s =
            svsim_ir::pauli::PauliString::parse(&("YZZZZZZZZZZZX".to_owned() + &"I".repeat(11)))
                .unwrap();
        for g in svsim_ir::pauli::exp_pauli_gates(0.1, &s) {
            a.push_gate(g).unwrap();
        }
        a
    };
    let probe_d = {
        let mut a = svsim_ir::Circuit::new(n);
        let s =
            svsim_ir::pauli::PauliString::parse(&("XXZZZZZZZZZZYX".to_owned() + &"I".repeat(10)))
                .unwrap();
        for g in svsim_ir::pauli::exp_pauli_gates(0.1, &s) {
            a.push_gate(g).unwrap();
        }
        a
    };
    let plan_s = CompiledPlan::compile(&probe_s, n, &SimConfig::single_device());
    let plan_d = CompiledPlan::compile(&probe_d, n, &SimConfig::single_device());
    for gpus in [1u64, 4, 16] {
        let t_single = scale_up(&devices::V100, &interconnects::NVSWITCH, &plan_s, gpus).total();
        let t_double = scale_up(&devices::V100, &interconnects::NVSWITCH, &plan_d, gpus).total();
        // 2 Pauli terms per single, 8 per double; probes hold 2 and 8 resp.
        let total = singles * t_single + doubles * t_double;
        println!(
            "modeled {gpus:>2}x V100 (DGX-2): one VQE iteration = {:.0} s",
            total
        );
    }
    println!("paper (measured on DGX-2 hardware): 196 s on 16 GPUs");
}
