//! Run an OpenQASM 2.0 program end to end: parse, elaborate, simulate,
//! and print the measurement histogram.
//!
//! ```text
//! cargo run --release --example qasm_run            # built-in teleport demo
//! cargo run --release --example qasm_run -- file.qasm
//! ```

use sv_sim::core::{SimConfig, Simulator};
use sv_sim::qasm::parse_circuit;

/// Quantum teleportation with mid-circuit measurement and classically
/// controlled corrections — exercises `measure`, `if`, user gates, and the
/// qelib gate set.
const TELEPORT: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c0[1];
creg c1[1];
creg out[1];

gate payload a { ry(pi/3) a; }

// Prepare the state to teleport on q[0].
payload q[0];
// Bell pair between q[1] and q[2].
h q[1];
cx q[1], q[2];
// Bell measurement of q[0], q[1].
cx q[0], q[1];
h q[0];
measure q[0] -> c0[0];
measure q[1] -> c1[0];
// Corrections on q[2].
if (c1 == 1) x q[2];
if (c0 == 1) z q[2];
// Read out the teleported qubit.
measure q[2] -> out[0];
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => TELEPORT.to_string(),
    };
    let circuit = parse_circuit(&source)?;
    let stats = circuit.stats();
    println!(
        "parsed: {} qubits, {} cbits, {} gates ({} entangling), depth {}",
        circuit.n_qubits(),
        circuit.n_cbits(),
        stats.gates,
        stats.cx,
        stats.depth
    );

    // Run many shots: rebuild the simulator per shot because the circuit
    // contains mid-circuit measurement (collapse is stateful).
    let shots = 2000;
    let mut histogram = std::collections::BTreeMap::new();
    for shot in 0..shots {
        let mut sim = Simulator::new(
            circuit.n_qubits(),
            SimConfig {
                seed: 1000 + shot,
                ..SimConfig::single_device()
            },
        )?;
        let summary = sim.run(&circuit)?;
        *histogram.entry(summary.cbits).or_insert(0usize) += 1;
    }
    println!("classical-register histogram over {shots} shots:");
    for (bits, count) in &histogram {
        println!(
            "  {:0width$b} -> {count}",
            bits,
            width = circuit.n_cbits() as usize
        );
    }
    // For the teleport demo: the `out` bit (bit 2) should be 1 with
    // probability sin^2(pi/6) = 0.25 regardless of the syndrome bits.
    let p_out: f64 = histogram
        .iter()
        .filter(|(bits, _)| (*bits >> 2) & 1 == 1)
        .map(|(_, count)| *count as f64)
        .sum::<f64>()
        / shots as f64;
    println!("P(out = 1) = {p_out:.3} (payload RY(pi/3) gives 0.25)");
    Ok(())
}
