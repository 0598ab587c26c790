//! Quickstart: build a GHZ circuit, run it on every backend, sample it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sv_sim::core::{measure, SimConfig, Simulator};
use sv_sim::ir::{Circuit, GateKind, PauliString};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 5-qubit GHZ state: H on qubit 0, then a CX chain.
    let n = 5u32;
    let mut circuit = Circuit::new(n);
    circuit.apply(GateKind::H, &[0], &[])?;
    for q in 0..n - 1 {
        circuit.apply(GateKind::CX, &[q, q + 1], &[])?;
    }
    println!("circuit:\n{circuit}");

    // Run on the single-device backend.
    let mut sim = Simulator::new(
        n,
        SimConfig {
            seed: 7,
            ..SimConfig::single_device()
        },
    )?;
    let summary = sim.run(&circuit)?;
    println!("executed {} gates", summary.gates);
    let probs = sim.probabilities();
    println!(
        "P(|00000>) = {:.3}, P(|11111>) = {:.3}",
        probs[0],
        probs[(1 << n) - 1]
    );

    // Expectation values: GHZ correlations.
    let zz = PauliString::parse("ZZIII")?;
    println!("<Z0 Z1> = {:+.3}", sim.expval_pauli(&zz));
    let xxxxx = PauliString::parse("XXXXX")?;
    println!("<X0 X1 X2 X3 X4> = {:+.3}", sim.expval_pauli(&xxxxx));

    // Sample 1000 shots.
    let samples = sim.sample(1000);
    let hist = measure::histogram(&samples);
    println!("sampled histogram: {hist:?}");

    // The same circuit through the PGAS scale-out backend (4 SHMEM PEs).
    let mut shmem_sim = Simulator::new(
        n,
        SimConfig {
            seed: 7,
            ..SimConfig::scale_out(4)
        },
    )?;
    let summary = shmem_sim.run(&circuit)?;
    let traffic = summary.total_traffic();
    println!(
        "scale-out run: {} one-sided ops, {} remote ({} bytes over the fabric)",
        traffic.total_ops(),
        traffic.remote_ops(),
        traffic.remote_bytes()
    );
    assert!(shmem_sim.state().max_diff(sim.state()) < 1e-12);
    println!("scale-out state matches single-device state exactly.");
    Ok(())
}
