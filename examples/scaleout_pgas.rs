//! The PGAS mechanics up close: run a circuit on the SHMEM scale-out
//! backend, compare measured one-sided traffic against the closed-form
//! prediction, and price the same circuit on the modeled Summit fabric.
//!
//! ```text
//! cargo run --release --example scaleout_pgas
//! ```

use sv_sim::core::{CompiledPlan, SimConfig, Simulator};
use sv_sim::perfmodel::{devices, interconnects, scale_out};
use sv_sim::workloads::algos::qft;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12u32;
    let circuit = qft(n)?;
    println!("QFT on {n} qubits: {} gates", circuit.stats().gates);

    for n_pes in [2usize, 4, 8] {
        let mut sim = Simulator::new(n, SimConfig::scale_out(n_pes))?;
        let predicted = sim.predict_traffic(&circuit);
        let summary = sim.run(&circuit)?;
        let measured = summary.total_traffic();
        println!(
            "\n{n_pes} PEs: measured {} remote one-sided ops ({} bytes), predicted {} \
             amplitude ops ({} bytes)",
            measured.remote_ops(),
            measured.remote_bytes(),
            predicted.remote_amp_ops,
            predicted.remote_bytes,
        );
        // The SHMEM fabric moves re and im separately: 2 f64 ops per
        // amplitude op — the prediction is exact.
        assert_eq!(measured.remote_ops(), 2 * predicted.remote_amp_ops);
        println!(
            "  remote fraction {:.1}% | barriers {}",
            predicted.remote_fraction() * 100.0,
            measured.barriers
        );
    }

    // Price a Summit-scale run of the same circuit shape at n=20.
    let big = qft(20)?;
    let plan = CompiledPlan::compile(&big, 20, &SimConfig::single_device());
    println!("\nmodeled Summit latency for QFT-20:");
    for pes in [32u64, 128, 512, 1024] {
        let t = scale_out(
            &devices::POWER9,
            &interconnects::SUMMIT_IB,
            &plan,
            pes,
            32,
            60.0,
        );
        println!(
            "  {pes:>5} CPU PEs: {:>9.3} ms (compute {:.0}%, comm {:.0}%, sync {:.0}%)",
            t.total() * 1e3,
            100.0 * t.compute_s / t.total(),
            100.0 * t.comm_s / t.total(),
            100.0 * t.sync_s / t.total(),
        );
    }
    Ok(())
}
