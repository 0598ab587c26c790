//! Communication-model ablation: fine-grained one-sided SHMEM (the paper's
//! contribution) vs CPU-managed coarse MPI (the prior art it replaces).
//!
//! Both pipelines are priced on the same plan's per-kernel traffic; the MPI model
//! adds the pack/stage/coarse-message/relaunch costs of §1-§2.

use svsim_bench::print_table;
use svsim_core::{CompiledPlan, SimConfig};
use svsim_perfmodel::{devices, interconnects, mpi_latency, scale_up};
use svsim_workloads::medium_suite;

fn main() {
    for (label, dev, ic) in [
        (
            "V100 GPUs over NVSwitch (16 workers)",
            &devices::V100,
            &interconnects::NVSWITCH,
        ),
        (
            "POWER9 cores over InfiniBand (16 workers)",
            &devices::POWER9,
            &interconnects::SUMMIT_IB,
        ),
    ] {
        let mut rows = Vec::new();
        for spec in medium_suite() {
            let c = spec.circuit().expect("workload builds");
            let plan = CompiledPlan::compile(&c, c.n_qubits(), &SimConfig::single_device());
            let shmem = scale_up(dev, ic, &plan, 16);
            let mpi = mpi_latency(dev, ic, &plan, 16);
            rows.push(vec![
                spec.name.to_string(),
                svsim_bench::fmt_time(shmem.total()),
                svsim_bench::fmt_time(mpi.total()),
                format!("{:.1}x", mpi.total() / shmem.total()),
                format!(
                    "{:.0}% / {:.0}%",
                    100.0 * shmem.comm_s / shmem.total(),
                    100.0 * mpi.comm_s / mpi.total()
                ),
            ]);
        }
        print_table(
            &format!("Communication ablation: SHMEM vs MPI — {label}"),
            &[
                "circuit",
                "SHMEM",
                "MPI",
                "MPI/SHMEM",
                "comm share (SHMEM/MPI)",
            ],
            &rows,
        );
    }
    println!(
        "\nthe paper's motivating claim: device-initiated fine-grained one-sided\n\
         communication removes the pack/stage/relaunch pipeline that dominates\n\
         CPU-managed MPI for this access pattern."
    );
}
