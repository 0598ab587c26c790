//! The MPI-style communication baseline — the strategy the paper argues
//! *against* (§1-§2).
//!
//! Traditional distributed state-vector simulators route amplitude
//! exchange through CPU-managed MPI: per gate, remote elements are packed
//! into per-peer buffers, staged through host memory (for accelerators),
//! sent as coarse messages, and unpacked — serializing communication
//! against computation and adding device<->host hops. This module prices
//! that pipeline on the same traffic counts the SHMEM estimator uses, so
//! the two communication models can be compared like-for-like (the
//! `ablation_comm` binary).

use crate::estimator::{fold, no_exchange, LatencyBreakdown, Roofline};
use crate::platform::{DeviceSpec, InterconnectSpec};
use svsim_core::traffic::gate_traffic;
use svsim_core::CompiledPlan;

/// Parameters of the CPU-managed MPI pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiPipeline {
    /// Per-message software latency (matching + progress engine), us.
    pub msg_latency_us: f64,
    /// Device->host->device staging bandwidth (PCIe-style), GB/s; `None`
    /// for CPU-resident data (no staging hop).
    pub staging_bw_gbps: Option<f64>,
    /// Pack + unpack memory-copy bandwidth, GB/s.
    pub pack_bw_gbps: f64,
    /// Kernel relaunch cost per gate (the accelerator must return control
    /// to the CPU between communication phases), us.
    pub relaunch_us: f64,
}

impl MpiPipeline {
    /// MPI over a GPU cluster: staging over PCIe, kernel relaunch per gate.
    #[must_use]
    pub fn gpu_cluster() -> Self {
        Self {
            msg_latency_us: 2.0,
            staging_bw_gbps: Some(12.0),
            pack_bw_gbps: 20.0,
            relaunch_us: 20.0, // the ~20us per kernel call the paper cites
        }
    }

    /// MPI between CPU ranks: no staging hop, but packing and per-message
    /// latency remain.
    #[must_use]
    pub fn cpu_cluster() -> Self {
        Self {
            msg_latency_us: 1.5,
            staging_bw_gbps: None,
            pack_bw_gbps: 25.0,
            relaunch_us: 0.0,
        }
    }
}

/// Latency of a plan under MPI-style coarse communication.
///
/// Per kernel: roofline compute (same as SHMEM) + pack/unpack copies +
/// staging hops + `2 * (P-1)` coarse messages (exchange with every peer
/// holding needed amplitudes; bounded by the actual communicating-peer
/// count) + kernel relaunch. No computation/communication overlap.
///
/// # Panics
/// If `plan` is a remapped scale-out plan with relabeling exchanges.
#[must_use]
pub fn mpi_latency(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    plan: &CompiledPlan,
    n_workers: u64,
) -> LatencyBreakdown {
    let pipe = if dev.cache_mib > 0.0 {
        MpiPipeline::cpu_cluster()
    } else {
        MpiPipeline::gpu_cluster()
    };
    let n_qubits = plan.n_qubits();
    let roof = Roofline::new(dev, n_qubits, n_workers);
    let fabric_bw = ic.aggregate_bw(n_workers) * 1e9;
    let w = n_workers as f64;
    fold(
        plan,
        |cg, out| {
            let t = gate_traffic(cg, n_qubits, n_workers);
            out.compute_s += roof.time(&t);
            if t.remote_amp_ops > 0 {
                let remote_bytes = t.remote_bytes as f64;
                // Pack on the sender, unpack on the receiver.
                let mut comm = 2.0 * remote_bytes / (pipe.pack_bw_gbps * 1e9 * w);
                // Stage through the host on accelerators (out and back).
                if let Some(staging) = pipe.staging_bw_gbps {
                    comm += 2.0 * remote_bytes / (staging * 1e9 * w);
                }
                // Coarse messages: each worker exchanges with each partner
                // whose partition it touches — at most P-1, at least 1.
                let partners = (w - 1.0).max(1.0);
                comm += partners * pipe.msg_latency_us * 1e-6;
                // Wire time on the same fabric as SHMEM.
                comm += remote_bytes / fabric_bw;
                out.comm_s += comm;
                // CPU/device round trip to orchestrate the exchange.
                out.sync_s += pipe.relaunch_us * 1e-6;
            }
            out.sync_s += dev.gate_overhead_us * 1e-6;
        },
        no_exchange,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::scale_up;
    use crate::platform::{devices, interconnects};
    use svsim_core::SimConfig;
    use svsim_ir::Circuit;

    fn plan(c: &Circuit) -> CompiledPlan {
        CompiledPlan::compile(c, c.n_qubits(), &SimConfig::single_device())
    }

    /// The paper's core claim: fine-grained one-sided SHMEM beats the
    /// CPU-managed MPI pipeline for partitioned state-vector simulation.
    #[test]
    fn shmem_beats_mpi_on_gpu_cluster() {
        let plan = plan(&svsim_workloads::algos::qft(15).unwrap());
        for workers in [2u64, 4, 8, 16] {
            let shmem = scale_up(&devices::V100, &interconnects::NVSWITCH, &plan, workers).total();
            let mpi = mpi_latency(&devices::V100, &interconnects::NVSWITCH, &plan, workers).total();
            assert!(
                mpi > 2.0 * shmem,
                "at {workers} workers MPI ({mpi:.2e}s) must clearly trail SHMEM ({shmem:.2e}s)"
            );
        }
    }

    #[test]
    fn mpi_gap_grows_with_gate_count() {
        // The per-gate relaunch + packing overhead is linear in depth: the
        // deeper the circuit, the worse MPI gets relative to SHMEM.
        let shallow = plan(&svsim_workloads::algos::ghz(14).unwrap());
        let deep = plan(&svsim_workloads::algos::qft(14).unwrap());
        let ratio = |plan: &CompiledPlan| {
            let shmem = scale_up(&devices::V100, &interconnects::NVSWITCH, plan, 8).total();
            let mpi = mpi_latency(&devices::V100, &interconnects::NVSWITCH, plan, 8).total();
            mpi / shmem
        };
        assert!(ratio(&deep) > 1.0);
        assert!(ratio(&shallow) > 1.0);
    }

    #[test]
    fn cpu_pipeline_has_no_staging() {
        // CPU MPI (no PCIe hop, no relaunch) is penalized less than GPU MPI
        // relative to its SHMEM counterpart.
        let plan = plan(&svsim_workloads::algos::qft(14).unwrap());
        let cpu_mpi = mpi_latency(&devices::POWER9, &interconnects::SUMMIT_IB, &plan, 8);
        let gpu_mpi = mpi_latency(&devices::V100, &interconnects::NVSWITCH, &plan, 8);
        // GPU pipeline pays relaunch costs in sync_s.
        assert!(gpu_mpi.sync_s > cpu_mpi.sync_s);
    }
}
