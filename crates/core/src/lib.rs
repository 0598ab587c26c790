//! The SV-Sim core simulator: specialized state-vector kernels over three
//! memory fabrics (single device, peer-access scale-up, SHMEM scale-out),
//! with function-pointer gate dispatch.
//!
//! Module map (paper section in parentheses):
//! - [`state`]: SoA state vector.
//! - [`view`]: the `StateView` fabric abstraction (§3.2).
//! - [`kernels`]: specialized gate kernels (§3.2.1).
//! - [`compile`]: gate → kernel resolution, the "upload" step.
//! - [`dispatch`]: preloaded fn-pointers vs. runtime parsing (Listing 1).
//! - [`plan`]: the one lowering, circuit → `CompiledPlan` of segments.
//! - [`exec`]: the one step interpreter every backend runs a segment
//!   through (Listings 3-5), and the partitioned SPMD launch.
//! - [`batch`]: sweep templates — a lowered segment plus patch sites (§7).
//! - [`measure`]: probabilities, partition collapse, sampling,
//!   expectations.
//! - [`traffic`]: exact analytic communication model.
//! - [`remap`]: communication-avoiding qubit relabeling for scale-out.
//! - [`checkpoint`]: checksummed state capture and the on-disk store.
//! - [`noise`]: Pauli-noise trajectories over the same simulator.
//! - [`sim`]: the `Simulator` facade.

pub mod batch;
pub mod checkpoint;
pub mod compile;
pub mod dispatch;
pub mod exec;
#[cfg(test)]
mod fixtures;
pub mod kernels;
pub mod measure;
pub mod noise;
pub mod plan;
pub mod remap;
pub mod sim;
pub mod state;
pub mod traffic;
pub mod view;

pub use batch::{CompiledTemplate, ParamCircuit, ParamValue};
pub use checkpoint::{state_checksum, Checkpoint, CheckpointStore, CommitCrash, Digest};
pub use compile::{CompiledGate, KernelId};
pub use exec::DispatchMode;
pub use noise::{sample_noisy_circuit, trajectory_average, NoiseModel};
pub use plan::{CompiledPlan, Scheduled};
pub use remap::{plan_remap, QubitLayout, RemapPlan};
pub use sim::{BackendKind, RunStart, RunSummary, SimConfig, Simulator};
pub use state::StateVector;
pub use svsim_shmem::ShmemBackend;
pub use traffic::GateTraffic;
pub use view::{LocalView, PeerView, Plane, ShmemView, StateView};

/// Returns `queue` unchanged, each range one kernel: the simulator has no
/// gate fusion. Kept with its old signature only because the frozen
/// benchmark (`benchmark/src/api.rs`) calls it; it goes, with
/// [`SimConfig::fuse`], in the next change allowed to edit `benchmark/`.
#[must_use]
pub fn fuse_compiled(
    queue: &[CompiledGate],
    _n_qubits: u32,
    _window: u8,
) -> (Vec<CompiledGate>, Vec<std::ops::Range<usize>>) {
    (queue.to_vec(), (0..queue.len()).map(|k| k..k + 1).collect())
}
