//! Analytic performance model of the SV-Sim evaluation platforms.
//!
//! The paper's Figures 6-13 measure latency on six HPC systems (Table 3).
//! This crate models those systems — roofline devices plus interconnect
//! contention — and prices a circuit's `CompiledPlan`, the lowering a run
//! executes, from the exact per-kernel traffic counts of `svsim-core`. The model is calibrated to reproduce the paper's
//! *relative* results (who wins, where crossovers and sweet spots fall);
//! absolute times are indicative. Substitution rationale in DESIGN.md.

pub mod estimator;
pub mod mpi_baseline;
pub mod platform;

pub use estimator::{estimate_single, scale_out, scale_up, single_device, LatencyBreakdown};
pub use mpi_baseline::{mpi_latency, MpiPipeline};
pub use platform::{devices, interconnects, table3, DeviceSpec, InterconnectSpec, Topology};
