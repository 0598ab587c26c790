//! # sv-sim
//!
//! A from-scratch Rust reproduction of **SV-Sim: Scalable PGAS-Based State
//! Vector Simulation of Quantum Circuits** (Li et al., SC '21).
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `svsim-types` | complex numbers, index math, RNG, errors |
//! | [`ir`] | `svsim-ir` | gate ISA (Table 1), circuits, QIR gate set (Table 2) |
//! | [`qasm`] | `svsim-qasm` | OpenQASM 2.0 frontend |
//! | [`shmem`] | `svsim-shmem` | PGAS/SHMEM runtime substrate |
//! | [`core`] | `svsim-core` | the simulator backends (single-device, scale-up, scale-out) |
//! | [`perfmodel`] | `svsim-perfmodel` | platform performance model (Table 3, Figs. 6-13) |
//! | [`workloads`] | `svsim-workloads` | QASMBench-style circuits (Table 4), UCCSD, QNN |
//! | [`baselines`] | `svsim-baselines` | Aer/qsim/Q#-style comparison simulators (Fig. 14) |
//! | [`vqa`] | `svsim-vqa` | VQE and QNN training loops (Figs. 16-17, §5) |
//! | [`engine`] | `svsim-engine` | persistent job-scheduling + batching service layer |
//! | [`analyzer`] | `svsim-analyzer` | static + dynamic race analysis of the SHMEM protocol |
//! | [`verify`] | `svsim-verify` | exhaustive interleaving checker for the SHMEM protocols |
//!
//! ## Quickstart
//!
//! ```
//! use sv_sim::ir::{Circuit, GateKind};
//! use sv_sim::core::{SimConfig, Simulator};
//!
//! // 3-qubit GHZ state.
//! let mut c = Circuit::new(3);
//! c.apply(GateKind::H, &[0], &[]).unwrap();
//! c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
//! c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
//!
//! let mut sim = Simulator::new(3, SimConfig::single_device()).unwrap();
//! sim.run(&c).unwrap();
//! let p = sim.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12 && (p[7] - 0.5).abs() < 1e-12);
//! ```

pub use svsim_analyzer as analyzer;
pub use svsim_baselines as baselines;
pub use svsim_core as core;
pub use svsim_engine as engine;
pub use svsim_ir as ir;
pub use svsim_perfmodel as perfmodel;
pub use svsim_qasm as qasm;
pub use svsim_shmem as shmem;
pub use svsim_types as types;
pub use svsim_verify as verify;
pub use svsim_vqa as vqa;
pub use svsim_workloads as workloads;

/// Compiles and runs the README's Rust fences under `cargo test`, so its
/// snippets cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
