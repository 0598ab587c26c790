//! In-process PGAS/SHMEM runtime — the communication substrate of the
//! SV-Sim reproduction.
//!
//! The paper's scale-out design (§3.2.3) runs one SHMEM process per device,
//! partitions the state vector across the symmetric heap, and exchanges
//! amplitudes with fine-grained one-sided `put`/`get` initiated from inside
//! the compute kernel. No SHMEM fabric (NVSHMEM, OpenSHMEM, ROC_SHMEM) is
//! available in this environment, so this crate rebuilds the model in
//! process — exactly the surface Listing 5 uses, and no more:
//!
//! - [`world::launch_world`] starts an SPMD job; each PE receives a
//!   [`world::ShmemCtx`]. [`world::WorldOptions`] are all its choices:
//!   the substrate, a fault plan, and the race detector.
//! - [`world::ShmemCtx::malloc_f64`] is the collective symmetric allocation
//!   (`nvshmem_malloc`).
//! - `get_f64`/`put_f64` are `nvshmem_double_g`/`nvshmem_double_p`;
//!   slice variants model `shmem_getmem`/`putmem`; `sum_reduce_f64_at` is
//!   the one collective the simulator's measurements need.
//! - [`world::ShmemCtx::try_barrier_all`] is `shmem_barrier_all`, built on
//!   a sense-reversing atomic barrier ([`barrier`]); like every collective
//!   that can fail, it returns a typed `SvResult`.
//! - Every access is classified local/remote and counted ([`metrics`]);
//!   the traffic profile drives the interconnect performance model in
//!   `svsim-perfmodel`.
//! - Failure is a first-class code path, and a value: [`fault::FaultPlan`]
//!   injects deterministic PE kills, dropped/delayed transfers and poisoned
//!   barriers; a fault on a PE is a typed `SvError::PeFailed` at that PE's
//!   next barrier (and in its run's result), its peers' barriers return
//!   the poisoned report so they shut down cleanly, and
//!   [`world::launch_world`] reports per-PE `Result`s. Nothing unwinds: a
//!   panic in a PE is a bug (caught and reported typed all the same).
//!
//! Two interchangeable substrates run the same SPMD body. The choice is
//! one value the world owns, made at launch; [`world::ShmemCtx`] is one
//! non-generic type that never asks which it is on, and both substrates
//! drive the same model-checked [`proto`] machines — one barrier wait
//! loop ([`barrier`]), one fault-check routine ([`fault`]) — over their
//! own words:
//!
//! - **Thread-backed** (the default): PEs are threads of this process.
//!   Supports the dynamic race detector
//!   ([`world::WorldOptions::detect_races`]), whose reports come back in
//!   [`world::SpmdOutput::races`].
//! - **Process-backed** ([`proc::ShmemBackend::Process`]): PEs are forked OS
//!   processes over a `memfd_create` + `mmap(MAP_SHARED)` symmetric heap.
//!   True crash isolation — a PE can be `kill -9`-ed mid-epoch and the
//!   launcher reaps it into a typed `SvError::PeFailed` with a
//!   [`svsim_types::PeOp::Term`] record (signal, exit code, barrier epoch
//!   at death) while surviving PEs release through the poisoned barrier.
//!   A parent-side supervisor additionally watches per-PE heartbeat words
//!   (hang detection → `SvError::PeHung`), distinguishes a bounded-wait
//!   barrier expiry (`SvError::BarrierTimeout`) from a peer death, and —
//!   when a respawn budget is configured — re-forks only the dead/hung PE
//!   and re-runs the round on the surviving processes ([`RespawnEvent`]).

pub mod barrier;
pub mod fault;
pub mod metrics;
pub mod proc;
pub mod proto;
pub mod race;
pub mod shared;
pub mod world;

pub use barrier::{BarrierPoisoned, BarrierToken, SenseBarrier};
pub use fault::{FaultAction, FaultPlan, FaultSpec};
pub use metrics::{MetricsTable, PeCounters, TrafficSnapshot};
pub use proc::{launch_process, ProcOptions, RespawnEvent, ShmemBackend, Wire};
pub use proto::{AtomicWords, MemOrder, ProtoMem};
pub use race::{ConflictKind, RaceAccess, RaceReport, MAX_TRACKED_PES};
pub use shared::SharedF64Vec;
pub use world::{launch, launch_world, JobOutput, ShmemCtx, SpmdOutput, SymF64, WorldOptions};
