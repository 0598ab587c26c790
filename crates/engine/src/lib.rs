//! svsim-engine — a persistent job-scheduling and batching service layer
//! over the SV-Sim simulator.
//!
//! The paper's simulator is a library: construct, run one circuit, drop.
//! Real deployments (the paper's QAOA/QNN case studies, §6) instead issue
//! *streams* of mostly-similar circuits — parameter sweeps from an
//! optimizer, plus interactive one-shot requests. This crate adds the
//! serving layer that makes those streams cheap:
//!
//! - **one serving stage**: admitted jobs wait as memory-accounted packets
//!   in one bounded, priority-aware queue (first in, first out within a
//!   priority lane, with occupancy metrics), and each of
//!   [`EngineConfig::workers`] threads plans, runs and reads back the jobs
//!   it pops; an optional [`EngineConfig::memory_limit`] caps total
//!   in-flight state-vector bytes at admission, admission is
//!   reject-on-full (backpressure is explicit, never a silent stall), and
//!   the workers persist, so simulator setup cost is paid once, not per
//!   request;
//! - an **instance pool** reusing `2^n`-amplitude state vectors across
//!   jobs, keyed by register width: a shelf holds allocations, never
//!   tenants — each job's simulator is built around a checked-out buffer
//!   ([`svsim_core::Simulator::from_state`]) and consumed for it at
//!   readback, so nothing a job configured or attached outlives it;
//! - **micro-batching**: queued sweep jobs sharing a compiled
//!   [`svsim_core::CompiledTemplate`] are coalesced into one
//!   patch-and-execute loop over a single reused buffer;
//! - **per-job deadlines and cancellation**, honored at dequeue *and*
//!   re-checked mid-sweep before each batched execution;
//! - **retry and self-healing**: per-job [`RetryPolicy`] with exponential
//!   backoff and deterministic jitter, checkpoint-resuming re-execution of
//!   jobs killed by injected or real PE faults, in-place PE respawn where
//!   the job's `SimConfig::respawn_max` budgets it, a per-job
//!   [`DegradePolicy`] selecting the halve-PEs degradation ladder
//!   (resume-from-checkpoint at half the width), an optional
//!   crash-consistent on-disk checkpoint store per job, and a quarantine
//!   list that refuses job shapes which keep failing;
//! - **drain or hard shutdown**, and a [`MetricsSnapshot`] aggregating
//!   counts, latency histograms, SHMEM traffic, and robustness counters
//!   (retries, quarantined submissions, checkpoint bytes, recovery
//!   latency) across all jobs.
//!
//! ```
//! use svsim_engine::{Engine, EngineConfig, JobRequest, JobSpec};
//! use svsim_core::SimConfig;
//! use svsim_ir::{Circuit, GateKind};
//! use std::sync::Arc;
//!
//! let engine = Engine::start(EngineConfig {
//!     workers: 2,
//!     ..EngineConfig::default()
//! });
//! let mut bell = Circuit::new(2);
//! bell.apply(GateKind::H, &[0], &[]).unwrap();
//! bell.apply(GateKind::CX, &[0, 1], &[]).unwrap();
//! let handle = engine
//!     .submit(JobRequest::new(JobSpec::OneShot {
//!         circuit: Arc::new(bell),
//!         config: SimConfig::single_device(),
//!         shots: 100,
//!         return_state: false,
//!     }))
//!     .unwrap();
//! let output = handle.wait().unwrap();
//! # let _ = output;
//! let _final = engine.shutdown();
//! ```

#![warn(missing_docs)]

mod engine;
mod job;
mod metrics;
mod packet;
mod pool;
mod queue;
mod retry;
mod templates;
mod worker;

pub use engine::{Engine, EngineConfig};
pub use job::{JobError, JobHandle, JobId, JobOutput, JobRequest, JobSpec, Priority, SweepReturn};
pub use metrics::{EngineMetrics, LatencyHistogram, LatencySnapshot, MetricsSnapshot};
pub use packet::SubmitError;
pub use queue::StageSnapshot;
pub use retry::{retryable, DegradePolicy, RetryPolicy};
pub use templates::{TemplateId, TemplateInfo, TemplateRegistry};
