//! Job model: what clients submit, what they get back, and the handle that
//! connects the two across threads.

use crate::retry::{DegradePolicy, RetryPolicy};
use crate::templates::TemplateId;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use svsim_core::{RunSummary, SimConfig, StateVector};
use svsim_ir::Circuit;
use svsim_shmem::FaultPlan;
use svsim_types::SvError;

/// Scheduling class. Within a class the queue is FIFO; across classes
/// higher always dequeues first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive interactive requests.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Bulk sweeps that should yield to everything else.
    Low,
}

impl Priority {
    /// All classes, dequeue order.
    pub const ALL: [Self; 3] = [Self::High, Self::Normal, Self::Low];
}

/// Engine-assigned job identity (dense, submission-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What a sweep trial should deliver back to the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepReturn {
    /// The full final state vector (differential testing, small registers).
    State,
    /// `<Z-mask>` expectation of the final state — the VQA serving shape;
    /// costs no per-job allocation.
    ExpZ(u64),
}

/// The work itself.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A self-contained circuit executed on a pooled [`svsim_core::Simulator`].
    OneShot {
        /// The circuit (shared so a handle clone is cheap).
        circuit: Arc<Circuit>,
        /// Backend/dispatch/seed selection.
        config: SimConfig,
        /// Basis-state samples to draw after the run (0 = none).
        shots: usize,
        /// Return the final state vector alongside the summary.
        return_state: bool,
    },
    /// One parameter point of a registered template; the engine coalesces
    /// queued points of the same template into one batched execution.
    Sweep {
        /// Registered template.
        template: TemplateId,
        /// Parameter values for this trial.
        params: Vec<f64>,
        /// What to return.
        returning: SweepReturn,
    },
}

/// A job plus its scheduling envelope.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The work.
    pub spec: JobSpec,
    /// Scheduling class.
    pub priority: Priority,
    /// Drop the job (with [`JobError::Expired`]) if it has not *started*
    /// by this instant. Also honored *mid-sweep*: a coalesced batch checks
    /// each member's deadline again right before its execution.
    pub deadline: Option<Instant>,
    /// How transient failures (PE deaths, SHMEM breakdowns) are retried.
    pub retry: RetryPolicy,
    /// Injected-fault schedule for this job: threaded into scale-out
    /// launches and consulted for `Exec`-level faults. `None` in
    /// production; set by fault-injection tests and `sv-sim fault-bench`.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Recovery path beyond retry-in-place: in-place PE respawn or the
    /// halve-PEs degradation ladder.
    pub degrade: DegradePolicy,
    /// Directory for a crash-consistent on-disk checkpoint store. When
    /// set, every checkpoint the job captures is persisted as an atomic
    /// generation, and a retry whose in-memory checkpoint was lost (torn
    /// write, worker panic mid-mutation, degradation to a fresh simulator)
    /// recovers the newest loadable generation instead of rerunning from
    /// scratch.
    pub checkpoint_dir: Option<PathBuf>,
}

impl JobRequest {
    /// A normal-priority request with no deadline and no retries.
    #[must_use]
    pub fn new(spec: JobSpec) -> Self {
        Self {
            spec,
            priority: Priority::Normal,
            deadline: None,
            retry: RetryPolicy::default(),
            fault_plan: None,
            degrade: DegradePolicy::None,
            checkpoint_dir: None,
        }
    }
}

/// Successful job result.
#[derive(Debug)]
pub enum JobOutput {
    /// Result of a [`JobSpec::OneShot`].
    OneShot {
        /// Execution summary (gate count, classical bits, SHMEM traffic).
        summary: RunSummary,
        /// Final state, when requested.
        state: Option<StateVector>,
        /// Sampled outcome histogram, when `shots > 0`.
        samples: Option<BTreeMap<u64, usize>>,
    },
    /// Result of a [`JobSpec::Sweep`] trial.
    Sweep {
        /// Final state, for [`SweepReturn::State`].
        state: Option<StateVector>,
        /// Expectation value, for [`SweepReturn::ExpZ`].
        value: Option<f64>,
    },
}

/// Why a job did not produce output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Cancelled through its handle before execution started.
    Cancelled,
    /// Deadline passed while the job waited in the queue.
    Expired,
    /// The simulator reported an error.
    Failed(SvError),
    /// The engine shut down (non-draining) before the job ran.
    Shutdown,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cancelled => write!(f, "job cancelled"),
            Self::Expired => write!(f, "job deadline expired before execution"),
            Self::Failed(e) => write!(f, "job failed: {e}"),
            Self::Shutdown => write!(f, "engine shut down before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// Shared slot a worker fills and a client waits on.
#[derive(Debug, Default)]
pub(crate) struct JobCell {
    pub(crate) cancelled: AtomicBool,
    result: Mutex<Option<Result<JobOutput, JobError>>>,
    done: Condvar,
}

impl JobCell {
    pub(crate) fn finish(&self, result: Result<JobOutput, JobError>) {
        let mut slot = self.result.lock().expect("job cell lock");
        if slot.is_none() {
            *slot = Some(result);
        }
        self.done.notify_all();
    }
}

/// Client-side handle: await, poll, or cancel one submitted job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) cell: Arc<JobCell>,
}

impl JobHandle {
    /// The engine-assigned id.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Request cancellation. Jobs still in the queue are dropped when a
    /// worker reaches them; a job already executing runs to completion
    /// (kernels are not interruptible mid-gate-stream).
    pub fn cancel(&self) {
        self.cell.cancelled.store(true, Ordering::Release);
    }

    /// Block until the job finishes, taking the result. The result is
    /// consumed: call `wait` once per job, even across cloned handles.
    #[must_use = "the job result reports failures"]
    pub fn wait(&self) -> Result<JobOutput, JobError> {
        let mut slot = self.cell.result.lock().expect("job cell lock");
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.cell.done.wait(slot).expect("job cell lock");
        }
    }

    /// Like [`Self::wait`] but gives up after `timeout`, leaving the result
    /// in place for a later wait.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobOutput, JobError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.cell.result.lock().expect("job cell lock");
        loop {
            if slot.is_some() {
                return slot.take();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cell
                .done
                .wait_timeout(slot, deadline - now)
                .expect("job cell lock");
            slot = guard;
        }
    }

    /// Non-blocking poll; `None` while the job is still pending/running.
    pub fn try_take(&self) -> Option<Result<JobOutput, JobError>> {
        self.cell.result.lock().expect("job cell lock").take()
    }
}
