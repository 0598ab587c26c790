//! Job packets and the in-flight memory budget.
//!
//! A job waits in the queue as a [`JobPacket`]: the queued job plus what
//! admission computed for it (its fingerprints) and the [`BudgetLease`]
//! pinning its share of the engine's in-flight allocation budget. The
//! lease is RAII — whatever path a packet takes (published, cancelled,
//! expired, dropped at shutdown), dropping the packet releases its
//! budget, so the accounting cannot leak.

use crate::engine::Shared;
use crate::job::{JobCell, JobError, JobRequest, JobSpec, Priority};
use crate::templates::{TemplateId, TemplateRegistry};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::stage::StageItem;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; try again later.
    QueueFull,
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// A sweep job referenced a template id the engine does not know.
    UnknownTemplate(TemplateId),
    /// A sweep job supplied fewer parameters than its template requires.
    BadParamCount {
        /// Parameters the template requires.
        expected: usize,
        /// Parameters the job supplied.
        got: usize,
    },
    /// An identical job has already failed repeatedly; the engine refuses
    /// it until the quarantine is lifted (degradation instead of burning
    /// workers on a poison job).
    Quarantined {
        /// Consecutive final failures recorded for this job shape.
        failures: u32,
    },
    /// Admitting this job would push the engine's in-flight state-vector
    /// bytes over the [`crate::AllocMode::LimitMemory`] cap; try again
    /// once in-flight work drains.
    MemoryExceeded {
        /// Bytes this job would pin while in flight.
        needed: u64,
        /// The configured in-flight byte cap.
        limit: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "queue full, job rejected"),
            Self::ShuttingDown => write!(f, "engine shutting down, job rejected"),
            Self::UnknownTemplate(id) => write!(f, "unknown template {id}"),
            Self::BadParamCount { expected, got } => {
                write!(
                    f,
                    "template needs {expected} parameters, job supplied {got}"
                )
            }
            Self::Quarantined { failures } => {
                write!(f, "job quarantined after {failures} repeated failures")
            }
            Self::MemoryExceeded { needed, limit } => {
                write!(
                    f,
                    "job needs {needed} in-flight bytes, over the {limit}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A submitted job: the request, its result cell, and when it was admitted.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub(crate) request: JobRequest,
    pub(crate) cell: Arc<JobCell>,
    pub(crate) enqueued_at: Instant,
}

impl QueuedJob {
    /// The template id if this is a sweep job (the coalescing key).
    pub(crate) fn template(&self) -> Option<TemplateId> {
        match &self.request.spec {
            JobSpec::Sweep { template, .. } => Some(*template),
            JobSpec::OneShot { .. } => None,
        }
    }
}

/// How the engine bounds in-flight work (admitted but not yet published).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// At most this many packets in flight; the default is effectively
    /// unbounded (`usize::MAX`), leaving the queue's capacity as the only
    /// limit. Exhaustion refuses admission with
    /// [`SubmitError::QueueFull`].
    Fixed(usize),
    /// Cap the total state-vector bytes pinned by in-flight packets
    /// (16 bytes per amplitude: an f64 real and imaginary plane).
    /// Exhaustion refuses admission with [`SubmitError::MemoryExceeded`].
    LimitMemory(u64),
}

impl Default for AllocMode {
    fn default() -> Self {
        Self::Fixed(usize::MAX)
    }
}

/// State-vector bytes a job pins while in flight: `16 * 2^n` for the
/// register it executes on (one-shot width, or the sweep template's).
pub(crate) fn packet_bytes(spec: &JobSpec, registry: &TemplateRegistry) -> u64 {
    let n_qubits = match spec {
        JobSpec::OneShot { circuit, .. } => circuit.n_qubits(),
        JobSpec::Sweep { template, .. } => registry.info(*template).map_or(0, |info| info.n_qubits),
    };
    16u64.saturating_mul(1u64 << u64::from(n_qubits).min(59))
}

/// The engine-wide in-flight allocation budget.
#[derive(Debug)]
pub(crate) struct MemoryBudget {
    mode: AllocMode,
    packets: AtomicU64,
    bytes: AtomicU64,
    high_water_bytes: AtomicU64,
}

impl MemoryBudget {
    pub(crate) fn new(mode: AllocMode) -> Self {
        Self {
            mode,
            packets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
        }
    }

    /// Reserve `needed` bytes (and one packet slot) for a job about to be
    /// admitted, or refuse with the mode's typed error. The returned lease
    /// releases the reservation when dropped.
    pub(crate) fn try_admit(self: &Arc<Self>, needed: u64) -> Result<BudgetLease, SubmitError> {
        match self.mode {
            AllocMode::Fixed(max_packets) => {
                let admitted =
                    self.packets
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                            (p < max_packets as u64).then_some(p + 1)
                        });
                if admitted.is_err() {
                    return Err(SubmitError::QueueFull);
                }
                self.bytes.fetch_add(needed, Ordering::Relaxed);
            }
            AllocMode::LimitMemory(limit) => {
                let admitted = self
                    .bytes
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                        b.checked_add(needed).filter(|&total| total <= limit)
                    });
                if admitted.is_err() {
                    return Err(SubmitError::MemoryExceeded { needed, limit });
                }
                self.packets.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.high_water_bytes
            .fetch_max(self.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(BudgetLease {
            budget: Arc::clone(self),
            bytes: needed,
        })
    }

    /// Bytes pinned by in-flight packets right now.
    pub(crate) fn in_flight_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Highest in-flight byte total ever reached.
    pub(crate) fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes.load(Ordering::Relaxed)
    }

    /// The byte cap, when running under [`AllocMode::LimitMemory`].
    pub(crate) fn limit_bytes(&self) -> Option<u64> {
        match self.mode {
            AllocMode::Fixed(_) => None,
            AllocMode::LimitMemory(limit) => Some(limit),
        }
    }
}

/// RAII reservation against the [`MemoryBudget`]; dropping it releases the
/// packet's bytes and slot, whichever exit path the packet took.
pub(crate) struct BudgetLease {
    budget: Arc<MemoryBudget>,
    bytes: u64,
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.budget.packets.fetch_sub(1, Ordering::Relaxed);
        self.budget.bytes.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for BudgetLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetLease")
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// A job in flight, with what admission computed for it.
#[derive(Debug)]
pub(crate) struct JobPacket {
    /// The job itself (request, result cell, enqueue instant).
    pub(crate) job: QueuedJob,
    /// Fingerprint computed once at admission (quarantine key); `None`
    /// when quarantining is off.
    pub(crate) fp: Option<u64>,
    /// Digest of a one-shot's circuit, filled by the first step that needs
    /// it (the quarantine key or the plan cache), so the circuit is
    /// rendered at most once.
    pub(crate) circuit_fp: OnceCell<u64>,
    /// In-flight budget reservation; never read, held only so dropping
    /// the packet releases it.
    #[allow(dead_code)]
    pub(crate) lease: BudgetLease,
}

impl JobPacket {
    /// The end of the job's queue wait, recorded, and the cancel/deadline
    /// re-check, right where the job would start executing (at pickup, or
    /// before its own trial in a sweep batch): a job cancelled, or past its
    /// deadline at `now`, is finished here with the typed error (and
    /// counted) instead of running; a live one is handed back.
    pub(crate) fn still_wanted(self, shared: &Shared, now: Instant) -> Option<Self> {
        let waited = now.saturating_duration_since(self.job.enqueued_at);
        shared.metrics.queue_wait.record(waited);
        let (counter, err) = if self.job.cell.cancelled.load(Ordering::Acquire) {
            (&shared.metrics.cancelled, JobError::Cancelled)
        } else if self.job.request.deadline.is_some_and(|d| now > d) {
            (&shared.metrics.expired, JobError::Expired)
        } else {
            return Some(self);
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.job.cell.finish(Err(err));
        None
    }
}

impl StageItem for JobPacket {
    fn lane(&self) -> usize {
        match self.job.request.priority {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    fn coalesce_key(&self) -> Option<TemplateId> {
        self.job.template()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_lease_releases_on_panic_unwind() {
        // A stage thread that panics mid-packet unwinds the packet — and
        // with it the lease. The in-flight accounting must return to
        // zero, or the engine slowly loses admission capacity to every
        // quarantined job.
        let budget = Arc::new(MemoryBudget::new(AllocMode::LimitMemory(1 << 20)));
        let b2 = Arc::clone(&budget);
        let unwound = std::panic::catch_unwind(move || {
            let _lease = b2.try_admit(4096).expect("well under the limit");
            panic!("stage thread dies holding a lease");
        });
        assert!(unwound.is_err());
        assert_eq!(budget.in_flight_bytes(), 0, "lease leaked on unwind");
        assert_eq!(budget.high_water_bytes(), 4096, "reservation was real");
    }

    #[test]
    fn memory_budget_refuses_and_rolls_back_cleanly() {
        let budget = Arc::new(MemoryBudget::new(AllocMode::LimitMemory(1000)));
        let held = budget.try_admit(800).expect("fits");
        let err = budget.try_admit(300).expect_err("would exceed the cap");
        assert!(matches!(
            err,
            SubmitError::MemoryExceeded {
                needed: 300,
                limit: 1000
            }
        ));
        // The refused admission must not have charged anything.
        assert_eq!(budget.in_flight_bytes(), 800);
        drop(held);
        assert_eq!(budget.in_flight_bytes(), 0);
        assert!(budget.try_admit(1000).is_ok(), "full cap free again");
    }
}
