//! Job packets and the in-flight memory budget.
//!
//! A job waits in the queue as a [`JobPacket`]: the request, its result
//! cell, what admission computed for it (its fingerprints) and the
//! [`BudgetLease`] pinning its share of the engine's in-flight allocation
//! budget. The lease is RAII — whatever path a packet takes (published,
//! cancelled, expired, dropped at shutdown), dropping the packet releases
//! its budget, so the accounting cannot leak.

use crate::engine::Shared;
use crate::job::{JobCell, JobError, JobRequest, JobSpec, Priority};
use crate::queue::StageItem;
use crate::templates::{TemplateId, TemplateRegistry};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// bytes over [`crate::EngineConfig::memory_limit`]; try again
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
    limit: Option<u64>,
    bytes: AtomicU64,
    high_water_bytes: AtomicU64,
}

impl MemoryBudget {
    pub(crate) fn new(limit: Option<u64>) -> Self {
        Self {
            limit,
            bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
        }
    }

    /// Reserve `needed` bytes for a job about to be admitted, or refuse
    /// with [`SubmitError::MemoryExceeded`] if they would cross the limit.
    /// The returned lease releases the reservation when dropped.
    pub(crate) fn try_admit(self: &Arc<Self>, needed: u64) -> Result<BudgetLease, SubmitError> {
        let limit = self.limit.unwrap_or(u64::MAX);
        let before = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                b.checked_add(needed).filter(|&total| total <= limit)
            })
            .map_err(|_| SubmitError::MemoryExceeded { needed, limit })?;
        self.high_water_bytes
            .fetch_max(before + needed, Ordering::Relaxed);
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

    /// The byte cap, if there is one.
    pub(crate) fn limit_bytes(&self) -> Option<u64> {
        self.limit
    }
}

/// RAII reservation against the [`MemoryBudget`]; dropping it releases the
/// packet's bytes, whichever exit path the packet took.
pub(crate) struct BudgetLease {
    budget: Arc<MemoryBudget>,
    bytes: u64,
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
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

/// A job in flight: the submitted request, its result cell, and what
/// admission computed for it.
#[derive(Debug)]
pub(crate) struct JobPacket {
    pub(crate) request: JobRequest,
    pub(crate) cell: Arc<JobCell>,
    /// When admission queued it: the start of its queue wait.
    pub(crate) enqueued_at: Instant,
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
        let waited = now.saturating_duration_since(self.enqueued_at);
        shared.metrics.queue_wait.record(waited);
        let (counter, err) = if self.cell.cancelled.load(Ordering::Acquire) {
            (&shared.metrics.cancelled, JobError::Cancelled)
        } else if self.request.deadline.is_some_and(|d| now > d) {
            (&shared.metrics.expired, JobError::Expired)
        } else {
            return Some(self);
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.cell.finish(Err(err));
        None
    }
}

impl StageItem for JobPacket {
    fn lane(&self) -> usize {
        match self.request.priority {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    fn coalesce_key(&self) -> Option<TemplateId> {
        match &self.request.spec {
            JobSpec::Sweep { template, .. } => Some(*template),
            JobSpec::OneShot { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_lease_releases_on_panic_unwind() {
        // A worker that panics mid-packet unwinds the packet — and with it
        // the lease. The in-flight accounting must return to zero, or the
        // engine slowly loses admission capacity to every quarantined job;
        // with a limit and without (the default budget, whose high-water
        // mark the metrics report all the same).
        for limit in [Some(1 << 20), None] {
            let budget = Arc::new(MemoryBudget::new(limit));
            let b2 = Arc::clone(&budget);
            let unwound = std::panic::catch_unwind(move || {
                let _lease = b2.try_admit(4096).expect("well under the limit");
                panic!("worker dies holding a lease");
            });
            assert!(unwound.is_err());
            assert_eq!(budget.in_flight_bytes(), 0, "lease leaked on unwind");
            assert_eq!(budget.high_water_bytes(), 4096, "reservation was real");
        }
    }

    #[test]
    fn memory_budget_refuses_and_rolls_back_cleanly() {
        let budget = Arc::new(MemoryBudget::new(Some(1000)));
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
