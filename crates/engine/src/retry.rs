//! Per-job retry policy: bounded attempts, exponential backoff, and
//! deterministic jitter.
//!
//! Jitter is derived from a seed rather than the wall clock so a fault
//! schedule replays identically: the same job with the same policy backs
//! off by the same durations every run — keeping the engine's recovery
//! tests and `sv-sim fault-bench` reproducible.

use std::time::Duration;
use svsim_types::{SvError, SvRng};

/// How (and whether) a failed job is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts (0 and 1 both mean no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter factor.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// No retries — the engine's historical behavior.
    fn default() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x5eed_5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with the default
    /// backoff shape.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            ..Self::default()
        }
    }

    /// Backoff to sleep before retrying after failed attempt `attempt`
    /// (1-based): `base * 2^(attempt-1)` capped at `max_backoff`, scaled
    /// by a deterministic jitter factor in `[0.5, 1.0]`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff);
        let mut rng = SvRng::seed_from_u64(
            self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        exp.mul_f64(0.5 + 0.5 * rng.next_f64())
    }
}

/// Whether a failure class is worth retrying: infrastructure faults (a PE
/// died or hung, a barrier expired, a SHMEM-layer breakdown, a torn
/// checkpoint write) are transient; everything else — config errors,
/// numeric collapse failures — is deterministic and would fail identically
/// again.
#[must_use]
pub fn retryable(e: &SvError) -> bool {
    // Deliberately exhaustive — no wildcard arm. Adding an `SvError`
    // variant must force a retry-classification decision here (compile
    // error otherwise), instead of silently defaulting a new failure
    // class to non-retryable. `svsim-lint` cross-checks this.
    match e {
        SvError::PeFailed { .. }
        | SvError::PeHung { .. }
        | SvError::BarrierTimeout { .. }
        | SvError::Shmem(_)
        | SvError::Checkpoint(_) => true,
        SvError::QubitOutOfRange { .. }
        | SvError::DuplicateQubit { .. }
        | SvError::InvalidConfig(_)
        | SvError::Parse { .. }
        | SvError::Undefined(_)
        | SvError::Arity { .. }
        | SvError::Numeric(_) => false,
    }
}

/// How the engine reacts to repeated infrastructure failures of one job,
/// beyond plain retry-in-place: the self-healing ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Retry-in-place only (the historical behavior).
    #[default]
    None,
    /// Graceful degradation: after `failures_per_rung` transient failures
    /// at the current width, re-partition the job at half the PEs and
    /// resume from the last good checkpoint (8 → 4 → 2 → 1), stopping at
    /// `min_pes`. Checkpoints are full global state, so a checkpoint taken
    /// at `n` PEs resumes bit-identically at `n/2`.
    HalvePes {
        /// Transient failures tolerated per rung before halving.
        failures_per_rung: u32,
        /// Floor of the ladder (clamped to at least 1 PE).
        min_pes: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            ..RetryPolicy::attempts(5)
        };
        for attempt in 1..=4 {
            assert_eq!(p.backoff(attempt), p.backoff(attempt), "replayable");
            assert!(p.backoff(attempt) <= Duration::from_millis(10));
            assert!(p.backoff(attempt) >= Duration::from_millis(1), "≥ base/2");
        }
        // Different jitter seeds give different (but still bounded) delays.
        let q = RetryPolicy {
            jitter_seed: 99,
            ..p
        };
        assert_ne!(p.backoff(1), q.backoff(1));
    }

    #[test]
    fn exponential_growth_until_cap() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            ..RetryPolicy::attempts(8)
        };
        // Pre-jitter envelope doubles: jittered values stay within
        // [cap/2, cap] once the cap is reached.
        let late = p.backoff(7);
        assert!(late >= Duration::from_millis(4) && late <= Duration::from_millis(8));
    }

    #[test]
    fn retryable_classes() {
        use svsim_types::PeOp;
        assert!(retryable(&SvError::PeFailed {
            pe: 1,
            op: PeOp::Put
        }));
        assert!(retryable(&SvError::Shmem("poisoned".into())));
        assert!(retryable(&SvError::PeHung {
            pe: 2,
            epoch: 3,
            stalled_ms: 750
        }));
        assert!(retryable(&SvError::BarrierTimeout {
            pe: 0,
            epoch: 1,
            waited_ms: 200
        }));
        assert!(retryable(&SvError::Checkpoint("torn write".into())));
        assert!(!retryable(&SvError::InvalidConfig("bad".into())));
        assert!(!retryable(&SvError::Numeric("collapse".into())));
    }
}
