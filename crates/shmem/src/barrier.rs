//! Sense-reversing spin barrier for SPMD PE synchronization.
//!
//! `shmem_barrier_all` is the only collective the hot gate loop touches
//! (one per gate, exactly as in the paper's Listing 5), so it is built
//! directly on atomics rather than a mutex/condvar pair. A poison flag lets
//! a failed PE release the others instead of deadlocking the barrier.
//!
//! The protocol itself lives in [`crate::proto::bar`] as a pure state
//! machine — the same code the `svsim-verify` model checker drives over a
//! model memory. Production drives it from exactly one wait loop,
//! `wait_epoch`, over whichever words the substrate owns:
//! [`SenseBarrier`] supplies the thread backend's storage (two
//! process-local atomic words) and asks for no timeout and no heartbeat;
//! the process backend passes arena words, its bounded-wait timeout and
//! the PE's heartbeat word.

use crate::proto::bar::{Actor, BarrierSm, Step};
use crate::proto::{AtomicWords, ProtoMem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sense-reversing barrier over a fixed number of participants.
#[derive(Debug)]
pub struct SenseBarrier {
    sm: BarrierSm,
    words: AtomicWords<2>,
}

/// Per-participant barrier state (each PE keeps its own flipping sense).
#[derive(Debug, Default)]
pub struct BarrierToken {
    sense: bool,
}

/// The barrier was poisoned by a failed peer (error of
/// [`SenseBarrier::try_wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shmem barrier poisoned: a peer PE failed")
    }
}

impl std::error::Error for BarrierPoisoned {}

/// Why a barrier wait failed — distinguishes a peer-poisoned barrier from
/// a bounded wait expiring with no poison observed (only a wait that was
/// given a timeout can expire; the thread backend gives none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BarrierWaitError {
    /// A peer poisoned the barrier (it failed, or its launcher reaped it).
    Poisoned,
    /// The bounded wait expired before the epoch released: the waiter saw
    /// neither a release nor a poison within the timeout.
    TimedOut {
        /// How long the waiter waited before giving up.
        waited: std::time::Duration,
    },
}

/// The one production driver of [`BarrierSm::step`]: run `token`'s next
/// epoch over `mem` to release, poison or expiry.
///
/// The waiting policy between `Pending` steps is spin, then yield
/// (oversubscribed cores must yield or the releasing PE never runs).
/// `heartbeat`, when given, is bumped on entry and on every yield, so a
/// watchdog reading it only ever flags a PE that is truly wedged, never
/// one legitimately blocked on a slow peer. `timeout`, when given, bounds
/// the wait: the clock starts at the first yield and its expiry is the
/// machine's one decisive compare-exchange, so a wait that loses its race
/// against the release reports the release. With `None` the loop never
/// reads a clock and never times out.
///
/// On error the token is left un-flipped, so the epoch at which the
/// failure was observed is well defined.
pub(crate) fn wait_epoch(
    sm: &BarrierSm,
    mem: &impl ProtoMem,
    token: &mut BarrierToken,
    timeout: Option<Duration>,
    heartbeat: Option<&AtomicU64>,
) -> Result<(), BarrierWaitError> {
    let beat = || {
        if let Some(hb) = heartbeat {
            hb.fetch_add(1, Ordering::Relaxed);
        }
    };
    beat();
    let mut actor = Actor::new(token.sense);
    let mut spins = 0u32;
    let mut clock: Option<(Instant, Instant)> = None; // (started, deadline)
    loop {
        match sm.step(&mut actor, mem) {
            Step::Released => {
                token.sense = actor.sense();
                return Ok(());
            }
            Step::Poisoned => return Err(BarrierWaitError::Poisoned),
            // A peer is gone and nobody told us. The machine poisoned the
            // barrier so the whole world fails typed, us included — and the
            // expiry is reported as a *timeout*, not a peer death.
            Step::TimedOut => {
                return Err(BarrierWaitError::TimedOut {
                    waited: clock.map_or(Duration::ZERO, |(started, _)| started.elapsed()),
                })
            }
            Step::Pending => {
                if !actor.is_waiting() {
                    continue;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                    continue;
                }
                std::thread::yield_now();
                beat();
                if let Some(timeout) = timeout {
                    let (_, deadline) = *clock.get_or_insert_with(|| {
                        let now = Instant::now();
                        (now, now + timeout)
                    });
                    if Instant::now() > deadline {
                        sm.request_timeout(&mut actor);
                    }
                }
            }
        }
    }
}

impl SenseBarrier {
    /// Barrier over `n` participants.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            sm: BarrierSm {
                n: n as u64,
                timeout_recheck: true,
            },
            words: AtomicWords::default(),
        }
    }

    /// Block until all `n` participants arrive, or until the barrier is
    /// [`poison`](Self::poison)ed.
    ///
    /// # Errors
    /// [`BarrierPoisoned`] once a peer poisons the barrier. The caller's
    /// token is left un-flipped on error, so the epoch at which poisoning
    /// was observed is well defined. An epoch that fully released before
    /// the poison still returns `Ok` — poisoning a barrier never fails an
    /// epoch retroactively, so *every* participant (waiter or late arriver)
    /// observes the poison in the same epoch: the first one that can no
    /// longer complete.
    pub fn try_wait(&self, token: &mut BarrierToken) -> Result<(), BarrierPoisoned> {
        // No timeout was requested, so poison is the only failure.
        wait_epoch(&self.sm, &self.words, token, None, None).map_err(|_| BarrierPoisoned)
    }

    /// Mark the barrier poisoned, releasing spinning waiters into an error.
    pub fn poison(&self) {
        crate::proto::bar::post_poison(&self.words);
    }

    /// True once poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        crate::proto::bar::is_poisoned(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        let mut t = BarrierToken::default();
        for _ in 0..10 {
            b.try_wait(&mut t).unwrap();
        }
    }

    #[test]
    fn phases_are_separated() {
        // Counter increments in phase 1 must all be visible in phase 2.
        const N: usize = 4;
        const ROUNDS: usize = 50;
        let barrier = Arc::new(SenseBarrier::new(N));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..N {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut tok = BarrierToken::default();
                    for round in 1..=ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.try_wait(&mut tok).unwrap();
                        assert_eq!(
                            counter.load(Ordering::Relaxed),
                            (round * N) as u64,
                            "phase leak at round {round}"
                        );
                        barrier.try_wait(&mut tok).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_waiters() {
        let barrier = Arc::new(SenseBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || {
            let mut tok = BarrierToken::default();
            b2.try_wait(&mut tok).is_err()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison();
        assert!(waiter.join().unwrap(), "waiter should fail on poison");
        assert!(barrier.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SenseBarrier::new(0);
    }
}
