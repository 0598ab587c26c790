//! Deterministic fault injection for the in-process SHMEM runtime.
//!
//! HPC state-vector runs (the paper targets Summit/Theta/DGX scale) live
//! with PE failures and flaky transports; this module makes those failure
//! paths *testable*. A [`FaultPlan`] is a seeded, replayable schedule of
//! faults that [`crate::world::launch_world`] threads through every
//! PE's [`crate::world::ShmemCtx`]. Each spec counts the matching
//! `put`/`get`/`barrier` operations it observes in the target PE's program
//! order, so "kill PE 2 at its 7th put" is exactly reproducible run over
//! run — the property the engine's recovery tests and `sv-sim fault-bench`
//! rely on. The count lives in the spec (not the launch), so it keeps
//! accumulating across successive `launch` calls that share one plan:
//! a checkpointed run executed segment by segment still hits "the Nth put
//! of the whole run", even when that put happens in a later segment.
//!
//! A `Put` / `Get` spec counts **messages**, not words: one per accessor
//! call and one per op of each [`crate::world::ShmemCtx::borrow`] — per lent
//! run, lone amplitude, exchange piece side, and kernel or tile run on a
//! PE's slab. A dropped borrow still moves its words; the PE fails at its
//! next barrier all the same.
//!
//! Faults are **one-shot**: a spec disarms after it fires, so a retried job
//! (same plan, new launch) does not deterministically re-hit the same fault
//! and can make progress — modeling "the node crashed once", not "the node
//! is cursed".
//!
//! Every failure is a value, never an unwind. A fault at a barrier is what
//! that barrier returns; a one-sided access has no result to carry one, so
//! the PE holds it and its next barrier returns it, as
//! [`SvError::PeFailed`](svsim_types::SvError::PeFailed) naming the access's
//! op — and so does the PE's run if no barrier comes first.
//!
//! Fault semantics:
//! - [`FaultAction::Kill`] — the PE dies at the operation. A forked PE
//!   raises a real `SIGKILL`. A thread PE poisons the barrier: at a barrier,
//!   that barrier returns `PeFailed`; at an access, the PE is failed for the
//!   rest of its run — its transfers and fault points stop, and every
//!   barrier it reaches, then its run, return `PeFailed`.
//! - [`FaultAction::Drop`] — a one-sided transfer is silently lost at the
//!   fabric. Loss is *detected at the PE's next barrier* (modeling
//!   transport-level delivery acknowledgment at the synchronization point),
//!   where the PE fails with `PeFailed` so the corrupted epoch is
//!   discarded rather than committed.
//! - [`FaultAction::Delay`] — the operation is stalled (bounded spin); the
//!   run stays correct, only slower. Used to exercise timing robustness.
//! - [`FaultAction::Poison`] — the barrier is poisoned directly and the PE
//!   dies, releasing all spinning peers into their own clean failures.
//! - [`FaultAction::Hang`] — the PE stops making progress at the operation
//!   *without* dying: on the process backend it sleeps forever (heartbeat
//!   words stop bumping, so the parent watchdog kills it and reports
//!   [`SvError::PeHung`](svsim_types::SvError::PeHung)); on the thread
//!   backend (no external supervisor can kill a thread) it degrades to
//!   `Poison` semantics so tests stay bounded.
//! - [`FaultAction::TornCheckpoint`] — a no-op at PE-side fault points;
//!   consulted host-side (via [`svsim_types::PeOp::Checkpoint`]) by the
//!   checkpoint store, which simulates a crash mid-write by leaving a
//!   truncated generation file behind.

use crate::proto::fault::{Check, Step, ARMED, SEEN};
use crate::proto::{AtomicWords, MemOrder, ProtoMem};
use svsim_types::{PeOp, SvRng};

/// What an armed fault does when its trigger point is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the PE at this operation.
    Kill,
    /// Drop the transfer (puts/gets); detected at the next barrier.
    Drop,
    /// Stall the operation for roughly this many spin iterations.
    Delay(u32),
    /// Poison the barrier and kill the PE.
    Poison,
    /// Wedge the PE: it stops progressing (and stops bumping its heartbeat)
    /// without dying. Process backend: detected by the parent watchdog and
    /// reported as `PeHung`. Thread backend: degrades to `Poison`.
    Hang,
    /// Simulate a crash mid-checkpoint-write: the store leaves a truncated
    /// generation file and reports a typed `Checkpoint` error. Ignored at
    /// PE-side put/get/barrier fault points.
    TornCheckpoint,
}

/// One scheduled fault: fires at the `at`-th matching operation of kind
/// `op` (1-based). With `pe: Some(p)` only PE `p`'s operations match, so
/// the trigger is a point in that PE's program order; with `pe: None`
/// every PE's operations match and the globally `at`-th one fires
/// (whichever PE happens to issue it).
#[derive(Debug)]
pub struct FaultSpec {
    /// Target PE rank; `None` matches any PE.
    pub pe: Option<usize>,
    /// Operation kind that triggers the fault.
    pub op: PeOp,
    /// 1-based count of matching operations at which the fault fires.
    pub at: u64,
    /// What happens at the trigger point.
    pub action: FaultAction,
    /// The [`crate::proto::fault`] word pair: matching operations observed
    /// so far (accumulates across launches) and the one-shot arming flag,
    /// cleared when the fault fires. Thread PEs count against these words
    /// directly; the process backend seeds its arena mirror from them and
    /// absorbs the mirror back after reaping.
    words: AtomicWords<2>,
}

impl FaultSpec {
    /// Count one operation against this spec's counters in `mem`; returns
    /// the action when this call fires it (once). The whole load-armed /
    /// count / disarm sequence is the model-checked
    /// [`crate::proto::fault::Check`], stepped to completion.
    pub(crate) fn observe(&self, pe: usize, op: PeOp, mem: &impl ProtoMem) -> Option<FaultAction> {
        if self.op != op || self.pe.is_some_and(|p| p != pe) {
            return None;
        }
        let mut check = Check::new(self.at);
        loop {
            match check.step(mem) {
                Step::Pending => {}
                Step::Fired => return Some(self.action),
                Step::Skip | Step::Counted | Step::Lost => return None,
            }
        }
    }

    /// Matching operations observed so far.
    #[must_use]
    pub fn progress(&self) -> u64 {
        self.words.load(SEEN, MemOrder::Relaxed)
    }

    fn is_armed(&self) -> bool {
        self.words.load(ARMED, MemOrder::Acquire) != 0
    }

    /// This spec's own word pair. The process backend copies it into the
    /// shared arena before forking the PEs and back after reaping them
    /// ([`copy_words`]), so counts keep accumulating across launches
    /// (checkpoint segments) and one-shot disarming survives exactly as in
    /// the thread-backed world.
    pub(crate) fn words(&self) -> &AtomicWords<2> {
        &self.words
    }

    /// Arm with a zero count.
    fn arm(&self) {
        self.words.store(SEEN, 0, MemOrder::Relaxed);
        self.words.store(ARMED, 1, MemOrder::Release);
    }
}

/// Copy one spec's `(seen, armed)` pair from `from` to `to`; the release
/// store of the arming flag publishes the count with it.
pub(crate) fn copy_words(from: &impl ProtoMem, to: &impl ProtoMem) {
    to.store(SEEN, from.load(SEEN, MemOrder::Acquire), MemOrder::Relaxed);
    to.store(
        ARMED,
        from.load(ARMED, MemOrder::Acquire),
        MemOrder::Release,
    );
}

/// A deterministic, replayable schedule of injected faults.
///
/// Shareable (`Arc<FaultPlan>`) across the launcher and the engine; the
/// only interior mutability is the per-spec one-shot arming bit.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault: `pe`'s `at`-th `op` performs `action`. Pass `None` as
    /// `pe` to match whichever PE reaches the count first.
    #[must_use]
    pub fn with(
        mut self,
        pe: impl Into<Option<usize>>,
        op: PeOp,
        at: u64,
        action: FaultAction,
    ) -> Self {
        let spec = FaultSpec {
            pe: pe.into(),
            op,
            at,
            action,
            words: AtomicWords::default(),
        };
        spec.arm();
        self.specs.push(spec);
        self
    }

    /// Seeded single-fault plan for smoke matrices: derives the victim PE
    /// and trigger count from `seed`, with the action chosen by the caller.
    #[must_use]
    pub fn seeded(seed: u64, n_pes: usize, op: PeOp, action: FaultAction) -> Self {
        let mut rng = SvRng::seed_from_u64(seed ^ 0xfa17_fa17_fa17_fa17);
        let pe = (rng.next_f64() * n_pes as f64) as usize % n_pes.max(1);
        // Early enough to hit even short circuits, late enough to let some
        // work happen first.
        let at = 1 + (rng.next_f64() * 8.0) as u64;
        Self::new().with(pe, op, at, action)
    }

    /// Number of faults scheduled (armed or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no faults are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of faults still armed (not yet fired).
    #[must_use]
    pub fn armed_remaining(&self) -> usize {
        self.specs.iter().filter(|s| s.is_armed()).count()
    }

    /// The scheduled specs, in insertion order (stable indices — the
    /// process backend mirrors spec `i` into arena slot `i`).
    pub(crate) fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Consult the plan at a trigger point: `pe` is executing one
    /// operation of kind `op`. Every matching armed spec counts the
    /// operation; returns the action of the first spec whose trigger count
    /// is reached, disarming it (one-shot).
    #[must_use]
    pub fn check(&self, pe: usize, op: PeOp) -> Option<FaultAction> {
        self.specs
            .iter()
            .filter_map(|s| s.observe(pe, op, &s.words))
            .reduce(|first, _| first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_disarms_after_firing() {
        let plan = FaultPlan::new().with(1, PeOp::Put, 3, FaultAction::Kill);
        assert_eq!(plan.armed_remaining(), 1);
        assert_eq!(plan.check(1, PeOp::Put), None, "1st put");
        assert_eq!(plan.check(0, PeOp::Put), None, "wrong PE does not count");
        assert_eq!(plan.check(1, PeOp::Get), None, "wrong op does not count");
        assert_eq!(plan.check(1, PeOp::Put), None, "2nd put");
        assert_eq!(plan.check(1, PeOp::Put), Some(FaultAction::Kill), "3rd put");
        assert_eq!(plan.armed_remaining(), 0);
        // One-shot: further matching operations no longer fire or count.
        assert_eq!(plan.check(1, PeOp::Put), None);
    }

    #[test]
    fn counts_accumulate_across_launch_boundaries() {
        // The spec owns its counter, so two "launches" (two counting
        // sequences against the same plan) accumulate — a checkpointed
        // run's later segment can hit the trigger.
        let plan = FaultPlan::new().with(0, PeOp::Barrier, 5, FaultAction::Kill);
        for _ in 0..3 {
            assert_eq!(plan.check(0, PeOp::Barrier), None); // segment 1
        }
        assert_eq!(plan.specs[0].progress(), 3);
        assert_eq!(plan.check(0, PeOp::Barrier), None); // segment 2
        assert_eq!(plan.check(0, PeOp::Barrier), Some(FaultAction::Kill));
    }

    #[test]
    fn wildcard_pe_matches_first_arrival() {
        let plan = FaultPlan::new().with(None, PeOp::Barrier, 2, FaultAction::Poison);
        assert_eq!(plan.check(3, PeOp::Barrier), None);
        assert_eq!(plan.check(0, PeOp::Barrier), Some(FaultAction::Poison));
        // Fired once; later operations see nothing.
        assert_eq!(plan.check(1, PeOp::Barrier), None);
    }

    #[test]
    fn hang_and_torn_checkpoint_arm_like_any_action() {
        let plan = FaultPlan::new()
            .with(0, PeOp::Put, 2, FaultAction::Hang)
            .with(None, PeOp::Checkpoint, 1, FaultAction::TornCheckpoint);
        assert_eq!(plan.check(0, PeOp::Put), None);
        assert_eq!(plan.check(0, PeOp::Put), Some(FaultAction::Hang));
        assert_eq!(
            plan.check(0, PeOp::Checkpoint),
            Some(FaultAction::TornCheckpoint)
        );
        assert_eq!(plan.armed_remaining(), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 4, PeOp::Put, FaultAction::Kill);
        let b = FaultPlan::seeded(42, 4, PeOp::Put, FaultAction::Kill);
        assert_eq!(a.specs[0].pe, b.specs[0].pe);
        assert_eq!(a.specs[0].at, b.specs[0].at);
        assert!(a.specs[0].at >= 1);
        let c = FaultPlan::seeded(43, 4, PeOp::Put, FaultAction::Kill);
        // Different seed: almost surely a different trigger point.
        assert!(a.specs[0].pe != c.specs[0].pe || a.specs[0].at != c.specs[0].at);
    }
}
