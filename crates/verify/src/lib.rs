//! Exhaustive model checking of the shmem protocol state machines.
//!
//! The protocols this crate checks are *not* re-modeled here: the
//! harnesses under [`harness`] step the very state machines production
//! executes ([`svsim_shmem::proto`]) — the same `step()` code the thread
//! barrier, the process world, and the fault injector drive over real
//! atomics, here driven over a plain [`mem::ModelMem`] word vector by an
//! exhaustive breadth-first scheduler that interleaves actors one
//! shared-memory operation at a time and injects kills, reaps, and
//! timeouts before any step.
//!
//! The explorer ([`mod@explore`]) checks three kinds of property:
//!
//! - **Safety**: an invariant evaluated at every reachable state;
//! - **Terminal shape**: a state with no successors must be accepting;
//! - **Liveness**: every reachable state must be able to reach an
//!   accepting state (co-reachability over the explored graph — a cycle
//!   that cannot progress to completion is reported as a livelock).
//!
//! Exploration is over sequentially-consistent interleavings, which is
//! stronger than the release/acquire orderings production requests; the
//! per-transition ordering arguments live next to the machines in
//! [`svsim_shmem::proto`].

pub mod explore;
pub mod harness;
pub mod lint;
pub mod mem;

pub use explore::{explore, Model, Report, Violation};

/// One checked protocol property with its exhaustive proof bound.
#[derive(Debug, Clone)]
pub struct ProofBound {
    /// Which harness ran.
    pub name: &'static str,
    /// How many concurrent actors (PEs plus supervisor-side actors).
    pub actors: usize,
    /// Distinct states visited (the proof is exhaustive over these).
    pub states: usize,
    /// Transitions explored.
    pub edges: usize,
}

impl std::fmt::Display for ProofBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} actors, {} states, {} transitions — exhaustive, no violation",
            self.name, self.actors, self.states, self.edges
        )
    }
}

/// Run every protocol harness at its CI configuration and collect proof
/// bounds. This is the `sv-sim verify` entry point.
///
/// # Errors
/// The first [`Violation`] any harness finds (message plus the full
/// interleaving trace that reaches it).
pub fn check_all(max_states: usize) -> Result<Vec<ProofBound>, Box<Violation>> {
    let mut bounds = Vec::new();
    for model in harness::barrier::ci_models() {
        let report = explore(&model, max_states)?;
        bounds.push(ProofBound {
            name: "barrier",
            actors: model.n,
            states: report.states,
            edges: report.edges,
        });
    }
    {
        let model = harness::round::ci_model();
        let report = explore(&model, max_states)?;
        bounds.push(ProofBound {
            name: "respawn-round",
            actors: model.survivors + 1,
            states: report.states,
            edges: report.edges,
        });
    }
    {
        let model = harness::heap::ci_model();
        let report = explore(&model, max_states)?;
        bounds.push(ProofBound {
            name: "heap-alloc",
            actors: 2,
            states: report.states,
            edges: report.edges,
        });
    }
    {
        let model = harness::fault::ci_model();
        let report = explore(&model, max_states)?;
        bounds.push(ProofBound {
            name: "fault-oneshot",
            actors: model.checkers,
            states: report.states,
            edges: report.edges,
        });
    }
    Ok(bounds)
}
