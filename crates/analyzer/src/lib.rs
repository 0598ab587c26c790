//! svsim-analyzer: static + dynamic race analysis of the one-sided SHMEM
//! access protocol.
//!
//! The scale-out backend's correctness rests on the §2.2 contract: between
//! two barriers, no amplitude may be touched by more than one PE. This
//! crate attacks that contract from both sides:
//!
//! - **Static** ([`plan`], [`check`]): derive the barrier-epoch schedule a
//!   circuit compiles to ([`CommPlan`]) and *prove* each epoch's per-PE
//!   remote index sets pairwise disjoint by symbolic pair-index arithmetic
//!   over qubit masks — `O(PEs² · patterns²)` per epoch, independent of the
//!   `2^n` amplitude count.
//! - **Dynamic** ([`dynamic`]): execute the same schedule under the
//!   vector-clock [`svsim_shmem::RaceDetector`] and check the observed
//!   behaviour agrees with the proof (proven-safe ⇒ zero races).
//!
//! [`analyze`] is the one-call static entry point; [`checked_run`] gates a
//! simulation on the proof, refusing to execute a plan the checker cannot
//! certify. Both take the [`SimConfig`] the run would use and prove the
//! [`CompiledPlan`] that config lowers to — fusion, remapping,
//! specialization and checkpoint segmentation included — so the proof is
//! always of the schedule that runs.

pub mod check;
pub mod dynamic;
pub mod plan;

pub use check::{
    check_plan, check_plan_with_budget, AnalysisReport, Conflict, EpochSummary, Verdict,
};
pub use dynamic::{cross_validate, cross_validate_suite, CrossValidation};
pub use plan::{CommPlan, Epoch, EpochKind, PlanGate};

use svsim_core::{CompiledPlan, RunStart, RunSummary, SimConfig, Simulator};
use svsim_ir::Circuit;
use svsim_types::{SvError, SvResult};

/// Statically check the schedule `circuit` lowers to under `config`, at the
/// configured partitioning (one PE on a single device — trivially safe).
///
/// The plan proven is `CompiledPlan::compile(circuit, _, config)`, the one
/// a simulator with this config executes. Under runtime-parse dispatch that
/// is the unfused schedule whatever `config.fuse` says; the report's
/// [`AnalysisReport::fuse`] names the window actually proven.
///
/// # Errors
/// [`SvError::InvalidConfig`] on a worker count that cannot partition the
/// state.
pub fn analyze(circuit: &Circuit, config: &SimConfig) -> SvResult<AnalysisReport> {
    // Before lowering: the remap planner asserts what this rejects.
    check::check_pes(circuit.n_qubits(), config.backend.n_workers() as u64)?;
    prove(
        &CompiledPlan::compile(circuit, circuit.n_qubits(), config),
        config,
    )
}

/// Statically check `plan` at `config`'s partitioning.
fn prove(plan: &CompiledPlan, config: &SimConfig) -> SvResult<AnalysisReport> {
    check_plan(
        &CommPlan::from_plan(plan),
        config.backend.n_workers() as u64,
    )
}

/// Require a conflict-free proof before executing: compile the plan
/// `config` lowers `circuit` to, analyze it at the configured partitioning,
/// refuse to run if any epoch is conflicting, then execute *that plan* and
/// return both the proof and the run.
///
/// # Errors
/// [`SvError::InvalidConfig`] naming the first conflict when the plan is
/// rejected; otherwise simulation errors.
pub fn checked_run(circuit: &Circuit, config: SimConfig) -> SvResult<(AnalysisReport, RunSummary)> {
    let mut sim = Simulator::new(circuit.n_qubits(), config)?;
    let plan = sim.compile_plan(circuit);
    let report = prove(&plan, &config)?;
    if report.verdict() == Verdict::Conflicting {
        let first = report
            .conflicts
            .first()
            .map_or_else(String::new, ToString::to_string);
        return Err(SvError::InvalidConfig(format!(
            "communication plan rejected by the static checker: {first}"
        )));
    }
    let summary = sim.run_from(circuit, Some(&plan), RunStart::Fresh)?;
    Ok((report, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::GateKind;

    #[test]
    fn checked_run_accepts_proven_safe_plans() {
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 3], &[]).unwrap();
        let (report, summary) = checked_run(
            &c,
            SimConfig {
                seed: 1,
                ..SimConfig::scale_out(2)
            },
        )
        .unwrap();
        assert!(report.is_proven_safe());
        assert!(summary.races.is_empty());
    }

    #[test]
    fn checked_run_covers_non_scaleout_backends_trivially() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[1], &[]).unwrap();
        let (report, _) = checked_run(&c, SimConfig::single_device()).unwrap();
        assert_eq!(report.n_pes, 1);
        assert!(report.is_proven_safe());
    }

    #[test]
    fn the_proof_is_of_the_schedule_that_runs() {
        // Compound gates are where hand-made mirrors of the lowering
        // drifted: rccx/rc3x lower to kernel sequences that step fusion
        // keeps or collapses whole, and ccx is one kernel specialized but
        // many generic. Around them: a barrier and a SWAP (both vanish from
        // the remapped stream, so its indices are not `Circuit::ops()`
        // indices), gates on the partition-index qubit (relabeling), a
        // measure, a reset and a conditional.
        use svsim_ir::{Gate, Op};
        for (kind, qubits) in [
            (GateKind::RCCX, &[0u32, 1, 2][..]),
            (GateKind::RC3X, &[0, 1, 2, 3][..]),
            (GateKind::CCX, &[0, 1, 2][..]),
        ] {
            let mut c = Circuit::with_cbits(6, 1);
            c.apply(GateKind::H, &[0], &[]).unwrap();
            c.barrier(&[]);
            c.apply(GateKind::SWAP, &[3, 4], &[]).unwrap();
            c.apply(kind, qubits, &[]).unwrap();
            for _ in 0..3 {
                c.apply(GateKind::H, &[5], &[]).unwrap();
                c.apply(GateKind::T, &[5], &[]).unwrap();
            }
            c.measure(5, 0).unwrap();
            c.reset(4).unwrap();
            c.if_eq(0, 1, 1, Gate::new(GateKind::X, &[5], &[]).unwrap())
                .unwrap();
            let collapses = 2;
            let mut relabeled = false;
            for fuse in [0u8, 2, 3] {
                for remap in [false, true] {
                    for specialized in [true, false] {
                        for pes in [2usize, 4] {
                            let config = SimConfig {
                                specialized,
                                seed: 3,
                                remap,
                                fuse,
                                ..SimConfig::scale_out(pes)
                            };
                            let what = format!("{kind:?} {config:?}");

                            let plan = CompiledPlan::compile(&c, 6, &config);
                            let comm = CommPlan::from_plan(&plan);
                            assert_eq!(comm.gates.len(), plan.n_kernels(), "{what}");
                            let count =
                                |k: EpochKind| comm.epochs.iter().filter(|e| e.kind == k).count();
                            assert_eq!(count(EpochKind::Kernel), plan.n_kernels(), "{what}");
                            assert_eq!(count(EpochKind::Collapse), collapses, "{what}");
                            for g in &comm.gates {
                                let from = &c.ops()[g.source_op];
                                assert_eq!(
                                    g.conditional,
                                    matches!(from, Op::IfEq { .. } | Op::Reset { .. }),
                                    "{what}: kernel attributed to op #{} = {from:?}",
                                    g.source_op
                                );
                                assert!(!matches!(from, Op::Barrier(_) | Op::Measure { .. }));
                            }

                            // The run executes the plan that was proven.
                            let (report, summary) = checked_run(&c, config).unwrap();
                            assert!(report.is_proven_safe(), "{what}: {report}");
                            assert_eq!(report.epochs.len(), comm.epochs.len(), "{what}");
                            assert_eq!(report.fuse, fuse, "{what}");
                            assert_eq!(
                                count(EpochKind::Exchange),
                                2 * summary.remap_swaps,
                                "{what}"
                            );
                            relabeled |= summary.remap_swaps > 0;
                        }
                    }
                }
            }
            assert!(relabeled, "{kind:?}: some remapped cell must relabel");
        }
    }

    #[test]
    fn runtime_parse_is_proven_unfused() {
        // Runtime parsing re-parses gate by gate: it runs the unfused
        // schedule, so that is the one analyzed — and the report says so.
        let mut c = Circuit::new(4);
        for _ in 0..4 {
            c.apply(GateKind::H, &[0], &[]).unwrap();
            c.apply(GateKind::T, &[0], &[]).unwrap();
        }
        let fused = SimConfig {
            fuse: 3,
            ..SimConfig::scale_out(2)
        };
        let parsed = SimConfig {
            dispatch: svsim_core::DispatchMode::RuntimeParse,
            ..fused
        };
        let (fused, parsed) = (analyze(&c, &fused).unwrap(), analyze(&c, &parsed).unwrap());
        assert_eq!((fused.fuse, fused.epochs.len()), (3, 1));
        assert_eq!((parsed.fuse, parsed.epochs.len()), (0, 8));
        assert!(parsed.to_string().contains("fuse window 0"));
    }

    #[test]
    fn the_whole_suite_is_statically_safe_at_scale() {
        // Every Table 4 workload — including the 20- and 23-qubit ones —
        // must be proven conflict-free at 2 and 8 PEs, fast: the checker
        // works on masks, never on the 2^23 amplitudes.
        let t0 = std::time::Instant::now();
        for spec in svsim_workloads::medium_suite()
            .into_iter()
            .chain(svsim_workloads::large_suite())
        {
            let c = spec.circuit().unwrap();
            for pes in [2usize, 8] {
                let rep = analyze(&c, &SimConfig::scale_out(pes)).unwrap();
                assert!(rep.is_proven_safe(), "{} at {pes} PEs: {rep}", spec.name);
            }
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "static analysis of the full suite must stay symbolic-fast, took {:?}",
            t0.elapsed()
        );
    }

    /// Remove from `plan` the barriers a tiled PE no longer passes: merge the
    /// epochs of every tile run — consecutive unconditional kernels that are
    /// tile-local at the outer width, by the rule the executor binds with —
    /// and say how many barriers went. Nothing merges when a PE's slab is one
    /// tile or less. (Sub-runs at the inner width add and remove none.)
    fn merge_tile_runs(plan: &mut CommPlan, n_pes: u64) -> usize {
        use svsim_core::traffic::{tile_local, TILE_QUBITS};
        let (n, outer) = (plan.n_qubits, TILE_QUBITS[0]);
        if n - n_pes.trailing_zeros() <= outer {
            return 0;
        }
        let joins = |plan: &CommPlan, e: usize| {
            let epoch = &plan.epochs[e];
            let tile_local = |g: &usize| {
                let gate = &plan.gates[*g];
                !gate.conditional && tile_local(&gate.cg, n, outer)
            };
            epoch.kind == EpochKind::Kernel && epoch.gates.iter().all(tile_local)
        };
        let before = plan.epochs.len();
        let mut e = 0;
        while e + 1 < plan.epochs.len() {
            if joins(plan, e) && joins(plan, e + 1) {
                plan.merge_epochs(e).unwrap();
            } else {
                e += 1;
            }
        }
        before - plan.epochs.len()
    }

    #[test]
    fn the_epochs_a_tiled_pe_runs_are_still_proven_safe() {
        // `CommPlan` images one epoch per kernel; a PE whose slab is wider
        // than a tile passes one barrier per tile run instead. Every kernel
        // of a run stays inside the PE's own partition, so the coarser
        // schedule must prove as clean: the 20- to 23-qubit Table 4 plans at
        // 8 PEs (slabs of 2^17 to 2^20), the 17- and 18-qubit ones at 2.
        let mut merged = Vec::new();
        for spec in svsim_workloads::large_suite() {
            let c = spec.circuit().unwrap();
            let n_pes = match c.n_qubits() {
                17 | 18 => 2,
                20.. => 8,
                _ => continue,
            };
            for remap in [false, true] {
                let config = SimConfig {
                    remap,
                    ..SimConfig::scale_out(n_pes)
                };
                let compiled = CompiledPlan::compile(&c, c.n_qubits(), &config);
                let mut plan = CommPlan::from_plan(&compiled);
                let barriers = merge_tile_runs(&mut plan, n_pes as u64);
                let rep = check_plan(&plan, n_pes as u64).unwrap();
                assert!(
                    rep.is_proven_safe(),
                    "{} at {n_pes} PEs, remap {remap}, {barriers} barriers merged away: {rep}",
                    spec.name
                );
                merged.push((spec.name, remap, barriers));
            }
        }
        let fewest = |name: &str| {
            let of = merged.iter().filter(|m| m.0 == name);
            of.map(|m| m.2).min().unwrap()
        };
        assert!(fewest("square_root_n18") > 3000, "{merged:?}");
        assert!(fewest("qft_n20") > 100, "{merged:?}");
        assert_eq!(merged.len(), 2 * 6, "{merged:?}");

        // 16 qubits at 2 PEs: a slab is one tile and the plan is untouched.
        let dnn = svsim_workloads::qnn::dnn_layers(16, 2, 1).unwrap();
        let compiled = CompiledPlan::compile(&dnn, 16, &SimConfig::scale_out(2));
        assert_eq!(merge_tile_runs(&mut CommPlan::from_plan(&compiled), 2), 0);
    }
}
