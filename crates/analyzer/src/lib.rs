//! svsim-analyzer: static + dynamic race analysis of the one-sided SHMEM
//! access protocol.
//!
//! The scale-out backend's correctness rests on the §2.2 contract: within
//! one barrier epoch, no amplitude may be touched by more than one PE. This
//! crate attacks that contract from both sides:
//!
//! - **Static** ([`plan`], [`check`]): derive the barrier-epoch schedule a
//!   circuit compiles to ([`CommPlan`]: the plan's barrier windows, a whole
//!   tile run in one) and *prove* each epoch's per-PE remote index sets
//!   pairwise disjoint by symbolic pair-index arithmetic over qubit masks —
//!   `O(PEs² · patterns²)` per kernel pair of an epoch, independent of the
//!   `2^n` amplitude count.
//! - **Dynamic** ([`dynamic`]): execute the same schedule under the
//!   vector-clock race detector of the SHMEM world
//!   ([`svsim_shmem::WorldOptions::detect_races`]) and check the observed
//!   behaviour agrees with the proof (proven-safe ⇒ zero races).
//!
//! [`analyze`] is the one-call static entry point; [`checked_run`] gates a
//! simulation on the proof, refusing to execute a plan the checker cannot
//! certify. Both take the [`SimConfig`] the run would use and prove the
//! [`CompiledPlan`] that config lowers to — fusion, remapping,
//! specialization, checkpoint segmentation and tile runs included — so the
//! proof is always of the schedule that runs, barrier for barrier.

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
/// a simulator with this config executes.
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
            for remap in [false, true] {
                for specialized in [true, false] {
                    for pes in [2usize, 4] {
                        let config = SimConfig {
                            specialized,
                            seed: 3,
                            remap,
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
                        assert_eq!(count(EpochKind::Exchange), summary.remap_swaps, "{what}");
                        relabeled |= summary.remap_swaps > 0;
                    }
                }
            }
            assert!(relabeled, "{kind:?}: some remapped cell must relabel");
        }
    }

    #[test]
    fn runtime_parse_is_proven_unfused() {
        // Runtime parsing re-parses gate by gate: the schedule analyzed is
        // one kernel per epoch.
        let mut c = Circuit::new(4);
        for _ in 0..4 {
            c.apply(GateKind::H, &[0], &[]).unwrap();
            c.apply(GateKind::T, &[0], &[]).unwrap();
        }
        let parsed = SimConfig {
            dispatch: svsim_core::DispatchMode::RuntimeParse,
            ..SimConfig::scale_out(2)
        };
        assert_eq!(analyze(&c, &parsed).unwrap().epochs.len(), 8);
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

    #[test]
    fn the_epochs_a_tiled_pe_runs_are_still_proven_safe() {
        // A PE whose slab is wider than a tile passes one barrier per tile
        // run, and the plan's epochs are those windows. Every kernel of a run
        // stays inside the PE's own partition, so they must prove clean: the
        // 20- to 23-qubit Table 4 plans at 8 PEs (slabs of 2^17 to 2^20), the
        // 17- and 18-qubit ones at 2.
        let mut saved = Vec::new();
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
                let plan = CompiledPlan::compile(&c, c.n_qubits(), &config);
                let comm = CommPlan::from_plan(&plan);
                let rep = check_plan(&comm, n_pes as u64).unwrap();
                assert!(rep.is_proven_safe(), "{} at {n_pes} PEs: {rep}", spec.name);
                let kernel_epochs = comm.epochs.iter().filter(|e| e.kind == EpochKind::Kernel);
                saved.push((spec.name, remap, plan.n_kernels() - kernel_epochs.count()));
            }
        }
        let fewest = |name: &str| {
            let of = saved.iter().filter(|m| m.0 == name);
            of.map(|m| m.2).min().unwrap()
        };
        assert!(fewest("square_root_n18") > 3000, "{saved:?}");
        assert!(fewest("qft_n20") > 100, "{saved:?}");
        assert_eq!(saved.len(), 2 * 6, "{saved:?}");
        let square_root = (svsim_workloads::large_suite().into_iter())
            .find(|spec| spec.name == "square_root_n18")
            .unwrap();
        let rep = analyze(&square_root.circuit().unwrap(), &SimConfig::scale_out(2)).unwrap();
        assert_eq!(rep.epochs.len(), 207);

        // 16 qubits at 2 PEs: a slab is one L2 tile, and its runs at 2^11
        // are epochs too; at 32 PEs a slab is 2^11, one epoch per kernel.
        let dnn = svsim_workloads::qnn::dnn_layers(16, 2, 1).unwrap();
        for (n_pes, tiled) in [(2, true), (32, false)] {
            let plan = CompiledPlan::compile(&dnn, 16, &SimConfig::scale_out(n_pes));
            let comm = CommPlan::from_plan(&plan);
            assert!(check_plan(&comm, n_pes as u64).unwrap().is_proven_safe());
            assert_eq!(comm.epochs.len() < plan.n_kernels(), tiled, "{n_pes} PEs");
        }
    }

    #[test]
    fn the_proof_covers_the_barriers_that_run() {
        // On an unconditional circuit PE 0 passes one barrier per epoch the
        // analyzer proves, plus four of the launch (the two collective
        // allocations, the scatter and the gather), whether or not the plan
        // relabels: wherever tile runs share a barrier, at 2^15 or, on a
        // slab of one L2 tile or less, at 2^11.
        use svsim_workloads::{algos::qft, qnn::dnn_layers};
        let dnn17 = dnn_layers(17, 3, 5).unwrap();
        let remapped = SimConfig {
            remap: true,
            ..SimConfig::scale_out(2)
        };
        let mut tiled = 0;
        for (circuit, config) in [
            (&dnn17, SimConfig::scale_out(2)),
            (&dnn17, SimConfig::scale_up(2)),
            (&dnn17, SimConfig::scale_out(4)),
            (&dnn17, remapped),
            (&qft(17).unwrap(), SimConfig::scale_out(2)),
            (&dnn_layers(16, 12, 1).unwrap(), SimConfig::scale_out(2)),
        ] {
            let rep = analyze(circuit, &config).unwrap();
            assert!(rep.is_proven_safe(), "{config:?}: {rep}");
            let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
            let summary = sim.run(circuit).unwrap();
            assert_eq!(
                rep.epochs.len() as u64 + 4,
                summary.traffic[0].barriers,
                "{} qubits, {config:?}",
                circuit.n_qubits()
            );
            tiled += usize::from(summary.tile_runs > 0);
        }
        assert_eq!(tiled, 6, "every slab here is wider than 2^11");
    }
}
