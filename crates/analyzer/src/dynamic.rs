//! Dynamic cross-validation of the static checker.
//!
//! The static side *proves* a plan conflict-free symbolically; the dynamic
//! side *observes* an actual SPMD execution under the vector-clock race
//! detector the SHMEM world owns (`svsim_shmem::WorldOptions::detect_races`)
//! and checks the two agree: a proven-safe plan must produce zero dynamic
//! race reports, at every PE count, on every workload. One direction only — the detector sees just
//! the remote accesses of one seeded run, so a clean dynamic run does not
//! prove a plan safe; a dynamic race under a proven-safe verdict, however,
//! falsifies the checker (or the executor) and fails loudly.
//!
//! Cross-validation is pinned to the **thread-backed** SHMEM world
//! ([`svsim_shmem::ShmemBackend::Thread`], the `SimConfig` default): the
//! detector's epoch-scoped shadow state lives in in-process `Arc`s and
//! cannot observe forked PEs. Arming the detector on the process backend
//! is a typed `InvalidConfig` error, never a silently-empty report — the
//! access protocol it validates is backend-independent, so the thread-world
//! verdict covers the `memfd`-arena world too.

use crate::check::Verdict;
use svsim_core::{RunStart, SimConfig, Simulator};
use svsim_ir::Circuit;
use svsim_shmem::RaceReport;
use svsim_types::SvResult;
use svsim_workloads::{large_suite, medium_suite};

/// One workload × PE-count agreement check.
#[derive(Debug)]
pub struct CrossValidation {
    /// Workload (or ad-hoc circuit) name.
    pub name: String,
    /// Circuit width.
    pub n_qubits: u32,
    /// PEs the run executed on.
    pub n_pes: usize,
    /// The static checker's verdict for the schedule.
    pub static_verdict: Verdict,
    /// Every race the dynamic detector observed.
    pub races: Vec<RaceReport>,
    /// Barriers PE 0 passed in the detected run: as many as a run without
    /// the detector, since both pass the plan's.
    pub barriers: u64,
}

impl CrossValidation {
    /// The agreement invariant: proven-safe implies zero observed races.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.static_verdict != Verdict::ProvenSafe || self.races.is_empty()
    }
}

/// Statically analyze the plan `config` lowers `circuit` to, then execute
/// that plan with the race detector armed on top of `config` (a scale-out
/// configuration), and return both outcomes.
///
/// # Errors
/// Analysis errors (bad PE count) or simulation errors.
pub fn cross_validate(
    name: &str,
    circuit: &Circuit,
    config: SimConfig,
) -> SvResult<CrossValidation> {
    let config = SimConfig {
        detect_races: true,
        ..config
    };
    let mut sim = Simulator::new(circuit.n_qubits(), config)?;
    let plan = sim.compile_plan(circuit);
    let report = crate::prove(&plan, &config)?;
    let summary = sim.run_from(circuit, Some(&plan), RunStart::Fresh)?;
    Ok(CrossValidation {
        name: name.to_string(),
        n_qubits: circuit.n_qubits(),
        n_pes: config.backend.n_workers(),
        static_verdict: report.verdict(),
        barriers: summary.traffic.first().map_or(0, |pe| pe.barriers),
        races: summary.races,
    })
}

/// Cross-validate every Table 4 workload of width at most `max_qubits`
/// under each configuration in `configs`.
///
/// # Errors
/// Propagates workload-generator, analysis, and simulation errors.
pub fn cross_validate_suite(
    max_qubits: u32,
    configs: &[SimConfig],
) -> SvResult<Vec<CrossValidation>> {
    let mut out = Vec::new();
    for spec in medium_suite().into_iter().chain(large_suite()) {
        let circuit = spec.circuit()?;
        if circuit.n_qubits() > max_qubits {
            continue;
        }
        for &config in configs {
            out.push(cross_validate(spec.name, &circuit, config)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validation_is_pinned_to_the_thread_backend() {
        // The detector's shadow state cannot cross a fork: the configs this
        // module builds stay thread-backed, and arming the detector on the
        // process backend is refused typed instead of yielding a silently
        // empty race report (which `agrees()` would misread as clean).
        assert_eq!(
            SimConfig::scale_out(2).shmem_backend,
            svsim_shmem::ShmemBackend::Thread,
            "scale_out defaults to the thread world"
        );
        let circuit = svsim_workloads::algos::cat_state(4).unwrap();
        let config = SimConfig {
            detect_races: true,
            shmem_backend: svsim_shmem::ShmemBackend::Process,
            ..SimConfig::scale_out(2)
        };
        let mut sim = Simulator::new(4, config).unwrap();
        match sim.run(&circuit) {
            Err(svsim_types::SvError::InvalidConfig(msg)) => {
                assert!(msg.contains("thread backend"), "actionable: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn the_detector_watches_the_walk_a_plain_run_takes() {
        // Arming the detector changes nothing the run does: `seca_n11` at 4
        // PEs runs the same kernels on the PEs' slabs, borrows the same runs
        // and counts the same traffic on every PE, and every borrow is
        // traced. (A race through such a borrow is reported:
        // `exec::tests::the_detector_names_two_pes_borrowing_one_run_in_one_epoch`.)
        let spec = medium_suite()
            .into_iter()
            .find(|s| s.name == "seca_n11")
            .expect("seca_n11 is a Table 4 workload");
        let circuit = spec.circuit().unwrap();
        let base = SimConfig {
            seed: 0xC0FFEE,
            ..SimConfig::scale_out(4)
        };
        let run = |config: SimConfig| {
            Simulator::new(circuit.n_qubits(), config)
                .unwrap()
                .run(&circuit)
                .unwrap()
        };
        let detected = run(SimConfig {
            detect_races: true,
            ..base
        });
        let plain = run(base);
        assert!(detected.races.is_empty(), "{:?}", detected.races);
        assert!(plain.slab_kernels > 0);
        assert_eq!(detected.slab_kernels, plain.slab_kernels);
        assert_eq!(detected.cbits, plain.cbits);
        assert_eq!(detected.traffic, plain.traffic);
    }

    #[test]
    fn every_small_workload_agrees_with_the_static_verdict() {
        // Debug-build budget: the ≤13-qubit Table 4 workloads at 2/4/8
        // PEs, plus the remapped schedule at 4. Release-mode CI covers the
        // larger ones.
        let base = |pes: usize| SimConfig {
            seed: 0xC0FFEE,
            ..SimConfig::scale_out(pes)
        };
        let configs = [
            base(2),
            base(4),
            base(8),
            SimConfig {
                remap: true,
                ..base(4)
            },
        ];
        let results = cross_validate_suite(13, &configs).unwrap();
        assert!(!results.is_empty());
        for r in &results {
            assert_eq!(
                r.static_verdict,
                Verdict::ProvenSafe,
                "{} at {} PEs must be statically safe",
                r.name,
                r.n_pes
            );
            assert!(
                r.races.is_empty(),
                "{} at {} PEs raced dynamically: {:?}",
                r.name,
                r.n_pes,
                r.races
            );
            assert!(r.agrees());
        }
    }

    #[test]
    fn remapped_suite_is_bit_identical_statically_safe_and_race_free() {
        // The cross-backend property behind the remap feature: for every
        // Table 4 workload, scale-out execution WITH qubit relabeling at
        // 2/4/8 PEs must (a) check out statically ProvenSafe including its
        // exchange epochs, (b) record zero dynamic races, and (c) finish
        // bit-identical to the single-device reference — checksum, raw
        // amplitude words, and classical bits. Debug-build budget: the
        // ≤13-qubit workloads; the ignored full-suite test in
        // `tests/proc_backend.rs` (a release-mode CI leg) runs the
        // identity check over every workload.
        use svsim_core::Simulator;
        let seed = 0xC0FFEE;
        for spec in medium_suite().into_iter().chain(large_suite()) {
            let circuit = spec.circuit().unwrap();
            if circuit.n_qubits() > 13 {
                continue;
            }
            let mut reference = Simulator::new(
                circuit.n_qubits(),
                SimConfig {
                    seed,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            let ref_summary = reference.run(&circuit).unwrap();
            for n_pes in [2usize, 4, 8] {
                let config = SimConfig {
                    seed,
                    detect_races: true,
                    remap: true,
                    ..SimConfig::scale_out(n_pes)
                };
                let report = crate::analyze(&circuit, &config).unwrap();
                assert_eq!(
                    report.verdict(),
                    Verdict::ProvenSafe,
                    "{} remapped at {n_pes} PEs must be statically safe",
                    spec.name
                );
                let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
                let summary = sim.run(&circuit).unwrap();
                assert!(
                    summary.races.is_empty(),
                    "{} remapped at {n_pes} PEs raced: {:?}",
                    spec.name,
                    summary.races
                );
                assert_eq!(
                    summary.cbits, ref_summary.cbits,
                    "{} at {n_pes} PEs: classical bits diverged",
                    spec.name
                );
                assert_eq!(
                    sim.state_checksum(),
                    reference.state_checksum(),
                    "{} at {n_pes} PEs: remapped amplitudes must be bit-identical",
                    spec.name
                );
            }
        }
    }

    /// The detector watches a plan with tile runs: at 2 PEs an 18-qubit
    /// slab is four L2 tiles, so its plan has fewer epochs than kernels, and
    /// the detected launch walks what a plain one walks — the same tile
    /// runs on the same slabs, skipping the same zero tiles, with every
    /// counter equal, barriers included. Release-mode CI leg (`scripts/ci.sh`): the
    /// `analyze --suite --detect` legs stop at 14 qubits, where a slab is at
    /// most one L2 tile and its runs, if any, are at 2^11.
    #[test]
    #[ignore = "release-mode CI leg: runs via scripts/ci.sh (cargo test --release -- --ignored)"]
    fn tile_runs_cross_validate_under_the_detector() {
        use svsim_core::CompiledPlan;
        let config = SimConfig::scale_out(2);
        for name in ["bigadder_n18", "cc_n18"] {
            let spec = large_suite().into_iter().find(|s| s.name == name).unwrap();
            let circuit = spec.circuit().unwrap();
            let n = circuit.n_qubits();
            let cv = cross_validate(name, &circuit, config).unwrap();
            assert_eq!(cv.static_verdict, Verdict::ProvenSafe, "{name}");
            assert!(cv.races.is_empty() && cv.agrees(), "{name}: {:?}", cv.races);
            let plan = CompiledPlan::compile(&circuit, n, &config);
            let epochs = crate::CommPlan::from_plan(&plan).epochs.len();
            assert!(epochs < plan.n_kernels(), "{name}: {epochs} epochs");
            let run = |config| Simulator::new(n, config).unwrap().run(&circuit).unwrap();
            let plain = run(config);
            let detected = run(SimConfig {
                detect_races: true,
                ..config
            });
            assert_eq!(cv.barriers, plain.traffic[0].barriers, "{name}");
            let walked = |s: &svsim_core::RunSummary| {
                (s.tile_runs, s.tiled_kernels, s.slab_kernels, s.zero_tiles)
            };
            assert!(plain.tile_runs > 0 && plain.slab_kernels > 0, "{name}");
            assert_eq!(walked(&detected), walked(&plain), "{name}");
            assert_eq!(detected.traffic, plain.traffic, "{name}");
            assert!(detected.races.is_empty(), "{name}: {:?}", detected.races);
            println!(
                "{name}: {} kernels in {epochs} epochs, {} barriers on PE 0, {} tile runs \
                 and {} zero tiles skipped, detected and plain",
                plan.n_kernels(),
                cv.barriers,
                plain.tile_runs,
                plain.zero_tiles
            );
        }
    }

    #[test]
    fn measurement_and_conditionals_cross_validate_too() {
        // Exercise collapse epochs and classically conditioned gates (the
        // teleportation-style pattern) under both analyses at once.
        use svsim_ir::{Gate, GateKind};
        let mut c = Circuit::with_cbits(5, 2);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 4], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c.if_eq(0, 1, 1, Gate::new(GateKind::X, &[4], &[]).unwrap())
            .unwrap();
        c.reset(2).unwrap();
        c.apply(GateKind::H, &[4], &[]).unwrap();
        let r = cross_validate(
            "teleport-ish",
            &c,
            SimConfig {
                seed: 7,
                ..SimConfig::scale_out(4)
            },
        )
        .unwrap();
        assert_eq!(r.static_verdict, Verdict::ProvenSafe);
        assert!(r.races.is_empty() && r.agrees());
    }
}
