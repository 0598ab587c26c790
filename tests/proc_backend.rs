//! Process-backed SHMEM world, end to end: forked PEs over a `memfd`
//! symmetric heap must be a drop-in substrate for the scale-out backend —
//! bit-identical states, typed real-SIGKILL failures, engine-level
//! checkpoint recovery and quarantine, and no leaked file descriptors or
//! arena mappings.
//!
//! The quick tests here are debug-sized; the full Table 4 gate
//! (`full_suite_bit_identity_thread_vs_process`) is `#[ignore]`d and runs
//! release-mode from `scripts/ci.sh`.

use std::sync::Arc;
use std::time::Duration;
use sv_sim::core::{
    state_checksum, CheckpointStore, DispatchMode, RunStart, ShmemBackend, SimConfig, Simulator,
};
use sv_sim::engine::{
    DegradePolicy, Engine, EngineConfig, JobError, JobOutput, JobRequest, JobSpec, RetryPolicy,
    SubmitError,
};
use sv_sim::ir::{Circuit, GateKind};
use sv_sim::shmem::{FaultAction, FaultPlan};
use sv_sim::types::{PeOp, SvError};
use sv_sim::workloads::random::random_circuit;

fn run_state(circuit: &Circuit, config: SimConfig) -> (u64, Vec<f64>, Vec<f64>) {
    let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
    let summary = sim.run(circuit).unwrap();
    (
        summary.cbits,
        sim.state().re().to_vec(),
        sim.state().im().to_vec(),
    )
}

fn ghz_with_measure(n: u32) -> Circuit {
    let mut c = Circuit::with_cbits(n, 2);
    c.apply(GateKind::H, &[0], &[]).unwrap();
    for q in 1..n {
        c.apply(GateKind::CX, &[q - 1, q], &[]).unwrap();
    }
    c.measure(0, 0).unwrap();
    c.measure(n - 1, 1).unwrap();
    c
}

/// Count open file descriptors that point at a memfd.
fn open_memfds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .filter(|entry| {
            entry.as_ref().is_ok_and(|e| {
                std::fs::read_link(e.path())
                    .map(|target| target.to_string_lossy().contains("memfd:"))
                    .unwrap_or(false)
            })
        })
        .count()
}

/// Count the mappings of a memfd in this process's address space.
fn memfd_mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps")
        .lines()
        .filter(|line| line.contains("memfd:"))
        .count()
}

/// Thread-backed and process-backed PEs produce bit-identical states and
/// classical bits on random circuits at every PE count.
#[test]
fn thread_and_process_pes_are_bit_identical() {
    for seed in 0..6u64 {
        let n = 6u32;
        let circuit = random_circuit(n, 5 + (seed as usize * 9) % 40, seed);
        for n_pes in [2usize, 4, 8] {
            let base = SimConfig {
                seed,
                ..SimConfig::scale_out(n_pes)
            };
            let (tc, tre, tim) = run_state(&circuit, base);
            let (pc, pre, pim) = run_state(
                &circuit,
                SimConfig {
                    shmem_backend: ShmemBackend::Process,
                    ..base
                },
            );
            assert_eq!(tc, pc, "cbits diverged (seed {seed}, {n_pes} PEs)");
            assert_eq!(tre, pre, "re diverged (seed {seed}, {n_pes} PEs)");
            assert_eq!(tim, pim, "im diverged (seed {seed}, {n_pes} PEs)");
        }
    }
}

/// Measurement collapse replays identically across the fork boundary: the
/// random stream is drawn in the parent and shipped into every child.
#[test]
fn measurement_streams_agree_across_backends() {
    let circuit = ghz_with_measure(5);
    for seed in 0..8u64 {
        let base = SimConfig {
            seed,
            ..SimConfig::scale_out(4)
        };
        let (tc, tre, tim) = run_state(&circuit, base);
        let (pc, pre, pim) = run_state(
            &circuit,
            SimConfig {
                shmem_backend: ShmemBackend::Process,
                ..base
            },
        );
        assert_eq!(tc, pc, "seed {seed}");
        assert_eq!((tre, tim), (pre, pim), "collapsed state, seed {seed}");
    }
}

/// Forked PEs reach the arena as plain memory like thread PEs do — their own
/// slab for partition-local kernels, runs lent out of the other PE's mapping
/// for boundary kernels — and account for it in the arena's counter blocks:
/// state, classical bits, slab kernels and every PE's traffic equal the
/// thread world's, with or without a fault plan attached whose `Get` spec
/// (counted against the arena's mirror of the plan) never fires.
#[test]
fn plain_memory_paths_match_across_thread_and_process_pes() {
    use sv_sim::ir::GateKind::*;
    // 8 qubits at 2 PEs: the boundary is qubit 7. A kernel of every driver
    // across it with runs to lend (lowest qubit 3 to 7), and four without:
    // pair kernels on targets 0, 2 and 4 under the boundary qubit, walked as
    // stretches of 128 amplitudes lent out of either PE's mapping, and two
    // low controls over it. Then a controlled phase on 0 and 1, in whole
    // chunks of each PE's own slab.
    let n = 8u32;
    let mut circuit = Circuit::with_cbits(n, 2);
    circuit.extend(&random_circuit(n, 60, 5)).unwrap();
    let across: [(sv_sim::ir::GateKind, &[u32], &[f64]); 13] = [
        (H, &[7], &[]),
        (T, &[7], &[]),
        (CX, &[4, 7], &[]),
        (CU1, &[3, 7], &[0.37]),
        (SWAP, &[5, 7], &[]),
        (RXX, &[6, 7], &[0.9]),
        (CCX, &[3, 7, 5], &[]),
        (RZZ, &[7, 4], &[0.4]),
        (CX, &[7, 0], &[]),
        (CRY, &[7, 2], &[0.9]),
        (CX, &[7, 3], &[]),
        (CRY, &[7, 4], &[0.9]),
        (CCX, &[0, 1, 7], &[]),
    ];
    for (kind, qubits, params) in across {
        circuit.apply(kind, qubits, params).unwrap();
    }
    circuit.apply(CU1, &[1, 0], &[0.37]).unwrap();
    circuit.extend(&ghz_with_measure(n)).unwrap();
    let observe = |config: SimConfig, plan: Option<FaultPlan>| {
        let mut sim = Simulator::new(n, config).unwrap();
        sim.set_fault_plan(plan.map(Arc::new));
        let summary = sim.run(&circuit).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let state = (bits(sim.state().re()), bits(sim.state().im()));
        (
            (state, summary.cbits, summary.traffic),
            summary.slab_kernels,
        )
    };
    let threads = SimConfig {
        seed: 5,
        ..SimConfig::scale_out(2)
    };
    let processes = SimConfig {
        shmem_backend: ShmemBackend::Process,
        ..threads
    };
    let never = FaultPlan::new().with(0, PeOp::Get, u64::MAX, FaultAction::Delay(0));
    let (plain, on_slab) = observe(processes, None);
    assert!(on_slab > 0, "no kernel took the slab");
    let (observed, kept) = observe(processes, Some(never));
    assert!(
        plain == observed && kept == on_slab,
        "a fault plan that never fires changed the walk"
    );
    assert!(
        (plain, on_slab) == observe(threads, None),
        "substrates differ"
    );
}

/// The communication-avoiding remap planner runs unchanged on forked PEs —
/// the relabeling slab exchanges go through the shared arena, and a
/// partition-index qubit measured after relabelings is summed over the
/// arena words of each PE's partition in logical order.
#[test]
fn remap_is_bit_identical_on_process_pes() {
    for seed in [3u64, 17] {
        let mut circuit = Circuit::with_cbits(6, 3);
        circuit.extend(&random_circuit(6, 48, seed)).unwrap();
        circuit.measure(5, 0).unwrap();
        circuit.extend(&random_circuit(6, 24, seed + 1)).unwrap();
        circuit.measure(4, 1).unwrap();
        circuit.measure(1, 2).unwrap();
        let reference = run_state(
            &circuit,
            SimConfig {
                seed,
                ..SimConfig::single_device()
            },
        );
        for n_pes in [4usize, 8] {
            let config = SimConfig {
                seed,
                remap: true,
                shmem_backend: ShmemBackend::Process,
                ..SimConfig::scale_out(n_pes)
            };
            let mut sim = Simulator::new(6, config).unwrap();
            let summary = sim.run(&circuit).unwrap();
            let what = format!("seed {seed}, {n_pes} PEs");
            assert!(summary.remap_swaps > 0, "{what}: nothing relabeled");
            let state = (sim.state().re().to_vec(), sim.state().im().to_vec());
            assert_eq!(
                (summary.cbits, state.0, state.1),
                reference,
                "remap on process PEs diverged ({what})"
            );
        }
    }
}

/// The dynamic race detector's shadow state is in-process `Arc`s; arming it
/// on forked PEs must be refused with a typed config error, not silently
/// miss every access.
#[test]
fn race_detection_on_process_pes_is_a_typed_config_error() {
    let circuit = random_circuit(5, 10, 1);
    let config = SimConfig {
        detect_races: true,
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(2)
    };
    let mut sim = Simulator::new(5, config).unwrap();
    match sim.run(&circuit) {
        Err(SvError::InvalidConfig(msg)) => {
            assert!(msg.contains("thread backend"), "actionable message: {msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// Launching forked PEs must not leak the arena's memfd: the fd is closed
/// right after `mmap`, so repeated launches leave `/proc/self/fd` clean;
/// and the mapping, which outlives the reap until the host has read the
/// state off the heap, is gone once that readback ends.
#[test]
fn repeated_launches_leak_no_memfds() {
    let circuit = random_circuit(5, 12, 7);
    let config = SimConfig {
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(4)
    };
    for _ in 0..20 {
        let mut sim = Simulator::new(5, config).unwrap();
        sim.run(&circuit).unwrap();
    }
    // Other tests in this binary may hold a memfd for a few microseconds
    // between `memfd_create` and the post-mmap close; sample briefly
    // rather than flaking on that window.
    let mut count = open_memfds();
    for _ in 0..5 {
        if count == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        count = open_memfds();
    }
    assert_eq!(count, 0, "memfd descriptors leaked across launches");
    // Other tests in this binary keep an arena mapped for the whole of a
    // launch; wait for a moment when none is. A leaked mapping never goes.
    let mut mapped = memfd_mappings();
    for _ in 0..3000 {
        if mapped == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        mapped = memfd_mappings();
    }
    assert_eq!(mapped, 0, "arena mappings leaked across launches");
}

/// An injected Kill on the process backend is a *real* `SIGKILL(2)` of the
/// forked PE; the engine retries from the last checkpoint and finishes
/// bit-identical to the fault-free run — the host process is never
/// poisoned by the death.
#[test]
fn engine_recovers_from_a_real_sigkill_bit_identically() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 11,
        checkpoint_every: 2,
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(4)
    };

    let mut reference = Simulator::new(6, config).unwrap();
    let ref_summary = reference.run(&circuit).unwrap();
    let ref_checksum = state_checksum(reference.state());

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 9, FaultAction::Kill));
    let handle = engine
        .submit(JobRequest {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(3)
            },
            fault_plan: Some(Arc::clone(&plan)),
            ..JobRequest::new(JobSpec::OneShot {
                circuit: Arc::clone(&circuit),
                config,
                shots: 0,
                return_state: true,
            })
        })
        .unwrap();
    let JobOutput::OneShot { summary, state, .. } =
        handle.wait().expect("retry must recover the job")
    else {
        panic!("one-shot output expected");
    };
    assert_eq!(plan.armed_remaining(), 0, "the SIGKILL must actually fire");
    let state = state.expect("state requested");
    assert_eq!(state_checksum(&state), ref_checksum);
    assert_eq!(summary.cbits, ref_summary.cbits);

    let metrics = engine.shutdown();
    assert!(metrics.retries >= 1, "a retry must be recorded");
    assert!(metrics.checkpoint_bytes > 0, "checkpoints were captured");
    assert_eq!(metrics.failed, 0);
}

/// Without retries, a real SIGKILL surfaces as the typed
/// `PeFailed { op: Term { signal: SIGKILL, .. } }` — carrying the barrier
/// epoch the PE had last completed — and repeated deaths quarantine the
/// job fingerprint at admission.
#[test]
fn repeated_sigkills_quarantine_the_job_shape() {
    let circuit = Arc::new(ghz_with_measure(4));
    let config = SimConfig {
        seed: 7,
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(2)
    };
    let engine = Engine::start(EngineConfig {
        workers: 1,
        quarantine_threshold: 2,
        ..EngineConfig::default()
    });
    let faulty = || JobRequest {
        fault_plan: Some(Arc::new(FaultPlan::new().with(
            0,
            PeOp::Barrier,
            2,
            FaultAction::Kill,
        ))),
        ..JobRequest::new(JobSpec::OneShot {
            circuit: Arc::clone(&circuit),
            config,
            shots: 0,
            return_state: false,
        })
    };
    for _ in 0..2 {
        match engine.submit(faulty()).unwrap().wait() {
            Err(JobError::Failed(SvError::PeFailed {
                pe: 0,
                op: PeOp::Term { signal, epoch, .. },
            })) => {
                assert_eq!(signal, 9, "death by SIGKILL");
                assert_eq!(epoch, 1, "one barrier completed before the kill");
            }
            other => panic!("expected PeFailed with a Term record, got {other:?}"),
        }
    }
    match engine.submit(faulty()) {
        Err(SubmitError::Quarantined { failures: 2 }) => {}
        other => panic!("expected quarantine, got {other:?}"),
    }

    // The thread-backed flavor of the same job is a *different* fingerprint
    // (the backend is part of the config, hence of the shape) and is
    // admitted normally.
    let thread_job = JobRequest::new(JobSpec::OneShot {
        circuit: Arc::clone(&circuit),
        config: SimConfig {
            shmem_backend: ShmemBackend::Thread,
            ..config
        },
        shots: 0,
        return_state: false,
    });
    let h = engine.submit(thread_job).unwrap();
    assert!(h.wait().is_ok());

    let metrics = engine.shutdown();
    assert_eq!(metrics.quarantined, 1);
    assert_eq!(metrics.failed, 2);
}

/// A torn checkpoint write (injected host-side crash mid-persist) loses
/// the in-memory checkpoint and leaves a half-written generation on disk;
/// the store's previous good generation recovers the run bit-identically —
/// on thread-backed AND process-backed PEs.
#[test]
fn torn_checkpoint_recovers_from_previous_generation_on_both_backends() {
    use sv_sim::workloads::random::random_circuit;
    let circuit = random_circuit(5, 24, 21);
    for backend in [ShmemBackend::Thread, ShmemBackend::Process] {
        let config = SimConfig {
            seed: 5,
            checkpoint_every: 2,
            shmem_backend: backend,
            ..SimConfig::scale_out(2)
        };
        let mut reference = Simulator::new(5, config).unwrap();
        let ref_summary = reference.run(&circuit).unwrap();
        let ref_checksum = state_checksum(reference.state());

        let dir =
            std::env::temp_dir().join(format!("svsim-torn-{}-{backend:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = Simulator::new(5, config).unwrap();
        sim.set_checkpoint_store(Some(CheckpointStore::open(&dir).unwrap()));
        // Generations 0 (op 0) and 1 (op 2) land cleanly; the third
        // persist tears mid-write.
        sim.set_fault_plan(Some(Arc::new(FaultPlan::new().with(
            0,
            PeOp::Checkpoint,
            3,
            FaultAction::TornCheckpoint,
        ))));
        match sim.run(&circuit) {
            Err(SvError::Checkpoint(msg)) => {
                assert!(msg.contains("torn write"), "typed torn-write error: {msg}");
            }
            other => panic!("expected a torn-checkpoint error, got {other:?}"),
        }
        assert!(
            sim.checkpoint().is_none(),
            "the in-memory checkpoint must be lost with the crash"
        );
        let summary = sim
            .run_from(&circuit, None, RunStart::LastCheckpoint)
            .unwrap();
        assert_eq!(
            state_checksum(sim.state()),
            ref_checksum,
            "recovered state diverged ({backend:?})"
        );
        assert_eq!(summary.cbits, ref_summary.cbits, "{backend:?}");
        // Resumed mid-circuit from the store's previous good generation: it
        // captured fewer checkpoints than a run from op 0.
        assert!(
            summary.checkpoint_bytes < ref_summary.checkpoint_bytes,
            "the previous good generation must load ({backend:?}): {} >= {}",
            summary.checkpoint_bytes,
            ref_summary.checkpoint_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With a respawn budget armed, a real SIGKILL of a forked PE is healed
/// *inside* the launch: the supervisor re-forks only the victim, surviving
/// PEs keep their pids, and the job completes bit-identically with no
/// engine-level retry at all.
#[test]
fn respawn_heals_a_sigkill_without_an_engine_retry() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 11,
        checkpoint_every: 2,
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(4)
    };
    let mut reference = Simulator::new(6, config).unwrap();
    reference.run(&circuit).unwrap();
    let ref_checksum = state_checksum(reference.state());

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 9, FaultAction::Kill));
    let config = SimConfig {
        respawn_max: 2,
        ..config
    };
    let handle = engine
        .submit(JobRequest {
            fault_plan: Some(Arc::clone(&plan)),
            ..JobRequest::new(JobSpec::OneShot {
                circuit: Arc::clone(&circuit),
                config,
                shots: 0,
                return_state: true,
            })
        })
        .unwrap();
    let JobOutput::OneShot { summary, state, .. } =
        handle.wait().expect("respawn must heal the launch")
    else {
        panic!("one-shot output expected");
    };
    assert_eq!(plan.armed_remaining(), 0, "the SIGKILL must actually fire");
    assert_eq!(
        state_checksum(&state.expect("state requested")),
        ref_checksum
    );
    assert!(summary.respawns >= 1, "the supervisor respawned in place");
    let metrics = engine.shutdown();
    assert!(metrics.respawned >= 1, "respawns are visible in metrics");
    assert_eq!(metrics.retries, 0, "no engine-level retry was needed");
    assert_eq!(metrics.failed, 0);
}

/// A PE that stops making progress (injected infinite sleep) is detected
/// by the parent watchdog within the configured deadline and surfaces as
/// the typed `PeHung` — distinct from `PeFailed` — when no recovery path
/// is armed.
#[test]
fn hung_pe_surfaces_as_typed_pe_hung_through_the_engine() {
    let circuit = Arc::new(ghz_with_measure(5));
    let config = SimConfig {
        seed: 3,
        shmem_backend: ShmemBackend::Process,
        hang_deadline_ms: 400,
        ..SimConfig::scale_out(2)
    };
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let started = std::time::Instant::now();
    let handle = engine
        .submit(JobRequest {
            fault_plan: Some(Arc::new(FaultPlan::new().with(
                1,
                PeOp::Put,
                2,
                FaultAction::Hang,
            ))),
            ..JobRequest::new(JobSpec::OneShot {
                circuit,
                config,
                shots: 0,
                return_state: false,
            })
        })
        .unwrap();
    match handle.wait() {
        Err(JobError::Failed(SvError::PeHung { pe, stalled_ms, .. })) => {
            assert_eq!(pe, 1, "the hung rank is identified");
            assert!(stalled_ms >= 400, "stall at least the deadline");
        }
        other => panic!("expected PeHung, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the watchdog, not a barrier timeout, must catch the hang"
    );
    let metrics = engine.shutdown();
    assert_eq!(metrics.hung, 1, "the hang is counted in engine metrics");
}

/// The degradation ladder: repeated transient failures re-partition the
/// job at half the PEs and resume from the last good checkpoint, and the
/// degraded run still matches the fault-free reference bit for bit.
#[test]
fn degradation_ladder_halves_pes_and_stays_bit_identical() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 19,
        checkpoint_every: 2,
        ..SimConfig::scale_out(4)
    };
    let mut reference = Simulator::new(6, config).unwrap();
    let ref_summary = reference.run(&circuit).unwrap();
    let ref_checksum = state_checksum(reference.state());

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // The first segment passes 8 borrows (two kernels on each of 4 PEs), so
    // the 9th kills a PE in the second, after the checkpoint at op 2.
    let plan = Arc::new(FaultPlan::new().with(None, PeOp::Put, 9, FaultAction::Kill));
    let handle = engine
        .submit(JobRequest {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(4)
            },
            degrade: DegradePolicy::HalvePes {
                failures_per_rung: 1,
                min_pes: 1,
            },
            fault_plan: Some(Arc::clone(&plan)),
            ..JobRequest::new(JobSpec::OneShot {
                circuit: Arc::clone(&circuit),
                config,
                shots: 0,
                return_state: true,
            })
        })
        .unwrap();
    let JobOutput::OneShot { summary, state, .. } =
        handle.wait().expect("degraded job must complete")
    else {
        panic!("one-shot output expected");
    };
    assert_eq!(plan.armed_remaining(), 0, "the kill must actually fire");
    assert_eq!(
        state_checksum(&state.expect("state requested")),
        ref_checksum
    );
    // The narrower world resumed from the checkpoint the wider one took,
    // not from op 0: it captured fewer checkpoints than a whole run.
    assert!(
        summary.checkpoint_bytes < ref_summary.checkpoint_bytes,
        "degradation must keep the in-memory checkpoint: {} >= {}",
        summary.checkpoint_bytes,
        ref_summary.checkpoint_bytes
    );
    let metrics = engine.shutdown();
    assert!(
        metrics.degraded >= 1,
        "the halve-PEs step is visible in engine metrics"
    );
    assert_eq!(metrics.failed, 0);
}

/// The full Table 4 gate: every medium + large workload, thread vs process
/// at 2/4/8 PEs, compared by amplitude checksum and classical bits against
/// the single-device reference. The 4-PE legs on both substrates and the
/// 8-PE thread leg also run remapped, and the 8-PE thread leg carries the
/// communication-avoiding gate: on every deep circuit (>= 100 gates) whose
/// naive schedule moves remote data, the remapped schedule's measured remote
/// bytes are at most half of naive. Release-mode CI leg (`scripts/ci.sh`).
#[test]
#[ignore = "release-mode CI leg: runs via scripts/ci.sh (cargo test --release -- --ignored)"]
fn full_suite_bit_identity_thread_vs_process() {
    let suite: Vec<_> = sv_sim::workloads::medium_suite()
        .into_iter()
        .chain(sv_sim::workloads::large_suite())
        .collect();
    assert_eq!(suite.len(), 16, "the full Table 4 suite");
    for spec in suite {
        let circuit = spec.circuit().unwrap();
        let n = circuit.n_qubits();
        let mut reference = Simulator::new(n, SimConfig::single_device()).unwrap();
        let ref_summary = reference.run(&circuit).unwrap();
        let ref_checksum = state_checksum(reference.state());
        for n_pes in [2usize, 4, 8] {
            for backend in [ShmemBackend::Thread, ShmemBackend::Process] {
                let remaps: &[bool] = match (n_pes, backend) {
                    (4, _) | (8, ShmemBackend::Thread) => &[false, true],
                    _ => &[false],
                };
                let mut remote_bytes = Vec::new();
                for &remap in remaps {
                    let config = SimConfig {
                        remap,
                        shmem_backend: backend,
                        ..SimConfig::scale_out(n_pes)
                    };
                    let mut sim = Simulator::new(n, config).unwrap();
                    let summary = sim.run(&circuit).unwrap();
                    assert_eq!(
                        state_checksum(sim.state()),
                        ref_checksum,
                        "{} diverged ({backend:?}, {n_pes} PEs, remap {remap})",
                        spec.name
                    );
                    assert_eq!(
                        summary.cbits, ref_summary.cbits,
                        "{} cbits diverged ({backend:?}, {n_pes} PEs, remap {remap})",
                        spec.name
                    );
                    remote_bytes.push(summary.total_traffic().remote_bytes());
                }
                if let [naive, remapped] = remote_bytes[..] {
                    if n_pes == 8 && ref_summary.gates >= 100 && naive > 0 {
                        assert!(
                            remapped * 2 <= naive,
                            "{}: remapped remote bytes {remapped} exceed 0.5x naive {naive}",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}

/// Tile-major execution at the shipped tile width on thread and process PEs:
/// `square_root_n18` and a 17-qubit `dnn_layers` with a measure inside, on
/// `ScaleUp {2}` and on `ScaleOut {2}` over both substrates, remapped or
/// not. Each 2^16-amplitude slab is two tiles, so every PE sweeps its tile
/// runs tile by tile between fewer barriers — same state and classical bits
/// as the single device, the same tile runs on either substrate. At 16
/// qubits a slab is one L2 tile, tiled at 2^11 alone: 26 runs of 406
/// kernels, 232 barriers on PE 0 instead of 612, on thread and process PEs
/// alike and bit-identical to the untiled walk. Release-mode CI leg
/// (`scripts/ci.sh`); `tests/cross_backend.rs` runs the single-device and
/// thread-PE legs unoptimized.
#[test]
#[ignore = "release-mode CI leg: runs via scripts/ci.sh (cargo test --release -- --ignored)"]
fn tile_major_runs_agree_across_thread_and_process_pes() {
    use sv_sim::workloads::qnn::dnn_layers;
    let run = |circuit: &Circuit, config: SimConfig| {
        let mut sim = Simulator::new(circuit.n_qubits(), config).unwrap();
        let summary = sim.run(circuit).unwrap();
        let tiles = (summary.tile_runs, summary.tiled_kernels);
        let barriers = summary.traffic.first().map_or(0, |pe| pe.barriers);
        (
            (state_checksum(sim.state()), summary.cbits),
            tiles,
            barriers,
        )
    };
    let square_root = sv_sim::workloads::large_suite()
        .into_iter()
        .find(|spec| spec.name == "square_root_n18")
        .expect("a Table 4 routine");
    let mut dnn = Circuit::with_cbits(17, 1);
    dnn.extend(&dnn_layers(17, 2, 7).unwrap()).unwrap();
    dnn.measure(16, 0).unwrap();
    dnn.extend(&dnn_layers(17, 1, 8).unwrap()).unwrap();
    for (name, circuit) in [
        ("square_root_n18", square_root.circuit().unwrap()),
        ("dnn_layers(17)", dnn),
    ] {
        let (single, (runs, _), _) = run(&circuit, SimConfig::single_device());
        assert!(runs > 0, "{name}: four tiles on one device");
        let (up, (runs, _), _) = run(&circuit, SimConfig::scale_up(2));
        assert!(runs > 0 && up == single, "{name} on scale-up");
        for remap in [false, true] {
            let threads = SimConfig {
                remap,
                ..SimConfig::scale_out(2)
            };
            let processes = SimConfig {
                shmem_backend: ShmemBackend::Process,
                ..threads
            };
            let on_threads = run(&circuit, threads);
            let (state, (runs, kernels), barriers) = on_threads;
            assert!(runs > 0 && state == single, "{name}, remap {remap}");
            // One barrier per tile run, not one per kernel.
            let compiled = Simulator::new(17, threads)
                .unwrap()
                .compile_plan(&circuit)
                .n_kernels();
            assert!(
                barriers < compiled as u64 && kernels > 2 * runs,
                "{name}, remap {remap}: {barriers} barriers, {compiled} kernels, \
                 {kernels} of them in {runs} runs"
            );
            assert!(
                run(&circuit, processes) == on_threads,
                "{name}, remap {remap}: substrates differ"
            );
        }
    }
    let fine = dnn_layers(16, 12, 1).unwrap();
    let processes = SimConfig {
        shmem_backend: ShmemBackend::Process,
        ..SimConfig::scale_out(2)
    };
    let untiled = SimConfig {
        dispatch: DispatchMode::RuntimeParse,
        ..processes
    };
    let (state, tiles, barriers) = run(&fine, processes);
    assert_eq!((tiles, barriers), ((26, 406), 232));
    assert!(run(&fine, SimConfig::scale_out(2)) == (state, tiles, barriers));
    assert!(run(&fine, untiled) == (state, (0, 0), 612));
}
