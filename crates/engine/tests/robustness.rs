//! Robustness integration tests: injected faults, checkpoint-resuming
//! retries, quarantine degradation, and mid-sweep deadline/cancellation.
//!
//! The load-bearing property throughout is *bit-identical recovery*: a job
//! killed by an injected PE fault and retried from its last checkpoint
//! must produce exactly the state, samples, and classical bits of a
//! fault-free run.

use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_core::{state_checksum, ParamCircuit, ParamValue, SimConfig, Simulator};
use svsim_engine::{
    Engine, EngineConfig, JobError, JobOutput, JobRequest, JobSpec, RetryPolicy, SubmitError,
    SweepReturn,
};
use svsim_ir::{Circuit, GateKind};
use svsim_shmem::{FaultAction, FaultPlan};
use svsim_types::PeOp;

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

fn qaoa_like(n: u32, layers: u32) -> ParamCircuit {
    let mut t = ParamCircuit::new(n);
    let mut var = 0usize;
    for q in 0..n {
        t.push_fixed(GateKind::H, &[q], &[]).unwrap();
    }
    for _ in 0..layers {
        for q in 0..n {
            t.push_fixed(GateKind::CX, &[q, (q + 1) % n], &[]).unwrap();
            t.push(GateKind::RZ, &[(q + 1) % n], &[ParamValue::Var(var)])
                .unwrap();
            t.push_fixed(GateKind::CX, &[q, (q + 1) % n], &[]).unwrap();
        }
        var += 1;
        for q in 0..n {
            t.push(GateKind::RX, &[q], &[ParamValue::Var(var)]).unwrap();
        }
        var += 1;
    }
    t
}

fn one_shot(circuit: &Arc<Circuit>, config: SimConfig) -> JobRequest {
    JobRequest::new(JobSpec::OneShot {
        circuit: Arc::clone(circuit),
        config,
        shots: 32,
        return_state: true,
    })
}

/// A scale-out one-shot killed by an injected PE fault mid-circuit must be
/// retried from its last checkpoint and finish bit-identical to a
/// fault-free run — state, checksum, classical bits, and samples.
#[test]
fn one_shot_pe_kill_recovers_bit_identically() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 11,
        checkpoint_every: 2,
        ..SimConfig::scale_out(4)
    };

    // Fault-free reference.
    let mut reference = Simulator::new(6, config).unwrap();
    let ref_summary = reference.run(&circuit).unwrap();
    let ref_samples: Vec<u64> = reference.sample(32);
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
            ..one_shot(&circuit, config)
        })
        .unwrap();
    let JobOutput::OneShot {
        summary,
        state,
        samples,
    } = handle.wait().expect("retry must recover the job")
    else {
        panic!("one-shot output expected");
    };

    assert_eq!(plan.armed_remaining(), 0, "the fault must actually fire");
    let state = state.expect("state requested");
    assert_eq!(state.re(), reference.state().re());
    assert_eq!(state.im(), reference.state().im());
    assert_eq!(state_checksum(&state), ref_checksum);
    assert_eq!(summary.cbits, ref_summary.cbits);
    let mut ref_hist = std::collections::BTreeMap::new();
    for s in ref_samples {
        *ref_hist.entry(s).or_insert(0usize) += 1;
    }
    assert_eq!(
        samples.unwrap(),
        ref_hist,
        "samples must replay identically"
    );

    let metrics = engine.shutdown();
    assert!(metrics.retries >= 1, "a retry must be recorded");
    assert_eq!(metrics.recovery.count(), 1, "one recovery latency sample");
    assert!(metrics.checkpoint_bytes > 0, "checkpoints were captured");
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.failed, 0);
}

/// Dropped-put and poisoned-barrier faults recover the same way.
#[test]
fn one_shot_drop_and_poison_recover() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 23,
        checkpoint_every: 3,
        ..SimConfig::scale_out(2)
    };
    let mut reference = Simulator::new(6, config).unwrap();
    reference.run(&circuit).unwrap();
    let ref_checksum = state_checksum(reference.state());

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let plans = [
        FaultPlan::new().with(None, PeOp::Put, 3, FaultAction::Drop),
        FaultPlan::new().with(0, PeOp::Barrier, 7, FaultAction::Poison),
    ];
    for plan in plans {
        let plan = Arc::new(plan);
        let handle = engine
            .submit(JobRequest {
                retry: RetryPolicy {
                    base_backoff: Duration::from_millis(1),
                    ..RetryPolicy::attempts(4)
                },
                fault_plan: Some(Arc::clone(&plan)),
                ..one_shot(&circuit, config)
            })
            .unwrap();
        let JobOutput::OneShot { state, .. } = handle.wait().expect("recovery") else {
            panic!("one-shot output expected");
        };
        assert_eq!(plan.armed_remaining(), 0, "fault fired");
        assert_eq!(state_checksum(&state.unwrap()), ref_checksum);
    }
    let metrics = engine.shutdown();
    assert!(metrics.retries >= 2);
    assert_eq!(metrics.failed, 0);
}

/// A QAOA-style sweep job killed by an `Exec`-level fault must retry and
/// produce bit-identical results to the fault-free template execution.
#[test]
fn sweep_exec_fault_recovers_bit_identically() {
    let template = qaoa_like(5, 2);
    let params: Vec<f64> = (0..template.n_vars())
        .map(|i| 0.3 + 0.1 * i as f64)
        .collect();
    let mut compiled = template.compile().unwrap();
    let reference = compiled.run(&params).unwrap();

    // One worker so the Exec fault's PE rank (0) is this job's executor.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.register_template("qaoa", &template).unwrap();
    let plan = Arc::new(FaultPlan::new().with(0, PeOp::Exec, 1, FaultAction::Kill));
    let handle = engine
        .submit(JobRequest {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(2)
            },
            fault_plan: Some(Arc::clone(&plan)),
            ..JobRequest::new(JobSpec::Sweep {
                template: id,
                params,
                returning: SweepReturn::State,
            })
        })
        .unwrap();
    let JobOutput::Sweep { state, .. } = handle.wait().expect("retry must recover") else {
        panic!("sweep output expected");
    };
    assert_eq!(plan.armed_remaining(), 0, "the Exec fault must fire");
    let state = state.expect("state requested");
    assert_eq!(state.re(), reference.re());
    assert_eq!(state.im(), reference.im());

    let metrics = engine.shutdown();
    assert!(metrics.retries >= 1);
    assert_eq!(metrics.recovery.count(), 1);
    assert_eq!(metrics.failed, 0);
}

/// Without retries, an injected fault fails the job with the typed
/// `PeFailed` error (not a panic, not a hang).
#[test]
fn fault_without_retry_surfaces_typed_error() {
    let circuit = Arc::new(ghz_with_measure(6));
    let config = SimConfig {
        seed: 5,
        ..SimConfig::scale_out(2)
    };
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 2, FaultAction::Kill));
    let handle = engine
        .submit(JobRequest {
            fault_plan: Some(plan),
            ..one_shot(&circuit, config)
        })
        .unwrap();
    match handle.wait() {
        Err(JobError::Failed(svsim_types::SvError::PeFailed { pe: 1, .. })) => {}
        other => panic!("expected PeFailed{{pe: 1}}, got {other:?}"),
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.retries, 0);
}

/// A job shape that keeps failing is quarantined: further submissions are
/// refused at admission, and a success clears the streak.
#[test]
fn repeated_failures_quarantine_the_job_shape() {
    let circuit = Arc::new(ghz_with_measure(4));
    let config = SimConfig {
        seed: 7,
        ..SimConfig::scale_out(2)
    };
    let engine = Engine::start(EngineConfig {
        workers: 1,
        quarantine_threshold: 2,
        ..EngineConfig::default()
    });
    // Each submission carries a fresh single-shot fault plan, so the same
    // job *shape* fails finally (no retries) every time.
    let faulty = || JobRequest {
        fault_plan: Some(Arc::new(FaultPlan::new().with(
            0,
            PeOp::Barrier,
            1,
            FaultAction::Kill,
        ))),
        ..one_shot(&circuit, config)
    };
    for _ in 0..2 {
        let h = engine.submit(faulty()).unwrap();
        assert!(matches!(h.wait(), Err(JobError::Failed(_))));
    }
    // Streak reached the threshold: admission refuses the shape now.
    match engine.submit(faulty()) {
        Err(SubmitError::Quarantined { failures: 2 }) => {}
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(engine.quarantined_shapes(), 1);

    // A *different* shape (different seed) is unaffected and succeeds —
    // clearing is per-shape, and its success keeps its own streak empty.
    let other = one_shot(&circuit, SimConfig { seed: 8, ..config });
    let h = engine.submit(other).unwrap();
    assert!(h.wait().is_ok());

    let metrics = engine.shutdown();
    assert_eq!(metrics.quarantined, 1, "one submission refused");
    assert_eq!(metrics.failed, 2);
}

/// A success between failures clears the consecutive-failure streak: the
/// quarantine targets persistently failing shapes, not ever-failed ones.
#[test]
fn success_clears_the_failure_streak() {
    let circuit = Arc::new(ghz_with_measure(4));
    let config = SimConfig {
        seed: 9,
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
            1,
            FaultAction::Kill,
        ))),
        ..one_shot(&circuit, config)
    };
    // fail, succeed (same shape, no fault), fail: streak never reaches 2.
    assert!(engine.submit(faulty()).unwrap().wait().is_err());
    assert!(engine
        .submit(one_shot(&circuit, config))
        .unwrap()
        .wait()
        .is_ok());
    assert!(engine.submit(faulty()).unwrap().wait().is_err());
    // Still admitted: the intervening success reset the streak.
    let h = engine.submit(one_shot(&circuit, config)).unwrap();
    assert!(h.wait().is_ok());
    assert_eq!(engine.quarantined_shapes(), 0);
    let metrics = engine.shutdown();
    assert_eq!(metrics.quarantined, 0);
}

/// Deadlines and cancellation are honored *mid-sweep*: members of a
/// coalesced batch that are cancelled or expired while earlier members
/// execute must not run.
#[test]
fn mid_sweep_deadline_and_cancellation_are_honored() {
    let template = qaoa_like(4, 1);
    let n_vars = template.n_vars();
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 8,
        queue_capacity: 64,
        ..EngineConfig::default()
    });
    let id = engine.register_template("qaoa", &template).unwrap();

    // Stalls are built from retry backoff (wall-clock `thread::sleep`, so
    // timing holds on any hardware): an Exec Kill fault fails attempt 1,
    // the policy sleeps a bounded jittered backoff, attempt 2 succeeds.
    let stall = |ms: u64| {
        (
            Arc::new(FaultPlan::new().with(0, PeOp::Exec, 1, FaultAction::Kill)),
            RetryPolicy {
                base_backoff: Duration::from_millis(ms),
                max_backoff: Duration::from_millis(ms),
                ..RetryPolicy::attempts(2)
            },
        )
    };

    // Park the worker ~25-50ms so every sweep below is queued (and
    // coalesced into one batch) before the worker reaches them.
    let (plan, policy) = stall(50);
    let blocker_circuit = Arc::new(ghz_with_measure(4));
    let blocker = engine
        .submit(JobRequest {
            fault_plan: Some(plan),
            retry: policy,
            ..one_shot(&blocker_circuit, SimConfig::single_device())
        })
        .unwrap();

    // First batch member stalls 200-400ms mid-sweep; while it sleeps, the
    // victim's deadline lapses and the cancellee is cancelled.
    let sweep = |i: usize| {
        JobRequest::new(JobSpec::Sweep {
            template: id,
            params: vec![0.1 * i as f64; n_vars],
            returning: SweepReturn::ExpZ(1),
        })
    };
    let (plan, policy) = stall(400);
    let slow_first = engine
        .submit(JobRequest {
            fault_plan: Some(plan),
            retry: policy,
            ..sweep(1)
        })
        .unwrap();
    let healthy = engine.submit(sweep(2)).unwrap();
    let cancellee = engine.submit(sweep(3)).unwrap();
    // The deadline (150ms) sits strictly between the batch dequeue (~50ms)
    // and the victim's turn (≥ 200ms behind `slow_first`'s backoff).
    let victim = engine
        .submit(JobRequest {
            deadline: Some(Instant::now() + Duration::from_millis(150)),
            ..sweep(4)
        })
        .unwrap();

    std::thread::sleep(Duration::from_millis(100));
    cancellee.cancel();

    assert!(blocker.wait().is_ok());
    assert!(slow_first.wait().is_ok(), "stalled, not failed");
    assert!(healthy.wait().is_ok());
    assert!(matches!(cancellee.wait(), Err(JobError::Cancelled)));
    assert!(matches!(victim.wait(), Err(JobError::Expired)));

    let metrics = engine.shutdown();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.expired, 1);
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.retries, 2, "blocker and slow_first each retried");
}

/// The robustness counters surface through `Display` so operators see them
/// in `sv-sim fault-bench` output.
#[test]
fn metrics_display_includes_robustness_line() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let metrics = engine.shutdown();
    let text = format!("{metrics}");
    assert!(text.contains("retries="), "robustness line present: {text}");
    assert!(text.contains("checkpoint_bytes="));
    assert!(text.contains("recovery:"));
}
