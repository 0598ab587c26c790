//! Engine integration tests: results must be indistinguishable from direct
//! simulator use, admission must reject rather than block, and shutdown
//! must be orderly with work in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_core::{measure, ParamCircuit, ParamValue, SimConfig, Simulator};
use svsim_engine::{
    Engine, EngineConfig, JobError, JobOutput, JobRequest, JobSpec, Priority, SubmitError,
    SweepReturn,
};
use svsim_ir::{Circuit, GateKind};
use svsim_types::SvRng;

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

fn ansatz(n: u32, layers: u32) -> ParamCircuit {
    let mut t = ParamCircuit::new(n);
    let mut var = 0usize;
    for q in 0..n {
        t.push_fixed(GateKind::H, &[q], &[]).unwrap();
    }
    for _ in 0..layers {
        for q in 0..n {
            t.push(GateKind::RY, &[q], &[ParamValue::Var(var)]).unwrap();
            var += 1;
        }
        for q in 0..n {
            t.push_fixed(GateKind::CX, &[q, (q + 1) % n], &[]).unwrap();
        }
    }
    t
}

/// Engine one-shot results — classical bits, final state, and sample
/// histograms — must be bit-identical to a directly driven `Simulator`
/// with the same config, across backends, even when instances are pooled
/// and reused between jobs.
#[test]
fn one_shot_results_match_direct_simulator() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let circuit = Arc::new(ghz_with_measure(5));
    let configs = [
        SimConfig {
            seed: 101,
            ..SimConfig::single_device()
        },
        SimConfig {
            seed: 202,
            ..SimConfig::scale_up(2)
        },
        SimConfig {
            seed: 303,
            ..SimConfig::scale_out(4)
        },
    ];
    // Two rounds so the second round exercises pooled (reused) instances.
    for round in 0..2 {
        for config in configs {
            let handle = engine
                .submit(JobRequest::new(JobSpec::OneShot {
                    circuit: Arc::clone(&circuit),
                    config,
                    shots: 64,
                    return_state: true,
                }))
                .unwrap();
            let JobOutput::OneShot {
                summary,
                state,
                samples,
            } = handle.wait().unwrap()
            else {
                panic!("one-shot output expected");
            };

            let mut direct = Simulator::new(5, config).unwrap();
            let direct_summary = direct.run(&circuit).unwrap();
            assert_eq!(
                summary.cbits, direct_summary.cbits,
                "round {round}: classical bits must match direct run"
            );
            let state = state.expect("state requested");
            assert_eq!(state.re(), direct.state().re(), "round {round}: re");
            assert_eq!(state.im(), direct.state().im(), "round {round}: im");

            let mut direct_hist = std::collections::BTreeMap::new();
            for s in direct.sample(64) {
                *direct_hist.entry(s).or_insert(0usize) += 1;
            }
            assert_eq!(samples.unwrap(), direct_hist, "round {round}: samples");
        }
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 6);
    assert_eq!(metrics.failed, 0);
}

/// Sweep results must be bit-identical to running the compiled template
/// directly, and numerically identical to full re-synthesis per trial.
#[test]
fn sweep_results_match_direct_template() {
    let template = ansatz(5, 3);
    let n_vars = template.n_vars();
    let engine = Engine::start(EngineConfig {
        workers: 2,
        max_batch: 4,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();

    let mut rng = SvRng::seed_from_u64(77);
    let points: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..n_vars).map(|_| rng.range_f64(-2.0, 2.0)).collect())
        .collect();
    let handles: Vec<_> = points
        .iter()
        .map(|p| {
            engine
                .submit(JobRequest::new(JobSpec::Sweep {
                    template: id,
                    params: p.clone(),
                    returning: SweepReturn::State,
                }))
                .unwrap()
        })
        .collect();

    let mut compiled = template.compile().unwrap();
    for (h, p) in handles.into_iter().zip(&points) {
        let JobOutput::Sweep { state, .. } = h.wait().unwrap() else {
            panic!("sweep output expected");
        };
        let state = state.expect("state requested");
        let direct = compiled.run(p).unwrap();
        assert_eq!(state.re(), direct.re(), "engine must be bit-identical");
        assert_eq!(state.im(), direct.im());
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 12);
    assert!(
        metrics.batches <= 12,
        "batching must coalesce, not multiply"
    );
}

/// ExpZ sweep returns must equal computing the expectation on the returned
/// state directly.
#[test]
fn expz_return_matches_state_return() {
    let template = ansatz(4, 2);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let params: Vec<f64> = (0..template.n_vars()).map(|i| 0.1 * i as f64).collect();
    let mask = 0b1010u64;

    let by_value = engine
        .submit(JobRequest::new(JobSpec::Sweep {
            template: id,
            params: params.clone(),
            returning: SweepReturn::ExpZ(mask),
        }))
        .unwrap();
    let by_state = engine
        .submit(JobRequest::new(JobSpec::Sweep {
            template: id,
            params,
            returning: SweepReturn::State,
        }))
        .unwrap();
    let JobOutput::Sweep { value, .. } = by_value.wait().unwrap() else {
        panic!()
    };
    let JobOutput::Sweep { state, .. } = by_state.wait().unwrap() else {
        panic!()
    };
    let expected = measure::expval_z_mask(&state.unwrap(), mask);
    assert_eq!(
        value.unwrap(),
        expected,
        "ExpZ must be computed on the result state"
    );
    let _ = engine.shutdown();
}

/// A full queue must reject immediately (never block), and the engine must
/// keep serving once the backlog drains.
#[test]
fn full_queue_rejects_submissions() {
    // One worker, capacity 2: park the worker on a slow-ish job, then fill.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    let slow = Arc::new(ghz_with_measure(16));
    let fast = Arc::new(ghz_with_measure(3));
    let config = SimConfig::single_device();
    let make = |c: &Arc<Circuit>| {
        JobRequest::new(JobSpec::OneShot {
            circuit: Arc::clone(c),
            config,
            shots: 0,
            return_state: false,
        })
    };

    // Saturate: the worker takes jobs off the queue as it runs them, so
    // keep submitting until one sticks as a rejection.
    let mut accepted = vec![engine.submit(make(&slow)).unwrap()];
    let mut rejected = 0u64;
    while rejected == 0 {
        match engine.submit(make(&slow)) {
            Ok(h) => accepted.push(h),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        assert!(
            accepted.len() < 64,
            "queue of capacity 2 must reject under sustained load"
        );
    }

    // Accepted jobs complete; the engine recovers and serves new work.
    for h in accepted.iter().rev() {
        assert!(h.wait().is_ok());
    }
    let h = engine.submit(make(&fast)).unwrap();
    assert!(h.wait().is_ok());
    let metrics = engine.shutdown();
    assert_eq!(metrics.rejected, rejected);
    assert_eq!(metrics.failed, 0);
}

/// Draining shutdown must run every queued job to completion.
#[test]
fn drain_shutdown_completes_in_flight_jobs() {
    let template = ansatz(6, 4);
    let engine = Engine::start(EngineConfig {
        workers: 2,
        max_batch: 8,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let handles: Vec<_> = (0..40)
        .map(|i| {
            engine
                .submit(JobRequest::new(JobSpec::Sweep {
                    template: id,
                    params: vec![0.01 * i as f64; template.n_vars()],
                    returning: SweepReturn::ExpZ(1),
                }))
                .unwrap()
        })
        .collect();
    // Shut down immediately — most jobs are still queued.
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 40, "drain must finish every queued job");
    assert_eq!(metrics.shutdown_dropped, 0);
    for h in handles {
        assert!(h.wait().is_ok(), "every handle must hold a result");
    }
}

/// The sizing fields are taken as written and clamped where they are used:
/// an all-zero sizing still runs with one worker, one queue slot and
/// batches of one, and a buffer the sweep released serves the one-shot of
/// the same width.
#[test]
fn zero_sizing_is_clamped_at_the_use_site() {
    let template = ansatz(5, 1);
    let engine = Engine::start(EngineConfig {
        workers: 0,
        queue_capacity: 0,
        max_batch: 0,
        pool_max_per_key: 0,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let sweep = engine
        .submit(JobRequest::new(JobSpec::Sweep {
            template: id,
            params: vec![0.25; template.n_vars()],
            returning: SweepReturn::ExpZ(1),
        }))
        .unwrap();
    assert!(sweep.wait().is_ok());
    let one_shot = engine
        .submit(JobRequest::new(JobSpec::OneShot {
            circuit: Arc::new(ghz_with_measure(5)),
            config: SimConfig::single_device(),
            shots: 0,
            return_state: false,
        }))
        .unwrap();
    assert!(one_shot.wait().is_ok());
    let metrics = engine.shutdown();
    assert_eq!((metrics.completed, metrics.failed), (2, 0));
    assert_eq!((metrics.pool_created, metrics.pool_reused), (1, 1));
}

/// Hard shutdown must fail queued jobs with `Shutdown` and still publish a
/// result on every handle (no waiter left hanging).
#[test]
fn hard_shutdown_fails_queued_jobs() {
    let template = ansatz(6, 4);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 256,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let handles: Vec<_> = (0..60)
        .map(|i| {
            engine
                .submit(JobRequest::new(JobSpec::Sweep {
                    template: id,
                    params: vec![0.02 * i as f64; template.n_vars()],
                    returning: SweepReturn::ExpZ(1),
                }))
                .unwrap()
        })
        .collect();
    let metrics = engine.shutdown_now();
    let mut completed = 0u64;
    let mut dropped = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(JobError::Shutdown) => dropped += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(completed + dropped, 60, "every handle resolves");
    assert_eq!(metrics.completed, completed);
    assert_eq!(metrics.shutdown_dropped, dropped);
    assert!(dropped > 0, "hard shutdown should catch queued jobs");
}

/// Cancellation through the handle drops queued jobs before execution.
#[test]
fn cancelled_jobs_are_dropped_at_dequeue() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 64,
        ..EngineConfig::default()
    });
    let slow = Arc::new(ghz_with_measure(16));
    let config = SimConfig::single_device();
    // Occupy the worker, then queue a victim and cancel it.
    let blocker = engine
        .submit(JobRequest::new(JobSpec::OneShot {
            circuit: Arc::clone(&slow),
            config,
            shots: 0,
            return_state: false,
        }))
        .unwrap();
    let victim = engine
        .submit(JobRequest::new(JobSpec::OneShot {
            circuit: Arc::clone(&slow),
            config,
            shots: 0,
            return_state: false,
        }))
        .unwrap();
    victim.cancel();
    assert!(matches!(victim.wait(), Ok(_) | Err(JobError::Cancelled)));
    assert!(blocker.wait().is_ok());
    let _ = engine.shutdown();
}

/// An already-expired deadline fails the job with `Expired`.
#[test]
fn expired_deadline_fails_job() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let circuit = Arc::new(ghz_with_measure(3));
    let request = JobRequest {
        deadline: Some(Instant::now()),
        ..JobRequest::new(JobSpec::OneShot {
            circuit,
            config: SimConfig::single_device(),
            shots: 0,
            return_state: false,
        })
    };
    // Give the deadline a moment to lapse before the worker reaches it.
    std::thread::sleep(Duration::from_millis(5));
    let handle = engine.submit(request).unwrap();
    match handle.wait() {
        Err(JobError::Expired) => {}
        Ok(_) => {
            // Racy by nature: the worker may have dequeued before expiry on
            // an idle engine — but only if it started immediately.
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
    let _ = engine.shutdown();
}

/// Sweep validation happens at admission: unknown templates and short
/// parameter vectors never enter the queue.
#[test]
fn sweep_admission_validates_template_and_params() {
    let template = ansatz(4, 1);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();

    let bogus = svsim_engine::TemplateId(999);
    assert!(matches!(
        engine.submit(JobRequest::new(JobSpec::Sweep {
            template: bogus,
            params: vec![0.0; 16],
            returning: SweepReturn::ExpZ(1),
        })),
        Err(SubmitError::UnknownTemplate(_))
    ));
    assert!(matches!(
        engine.submit(JobRequest::new(JobSpec::Sweep {
            template: id,
            params: vec![0.0; 1],
            returning: SweepReturn::ExpZ(1),
        })),
        Err(SubmitError::BadParamCount { .. })
    ));
    let metrics = engine.shutdown();
    assert_eq!(metrics.submitted, 0);
}

/// High-priority jobs dequeue ahead of queued low-priority work.
#[test]
fn priority_orders_the_backlog() {
    let template = ansatz(4, 1);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 256,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let slow = Arc::new(ghz_with_measure(16));
    // Park the worker so the backlog builds in the queue.
    let blocker = engine
        .submit(JobRequest::new(JobSpec::OneShot {
            circuit: slow,
            config: SimConfig::single_device(),
            shots: 0,
            return_state: false,
        }))
        .unwrap();
    let sweep = |prio: Priority| JobRequest {
        priority: prio,
        ..JobRequest::new(JobSpec::Sweep {
            template: id,
            params: vec![0.1; template.n_vars()],
            returning: SweepReturn::ExpZ(1),
        })
    };
    let low = engine.submit(sweep(Priority::Low)).unwrap();
    let high = engine.submit(sweep(Priority::High)).unwrap();
    let _ = blocker.wait();
    // The high job must finish no later than the low one: wait on low, then
    // high must already be resolved.
    let _ = low.wait();
    assert!(
        high.try_take().is_some(),
        "high priority must not queue behind low"
    );
    let _ = engine.shutdown();
}

/// The metrics snapshot must account for every job and record batching.
#[test]
fn metrics_account_for_all_jobs() {
    let template = ansatz(5, 2);
    let engine = Engine::start(EngineConfig {
        workers: 2,
        max_batch: 8,
        ..EngineConfig::default()
    });
    let id = engine.register_template("ansatz", &template).unwrap();
    let handles: Vec<_> = (0..24)
        .map(|i| {
            engine
                .submit(JobRequest::new(JobSpec::Sweep {
                    template: id,
                    params: vec![0.05 * i as f64; template.n_vars()],
                    returning: SweepReturn::ExpZ(3),
                }))
                .unwrap()
        })
        .collect();
    for h in handles.iter().rev() {
        let _ = h.wait();
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.submitted, 24);
    assert_eq!(metrics.completed, 24);
    assert_eq!(metrics.finished(), 24);
    assert_eq!(metrics.in_flight(), 0);
    assert_eq!(metrics.batched_jobs, 24);
    assert!(metrics.batches <= 24);
    assert!(metrics.mean_batch_size() >= 1.0);
    assert_eq!(metrics.queue_wait.count(), 24);
    assert_eq!(metrics.execution.count(), 24);
    assert!(metrics.pool_reused + metrics.pool_created > 0);
}

/// Scale-out one-shots must surface SHMEM traffic in the engine metrics.
#[test]
fn distributed_jobs_aggregate_traffic() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let circuit = Arc::new(ghz_with_measure(6));
    let h = engine
        .submit(JobRequest::new(JobSpec::OneShot {
            circuit,
            config: SimConfig::scale_out(4),
            shots: 0,
            return_state: false,
        }))
        .unwrap();
    assert!(h.wait().is_ok());
    let metrics = engine.shutdown();
    assert!(
        metrics.traffic.total_ops() > 0,
        "scale-out GHZ must move amplitudes across PEs"
    );
}

/// Remapped and naive scale-out jobs alternating on ONE pooled instance:
/// every result must be bit-identical to a direct simulator with the same
/// config, and the engine must credit the communication the remap avoided.
#[test]
fn remapped_jobs_share_pooled_instances_and_credit_savings() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Deep enough on the partition-index qubits that one relabeling (plus
    // the identity restore before the measure) beats word-level traffic.
    let circuit = {
        let mut c = Circuit::with_cbits(5, 1);
        for q in 0..5 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        for layer in 0..4 {
            c.apply(GateKind::RX, &[4], &[0.2 + 0.1 * f64::from(layer)])
                .unwrap();
            c.apply(GateKind::T, &[4], &[]).unwrap();
        }
        c.measure(0, 0).unwrap();
        Arc::new(c)
    };
    let naive = SimConfig {
        seed: 9,
        ..SimConfig::scale_out(4)
    };
    let remapped = SimConfig {
        remap: true,
        ..naive
    };
    for (round, config) in [naive, remapped, naive, remapped].into_iter().enumerate() {
        let handle = engine
            .submit(JobRequest::new(JobSpec::OneShot {
                circuit: Arc::clone(&circuit),
                config,
                shots: 0,
                return_state: true,
            }))
            .unwrap();
        let JobOutput::OneShot { summary, state, .. } = handle.wait().unwrap() else {
            panic!("one-shot output expected");
        };
        let mut direct = Simulator::new(5, config).unwrap();
        let direct_summary = direct.run(&circuit).unwrap();
        assert_eq!(summary.cbits, direct_summary.cbits, "round {round}");
        assert_eq!(
            summary.remap_swaps, direct_summary.remap_swaps,
            "round {round}: pooled reuse must not leak the remap setting"
        );
        let state = state.expect("state requested");
        assert_eq!(state.re(), direct.state().re(), "round {round}: re");
        assert_eq!(state.im(), direct.state().im(), "round {round}: im");
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 4);
    assert_eq!(metrics.pool_created, 1, "one instance serves all four jobs");
    assert!(
        metrics.remote_bytes_saved > 0,
        "remapped jobs must record avoided communication"
    );
}
