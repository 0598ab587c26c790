//! Serving-stage integration tests: drain, hard shutdown and drop, the
//! cancellation/deadline re-check at pickup, the bounded queue's
//! backpressure, and the in-flight memory budget.

use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_core::{ParamCircuit, ParamValue, SimConfig};
use svsim_engine::{
    Engine, EngineConfig, JobError, JobRequest, JobSpec, MetricsSnapshot, Priority, RetryPolicy,
    StageSnapshot, SubmitError, SweepReturn,
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

/// The longest a [`blocker`] holds its worker.
const HOLD: Duration = Duration::from_millis(400);

/// `request`, made to hold its worker for `hold` times a deterministic
/// jitter in [0.5, 1] (the retry's [`RetryPolicy::backoff`]) in any build:
/// its first attempt fails at an injected executor fault, and its retry
/// sleeps that long before running — a sleep, so the hold does not depend
/// on the build profile.
fn held(request: JobRequest, hold: Duration) -> JobRequest {
    let fault = FaultPlan::new().with(None, PeOp::Exec, 1, FaultAction::Kill);
    JobRequest {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: hold,
            max_backoff: hold,
            ..RetryPolicy::default()
        },
        fault_plan: Some(Arc::new(fault)),
        ..request
    }
}

/// A one-shot of `circuit` that parks the single worker for 200-400 ms
/// ([`held`] for `HOLD`): orders of magnitude longer than the
/// microsecond-scale submissions and metric polls the tests perform while
/// it holds.
fn blocker(circuit: &Arc<Circuit>, config: SimConfig) -> JobRequest {
    held(one_shot(circuit, config), HOLD)
}

/// The engine's one queue.
fn admit(m: &MetricsSnapshot) -> StageSnapshot {
    assert_eq!(m.stages.len(), 1, "the engine has exactly one queue");
    assert_eq!(m.stages[0].name, "admit");
    m.stages[0]
}

/// Spin (bounded) until the live metrics satisfy `pred`. The workers are
/// separate threads, so on a loaded machine a packet takes a few scheduler
/// quanta to be picked up; polling the snapshot is the only race-free way
/// to observe "the worker holds job X".
fn wait_for(engine: &Engine, what: &str, pred: impl Fn(&MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred(&engine.metrics()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn one_shot(circuit: &Arc<Circuit>, config: SimConfig) -> JobRequest {
    JobRequest::new(JobSpec::OneShot {
        circuit: Arc::clone(circuit),
        config,
        shots: 0,
        return_state: false,
    })
}

/// Draining shutdown runs everything accepted: the job in the worker's
/// hands and every job parked in the queue behind it complete, nothing is
/// dropped, and each parked job's queue wait covers the whole time it sat
/// there.
#[test]
fn drain_flushes_jobs_parked_at_every_stage() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let mut accepted = vec![engine.submit(blocker(&fast, config)).unwrap()];
    // Only once the worker holds the blocker do later submissions park
    // behind it instead of running straight through.
    wait_for(&engine, "the worker to pick up the blocker", |m| {
        admit(m).popped == 1
    });
    loop {
        match engine.submit(one_shot(&fast, config)) {
            Ok(h) => accepted.push(h),
            Err(SubmitError::QueueFull) => break,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        assert!(accepted.len() < 64, "a capacity-2 queue must fill");
    }
    let parked_at = Instant::now();
    assert_eq!(accepted.len(), 3, "one job in hand, two in the queue");
    std::thread::sleep(Duration::from_millis(10));
    // Read the time first: if the queue still holds both jobs after it,
    // they were parked for at least this long.
    let parked = parked_at.elapsed();
    let m = engine.metrics();
    assert_eq!(
        (admit(&m).depth, m.completed),
        (2, 0),
        "the blocker must still be running with both jobs parked"
    );
    // Shut down while jobs sit in the queue: all of them must complete.
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, accepted.len() as u64);
    assert_eq!(metrics.shutdown_dropped, 0);
    for h in accepted {
        assert!(h.wait().is_ok(), "drained jobs must publish results");
    }
    let admit = admit(&metrics);
    assert_eq!(admit.pushed, metrics.completed, "every job passed admit");
    assert_eq!(admit.popped, admit.pushed, "drain leaves the queue empty");
    assert_eq!(admit.depth, 0);
    // The wait is timed to the worker's pop, not to some earlier hop:
    // the longest one recorded covers the parked time.
    assert_eq!(metrics.queue_wait.count(), 3);
    let longest = u128::from(metrics.queue_wait.quantile_us(1.0));
    assert!(
        longest >= parked.as_micros(),
        "a job parked {parked:?} reports a queue wait under {longest} us"
    );
}

/// A sweep point coalesced into a batch waits behind the members before
/// it, and that wait is queue wait: each member's ends where its own trial
/// starts. Four points of one template, parked behind a short blocker so
/// they coalesce, each hold the worker for at least `b` (the backoff of
/// [`held`]); member `i` then waits at least `i * b` behind its
/// predecessors, so the summed queue wait is at least `(0 + 1 + 2 + 3) * b`
/// — more than the whole time the four spent in the queue before the pop.
#[test]
fn a_coalesced_sweep_point_waits_behind_its_batch() {
    const POINTS: u32 = 4;
    let sweep_hold = Duration::from_millis(100);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 8,
        ..EngineConfig::default()
    });
    let mut template = ParamCircuit::new(3);
    template
        .push(GateKind::RY, &[0], &[ParamValue::Var(0)])
        .unwrap();
    template.push_fixed(GateKind::CX, &[0, 1], &[]).unwrap();
    let id = engine.register_template("ry_cx", &template).unwrap();
    let fast = Arc::new(ghz_with_measure(4));
    let short = held(one_shot(&fast, SimConfig::single_device()), HOLD / 10);
    let first = engine.submit(short).unwrap();
    wait_for(&engine, "the worker to pick up the blocker", |m| {
        admit(m).popped == 1
    });
    let points: Vec<_> = (0..POINTS)
        .map(|i| {
            let sweep = JobRequest::new(JobSpec::Sweep {
                template: id,
                params: vec![0.1 * f64::from(i)],
                returning: SweepReturn::ExpZ(1),
            });
            engine.submit(held(sweep, sweep_hold)).unwrap()
        })
        .collect();
    assert!(first.wait().is_ok());
    for h in points {
        assert!(h.wait().is_ok());
    }
    let metrics = engine.shutdown();
    assert_eq!(
        (metrics.batches, metrics.batched_jobs),
        (1, u64::from(POINTS))
    );
    let b = held(one_shot(&fast, SimConfig::single_device()), sweep_hold)
        .retry
        .backoff(1)
        .as_micros();
    let predecessors = b * u128::from(POINTS * (POINTS - 1) / 2);
    let waited = metrics.queue_wait.mean_us() * metrics.queue_wait.count() as f64;
    assert!(
        waited.round() as u128 >= predecessors,
        "{POINTS} coalesced points waited {waited} us in all, under their \
         predecessors' {predecessors} us of execution"
    );
}

/// Cancellation and deadlines are re-checked when a worker picks a job
/// up: a job cancelled while parked in the queue ends `Cancelled`, one
/// whose deadline lapses there ends `Expired`, and neither runs.
#[test]
fn cancellation_and_deadline_are_rechecked_at_stage_hops() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 3,
        ..EngineConfig::default()
    });
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let blocker = engine.submit(blocker(&fast, config)).unwrap();
    // The blocker must be in the worker's hands before the victims arrive.
    wait_for(&engine, "the worker to pick up the blocker", |m| {
        admit(m).popped == 1
    });
    let v1 = engine.submit(one_shot(&fast, config)).unwrap();
    let v2 = engine
        .submit(JobRequest {
            deadline: Some(Instant::now() + Duration::from_millis(1)),
            ..one_shot(&fast, config)
        })
        .unwrap();
    let v3 = engine.submit(one_shot(&fast, config)).unwrap();
    v1.cancel();
    v3.cancel();
    let m = engine.metrics();
    assert_eq!(
        (admit(&m).depth, m.completed),
        (3, 0),
        "the blocker must still be running with every victim parked"
    );
    assert!(blocker.wait().is_ok());
    assert!(matches!(v1.wait(), Err(JobError::Cancelled)));
    assert!(matches!(v2.wait(), Err(JobError::Expired)));
    assert!(matches!(v3.wait(), Err(JobError::Cancelled)));
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.cancelled, 2);
    assert_eq!(metrics.expired, 1);
    assert_eq!(metrics.failed, 0, "dead jobs never reach execution");
}

/// A worker slower than the arrivals fills the bounded queue, and
/// admission then rejects with a typed error; the queue's snapshot shows
/// both the rejection and the occupancy.
#[test]
fn saturated_execute_stage_rejects_at_admission() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    let slow = Arc::new(ghz_with_measure(16));
    let config = SimConfig::single_device();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    while rejected == 0 {
        match engine.submit(one_shot(&slow, config)) {
            Ok(h) => accepted.push(h),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        assert!(
            accepted.len() < 64,
            "queue capacity 2 must reject under sustained load"
        );
    }
    let mid = engine.metrics();
    let queue = admit(&mid);
    assert!(queue.rejected >= 1, "the queue recorded the rejection");
    assert_eq!(
        queue.high_water, 2,
        "a rejection means the queue reached its capacity"
    );
    assert_eq!(queue.blocked, 0, "nothing ever blocks on the one queue");
    assert!(
        mid.to_string().contains("stage admit:"),
        "the metrics must render the queue's line"
    );
    for h in accepted {
        assert!(h.wait().is_ok(), "accepted jobs still complete");
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.rejected, rejected);
    assert_eq!(metrics.failed, 0);
}

/// A hard shutdown accounts for every accepted job: the one in the
/// worker's hands completes, the queued ones are dropped, and those the
/// worker already discarded stay cancelled or expired —
/// `completed + shutdown_dropped + cancelled + expired == submitted`.
#[test]
fn shutdown_now_accounts_for_every_submitted_job() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 6,
        ..EngineConfig::default()
    });
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let urgent = |request: JobRequest| JobRequest {
        priority: Priority::High,
        ..request
    };
    let first = engine.submit(blocker(&fast, config)).unwrap();
    wait_for(&engine, "the worker to pick up the first blocker", |m| {
        admit(m).popped == 1
    });
    // Parked behind it, in the order the worker will pop them: one job to
    // cancel, one already past its deadline, the blocker the hard
    // shutdown will find in the worker's hands, and two low-priority
    // jobs it will find still queued.
    let cancelled = engine.submit(urgent(one_shot(&fast, config))).unwrap();
    cancelled.cancel();
    let expired = engine
        .submit(urgent(JobRequest {
            deadline: Some(Instant::now()),
            ..one_shot(&fast, config)
        }))
        .unwrap();
    let in_hand = engine.submit(urgent(blocker(&fast, config))).unwrap();
    let queued: Vec<_> = (0..2)
        .map(|_| {
            let request = JobRequest {
                priority: Priority::Low,
                ..one_shot(&fast, config)
            };
            engine.submit(request).unwrap()
        })
        .collect();
    assert!(first.wait().is_ok());
    wait_for(&engine, "the worker to pick up the second blocker", |m| {
        admit(m).popped == 4
    });
    let metrics = engine.shutdown_now();
    assert!(matches!(cancelled.wait(), Err(JobError::Cancelled)));
    assert!(matches!(expired.wait(), Err(JobError::Expired)));
    assert!(in_hand.wait().is_ok(), "the job in hand runs to completion");
    for h in queued {
        assert!(matches!(h.wait(), Err(JobError::Shutdown)));
    }
    assert_eq!(metrics.submitted, 6);
    assert_eq!(
        (
            metrics.completed,
            metrics.shutdown_dropped,
            metrics.cancelled,
            metrics.expired
        ),
        (2, 2, 1, 1)
    );
    assert_eq!(
        metrics.completed + metrics.shutdown_dropped + metrics.cancelled + metrics.expired,
        metrics.submitted
    );
    assert_eq!(metrics.failed, 0);
}

/// Dropping a running engine without a shutdown call stops it as
/// `shutdown_now` does: the jobs parked in the queue fail with `Shutdown`,
/// the job in the worker's hands runs to completion and publishes, and
/// `drop` returns only once the worker has joined, so every handle is
/// already resolved when it does.
#[test]
fn dropping_the_engine_resolves_every_handle_before_it_returns() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 3,
        ..EngineConfig::default()
    });
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let in_hand = engine.submit(blocker(&fast, config)).unwrap();
    wait_for(&engine, "the worker to pick up the blocker", |m| {
        admit(m).popped == 1
    });
    let parked: Vec<_> = (0..3)
        .map(|_| engine.submit(one_shot(&fast, config)).unwrap())
        .collect();
    let m = engine.metrics();
    assert_eq!(
        (admit(&m).depth, m.completed),
        (3, 0),
        "the blocker must still be running with every job parked"
    );
    drop(engine);
    assert!(
        matches!(in_hand.try_take(), Some(Ok(_))),
        "the job in hand published before drop returned"
    );
    for h in parked {
        assert!(matches!(h.try_take(), Some(Err(JobError::Shutdown))));
    }
}

/// Under `EngineConfig::memory_limit`, total in-flight state-vector bytes never
/// exceed the cap across 100 mixed-size jobs, and a job too large for the
/// cap on its own is refused outright with the typed error.
#[test]
fn limit_memory_caps_in_flight_bytes() {
    const CAP: u64 = 64 * 1024; // exactly one 12-qubit register
    let engine = Engine::start(EngineConfig {
        workers: 2,
        memory_limit: Some(CAP),
        ..EngineConfig::default()
    });
    let config = SimConfig::single_device();
    let circuits: Vec<Arc<Circuit>> = (6..=12).map(|n| Arc::new(ghz_with_measure(n))).collect();
    let mut handles = Vec::new();
    for i in 0..100usize {
        let circuit = &circuits[i % circuits.len()];
        let mut tries = 0u32;
        let h = loop {
            match engine.submit(one_shot(circuit, config)) {
                Ok(h) => break h,
                Err(SubmitError::MemoryExceeded { .. } | SubmitError::QueueFull) => {
                    tries += 1;
                    assert!(tries < 200_000, "admission starved under the byte cap");
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        };
        handles.push(h);
        if i % 10 == 0 {
            let m = engine.metrics();
            assert!(
                m.mem_in_flight_bytes <= CAP,
                "in-flight bytes {} over the {CAP}-byte cap",
                m.mem_in_flight_bytes
            );
            assert!(m.mem_high_water_bytes <= CAP);
        }
    }
    // A 13-qubit register (128 KiB) can never fit under the cap.
    let oversized = Arc::new(ghz_with_measure(13));
    match engine.submit(one_shot(&oversized, config)) {
        Err(SubmitError::MemoryExceeded { needed, limit }) => {
            assert_eq!(needed, 128 * 1024);
            assert_eq!(limit, CAP);
        }
        other => panic!("oversized job must be refused, got {other:?}"),
    }
    for h in handles {
        assert!(h.wait().is_ok(), "every capped job still completes");
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, 100);
    assert_eq!(metrics.mem_in_flight_bytes, 0, "all leases released");
    assert!(metrics.mem_high_water_bytes > 0);
    assert!(metrics.mem_high_water_bytes <= CAP);
    assert_eq!(metrics.mem_limit_bytes, Some(CAP));
    assert!(metrics.to_string().contains("memory: in_flight_bytes=0"));
}
