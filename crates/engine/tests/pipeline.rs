//! Pipeline-model integration tests: topological drain, stage-boundary
//! cancellation/deadline re-checks, bounded-stage backpressure, and the
//! in-flight memory budget.

use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_core::SimConfig;
use svsim_engine::{
    AllocMode, Engine, EngineConfig, JobError, JobRequest, JobSpec, MetricsSnapshot, SubmitError,
};
use svsim_ir::{Circuit, GateKind};

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

/// A wide, deep circuit whose execution parks the single executor for
/// hundreds of milliseconds (22 qubits x ~280 gates, ~1.2e9 amplitude
/// updates) — orders of magnitude longer than the microsecond-scale
/// submissions and metric polls the tests perform while it runs.
fn deep_blocker() -> Circuit {
    let mut c = Circuit::with_cbits(22, 1);
    for q in 0..22 {
        c.apply(GateKind::H, &[q], &[]).unwrap();
    }
    for layer in 0..12 {
        for q in 0..22 {
            c.apply(GateKind::RY, &[q], &[0.05 + 0.01 * f64::from(layer)])
                .unwrap();
        }
    }
    c.measure(0, 0).unwrap();
    c
}

/// Current depth of the named stage queue.
fn depth(m: &MetricsSnapshot, name: &str) -> usize {
    m.stages
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no stage named {name}"))
        .depth
}

/// Lifetime pop count of the named stage queue.
fn popped(m: &MetricsSnapshot, name: &str) -> u64 {
    m.stages
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no stage named {name}"))
        .popped
}

/// Spin (bounded) until the live metrics satisfy `pred`. The pipeline's
/// movers are separate threads, so on a loaded machine a packet takes a
/// few scheduler quanta to reach its boundary; polling the snapshot is
/// the only race-free way to observe "job X is parked at stage Y".
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

/// Draining shutdown must flush every stage in topological order: jobs
/// parked in the admit queue (behind a blocked compile stage) and in the
/// execute queue all run to completion — nothing is dropped.
#[test]
fn drain_flushes_jobs_parked_at_every_stage() {
    // Tiny stages + one worker on a slow blocker: accepted jobs pile up
    // across admit (2) + compile-in-hand (1) + execute (2) + executor (1).
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    let slow = Arc::new(deep_blocker());
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let mut accepted = vec![engine.submit(one_shot(&slow, config)).unwrap()];
    // Only once the executor holds the blocker do later submissions pile
    // up behind it instead of draining straight through.
    wait_for(&engine, "the executor to pick up the blocker", |m| {
        popped(m, "execute") == 1
    });
    // Fill until truly saturated: QueueFull is only final once both
    // bounded queues sit at capacity — earlier rejections just mean the
    // admit->execute mover hasn't been scheduled yet to make room.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match engine.submit(one_shot(&fast, config)) {
            Ok(h) => accepted.push(h),
            Err(SubmitError::QueueFull) => {
                let m = engine.metrics();
                if depth(&m, "admit") == 2 && depth(&m, "execute") == 2 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "pipeline never saturated: the blocker drained too early"
                );
                std::thread::yield_now();
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        assert!(accepted.len() < 64, "capacity-2 stages must backpressure");
    }
    assert!(
        accepted.len() >= 3,
        "the pipeline should hold several jobs in flight"
    );
    // Shut down while jobs sit mid-pipeline: all of them must complete.
    let metrics = engine.shutdown();
    assert_eq!(metrics.completed, accepted.len() as u64);
    assert_eq!(metrics.shutdown_dropped, 0);
    for h in accepted {
        assert!(h.wait().is_ok(), "drained jobs must publish results");
    }
    let admit = metrics
        .stages
        .iter()
        .find(|s| s.name == "admit")
        .expect("admit stage snapshot");
    assert_eq!(admit.pushed, metrics.completed, "every job passed admit");
    assert_eq!(admit.popped, admit.pushed, "drain leaves admit empty");
    assert_eq!(admit.depth, 0);
}

/// Cancellation and deadlines are re-checked at each stage boundary: a job
/// cancelled while parked in the admit or execute queue is dropped at its
/// next hop, and a deadline that lapses between compile and execute fails
/// the job with `Expired` at the execute hop.
#[test]
fn cancellation_and_deadline_are_rechecked_at_stage_hops() {
    // Capacity-1 stages pin each victim to a known boundary: v1 in the
    // execute queue, v2 in the compile stage's blocked push, v3 in admit.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 1,
        ..EngineConfig::default()
    });
    let slow = Arc::new(deep_blocker());
    let fast = Arc::new(ghz_with_measure(4));
    let config = SimConfig::single_device();
    let blocker = engine.submit(one_shot(&slow, config)).unwrap();
    // The blocker must reach the executor before the victims arrive.
    wait_for(&engine, "the executor to pick up the blocker", |m| {
        popped(m, "execute") == 1
    });
    // Park each victim at its boundary before the next arrives: v1 in
    // the execute queue, v2 in the mover's blocked push (popped from
    // admit, refused by the full execute queue), v3 in the admit queue.
    let v1 = engine.submit(one_shot(&fast, config)).unwrap();
    wait_for(&engine, "v1 to park in the execute queue", |m| {
        depth(m, "execute") == 1
    });
    let v2 = engine
        .submit(JobRequest {
            deadline: Some(Instant::now() + Duration::from_millis(1)),
            ..one_shot(&fast, config)
        })
        .unwrap();
    wait_for(&engine, "the mover to take v2 in hand", |m| {
        popped(m, "admit") == 3
    });
    let v3 = engine.submit(one_shot(&fast, config)).unwrap();
    v1.cancel();
    v3.cancel();
    assert_eq!(
        engine.metrics().completed,
        0,
        "the blocker must still be executing when the victims are cancelled"
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

/// A slow execute stage saturates its bounded queue; the backpressure
/// propagates upstream until admission rejects with a typed error, and the
/// per-stage metrics reflect both the rejection and the occupancy.
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
            "stage capacity 2 must reject under sustained load"
        );
    }
    let mid = engine.metrics();
    let admit = mid
        .stages
        .iter()
        .find(|s| s.name == "admit")
        .expect("admit stage snapshot");
    assert!(
        admit.rejected >= 1,
        "the admit queue recorded the rejection"
    );
    assert!(
        admit.high_water >= 1,
        "queued depth must register in the high-water mark"
    );
    assert!(
        mid.to_string().contains("stage admit:"),
        "pipeline metrics must render per-stage lines"
    );
    for h in accepted {
        assert!(h.wait().is_ok(), "accepted jobs still complete");
    }
    let metrics = engine.shutdown();
    assert_eq!(metrics.rejected, rejected);
    assert_eq!(metrics.failed, 0);
    let exec = metrics
        .stages
        .iter()
        .find(|s| s.name == "execute")
        .expect("execute stage snapshot");
    assert!(exec.high_water >= 1, "the execute queue actually filled");
}

/// Under `AllocMode::LimitMemory`, total in-flight state-vector bytes never
/// exceed the cap across 100 mixed-size jobs, and a job too large for the
/// cap on its own is refused outright with the typed error.
#[test]
fn limit_memory_caps_in_flight_bytes() {
    const CAP: u64 = 64 * 1024; // exactly one 12-qubit register
    let engine = Engine::start(EngineConfig {
        workers: 2,
        alloc: AllocMode::LimitMemory(CAP),
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
