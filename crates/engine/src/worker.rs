//! A worker's whole path, from the pop to the published result.
//!
//! Each of `EngineConfig::workers` threads pops a batch (sweep points of
//! one template coalesce). Where each job's own execution would start (a
//! sweep point's behind the members before it), it records the job's
//! queue wait and drops it if cancelled or expired; then for a one-shot it
//! takes the plan from the shared [`PlanCache`] (compiling under its lock
//! on a miss), runs the retry and degradation ladder, samples, clones the
//! requested state, checks the state buffer back into the instance pool,
//! and publishes; a sweep batch runs its members against one worker-local
//! template clone and one pooled buffer.

use crate::engine::{fingerprint, Shared};
use crate::job::{JobError, JobOutput, JobSpec, SweepReturn};
use crate::packet::JobPacket;
use crate::retry::{retryable, DegradePolicy};
use crate::templates::WorkerTemplates;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use svsim_core::{
    measure, BackendKind, CheckpointStore, CompiledPlan, Digest, RunStart, SimConfig, Simulator,
};
use svsim_ir::Circuit;
use svsim_shmem::FaultAction;
use svsim_types::{PeOp, SvError, SvResult};

/// Compiled plans the workers share, keyed by a structural circuit
/// fingerprint.
///
/// The cache originally keyed on `Arc` pointer identity, which silently
/// defeated it for the common service shape: a caller that re-parses the
/// same QASM per request submits equal-but-distinct `Arc<Circuit>`s, so
/// every job missed and recompiled. The key is now [`circuit_digest`], which
/// the packet carries so the circuit is rendered at most once per job;
/// `Arc::ptr_eq` survives only as a cheap fast path that skips hashing when
/// the caller *does* resubmit the same allocation. Every fingerprint hit is
/// confirmed by full structural equality (`Circuit: PartialEq`) plus
/// [`CompiledPlan::matches`] on the config shape, so a hash collision
/// degrades to a recompile, never to a wrong plan. Holding the `Arc` in the
/// entry keeps the allocation alive, so the pointer fast path can never
/// alias a recycled allocation.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: std::collections::VecDeque<(u64, Arc<Circuit>, Arc<CompiledPlan>)>,
}

/// Distinct circuits the plan cache remembers plans for.
const PLAN_CACHE_CAP: usize = 32;

/// Structural identity of a circuit: the [`Digest`] of its complete debug
/// rendering (ops, qubit/cbit counts, every gate argument). Two
/// independent parses of the same source agree; any one-gate edit differs.
pub(crate) fn circuit_digest(circuit: &Circuit) -> u64 {
    Digest::default()
        .absorb(format!("{circuit:?}").as_bytes(), u64::from)
        .finish()
}

impl PlanCache {
    /// The cached plan for `circuit` under `config`, compiling on a miss.
    /// `circuit_fp` holds the circuit's digest, or is filled with it on a
    /// pointer miss.
    fn plan_keyed(
        &mut self,
        circuit: &Arc<Circuit>,
        circuit_fp: &OnceCell<u64>,
        config: &SimConfig,
        metrics: &crate::metrics::EngineMetrics,
    ) -> Arc<CompiledPlan> {
        let fits = |p: &CompiledPlan| p.matches(circuit, circuit.n_qubits(), config);
        let hit = |plan: &Arc<CompiledPlan>| {
            metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            Arc::clone(plan)
        };
        // Pointer identity first: a resubmitted allocation never pays for
        // the fingerprint.
        let mut entries = self.entries.iter();
        if let Some((_, _, plan)) = entries.find(|(_, c, p)| Arc::ptr_eq(c, circuit) && fits(p)) {
            return hit(plan);
        }
        let fp = *circuit_fp.get_or_init(|| circuit_digest(circuit));
        let mut entries = self.entries.iter();
        let same = |c: &Circuit| c == circuit.as_ref();
        if let Some((_, _, plan)) = entries.find(|(efp, c, p)| *efp == fp && same(c) && fits(p)) {
            return hit(plan);
        }
        metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(CompiledPlan::compile(circuit, circuit.n_qubits(), config));
        if self.entries.len() >= PLAN_CACHE_CAP {
            self.entries.pop_front();
        }
        self.entries
            .push_back((fp, Arc::clone(circuit), Arc::clone(&plan)));
        plan
    }
}

/// One worker: pop a (coalesced) batch, then for each job in it drop it if
/// dead, else plan, run, read back and publish it. A job's queue wait ends
/// where it is dropped or its own execution starts
/// ([`JobPacket::still_wanted`]): for a one-shot the pop, for a sweep point
/// the start of its own trial, behind the batch members before it. The
/// packet, and with it the budget lease, drops only after publication.
pub(crate) fn worker_loop(shared: &Shared, max_batch: usize, worker: usize) {
    let mut templates = WorkerTemplates::default();
    while let Some(batch) = shared.queue.pop_batch(max_batch) {
        let Some(head) = batch.first() else { continue };
        match head.request.spec {
            // One-shots never coalesce, so the batch holds one.
            JobSpec::OneShot { .. } => {
                for pkt in batch {
                    let picked = Instant::now();
                    let Some(pkt) = pkt.still_wanted(shared, picked) else {
                        continue;
                    };
                    let result = run_one_shot(shared, &pkt, worker);
                    publish(shared, &pkt, picked, result);
                }
            }
            JobSpec::Sweep { .. } => run_sweep_batch(shared, &mut templates, batch, worker),
        }
    }
}

/// A one-shot from plan to output. The plan comes from the shared cache
/// (compiled under its lock on a miss, so compiles never run two at a
/// time); it drives execution when its shape still matches, and
/// degradation or remapping that invalidates it falls back to on-the-fly
/// lowering, bit-identically. Then retry-in-place and the self-healing
/// ladder: a transient failure (PE death or hang, barrier expiry, SHMEM
/// breakdown, torn checkpoint write, worker panic) backs off
/// deterministically and re-attempts at [`RunStart::LastCheckpoint`],
/// which decides where the retry starts (the in-memory checkpoint, the
/// job's on-disk store, or op 0). Under [`DegradePolicy::HalvePes`],
/// repeated failures at one width re-partition the job's simulator at half
/// the PEs in place ([`Simulator::repartition`]), keeping its checkpoint.
///
/// On success it reads back: samples, clones the requested state, and
/// returns the state buffer to the pool — *before* the caller publishes,
/// so a submit-wait-submit client always finds it available. Everything
/// else the job attached dies with its simulator.
fn run_one_shot(shared: &Shared, pkt: &JobPacket, worker: usize) -> Result<JobOutput, JobError> {
    let request = &pkt.request;
    let JobSpec::OneShot {
        ref circuit,
        ref config,
        shots,
        return_state,
    } = request.spec
    else {
        unreachable!("dispatched as one-shot");
    };
    let plan = shared.plans.lock().expect("plan cache lock").plan_keyed(
        circuit,
        &pkt.circuit_fp,
        config,
        &shared.metrics,
    );
    let mut run = OneShotRun {
        effective: *config,
        rung_failures: 0,
        sim: None,
    };
    let attempt = |run: &mut OneShotRun, n: u32| {
        // The job's simulator lives in this frame while it runs, so an
        // attempt that panics or bails out drops it — it may be
        // mid-mutation and is never reused — and the next builds afresh,
        // resuming from the job's on-disk store when it has one.
        let mut s = match run.sim.take() {
            Some(s) => s,
            None => {
                let mut s = shared.pool.simulator(circuit.n_qubits(), run.effective)?;
                if let Some(dir) = &request.checkpoint_dir {
                    s.set_checkpoint_store(Some(CheckpointStore::open(dir.clone())?));
                }
                s.set_fault_plan(request.fault_plan.clone());
                s
            }
        };
        let start = if n == 1 {
            RunStart::Fresh
        } else {
            RunStart::LastCheckpoint
        };
        let ran = s.run_from(circuit, Some(&plan), start);
        run.sim = Some(s);
        ran
    };
    // The degradation ladder: enough failures at this width step the job
    // down to half the PEs, re-partitioning its simulator in place with
    // its last good checkpoint (8 → 4 → 2 → 1, floored at `min_pes`).
    let step_down = |run: &mut OneShotRun| {
        let DegradePolicy::HalvePes {
            failures_per_rung,
            min_pes,
        } = request.degrade
        else {
            return;
        };
        run.rung_failures += 1;
        if run.rung_failures < failures_per_rung.max(1) {
            return;
        }
        let BackendKind::ScaleOut { n_pes } = run.effective.backend else {
            return;
        };
        if n_pes / 2 < min_pes.max(1) {
            return;
        }
        let half = BackendKind::ScaleOut { n_pes: n_pes / 2 };
        if let Some(sim) = &mut run.sim {
            if sim.repartition(half).is_err() {
                return;
            }
        }
        run.effective.backend = half;
        run.rung_failures = 0;
        shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
    };
    let summary = match run_with_retries(shared, pkt, worker, &mut run, attempt, step_down) {
        Ok(summary) => summary,
        Err(err) => {
            // The simulator drops with `run` (its state reflects the
            // failed run). When the ladder was descended the degraded
            // shape takes the strike as well as the submitted one.
            if run.effective.backend != config.backend {
                shared.quarantine_mark_failure(fingerprint(
                    &JobSpec::OneShot {
                        circuit: Arc::clone(circuit),
                        config: run.effective,
                        shots,
                        return_state,
                    },
                    &pkt.circuit_fp,
                ));
            }
            return Err(err);
        }
    };
    shared
        .metrics
        .checkpoint_bytes
        .fetch_add(summary.checkpoint_bytes, Ordering::Relaxed);
    shared.metrics.add_traffic(&summary.total_traffic());
    shared
        .metrics
        .races_detected
        .fetch_add(summary.races.len() as u64, Ordering::Relaxed);
    shared
        .metrics
        .respawned
        .fetch_add(summary.respawns as u64, Ordering::Relaxed);
    // Credit the communication the remap avoided: what the same config
    // without remap is predicted to move, minus what the remapped run
    // measured. A run that exchanged nothing ran the naive schedule.
    if summary.remap_swaps > 0 {
        let naive = SimConfig {
            remap: false,
            ..*config
        };
        let predicted = CompiledPlan::compile(circuit, circuit.n_qubits(), &naive)
            .predict_traffic(naive.backend.n_workers() as u64);
        shared.metrics.remote_bytes_saved.fetch_add(
            predicted
                .remote_bytes
                .saturating_sub(summary.total_traffic().remote_bytes()),
            Ordering::Relaxed,
        );
    }
    let mut sim = run.sim.expect("the successful attempt put it back");
    let samples = (shots > 0).then(|| measure::histogram(&sim.sample(shots)));
    let state = return_state.then(|| sim.state().clone());
    shared.pool.checkin(sim.into_state());
    Ok(JobOutput::OneShot {
        summary,
        state,
        samples,
    })
}

/// What a one-shot job's attempts share: the simulator (and with it the
/// last good checkpoint) and where on the degradation ladder the job
/// stands.
struct OneShotRun {
    /// The width/supervision the job is *currently* running at; the
    /// degradation ladder narrows it without touching the submitted spec.
    effective: SimConfig,
    rung_failures: u32,
    /// `None` before the first attempt and after an attempt that did not
    /// return normally.
    sim: Option<Simulator>,
}

/// Execute a coalesced group of sweep jobs — all for the same template —
/// against one worker-local template clone and one pooled state buffer,
/// publishing each member as it finishes.
///
/// Deadlines and cancellation are re-checked *per member* right before its
/// execution, so a long batch cannot carry an already-dead job to a result
/// nobody wants. Transient per-job failures retry under the job's policy
/// (`run_into` resets the buffer, so re-running a trial is idempotent).
fn run_sweep_batch(
    shared: &Shared,
    templates: &mut WorkerTemplates,
    jobs: Vec<JobPacket>,
    worker: usize,
) {
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .batched_jobs
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let JobSpec::Sweep { template, .. } = jobs[0].request.spec else {
        unreachable!("dispatched as sweep");
    };

    let fail_all = |jobs: Vec<JobPacket>, e: SvError| {
        let started = Instant::now();
        for pkt in jobs {
            if let Some(pkt) = pkt.still_wanted(shared, started) {
                publish(shared, &pkt, started, Err(JobError::Failed(e.clone())));
            }
        }
    };
    let Some(tpl) = templates.get_mut(template, &shared.registry) else {
        fail_all(
            jobs,
            SvError::Undefined(format!("template {template} is not registered")),
        );
        return;
    };
    let mut buf = match shared.pool.checkout(tpl.n_qubits()) {
        Ok(buf) => buf,
        Err(e) => {
            fail_all(jobs, e);
            return;
        }
    };

    for pkt in jobs {
        let started = Instant::now();
        // The member's queue wait ends here, behind the members before it,
        // and the admission re-check runs: a job cancelled or expired since
        // it was enqueued must not execute.
        let Some(pkt) = pkt.still_wanted(shared, started) else {
            continue;
        };
        let JobSpec::Sweep {
            ref params,
            returning,
            ..
        } = pkt.request.spec
        else {
            unreachable!("coalesced batches are sweep-only");
        };
        let trial = |_: &mut (), _| {
            tpl.run_into(params, &mut buf)?;
            Ok(match returning {
                SweepReturn::State => JobOutput::Sweep {
                    state: Some(buf.clone()),
                    value: None,
                },
                SweepReturn::ExpZ(mask) => JobOutput::Sweep {
                    state: None,
                    value: Some(measure::expval_z_mask(&buf, mask)),
                },
            })
        };
        let result = run_with_retries(shared, &pkt, worker, &mut (), trial, |()| {});
        publish(shared, &pkt, started, result);
    }
    shared.pool.checkin(buf);
}

/// The one retry loop: run `attempt` (told its 1-based number) until it
/// succeeds, fails deterministically, or exhausts the job's
/// [`crate::RetryPolicy`]. A transient failure — an [`SvError`] that is
/// [`retryable`], an injected executor fault, or a panic inside the
/// attempt — backs off deterministically and goes again, with
/// `between_attempts` run first so a caller can change what the next
/// attempt runs on; `state` is what the two closures share. A success
/// clears the job shape's quarantine streak, a final failure extends it.
fn run_with_retries<S, T>(
    shared: &Shared,
    pkt: &JobPacket,
    worker: usize,
    state: &mut S,
    mut attempt: impl FnMut(&mut S, u32) -> SvResult<T>,
    mut between_attempts: impl FnMut(&mut S),
) -> Result<T, JobError> {
    // `None` only when quarantining is off, where the key is never read.
    let fp = pkt.fp.unwrap_or(0);
    let policy = pkt.request.retry;
    let mut n: u32 = 1;
    let mut first_failure: Option<Instant> = None;
    loop {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            exec_fault_point(pkt, worker)?;
            attempt(state, n)
        }));
        let (transient, err) = match ran {
            Ok(Ok(output)) => {
                if let Some(t) = first_failure {
                    shared.metrics.recovery.record(t.elapsed());
                }
                shared.quarantine_clear(fp);
                return Ok(output);
            }
            Ok(Err(e)) => (retryable(&e), JobError::Failed(e)),
            Err(_) => (true, panic_error()),
        };
        if matches!(&err, JobError::Failed(SvError::PeHung { .. })) {
            shared.metrics.hung.fetch_add(1, Ordering::Relaxed);
        }
        if !transient || n >= policy.max_attempts {
            shared.quarantine_mark_failure(fp);
            return Err(err);
        }
        first_failure.get_or_insert_with(Instant::now);
        shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
        between_attempts(state);
        std::thread::sleep(policy.backoff(n));
        n += 1;
    }
}

/// Consult a job's fault plan for an `Exec`-level fault against this
/// worker (modeling a scheduler-visible executor failure, as opposed to
/// the SHMEM-level faults injected inside scale-out launches).
///
/// # Errors
/// [`SvError::PeFailed`] for `Kill`/`Drop`/`Poison` actions.
fn exec_fault_point(pkt: &JobPacket, worker: usize) -> SvResult<()> {
    let Some(plan) = &pkt.request.fault_plan else {
        return Ok(());
    };
    match plan.check(worker, PeOp::Exec) {
        None => Ok(()),
        Some(FaultAction::Delay(iters)) => {
            for _ in 0..iters {
                std::hint::spin_loop();
            }
            Ok(())
        }
        Some(FaultAction::Kill | FaultAction::Drop | FaultAction::Poison | FaultAction::Hang) => {
            Err(SvError::PeFailed {
                pe: worker,
                op: PeOp::Exec,
            })
        }
        // Torn checkpoint writes are a storage-layer fault, consumed at
        // the simulator's persistence points, not an executor failure.
        Some(FaultAction::TornCheckpoint) => Ok(()),
    }
}

fn panic_error() -> JobError {
    JobError::Failed(SvError::InvalidConfig(
        "engine worker panicked while executing the job".into(),
    ))
}

/// Count the outcome and the execution time since `started`, and hand the
/// result to the job's handle.
fn publish(
    shared: &Shared,
    pkt: &JobPacket,
    started: Instant,
    result: Result<JobOutput, JobError>,
) {
    match &result {
        Ok(_) => shared.metrics.completed.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared.metrics.failed.fetch_add(1, Ordering::Relaxed),
    };
    shared.metrics.execution.record(started.elapsed());
    pkt.cell.finish(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EngineMetrics;
    use svsim_ir::GateKind;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::RZ, &[2], &[0.25]).unwrap();
        c
    }

    impl PlanCache {
        /// A plan for a circuit whose digest is not known yet.
        fn plan_for(
            &mut self,
            circuit: &Arc<Circuit>,
            config: &SimConfig,
            metrics: &EngineMetrics,
        ) -> Arc<CompiledPlan> {
            self.plan_keyed(circuit, &OnceCell::new(), config, metrics)
        }
    }

    fn counts(m: &EngineMetrics) -> (u64, u64) {
        let s = m.snapshot();
        (s.plan_cache_hits, s.plan_cache_misses)
    }

    #[test]
    fn structurally_equal_circuits_hit_across_distinct_arcs() {
        let mut cache = PlanCache::default();
        let metrics = EngineMetrics::default();
        let config = SimConfig::single_device();
        let a = Arc::new(sample_circuit());
        let b = Arc::new(sample_circuit()); // equal structure, distinct allocation
        assert!(!Arc::ptr_eq(&a, &b));
        let plan_a = cache.plan_for(&a, &config, &metrics);
        let plan_b = cache.plan_for(&b, &config, &metrics);
        assert!(
            Arc::ptr_eq(&plan_a, &plan_b),
            "re-parsed circuit must reuse the cached plan"
        );
        assert_eq!(counts(&metrics), (1, 1));
    }

    #[test]
    fn pointer_miss_fills_the_carried_digest_and_pointer_hit_renders_nothing() {
        let mut cache = PlanCache::default();
        let metrics = EngineMetrics::default();
        let config = SimConfig::single_device();
        let a = Arc::new(sample_circuit());
        let missed = OnceCell::new();
        cache.plan_keyed(&a, &missed, &config, &metrics);
        assert_eq!(missed.get(), Some(&circuit_digest(&a)));
        let hit = OnceCell::new();
        cache.plan_keyed(&a, &hit, &config, &metrics);
        assert_eq!(hit.get(), None, "a pointer hit must not render the circuit");
        // A digest carried in from admission is the key as-is: a wrong one
        // misses an equal circuit, the right one hits it.
        let b = Arc::new(sample_circuit());
        let wrong = OnceCell::from(circuit_digest(&b) ^ 1);
        cache.plan_keyed(&b, &wrong, &config, &metrics);
        assert_eq!(counts(&metrics), (1, 2));
        let right = OnceCell::from(circuit_digest(&b));
        cache.plan_keyed(&Arc::new(sample_circuit()), &right, &config, &metrics);
        assert_eq!(counts(&metrics), (2, 2));
    }

    #[test]
    fn one_gate_edit_misses() {
        let mut cache = PlanCache::default();
        let metrics = EngineMetrics::default();
        let config = SimConfig::single_device();
        let a = Arc::new(sample_circuit());
        let mut edited = sample_circuit();
        edited.apply(GateKind::X, &[1], &[]).unwrap();
        let b = Arc::new(edited);
        let plan_a = cache.plan_for(&a, &config, &metrics);
        let plan_b = cache.plan_for(&b, &config, &metrics);
        assert!(!Arc::ptr_eq(&plan_a, &plan_b));
        assert_eq!(counts(&metrics), (0, 2));
    }

    #[test]
    fn config_shape_change_misses_despite_equal_circuit() {
        let mut cache = PlanCache::default();
        let metrics = EngineMetrics::default();
        let a = Arc::new(sample_circuit());
        let gridded = SimConfig {
            checkpoint_every: 2,
            ..SimConfig::single_device()
        };
        let plain = cache.plan_for(&a, &SimConfig::single_device(), &metrics);
        let segmented = cache.plan_for(&a, &gridded, &metrics);
        assert!(
            !Arc::ptr_eq(&plain, &segmented),
            "a checkpoint-grid change must recompile"
        );
        assert_eq!(counts(&metrics), (0, 2));
        // And the segmented plan is itself cached for its config.
        let again = cache.plan_for(&a, &gridded, &metrics);
        assert!(Arc::ptr_eq(&segmented, &again));
        assert_eq!(counts(&metrics), (1, 2));
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let mut cache = PlanCache::default();
        let metrics = EngineMetrics::default();
        let config = SimConfig::single_device();
        for i in 0..(PLAN_CACHE_CAP + 4) {
            let mut c = Circuit::new(3);
            for _ in 0..=i {
                c.apply(GateKind::H, &[0], &[]).unwrap();
            }
            cache.plan_for(&Arc::new(c), &config, &metrics);
        }
        assert!(cache.entries.len() <= PLAN_CACHE_CAP);
    }
}
