//! The engine facade: job admission, the serving stage behind it, and
//! the execution machinery its workers run — retry, degradation ladders,
//! checkpoint recovery, quarantine — and the readback that follows.

use crate::job::{
    JobCell, JobError, JobHandle, JobId, JobOutput, JobRequest, JobSpec, SweepReturn,
};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::pipeline::{circuit_digest, AllocMode, JobPacket, Pipeline, QueuedJob, SubmitError};
use crate::pool::InstancePool;
use crate::retry::{retryable, DegradePolicy};
use crate::templates::{TemplateId, TemplateRegistry, WorkerTemplates};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use svsim_core::{
    measure, BackendKind, Checkpoint, CheckpointStore, CompiledPlan, Digest, ParamCircuit,
    RunStart, RunSummary, SimConfig, Simulator,
};
use svsim_shmem::FaultAction;
use svsim_types::{PeOp, SvError, SvResult};

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads; each plans, runs and reads back the jobs it pops.
    /// They are the only threads the engine starts.
    pub workers: usize,
    /// Capacity of the engine's one job queue; submissions beyond it are
    /// rejected, not blocked.
    pub queue_capacity: usize,
    /// Most sweep jobs coalesced into one batched execution.
    pub max_batch: usize,
    /// Idle instances retained per pool key (the register width).
    pub pool_max_per_key: usize,
    /// Consecutive final failures of one job shape before further
    /// submissions of it are refused with [`SubmitError::Quarantined`]
    /// (0 disables quarantining).
    pub quarantine_threshold: u32,
    /// In-flight allocation budget enforced at admission.
    pub alloc: AllocMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(2, std::num::NonZeroUsize::get)
            .min(8);
        Self {
            workers,
            queue_capacity: 1024,
            max_batch: 16,
            pool_max_per_key: workers,
            quarantine_threshold: 3,
            alloc: AllocMode::default(),
        }
    }
}

/// State shared between the engine handle and its workers.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) metrics: EngineMetrics,
    pub(crate) registry: TemplateRegistry,
    pub(crate) pool: InstancePool,
    /// Consecutive final-failure counts keyed by job fingerprint; entries
    /// at or above `quarantine_threshold` block further submissions.
    pub(crate) quarantine: Mutex<HashMap<u64, u32>>,
    pub(crate) quarantine_threshold: u32,
}

impl Shared {
    /// Record a final (post-retry) failure of this job shape.
    pub(crate) fn quarantine_mark_failure(&self, fingerprint: u64) {
        if self.quarantine_threshold == 0 {
            return;
        }
        let mut q = self.quarantine.lock().expect("quarantine lock");
        *q.entry(fingerprint).or_insert(0) += 1;
    }

    /// A success clears the shape's failure streak (quarantine is for
    /// *consecutively* failing jobs, not jobs that ever failed).
    pub(crate) fn quarantine_clear(&self, fingerprint: u64) {
        if self.quarantine_threshold == 0 {
            return;
        }
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .remove(&fingerprint);
    }

    /// Failure streak recorded for a fingerprint, if any.
    pub(crate) fn quarantine_failures(&self, fingerprint: u64) -> Option<u32> {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .get(&fingerprint)
            .copied()
    }
}

/// Structural digest of a job's work, used as the quarantine key: two
/// submissions of the same circuit/config (or template/params) collide,
/// while any difference in the work separates them. A one-shot's circuit
/// is rendered only when `circuit_fp` does not hold its digest yet.
pub(crate) fn fingerprint(spec: &JobSpec, circuit_fp: &OnceCell<u64>) -> u64 {
    match spec {
        JobSpec::OneShot {
            circuit,
            config,
            shots,
            return_state,
        } => {
            let circuit_fp = *circuit_fp.get_or_init(|| circuit_digest(circuit));
            let job = [0, circuit_fp, *shots as u64, u64::from(*return_state)];
            Digest::default()
                .absorb(&job, u64::from)
                .absorb(format!("{config:?}").as_bytes(), u64::from)
        }
        JobSpec::Sweep {
            template,
            params,
            returning,
        } => Digest::default()
            .absorb(&[1, template.0], u64::from)
            .absorb(params, f64::to_bits)
            .absorb(format!("{returning:?}").as_bytes(), u64::from),
    }
    .finish()
}

/// A running engine. Submit jobs with [`Engine::submit`]; stop it with
/// [`Engine::shutdown`] (drains) or [`Engine::shutdown_now`] (drops queued
/// jobs). Dropping a running engine behaves like `shutdown_now`.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    pipeline: Pipeline,
    next_id: AtomicU64,
}

impl Engine {
    /// Start the worker threads.
    #[must_use]
    pub fn start(config: EngineConfig) -> Self {
        let shared = Arc::new(Shared {
            metrics: EngineMetrics::default(),
            registry: TemplateRegistry::default(),
            pool: InstancePool::new(config.pool_max_per_key),
            quarantine: Mutex::new(HashMap::new()),
            quarantine_threshold: config.quarantine_threshold,
        });
        let pipeline = Pipeline::start(&shared, &config);
        Self {
            shared,
            pipeline,
            next_id: AtomicU64::new(0),
        }
    }

    /// Compile and register a parameterized template for sweep jobs.
    ///
    /// # Errors
    /// Propagates template compilation errors.
    pub fn register_template(&self, name: &str, circuit: &ParamCircuit) -> SvResult<TemplateId> {
        self.shared.registry.register(name, circuit)
    }

    /// Submit a job. Never blocks: a full queue, an exhausted in-flight
    /// budget, or a malformed sweep is refused immediately — this *is*
    /// the pipeline's admission.
    ///
    /// # Errors
    /// [`SubmitError`] describing why admission failed.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, SubmitError> {
        let circuit_fp = OnceCell::new();
        let fp =
            (self.shared.quarantine_threshold > 0).then(|| fingerprint(&request.spec, &circuit_fp));
        if let Some(fp) = fp {
            if let Some(failures) = self.shared.quarantine_failures(fp) {
                if failures >= self.shared.quarantine_threshold {
                    self.shared
                        .metrics
                        .quarantined
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Quarantined { failures });
                }
            }
        }
        if let JobSpec::Sweep {
            template, params, ..
        } = &request.spec
        {
            let info = self
                .shared
                .registry
                .info(*template)
                .ok_or(SubmitError::UnknownTemplate(*template))?;
            if params.len() < info.n_vars {
                return Err(SubmitError::BadParamCount {
                    expected: info.n_vars,
                    got: params.len(),
                });
            }
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let cell = Arc::new(JobCell::default());
        let queued = QueuedJob {
            request,
            cell: Arc::clone(&cell),
            enqueued_at: Instant::now(),
        };
        match self.pipeline.admit(&self.shared, queued, fp, circuit_fp) {
            Ok(()) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle { id, cell })
            }
            Err(e) => {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Jobs waiting in the queue right now (not yet picked up by a
    /// worker).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.pipeline.depth()
    }

    /// Job shapes currently quarantined (failure streak at or above the
    /// threshold).
    #[must_use]
    pub fn quarantined_shapes(&self) -> usize {
        if self.shared.quarantine_threshold == 0 {
            return 0;
        }
        self.shared
            .quarantine
            .lock()
            .expect("quarantine lock")
            .values()
            .filter(|&&n| n >= self.shared.quarantine_threshold)
            .count()
    }

    /// Point-in-time metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut s = self.shared.metrics.snapshot();
        s.pool_created = self.shared.pool.created.load(Ordering::Relaxed);
        s.pool_reused = self.shared.pool.reused.load(Ordering::Relaxed);
        s.stages = self.pipeline.stage_snapshots();
        s.mem_in_flight_bytes = self.pipeline.budget.in_flight_bytes();
        s.mem_high_water_bytes = self.pipeline.budget.high_water_bytes();
        s.mem_limit_bytes = self.pipeline.budget.limit_bytes();
        s
    }

    /// Stop accepting work, let the workers run every queued job to
    /// completion, join them, and return the final metrics.
    #[must_use = "final metrics summarize the engine's whole life"]
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.pipeline.stop(&self.shared, true);
        self.metrics()
    }

    /// Stop immediately: queued jobs fail with [`JobError::Shutdown`];
    /// jobs already executing run to completion and still publish.
    #[must_use = "final metrics summarize the engine's whole life"]
    pub fn shutdown_now(mut self) -> MetricsSnapshot {
        self.pipeline.stop(&self.shared, false);
        self.metrics()
    }
}

impl Drop for Engine {
    /// `Pipeline::stop` is idempotent: after an explicit shutdown this
    /// finds nothing left to do.
    fn drop(&mut self) {
        self.pipeline.stop(&self.shared, false);
    }
}

fn panic_error() -> JobError {
    JobError::Failed(SvError::InvalidConfig(
        "engine worker panicked while executing the job".into(),
    ))
}

/// Consult a job's fault plan for an `Exec`-level fault against this
/// worker (modeling a scheduler-visible executor failure, as opposed to
/// the SHMEM-level faults injected inside scale-out launches).
///
/// # Errors
/// [`SvError::PeFailed`] for `Kill`/`Drop`/`Poison` actions.
fn exec_fault_point(job: &QueuedJob, worker: usize) -> SvResult<()> {
    let Some(plan) = &job.request.fault_plan else {
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

pub(crate) fn publish(
    shared: &Shared,
    job: &QueuedJob,
    started: Instant,
    result: Result<JobOutput, JobError>,
) {
    match &result {
        Ok(_) => shared.metrics.completed.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared.metrics.failed.fetch_add(1, Ordering::Relaxed),
    };
    shared.metrics.execution.record(started.elapsed());
    job.cell.finish(result);
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
    let policy = pkt.job.request.retry;
    let mut n: u32 = 1;
    let mut first_failure: Option<Instant> = None;
    loop {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            exec_fault_point(&pkt.job, worker)?;
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

/// What a one-shot job's attempts share: the simulator (and with it the
/// last good checkpoint) and where on the degradation ladder the job
/// stands.
struct OneShotRun {
    /// The width/supervision the job is *currently* running at; the
    /// degradation ladder narrows it without touching the submitted spec.
    effective: SimConfig,
    rung_failures: u32,
    /// Checkpoint carried across a degradation step into the next
    /// (half-width) simulator.
    carried: Option<Checkpoint>,
    /// `None` before the first attempt, after a degradation step, and
    /// after an attempt that did not return normally.
    sim: Option<Simulator>,
}

/// Execute a one-shot job with retry-in-place and the self-healing
/// ladder: a transient failure (PE death or hang, barrier expiry, SHMEM
/// breakdown, torn checkpoint write, worker panic) backs off
/// deterministically and re-attempts — resuming from the last good
/// checkpoint when one exists (in memory or recovered from the job's
/// on-disk store), rerunning from scratch otherwise. Under
/// [`DegradePolicy::HalvePes`], repeated failures at one width
/// re-partition the job at half the PEs and transplant the checkpoint
/// into the narrower world.
///
/// `plan` drives execution when its shape still matches; degradation or
/// remapping that invalidates it falls back to on-the-fly lowering,
/// bit-identically.
///
/// On success the simulator comes back holding the final state: readback
/// still owes sampling, the optional state clone, and returning the state
/// buffer to the pool.
pub(crate) fn execute_one_shot(
    shared: &Shared,
    pkt: &JobPacket,
    plan: &CompiledPlan,
    worker: usize,
) -> Result<(Simulator, RunSummary), JobError> {
    let request = &pkt.job.request;
    let JobSpec::OneShot {
        ref circuit,
        ref config,
        shots,
        return_state,
    } = request.spec
    else {
        unreachable!("dispatched as one-shot");
    };
    let mut run = OneShotRun {
        effective: *config,
        rung_failures: 0,
        carried: None,
        sim: None,
    };
    let attempt = |run: &mut OneShotRun, n: u32| {
        // The job's simulator lives in this frame while it runs, so an
        // attempt that panics or bails out drops it — it may be
        // mid-mutation and is never reused — and the next builds afresh.
        let mut s = match run.sim.take() {
            Some(s) => s,
            None => shared.pool.simulator(circuit.n_qubits(), run.effective)?,
        };
        // Rewind a retry that has nothing to resume from; a verified
        // checkpoint instead resumes mid-circuit.
        let mut resumable = n > 1 && s.checkpoint().is_some_and(|cp| cp.verify().is_ok());
        if let Some(cp) = run.carried.take() {
            // Checkpoints are full global state (PE-count independent), so
            // the degraded world adopts the wider world's progress as-is.
            s.adopt_checkpoint(cp)?;
            resumable = true;
        }
        if n > 1 && !resumable {
            s.reset();
        }
        if let Some(dir) = &request.checkpoint_dir {
            // (Re)open the store every attempt: `reset` detaches it, and
            // `open` resumes the generation counter from the directory.
            s.set_checkpoint_store(Some(CheckpointStore::open(dir.clone())?));
            if n > 1 && !resumable {
                // The in-memory checkpoint is gone (torn write, panic,
                // degradation): fall back to the newest loadable on-disk
                // generation. An unrecoverable store reruns from scratch.
                resumable = s.recover_checkpoint_from_store().unwrap_or(false);
            }
        }
        s.set_fault_plan(request.fault_plan.clone());
        let start = if resumable {
            RunStart::LastCheckpoint
        } else {
            RunStart::Fresh
        };
        let ran = s.run_from(circuit, Some(plan), start);
        run.sim = Some(s);
        ran
    };
    // The degradation ladder: enough failures at this width step the job
    // down to half the PEs, carrying its last good checkpoint into the
    // narrower world (8 → 4 → 2 → 1, floored at `min_pes`).
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
        run.carried = run
            .sim
            .take()
            .and_then(|mut sim| sim.take_checkpoint())
            .filter(|cp| cp.verify().is_ok());
        run.effective.backend = BackendKind::ScaleOut { n_pes: n_pes / 2 };
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
    let sim = run.sim.expect("the successful attempt put it back");
    Ok((sim, summary))
}

/// Readback of a successful one-shot: sample, clone the requested state,
/// and return the state buffer to the pool — *before* the caller
/// publishes, so a submit-wait-submit client always finds it available.
/// Everything else the job attached dies with its simulator.
pub(crate) fn readback_one_shot(
    shared: &Shared,
    job: &QueuedJob,
    mut sim: Simulator,
    summary: RunSummary,
) -> JobOutput {
    let JobSpec::OneShot {
        shots,
        return_state,
        ..
    } = job.request.spec
    else {
        unreachable!("dispatched as one-shot");
    };
    let samples = (shots > 0).then(|| measure::histogram(&sim.sample(shots)));
    let state = return_state.then(|| sim.state().clone());
    shared.pool.checkin(sim.into_state());
    JobOutput::OneShot {
        summary,
        state,
        samples,
    }
}

/// Execute a coalesced group of sweep jobs — all for the same template —
/// against one worker-local template clone and one pooled state buffer,
/// publishing each member as it finishes.
///
/// Deadlines and cancellation are re-checked *per member* right before its
/// execution, so a long batch cannot carry an already-dead job to a result
/// nobody wants. Transient per-job failures retry under the job's policy
/// (`run_into` resets the buffer, so re-running a trial is idempotent).
pub(crate) fn run_sweep_batch(
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
    let JobSpec::Sweep { template, .. } = jobs[0].job.request.spec else {
        unreachable!("dispatched as sweep");
    };

    let fail_all = |jobs: Vec<JobPacket>, e: SvError| {
        let started = Instant::now();
        for pkt in jobs {
            if let Some(pkt) = pkt.still_wanted(shared, started) {
                publish(shared, &pkt.job, started, Err(JobError::Failed(e.clone())));
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
        } = pkt.job.request.spec
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
        publish(shared, &pkt.job, started, result);
    }
    shared.pool.checkin(buf);
}
