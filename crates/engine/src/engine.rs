//! The engine facade: job admission on the caller's thread, the one
//! bounded queue, and the worker threads that serve it
//! ([`crate::worker`]).
//!
//! ```text
//! submit ──admit──▶ [queue "admit"] ──▶ worker (×N): plan ▸ execute ▸ readback ▸ publish
//! ```
//!
//! There are no interior queues, so nothing blocks but the workers' wait
//! for work: when they fall behind the queue fills and `submit` refuses.

use crate::job::{JobCell, JobError, JobHandle, JobId, JobRequest, JobSpec};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::packet::{packet_bytes, JobPacket, MemoryBudget, SubmitError};
use crate::pool::InstancePool;
use crate::queue::StageQueue;
use crate::templates::{TemplateId, TemplateRegistry};
use crate::worker::{worker_loop, PlanCache};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use svsim_core::{circuit_digest, Digest, ParamCircuit};
use svsim_types::SvResult;

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
    /// Cap on the total state-vector bytes (16 per amplitude: an f64 real
    /// and imaginary plane) that admitted, unpublished jobs pin; a job that
    /// would cross it is refused with [`SubmitError::MemoryExceeded`].
    /// `None` caps nothing.
    pub memory_limit: Option<u64>,
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
            memory_limit: None,
        }
    }
}

/// State shared between the engine handle and its workers.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The one queue: `submit` pushes, the workers pop.
    pub(crate) queue: StageQueue<JobPacket>,
    /// In-flight bytes, reserved by `submit` and released with the packet.
    pub(crate) budget: Arc<MemoryBudget>,
    pub(crate) plans: Mutex<PlanCache>,
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
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Start the worker threads.
    #[must_use]
    pub fn start(config: EngineConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: StageQueue::new(config.queue_capacity),
            budget: Arc::new(MemoryBudget::new(config.memory_limit)),
            plans: Mutex::default(),
            metrics: EngineMetrics::default(),
            registry: TemplateRegistry::default(),
            pool: InstancePool::new(config.pool_max_per_key),
            quarantine: Mutex::new(HashMap::new()),
            quarantine_threshold: config.quarantine_threshold,
        });
        let max_batch = config.max_batch.max(1);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svsim-worker-{i}"))
                    .spawn(move || worker_loop(&shared, max_batch, i))
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            shared,
            workers,
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
    /// the engine's admission.
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
        let needed = packet_bytes(&request.spec, &self.shared.registry);
        let admitted = self.shared.budget.try_admit(needed).and_then(|lease| {
            let pkt = JobPacket {
                request,
                cell: Arc::clone(&cell),
                enqueued_at: Instant::now(),
                fp,
                circuit_fp,
                lease,
            };
            self.shared.queue.try_push(pkt)
        });
        match admitted {
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
        self.shared.queue.len()
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
        s.stages = vec![self.shared.queue.snapshot()];
        s.mem_in_flight_bytes = self.shared.budget.in_flight_bytes();
        s.mem_high_water_bytes = self.shared.budget.high_water_bytes();
        s.mem_limit_bytes = self.shared.budget.limit_bytes();
        s
    }

    /// Stop accepting work, let the workers run every queued job to
    /// completion, join them, and return the final metrics.
    #[must_use = "final metrics summarize the engine's whole life"]
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop(true);
        self.metrics()
    }

    /// Stop immediately: queued jobs fail with [`JobError::Shutdown`];
    /// jobs already executing run to completion and still publish.
    #[must_use = "final metrics summarize the engine's whole life"]
    pub fn shutdown_now(mut self) -> MetricsSnapshot {
        self.stop(false);
        self.metrics()
    }

    /// Close the queue and join the workers. With `drain`, the workers run
    /// every queued job to a published result first; without, queued jobs
    /// fail with [`JobError::Shutdown`] while the ones already in a
    /// worker's hands run to completion and publish. Idempotent: after an
    /// explicit shutdown, `Drop` finds nothing left to do.
    fn stop(&mut self, drain: bool) {
        for pkt in self.shared.queue.close(drain) {
            self.shared
                .metrics
                .shutdown_dropped
                .fetch_add(1, Ordering::Relaxed);
            pkt.cell.finish(Err(JobError::Shutdown));
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop(false);
    }
}
