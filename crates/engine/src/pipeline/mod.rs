//! The serving stage behind [`crate::Engine`].
//!
//! Jobs wait as memory-accounted packets in one bounded queue and are
//! served start to finish by `EngineConfig::workers` threads:
//!
//! ```text
//! submit ──admit──▶ [queue "admit"] ──▶ worker (×N): plan ▸ execute ▸ readback ▸ publish
//! ```
//!
//! - **admit** runs on the submitting thread: quarantine and sweep
//!   validation, the job fingerprint, and a [`MemoryBudget`] lease; then a
//!   reject-on-full push into the queue (typed backpressure at the edge).
//! - each **worker** pops a batch (sweep points of one template coalesce).
//!   Where each job's own execution would start (a sweep point's behind
//!   the members before it), it records the job's queue wait and drops it
//!   if cancelled or expired; then for a one-shot takes the plan from the
//!   shared `PlanCache`
//!   (compiling under its lock on a miss), runs the retry and degradation
//!   ladder, samples, clones the requested state, checks the state buffer
//!   back into the instance pool, and publishes.
//!
//! There are no interior queues, so nothing blocks but the workers'
//! wait for work: when they fall behind the queue fills and `submit`
//! refuses.

mod packet;
mod stage;

pub use packet::{AllocMode, SubmitError};
pub use stage::StageSnapshot;

pub(crate) use packet::{packet_bytes, JobPacket, MemoryBudget, QueuedJob};
pub(crate) use stage::StageQueue;

use crate::engine::{
    execute_one_shot, publish, readback_one_shot, run_sweep_batch, EngineConfig, Shared,
};
use crate::job::{JobError, JobOutput, JobSpec};
use crate::templates::WorkerTemplates;
use std::cell::OnceCell;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use svsim_core::{CompiledPlan, Digest, SimConfig};
use svsim_ir::Circuit;

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
struct PlanCache {
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

/// The running pipeline: the one queue, its workers, and the budget.
#[derive(Debug)]
pub(crate) struct Pipeline {
    queue: Arc<StageQueue<JobPacket>>,
    pub(crate) budget: Arc<MemoryBudget>,
    workers: Vec<JoinHandle<()>>,
}

impl Pipeline {
    pub(crate) fn start(shared: &Arc<Shared>, config: &EngineConfig) -> Self {
        let queue = Arc::new(StageQueue::new("admit", config.queue_capacity));
        let plans = Arc::new(Mutex::new(PlanCache::default()));
        let max_batch = config.max_batch.max(1);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(shared);
                let queue = Arc::clone(&queue);
                let plans = Arc::clone(&plans);
                std::thread::Builder::new()
                    .name(format!("svsim-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue, &plans, max_batch, i))
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            queue,
            budget: Arc::new(MemoryBudget::new(config.alloc)),
            workers,
        }
    }

    /// Admission: reserve budget, wrap the job into a packet, and push it
    /// into the bounded queue (reject-on-full).
    pub(crate) fn admit(
        &self,
        shared: &Shared,
        job: QueuedJob,
        fp: Option<u64>,
        circuit_fp: OnceCell<u64>,
    ) -> Result<(), SubmitError> {
        let needed = packet_bytes(&job.request.spec, &shared.registry);
        let lease = self.budget.try_admit(needed)?;
        let pkt = JobPacket {
            job,
            fp,
            circuit_fp,
            lease,
        };
        self.queue.try_push(pkt).map_err(|(e, _pkt)| e)
    }

    /// Packets waiting in the queue (not yet picked up by a worker).
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    /// The queue's occupancy snapshot, the only entry.
    pub(crate) fn stage_snapshots(&self) -> Vec<StageSnapshot> {
        vec![self.queue.snapshot()]
    }

    /// Stop the pipeline: close the queue and join the workers. With
    /// `drain`, the workers run every queued packet to a published result
    /// first; without, queued packets fail with [`JobError::Shutdown`]
    /// while the ones already in a worker's hands run to completion and
    /// publish. Idempotent.
    pub(crate) fn stop(&mut self, shared: &Shared, drain: bool) {
        for pkt in self.queue.close(drain) {
            shared
                .metrics
                .shutdown_dropped
                .fetch_add(1, Ordering::Relaxed);
            pkt.job.cell.finish(Err(JobError::Shutdown));
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: pop a (coalesced) batch, then for each job in it drop it if
/// dead, else plan, run, read back and publish it. A job's queue wait ends
/// where it is dropped or its own execution starts
/// ([`JobPacket::still_wanted`]): for a one-shot the pop, for a sweep point
/// the start of its own trial, behind the batch members before it. The
/// packet, and with it the budget lease, drops only after publication.
fn worker_loop(
    shared: &Shared,
    queue: &StageQueue<JobPacket>,
    plans: &Mutex<PlanCache>,
    max_batch: usize,
    worker: usize,
) {
    let mut templates = WorkerTemplates::default();
    while let Some(batch) = queue.pop_batch(max_batch) {
        let Some(head) = batch.first() else { continue };
        match head.job.request.spec {
            // One-shots never coalesce, so the batch holds one.
            JobSpec::OneShot { .. } => {
                for pkt in batch {
                    let picked = Instant::now();
                    let Some(pkt) = pkt.still_wanted(shared, picked) else {
                        continue;
                    };
                    let result = run_one_shot(shared, plans, &pkt, worker);
                    publish(shared, &pkt.job, picked, result);
                }
            }
            JobSpec::Sweep { .. } => run_sweep_batch(shared, &mut templates, batch, worker),
        }
    }
}

/// A one-shot from plan to output: the cached plan (compiled under the
/// cache's lock on a miss, so compiles never run two at a time), the
/// execution ladder, then readback.
fn run_one_shot(
    shared: &Shared,
    plans: &Mutex<PlanCache>,
    pkt: &JobPacket,
    worker: usize,
) -> Result<JobOutput, JobError> {
    let JobSpec::OneShot {
        ref circuit,
        ref config,
        ..
    } = pkt.job.request.spec
    else {
        unreachable!("dispatched as one-shot");
    };
    let plan = plans.lock().expect("plan cache lock").plan_keyed(
        circuit,
        &pkt.circuit_fp,
        config,
        &shared.metrics,
    );
    let (sim, summary) = execute_one_shot(shared, pkt, &plan, worker)?;
    Ok(readback_one_shot(shared, &pkt.job, sim, summary))
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
