//! The typed dataflow pipeline behind [`crate::Engine`].
//!
//! Jobs flow as pooled, memory-accounted packets through four stages:
//!
//! ```text
//! admit/parse ──▶ compile/plan ──▶ execute ──▶ readback/measure
//!   (caller)        (1 thread)    (N threads)     (1 thread)
//! ```
//!
//! - **admit** runs on the submitting thread: quarantine and sweep
//!   validation, the job fingerprint, and a [`MemoryBudget`] lease; then a
//!   reject-on-full push into the admit queue (typed backpressure at the
//!   edge).
//! - **compile** pops admitted packets, re-checks cancellation/deadline at
//!   the hop, and attaches a cached [`svsim_core::CompiledPlan`] to
//!   one-shot jobs so repeated circuits skip op→kernel lowering entirely.
//! - **execute** is the worker pool: template-coalesced batching, retry,
//!   degradation ladders, and quarantine marking, fed from a bounded
//!   stage queue with one more cancel/deadline re-check at the hop.
//! - **readback** samples, clones requested state, checks the simulator
//!   back into the instance pool, and publishes — off the execute workers,
//!   so a large job's measurement readout no longer blocks the next job's
//!   execution.
//!
//! Interior hops use blocking pushes, so a slow stage fills its queue and
//! stalls upstream stages until, at the edge, `submit` itself starts
//! refusing work: backpressure propagates topologically rather than
//! queueing without bound.

mod packet;
mod stage;

pub use packet::{AllocMode, SubmitError};
pub use stage::StageSnapshot;

pub(crate) use packet::{packet_bytes, JobPacket, MemoryBudget, QueuedJob, Readback};
pub(crate) use stage::StageQueue;

use crate::engine::{
    execute_one_shot, publish, readback_one_shot, run_sweep_batch, EngineConfig, Shared,
};
use crate::job::{JobError, JobSpec};
use crate::templates::WorkerTemplates;
use std::cell::OnceCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use svsim_core::{CompiledPlan, Digest, SimConfig};
use svsim_ir::Circuit;

/// Compiled plans cached by the compile stage, keyed by a structural
/// circuit fingerprint.
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

/// Distinct circuits the compile stage remembers plans for.
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

/// The running pipeline: stage queues, their threads, and the budget.
#[derive(Debug)]
pub(crate) struct Pipeline {
    admit_q: Arc<StageQueue<JobPacket>>,
    exec_q: Arc<StageQueue<JobPacket>>,
    read_q: Arc<StageQueue<Readback>>,
    pub(crate) budget: Arc<MemoryBudget>,
    compiler: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl Pipeline {
    pub(crate) fn start(shared: &Arc<Shared>, config: &EngineConfig) -> Self {
        let cap = config.queue_capacity.max(1);
        let admit_q = Arc::new(StageQueue::new("admit", cap));
        let exec_q = Arc::new(StageQueue::new("execute", cap));
        // Readback publishes in completion order, and its
        // queue is deliberately *shallow* regardless of `queue_capacity`:
        // every parked item pins a checked-out simulator (and its budget
        // lease), so deep buffering here only starves the instance pool
        // and bloats in-flight memory. A few slots per worker absorb
        // jitter; past that the executors block, which is exactly the
        // flow control we want.
        let read_cap = cap.min((2 * config.workers.max(1)).max(4));
        let read_q = Arc::new(StageQueue::new("readback", read_cap));
        let budget = Arc::new(MemoryBudget::new(config.alloc));

        let compiler = {
            let shared = Arc::clone(shared);
            let admit_q = Arc::clone(&admit_q);
            let exec_q = Arc::clone(&exec_q);
            std::thread::Builder::new()
                .name("svsim-compile".into())
                .spawn(move || compile_loop(&shared, &admit_q, &exec_q))
                .expect("spawn compile stage")
        };
        let executors = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(shared);
                let exec_q = Arc::clone(&exec_q);
                let read_q = Arc::clone(&read_q);
                let max_batch = config.max_batch.max(1);
                std::thread::Builder::new()
                    .name(format!("svsim-exec-{i}"))
                    .spawn(move || execute_loop(&shared, &exec_q, &read_q, max_batch, i))
                    .expect("spawn execute stage")
            })
            .collect();
        let reader = {
            let shared = Arc::clone(shared);
            let read_q = Arc::clone(&read_q);
            std::thread::Builder::new()
                .name("svsim-readback".into())
                .spawn(move || readback_loop(&shared, &read_q))
                .expect("spawn readback stage")
        };
        Self {
            admit_q,
            exec_q,
            read_q,
            budget,
            compiler: Some(compiler),
            executors,
            reader: Some(reader),
        }
    }

    /// The admit stage: reserve budget, wrap the job into a packet, and
    /// push it into the bounded admit queue (reject-on-full).
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
            plan: None,
            lease,
        };
        self.admit_q.try_push(pkt).map_err(|(e, _pkt)| e)
    }

    /// Packets waiting at stage boundaries (not currently inside a stage).
    pub(crate) fn depth(&self) -> usize {
        self.admit_q.len() + self.exec_q.len() + self.read_q.len()
    }

    /// Per-stage occupancy snapshots, pipeline order.
    pub(crate) fn stage_snapshots(&self) -> Vec<StageSnapshot> {
        vec![
            self.admit_q.snapshot(),
            self.exec_q.snapshot(),
            self.read_q.snapshot(),
        ]
    }

    /// Stop the pipeline, flushing stages in topological order so no
    /// packet is stranded at a boundary. With `drain`, every queued packet
    /// flows through its remaining stages to a published result; without,
    /// queued packets fail with [`JobError::Shutdown`] while packets
    /// already executing still run to completion and publish.
    pub(crate) fn stop(&mut self, shared: &Shared, drain: bool) {
        let fail = |pkt: JobPacket| {
            shared
                .metrics
                .shutdown_dropped
                .fetch_add(1, Ordering::Relaxed);
            pkt.job.cell.finish(Err(JobError::Shutdown));
        };
        // 1. Close admission; the compile stage drains what was admitted.
        for pkt in self.admit_q.close(drain) {
            fail(pkt);
        }
        if let Some(h) = self.compiler.take() {
            let _ = h.join();
        }
        // 2. With the compiler gone nothing feeds the execute queue; close
        //    it and let the workers drain (or fail) what remains.
        for pkt in self.exec_q.close(drain) {
            fail(pkt);
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // 3. Readback always drains: whatever finished executing must
        //    still be published, even on a hard stop.
        let _ = self.read_q.close(true);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Compile stage: pop admitted packets, drop dead ones at the hop, attach
/// a (cached) compiled plan to one-shots, and forward with backpressure.
fn compile_loop(shared: &Shared, admit_q: &StageQueue<JobPacket>, exec_q: &StageQueue<JobPacket>) {
    let mut cache = PlanCache::default();
    while let Some(pkt) = admit_q.pop() {
        let now = Instant::now();
        shared
            .metrics
            .queue_wait
            .record(now.saturating_duration_since(pkt.job.enqueued_at));
        let Some(mut pkt) = pkt.still_wanted(shared, now) else {
            continue;
        };
        if let JobSpec::OneShot {
            ref circuit,
            ref config,
            ..
        } = pkt.job.request.spec
        {
            pkt.plan = Some(cache.plan_keyed(circuit, &pkt.circuit_fp, config, &shared.metrics));
        }
        if let Err(pkt) = exec_q.push_wait(pkt) {
            // Hard shutdown closed the downstream queue under us.
            shared
                .metrics
                .shutdown_dropped
                .fetch_add(1, Ordering::Relaxed);
            pkt.job.cell.finish(Err(JobError::Shutdown));
        }
    }
}

/// Execute stage: the worker pool, fed from the bounded execute queue with
/// a cancel/deadline re-check at the hop, forwarding finished work to
/// readback instead of publishing inline.
fn execute_loop(
    shared: &Shared,
    exec_q: &StageQueue<JobPacket>,
    read_q: &StageQueue<Readback>,
    max_batch: usize,
    worker: usize,
) {
    let mut templates = WorkerTemplates::default();
    while let Some(batch) = exec_q.pop_batch(max_batch) {
        let dequeued = Instant::now();
        let live: Vec<JobPacket> = batch
            .into_iter()
            .filter_map(|pkt| pkt.still_wanted(shared, dequeued))
            .collect();
        let Some(head) = live.first() else { continue };
        match head.job.request.spec {
            // One-shots never coalesce, so `live` holds at most one.
            JobSpec::OneShot { .. } => {
                for pkt in live {
                    let started = Instant::now();
                    let item = match execute_one_shot(shared, &pkt, worker) {
                        Ok((sim, summary)) => Readback::OneShot {
                            pkt,
                            started,
                            sim,
                            summary,
                        },
                        Err(e) => Readback::Ready {
                            pkt,
                            started,
                            result: Err(e),
                        },
                    };
                    forward(shared, read_q, item);
                }
            }
            JobSpec::Sweep { .. } => {
                run_sweep_batch(
                    shared,
                    &mut templates,
                    live,
                    worker,
                    &mut |pkt, started, result| {
                        forward(
                            shared,
                            read_q,
                            Readback::Ready {
                                pkt,
                                started,
                                result,
                            },
                        );
                    },
                );
            }
        }
    }
}

/// Hand finished work to the readback stage; if a hard shutdown already
/// closed it, publish inline — executed results are never dropped.
fn forward(shared: &Shared, read_q: &StageQueue<Readback>, item: Readback) {
    if let Err(item) = read_q.push_wait(item) {
        complete(shared, item);
    }
}

/// Readback stage body: sample, clone requested state, check the
/// simulator's buffer back into the pool, then publish.
fn complete(shared: &Shared, item: Readback) {
    match item {
        Readback::OneShot {
            pkt,
            started,
            sim,
            summary,
        } => {
            let output = readback_one_shot(shared, &pkt.job, sim, summary);
            publish(shared, &pkt.job, started, Ok(output));
        }
        Readback::Ready {
            pkt,
            started,
            result,
        } => {
            publish(shared, &pkt.job, started, result);
        }
    }
    // The packet (and its budget lease) drops here: in-flight accounting
    // releases only after publication.
}

fn readback_loop(shared: &Shared, read_q: &StageQueue<Readback>) {
    while let Some(item) = read_q.pop() {
        complete(shared, item);
    }
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
