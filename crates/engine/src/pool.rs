//! Instance pool: state-vector allocations reused across jobs.
//!
//! Allocating a `2^n`-amplitude state vector dominates the cost of small
//! jobs, so the engine shelves finished buffers by the one thing baked in
//! at allocation — the register width — and hands them back out zeroed.
//! A shelf holds allocations, never tenants: a job's
//! [`svsim_core::Simulator`] is built around a checked-out buffer and
//! consumed for it at readback, so its configuration, RNG, classical
//! register, fault plan, checkpoint and store cannot outlive the job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use svsim_core::{SimConfig, Simulator, StateVector};
use svsim_types::SvResult;

/// Shared pool of reusable state buffers keyed by register width, serving
/// one-shot simulators and template sweeps alike.
#[derive(Debug)]
pub(crate) struct InstancePool {
    shelves: Mutex<HashMap<u32, Vec<StateVector>>>,
    /// Retained buffers per width; excess check-ins are dropped.
    max_per_key: usize,
    pub(crate) created: AtomicU64,
    pub(crate) reused: AtomicU64,
}

impl InstancePool {
    pub(crate) fn new(max_per_key: usize) -> Self {
        Self {
            shelves: Mutex::new(HashMap::new()),
            max_per_key: max_per_key.max(1),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// A `|0...0>` state buffer of the requested width: pulled from the
    /// shelf when possible, allocated otherwise.
    pub(crate) fn checkout(&self, n_qubits: u32) -> SvResult<StateVector> {
        let pooled = self
            .shelves
            .lock()
            .expect("pool lock")
            .get_mut(&n_qubits)
            .and_then(Vec::pop);
        if let Some(mut buf) = pooled {
            self.reused.fetch_add(1, Ordering::Relaxed);
            buf.reset_zero();
            return Ok(buf);
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        StateVector::zero_state(n_qubits)
    }

    /// A job's simulator in `|0...0>` around a checked-out buffer; a
    /// config the width cannot host is refused before a buffer is taken.
    pub(crate) fn simulator(&self, n_qubits: u32, config: SimConfig) -> SvResult<Simulator> {
        config.check_width(n_qubits)?;
        Simulator::from_state(self.checkout(n_qubits)?, config)
    }

    /// Return a buffer for future reuse. Dropped if the width's shelf is
    /// already full.
    pub(crate) fn checkin(&self, buf: StateVector) {
        let mut shelves = self.shelves.lock().expect("pool lock");
        let shelf = shelves.entry(buf.n_qubits()).or_default();
        if shelf.len() < self.max_per_key {
            shelf.push(buf);
        }
    }

    /// Idle buffers currently shelved.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.shelves
            .lock()
            .expect("pool lock")
            .values()
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::{Circuit, GateKind};

    #[test]
    fn checkout_reuses_and_resets() {
        let pool = InstancePool::new(4);
        let config = SimConfig {
            seed: 7,
            ..SimConfig::single_device()
        };
        let mut sim = pool.simulator(3, config).unwrap();
        // Dirty it.
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        sim.run(&c).unwrap();
        pool.checkin(sim.into_state());
        assert_eq!(pool.idle(), 1);

        // Same width: must reuse, and must come back pristine.
        let sim2 = pool.simulator(3, config).unwrap();
        assert_eq!(pool.reused.load(Ordering::Relaxed), 1);
        assert_eq!(sim2.state().re()[0], 1.0);
        assert!(sim2.state().re()[1..].iter().all(|&x| x == 0.0));
        assert!(sim2.state().im().iter().all(|&x| x == 0.0));

        // Different width: a miss.
        let _sim3 = pool.simulator(4, config).unwrap();
        assert_eq!(pool.created.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pooled_instance_alternates_remapped_and_naive_jobs_cleanly() {
        // ONE shelved buffer must serve remapped and naive jobs in strict
        // alternation with no stale permutation or counter leaking across
        // jobs.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.apply(GateKind::CX, &[3, 2], &[]).unwrap();
        c.apply(GateKind::T, &[3], &[]).unwrap();
        let mut reference = Simulator::new(4, SimConfig::single_device()).unwrap();
        reference.run(&c).unwrap();

        let pool = InstancePool::new(1);
        for round in 0..4 {
            let remap = round % 2 == 0;
            let config = SimConfig {
                seed: 7,
                remap,
                ..SimConfig::scale_out(4)
            };
            let mut sim = pool.simulator(4, config).unwrap();
            let summary = sim.run(&c).unwrap();
            assert_eq!(
                summary.remap_swaps > 0,
                remap,
                "round {round}: swaps iff the job asked for remapping"
            );
            assert_eq!(
                sim.state().re(),
                reference.state().re(),
                "round {round} (remap={remap})"
            );
            assert_eq!(
                sim.state().im(),
                reference.state().im(),
                "round {round} (remap={remap})"
            );
            pool.checkin(sim.into_state());
        }
        assert_eq!(
            pool.created.load(Ordering::Relaxed),
            1,
            "one buffer must have served every job"
        );
        assert_eq!(pool.reused.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pooled_instance_adopts_every_field_of_the_next_jobs_config() {
        // One shelved buffer, checked out under configs that differ in
        // every non-width field: nothing of the previous tenant may
        // survive, or a `remap` job silently runs unremapped (its cached
        // plan fails `CompiledPlan::matches`) and a `detect_races` job
        // reports zero races because the detector never ran. (`fuse: 3` is
        // here only because the field exists: the literal names every one.)
        use std::sync::Arc;
        use svsim_core::{BackendKind, CheckpointStore, DispatchMode, ShmemBackend};
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;
        let first = SimConfig::single_device();
        let second = SimConfig {
            backend: BackendKind::ScaleOut { n_pes: 2 },
            dispatch: DispatchMode::RuntimeParse,
            specialized: false,
            seed: 99,
            checkpoint_every: 3,
            detect_races: true,
            remap: true,
            shmem_backend: ShmemBackend::Process,
            respawn_max: 2,
            hang_deadline_ms: 1234,
            fuse: 3,
        };
        // Back to the defaults on the same backend shape: the step where
        // a per-field hand-off that forgets a field shows the leak.
        let third = SimConfig {
            backend: second.backend,
            dispatch: second.dispatch,
            specialized: second.specialized,
            ..first
        };
        let pool = InstancePool::new(1);
        for requested in [first, second, third, first] {
            let sim = pool.simulator(3, requested).unwrap();
            assert_eq!(sim.config(), &requested);
            pool.checkin(sim.into_state());
        }
        assert_eq!(pool.created.load(Ordering::Relaxed), 1);
        assert_eq!(pool.reused.load(Ordering::Relaxed), 3);

        // A config the width cannot host is refused without costing the
        // shelf its buffer.
        assert!(pool.simulator(3, SimConfig::scale_out(16)).is_err());
        assert_eq!(pool.idle(), 1);

        // Nor may anything a job attached to its simulator reach the next
        // tenant of the buffer.
        let mut c = Circuit::with_cbits(3, 3);
        for q in 0..3 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.apply(GateKind::CX, &[2, 0], &[]).unwrap();
        for q in 0..3 {
            c.measure(q, q).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("svsim-pool-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Job A: everything the old reuse contract detached by hand. The
        // fault spec never fires; only A may hold the plan.
        let config_a = SimConfig {
            seed: 99,
            checkpoint_every: 2,
            detect_races: true,
            ..SimConfig::scale_out(2)
        };
        let mut a = pool.simulator(3, config_a).unwrap();
        let plan = Arc::new(FaultPlan::new().with(0, PeOp::Get, u64::MAX, FaultAction::Delay(0)));
        a.set_fault_plan(Some(Arc::clone(&plan)));
        a.set_checkpoint_store(Some(CheckpointStore::open(dir.clone()).unwrap()));
        let ran_a = a.run(&c).unwrap();
        assert!(ran_a.checkpoint_bytes > 0 && ran_a.slab_kernels > 0);
        let generations = CheckpointStore::open(dir.clone())
            .unwrap()
            .generations()
            .unwrap();
        pool.checkin(a.into_state());

        // Job B, same width, defaults: indistinguishable from a simulator
        // that never shared anything with A.
        let config_b = SimConfig::scale_out(2);
        let mut b = pool.simulator(3, config_b).unwrap();
        assert_eq!(pool.created.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&plan), 1, "A's fault plan outlived A");
        let mut fresh = Simulator::new(3, config_b).unwrap();
        let (ran_b, ran_fresh) = (b.run(&c).unwrap(), fresh.run(&c).unwrap());
        assert_eq!(b.state().re(), fresh.state().re());
        assert_eq!(b.state().im(), fresh.state().im());
        assert_eq!(ran_b.cbits, ran_fresh.cbits);
        assert_eq!(ran_b.traffic, ran_fresh.traffic);
        assert_eq!(ran_b.checkpoint_bytes, 0);
        assert!(ran_b.races.is_empty());
        assert!(ran_b.slab_kernels > 0 && ran_b.slab_kernels == ran_fresh.slab_kernels);
        assert!(b.checkpoint().is_none() && b.checkpoint_store().is_none());
        assert_eq!(
            CheckpointStore::open(dir.clone())
                .unwrap()
                .generations()
                .unwrap(),
            generations,
            "B wrote into A's store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shelf_is_bounded() {
        let pool = InstancePool::new(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.checkout(2).unwrap()).collect();
        for b in bufs {
            pool.checkin(b);
        }
        assert_eq!(pool.idle(), 2, "excess check-ins must be dropped");
    }

    #[test]
    fn a_buffer_released_by_a_sweep_serves_the_next_one_shot_of_that_width() {
        let pool = InstancePool::new(2);
        // A sweep batch takes a bare buffer and gives it back.
        let buf = pool.checkout(5).unwrap();
        pool.checkin(buf);
        let sim = pool.simulator(5, SimConfig::single_device()).unwrap();
        assert_eq!(sim.n_qubits(), 5);
        assert_eq!(pool.created.load(Ordering::Relaxed), 1);
        assert_eq!(pool.reused.load(Ordering::Relaxed), 1);
    }
}
