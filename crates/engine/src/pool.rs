//! Instance pool: pre-allocated simulators and state buffers reused across
//! jobs.
//!
//! Allocating a `2^n`-amplitude state vector dominates the cost of small
//! jobs, so the engine keeps finished instances keyed by the one thing
//! baked in at construction — the register width — and hands them back
//! out after an in-place [`Simulator::reconfigure`] to the next job's
//! config. The reconfigure contract (indistinguishable from a fresh
//! simulator) is what makes reuse invisible to clients.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use svsim_core::{SimConfig, Simulator, StateVector};
use svsim_types::SvResult;

/// Shared pool of reusable simulators and sweep state buffers, each keyed
/// by register width.
#[derive(Debug)]
pub(crate) struct InstancePool {
    sims: Mutex<HashMap<u32, Vec<Simulator>>>,
    buffers: Mutex<HashMap<u32, Vec<StateVector>>>,
    /// Retained instances per width; excess check-ins are dropped.
    max_per_key: usize,
    pub(crate) created: AtomicU64,
    pub(crate) reused: AtomicU64,
}

impl InstancePool {
    pub(crate) fn new(max_per_key: usize) -> Self {
        Self {
            sims: Mutex::new(HashMap::new()),
            buffers: Mutex::new(HashMap::new()),
            max_per_key: max_per_key.max(1),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// A simulator at `n_qubits` configured exactly as `config`, in
    /// `|0...0>`. Pulled from the pool when possible, constructed
    /// otherwise.
    pub(crate) fn checkout_sim(&self, n_qubits: u32, config: &SimConfig) -> SvResult<Simulator> {
        let pooled = self
            .sims
            .lock()
            .expect("sim pool lock")
            .get_mut(&n_qubits)
            .and_then(Vec::pop);
        if let Some(mut sim) = pooled {
            if let Err(e) = sim.reconfigure(*config) {
                // A refused config leaves the instance as it was: reshelve it.
                self.checkin_sim(sim);
                return Err(e);
            }
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(sim);
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Simulator::new(n_qubits, *config)
    }

    /// Return a simulator for future reuse. Dropped if the width's shelf
    /// is already full.
    pub(crate) fn checkin_sim(&self, sim: Simulator) {
        let mut sims = self.sims.lock().expect("sim pool lock");
        let shelf = sims.entry(sim.n_qubits()).or_default();
        if shelf.len() < self.max_per_key {
            shelf.push(sim);
        }
    }

    /// A `|0...0>`-initialized state buffer of the requested width for
    /// template sweeps.
    pub(crate) fn checkout_buffer(&self, n_qubits: u32) -> SvResult<StateVector> {
        let pooled = self
            .buffers
            .lock()
            .expect("buffer pool lock")
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

    /// Return a sweep buffer for future reuse.
    pub(crate) fn checkin_buffer(&self, buf: StateVector) {
        let mut buffers = self.buffers.lock().expect("buffer pool lock");
        let shelf = buffers.entry(buf.n_qubits()).or_default();
        if shelf.len() < self.max_per_key {
            shelf.push(buf);
        }
    }

    /// Idle instances currently shelved (simulators + buffers).
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        let sims: usize = self
            .sims
            .lock()
            .expect("sim pool lock")
            .values()
            .map(Vec::len)
            .sum();
        let bufs: usize = self
            .buffers
            .lock()
            .expect("buffer pool lock")
            .values()
            .map(Vec::len)
            .sum();
        sims + bufs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::{Circuit, GateKind};

    #[test]
    fn checkout_reuses_and_resets() {
        let pool = InstancePool::new(4);
        let config = SimConfig::single_device().with_seed(7);
        let mut sim = pool.checkout_sim(3, &config).unwrap();
        // Dirty it.
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        sim.run(&c).unwrap();
        pool.checkin_sim(sim);
        assert_eq!(pool.idle(), 1);

        // Same width: must reuse, and must come back pristine.
        let sim2 = pool.checkout_sim(3, &config).unwrap();
        assert_eq!(pool.reused.load(Ordering::Relaxed), 1);
        assert_eq!(sim2.state().re()[0], 1.0);
        assert!(sim2.state().re()[1..].iter().all(|&x| x == 0.0));
        assert!(sim2.state().im().iter().all(|&x| x == 0.0));

        // Different width: a miss.
        let _sim3 = pool.checkout_sim(4, &config).unwrap();
        assert_eq!(pool.created.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pooled_instance_alternates_remapped_and_naive_jobs_cleanly() {
        // Remap is adopted at checkout, so ONE shelved instance must serve
        // remapped and naive jobs in strict alternation with no stale
        // permutation, exchange buffer, or counter leaking across jobs.
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
            let mut config = SimConfig::scale_out(4).with_seed(7);
            if remap {
                config = config.with_remap();
            }
            let mut sim = pool.checkout_sim(4, &config).unwrap();
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
            pool.checkin_sim(sim);
        }
        assert_eq!(
            pool.created.load(Ordering::Relaxed),
            1,
            "one instance must have served every job"
        );
        assert_eq!(pool.reused.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pooled_instance_adopts_every_field_of_the_next_jobs_config() {
        // One shelved instance, checked out under configs that differ in
        // every non-width field: nothing of the previous tenant may
        // survive, or a `fuse` job silently runs unfused (its cached plan
        // fails `CompiledPlan::matches`) and a `detect_races` job reports
        // zero races because the detector never ran.
        use svsim_core::{BackendKind, DispatchMode, ShmemBackend};
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
            let sim = pool.checkout_sim(3, &requested).unwrap();
            assert_eq!(sim.config(), &requested);
            pool.checkin_sim(sim);
        }
        assert_eq!(pool.created.load(Ordering::Relaxed), 1);
        assert_eq!(pool.reused.load(Ordering::Relaxed), 3);

        // A config the width cannot host is refused without losing the
        // shelved instance.
        assert!(pool.checkout_sim(3, &SimConfig::scale_out(16)).is_err());
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn shelf_is_bounded() {
        let pool = InstancePool::new(2);
        let config = SimConfig::single_device();
        let sims: Vec<_> = (0..4)
            .map(|_| pool.checkout_sim(2, &config).unwrap())
            .collect();
        for s in sims {
            pool.checkin_sim(s);
        }
        assert_eq!(pool.idle(), 2, "excess check-ins must be dropped");
    }

    #[test]
    fn buffers_round_trip() {
        let pool = InstancePool::new(2);
        let mut b = pool.checkout_buffer(5).unwrap();
        b.reset_zero();
        pool.checkin_buffer(b);
        let b2 = pool.checkout_buffer(5).unwrap();
        assert_eq!(b2.n_qubits(), 5);
        assert_eq!(pool.reused.load(Ordering::Relaxed), 1);
    }
}
