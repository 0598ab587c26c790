//! The unified `Simulator` facade over all backends.

use crate::checkpoint::{circuit_digest, Checkpoint, CheckpointStore};
use crate::exec::{run_partitioned, run_solo, DispatchMode};
use crate::measure;
use crate::plan::{build_segment, checkpoint_grid, CompiledPlan, TileRun};
use crate::state::StateVector;
use crate::traffic::GateTraffic;
use std::sync::Arc;
use svsim_ir::{Circuit, Op, PauliString};
use svsim_shmem::{FaultAction, FaultPlan, RaceReport, ShmemBackend, TrafficSnapshot};
use svsim_types::{Complex64, SvError, SvResult, SvRng};

/// Which execution backend runs the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One device, sequential kernels (§3.2.1).
    SingleDevice,
    /// One process, `n` device partitions over peer access (§3.2.2).
    ScaleUp {
        /// Number of device partitions (power of two).
        n_devices: usize,
    },
    /// SPMD SHMEM PEs, one partition each (§3.2.3).
    ScaleOut {
        /// Number of PEs (power of two).
        n_pes: usize,
    },
}

impl BackendKind {
    /// Workers the state is partitioned across (1 on a single device).
    #[must_use]
    pub fn n_workers(&self) -> usize {
        match *self {
            Self::SingleDevice => 1,
            Self::ScaleUp { n_devices: w } | Self::ScaleOut { n_pes: w } => w,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Backend selection.
    pub backend: BackendKind,
    /// Gate dispatch strategy.
    pub dispatch: DispatchMode,
    /// Specialized per-gate kernels (`true`, the SV-Sim design) or
    /// generalized dense-matrix application (`false`, the Aer/qsim scheme).
    pub specialized: bool,
    /// RNG seed for measurement and sampling.
    pub seed: u64,
    /// Checkpoint the amplitudes every this many circuit ops (0 disables
    /// checkpointing). A checkpointed run executes in segments and keeps
    /// the last good [`Checkpoint`], where [`RunStart::LastCheckpoint`]
    /// resumes.
    pub checkpoint_every: u32,
    /// Run partitioned launches (scale-up and scale-out) under the dynamic
    /// race detector: every access to the state is recorded against
    /// epoch-scoped shadow state and protocol violations surface as
    /// [`RunSummary::races`] instead of silent corruption. Requires thread
    /// PEs. No effect on a single device.
    pub detect_races: bool,
    /// Communication-avoiding qubit relabeling for scale-out: maintain a
    /// logical→physical qubit permutation, hoist gates on partition-index
    /// qubits into the PE-local range via bulk exchange epochs, and
    /// un-permute the state at readback. Results stay bit-identical to the
    /// naive path; remote word traffic drops by orders of magnitude on
    /// deep circuits. No effect on the other backends.
    pub remap: bool,
    /// SHMEM world substrate for scale-out: thread-backed PEs (the
    /// default) or process-backed PEs forked over a `memfd` symmetric heap
    /// ([`ShmemBackend::Process`]) with true crash isolation. Results are
    /// bit-identical across the two; the race detector requires the thread
    /// backend. No effect on the other backends.
    pub shmem_backend: ShmemBackend,
    /// In-place respawn budget for the process backend's supervisor: when a
    /// PE dies or hangs, re-fork only that PE and re-run the round on the
    /// surviving processes, up to this many recovery rounds (0 disables —
    /// failures surface as typed errors immediately). No effect on the
    /// thread backend.
    pub respawn_max: u32,
    /// Watchdog deadline for the process backend's supervisor: a PE whose
    /// heartbeat words stall this long is killed and reported as
    /// `SvError::PeHung`. No effect on the thread backend.
    pub hang_deadline_ms: u32,
    /// Accepted and ignored: every value lowers the one plan 0 lowers. The
    /// simulator has no gate fusion (tile runs give gates their shared pass
    /// over cache-resident memory); the field is kept only because the
    /// frozen benchmark (`benchmark/src/api.rs`) sets it, and it goes in the
    /// next change allowed to edit `benchmark/`.
    pub fuse: u8,
}

impl SimConfig {
    /// Single device, fn-pointer dispatch, specialized kernels.
    #[must_use]
    pub const fn single_device() -> Self {
        Self {
            backend: BackendKind::SingleDevice,
            dispatch: DispatchMode::PreloadedFnPointer,
            specialized: true,
            seed: 0xC0FFEE,
            checkpoint_every: 0,
            detect_races: false,
            remap: false,
            shmem_backend: ShmemBackend::Thread,
            respawn_max: 0,
            hang_deadline_ms: 30_000,
            fuse: 0,
        }
    }

    /// Scale-up over `n_devices` peer-accessed partitions.
    #[must_use]
    pub fn scale_up(n_devices: usize) -> Self {
        Self {
            backend: BackendKind::ScaleUp { n_devices },
            ..Self::single_device()
        }
    }

    /// Scale-out over `n_pes` SHMEM PEs.
    #[must_use]
    pub fn scale_out(n_pes: usize) -> Self {
        Self {
            backend: BackendKind::ScaleOut { n_pes },
            ..Self::single_device()
        }
    }

    /// Whether an `n_qubits` register can run under this configuration: its
    /// `2^n_qubits` amplitudes must be countable in a `u64` (at most 63
    /// qubits), and a distributed backend's worker count must be a nonzero
    /// power of two no larger than the amplitude count.
    ///
    /// # Errors
    /// [`SvError::InvalidConfig`] naming the offending width or worker count.
    pub fn check_width(&self, n_qubits: u32) -> SvResult<()> {
        if n_qubits > svsim_types::MAX_QUBITS {
            return Err(SvError::InvalidConfig(format!(
                "a {n_qubits}-qubit register has more than 2^{} amplitudes",
                svsim_types::MAX_QUBITS
            )));
        }
        let w = self.backend.n_workers();
        if w == 0 || !w.is_power_of_two() {
            return Err(SvError::InvalidConfig(format!(
                "worker count {w} must be a nonzero power of two"
            )));
        }
        if (w as u64) > (1u64 << n_qubits) {
            return Err(SvError::InvalidConfig(format!(
                "worker count {w} exceeds 2^{n_qubits} amplitudes"
            )));
        }
        Ok(())
    }
}

/// Where [`Simulator::run_from`] starts executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStart {
    /// Op 0, against the state as it stands.
    Fresh,
    /// The resume point of a retried run, the first of these that exists:
    /// the in-memory checkpoint, if it verifies; else the attached
    /// [`CheckpointStore`]'s newest loadable generation
    /// ([`CheckpointStore::load_latest`], which falls back over corrupt
    /// ones); else op 0 of a fresh simulator (`|0...0>`, classical register
    /// 0, RNG rewound to [`SimConfig::seed`], store and fault plan still
    /// attached). A checkpoint or generation of another circuit is passed
    /// over like a corrupt one.
    LastCheckpoint,
}

/// Outcome summary of one circuit execution.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Gates executed (after compound composition).
    pub gates: usize,
    /// Classical register contents after the run.
    pub cbits: u64,
    /// Measured per-worker communication traffic (empty for single device).
    pub traffic: Vec<TrafficSnapshot>,
    /// Bytes captured into checkpoints during this run (0 when
    /// checkpointing is disabled).
    pub checkpoint_bytes: u64,
    /// Access-protocol violations recorded by the dynamic race detector
    /// (always empty unless [`SimConfig::detect_races`] is set; a
    /// conflict-free protocol keeps it empty even then).
    pub races: Vec<RaceReport>,
    /// Relabeling exchange epochs executed (0 unless [`SimConfig::remap`]
    /// is set on the scale-out backend and the circuit crossed partitions).
    pub remap_swaps: usize,
    /// In-place PE respawns the process backend's supervisor performed
    /// during this run (0 elsewhere or when [`SimConfig::respawn_max`] is
    /// 0).
    pub respawns: usize,
    /// Kernels PE 0 ran on its own slab as plain memory rather than through
    /// the backend's view (every PE decides alike, so PE 0 speaks for all),
    /// summed over segments; the others borrowed their runs from the owning
    /// partitions. 0 on a single device. The race detector and fault plans
    /// change nothing here: they observe the same walk.
    pub slab_kernels: usize,
    /// Tile runs of the segments executed: maximal runs of two or more
    /// consecutive tile-local kernels, which the lowering groups under one
    /// barrier and a walker sweeps tile by tile over its own memory, one
    /// pass per run instead of one per kernel. Runs are lowered at the
    /// widest of [`crate::traffic::TILE_QUBITS`] narrower than a walker's
    /// own memory: 2^15 amplitudes where that memory is wider, else 2^11 (a
    /// 2-PE slab of 16 qubits). Summed over segments; 0 when a walker's
    /// memory is no wider than 2^11 amplitudes and under
    /// [`DispatchMode::RuntimeParse`].
    pub tile_runs: usize,
    /// Kernels inside those tile runs.
    pub tiled_kernels: usize,
    /// Sub-runs of those tile runs one level down: maximal stretches of two
    /// or more kernels that fit the inner, L1-sized tile width of
    /// [`crate::traffic::TILE_QUBITS`], each swept sub-tile by sub-tile over
    /// every tile of its run. Counted once per tile run, like `tile_runs`;
    /// 0 where the runs themselves are at the inner width.
    pub inner_tile_runs: usize,
    /// Kernels that ran inside those sub-runs.
    pub inner_tiled_kernels: usize,
    /// Zero tiles the walkers skipped, of two kinds. Each tile and sub-tile
    /// sweep of a run that was skipped counts one: a tile whose words were
    /// all `+0.0` when a run reached it, where every kernel of the run maps
    /// `+0.0` to `+0.0` bit for bit, leaves the run as it entered. And each
    /// finest tile (2^11 amplitudes, the innermost tile width) that a kernel
    /// left alone counts one: a kernel that maps
    /// `+0.0` to `+0.0` skips each group of tiles its footprint pairs that
    /// the walker knows all `+0.0`, inside a run or outside any. Summed over
    /// segments and walkers (PEs skip different tiles). The traffic counters
    /// still credit every kernel in full. 0 when `tile_runs` is.
    pub zero_tiles: usize,
}

impl RunSummary {
    /// The summary of a run of `gates` gates that has executed nothing yet
    /// and starts from the classical register `cbits`.
    pub(crate) fn new(gates: usize, cbits: u64) -> Self {
        Self {
            gates,
            cbits,
            ..Self::default()
        }
    }

    /// Aggregate traffic over all workers.
    #[must_use]
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.traffic
            .iter()
            .fold(TrafficSnapshot::default(), |acc, t| acc.merged(t))
    }

    /// Add one segment's tile runs and their sub-runs, and the kernels in
    /// them.
    pub(crate) fn absorb_tiles(&mut self, runs: &[TileRun]) {
        for run in runs {
            self.tile_runs += 1;
            self.tiled_kernels += run.kernels.len();
            self.inner_tile_runs += run.inner.len();
            self.inner_tiled_kernels += run.inner.iter().map(|s| s.kernels.len()).sum::<usize>();
        }
    }

    /// Merge one segment's per-worker traffic into the run's (element-wise
    /// by worker rank; a distributed backend reports the same worker count
    /// every segment).
    pub(crate) fn absorb_traffic(&mut self, segment: Vec<TrafficSnapshot>) {
        if self.traffic.is_empty() {
            self.traffic = segment;
        } else {
            for (a, s) in self.traffic.iter_mut().zip(segment) {
                *a = a.merged(&s);
            }
        }
    }
}

/// The SV-Sim simulator: a state vector plus an execution backend.
#[derive(Debug)]
pub struct Simulator {
    state: StateVector,
    config: SimConfig,
    rng: SvRng,
    cbits: u64,
    /// Injected-fault schedule threaded into every partitioned launch.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Last good checkpoint of the current/most recent run.
    checkpoint: Option<Checkpoint>,
    /// Crash-consistent on-disk store: when attached, every captured
    /// checkpoint is also persisted as a new generation, and
    /// [`RunStart::LastCheckpoint`] reloads the newest one when the
    /// in-memory copy is lost.
    store: Option<CheckpointStore>,
}

impl Simulator {
    /// Fresh simulator in `|0...0>`.
    ///
    /// # Errors
    /// Invalid register width or worker configuration.
    pub fn new(n_qubits: u32, config: SimConfig) -> SvResult<Self> {
        Self::from_state(StateVector::zero_state(n_qubits)?, config)
    }

    /// A simulator around an existing state buffer — the allocation is the
    /// only thing a simulator can inherit. Given a `|0...0>` buffer the
    /// result is indistinguishable from [`Self::new`] at the buffer's
    /// width; [`Self::into_state`] hands the buffer back.
    ///
    /// # Errors
    /// Invalid worker configuration for the buffer's width
    /// ([`SimConfig::check_width`]); the buffer is dropped.
    pub fn from_state(state: StateVector, config: SimConfig) -> SvResult<Self> {
        config.check_width(state.n_qubits())?;
        Ok(Self {
            state,
            rng: SvRng::seed_from_u64(config.seed),
            config,
            cbits: 0,
            fault_plan: None,
            checkpoint: None,
            store: None,
        })
    }

    /// Give up the simulator for its state buffer; the configuration, RNG,
    /// classical register, fault plan, checkpoint and store die here.
    #[must_use]
    pub fn into_state(self) -> StateVector {
        self.state
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> u32 {
        self.state.n_qubits()
    }

    /// Active configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn validate(&self, circuit: &Circuit) -> SvResult<()> {
        if circuit.n_qubits() > self.state.n_qubits() {
            return Err(SvError::InvalidConfig(format!(
                "circuit uses {} qubits, simulator has {}",
                circuit.n_qubits(),
                self.state.n_qubits()
            )));
        }
        if circuit.n_cbits() > 64 {
            return Err(SvError::InvalidConfig(
                "at most 64 classical bits are supported".into(),
            ));
        }
        Ok(())
    }

    /// Execute a circuit against the current state.
    ///
    /// With `checkpoint_every > 0` the circuit runs in segments of that
    /// many ops, capturing a [`Checkpoint`] after each; a failed segment
    /// (e.g. an injected PE death) leaves the state untouched at its
    /// pre-segment contents so [`Self::run_from`] at
    /// [`RunStart::LastCheckpoint`] can pick up bit-identically from the
    /// last good checkpoint.
    ///
    /// # Errors
    /// Width mismatch, classical-register overflow, numeric failures, or a
    /// worker failure on a partitioned backend.
    pub fn run(&mut self, circuit: &Circuit) -> SvResult<RunSummary> {
        self.run_from(circuit, None, RunStart::Fresh)
    }

    /// Execute `circuit` from `start`, optionally driven by a precompiled
    /// [`CompiledPlan`] that skips the per-run lowering (circuit
    /// elaboration, kernel specialization, remap planning).
    ///
    /// Results are bit-identical with and without a plan; a plan whose
    /// shape does not [`CompiledPlan::matches`] this simulator/config is
    /// ignored and each segment is lowered right before it executes —
    /// correctness never depends on the cache. Plan segmentation follows
    /// the same fixed checkpoint grid as execution, so a resumed run
    /// resolves its remaining segments directly from the plan.
    ///
    /// From [`RunStart::LastCheckpoint`] the run starts at the first of: the
    /// in-memory checkpoint, if it verifies; the attached store's newest
    /// loadable generation; op 0 of a fresh simulator. This is the one
    /// resume rule — a retry passes it whatever the failure lost. Only a
    /// checkpoint of `circuit` (by [`circuit_digest`]) is a resume point, so
    /// the completed run is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    /// As [`Self::run`].
    pub fn run_from(
        &mut self,
        circuit: &Circuit,
        plan: Option<&CompiledPlan>,
        start: RunStart,
    ) -> SvResult<RunSummary> {
        self.validate(circuit)?;
        // Digested at most once: a resume looks the circuit's checkpoint up
        // by it, and every checkpoint the run captures is named by it.
        let resuming = matches!(start, RunStart::LastCheckpoint);
        let checkpointing = self.config.checkpoint_every > 0;
        let digest = (resuming || checkpointing).then(|| circuit_digest(circuit));
        let (start_op, cbits) = match digest.filter(|_| resuming) {
            Some(digest) => (self.resume(digest), self.cbits),
            None => (0, 0),
        };
        let plan = plan.filter(|p| p.matches(circuit, self.state.n_qubits(), &self.config));
        self.run_segments(
            circuit,
            start_op,
            cbits,
            plan,
            digest.filter(|_| checkpointing),
        )
    }

    /// Execute `ops[range]` as one backend dispatch, accumulating into
    /// `summary` (whose `cbits` is the segment's initial classical
    /// register). This is the one place a segment is resolved: the plan's
    /// precompiled lowering of exactly this range, or [`build_segment`]
    /// right here.
    fn exec_segment(
        &mut self,
        ops: &[Op],
        range: std::ops::Range<usize>,
        plan: Option<&CompiledPlan>,
        summary: &mut RunSummary,
    ) -> SvResult<()> {
        let config = self.config;
        let owned;
        let seg = match plan.and_then(|p| p.segment(range.start, range.end)) {
            Some(seg) => seg,
            None => {
                let n = self.state.n_qubits();
                owned = build_segment(ops, range.start, range.end, n, &config);
                &owned
            }
        };
        // The segment's measurement draws, taken up front in step order so
        // every backend consumes the RNG identically.
        let randoms: Vec<f64> = (0..seg.n_rand).map(|_| self.rng.next_f64()).collect();
        let state = &mut self.state;
        match config.backend {
            BackendKind::SingleDevice => {
                let (cbits, zero_tiles) = run_solo(state, seg, &config, &randoms, summary.cbits)?;
                summary.cbits = cbits;
                summary.zero_tiles += zero_tiles;
            }
            BackendKind::ScaleUp { .. } | BackendKind::ScaleOut { .. } => {
                let faults = self.fault_plan.clone();
                run_partitioned(state, seg, &config, &randoms, faults, summary)?;
            }
        }
        summary.absorb_tiles(&seg.runs);
        Ok(())
    }

    /// Execute `circuit.ops()[start_op..]` segment by segment along the
    /// [`checkpoint_grid`] (one segment when checkpointing is off),
    /// capturing a checkpoint after each, named by `digest` (the
    /// circuit's [`circuit_digest`]; `Some` exactly when checkpointing is
    /// on).
    fn run_segments(
        &mut self,
        circuit: &Circuit,
        start_op: usize,
        initial_cbits: u64,
        plan: Option<&CompiledPlan>,
        digest: Option<u64>,
    ) -> SvResult<RunSummary> {
        let ops = circuit.ops();
        let k = self.config.checkpoint_every;
        let mut summary = RunSummary::new(circuit.gates().count(), initial_cbits);
        match digest {
            None => self.checkpoint = None,
            Some(digest) => self.capture_checkpoint(digest, start_op, &mut summary)?,
        }
        for segment in checkpoint_grid(start_op, ops.len(), k) {
            let end = segment.end;
            self.exec_segment(ops, segment, plan, &mut summary)?;
            if let Some(digest) = digest {
                self.capture_checkpoint(digest, end, &mut summary)?;
            }
        }
        self.cbits = summary.cbits;
        Ok(summary)
    }

    /// Capture the state at `op_index` of the circuit whose digest is
    /// `circuit` as the last good checkpoint, persisting it first when a
    /// store is attached.
    fn capture_checkpoint(
        &mut self,
        circuit: u64,
        op_index: usize,
        summary: &mut RunSummary,
    ) -> SvResult<()> {
        let cp = Checkpoint::capture(circuit, op_index, summary.cbits, &self.rng, &self.state);
        summary.checkpoint_bytes += cp.bytes();
        self.persist_checkpoint(&cp)?;
        self.checkpoint = Some(cp);
        Ok(())
    }

    /// Persist one captured checkpoint into the attached store (no-op when
    /// no store is attached). An armed `PeOp::Checkpoint` +
    /// [`FaultAction::TornCheckpoint`] spec in the fault plan makes the
    /// write crash mid-rename — half the bytes land at the final path, the
    /// in-memory checkpoint is dropped (the "process" died before it was
    /// adopted), and the run surfaces a typed [`SvError::Checkpoint`], so a
    /// retry at [`RunStart::LastCheckpoint`] resumes from the store's
    /// previous generation.
    fn persist_checkpoint(&mut self, cp: &Checkpoint) -> SvResult<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let torn = matches!(
            self.fault_plan
                .as_ref()
                .and_then(|p| p.check(0, svsim_types::PeOp::Checkpoint)),
            Some(FaultAction::TornCheckpoint)
        );
        if torn {
            store.save_torn(cp)?;
            self.checkpoint = None;
            return Err(SvError::Checkpoint(format!(
                "torn write: crashed while persisting the generation at op {}",
                cp.op_index()
            )));
        }
        store.save(cp)?;
        Ok(())
    }

    /// Rewind to the resume point of [`RunStart::LastCheckpoint`] for the
    /// circuit whose digest is `circuit` and return the op index it lies at.
    fn resume(&mut self, circuit: u64) -> usize {
        self.checkpoint = self.checkpoint.take().filter(|cp| cp.circuit() == circuit);
        if let Ok(op_index) = self.restore() {
            return op_index;
        }
        let stored = self
            .store
            .as_ref()
            .and_then(|s| s.load_latest(circuit).ok().flatten());
        if let Some((_generation, cp)) = stored {
            self.checkpoint = Some(cp);
            if let Ok(op_index) = self.restore() {
                return op_index;
            }
        }
        self.reset_state();
        self.rng = SvRng::seed_from_u64(self.config.seed);
        0
    }

    /// Rewind state, classical bits and RNG to the last good checkpoint
    /// after verifying its checksum; returns the op index to resume from.
    ///
    /// # Errors
    /// No checkpoint exists, the checksum does not match (corruption), or
    /// the dimensions disagree.
    fn restore(&mut self) -> SvResult<usize> {
        let cp = self.checkpoint.take().ok_or_else(|| {
            SvError::InvalidConfig(
                "no checkpoint to restore from (run with checkpoint_every > 0 first)".into(),
            )
        })?;
        let outcome = cp
            .verify()
            .and_then(|()| cp.restore_into(&mut self.state, &mut self.cbits, &mut self.rng));
        let op_index = cp.op_index();
        self.checkpoint = Some(cp);
        outcome.map(|()| op_index)
    }

    /// Compile `circuit` into a [`CompiledPlan`] for this simulator's
    /// shape and configuration, executable later via [`Self::run_from`]
    /// (and cacheable across runs).
    #[must_use]
    pub fn compile_plan(&self, circuit: &Circuit) -> CompiledPlan {
        CompiledPlan::compile(circuit, self.state.n_qubits(), &self.config)
    }

    /// Predict the communication traffic of a circuit under this
    /// simulator's configuration without running it: the plan
    /// [`Self::run`] would execute, priced by
    /// [`CompiledPlan::predict_traffic`].
    #[must_use]
    pub fn predict_traffic(&self, circuit: &Circuit) -> GateTraffic {
        self.compile_plan(circuit)
            .predict_traffic(self.config.backend.n_workers() as u64)
    }

    /// Reset to `|0...0>` and clear classical bits. Reinitializes the
    /// existing state vector in place — no reallocation. Drops any
    /// checkpoint (it no longer describes the state).
    fn reset_state(&mut self) {
        self.state.reset_zero();
        self.cbits = 0;
        self.checkpoint = None;
    }

    /// Full reinit-in-place: `|0...0>`, cleared classical register, and the
    /// RNG rewound to the configured seed. A reset simulator is
    /// indistinguishable from `Simulator::new` with the same config but
    /// keeps its state-vector allocation.
    pub fn reset(&mut self) {
        self.reset_state();
        self.rng = SvRng::seed_from_u64(self.config.seed);
        self.fault_plan = None;
        self.store = None;
    }

    /// Attach (or clear) an injected-fault schedule; threaded into every
    /// scale-up and scale-out launch this simulator performs.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault_plan = plan;
    }

    /// The last good checkpoint, if one exists.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Attach (or detach) a crash-consistent on-disk checkpoint store.
    /// While attached, every captured checkpoint is also written as a new
    /// store generation (write-temp + fsync + atomic rename).
    pub fn set_checkpoint_store(&mut self, store: Option<CheckpointStore>) {
        self.store = store;
    }

    /// The attached checkpoint store, if any.
    #[must_use]
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Re-partition the simulator across `backend`'s workers in place
    /// (the degradation ladder's step to half the PEs). The state buffer,
    /// checkpoint, store, fault plan, RNG and classical register stay:
    /// checkpoints are full global state, PE-count independent, so
    /// [`RunStart::LastCheckpoint`] resumes on the new partitioning
    /// bit-identically.
    ///
    /// # Errors
    /// The register width cannot be partitioned across `backend`
    /// ([`SimConfig::check_width`]); the simulator is left as it was.
    pub fn repartition(&mut self, backend: BackendKind) -> SvResult<()> {
        let config = SimConfig {
            backend,
            ..self.config
        };
        config.check_width(self.state.n_qubits())?;
        self.config = config;
        Ok(())
    }

    /// [`Digest`](crate::checkpoint::Digest) of the current amplitudes
    /// (bit-identity fingerprint).
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        crate::checkpoint::state_checksum(&self.state)
    }

    /// Current state vector.
    #[must_use]
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// Amplitudes as complex numbers.
    #[must_use]
    pub fn amplitudes(&self) -> Vec<Complex64> {
        self.state.to_complex()
    }

    /// Probability of every basis state.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.state.probabilities()
    }

    /// Classical bits from the last run.
    #[must_use]
    pub fn cbits(&self) -> u64 {
        self.cbits
    }

    /// Sample `shots` basis outcomes from the current state.
    #[must_use]
    pub fn sample(&mut self, shots: usize) -> Vec<u64> {
        measure::sample_shots(self.state.probabilities(), &mut self.rng, shots)
    }

    /// Execute a circuit `shots` times from `|0...0>`, histogramming the
    /// classical register. This is the right entry point for circuits with
    /// mid-circuit measurement or conditionals, where each shot collapses
    /// differently; for purely unitary circuits prefer one `run` plus
    /// [`Self::sample`].
    ///
    /// # Errors
    /// As [`Self::run`].
    pub fn run_shots(
        &mut self,
        circuit: &Circuit,
        shots: usize,
    ) -> SvResult<std::collections::BTreeMap<u64, usize>> {
        let mut hist = std::collections::BTreeMap::new();
        for _ in 0..shots {
            self.reset_state();
            let summary = self.run(circuit)?;
            *hist.entry(summary.cbits).or_insert(0) += 1;
        }
        Ok(hist)
    }

    /// `<P>` expectation of a Pauli string on the current state, in one
    /// read-only pass ([`measure::expval_pauli`]). A factor on a qubit at
    /// or above the register width acts on `|0>`: a Z there is a factor of
    /// `+1`, and an X or Y there makes the value `0.0`.
    #[must_use]
    pub fn expval_pauli(&self, string: &PauliString) -> f64 {
        measure::expval_pauli(&self.state, string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::GateKind;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        for q in 0..n - 1 {
            c.apply(GateKind::CX, &[q, q + 1], &[]).unwrap();
        }
        c
    }

    #[test]
    fn ghz_on_all_backends() {
        for config in [
            SimConfig::single_device(),
            SimConfig::scale_up(2),
            SimConfig::scale_up(4),
            SimConfig::scale_out(2),
            SimConfig::scale_out(4),
        ] {
            let mut sim = Simulator::new(4, config).unwrap();
            sim.run(&ghz(4)).unwrap();
            let p = sim.probabilities();
            assert!((p[0] - 0.5).abs() < 1e-12, "{config:?}");
            assert!((p[15] - 0.5).abs() < 1e-12, "{config:?}");
            assert!((sim.state().norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn backends_agree_exactly() {
        let c = ghz(5);
        let mut reference = Simulator::new(5, SimConfig::single_device()).unwrap();
        reference.run(&c).unwrap();
        for config in [
            SimConfig::scale_up(4),
            SimConfig::scale_out(8),
            SimConfig {
                dispatch: DispatchMode::RuntimeParse,
                ..SimConfig::single_device()
            },
            SimConfig {
                specialized: false,
                ..SimConfig::single_device()
            },
        ] {
            let mut sim = Simulator::new(5, config).unwrap();
            sim.run(&c).unwrap();
            assert!(
                sim.state().max_diff(reference.state()) < 1e-12,
                "{config:?} diverged"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Simulator::new(4, SimConfig::scale_up(3)).is_err());
        assert!(Simulator::new(4, SimConfig::scale_out(0)).is_err());
        assert!(Simulator::new(2, SimConfig::scale_out(8)).is_err());
        // 2^64 amplitudes and more are not countable: refused before any
        // shift wraps (a 100-qubit register once priced below a 40-qubit one).
        for n in [64, 100, u32::MAX] {
            let err = SimConfig::scale_up(2).check_width(n).unwrap_err();
            assert!(err.to_string().contains(&format!("a {n}-qubit register")));
        }
        assert!(SimConfig::single_device().check_width(63).is_ok());
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut sim = Simulator::new(3, SimConfig::single_device()).unwrap();
        assert!(sim.run(&ghz(4)).is_err());
    }

    #[test]
    fn measurement_collapses_ghz() {
        let mut c = ghz(3);
        let mut with_measure = Circuit::with_cbits(3, 3);
        with_measure.extend(&c).unwrap();
        for q in 0..3 {
            with_measure.measure(q, q).unwrap();
        }
        c = with_measure;
        for config in [
            SimConfig::single_device(),
            SimConfig::scale_up(2),
            SimConfig::scale_out(4),
        ] {
            let mut sim = Simulator::new(3, SimConfig { seed: 7, ..config }).unwrap();
            let summary = sim.run(&c).unwrap();
            // GHZ measurement is perfectly correlated: all zeros or all ones.
            assert!(
                summary.cbits == 0 || summary.cbits == 0b111,
                "cbits = {:b}",
                summary.cbits
            );
            let p = sim.probabilities();
            let idx = summary.cbits as usize;
            assert!((p[idx] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn same_seed_same_outcomes_across_backends() {
        let mut c = Circuit::with_cbits(2, 2);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::H, &[1], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c.measure(1, 1).unwrap();
        let mut outcomes = Vec::new();
        for config in [
            SimConfig::single_device(),
            SimConfig::scale_up(2),
            SimConfig::scale_out(2),
        ] {
            let mut sim = Simulator::new(2, SimConfig { seed: 99, ..config }).unwrap();
            outcomes.push(sim.run(&c).unwrap().cbits);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[1], outcomes[2]);
    }

    #[test]
    fn conditional_gate_teleportation_style() {
        // Prepare |1> on q0, entangle q1,q2, teleport q0 -> q2 with
        // measurement + classically-controlled corrections.
        let mut c = Circuit::with_cbits(3, 2);
        c.apply(GateKind::X, &[0], &[]).unwrap(); // payload |1>
        c.apply(GateKind::H, &[1], &[]).unwrap();
        c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c.measure(1, 1).unwrap();
        // Corrections: X on q2 if c1 == 1; Z on q2 if c0 == 1.
        c.if_eq(
            1,
            1,
            1,
            svsim_ir::Gate::new(GateKind::X, &[2], &[]).unwrap(),
        )
        .unwrap();
        c.if_eq(
            0,
            1,
            1,
            svsim_ir::Gate::new(GateKind::Z, &[2], &[]).unwrap(),
        )
        .unwrap();
        for config in [
            SimConfig::single_device(),
            SimConfig::scale_up(2),
            SimConfig::scale_out(2),
        ] {
            for seed in 0..6 {
                let mut sim = Simulator::new(3, SimConfig { seed, ..config }).unwrap();
                sim.run(&c).unwrap();
                // q2 must now be |1> regardless of the measured syndrome.
                let p1 = crate::measure::prob_one(sim.state(), 2);
                assert!((p1 - 1.0).abs() < 1e-9, "{config:?} seed {seed}: p1={p1}");
            }
        }
    }

    #[test]
    fn reset_simulator_is_bit_identical_to_fresh() {
        // A circuit with measurement exercises the RNG stream, so this
        // proves reset() rewinds state, cbits, AND randomness.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        for config in [
            SimConfig {
                seed: 11,
                ..SimConfig::single_device()
            },
            SimConfig {
                seed: 11,
                ..SimConfig::scale_up(2)
            },
            SimConfig {
                seed: 11,
                ..SimConfig::scale_out(4)
            },
        ] {
            let mut fresh = Simulator::new(4, config).unwrap();
            let fresh_summary = fresh.run(&c).unwrap();

            let mut reused = Simulator::new(4, config).unwrap();
            // Dirty every piece of per-run state first.
            reused.run(&ghz(4)).unwrap();
            reused.run(&c).unwrap();
            reused.reset();
            let summary = reused.run(&c).unwrap();

            assert_eq!(summary.cbits, fresh_summary.cbits, "{config:?}");
            assert_eq!(
                reused.state().re(),
                fresh.state().re(),
                "{config:?} re parts must be bit-identical"
            );
            assert_eq!(
                reused.state().im(),
                fresh.state().im(),
                "{config:?} im parts must be bit-identical"
            );
        }
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain_run() {
        // Measurement exercises the RNG stream across segment boundaries,
        // so this proves the checkpoint carries cbits AND randomness.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        for base in [
            SimConfig {
                seed: 23,
                ..SimConfig::single_device()
            },
            SimConfig {
                seed: 23,
                ..SimConfig::scale_up(2)
            },
            SimConfig {
                seed: 23,
                ..SimConfig::scale_out(2)
            },
        ] {
            let mut plain = Simulator::new(4, base).unwrap();
            let plain_summary = plain.run(&c).unwrap();
            assert_eq!(plain_summary.checkpoint_bytes, 0);
            assert!(plain.checkpoint().is_none());
            for k in [1, 2, 3, 64] {
                let mut seg = Simulator::new(
                    4,
                    SimConfig {
                        checkpoint_every: k,
                        ..base
                    },
                )
                .unwrap();
                let summary = seg.run(&c).unwrap();
                assert_eq!(summary.cbits, plain_summary.cbits, "{base:?} k={k}");
                assert_eq!(seg.state().re(), plain.state().re(), "{base:?} k={k}");
                assert_eq!(seg.state().im(), plain.state().im(), "{base:?} k={k}");
                assert_eq!(
                    summary.total_traffic().remote_ops(),
                    plain_summary.total_traffic().remote_ops(),
                    "{base:?} k={k}: segment traffic must merge losslessly"
                );
                assert!(summary.checkpoint_bytes > 0);
                let cp = seg.checkpoint().expect("final checkpoint kept");
                assert_eq!(cp.op_index(), c.ops().len());
                cp.verify().unwrap();
            }
        }
    }

    #[test]
    fn restore_rewinds_to_last_checkpoint() {
        let c = ghz(3);
        let config = SimConfig {
            checkpoint_every: 2,
            ..SimConfig::single_device()
        };
        let mut sim = Simulator::new(3, config).unwrap();
        sim.run(&c).unwrap();
        let want_re = sim.state().re().to_vec();
        let want_im = sim.state().im().to_vec();
        let checksum = sim.state_checksum();

        // Clobber the live state, then restore.
        let garbage: Vec<Complex64> = (0..8)
            .map(|i| {
                if i == 0 {
                    Complex64::new(1.0, 0.0)
                } else {
                    Complex64::new(0.0, 0.0)
                }
            })
            .collect();
        sim.state.set_complex(&garbage).unwrap();
        assert_ne!(sim.state_checksum(), checksum);
        let op_index = sim.restore().unwrap();
        assert_eq!(op_index, c.ops().len());
        assert_eq!(sim.state().re(), &want_re[..]);
        assert_eq!(sim.state().im(), &want_im[..]);
        assert_eq!(sim.state_checksum(), checksum);
        // Resuming from the end is a no-op run.
        let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
        assert_eq!(sim.state_checksum(), checksum);
        assert_eq!(summary.gates, c.gates().count());
    }

    #[test]
    fn restore_without_checkpoint_fails() {
        let mut sim = Simulator::new(2, SimConfig::single_device()).unwrap();
        assert!(sim.restore().is_err());
        sim.run(&ghz(2)).unwrap(); // checkpointing disabled
        assert!(sim.restore().is_err());
    }

    #[test]
    fn resume_without_a_checkpoint_reruns_from_op_0() {
        // Measurement and sampling draw from the RNG (the state stays spread
        // over 8 outcomes), so a resume that did not rewind it to the seed
        // would collapse or sample differently from a fresh run.
        let mut c = Circuit::with_cbits(4, 1);
        for q in 0..4 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.measure(0, 0).unwrap();
        let config = SimConfig {
            seed: 11,
            ..SimConfig::scale_out(2)
        };
        let mut fresh = Simulator::new(4, config).unwrap();
        let want = fresh.run(&c).unwrap();
        let want_samples = fresh.sample(32);
        let plan = Arc::new(FaultPlan::new());
        let mut sim = Simulator::new(4, config).unwrap();
        sim.set_fault_plan(Some(Arc::clone(&plan)));
        // Each round's sampling advances the RNG the next resume rewinds.
        for round in 0..3 {
            let got = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
            assert_eq!(got.cbits, want.cbits, "round {round}");
            assert_eq!(sim.state().re(), fresh.state().re(), "round {round}");
            assert_eq!(sim.state().im(), fresh.state().im(), "round {round}");
            assert_eq!(sim.sample(32), want_samples, "round {round}");
        }
        assert!(sim.checkpoint().is_none());
        assert!(
            sim.fault_plan
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, &plan)),
            "the fault plan stays attached"
        );
    }

    /// A store that still holds another circuit's generations of the same
    /// width is no resume point: circuit B resumed on circuit A's store
    /// starts over at op 0 and ends where B's own run ends.
    #[test]
    fn resume_passes_over_another_circuits_generations() {
        struct Dir(std::path::PathBuf);
        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = Dir(std::env::temp_dir().join(format!("svsim-foreign-{}", std::process::id())));
        let config = SimConfig {
            checkpoint_every: 2,
            ..SimConfig::single_device()
        };
        let a = ghz(3);
        let mut b = Circuit::new(3);
        b.apply(GateKind::X, &[0], &[]).unwrap();
        b.apply(GateKind::H, &[1], &[]).unwrap();
        b.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        b.apply(GateKind::RY, &[0], &[0.3]).unwrap();
        b.apply(GateKind::H, &[2], &[]).unwrap();
        let mut want = Simulator::new(3, config).unwrap();
        want.run(&b).unwrap();

        let mut sim_a = Simulator::new(3, config).unwrap();
        sim_a.set_checkpoint_store(Some(CheckpointStore::open(&dir.0).unwrap()));
        sim_a.run(&a).unwrap();
        let mut sim_b = Simulator::new(3, config).unwrap();
        sim_b.set_checkpoint_store(Some(CheckpointStore::open(&dir.0).unwrap()));
        sim_b.run_from(&b, None, RunStart::LastCheckpoint).unwrap();
        assert_eq!(sim_b.state_checksum(), want.state_checksum());
    }

    #[test]
    fn scaleout_fault_recovery_is_bit_identical() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        // Mid-circuit measurements make recovery correctness visible in
        // the RNG stream, not just the amplitudes.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        let config = SimConfig {
            seed: 11,
            checkpoint_every: 2,
            ..SimConfig::scale_out(2)
        };

        let mut reference = Simulator::new(4, config).unwrap();
        let ref_summary = reference.run(&c).unwrap();
        let ref_checksum = reference.state_checksum();

        // Barrier faults are guaranteed to fire regardless of the gate
        // mix; `at` large enough to strike after the first segment. A
        // dropped put is detected at the next barrier.
        for plan in [
            FaultPlan::new().with(1, PeOp::Barrier, 9, FaultAction::Kill),
            FaultPlan::new().with(0, PeOp::Barrier, 7, FaultAction::Poison),
            FaultPlan::new().with(None, PeOp::Put, 3, FaultAction::Drop),
        ] {
            let armed = plan.armed_remaining();
            assert_eq!(armed, 1);
            let plan = Arc::new(plan);
            let mut sim = Simulator::new(4, config).unwrap();
            sim.set_fault_plan(Some(plan.clone()));
            let err = sim.run(&c).unwrap_err();
            assert!(
                matches!(err, SvError::PeFailed { .. }),
                "fault must surface typed, got: {err}"
            );
            assert_eq!(plan.armed_remaining(), 0, "fault fired exactly once");
            // One-shot faults: resume with the same plan attached.
            let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
            assert_eq!(summary.cbits, ref_summary.cbits);
            assert_eq!(
                sim.state_checksum(),
                ref_checksum,
                "recovered state must be bit-identical to the fault-free run"
            );
            assert_eq!(sim.state().re(), reference.state().re());
            assert_eq!(sim.state().im(), reference.state().im());
        }
    }

    #[test]
    fn off_grid_resume_is_bit_identical() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        // A checkpoint taken on a 3-op grid, finished on a 4-op grid: the
        // resume starts from an op that is not on the current grid, so the
        // first segment is the stub up to the next grid line.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        let base = SimConfig {
            seed: 11,
            ..SimConfig::scale_out(2)
        };
        let mut reference = Simulator::new(4, base).unwrap();
        let ref_summary = reference.run(&c).unwrap();
        let ref_samples = reference.sample(64);

        let mut faulted = Simulator::new(
            4,
            SimConfig {
                checkpoint_every: 3,
                ..base
            },
        )
        .unwrap();
        faulted.set_fault_plan(Some(Arc::new(FaultPlan::new().with(
            1,
            PeOp::Barrier,
            9,
            FaultAction::Kill,
        ))));
        faulted.run(&c).unwrap_err();
        let cp = faulted
            .checkpoint
            .take()
            .expect("the first segment committed");
        assert_eq!(cp.op_index(), 3);
        cp.verify().unwrap();

        let mut sim = Simulator::new(
            4,
            SimConfig {
                checkpoint_every: 4,
                ..base
            },
        )
        .unwrap();
        sim.checkpoint = Some(cp);
        let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
        assert_eq!(summary.cbits, ref_summary.cbits);
        assert_eq!(sim.state_checksum(), reference.state_checksum());
        assert_eq!(sim.sample(64), ref_samples);
    }

    #[test]
    fn scale_up_pe_failure_is_typed_and_resumes_bit_identically() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        let config = SimConfig {
            seed: 11,
            checkpoint_every: 2,
            ..SimConfig::scale_up(4)
        };
        let mut reference = Simulator::new(4, config).unwrap();
        let ref_summary = reference.run(&c).unwrap();

        // Device 1's 9th barrier falls inside the second segment (the first
        // passes 6: two allocations, the scatter, two kernels, and the last
        // one before the host reads the heap).
        let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 9, FaultAction::Kill));
        let mut sim = Simulator::new(4, config).unwrap();
        sim.set_fault_plan(Some(plan.clone()));
        let err = sim.run(&c).unwrap_err();
        assert_eq!(
            err,
            SvError::PeFailed {
                pe: 1,
                op: PeOp::Barrier
            }
        );
        assert_eq!(plan.armed_remaining(), 0, "fault fired exactly once");
        let cp = sim.checkpoint().expect("the first segment committed");
        assert_eq!(cp.op_index(), 2);
        let now = Checkpoint::capture(
            cp.circuit(),
            2,
            cp.cbits(),
            &SvRng::seed_from_u64(0),
            sim.state(),
        );
        assert_eq!(
            now.checksum(),
            cp.checksum(),
            "a failed segment leaves the state at its pre-segment contents"
        );

        let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
        assert_eq!(summary.cbits, ref_summary.cbits);
        assert_eq!(sim.state().re(), reference.state().re());
        assert_eq!(sim.state().im(), reference.state().im());
    }

    /// A scale-out segment whose PE dies fails typed on either substrate and
    /// leaves the host state at the committed checkpoint — also when the PE
    /// dies at the segment's last barrier, after every kernel ran, when the
    /// symmetric heap already holds the finished segment: the host reads
    /// the heap only once every PE has succeeded.
    #[test]
    fn scale_out_pe_failure_is_typed_and_resumes_bit_identically() {
        use svsim_shmem::{FaultAction, FaultPlan, ShmemBackend};
        use svsim_types::PeOp;

        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        for shmem_backend in [ShmemBackend::Thread, ShmemBackend::Process] {
            let config = SimConfig {
                seed: 11,
                checkpoint_every: 2,
                shmem_backend,
                ..SimConfig::scale_out(2)
            };
            let mut reference = Simulator::new(4, config).unwrap();
            let ref_summary = reference.run(&c).unwrap();

            // Each segment passes 6 barriers per PE: two allocations, the
            // scatter, two kernels, and the last one before the readback.
            // PE 1's 12th is the second segment's last; its 10th follows
            // the segment's first kernel.
            for at in [12, 10] {
                let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, at, FaultAction::Kill));
                let mut sim = Simulator::new(4, config).unwrap();
                sim.set_fault_plan(Some(plan.clone()));
                let err = sim.run(&c).unwrap_err();
                let op = match shmem_backend {
                    ShmemBackend::Thread => PeOp::Barrier,
                    // A real SIGKILL, after the barriers of the segment's
                    // launch that the PE completed.
                    ShmemBackend::Process => PeOp::Term {
                        signal: 9,
                        code: 0,
                        epoch: at - 7,
                    },
                };
                assert_eq!(
                    err,
                    SvError::PeFailed { pe: 1, op },
                    "{shmem_backend:?} at {at}"
                );
                assert_eq!(plan.armed_remaining(), 0, "fault fired exactly once");
                let cp = sim.checkpoint().expect("the first segment committed");
                assert_eq!(cp.op_index(), 2);
                let now = Checkpoint::capture(
                    cp.circuit(),
                    2,
                    cp.cbits(),
                    &SvRng::seed_from_u64(0),
                    sim.state(),
                );
                assert_eq!(
                    now.checksum(),
                    cp.checksum(),
                    "{shmem_backend:?} at {at}: a failed segment leaves the state at its \
                     pre-segment contents"
                );

                let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
                assert_eq!(summary.cbits, ref_summary.cbits);
                assert_eq!(sim.state_checksum(), reference.state_checksum());
                assert_eq!(sim.state().re(), reference.state().re());
                assert_eq!(sim.state().im(), reference.state().im());
            }
        }
    }

    /// `Put` faults strike the walk every run takes: `dnn_layers(10, 2)` at
    /// 2 PEs runs most of its kernels on the PEs' slabs and the rest on runs
    /// lent across the boundary, each a borrow that a `Put` spec counts. On
    /// thread and process PEs, a kill at PE 1's 40th `Put` (in the third of
    /// five segments) is a typed `PeFailed` — `Put` on a thread, the real
    /// `SIGKILL` on a process — and a dropped one moves its words but fails
    /// the PE at its next barrier, `PeFailed { op: Put }` on both. Either
    /// way the host state is the last checkpoint's bit for bit, and the
    /// resume is bit-identical to the fault-free run.
    #[test]
    fn put_faults_strike_the_lent_walk_and_resume_bit_identically() {
        use svsim_shmem::{FaultAction, FaultPlan, ShmemBackend};
        use svsim_types::PeOp;

        let c = svsim_workloads::qnn::dnn_layers(10, 2, 3).unwrap();
        for shmem_backend in [ShmemBackend::Thread, ShmemBackend::Process] {
            let config = SimConfig {
                seed: 5,
                checkpoint_every: 16,
                shmem_backend,
                ..SimConfig::scale_out(2)
            };
            let mut reference = Simulator::new(10, config).unwrap();
            let ref_summary = reference.run(&c).unwrap();
            assert!(ref_summary.slab_kernels > 0);
            for action in [FaultAction::Kill, FaultAction::Drop] {
                let what = format!("{shmem_backend:?} {action:?}");
                let plan = Arc::new(FaultPlan::new().with(1, PeOp::Put, 40, action));
                let mut sim = Simulator::new(10, config).unwrap();
                sim.set_fault_plan(Some(plan.clone()));
                let op = match sim.run(&c).unwrap_err() {
                    SvError::PeFailed { pe: 1, op } => op,
                    other => panic!("{what}: {other:?}"),
                };
                // A forked PE's kill is a real SIGKILL, which the parent reaps.
                let sigkill = action == FaultAction::Kill && shmem_backend == ShmemBackend::Process;
                assert!(
                    if sigkill {
                        matches!(op, PeOp::Term { signal: 9, .. })
                    } else {
                        op == PeOp::Put
                    },
                    "{what}: {op:?}"
                );
                assert_eq!(plan.armed_remaining(), 0, "{what}");
                let cp = sim.checkpoint().expect("two segments committed");
                assert_eq!(cp.op_index(), 32, "{what}");
                let now = Checkpoint::capture(
                    cp.circuit(),
                    32,
                    cp.cbits(),
                    &SvRng::seed_from_u64(0),
                    sim.state(),
                );
                assert_eq!(
                    now.checksum(),
                    cp.checksum(),
                    "{what}: the failed segment leaked"
                );
                let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
                assert_eq!(summary.cbits, ref_summary.cbits, "{what}");
                assert_eq!(sim.state().re(), reference.state().re(), "{what}");
                assert_eq!(sim.state().im(), reference.state().im(), "{what}");
            }
        }
    }

    /// Scale-up walks the same lent walk, so the same `Put` faults strike
    /// it: `dnn_layers(10, 2)` on 2 devices, device 1's 40th `Put` (in the
    /// third of five segments) killed is a typed `PeFailed { op: Put }`,
    /// and dropped it moves its words but fails the device at its next
    /// barrier, the same error. Either way the host state is the last
    /// checkpoint's bit for bit, and the resume is bit-identical to the
    /// fault-free run.
    #[test]
    fn put_faults_strike_scale_up_and_resume_bit_identically() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        let c = svsim_workloads::qnn::dnn_layers(10, 2, 3).unwrap();
        let config = SimConfig {
            seed: 5,
            checkpoint_every: 16,
            ..SimConfig::scale_up(2)
        };
        let mut reference = Simulator::new(10, config).unwrap();
        let ref_summary = reference.run(&c).unwrap();
        assert!(ref_summary.slab_kernels > 0);
        for action in [FaultAction::Kill, FaultAction::Drop] {
            let plan = Arc::new(FaultPlan::new().with(1, PeOp::Put, 40, action));
            let mut sim = Simulator::new(10, config).unwrap();
            sim.set_fault_plan(Some(plan.clone()));
            let err = sim.run(&c).unwrap_err();
            let failed = SvError::PeFailed {
                pe: 1,
                op: PeOp::Put,
            };
            assert_eq!(err, failed, "{action:?}");
            assert_eq!(plan.armed_remaining(), 0, "{action:?}");
            let cp = sim.checkpoint().expect("two segments committed");
            assert_eq!(cp.op_index(), 32, "{action:?}");
            let now = Checkpoint::capture(
                cp.circuit(),
                32,
                cp.cbits(),
                &SvRng::seed_from_u64(0),
                sim.state(),
            );
            assert_eq!(
                now.checksum(),
                cp.checksum(),
                "{action:?}: the failed segment leaked"
            );
            let summary = sim.run_from(&c, None, RunStart::LastCheckpoint).unwrap();
            assert_eq!(summary.cbits, ref_summary.cbits, "{action:?}");
            assert_eq!(sim.state().re(), reference.state().re(), "{action:?}");
            assert_eq!(sim.state().im(), reference.state().im(), "{action:?}");
        }
    }

    #[test]
    fn delay_fault_perturbs_timing_not_results() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        let c = ghz(4);
        let config = SimConfig {
            seed: 3,
            ..SimConfig::scale_out(2)
        };
        let mut reference = Simulator::new(4, config).unwrap();
        reference.run(&c).unwrap();

        let plan = Arc::new(FaultPlan::new().with(0, PeOp::Get, 2, FaultAction::Delay(1000)));
        let mut sim = Simulator::new(4, config).unwrap();
        sim.set_fault_plan(Some(plan));
        sim.run(&c).unwrap();
        assert_eq!(sim.state_checksum(), reference.state_checksum());
    }

    #[test]
    fn traffic_reported_for_distributed_backends() {
        let c = ghz(4);
        let mut sim = Simulator::new(4, SimConfig::scale_out(4)).unwrap();
        let summary = sim.run(&c).unwrap();
        assert_eq!(summary.traffic.len(), 4);
        let total = summary.total_traffic();
        assert!(total.remote_ops() > 0, "GHZ chain crosses partitions");
        // Prediction matches measurement: ShmemView does one get+put of re
        // and im per amplitude access (2 f64 ops per amplitude op).
        let predicted = sim.predict_traffic(&c);
        assert_eq!(
            total.remote_gets + total.remote_puts,
            2 * predicted.remote_amp_ops,
            "analytic model must match measured traffic"
        );
    }

    #[test]
    fn race_detection_on_scaleout_is_clean_and_bit_identical() {
        // The compiled access protocol must be conflict-free, and the
        // detector must be observation-only: amplitudes bit-identical to a
        // detector-off run.
        let mut c = Circuit::with_cbits(4, 2);
        c.extend(&ghz(4)).unwrap();
        c.apply(GateKind::RZZ, &[0, 3], &[0.3]).unwrap();
        c.measure(0, 0).unwrap();
        let reference = {
            let mut sim = Simulator::new(
                4,
                SimConfig {
                    seed: 9,
                    ..SimConfig::scale_out(4)
                },
            )
            .unwrap();
            sim.run(&c).unwrap();
            sim.state_checksum()
        };
        for n_pes in [2usize, 4] {
            let config = SimConfig {
                seed: 9,
                detect_races: true,
                ..SimConfig::scale_out(n_pes)
            };
            let mut sim = Simulator::new(4, config).unwrap();
            let summary = sim.run(&c).unwrap();
            assert!(
                summary.races.is_empty(),
                "{n_pes} PEs: protocol must be conflict-free, got {:?}",
                summary.races
            );
            assert_eq!(sim.state_checksum(), reference, "{n_pes} PEs");
        }
        // Detection off keeps the field empty by construction.
        let mut sim = Simulator::new(
            4,
            SimConfig {
                seed: 9,
                ..SimConfig::scale_out(2)
            },
        )
        .unwrap();
        assert!(sim.run(&c).unwrap().races.is_empty());
    }

    /// Deep circuit dominated by gates on the high (partition-index)
    /// qubits — the worst case for naive scale-out and the best case for
    /// communication-avoiding relabeling.
    fn deep_cross_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        for layer in 0..4 {
            for q in n / 2..n {
                c.apply(GateKind::RX, &[q], &[0.3 + 0.1 * f64::from(layer)])
                    .unwrap();
                c.apply(GateKind::CX, &[q, q - 1], &[]).unwrap();
            }
        }
        c
    }

    #[test]
    fn plan_and_simulator_price_traffic_identically() {
        // The engine prices the naive schedule from a plan alone; that
        // must be the number a simulator of the same shape reports.
        let c = deep_cross_circuit(6);
        let mut remote_bytes = Vec::new();
        for remap in [false, true] {
            let mut config = SimConfig::scale_out(4);
            config.remap = remap;
            let from_plan = CompiledPlan::compile(&c, 6, &config).predict_traffic(4);
            let sim = Simulator::new(6, config).unwrap();
            assert_eq!(from_plan, sim.predict_traffic(&c), "remap {remap}");
            remote_bytes.push(from_plan.remote_bytes);
        }
        assert!(
            remote_bytes[1] < remote_bytes[0],
            "remap must cut the predicted bytes on a deep circuit: {remote_bytes:?}"
        );
    }

    #[test]
    fn remapped_scaleout_is_bit_identical_and_cheaper() {
        let c = deep_cross_circuit(5);
        let mut reference = Simulator::new(5, SimConfig::single_device()).unwrap();
        reference.run(&c).unwrap();
        for n_pes in [2usize, 4, 8] {
            let mut naive = Simulator::new(5, SimConfig::scale_out(n_pes)).unwrap();
            let naive_summary = naive.run(&c).unwrap();
            assert_eq!(naive_summary.remap_swaps, 0);

            let config = SimConfig {
                remap: true,
                ..SimConfig::scale_out(n_pes)
            };
            let mut sim = Simulator::new(5, config).unwrap();
            let summary = sim.run(&c).unwrap();
            assert_eq!(
                sim.state().re(),
                reference.state().re(),
                "{n_pes} PEs: remapped re parts must be bit-identical"
            );
            assert_eq!(
                sim.state().im(),
                reference.state().im(),
                "{n_pes} PEs: remapped im parts must be bit-identical"
            );
            assert!(
                summary.remap_swaps > 0,
                "{n_pes} PEs: a deep cross-partition circuit must relabel"
            );
            let bytes = |s: &RunSummary| {
                let t = s.total_traffic();
                t.remote_get_bytes + t.remote_put_bytes
            };
            assert!(
                bytes(&summary) < bytes(&naive_summary),
                "{n_pes} PEs: remapped {} must undercut naive {}",
                bytes(&summary),
                bytes(&naive_summary)
            );
        }
    }

    #[test]
    fn remapped_traffic_matches_prediction_in_bytes() {
        // The measured remote byte counters must equal the analytic model's
        // `remote_bytes` exactly, whatever the lowering did: remapped or
        // not. The conditional fires on every run (the
        // register is never written), so "priced as executed" is exact too.
        let mut c = Circuit::with_cbits(5, 1);
        c.extend(&deep_cross_circuit(5)).unwrap();
        c.if_eq(
            0,
            1,
            0,
            svsim_ir::Gate::new(GateKind::H, &[4], &[]).unwrap(),
        )
        .unwrap();
        c.extend(&deep_cross_circuit(5)).unwrap();
        for n_pes in [2usize, 4, 8] {
            for remap in [false, true] {
                let config = SimConfig {
                    remap,
                    ..SimConfig::scale_out(n_pes)
                };
                let mut sim = Simulator::new(5, config).unwrap();
                let summary = sim.run(&c).unwrap();
                let total = summary.total_traffic();
                let predicted = sim.predict_traffic(&c);
                assert_eq!(
                    total.remote_get_bytes + total.remote_put_bytes,
                    predicted.remote_bytes,
                    "{n_pes} PEs, remap {remap}: analytic model must match measured traffic"
                );
            }
        }
    }

    #[test]
    fn remapped_scaleout_with_measurement_matches_naive() {
        // Mid-circuit measurement + conditionals exercise collapse and the
        // classical register under a permuted layout.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&deep_cross_circuit(4)).unwrap();
        c.measure(3, 0).unwrap();
        c.if_eq(
            0,
            1,
            1,
            svsim_ir::Gate::new(GateKind::X, &[2], &[]).unwrap(),
        )
        .unwrap();
        c.measure(2, 1).unwrap();
        for seed in [1u64, 7, 23] {
            let mut naive = Simulator::new(
                4,
                SimConfig {
                    seed,
                    ..SimConfig::scale_out(4)
                },
            )
            .unwrap();
            let naive_summary = naive.run(&c).unwrap();
            let config = SimConfig {
                seed,
                remap: true,
                ..SimConfig::scale_out(4)
            };
            let mut sim = Simulator::new(4, config).unwrap();
            let summary = sim.run(&c).unwrap();
            assert_eq!(summary.cbits, naive_summary.cbits, "seed {seed}");
            assert_eq!(sim.state().re(), naive.state().re(), "seed {seed}");
            assert_eq!(sim.state().im(), naive.state().im(), "seed {seed}");
        }
    }

    #[test]
    fn remapped_run_under_race_detector_is_clean() {
        let c = deep_cross_circuit(4);
        let config = SimConfig {
            remap: true,
            detect_races: true,
            ..SimConfig::scale_out(4)
        };
        let mut sim = Simulator::new(4, config).unwrap();
        let summary = sim.run(&c).unwrap();
        assert!(summary.remap_swaps > 0);
        assert!(
            summary.races.is_empty(),
            "exchange epochs must be conflict-free, got {:?}",
            summary.races
        );
    }

    #[test]
    fn reset_clears_remap_state_between_naive_and_remapped_runs() {
        // Alternate remapped and naive runs on ONE state buffer: no stale
        // permutation or counter may leak across runs.
        let c = deep_cross_circuit(4);
        let mut reference = Simulator::new(4, SimConfig::single_device()).unwrap();
        reference.run(&c).unwrap();

        let mut state = StateVector::zero_state(4).unwrap();
        for round in 0..4 {
            let remap = round % 2 == 0;
            let config = SimConfig {
                remap,
                ..SimConfig::scale_out(4)
            };
            state.reset_zero();
            let mut sim = Simulator::from_state(state, config).unwrap();
            let summary = sim.run(&c).unwrap();
            assert_eq!(summary.remap_swaps > 0, remap, "round {round}");
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
            state = sim.into_state();
        }
    }

    #[test]
    fn checkpointed_remapped_run_is_bit_identical_to_plain_run() {
        // Each segment plans independently from the identity layout, so
        // checkpoint boundaries must not perturb results.
        let c = deep_cross_circuit(4);
        let base = SimConfig {
            remap: true,
            ..SimConfig::scale_out(4)
        };
        let mut plain = Simulator::new(4, base).unwrap();
        plain.run(&c).unwrap();
        for k in [1u32, 3, 64] {
            let mut seg = Simulator::new(
                4,
                SimConfig {
                    checkpoint_every: k,
                    ..base
                },
            )
            .unwrap();
            seg.run(&c).unwrap();
            assert_eq!(seg.state().re(), plain.state().re(), "k={k}");
            assert_eq!(seg.state().im(), plain.state().im(), "k={k}");
        }
    }

    #[test]
    fn plan_driven_run_is_bit_identical_to_direct_run() {
        // Measurement exercises the RNG stream, remap exercises the cached
        // relabeling schedule, checkpointing exercises per-segment lookup.
        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&deep_cross_circuit(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        for config in [
            SimConfig {
                seed: 31,
                ..SimConfig::single_device()
            },
            SimConfig {
                seed: 31,
                checkpoint_every: 3,
                ..SimConfig::single_device()
            },
            SimConfig {
                seed: 31,
                ..SimConfig::scale_up(2)
            },
            SimConfig {
                seed: 31,
                ..SimConfig::scale_out(4)
            },
            SimConfig {
                seed: 31,
                remap: true,
                ..SimConfig::scale_out(4)
            },
            SimConfig {
                seed: 31,
                remap: true,
                checkpoint_every: 2,
                ..SimConfig::scale_out(4)
            },
        ] {
            let mut direct = Simulator::new(4, config).unwrap();
            let direct_summary = direct.run(&c).unwrap();

            let mut planned = Simulator::new(4, config).unwrap();
            let plan = planned.compile_plan(&c);
            let summary = planned.run_from(&c, Some(&plan), RunStart::Fresh).unwrap();
            assert_eq!(summary.cbits, direct_summary.cbits, "{config:?}");
            assert_eq!(
                summary.remap_swaps, direct_summary.remap_swaps,
                "{config:?}"
            );
            assert_eq!(planned.state().re(), direct.state().re(), "{config:?}");
            assert_eq!(planned.state().im(), direct.state().im(), "{config:?}");

            // Re-running the same plan from reset replays bit-identically
            // (the engine's compile-cache reuse pattern).
            planned.reset();
            planned.run_from(&c, Some(&plan), RunStart::Fresh).unwrap();
            assert_eq!(
                planned.state().re(),
                direct.state().re(),
                "{config:?} rerun"
            );
        }
    }

    #[test]
    fn mismatched_plan_falls_back_bit_identically() {
        let c = ghz(4);
        let config = SimConfig {
            seed: 5,
            ..SimConfig::scale_out(2)
        };
        let mut direct = Simulator::new(4, config).unwrap();
        direct.run(&c).unwrap();
        // Plan compiled for a different shape: silently ignored.
        let stale = CompiledPlan::compile(
            &c,
            4,
            &SimConfig {
                remap: true,
                ..SimConfig::scale_out(2)
            },
        );
        let mut sim = Simulator::new(4, config).unwrap();
        sim.run_from(&c, Some(&stale), RunStart::Fresh).unwrap();
        assert_eq!(sim.state().re(), direct.state().re());
        assert_eq!(sim.state().im(), direct.state().im());
    }

    #[test]
    fn a_plan_with_tile_runs_is_not_reused_where_a_slab_is_one_tile() {
        // 17 qubits on one device: four tiles, so the plan holds tile runs
        // at 2^15 and 2^11. At 8 PEs a slab is 2^14 amplitudes, tiled at 2^11
        // alone, and qubit 14 crosses PEs inside one of the plan's runs;
        // under runtime parsing nothing runs tile-major. Neither reuses the
        // plan: each lowers its own, bit-identically, and passes the barriers
        // and tile runs a run without a plan passes.
        let mut c = Circuit::new(17);
        for q in 0..17 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
            c.apply(GateKind::RZ, &[q], &[0.1 * f64::from(q + 1)])
                .unwrap();
        }
        c.apply(GateKind::CX, &[14, 3], &[]).unwrap();
        let plan = CompiledPlan::compile(&c, 17, &SimConfig::single_device());
        let parse = SimConfig {
            dispatch: DispatchMode::RuntimeParse,
            ..SimConfig::single_device()
        };
        for config in [SimConfig::scale_out(8), parse] {
            assert!(!plan.matches(&c, 17, &config), "{config:?}");
            let mut direct = Simulator::new(17, config).unwrap();
            let want = direct.run(&c).unwrap();
            let mut planned = Simulator::new(17, config).unwrap();
            let got = planned.run_from(&c, Some(&plan), RunStart::Fresh).unwrap();
            assert_eq!(planned.state().re(), direct.state().re(), "{config:?}");
            assert_eq!(planned.state().im(), direct.state().im(), "{config:?}");
            assert_eq!(got.traffic, want.traffic, "{config:?}: barriers too");
            assert_eq!(
                (got.tile_runs, got.tiled_kernels),
                (want.tile_runs, want.tiled_kernels),
                "{config:?}"
            );
        }
        let mut own = Simulator::new(17, SimConfig::single_device()).unwrap();
        let tiled = own.run_from(&c, Some(&plan), RunStart::Fresh).unwrap();
        assert!(tiled.tile_runs > 0, "the device the plan was lowered for");
    }

    #[test]
    fn plan_driven_resume_recovers_bit_identically() {
        use svsim_shmem::{FaultAction, FaultPlan};
        use svsim_types::PeOp;

        let mut c = Circuit::with_cbits(4, 4);
        c.extend(&ghz(4)).unwrap();
        for q in 0..4 {
            c.measure(q, q).unwrap();
        }
        let config = SimConfig {
            seed: 11,
            checkpoint_every: 2,
            ..SimConfig::scale_out(2)
        };
        let mut reference = Simulator::new(4, config).unwrap();
        reference.run(&c).unwrap();

        let mut sim = Simulator::new(4, config).unwrap();
        let plan = sim.compile_plan(&c);
        sim.set_fault_plan(Some(Arc::new(FaultPlan::new().with(
            1,
            PeOp::Barrier,
            9,
            FaultAction::Kill,
        ))));
        sim.run_from(&c, Some(&plan), RunStart::Fresh).unwrap_err();
        let summary = sim
            .run_from(&c, Some(&plan), RunStart::LastCheckpoint)
            .unwrap();
        assert_eq!(summary.cbits, reference.cbits());
        assert_eq!(sim.state().re(), reference.state().re());
        assert_eq!(sim.state().im(), reference.state().im());
    }

    #[test]
    fn sampling_from_simulator() {
        let mut sim = Simulator::new(
            3,
            SimConfig {
                seed: 5,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        sim.run(&ghz(3)).unwrap();
        let samples = sim.sample(4000);
        let h = measure::histogram(&samples);
        assert_eq!(h.len(), 2);
        let f0 = h[&0] as f64 / 4000.0;
        assert!((f0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn expval_on_ghz() {
        let mut sim = Simulator::new(3, SimConfig::single_device()).unwrap();
        sim.run(&ghz(3)).unwrap();
        // <ZZI> = +1 on GHZ (correlated), <ZII> = 0.
        let zz = PauliString::parse("ZZI").unwrap();
        assert!((sim.expval_pauli(&zz) - 1.0).abs() < 1e-12);
        let z = PauliString::parse("ZII").unwrap();
        assert!(sim.expval_pauli(&z).abs() < 1e-12);
        // <XXX> = +1 on GHZ.
        let xxx = PauliString::parse("XXX").unwrap();
        assert!((sim.expval_pauli(&xxx) - 1.0).abs() < 1e-12);
    }
}
