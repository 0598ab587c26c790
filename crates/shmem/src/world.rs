//! The SPMD world: PE launch, symmetric heap, one-sided access, collectives.
//!
//! This is the in-process stand-in for OpenSHMEM/NVSHMEM (see DESIGN.md):
//! each processing element (PE) executes the same program, the symmetric
//! heap is allocated collectively (same sizes, same order on every PE),
//! and remote partitions are reached with one-sided `put`/`get` exactly as
//! in the paper's Listing 5.
//!
//! PEs run on one of two substrates — threads of this process, or forked
//! OS processes over a shared arena ([`crate::proc`]). The choice is made
//! once, at launch, as the world's `Substrate`; [`ShmemCtx`] never asks
//! which one it is on.

use crate::barrier::{BarrierToken, BarrierWaitError, SenseBarrier};
use crate::fault::{FaultAction, FaultPlan};
use crate::metrics::{MetricsTable, PeCounters, TrafficSnapshot};
use crate::proc::{ProcOptions, ProcWorld, RespawnEvent, ShmemBackend, Wire};
use crate::race::{RaceDetector, RaceReport, ShadowArray};
use crate::shared::SharedF64Vec;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use svsim_types::{PeOp, SvError, SvResult};

/// Handle to a symmetric `f64` array: every PE owns `len_per_pe` words and
/// can address any peer's copy.
#[derive(Debug, Clone)]
pub struct SymF64 {
    bufs: Arc<Vec<SharedF64Vec>>,
    len_per_pe: usize,
    /// Shadow state when this array was allocated in a race-detected world
    /// ([`WorldOptions::detect_races`]); `None` otherwise, keeping every
    /// accessor's fast path a single branch on an option the allocator
    /// decided once.
    shadow: Option<Arc<ShadowArray>>,
}

impl SymF64 {
    /// Words per PE.
    #[must_use]
    pub fn len_per_pe(&self) -> usize {
        self.len_per_pe
    }

    /// Direct reference to one PE's partition (peer-pointer-array analog).
    #[must_use]
    pub fn partition(&self, pe: usize) -> &SharedF64Vec {
        &self.bufs[pe]
    }

    /// Every PE's partition, indexed by rank — the peer pointer table a
    /// scale-up `PeerView` dereferences directly (Listing 4's
    /// `sv_real_ptr[gid]`).
    #[must_use]
    pub fn partitions(&self) -> &[SharedF64Vec] {
        &self.bufs
    }
}

/// What the PEs of a world run on, decided once at launch. Everything
/// that differs between thread PEs and process PEs is a method of this
/// enum: where a collective allocation's partitions and its publication
/// record live, which words the barrier runs over and how a wait is
/// bounded, where progress is stamped for a supervisor, which words a
/// fault spec counts against, and what it means for a PE to be killed or
/// wedged. Both arms drive the same [`crate::proto`] machines.
#[derive(Debug)]
enum Substrate {
    /// PEs are threads of this process: barrier words are process-local,
    /// allocations are heap buffers published through a log, fault specs
    /// count against the plan's own words, and nobody supervises.
    Thread {
        barrier: SenseBarrier,
        /// Symmetric-heap allocation log: handles published by PE 0,
        /// indexed by allocation sequence number.
        heap: Mutex<Vec<SymF64>>,
        /// Dynamic race detector: when present, every symmetric
        /// allocation gets shadow state and every one-sided access is
        /// recorded against it. Shadow state is single-address-space, so
        /// only this arm can carry one.
        detector: Option<Arc<RaceDetector>>,
    },
    /// PEs are forked OS processes: all of the above lives in the
    /// `MAP_SHARED` arena, and the parent supervises.
    Process(ProcWorld),
}

/// A symmetric-heap mutex was poisoned: a peer PE panicked while publishing
/// an allocation. Healthy PEs get an error, not a panic, so one failed PE
/// cannot cascade a lock-poison abort through the world.
fn heap_poisoned(pe: usize) -> SvError {
    SvError::Shmem(format!(
        "PE {pe}: symmetric heap lock poisoned by a failed peer"
    ))
}

/// Collective allocation `seq` did not resolve on `pe` to what that PE
/// asked for: the PEs did not all call `malloc` with the same sizes in the
/// same order. One wording for both substrates.
pub(crate) fn call_order_violated(pe: usize, seq: usize, what: &str) -> SvError {
    SvError::Shmem(format!(
        "PE {pe}: allocation #{seq} {what} (collective call order violated)"
    ))
}

impl Substrate {
    /// PE 0's half of collective allocation `seq`: create `n_pes`
    /// partitions of `len_per_pe` words and publish them. The caller's
    /// barrier orders this before every PE's [`Self::lookup_alloc`].
    fn publish_alloc(&self, seq: usize, len_per_pe: usize, n_pes: usize) -> SvResult<()> {
        match self {
            Self::Thread { heap, detector, .. } => {
                let handle = SymF64 {
                    bufs: Arc::new(
                        (0..n_pes)
                            .map(|_| SharedF64Vec::new(len_per_pe, 0.0))
                            .collect(),
                    ),
                    len_per_pe,
                    shadow: detector.as_ref().map(|d| d.shadow(len_per_pe)),
                };
                heap.lock().map_err(|_| heap_poisoned(0))?.push(handle);
                Ok(())
            }
            // Bump-allocated inside the shared arena, `{len, offset}`
            // published in its allocation table.
            Self::Process(pw) => pw.publish_alloc(seq, len_per_pe),
        }
    }

    /// Every PE's half of collective allocation `seq`, after the barrier:
    /// resolve the published record into a handle.
    fn lookup_alloc(&self, pe: usize, seq: usize, len_per_pe: usize) -> SvResult<SymF64> {
        match self {
            Self::Thread { heap, .. } => {
                let handle = heap
                    .lock()
                    .map_err(|_| heap_poisoned(pe))?
                    .get(seq)
                    .cloned()
                    .ok_or_else(|| call_order_violated(pe, seq, "was never published"))?;
                if handle.len_per_pe != len_per_pe {
                    return Err(call_order_violated(pe, seq, "size mismatch"));
                }
                Ok(handle)
            }
            Self::Process(pw) => Ok(SymF64 {
                bufs: Arc::new(pw.lookup_alloc(pe, seq, len_per_pe)?),
                len_per_pe,
                shadow: None,
            }),
        }
    }

    /// One barrier epoch. A thread PE cannot vanish: its run ends in the
    /// harness, which poisons on any failure, so its wait is unbounded and
    /// poison is its only failure; a process wait is bounded and keeps
    /// `pe`'s heartbeat alive while it blocks.
    fn barrier_wait(&self, token: &mut BarrierToken, pe: usize) -> Result<(), BarrierWaitError> {
        match self {
            Self::Thread { barrier, .. } => barrier
                .try_wait(token)
                .map_err(|_| BarrierWaitError::Poisoned),
            Self::Process(pw) => pw.barrier_wait(token, pe),
        }
    }

    fn poison_barrier(&self) {
        match self {
            Self::Thread { barrier, .. } => barrier.poison(),
            Self::Process(pw) => pw.poison_barrier(),
        }
    }

    /// Progress signal for a supervising parent's watchdog. Entering a
    /// barrier is a liveness event even if the wait then blocks for a
    /// while (the wait loop keeps bumping on its own). Threads have no
    /// supervisor.
    fn heartbeat(&self, pe: usize) {
        if let Self::Process(pw) = self {
            pw.heartbeat(pe);
        }
    }

    /// Publish that `pe` completed barrier epoch `epoch`, so a reaper can
    /// stamp epoch-at-death on an abnormal exit. Threads are never reaped.
    fn set_epoch(&self, pe: usize, epoch: u64) {
        if let Self::Process(pw) = self {
            pw.set_epoch(pe, epoch);
        }
    }

    /// Consult `plan` at a trigger point, counting against the words
    /// every PE of this world shares: the plan's own for threads (one
    /// `Arc`), the arena mirror for processes (a forked child's copy of
    /// the plan would diverge from its siblings').
    fn check_fault(&self, plan: &FaultPlan, pe: usize, op: PeOp) -> Option<FaultAction> {
        match self {
            Self::Thread { .. } => plan.check(pe, op),
            Self::Process(pw) => pw.check_faults(plan, pe, op),
        }
    }

    /// An injected [`FaultAction::Kill`], after the barrier is poisoned.
    /// On processes "killed" is literal: the PE raises `SIGKILL` on itself
    /// and the launcher reaps a signal death ([`PeOp::Term`]). A thread
    /// cannot be killed from outside; this returns and the caller fails
    /// the PE with a typed error.
    fn kill_self(&self) {
        if let Self::Process(_) = self {
            crate::proc::die_by_sigkill();
        }
    }

    /// An injected [`FaultAction::Hang`]: wedge without dying. A process
    /// PE stops bumping its heartbeat and sleeps forever — only the
    /// parent's watchdog can end it (`SIGKILL` → [`SvError::PeHung`]). No
    /// supervisor can kill a thread, so there this returns and Hang
    /// degrades to Poison semantics.
    fn hang(&self) {
        if let Self::Process(_) = self {
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// Shared world state behind every PE's [`ShmemCtx`].
#[derive(Debug)]
pub struct World {
    n_pes: usize,
    substrate: Substrate,
    metrics: MetricsTable,
    /// Scratch slots for collectives (one word per PE).
    coll: SharedF64Vec,
    /// Injected-fault schedule, if this world runs under fault injection.
    faults: Option<Arc<FaultPlan>>,
    /// A fault plan or a race detector is attached ([`ShmemCtx::borrow`]).
    observed: bool,
}

impl World {
    /// The one world constructor: checks `opts` against `n_pes` and builds
    /// the substrate they ask for. A process world's barrier, metrics,
    /// collective scratch, allocation table and fault counters all live in
    /// its `MAP_SHARED` arena, built here *before* forking, so every child
    /// inherits the same world at the same addresses.
    fn new(n_pes: usize, opts: &WorldOptions) -> SvResult<Self> {
        if n_pes == 0 {
            return Err(SvError::InvalidConfig("n_pes must be >= 1".into()));
        }
        let substrate = match opts.backend {
            ShmemBackend::Thread => Substrate::Thread {
                barrier: SenseBarrier::new(n_pes),
                heap: Mutex::new(Vec::new()),
                detector: opts
                    .detect_races
                    .then(|| RaceDetector::new(n_pes))
                    .transpose()?,
            },
            ShmemBackend::Process if opts.detect_races => {
                return Err(SvError::InvalidConfig(
                    "race detection requires the thread backend: the detector's shadow \
                     state is in-process and cannot observe forked PEs"
                        .into(),
                ))
            }
            ShmemBackend::Process => Substrate::Process(ProcWorld::new(n_pes, &opts.process)?),
        };
        let (metrics, coll) = match &substrate {
            Substrate::Thread { .. } => (MetricsTable::new(n_pes), SharedF64Vec::new(n_pes, 0.0)),
            Substrate::Process(pw) => (pw.metrics_table(), pw.coll_f64()),
        };
        Ok(Self {
            n_pes,
            substrate,
            metrics,
            coll,
            faults: opts.faults.clone(),
            observed: opts.faults.is_some() || opts.detect_races,
        })
    }

    /// One PE's run of `body`, the harness thread and forked PEs share: its
    /// context, the body, and the epoch it reached published for a reaper.
    /// A PE that ends holding a failure ([`Struck`]) fails with it, typed.
    /// A panic is a bug, not a failure mode: it is caught all the same and
    /// its message kept. Either way the barrier is poisoned first, so peers
    /// in it fail fast instead of deadlocking.
    pub(crate) fn run_pe<T>(&self, pe: usize, body: &impl Fn(&ShmemCtx<'_>) -> T) -> SvResult<T> {
        let ctx = ShmemCtx {
            pe,
            world: self,
            token: Cell::new(BarrierToken::default()),
            epoch: Cell::new(0),
            alloc_seq: Cell::new(0),
            struck: Cell::new(None),
        };
        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx))) {
            Ok(value) => match ctx.struck.get() {
                None => Ok(value),
                Some(Struck::Dropped(op) | Struck::Dead(op)) => Err(SvError::PeFailed { pe, op }),
            },
            Err(payload) => Err(classify_panic(pe, payload.as_ref())),
        };
        if r.is_err() {
            self.substrate.poison_barrier();
        }
        self.substrate.set_epoch(pe, ctx.barrier_epoch());
        r
    }

    /// The launch's output once every PE has joined: the PEs' `results`
    /// with what the world kept — per-PE traffic, the race reports, and the
    /// collective allocations in call order ([`SpmdOutput::heap`]).
    pub(crate) fn output<T>(
        self,
        results: Vec<SvResult<T>>,
        pids: Vec<i32>,
        respawns: Vec<RespawnEvent>,
    ) -> SpmdOutput<T> {
        let traffic = self.metrics.snapshot_all();
        let (heap, races) = match self.substrate {
            // A PE that panicked mid-publish poisoned the lock, but a push
            // either happened or did not: the log is whole either way.
            Substrate::Thread { heap, detector, .. } => (
                heap.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                detector.map(|d| d.take_reports()).unwrap_or_default(),
            ),
            Substrate::Process(pw) => (
                pw.published_allocs()
                    .into_iter()
                    .map(|(len_per_pe, bufs)| SymF64 {
                        bufs: Arc::new(bufs),
                        len_per_pe,
                        shadow: None,
                    })
                    .collect(),
                Vec::new(),
            ),
        };
        SpmdOutput {
            results,
            traffic,
            pids,
            respawns,
            races,
            heap,
        }
    }
}

/// A failure an injected fault left a PE holding at a one-sided access,
/// which has no return value to report it in.
#[derive(Debug, Clone, Copy)]
enum Struck {
    /// A [`FaultAction::Drop`] lost a transfer of this op. The PE's next
    /// barrier reports it (the synchronization point where a real fabric's
    /// delivery acknowledgment would surface it), and the PE goes on.
    Dropped(PeOp),
    /// A [`FaultAction::Kill`], `Poison` or (on threads) `Hang` struck at
    /// this op: the barrier is poisoned and the PE is failed for the rest
    /// of its run. Its transfers and fault points stop, every barrier it
    /// reaches reports the failure, and so does its run.
    Dead(PeOp),
}

/// Bounded deterministic stall used by [`FaultAction::Delay`].
fn stall(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Per-PE execution context — the value passed to the SPMD body.
pub struct ShmemCtx<'w> {
    pe: usize,
    world: &'w World,
    token: Cell<BarrierToken>,
    epoch: Cell<u64>,
    /// Count of symmetric allocations this PE has participated in; used to
    /// pair each PE's `malloc` call with the published handle.
    alloc_seq: Cell<usize>,
    /// The failure an injected fault at a one-sided access left this PE
    /// holding, until a barrier or the end of its run reports it.
    struck: Cell<Option<Struck>>,
}

impl<'w> ShmemCtx<'w> {
    /// This PE's rank (`shmem_my_pe`).
    #[must_use]
    pub fn my_pe(&self) -> usize {
        self.pe
    }

    /// World size (`shmem_n_pes`).
    #[must_use]
    pub fn n_pes(&self) -> usize {
        self.world.n_pes
    }

    /// This PE's traffic counters: what every one-sided accessor and every
    /// [`borrow`](Self::borrow) credits.
    #[must_use]
    pub fn counters(&self) -> &PeCounters {
        self.world.metrics.pe(self.pe)
    }

    /// Global barrier (`shmem_barrier_all`). A failed peer, or a fault on
    /// this PE, is an error, so SPMD bodies shut down gracefully.
    ///
    /// On error the barrier is guaranteed poisoned and this PE's epoch is
    /// **not** advanced — every peer stuck in the same barrier reports the
    /// same [`barrier_epoch`](Self::barrier_epoch).
    ///
    /// # Errors
    /// [`SvError::PeFailed`] when an injected fault fires on this PE here,
    /// or struck one of its one-sided accesses since its last barrier (the
    /// barrier is poisoned first so peers cannot deadlock);
    /// [`SvError::Shmem`] when a peer poisoned the barrier;
    /// [`SvError::BarrierTimeout`] when the process backend's bounded wait
    /// expired with no poison observed (the barrier simply never released).
    pub fn try_barrier_all(&self) -> SvResult<()> {
        let substrate = &self.world.substrate;
        self.counters().count_barrier();
        substrate.heartbeat(self.pe);
        if let Some(plan) = &self.world.faults {
            self.barrier_fault_points(plan)?;
        }
        let mut tok = self.token.take();
        let r = substrate.barrier_wait(&mut tok, self.pe);
        self.token.set(tok);
        match r {
            Ok(()) => {
                let epoch = self.epoch.get() + 1;
                self.epoch.set(epoch);
                substrate.set_epoch(self.pe, epoch);
                Ok(())
            }
            Err(BarrierWaitError::Poisoned) => Err(SvError::Shmem(format!(
                "PE {}: barrier poisoned by a failed peer",
                self.pe
            ))),
            Err(BarrierWaitError::TimedOut { waited }) => Err(SvError::BarrierTimeout {
                pe: self.pe,
                epoch: self.epoch.get(),
                waited_ms: u64::try_from(waited.as_millis()).unwrap_or(u64::MAX),
            }),
        }
    }

    /// Injection hooks that run at barrier entry: report what an access
    /// fault left this PE holding, else consult the plan for
    /// barrier-triggered faults.
    #[cold]
    fn barrier_fault_points(&self, plan: &FaultPlan) -> SvResult<()> {
        let substrate = &self.world.substrate;
        let failed = |op| Err(SvError::PeFailed { pe: self.pe, op });
        match self.struck.get() {
            // A lost transfer is detected when delivery is acknowledged at
            // the synchronization point: fail the PE so the epoch whose
            // data is incomplete is discarded, never committed.
            Some(Struck::Dropped(op)) => {
                self.struck.set(None);
                substrate.poison_barrier();
                return failed(op);
            }
            Some(Struck::Dead(op)) => return failed(op),
            None => {}
        }
        match substrate.check_fault(plan, self.pe, PeOp::Barrier) {
            None | Some(FaultAction::Drop) | Some(FaultAction::TornCheckpoint) => Ok(()),
            Some(FaultAction::Delay(iters)) => {
                stall(iters);
                Ok(())
            }
            Some(FaultAction::Hang) => {
                substrate.hang();
                substrate.poison_barrier();
                failed(PeOp::Barrier)
            }
            // A PE killed at a barrier never arrives, so it must poison on
            // the way out or its peers would spin forever.
            Some(FaultAction::Kill) => {
                substrate.poison_barrier();
                substrate.kill_self();
                failed(PeOp::Barrier)
            }
            Some(FaultAction::Poison) => {
                substrate.poison_barrier();
                failed(PeOp::Barrier)
            }
        }
    }

    /// Injection hook for one-sided transfers. Returns `true` when the
    /// transfer must be skipped: the fault plan dropped it, or this PE is
    /// failed ([`Struck`]).
    #[inline]
    fn transfer_fault(&self, op: PeOp) -> bool {
        match &self.world.faults {
            None => false,
            Some(plan) => self.transfer_fault_slow(plan, op),
        }
    }

    #[cold]
    fn transfer_fault_slow(&self, plan: &FaultPlan, op: PeOp) -> bool {
        if let Some(Struck::Dead(_)) = self.struck.get() {
            return true;
        }
        let substrate = &self.world.substrate;
        let struck = match substrate.check_fault(plan, self.pe, op) {
            None | Some(FaultAction::TornCheckpoint) => return false,
            Some(FaultAction::Delay(iters)) => {
                stall(iters);
                return false;
            }
            Some(FaultAction::Drop) => Struck::Dropped(op),
            // A wedged process PE never returns from `hang`.
            Some(FaultAction::Hang) => {
                substrate.hang();
                substrate.poison_barrier();
                Struck::Dead(op)
            }
            // Poison first so peers release promptly rather than waiting
            // out a reaper.
            Some(FaultAction::Kill) => {
                substrate.poison_barrier();
                substrate.kill_self();
                Struck::Dead(op)
            }
            Some(FaultAction::Poison) => {
                substrate.poison_barrier();
                Struck::Dead(op)
            }
        };
        self.struck.set(Some(struck));
        true
    }

    /// Race-detection hook for a one-sided read that landed. The fast path
    /// (detection off) is a single branch on a `None` the allocator stored
    /// in the handle; the recording path is outlined and cold.
    #[inline]
    fn trace_read(&self, shadow: &Option<Arc<ShadowArray>>, owner_pe: usize, idx: usize) {
        if let Some(sh) = shadow {
            self.trace_read_slow(sh, owner_pe, idx, 1);
        }
    }

    #[cold]
    fn trace_read_slow(&self, sh: &ShadowArray, owner_pe: usize, start: usize, n: usize) {
        let epoch = self.epoch.get();
        for idx in start..start + n {
            let _ = sh.record_read(self.pe, epoch, owner_pe, idx);
        }
    }

    /// Race-detection hook for a one-sided write that landed.
    #[inline]
    fn trace_write(&self, shadow: &Option<Arc<ShadowArray>>, owner_pe: usize, idx: usize) {
        if let Some(sh) = shadow {
            self.trace_write_slow(sh, owner_pe, idx, 1);
        }
    }

    #[cold]
    fn trace_write_slow(&self, sh: &ShadowArray, owner_pe: usize, start: usize, n: usize) {
        let epoch = self.epoch.get();
        for idx in start..start + n {
            let _ = sh.record_write(self.pe, epoch, owner_pe, idx);
        }
    }

    /// Number of barriers this PE has passed — the synchronization epoch
    /// the race detector scopes its shadow state by. Identical across PEs
    /// at any synchronized point.
    #[must_use]
    pub fn barrier_epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Collective symmetric allocation of `len_per_pe` f64 words per PE
    /// (`nvshmem_malloc`). Must be called by **all** PEs in the same order.
    /// PE 0 creates and publishes the partitions, the barrier orders the
    /// publication before every PE's lookup.
    ///
    /// # Errors
    /// [`SvError::Shmem`] when the heap (its lock, or the process arena's
    /// capacity) or the barrier failed, or when PEs disagree on size/order
    /// (collective call order violated).
    pub fn malloc_f64(&self, len_per_pe: usize) -> SvResult<SymF64> {
        let substrate = &self.world.substrate;
        let seq = self.alloc_seq.get();
        self.alloc_seq.set(seq + 1);
        let made = if self.pe == 0 {
            substrate.publish_alloc(seq, len_per_pe, self.world.n_pes)
        } else {
            Ok(())
        };
        self.try_barrier_all()?;
        made?;
        substrate.lookup_alloc(self.pe, seq, len_per_pe)
    }

    /// One-sided load of one word from `src_pe`'s partition
    /// (`nvshmem_double_g`). A dropped (injected) load returns `0.0`; the
    /// loss is reported at this PE's next barrier.
    #[inline]
    #[must_use]
    pub fn get_f64(&self, sym: &SymF64, src_pe: usize, idx: usize) -> f64 {
        if self.transfer_fault(PeOp::Get) {
            return 0.0;
        }
        self.trace_read(&sym.shadow, src_pe, idx);
        self.counters().count_get(src_pe != self.pe, 8);
        sym.bufs[src_pe].load(idx)
    }

    /// One-sided store of one word into `dst_pe`'s partition
    /// (`nvshmem_double_p`). A dropped (injected) store is lost at the
    /// fabric; the loss is reported at this PE's next barrier.
    #[inline]
    pub fn put_f64(&self, sym: &SymF64, dst_pe: usize, idx: usize, v: f64) {
        if self.transfer_fault(PeOp::Put) {
            return;
        }
        self.trace_write(&sym.shadow, dst_pe, idx);
        self.counters().count_put(dst_pe != self.pe, 8);
        sym.bufs[dst_pe].store(idx, v);
    }

    /// Contiguous one-sided load (`shmem_getmem`): one message, many words.
    pub fn get_slice_f64(&self, sym: &SymF64, src_pe: usize, start: usize, dst: &mut [f64]) {
        if self.transfer_fault(PeOp::Get) {
            return;
        }
        if let Some(sh) = &sym.shadow {
            self.trace_read_slow(sh, src_pe, start, dst.len());
        }
        self.counters()
            .count_get(src_pe != self.pe, 8 * dst.len() as u64);
        sym.bufs[src_pe].load_slice(start, dst);
    }

    /// Contiguous one-sided store (`shmem_putmem`).
    pub fn put_slice_f64(&self, sym: &SymF64, dst_pe: usize, start: usize, src: &[f64]) {
        if self.transfer_fault(PeOp::Put) {
            return;
        }
        if let Some(sh) = &sym.shadow {
            self.trace_write_slow(sh, dst_pe, start, src.len());
        }
        self.counters()
            .count_put(dst_pe != self.pe, 8 * src.len() as u64);
        sym.bufs[dst_pe].store_slice(start, src);
    }

    /// One instrumented borrow: the caller is about to reach words `words`
    /// of PE `pe`'s partition of each of `syms` as plain memory
    /// ([`SharedF64Vec::as_cells`]) instead of through the accessors above.
    /// Each op of `ops` ([`PeOp::Get`] to read them, else [`PeOp::Put`]) is
    /// what one accessor call is: a fault point, the race trace over the
    /// range, and `messages` transfers of `bytes` bytes on the counters. A
    /// borrow cannot stop the caller: under a fault it still moves its
    /// words, and the PE fails at its next barrier. With no fault plan and
    /// no detector attached, the fault point and the trace cost one branch.
    #[inline]
    pub fn borrow(
        &self,
        syms: &[&SymF64],
        pe: usize,
        words: std::ops::Range<usize>,
        ops: &[PeOp],
        messages: u64,
        bytes: u64,
    ) {
        if self.world.observed {
            for &op in ops {
                self.transfer_fault(op);
                for sh in syms.iter().filter_map(|sym| sym.shadow.as_deref()) {
                    if op == PeOp::Get {
                        self.trace_read_slow(sh, pe, words.start, words.len());
                    } else {
                        self.trace_write_slow(sh, pe, words.start, words.len());
                    }
                }
            }
        }
        let (counters, remote) = (self.counters(), pe != self.pe);
        for &op in ops {
            if op == PeOp::Get {
                counters.count_gets(remote, messages, bytes);
            } else {
                counters.count_puts(remote, messages, bytes);
            }
        }
    }

    /// All-reduce sum over one f64 contribution per PE
    /// (`shmem_double_sum_to_all`), each PE depositing its partial in an
    /// explicit scratch slot. Collective.
    ///
    /// Partials combine with the canonical pairwise-tree association of
    /// [`svsim_types::numeric::pairwise_sum`], so a sum over per-partition
    /// contributions is bit-identical to the same sum evaluated on one PE.
    /// Under a remapped layout a PE's partial belongs at the slot of the
    /// logical subcube it holds, not at its own rank; callers must supply a
    /// permutation of `0..n_pes` (one distinct slot per PE) so the pairwise
    /// combine runs over logically ordered partials.
    ///
    /// # Errors
    /// What either of its two barriers returns
    /// ([`try_barrier_all`](Self::try_barrier_all)).
    pub fn sum_reduce_f64_at(&self, slot: usize, x: f64) -> SvResult<f64> {
        self.world.coll.store(slot, x);
        self.try_barrier_all()?;
        let partials: Vec<f64> = (0..self.world.n_pes)
            .map(|p| self.world.coll.load(p))
            .collect();
        let total = svsim_types::numeric::pairwise_sum(&partials);
        self.try_barrier_all()?; // protect the scratch slots from the next collective
        Ok(total)
    }
}

/// Result of an SPMD job: per-PE return values, the traffic profile and
/// the symmetric heap the PEs left behind.
#[derive(Debug)]
pub struct JobOutput<T> {
    /// Per-PE results, indexed by rank.
    pub results: Vec<T>,
    /// Per-PE traffic, indexed by rank.
    pub traffic: Vec<TrafficSnapshot>,
    /// Every collective allocation of the job, in call order, holding what
    /// the PEs left in it (see [`SpmdOutput::heap`]).
    pub heap: Vec<SymF64>,
}

impl<T> JobOutput<T> {
    /// Aggregate traffic over all PEs.
    #[must_use]
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.traffic
            .iter()
            .fold(TrafficSnapshot::default(), |acc, s| acc.merged(s))
    }
}

/// Per-PE results of a fault-aware SPMD job: every PE yields an
/// `Ok(value)` or a typed error describing how it failed. Peers of a
/// failed PE shut down cleanly (no resume-unwinding) and report their own
/// view of the failure.
#[derive(Debug)]
pub struct SpmdOutput<T> {
    /// Per-PE outcome, indexed by rank.
    pub results: Vec<SvResult<T>>,
    /// Per-PE traffic, indexed by rank.
    pub traffic: Vec<TrafficSnapshot>,
    /// Per-PE OS process ids on the process backend (the pid that produced
    /// each PE's final result — a respawned PE reports its replacement's
    /// pid, survivors their original fork's). Empty on the thread backend.
    pub pids: Vec<i32>,
    /// In-place respawns the supervisor performed, in order. Empty on the
    /// thread backend or when respawn is disabled.
    pub respawns: Vec<RespawnEvent>,
    /// What the race detector saw ([`WorldOptions::detect_races`]): every
    /// pair of one-sided accesses from different PEs to one word in one
    /// barrier epoch, at least one a write. Empty when detection is off.
    pub races: Vec<RaceReport>,
    /// The world's collective allocations, in call order (the last run of
    /// the body's, after a respawn), as the PEs left them: how the launch's
    /// caller reads the symmetric heap once every PE has joined. Thread PEs'
    /// buffers simply outlive the world; process PEs' are windows into the
    /// still-mapped arena, which is unmapped when the last of them drops.
    /// What a failed PE left there is whatever it had written when it
    /// stopped: read it only after [`into_result`](Self::into_result) is
    /// `Ok`.
    pub heap: Vec<SymF64>,
}

/// How informative an error is when picking the root cause of a job
/// failure: an injected/typed PE death (or a watchdog-confirmed hang)
/// beats a primary panic message, which beats a secondary "my peer
/// poisoned the barrier" / bounded-wait-expired report.
fn error_rank(e: &SvError) -> u8 {
    match e {
        SvError::PeFailed { .. } | SvError::PeHung { .. } => 0,
        SvError::Shmem(msg) if msg.contains("poisoned") => 2,
        SvError::BarrierTimeout { .. } => 2,
        _ => 1,
    }
}

impl<T> SpmdOutput<T> {
    /// The root-cause failure, if any PE failed. Prefers typed
    /// [`SvError::PeFailed`] over panic messages over secondary
    /// poison-observation reports.
    #[must_use]
    pub fn first_failure(&self) -> Option<&SvError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .min_by_key(|e| error_rank(e))
    }

    /// Collapse into an all-or-nothing [`JobOutput`]: `Ok` when every PE
    /// succeeded, otherwise the root-cause error.
    ///
    /// # Errors
    /// The most informative per-PE failure (see
    /// [`first_failure`](Self::first_failure)).
    pub fn into_result(self) -> SvResult<JobOutput<T>> {
        if let Some(e) = self.first_failure() {
            return Err(e.clone());
        }
        Ok(JobOutput {
            results: self
                .results
                .into_iter()
                .map(|r| r.expect("checked above"))
                .collect(),
            traffic: self.traffic,
            heap: self.heap,
        })
    }

    /// Aggregate traffic over all PEs.
    #[must_use]
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.traffic
            .iter()
            .fold(TrafficSnapshot::default(), |acc, s| acc.merged(s))
    }
}

impl<T> SpmdOutput<SvResult<T>> {
    /// Fold each PE's body-returned error into its outcome, so a fallible
    /// SPMD body's failures — outer (the PE failed, or panicked) and
    /// inner (the body returned `Err`, e.g. a poisoned barrier observed
    /// through [`ShmemCtx::try_barrier_all`]) — rank together in
    /// [`first_failure`](Self::first_failure) /
    /// [`into_result`](Self::into_result).
    #[must_use]
    pub fn flatten(self) -> SpmdOutput<T> {
        SpmdOutput {
            results: self
                .results
                .into_iter()
                .map(|r| r.and_then(|b| b))
                .collect(),
            traffic: self.traffic,
            pids: self.pids,
            respawns: self.respawns,
            races: self.races,
            heap: self.heap,
        }
    }
}

/// Convert a caught PE panic payload — a bug, never an expected failure —
/// into a typed error that keeps its message.
fn classify_panic(pe: usize, payload: &(dyn std::any::Any + Send)) -> SvError {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    SvError::Shmem(format!("PE {pe} panicked: {msg}"))
}

/// How [`launch_world`] sets a world up: what its PEs run on, the faults
/// injected into it, and whether the race detector watches it.
#[derive(Debug, Clone, Default)]
pub struct WorldOptions {
    /// Threads of this process (the default) or forked OS processes
    /// ([`crate::proc`]).
    pub backend: ShmemBackend,
    /// Arena, result-slot, barrier-wait and supervisor tuning of process
    /// PEs; unread on threads.
    pub process: ProcOptions,
    /// Injected-fault schedule, consulted at every PE's fault points. Its
    /// counts outlive the launch, so a plan shared by successive launches
    /// (a checkpointed run's segments) keeps counting across them.
    pub faults: Option<Arc<FaultPlan>>,
    /// Arm the dynamic race detector: every symmetric allocation gets
    /// shadow state, every one-sided access and borrow is recorded, and
    /// protocol violations come back in [`SpmdOutput::races`] instead of
    /// failing the job. Composes with fault injection, which is the point:
    /// an injected fault surfaces as a typed per-PE error while a genuine
    /// protocol bug surfaces as a race report. Thread PEs only: the shadow
    /// state is in-process and cannot cross a `fork`.
    pub detect_races: bool,
}

/// Launch an SPMD job over `n_pes` PEs (the `shmem_init` + fork analog) on
/// the world `opts` describe, reporting per-PE outcomes.
///
/// Every PE runs `body` with its own [`ShmemCtx`]. A PE that fails (an
/// injected fault, a real death) or panics poisons the barrier so its peers
/// fail fast, and its failure comes back as a typed error in
/// [`SpmdOutput::results`]: healthy PEs still return `Ok`, and nobody
/// deadlocks. The body's return type crosses a
/// process boundary on forked PEs, so it must implement [`Wire`].
///
/// # Errors
/// [`SvError::InvalidConfig`] when `n_pes == 0`, when the race detector is
/// asked for on process PEs, or for more PEs than it tracks
/// ([`crate::race::MAX_TRACKED_PES`]); [`SvError::Shmem`] when a process
/// world's arena cannot be created or a fork fails. Per-PE failures are
/// reported in [`SpmdOutput::results`], not as a top-level error.
pub fn launch_world<T, F>(n_pes: usize, opts: &WorldOptions, body: F) -> SvResult<SpmdOutput<T>>
where
    T: Wire + Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    let world = World::new(n_pes, opts)?;
    match &world.substrate {
        Substrate::Thread { .. } => Ok(run_threads(world, body)),
        Substrate::Process(pw) => {
            let pw = pw.clone();
            crate::proc::run_processes(world, &pw, opts, body)
        }
    }
}

/// [`launch_world`] on thread PEs with no faults and no detector, collapsed
/// to all-or-nothing: the root-cause failure is returned as `Err`, and the
/// body's return type needs no [`Wire`] encoding.
///
/// # Errors
/// [`SvError::InvalidConfig`] when `n_pes == 0`; [`SvError::PeFailed`] or
/// [`SvError::Shmem`] when a PE fails.
pub fn launch<T, F>(n_pes: usize, body: F) -> SvResult<JobOutput<T>>
where
    T: Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    run_threads(World::new(n_pes, &WorldOptions::default())?, body).into_result()
}

/// Run `body` on one thread of this process per PE of `world`.
fn run_threads<T, F>(world: World, body: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    let results = std::thread::scope(|scope| {
        let (world, body) = (&world, &body);
        let handles: Vec<_> = (0..world.n_pes)
            .map(|pe| scope.spawn(move || world.run_pe(pe, body)))
            .collect();
        // Threads never unwind: the harness catches every panic.
        handles
            .into_iter()
            .map(|h| h.join().expect("PE thread cannot unwind"))
            .collect()
    });
    world.output(results, Vec::new(), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The substrates a shared scenario runs on: the same SPMD body, the
    /// same fault plan, the same assertions.
    const BOTH: [ShmemBackend; 2] = [ShmemBackend::Thread, ShmemBackend::Process];

    /// A scenario's world on `backend`, with `faults`.
    fn launch_on<T, F>(
        backend: ShmemBackend,
        n_pes: usize,
        faults: Option<Arc<FaultPlan>>,
        body: F,
    ) -> SpmdOutput<T>
    where
        T: Wire + Send,
        F: Fn(&ShmemCtx<'_>) -> T + Sync,
    {
        let process = ProcOptions {
            heap_words_per_pe: 1 << 12,
            result_bytes_per_pe: 1 << 12,
            barrier_timeout_ms: 20_000,
            ..ProcOptions::default()
        };
        let opts = WorldOptions {
            backend,
            process,
            faults,
            detect_races: false,
        };
        launch_world(n_pes, &opts, body).expect("launch")
    }

    /// A thread world under the race detector.
    fn detected() -> WorldOptions {
        WorldOptions {
            detect_races: true,
            ..WorldOptions::default()
        }
    }

    #[test]
    fn ranks_and_world_size() {
        for on in BOTH {
            let out = launch_on(on, 4, None, |ctx| (ctx.my_pe(), ctx.n_pes()))
                .into_result()
                .unwrap();
            for (pe, &(rank, n)) in out.results.iter().enumerate() {
                assert_eq!((rank, n), (pe, 4), "{on:?}");
            }
        }
    }

    #[test]
    fn zero_pes_rejected() {
        assert!(launch(0, |_| ()).is_err());
    }

    #[test]
    fn symmetric_heap_ring_exchange() {
        // Each PE writes its rank into its right neighbor's partition, then
        // reads its own slot.
        for on in BOTH {
            let out = launch_on(on, 4, None, |ctx| {
                let sym = ctx.malloc_f64(1).expect("alloc");
                let right = (ctx.my_pe() + 1) % ctx.n_pes();
                ctx.put_f64(&sym, right, 0, ctx.my_pe() as f64);
                ctx.try_barrier_all().expect("barrier");
                ctx.get_f64(&sym, ctx.my_pe(), 0)
            })
            .into_result()
            .unwrap();
            assert_eq!(out.results, vec![3.0, 0.0, 1.0, 2.0], "{on:?}");
            // The counters outlive the PEs on either substrate, and so does
            // the heap: every allocation, read after the join.
            assert_eq!(out.total_traffic().remote_puts, 4, "{on:?}");
            assert_eq!(out.heap.len(), 1, "{on:?}");
            for (pe, &v) in out.results.iter().enumerate() {
                assert_eq!(out.heap[0].partition(pe).load(0), v, "{on:?}");
            }
        }
    }

    #[test]
    fn traffic_is_classified() {
        let out = launch(2, |ctx| {
            let sym = ctx.malloc_f64(4).expect("alloc");
            // one local put, one remote put, one remote get
            ctx.put_f64(&sym, ctx.my_pe(), 0, 1.0);
            ctx.put_f64(&sym, 1 - ctx.my_pe(), 1, 2.0);
            ctx.try_barrier_all().expect("barrier");
            ctx.get_f64(&sym, 1 - ctx.my_pe(), 0)
        })
        .unwrap();
        let agg = out.total_traffic();
        assert_eq!(agg.local_puts, 2);
        assert_eq!(agg.remote_puts, 2);
        assert_eq!(agg.remote_gets, 2);
        assert_eq!(agg.remote_bytes(), 2 * 8 + 2 * 8);
        assert_eq!(out.results, vec![1.0, 1.0]);
    }

    #[test]
    fn multiple_allocations_slices_and_order() {
        for on in BOTH {
            let out = launch_on(on, 2, None, |ctx| {
                let a = ctx.malloc_f64(2).expect("alloc");
                let b = ctx.malloc_f64(8).expect("alloc");
                if ctx.my_pe() == 0 {
                    ctx.put_slice_f64(&b, 1, 2, &[5.0, 6.0, 7.0]);
                }
                ctx.put_f64(&a, ctx.my_pe(), 0, 1.0 + ctx.my_pe() as f64);
                ctx.try_barrier_all().expect("barrier");
                let mut buf = vec![0.0; 3];
                ctx.get_slice_f64(&b, 1, 2, &mut buf);
                // `a` and `b` are distinct storage: b's slice did not
                // land in a, and a's word did not land in b.
                let a0 = ctx.get_f64(&a, ctx.my_pe(), 0);
                (
                    buf,
                    (a.len_per_pe(), b.len_per_pe()),
                    (a0, ctx.get_f64(&b, 1, 0)),
                )
            })
            .into_result()
            .unwrap();
            for (pe, (buf, lens, (a0, b0))) in out.results.iter().enumerate() {
                assert_eq!(buf, &[5.0, 6.0, 7.0], "{on:?}");
                assert_eq!(*lens, (2, 8), "{on:?}");
                assert_eq!((*a0, *b0), (1.0 + pe as f64, 0.0), "{on:?}");
            }
            // Slice ops count as one message each.
            assert_eq!(out.total_traffic().remote_puts, 1, "{on:?}");
        }
    }

    #[test]
    fn back_to_back_reductions_do_not_interfere() {
        for on in BOTH {
            let out = launch_on(on, 4, None, |ctx| {
                let pe = ctx.my_pe();
                let a = ctx.sum_reduce_f64_at(pe, pe as f64 + 1.0).expect("reduce");
                let b = ctx.sum_reduce_f64_at(pe, 2.0).expect("reduce");
                // Any permutation of the slots reduces to the same set
                // of partials.
                let c = ctx
                    .sum_reduce_f64_at((pe + 1) % ctx.n_pes(), pe as f64)
                    .expect("reduce");
                (a, b, c)
            })
            .into_result()
            .unwrap();
            for &sums in &out.results {
                assert_eq!(sums, (10.0, 8.0, 6.0), "{on:?}");
            }
        }
    }

    /// Collective call order violated two ways: PEs disagree on an
    /// allocation's size, and a PE looks up an allocation PE 0 never made.
    /// Both are typed errors on the offending PEs, never a hang or a panic.
    #[test]
    fn allocation_protocol_violations_are_typed_errors() {
        for on in BOTH {
            let out = launch_on(on, 3, None, |ctx| {
                let root = ctx.my_pe() == 0;
                let first = ctx.malloc_f64(if root { 4 } else { 8 });
                // PE 0 only synchronizes; its peers' second allocation
                // pairs with that barrier and finds nothing published.
                let second = if root {
                    ctx.try_barrier_all().map(|()| 0)
                } else {
                    ctx.malloc_f64(4).map(|sym| sym.len_per_pe())
                };
                let msg = |e: SvError| e.to_string();
                (
                    first.map(|sym| sym.len_per_pe()).map_err(msg),
                    second.map_err(msg),
                )
            })
            .into_result()
            .unwrap();
            assert_eq!(out.results[0], (Ok(4), Ok(0)), "{on:?}");
            for (first, second) in &out.results[1..] {
                let first = first.as_ref().unwrap_err();
                assert!(first.contains("size mismatch"), "{on:?}: {first}");
                let second = second.as_ref().unwrap_err();
                assert!(second.contains("never published"), "{on:?}: {second}");
            }
        }
    }

    #[test]
    fn panic_in_one_pe_becomes_typed_error() {
        // A PE panic no longer unwinds out of `launch`: the job returns a
        // typed error naming the failed PE, and peers stuck in the barrier
        // shut down cleanly instead of deadlocking.
        let err = launch(3, |ctx| {
            if ctx.my_pe() == 1 {
                panic!("PE 1 exploded");
            }
            // Peers head into a barrier that PE 1 never reaches.
            ctx.try_barrier_all()
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("PE 1 exploded"),
            "root cause should win over poison observations, got: {err}"
        );
    }

    #[test]
    fn per_pe_results_separate_victim_from_witnesses() {
        // Kill PE 2 at its 3rd put; every other PE must report the
        // poisoned barrier as an error, not hang or panic.
        let plan = Arc::new(FaultPlan::new().with(2, PeOp::Put, 3, FaultAction::Kill));
        let out = launch_on(ShmemBackend::Thread, 4, Some(plan), |ctx| {
            let sym = ctx.malloc_f64(4)?;
            for i in 0..4 {
                ctx.put_f64(&sym, (ctx.my_pe() + 1) % ctx.n_pes(), i, 1.0);
            }
            ctx.try_barrier_all()?;
            Ok::<_, SvError>(ctx.my_pe())
        });
        // The victim carries the typed fault as its run's outer Err: a PE
        // killed at an access is failed for the rest of its run, whatever
        // its body returns.
        assert_eq!(
            out.results[2].as_ref().unwrap_err(),
            &SvError::PeFailed {
                pe: 2,
                op: PeOp::Put
            }
        );
        for pe in [0usize, 1, 3] {
            match &out.results[pe] {
                Ok(Err(SvError::Shmem(msg))) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("PE {pe}: expected clean poison report, got {other:?}"),
            }
        }
    }

    /// All peers must observe a barrier poisoning in the *same* barrier
    /// epoch: a fault at the victim's Nth barrier fires at barrier entry
    /// (the victim never arrives), so nobody passes that barrier and every
    /// PE — victim included — still holds epoch N-1 when it sees the error.
    #[test]
    fn poisoning_is_observed_in_the_same_epoch_by_all_pes() {
        const N: usize = 4;
        const AT: u64 = 10;
        for on in BOTH {
            for action in [FaultAction::Kill, FaultAction::Poison] {
                let plan = Arc::new(FaultPlan::new().with(2, PeOp::Barrier, AT, action));
                let out = launch_on(on, N, Some(plan), |ctx| {
                    for _ in 0..32 {
                        if ctx.try_barrier_all().is_err() {
                            return ctx.barrier_epoch();
                        }
                    }
                    u64::MAX // fault never observed — fails the assertion below
                });
                // A killed process PE is really dead and reports nothing; on
                // every other path `try_barrier_all` keeps the PE alive.
                let victim_dies = on == ShmemBackend::Process && action == FaultAction::Kill;
                for (pe, r) in out.results.iter().enumerate() {
                    match r {
                        Ok(epoch) => assert_eq!(
                            *epoch,
                            AT - 1,
                            "{on:?} {action:?}: PE {pe} must stop at the epoch before the \
                             poisoned barrier"
                        ),
                        Err(SvError::PeFailed { pe: 2, .. }) if pe == 2 && victim_dies => {}
                        other => panic!("{on:?} {action:?}: PE {pe}: {other:?}"),
                    }
                }
                assert_eq!(out.results[2].is_err(), victim_dies, "{on:?} {action:?}");
            }
        }
    }

    /// Same epoch agreement when the victim propagates the barrier's
    /// error out of its body: the victim fails with a typed error while
    /// peers shut down cleanly — all in the same epoch, with no deadlock
    /// even though the victim never reaches its own poison report.
    #[test]
    fn killed_pe_and_survivors_agree_on_the_poisoned_epoch() {
        const AT: u64 = 5;
        let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, AT, FaultAction::Kill));
        let out = launch_on(ShmemBackend::Thread, 3, Some(plan), |ctx| {
            for _ in 0..16 {
                if ctx.my_pe() == 1 {
                    ctx.try_barrier_all()?; // fails at the injected fault
                } else if ctx.try_barrier_all().is_err() {
                    return Ok(ctx.barrier_epoch());
                }
            }
            Ok::<_, SvError>(u64::MAX)
        })
        .flatten();
        assert_eq!(
            out.results[1].as_ref().unwrap_err(),
            &SvError::PeFailed {
                pe: 1,
                op: PeOp::Barrier
            }
        );
        for pe in [0usize, 2] {
            assert_eq!(
                *out.results[pe].as_ref().unwrap(),
                AT - 1,
                "PE {pe} must observe the poisoning in the failed barrier's epoch"
            );
        }
    }

    /// Repeated launches under barrier poisoning must neither deadlock nor
    /// leak poisoned state into later worlds (each launch builds a fresh
    /// barrier).
    #[test]
    fn poisoned_worlds_do_not_contaminate_later_launches() {
        for round in 0..8u64 {
            let plan = Arc::new(FaultPlan::new().with(
                (round % 3) as usize,
                PeOp::Barrier,
                1 + round % 4,
                FaultAction::Poison,
            ));
            let out = launch_on(ShmemBackend::Thread, 3, Some(plan), |ctx| {
                for _ in 0..8 {
                    if ctx.try_barrier_all().is_err() {
                        return Err(ctx.barrier_epoch());
                    }
                }
                Ok(ctx.barrier_epoch())
            });
            // Exactly one consistent observation epoch across survivors.
            let epochs: Vec<u64> = out
                .results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|body| match body {
                    Ok(e) | Err(e) => *e,
                })
                .collect();
            assert!(!epochs.is_empty(), "round {round}: survivors must report");
            assert!(
                epochs.windows(2).all(|w| w[0] == w[1]),
                "round {round}: epoch disagreement {epochs:?}"
            );
            // A clean follow-up launch must work: no poison leaks across
            // worlds.
            let clean = launch(3, |ctx| {
                ctx.try_barrier_all().expect("barrier");
                ctx.my_pe()
            })
            .unwrap();
            assert_eq!(clean.results, vec![0, 1, 2]);
        }
    }

    #[test]
    fn fault_counts_accumulate_across_launches() {
        // A fault at the 5th barrier, run as two launches of 3 barriers
        // each (a checkpointed run's segments): it must fire in the second
        // launch, at the 2nd barrier (global count 5).
        for on in BOTH {
            let plan = Arc::new(FaultPlan::new().with(0, PeOp::Barrier, 5, FaultAction::Poison));
            let three_barriers = |ctx: &ShmemCtx<'_>| {
                for _ in 0..3 {
                    ctx.try_barrier_all()?;
                }
                Ok::<_, SvError>(())
            };
            let first = launch_on(on, 2, Some(Arc::clone(&plan)), three_barriers).flatten();
            assert!(first.first_failure().is_none(), "{on:?}: {first:?}");
            assert_eq!(plan.armed_remaining(), 1, "{on:?}");
            let second = launch_on(on, 2, Some(Arc::clone(&plan)), three_barriers).flatten();
            match second.first_failure() {
                Some(SvError::PeFailed { pe: 0, .. }) => {}
                other => panic!("{on:?}: expected PE 0 barrier fault in launch 2, got {other:?}"),
            }
            assert_eq!(plan.armed_remaining(), 0, "{on:?}");
        }
    }

    /// The property the model checker proves for `proto::fault::Check`,
    /// exercised through the routine both substrates share: a wildcard
    /// one-shot that every PE races to trigger fires on exactly one of
    /// them, and stays disarmed in the next launch of the same plan.
    #[test]
    fn wildcard_one_shot_fires_exactly_once_on_both_substrates() {
        const N: usize = 8;
        const PUTS: usize = 64;
        let hammer = |ctx: &ShmemCtx<'_>| {
            let sym = ctx.malloc_f64(PUTS)?;
            let right = (ctx.my_pe() + 1) % ctx.n_pes();
            for i in 0..PUTS {
                ctx.put_f64(&sym, right, i, 1.0);
            }
            // A dropped put surfaces here, on the PE that lost it.
            ctx.try_barrier_all()
        };
        for on in BOTH {
            for at in [1, 100, (N * PUTS) as u64] {
                let plan = Arc::new(FaultPlan::new().with(None, PeOp::Put, at, FaultAction::Drop));
                let out = launch_on(on, N, Some(Arc::clone(&plan)), hammer);
                let fired = out
                    .results
                    .iter()
                    .filter(|r| matches!(r, Ok(Err(SvError::PeFailed { op: PeOp::Put, .. }))))
                    .count();
                assert_eq!(fired, 1, "{on:?} at {at}: {:?}", out.results);
                assert_eq!(plan.armed_remaining(), 0, "{on:?} at {at}");
                let again = launch_on(on, N, Some(Arc::clone(&plan)), hammer).flatten();
                assert!(again.first_failure().is_none(), "{on:?} at {at}: {again:?}");
            }
        }
    }

    /// A borrow is an accessor call without the data movement: it counts
    /// what it is told to (a read-modify-write of 4 words of the right
    /// neighbour's partition, as two messages each way), and under a
    /// dropped `Put` the words the caller then writes through the partition
    /// still land, while the PE fails at its next barrier and poisons it
    /// for its peer — on both substrates.
    #[test]
    fn a_borrow_counts_and_a_dropped_one_still_moves_its_words() {
        let rmw = [PeOp::Get, PeOp::Put];
        for on in BOTH {
            let plan = Arc::new(FaultPlan::new().with(1, PeOp::Put, 1, FaultAction::Drop));
            let out = launch_on(on, 2, Some(plan), |ctx| {
                let sym = ctx.malloc_f64(8)?;
                let right = 1 - ctx.my_pe();
                ctx.borrow(&[&sym], right, 2..6, &rmw, 2, 16);
                sym.partition(right)
                    .store_slice(2, &[1.0 + ctx.my_pe() as f64; 4]);
                ctx.try_barrier_all()
            });
            let t = &out.traffic[0];
            assert_eq!((t.remote_gets, t.remote_puts), (2, 2), "{on:?}");
            assert_eq!((t.remote_get_bytes, t.remote_put_bytes), (32, 32), "{on:?}");
            match &out.results[0] {
                Ok(Err(SvError::Shmem(msg))) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("{on:?}: PE 0: {other:?}"),
            }
            let failed = SvError::PeFailed {
                pe: 1,
                op: PeOp::Put,
            };
            assert!(
                matches!(&out.results[1], Ok(Err(e)) if *e == failed),
                "{on:?}: {:?}",
                out.results
            );
            let mut moved = [0.0; 4];
            out.heap[0].partition(0).load_slice(2, &mut moved);
            assert_eq!(moved, [2.0; 4], "{on:?}: the dropped borrow's words");
        }
    }

    /// A fault at a one-sided access on thread PEs is a value, not an
    /// unwind. For `Kill`, `Poison`, `Hang` and `Drop` at PE 1's first
    /// `Put`, through `put_f64` and through `borrow`: the accessor returns
    /// and the body's next statement runs; the next barrier is
    /// `PeFailed { pe: 1, op: Put }` on PE 1 and the poisoned report on its
    /// peer; `into_result` names the `PeFailed`. A killed (poisoned, hung)
    /// PE is failed for the rest of its run, so its run's own result is
    /// the failure and its later puts count toward no spec; a dropped
    /// transfer fails the next barrier only. With no barrier after the
    /// fault, the PE's run fails all the same.
    #[test]
    fn access_faults_are_values_at_the_next_barrier() {
        let failed = SvError::PeFailed {
            pe: 1,
            op: PeOp::Put,
        };
        let actions = [
            FaultAction::Kill,
            FaultAction::Poison,
            FaultAction::Hang,
            FaultAction::Drop,
        ];
        for (action, through_borrow) in actions.into_iter().flat_map(|a| [(a, false), (a, true)]) {
            let what = format!("{action:?}, borrow: {through_borrow}");
            let dead = action != FaultAction::Drop;
            // The fault at PE 1's first put; a spec at its second that only
            // fires if that put still counts.
            let plan = || {
                let plan = FaultPlan::new().with(1, PeOp::Put, 1, action);
                Arc::new(plan.with(1, PeOp::Put, 2, FaultAction::Delay(0)))
            };
            let put = |ctx: &ShmemCtx<'_>, sym: &SymF64| {
                let pe = ctx.my_pe();
                if through_borrow {
                    ctx.borrow(&[sym], pe, 0..1, &[PeOp::Put], 1, 8);
                } else {
                    ctx.put_f64(sym, pe, 0, 1.0);
                }
            };
            let reached = Mutex::new(Vec::new());
            let barriers = Mutex::new(vec![None, None]);
            let with_barrier = plan();
            let out = launch_on(
                ShmemBackend::Thread,
                2,
                Some(Arc::clone(&with_barrier)),
                |ctx| {
                    let sym = ctx.malloc_f64(4)?;
                    put(ctx, &sym);
                    reached.lock().unwrap().push(ctx.my_pe());
                    put(ctx, &sym);
                    let barrier = ctx.try_barrier_all();
                    barriers.lock().unwrap()[ctx.my_pe()] = Some(barrier.clone());
                    barrier.map(|()| ctx.my_pe())
                },
            );
            let mut reached = reached.into_inner().unwrap();
            reached.sort_unstable();
            assert_eq!(reached, [0, 1], "{what}: every body went on past its put");
            let barriers = barriers.into_inner().unwrap();
            match &barriers[0] {
                Some(Err(SvError::Shmem(msg))) => {
                    assert!(msg.contains("poisoned"), "{what}: {msg}")
                }
                other => panic!("{what}: PE 0's barrier: {other:?}"),
            }
            assert_eq!(
                barriers[1],
                Some(Err(failed.clone())),
                "{what}: PE 1's barrier"
            );
            assert_eq!(out.results[1].is_err(), dead, "{what}: {:?}", out.results);
            let armed = usize::from(dead);
            assert_eq!(with_barrier.armed_remaining(), armed, "{what}");
            let root = out.flatten().into_result().map(|_| ()).unwrap_err();
            assert_eq!(root, failed, "{what}");

            let out = launch_on(ShmemBackend::Thread, 2, Some(plan()), |ctx| {
                let sym = ctx.malloc_f64(4)?;
                put(ctx, &sym);
                Ok::<_, SvError>(7u64)
            });
            assert_eq!(out.results[0], Ok(Ok(7)), "{what}: no barrier after it");
            assert_eq!(
                out.results[1],
                Err(failed.clone()),
                "{what}: no barrier after it"
            );
        }
    }

    /// One data-plane accessor in [`every_accessor_faults_traces_and_counts`]:
    /// a read (`Get`) or a write (`Put`) of 16 bytes (8 for the one-word
    /// calls) at word 0 of a PE's partition.
    type Accessor = (&'static str, PeOp, u64, fn(&ShmemCtx<'_>, &SymF64, usize));

    /// Every one-sided accessor, and the borrow a partitioned walk accounts
    /// through, is instrumented: PE 1's first call under a `Drop` spec on
    /// its op fails PE 1's next barrier as `PeFailed`; under the detector, a
    /// conflicting access of the same word by PE 0 in the same epoch is
    /// reported; and one remote and one local call count one op each of
    /// their kind, and their bytes.
    #[test]
    fn every_accessor_faults_traces_and_counts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let accessors: [Accessor; 6] = [
            ("get_f64", PeOp::Get, 8, |ctx, sym, pe| {
                let _ = ctx.get_f64(sym, pe, 0);
            }),
            ("put_f64", PeOp::Put, 8, |ctx, sym, pe| {
                ctx.put_f64(sym, pe, 0, 1.0);
            }),
            ("get_slice_f64", PeOp::Get, 16, |ctx, sym, pe| {
                ctx.get_slice_f64(sym, pe, 0, &mut [0.0; 2]);
            }),
            ("put_slice_f64", PeOp::Put, 16, |ctx, sym, pe| {
                ctx.put_slice_f64(sym, pe, 0, &[1.0; 2]);
            }),
            ("borrow to read", PeOp::Get, 16, |ctx, sym, pe| {
                ctx.borrow(&[sym], pe, 0..2, &[PeOp::Get], 1, 16);
            }),
            ("borrow to write", PeOp::Put, 16, |ctx, sym, pe| {
                ctx.borrow(&[sym], pe, 0..2, &[PeOp::Put], 1, 16);
            }),
        ];
        for (name, op, bytes, access) in accessors {
            let plan = FaultPlan::new().with(1, op, 1, FaultAction::Drop);
            let faulted = WorldOptions {
                faults: Some(Arc::new(plan)),
                ..WorldOptions::default()
            };
            let out = launch_world(2, &faulted, |ctx| {
                let sym = ctx.malloc_f64(4)?;
                if ctx.my_pe() == 1 {
                    access(ctx, &sym, 0);
                }
                ctx.try_barrier_all()
            })
            .expect("launch");
            let failed = SvError::PeFailed { pe: 1, op };
            assert_eq!(out.results[1], Ok(Err(failed)), "{name}: fault point");

            // PE 0 goes first, so PE 1's access is the one that sees the
            // conflict, and only if it is traced.
            let peer_done = AtomicBool::new(false);
            let out = launch_world(2, &detected(), |ctx| {
                let sym = ctx.malloc_f64(4)?;
                if ctx.my_pe() == 0 {
                    if op == PeOp::Get {
                        ctx.put_f64(&sym, 0, 0, 2.0);
                    } else {
                        let _ = ctx.get_f64(&sym, 0, 0);
                    }
                    peer_done.store(true, Ordering::Release);
                } else {
                    while !peer_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    access(ctx, &sym, 0);
                }
                ctx.try_barrier_all()
            })
            .expect("launch");
            assert!(out.first_failure().is_none(), "{name}: {:?}", out.results);
            assert!(
                out.races
                    .iter()
                    .any(|r| (r.owner_pe, r.index, r.second.pe) == (0, 0, 1)),
                "{name}: race trace: {:?}",
                out.races
            );

            let out = launch(2, |ctx| {
                let sym = ctx.malloc_f64(4).expect("alloc");
                if ctx.my_pe() == 1 {
                    access(ctx, &sym, 0);
                    access(ctx, &sym, 1);
                }
            })
            .expect("launch");
            let t = &out.traffic[1];
            let (gets, puts) = if op == PeOp::Get { (1, 0) } else { (0, 1) };
            assert_eq!(
                (t.local_gets, t.remote_gets, t.local_puts, t.remote_puts),
                (gets, gets, puts, puts),
                "{name}: counter"
            );
            assert_eq!(
                (t.remote_get_bytes, t.remote_put_bytes),
                (gets * bytes, puts * bytes),
                "{name}: counted bytes"
            );
        }
    }

    #[test]
    fn detected_launch_clean_protocol_reports_nothing() {
        // The ring exchange from `symmetric_heap_put_get` is disciplined:
        // disjoint writes, then a barrier, then reads.
        let out = launch_world(4, &detected(), |ctx| {
            let sym = ctx.malloc_f64(1).expect("alloc");
            let right = (ctx.my_pe() + 1) % ctx.n_pes();
            ctx.put_f64(&sym, right, 0, ctx.my_pe() as f64);
            ctx.try_barrier_all().expect("barrier");
            ctx.get_f64(&sym, ctx.my_pe(), 0)
        })
        .unwrap();
        assert!(out.races.is_empty(), "{:?}", out.races);
        assert_eq!(out.into_result().unwrap().results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn detected_launch_flags_unsynchronized_slice_overlap() {
        use crate::race::ConflictKind;
        let out = launch_world(2, &detected(), |ctx| {
            let sym = ctx.malloc_f64(8).expect("alloc");
            // Both PEs store an overlapping slice into PE 0 with no barrier
            // in between: words 0..3 and 2..5 collide on word 2.
            let start = 2 * ctx.my_pe();
            ctx.put_slice_f64(&sym, 0, start, &[1.0; 3]);
            ctx.try_barrier_all().expect("barrier");
        })
        .unwrap();
        assert!(out.first_failure().is_none(), "{:?}", out.results);
        assert!(!out.races.is_empty(), "overlap must be detected");
        for r in &out.races {
            assert_eq!(r.kind, ConflictKind::WriteWrite);
            assert_eq!(r.owner_pe, 0);
            assert_eq!(r.index, 2, "the overlap is exactly word 2");
        }
    }

    #[test]
    fn detected_launch_is_epoch_aware_across_allocations() {
        let out = launch_world(2, &detected(), |ctx| {
            let a = ctx.malloc_f64(2).expect("alloc");
            let b = ctx.malloc_f64(2).expect("alloc");
            // Same word of *different* arrays in the same epoch: no race.
            ctx.put_f64(&a, 0, ctx.my_pe(), 1.0);
            ctx.put_f64(&b, 0, 1 - ctx.my_pe(), 1.0);
            ctx.try_barrier_all().expect("barrier");
            // Same word of the same array in *different* epochs: no race.
            ctx.put_f64(&a, 0, 0, f64::from(ctx.my_pe() as u32));
            ctx.try_barrier_all().expect("barrier");
        })
        .unwrap();
        assert!(out.first_failure().is_none(), "{:?}", out.results);
        // The second phase writes word 0@PE0 from both PEs in the same
        // epoch — that IS a race; everything else is clean.
        assert_eq!(out.races.len(), 1, "{:?}", out.races);
        assert_eq!(out.races[0].index, 0);
    }

    /// The detector's shadow state is in-process: asked for on process PEs,
    /// the world refuses typed before it forks, naming the backend that
    /// supports it.
    #[test]
    fn race_detection_on_process_pes_is_a_typed_config_error() {
        let opts = WorldOptions {
            backend: ShmemBackend::Process,
            ..detected()
        };
        match launch_world(2, &opts, |ctx| ctx.my_pe()) {
            Err(SvError::InvalidConfig(msg)) => {
                assert!(msg.contains("thread backend"), "actionable message: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
