//! The step interpreter: the one loop that executes a lowered segment.
//!
//! The paper's framework is `for t in circuit { circuit[t].exe_op(sv);
//! sync }` (Listings 3-5), and that is `interpret` here: every backend, and
//! every trial of a sweep template ([`crate::batch`]), walks the same
//! `PlanSegment` step stream through it with the same kernels. What the
//! backends differ in sits behind the private `Fabric` trait — a worker's
//! share of a kernel's work items, the sync after a kernel, the
//! measure/reset collapse and the relabeling exchange — with two
//! instances: `Solo` (a single device: full ranges over a
//! [`crate::view::LocalView`], no sync) and `Worker` (one PE of the SHMEM
//! world, for scale-up and scale-out alike: its slice of every kernel, then
//! the world barrier — the cooperative multi-grid sync of Listing 4 and the
//! `shmem_barrier_all` of Listing 5 are the same call here).
//!
//! A `Worker` reaches `sv[i]` as plain memory unless the launch observes
//! individual words (`run_partitioned`). A **partition-local** kernel
//! ([`crate::traffic::partition_local`]) — the large majority on any circuit
//! wider than the PE count — runs on the PE's own slab, a [`LocalView`] of
//! its partition, and the PE's counters are credited once for the whole
//! kernel with exactly what the backend's view would have counted. A kernel
//! that touches a qubit at or above the partition boundary goes through that
//! view — the peer table ([`PeerView`], scale-up) or the symmetric arrays
//! ([`ShmemView`], scale-out) — which lends each contiguous run of the
//! kernel's share from whichever partition owns it and credits the counters
//! per run. The barrier after either is the same barrier, and which of the
//! two a kernel takes is decided by index arithmetic when the walker binds
//! the segment, never by an option. An observed launch has no slab and its
//! views lend nothing: every access of every kernel is one counted, traced,
//! fault-checked word.

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::{resolve, KernelFn};
use crate::kernels::{worker_range, GateArgs};
use crate::measure;
use crate::plan::PlanSegment;
use crate::remap::QubitLayout;
use crate::sim::{BackendKind, RunSummary, SimConfig};
use crate::state::StateVector;
use crate::traffic::{kernel_access_patterns, partition_local};
use crate::view::{LocalView, PeerView, Plane, ShmemView, StateView};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use svsim_ir::Gate;
use svsim_shmem::{
    FaultPlan, PeCounters, ProcOptions, RaceDetector, SharedF64Vec, ShmemBackend, ShmemCtx, SymF64,
};
use svsim_types::{SvError, SvResult};

/// How gates are bound to kernels at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchMode {
    /// Resolve kernel function pointers once at upload (the paper's CUDA
    /// device-function-pointer design, Listing 1).
    #[default]
    PreloadedFnPointer,
    /// Parse and branch per gate at every execution (the HIP/MI100
    /// fallback, §3.2.1). Re-parsing is gate by gate, so the lowering never
    /// fuses under this mode ([`crate::plan`]).
    RuntimeParse,
}

/// One executable step of a lowered segment, in execution order. Compiled
/// kernels live in one flat contiguous queue (the paper's device-resident
/// circuit buffer); steps reference ranges of it. `op` is the index in
/// `Circuit::ops()` of the op the step's kernels came from.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Unitary kernels run unconditionally: one source gate (`raw` kept
    /// for the runtime-parse mode), or — `raw: None` — a fused run of
    /// adjacent gates ([`crate::fuse`]) whose `compiled` is one
    /// window-sweep kernel and whose `op` is the first constituent's
    /// source op.
    Gate {
        op: usize,
        raw: Option<Gate>,
        compiled: Range<usize>,
    },
    /// Projective measurement using pre-drawn random `r_idx`. Under a
    /// remapped schedule `layout` is the planner's block-preserving
    /// snapshot and `qubit` is LOGICAL; the collapse targets its physical
    /// position.
    Measure {
        qubit: u32,
        cbit: u32,
        r_idx: usize,
        layout: Option<QubitLayout>,
    },
    /// Reset using pre-drawn random `r_idx` (`qubit`/`layout` as for
    /// `Measure`); `x` is the one queue entry holding the X that restores
    /// `|0>` when the outcome is 1, compiled at the physical position.
    Reset {
        op: usize,
        qubit: u32,
        r_idx: usize,
        layout: Option<QubitLayout>,
        x: Range<usize>,
    },
    /// Conditioned gate.
    IfEq {
        op: usize,
        creg_lo: u32,
        creg_len: u32,
        value: u64,
        raw: Gate,
        compiled: Range<usize>,
    },
    /// One relabeling slab exchange of physical positions `(lo, hi)`
    /// (remapped scale-out only). Unconditional even next to conditional
    /// steps — it is pure data movement, and all workers must reach the
    /// exchange barriers together.
    Exchange { lo: u32, hi: u32 },
}

impl Step {
    /// Source op and queue range of the kernels this step may run (`None`
    /// for steps that run none).
    pub(crate) fn kernels(&self) -> Option<(usize, &Range<usize>)> {
        match self {
            Self::Gate { op, compiled, .. }
            | Self::IfEq { op, compiled, .. }
            | Self::Reset {
                op, x: compiled, ..
            } => Some((*op, compiled)),
            Self::Measure { .. } | Self::Exchange { .. } => None,
        }
    }

    /// The queue range of [`Self::kernels`], for rebasing onto a rewritten
    /// queue.
    pub(crate) fn kernels_mut(&mut self) -> Option<&mut Range<usize>> {
        match self {
            Self::Gate { compiled, .. }
            | Self::IfEq { compiled, .. }
            | Self::Reset { x: compiled, .. } => Some(compiled),
            Self::Measure { .. } | Self::Exchange { .. } => None,
        }
    }
}

#[inline]
fn cond_holds(cbits: u64, lo: u32, len: u32, value: u64) -> bool {
    let mask = if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    ((cbits >> lo) & mask) == value
}

/// A kernel on a PE's own slab: the [`LocalView`] instance of the kernel and
/// the amplitude accesses one PE's share of it makes (`items x patterns`,
/// each one load and one store) — what [`Slab::run`] credits in bulk.
type OnSlab<'s> = (KernelFn<LocalView<'s>>, u64);

/// Kernels a walker ran on its slab, and through its fabric's view.
type KernelsRun = (usize, usize);

/// One kernel bound for a walker: through the fabric's view and, if the
/// fabric's workers own a slab each and the kernel is partition-local, on
/// the slab.
type Bound<'s, V> = (KernelFn<V>, Option<OnSlab<'s>>);

fn bind<'s, V: StateView>(cg: &CompiledGate, n_qubits: u32, slab_pes: Option<u64>) -> Bound<'s, V> {
    let on_slab = slab_pes
        .filter(|&n_pes| partition_local(cg, n_qubits, n_pes))
        .map(|n_pes| {
            let patterns = kernel_access_patterns(cg).0.len() as u64;
            let accesses = cg.args.work / n_pes * patterns;
            (resolve::<LocalView>(cg.id), accesses)
        });
    (resolve::<V>(cg.id), on_slab)
}

/// A segment's kernels bound for one walker: the preloaded pointer table,
/// or the raw gates re-parsed at every execution.
struct Kernels<'a, V: StateView> {
    queue: &'a [CompiledGate],
    /// The fn-pointer path binds every kernel pointer once, up front — the
    /// analog of preloading the device-function symbols; one flat pointer
    /// table parallel to the flat compiled queue, nothing copied per gate.
    /// Empty under [`DispatchMode::RuntimeParse`].
    uploaded: Vec<Bound<'a, V>>,
    config: &'a SimConfig,
    n_qubits: u32,
    /// How many workers own a slab each ([`Fabric::slab`]), if any: what
    /// decides which kernels are also bound for the slab.
    slab_pes: Option<u64>,
    scratch: Vec<CompiledGate>,
}

impl<'a, V: StateView> Kernels<'a, V> {
    fn new(
        seg: &'a PlanSegment,
        config: &'a SimConfig,
        n_qubits: u32,
        slab_pes: Option<u64>,
    ) -> Self {
        let uploaded = match config.dispatch {
            DispatchMode::PreloadedFnPointer => seg
                .queue
                .iter()
                .map(|c| bind(c, n_qubits, slab_pes))
                .collect(),
            DispatchMode::RuntimeParse => Vec::new(),
        };
        Self {
            queue: &seg.queue,
            uploaded,
            config,
            n_qubits,
            slab_pes,
            scratch: Vec::new(),
        }
    }

    /// Hand `apply` each kernel of one step, in order: `queue[compiled]`
    /// through the preloaded table, or — under runtime parsing, for a step
    /// that kept its `raw` gate — whatever re-parsing `raw` yields now.
    #[inline]
    fn each(
        &mut self,
        raw: Option<&Gate>,
        compiled: &Range<usize>,
        mut apply: impl FnMut(Bound<'a, V>, &GateArgs),
    ) {
        match raw.filter(|_| self.config.dispatch == DispatchMode::RuntimeParse) {
            Some(raw) => {
                self.scratch.clear();
                compile_gate(
                    raw,
                    self.n_qubits,
                    self.config.specialized,
                    &mut self.scratch,
                );
                for cg in &self.scratch {
                    apply(bind(cg, self.n_qubits, self.slab_pes), &cg.args);
                }
            }
            None => {
                for k in compiled.clone() {
                    let cg = &self.queue[k];
                    let bound = match self.uploaded.get(k) {
                        Some(b) => *b,
                        None => bind(cg, self.n_qubits, self.slab_pes),
                    };
                    apply(bound, &cg.args);
                }
            }
        }
    }
}

/// What differs between the backends while they walk a segment; everything
/// else is [`interpret`]. Monomorphized per instance, so the per-kernel path
/// stays one direct call through a [`KernelFn`].
trait Fabric {
    /// How a kernel reaches `sv[i]`.
    type View: StateView;
    fn view(&self) -> &Self::View;
    /// This worker's share of a kernel's `work` items.
    fn share(&self, work: u64) -> Range<u64>;
    /// The sync after a kernel or a collapse.
    fn sync(&self);
    /// Probability that `qubit` reads 1, summed on the canonical tree of
    /// [`svsim_types::numeric`] so every fabric agrees bit-for-bit.
    /// `layout` is the step's snapshot, if it has one (`Step::Measure`).
    fn prob_one(&self, qubit: u32, layout: Option<&QubitLayout>) -> f64;
    /// Project `qubit` onto `outcome` and rescale by `inv_sqrt_p`.
    fn rescale(&self, qubit: u32, layout: Option<&QubitLayout>, outcome: u8, inv_sqrt_p: f64);
    /// One relabeling slab exchange of physical positions `(lo, hi)`.
    fn exchange(&self, lo: u32, hi: u32);
    /// This worker's own slab, if it runs partition-local kernels there
    /// instead of through [`Self::view`]. A single device has none: its
    /// view already is plain memory.
    fn slab(&self) -> Option<&Slab<'_>> {
        None
    }
}

/// A single device: full ranges, nothing to synchronize or relabel.
struct Solo<'a>(LocalView<'a>);

impl<'a> Fabric for Solo<'a> {
    type View = LocalView<'a>;
    fn view(&self) -> &Self::View {
        &self.0
    }
    fn share(&self, work: u64) -> Range<u64> {
        0..work
    }
    fn sync(&self) {}
    fn prob_one(&self, qubit: u32, _: Option<&QubitLayout>) -> f64 {
        measure::prob_one_view(&self.0, qubit, self.0.dim())
    }
    fn rescale(&self, qubit: u32, _: Option<&QubitLayout>, outcome: u8, inv_sqrt_p: f64) {
        crate::kernels::collapse_pairs(&self.0, qubit, outcome, inv_sqrt_p, 0..self.0.dim() / 2);
    }
    fn exchange(&self, _: u32, _: u32) {
        unreachable!("no relabeling on a single device")
    }
}

/// A PE's own partition as plain memory, and the bookkeeping that keeps a
/// kernel run there indistinguishable from one issued access by access.
struct Slab<'a> {
    view: LocalView<'a>,
    n_pes: u64,
    counters: &'a PeCounters,
    /// Counter ops the issuing view spends on one amplitude access: a
    /// [`ShmemView`] moves two 8-byte words (re, im), a counted
    /// [`PeerView`] counts the amplitude once.
    ops_per_access: u64,
}

impl<'a> Slab<'a> {
    /// Run this PE's share of a partition-local kernel: items
    /// `0..work / n_pes` at slab-local indices are the words
    /// `worker_range(work, n_pes, pe)` reaches through the global view
    /// ([`partition_local`]). Then credit what that view would have counted.
    fn run(&self, (kernel, accesses): OnSlab<'a>, args: &GateArgs) {
        kernel(&self.view, args, 0..args.work / self.n_pes);
        self.counters
            .credit(false, accesses * self.ops_per_access, 0);
    }
}

/// One PE of a partitioned backend: its SHMEM context (rank, world size,
/// barrier, reduce), the symmetric arrays it owns a partition of, the
/// staging buffers of a segment that relabels, and its slab — unless the
/// launch observes individual words ([`run_partitioned`]).
struct Pe<'a> {
    ctx: &'a ShmemCtx<'a>,
    re: &'a SymF64,
    im: &'a SymF64,
    xch: Option<&'a (SymF64, SymF64)>,
    slab: Option<Slab<'a>>,
}

impl Pe<'_> {
    /// This PE's partition and the global index of its first amplitude.
    fn partition(&self) -> (&SharedF64Vec, &SharedF64Vec, u64) {
        let pe = self.ctx.my_pe();
        let (re, im) = (self.re.partition(pe), self.im.partition(pe));
        (re, im, (pe * re.len()) as u64)
    }
}

/// A PE walking a segment, its kernels reaching the state through `view` —
/// all that scale-up and scale-out differ in.
struct Worker<'a, V> {
    me: &'a Pe<'a>,
    view: &'a V,
}

impl<V: StateView> Fabric for Worker<'_, V> {
    type View = V;
    fn view(&self) -> &V {
        self.view
    }
    fn share(&self, work: u64) -> Range<u64> {
        let ctx = self.me.ctx;
        worker_range(work, ctx.n_pes() as u64, ctx.my_pe() as u64)
    }
    /// One barrier per kernel — a fused kernel's whole run included. Safe:
    /// windows are disjoint and each worker owns a disjoint window
    /// sub-range, so no cross-worker dataflow exists inside the sweep (same
    /// argument as any two-qubit kernel).
    fn sync(&self) {
        self.me.ctx.barrier_all();
    }
    /// The partition's partial, combined pairwise across workers: each
    /// partial is a subtree node of the canonical probability tree, so the
    /// sum matches the single-device one bit-for-bit. Under a
    /// block-preserving snapshot layout the partition holds the logical
    /// subcube whose top value indexes the reduce slot, and the partial
    /// walks it in logical order so the tree is the single-device logical
    /// tree; without a snapshot the layout is identity and the slot is the
    /// worker rank.
    fn prob_one(&self, qubit: u32, layout: Option<&QubitLayout>) -> f64 {
        let ctx = self.me.ctx;
        let (re, im, base) = self.me.partition();
        let rank = ctx.my_pe();
        let (partial, slot) = match layout {
            Some(lay) => {
                let n_qubits = self.view.dim().trailing_zeros();
                let boundary = n_qubits - ctx.n_pes().trailing_zeros();
                let mut slot = 0usize;
                for j in 0..(n_qubits - boundary) {
                    slot |= ((rank >> (lay.phys(boundary + j) - boundary)) & 1) << j;
                }
                let logical_base = (slot as u64) << boundary;
                let low_pos: Vec<u32> = (0..boundary).map(|k| lay.phys(k)).collect();
                let partial =
                    measure::partial_prob_one_mapped(re, im, logical_base, &low_pos, qubit);
                (partial, slot)
            }
            None => (
                measure::partial_prob_one_partition(re, im, base, qubit),
                rank,
            ),
        };
        ctx.sum_reduce_f64_at(slot, partial)
    }
    fn rescale(&self, qubit: u32, layout: Option<&QubitLayout>, outcome: u8, inv_sqrt_p: f64) {
        let (re, im, base) = self.me.partition();
        let phys = layout.map_or(qubit, |lay| lay.phys(qubit));
        measure::collapse_partition(re, im, base, phys, outcome, inv_sqrt_p);
    }
    fn exchange(&self, lo: u32, hi: u32) {
        let Pe {
            ctx, re, im, xch, ..
        } = self.me;
        let (xr, xi) = xch.expect("a segment that relabels has staging buffers");
        ShmemView::new(ctx, re, im).exchange_pair(lo, hi, xr, xi);
    }
    fn slab(&self) -> Option<&Slab<'_>> {
        self.me.slab.as_ref()
    }
}

/// Execute one lowered segment on `fabric`: every kernel of every step over
/// this worker's share, then the fabric's sync. `randoms` are the segment's
/// pre-drawn measurement draws (`seg.n_rand` of them, taken up front in
/// step order so every backend consumes the RNG identically) and
/// `initial_cbits` carries the classical register across checkpoint
/// segments; returns the register afterwards and how many kernels ran where
/// ([`KernelsRun`]).
fn interpret<'a, F: Fabric>(
    fabric: &'a F,
    seg: &'a PlanSegment,
    config: &'a SimConfig,
    randoms: &[f64],
    initial_cbits: u64,
) -> SvResult<(u64, KernelsRun)> {
    let mut cbits = initial_cbits;
    let (on_slab_runs, view_runs) = (Cell::new(0usize), Cell::new(0usize));
    let bump = |count: &Cell<usize>| count.set(count.get() + 1);
    let n_qubits = fabric.view().dim().trailing_zeros();
    let slab = fabric.slab();
    let mut kernels = Kernels::<F::View>::new(seg, config, n_qubits, slab.map(|s| s.n_pes));
    let run = |(kernel, on_slab): Bound<'a, F::View>, args: &GateArgs| {
        match (slab, on_slab) {
            (Some(slab), Some(local)) => {
                slab.run(local, args);
                bump(&on_slab_runs);
            }
            _ => {
                kernel(fabric.view(), args, fabric.share(args.work));
                bump(&view_runs);
            }
        }
        fabric.sync();
    };
    let collapse = |qubit: u32, layout: Option<&QubitLayout>, r: f64| -> SvResult<u8> {
        let p1 = fabric.prob_one(qubit, layout);
        let outcome = u8::from(r < p1);
        let p = if outcome == 1 { p1 } else { 1.0 - p1 };
        if p < 1e-300 {
            return Err(SvError::Numeric(format!(
                "collapse of qubit {qubit} with probability ~0"
            )));
        }
        fabric.rescale(qubit, layout, outcome, 1.0 / p.sqrt());
        fabric.sync();
        Ok(outcome)
    };
    for step in &seg.steps {
        match step {
            Step::Exchange { lo, hi } => fabric.exchange(*lo, *hi),
            Step::Gate { raw, compiled, .. } => kernels.each(raw.as_ref(), compiled, run),
            Step::IfEq {
                creg_lo,
                creg_len,
                value,
                raw,
                compiled,
                ..
            } => {
                // All workers hold identical cbits, so they branch
                // identically — no divergence across the barrier.
                if cond_holds(cbits, *creg_lo, *creg_len, *value) {
                    kernels.each(Some(raw), compiled, run);
                }
            }
            Step::Measure {
                qubit,
                cbit,
                r_idx,
                layout,
            } => {
                let outcome = collapse(*qubit, layout.as_ref(), randoms[*r_idx])?;
                cbits = (cbits & !(1u64 << cbit)) | (u64::from(outcome) << cbit);
            }
            Step::Reset {
                qubit,
                r_idx,
                layout,
                x,
                ..
            } => {
                // The X restoring |0>.
                if collapse(*qubit, layout.as_ref(), randoms[*r_idx])? == 1 {
                    kernels.each(None, x, run);
                }
            }
        }
    }
    Ok((cbits, (on_slab_runs.get(), view_runs.get())))
}

/// Run one lowered segment on a single device — also how a sweep template
/// runs a trial ([`crate::batch`]).
pub(crate) fn run_solo(
    state: &mut StateVector,
    seg: &PlanSegment,
    config: &SimConfig,
    randoms: &[f64],
    initial_cbits: u64,
) -> SvResult<u64> {
    let (re, im) = state.parts_mut();
    let solo = Solo(LocalView::new(re, im));
    Ok(interpret(&solo, seg, config, randoms, initial_cbits)?.0)
}

/// What a PE hands back from [`run_partitioned`]'s body: the classical
/// register and its kernel counts, then its partition's real and imaginary
/// planes.
type PeResult = ((u64, KernelsRun), Vec<f64>, Vec<f64>);

/// Partitioned execution of one lowered segment: SPMD over SHMEM PEs, each
/// owning one partition of the symmetric-heap state vector. Both
/// distributed backends run this one body and differ only in how a kernel
/// reaches `sv[i]`:
///
/// - **scale-up** (§3.2.2): a [`PeerView`] over the symmetric arrays'
///   partitions — the peer pointer table, plain loads and stores. Always
///   thread PEs (devices of one process).
/// - **scale-out** (§3.2.3): a [`ShmemView`] — one-sided `get`/`put`
///   through the ctx. Only a scale-out segment relabels (`Step::Exchange`),
///   so only it allocates the exchange staging buffers.
///
/// On both, every partition is plain memory for the walk (`shmem_ptr`,
/// [`SharedF64Vec::as_cells`]): a partition-local kernel runs on the PE's own
/// slab and the view's counts are credited per kernel, any other kernel
/// borrows its runs from the owning partitions through the view, credited
/// per run (module docs) — unless the launch *observes individual words*:
/// under the race detector, or a fault plan holding a `Put` / `Get` spec
/// ([`FaultPlan::observes_transfers`]), nothing is lent and every access of
/// every kernel is issued through the view's instrumented accessors so it
/// can be recorded, counted or dropped.
///
/// The segment's classical bits, per-worker traffic, race reports,
/// exchange count, respawn count and PE 0's slab-kernel and word-kernel
/// counts accumulate into `summary` (`summary.cbits` is also the segment's
/// initial classical register).
///
/// `faults` is threaded into the SHMEM world on either backend; if any
/// worker dies (injected or real), the barrier is poisoned, the whole
/// segment fails with a typed error and `state` is left untouched at its
/// pre-segment contents — exactly what checkpoint/restart needs.
///
/// The remaining knobs are scale-out only. With
/// [`SimConfig::detect_races`] the launch runs under a fresh
/// [`RaceDetector`]: every one-sided access is recorded against
/// epoch-scoped shadow state, and any access-protocol violations come back
/// in the summary without failing the run. The detector records accesses
/// through in-process `Arc` shadow state, so it requires the thread
/// backend.
///
/// A segment lowered with [`SimConfig::remap`] carries
/// [`Step::Exchange`] steps — bulk slab exchanges that relabel
/// partition-index qubit positions below the boundary so the gates
/// themselves run PE-local — and its final layout; readback un-permutes the
/// state, so results are indistinguishable from the naive schedule.
///
/// [`SimConfig::shmem_backend`] chooses the substrate: thread-backed PEs or
/// process-backed PEs forked over a shared `memfd` symmetric heap. The same
/// SPMD body runs on both; results are bit-identical.
/// [`SimConfig::respawn_max`] and [`SimConfig::hang_deadline_ms`] configure
/// the process backend's supervisor. The body scatters from the
/// segment-initial amplitudes, so a respawned (or re-run) PE reproduces its
/// partition bit-identically.
pub(crate) fn run_partitioned(
    state: &mut StateVector,
    seg: &PlanSegment,
    config: &SimConfig,
    randoms: &[f64],
    faults: Option<Arc<FaultPlan>>,
    summary: &mut RunSummary,
) -> SvResult<()> {
    let scale_out = matches!(config.backend, BackendKind::ScaleOut { .. });
    let process = scale_out && config.shmem_backend == ShmemBackend::Process;
    if config.detect_races && process {
        return Err(SvError::InvalidConfig(
            "race detection requires the thread backend: the detector's shadow \
             state is in-process and cannot observe forked PEs"
                .into(),
        ));
    }
    let n_pes = config.backend.n_workers();
    let per_pe = state.dim() / n_pes;
    let initial_cbits = summary.cbits;
    let (init_re, init_im) = (state.re(), state.im());

    let detector = if scale_out && config.detect_races {
        Some(RaceDetector::new(n_pes)?)
    } else {
        None
    };
    let per_word = detector.is_some() || faults.as_ref().is_some_and(|p| p.observes_transfers());
    let body = |ctx: &ShmemCtx<'_>| -> SvResult<PeResult> {
        let pe = ctx.my_pe();
        let sym_re = ctx.malloc_f64(per_pe)?;
        let sym_im = ctx.malloc_f64(per_pe)?;
        // Exchange staging buffers, only if the segment has relabeling
        // swaps (collective allocation: the segment is identical on every
        // PE).
        let xch = if seg.n_swaps > 0 {
            Some((ctx.malloc_f64(per_pe / 2)?, ctx.malloc_f64(per_pe / 2)?))
        } else {
            None
        };
        // Local initialization of this PE's slice (host scatter).
        sym_re
            .partition(pe)
            .store_slice(0, &init_re[pe * per_pe..(pe + 1) * per_pe]);
        sym_im
            .partition(pe)
            .store_slice(0, &init_im[pe * per_pe..(pe + 1) * per_pe]);
        ctx.try_barrier_all()?;

        let (re, im, xch) = (&sym_re, &sym_im, xch.as_ref());
        // `shmem_ptr`: unless the launch observes words, every partition is
        // plain memory for the length of the walk, and the state vector is
        // reached no other way. The walk keeps one owner per amplitude per
        // barrier epoch: a kernel's share under `worker_range` touches
        // amplitudes no other PE's share does (`traffic::partition_local`
        // for the slab; for a boundary kernel the index sets the analyzer
        // proves disjoint, its `ProvenSafe` verdict), a collapse touches the
        // PE's own partition, an exchange the PE's own words and staging
        // words written for it alone, and `interpret` passes the world
        // barrier after every kernel, collapse and exchange epoch. That
        // barrier is an acquire-release arrival by every PE and then, by
        // each, an acquire of the last arriver's release (`BarrierSm`,
        // driven by `barrier::wait_epoch`), so each plain access of one
        // epoch happens-before every access of the next, by whichever PE
        // and through whichever accessor; the scatter above and the gather
        // below are fenced by `try_barrier_all` the same way.
        // SAFETY: `as_cells` asks that no word be accessed through the cells
        // while another thread or process writes it without a happens-before
        // edge in between. One owner per amplitude per epoch and the
        // barrier's release/acquire edge between epochs (above) are that;
        // the cells never leave this PE's walk.
        #[allow(unsafe_code)]
        let lent: Option<Vec<Plane<'_>>> = (!per_word).then(|| {
            let parts = re.partitions().iter().zip(im.partitions());
            parts
                .map(|(re, im)| unsafe { (re.as_cells(), im.as_cells()) })
                .collect()
        });
        let lent = lent.as_deref();
        let slab = lent.map(|lent| Slab {
            view: LocalView::over(lent[pe]),
            n_pes: n_pes as u64,
            counters: ctx.counters(),
            ops_per_access: if scale_out { 2 } else { 1 },
        });
        let me = &Pe {
            ctx,
            re,
            im,
            xch,
            slab,
        };
        let (cbits, (on_slab, through_view)) = if scale_out {
            let view = &ShmemView::new(ctx, re, im).lending(lent);
            interpret(&Worker { me, view }, seg, config, randoms, initial_cbits)
        } else {
            let counters = Some(ctx.counters());
            let view = &PeerView::new(re.partitions(), im.partitions(), pe, counters).lending(lent);
            interpret(&Worker { me, view }, seg, config, randoms, initial_cbits)
        }?;
        ctx.try_barrier_all()?;
        let by_word = if per_word { through_view } else { 0 };
        Ok((
            (cbits, (on_slab, by_word)),
            sym_re.partition(pe).to_vec(),
            sym_im.partition(pe).to_vec(),
        ))
    };
    let out = if process {
        // Symmetric heap: re + im (per_pe each) plus the optional pair of
        // half-partition exchange staging buffers; result slot: the two
        // returned partition vectors plus cbits/tag overhead.
        let opts = ProcOptions {
            respawn_max: config.respawn_max,
            hang_deadline_ms: u64::from(config.hang_deadline_ms),
            ..ProcOptions::sized_for(3 * per_pe + 64, 2 * per_pe + 64)
        };
        svsim_shmem::launch_process(n_pes, &opts, faults, body)?
    } else if let Some(det) = &detector {
        svsim_shmem::launch_detected(n_pes, faults, Arc::clone(det), body)?
    } else {
        svsim_shmem::launch_with_faults(n_pes, faults, body)?
    };

    // A PE death aborts the segment before any readback: the caller's
    // state vector still holds the pre-segment amplitudes. `into_result`
    // picks the typed root cause over secondary "peer poisoned the
    // barrier" reports, whether the PE died or its body returned the error.
    let respawns = out.respawns.len();
    let out = out.flatten().into_result()?;
    let (re, im) = state.parts_mut();
    for (pe, ((cbits, (on_slab, by_word)), pre, pim)) in out.results.into_iter().enumerate() {
        if pe == 0 {
            summary.cbits = cbits;
            summary.slab_kernels += on_slab;
            summary.word_kernels += by_word;
        }
        re[pe * per_pe..(pe + 1) * per_pe].copy_from_slice(&pre);
        im[pe * per_pe..(pe + 1) * per_pe].copy_from_slice(&pim);
    }
    // The remapped run left the state in the final physical layout;
    // restore logical order host-side (no fabric traffic).
    if let Some(layout) = &seg.final_layout {
        crate::remap::unpermute_state(layout, re, im);
    }
    summary.absorb_traffic(out.traffic);
    if let Some(det) = detector {
        summary.races.extend(det.take_reports());
    }
    summary.remap_swaps += seg.n_swaps;
    summary.respawns += respawns;
    Ok(())
}
