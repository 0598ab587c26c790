//! The step interpreter: the one loop that executes a lowered segment.
//!
//! The paper's framework is `for t in circuit { circuit[t].exe_op(sv);
//! sync }` (Listings 3-5), and that is `interpret` here: every backend, and
//! every trial of a sweep template ([`crate::batch`]), walks the same
//! `PlanSegment` step stream through it with the same kernels. What the
//! backends differ in sits behind the private `Fabric` trait — a worker's
//! share of a kernel's work items, the sync after a kernel, the memory a
//! collapse sums and rescales and the reduction that combines its partial,
//! and the relabeling exchange — with two instances: `Solo` (a single
//! device: full ranges over a [`crate::view::LocalView`], no sync) and
//! `Worker` (one PE of the SHMEM
//! world, for scale-up and scale-out alike: its slice of every kernel, then
//! the world barrier — the cooperative multi-grid sync of Listing 4 and the
//! `shmem_barrier_all` of Listing 5 are the same call here).
//!
//! A `Worker` reaches `sv[i]` as plain memory (`run_partitioned`). A
//! **partition-local** kernel ([`crate::traffic::partition_local`]) — the
//! large majority on any circuit wider than the PE count — runs on the PE's
//! own slab, a [`LocalView`] of its partition, accounted for once for the
//! whole kernel. A kernel that touches a qubit at or above the partition
//! boundary goes through a lending [`ShmemView`] over the symmetric arrays,
//! which lends each contiguous run of the kernel's share from whichever
//! partition owns it, accounted for per run. On both backends every account
//! is one [`ShmemCtx::borrow`]: a fault point, the race detector's trace
//! over the range and the counters, so a launch under a fault plan or the
//! detector walks exactly this walk. The backends differ only in how a
//! borrow counts an amplitude: scale-up one 16-byte access (a peer load or
//! store of the complex amplitude), scale-out two 8-byte words. The barrier
//! after either kind of kernel is the same barrier, and which of the two a
//! kernel takes is decided by index arithmetic when the walker binds the
//! segment, never by an option. A single device's slab is its whole state.
//!
//! **Tile-major execution** is the same argument one level down, and the
//! lowering has already made it ([`crate::plan`]): a segment lists its tile
//! runs — consecutive kernels that pair amplitudes inside one aligned tile
//! only, as a partition-local kernel pairs them inside one partition — and
//! the sub-runs inside them at the next, narrower width. The walker decides
//! nothing about them. On its slab it sweeps a run tile by tile — every kernel
//! of the run over tile 0 while it sits in cache, then over tile 1, each
//! sub-run the same way over the sub-tiles of a tile — which gives every
//! amplitude the same kernels in the same order with the same operands, so
//! the bits cannot differ; the whole run is accounted for once, with what
//! its kernels would have counted one by one. The run is followed by one
//! sync, where the plan puts its barrier: no kernel of the run leaves the
//! PE's partition.
//!
//! **Zero tiles.** Nothing outside a tile reaches it during a run, so a tile
//! whose words are all `+0.0` when the run reaches it leaves the run as it
//! entered if every kernel of the run maps `+0.0` words to `+0.0` words —
//! which the lowering decides per run from the kernels' own bodies
//! (`TileRun::keeps_zero`). The slab walk skips such a tile, and such a
//! sub-tile of a sub-run, and still accounts for every kernel of the run:
//! the counters count the footprint the traffic model predicts. A tile
//! holding a `-0.0` is not a zero tile.

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::{resolve, KernelFn};
use crate::kernels::{worker_range, GateArgs};
use crate::measure;
use crate::plan::{PlanSegment, TileRun};
use crate::remap::QubitLayout;
use crate::sim::{BackendKind, RunSummary, SimConfig};
use crate::state::StateVector;
use crate::traffic::partition_local;
use crate::view::{LocalView, Plane, Shape, ShmemView, StateView};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use svsim_ir::Gate;
use svsim_shmem::{FaultPlan, ProcOptions, RaceDetector, ShmemBackend, ShmemCtx, SymF64};
use svsim_types::{PeOp, SvError, SvResult};

/// How gates are bound to kernels at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchMode {
    /// Resolve kernel function pointers once at upload (the paper's CUDA
    /// device-function-pointer design, Listing 1).
    #[default]
    PreloadedFnPointer,
    /// Parse and branch per gate at every execution (the HIP/MI100
    /// fallback, §3.2.1).
    RuntimeParse,
}

/// One executable step of a lowered segment, in execution order. Compiled
/// kernels live in one flat contiguous queue (the paper's device-resident
/// circuit buffer); steps reference ranges of it. `op` is the index in
/// `Circuit::ops()` of the op the step's kernels came from.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Unitary kernels run unconditionally: one source gate (`raw` kept
    /// for the runtime-parse mode).
    Gate {
        op: usize,
        raw: Gate,
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
    /// exchange barrier together.
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

/// A kernel on a walker's own slab.
#[derive(Clone, Copy)]
struct OnSlab<'s> {
    /// The [`LocalView`] instance of the kernel.
    kernel: KernelFn<LocalView<'s>>,
    /// The amplitude accesses one walker's share of it makes (`items x
    /// footprint`, each one load and one store): what the slab accounts for.
    accesses: u64,
}

/// What a walker counts of one segment: the kernels it ran on its slab, and
/// the tile and sub-tile sweeps it skipped as all `+0.0` ([`tile_major`]).
type WalkCounts = (usize, usize);

/// One kernel bound for a walker: through the fabric's view and, if the
/// kernel is partition-local, on the walker's slab.
type Bound<'s, V> = (KernelFn<V>, Option<OnSlab<'s>>);

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
    /// The walker's slab ([`Fabric::slab`]).
    slab: &'a Slab<'a>,
    scratch: Vec<CompiledGate>,
}

impl<'a, V: StateView> Kernels<'a, V> {
    fn new(seg: &'a PlanSegment, config: &'a SimConfig, n_qubits: u32, slab: &'a Slab<'a>) -> Self {
        let mut kernels = Self {
            queue: &seg.queue,
            uploaded: Vec::new(),
            config,
            n_qubits,
            slab,
            scratch: Vec::new(),
        };
        if config.dispatch == DispatchMode::PreloadedFnPointer {
            kernels.uploaded = seg.queue.iter().map(|cg| kernels.bind(cg)).collect();
        }
        kernels
    }

    /// Bind `cg` for this walker: on its slab too if `cg` is
    /// partition-local.
    fn bind(&self, cg: &CompiledGate) -> Bound<'a, V> {
        let n_pes = self.slab.n_pes;
        let on_slab = partition_local(cg, self.n_qubits, n_pes).then(|| OnSlab {
            kernel: resolve::<LocalView>(cg.id),
            accesses: cg.args.work / n_pes * u64::from(cg.args.n_offs),
        });
        (resolve::<V>(cg.id), on_slab)
    }

    /// Kernel `k` of the segment's queue — through the preloaded table, if
    /// there is one — and its arguments, which outlive the walk.
    #[inline]
    fn queued(&self, k: usize) -> (Bound<'a, V>, &'a GateArgs) {
        let cg = &self.queue[k];
        let bound = self.uploaded.get(k).copied();
        (bound.unwrap_or_else(|| self.bind(cg)), &cg.args)
    }

    /// Hand `apply` each kernel of one step, in order: `queue[compiled]`
    /// ([`Self::queued`]), or — under runtime parsing, for a step that kept
    /// its `raw` gate — whatever re-parsing `raw` yields now.
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
                    apply(self.bind(cg), &cg.args);
                }
            }
            None => {
                for k in compiled.clone() {
                    let (bound, args) = self.queued(k);
                    apply(bound, args);
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
    /// The sum of every walker's `partial` of one collapse, combined on the
    /// canonical tree of [`svsim_types::numeric`], where this walker's sits
    /// at leaf `slot`.
    fn reduce(&self, slot: usize, partial: f64) -> f64;
    /// One relabeling slab exchange of physical positions `(lo, hi)`.
    fn exchange(&self, lo: u32, hi: u32);
    /// This walker's own memory as plain memory: where it runs
    /// partition-local kernels instead of through [`Self::view`], and what
    /// a collapse sums and rescales.
    fn slab(&self) -> &Slab<'_>;
}

/// A single device: full ranges, nothing to synchronize or relabel. The
/// whole state is its slab — the one partition of one, nothing accounted.
struct Solo<'a>(Slab<'a>);

impl<'a> Fabric for Solo<'a> {
    type View = LocalView<'a>;
    fn view(&self) -> &Self::View {
        &self.0.view
    }
    fn share(&self, work: u64) -> Range<u64> {
        0..work
    }
    fn sync(&self) {}
    fn reduce(&self, _: usize, partial: f64) -> f64 {
        partial
    }
    fn exchange(&self, _: u32, _: u32) {
        unreachable!("no relabeling on a single device")
    }
    fn slab(&self) -> &Slab<'_> {
        &self.0
    }
}

/// A walker's own memory as plain memory — a PE's partition, or all of a
/// single device's state — and the bookkeeping that keeps a kernel run there
/// indistinguishable from one issued access by access.
struct Slab<'a> {
    view: LocalView<'a>,
    /// The global index of its first amplitude.
    base: u64,
    /// How many such slabs make up the state.
    n_pes: u64,
    /// Account for `n` amplitude accesses about to be made here as the
    /// backend's view would: on a PE one [`ShmemCtx::borrow`] of its whole
    /// partition, on one device nothing.
    lend: &'a dyn Fn(u64),
}

impl<'a> Slab<'a> {
    /// Run this walker's share of a partition-local kernel: items
    /// `0..work / n_pes` at slab-local indices are the words
    /// `worker_range(work, n_pes, pe)` reaches through the global view
    /// ([`partition_local`]).
    fn run(&self, on: OnSlab<'a>, args: &GateArgs) {
        (self.lend)(on.accesses);
        (on.kernel)(&self.view, args, 0..args.work / self.n_pes);
    }
}

/// Sweep `run` tile-major over `view` in tiles of `2^run.width` amplitudes.
/// Over one tile, each of its sub-runs sweeps that tile the same way one
/// sub-tile at a time, and every other kernel sweeps the whole tile: items
/// `0..work >> (n_qubits - width)` at tile-local indices, [`Slab::run`]'s
/// argument one level down. Then the next tile. Tiles share no amplitude, so
/// every amplitude meets the same kernels in the same order with the same
/// operands as kernel-major.
///
/// A tile (or sub-tile) whose words are all `+0.0` when a run that
/// [keeps zero](TileRun::keeps_zero) reaches it is skipped: every kernel of
/// the run would leave it so, bit for bit. Returns how many were skipped.
fn tile_major<'a>(
    view: &LocalView<'a>,
    run: &TileRun,
    n_qubits: u32,
    kernel: &impl Fn(usize) -> (OnSlab<'a>, &'a GateArgs),
) -> usize {
    let width = run.width;
    let mut skipped = 0;
    for tile in 0..view.dim() >> width {
        let view = view.tile(tile, width);
        if run.keeps_zero && view.is_zero() {
            skipped += 1;
            continue;
        }
        let mut inner = run.inner.iter().peekable();
        let mut k = run.kernels.start;
        while k < run.kernels.end {
            if let Some(sub) = inner.next_if(|sub| sub.kernels.start == k) {
                skipped += tile_major(&view, sub, n_qubits, kernel);
                k = sub.kernels.end;
            } else {
                let (on, args) = kernel(k);
                (on.kernel)(&view, args, 0..args.work >> (n_qubits - width));
                k += 1;
            }
        }
    }
    skipped
}

/// One PE of a partitioned backend walking a segment: its SHMEM context
/// (rank, world size, barrier, reduce), the symmetric arrays it owns a
/// partition of, the lending view its kernels reach the state through, and
/// its slab.
struct Worker<'a> {
    ctx: &'a ShmemCtx<'a>,
    re: &'a SymF64,
    im: &'a SymF64,
    view: &'a ShmemView<'a, 'a>,
    slab: Slab<'a>,
}

impl<'a> Fabric for Worker<'a> {
    type View = ShmemView<'a, 'a>;
    fn view(&self) -> &Self::View {
        self.view
    }
    fn share(&self, work: u64) -> Range<u64> {
        worker_range(work, self.ctx.n_pes() as u64, self.ctx.my_pe() as u64)
    }
    /// The world barrier, wherever the plan puts one: after each kernel
    /// outside a tile run, after each tile run, and after each collapse. A
    /// tile run's kernels never leave the PE's partition.
    fn sync(&self) {
        self.ctx.barrier_all();
    }
    /// Each partial is a subtree node of the canonical probability tree, so
    /// the pairwise sum across workers matches the single-device one
    /// bit-for-bit.
    fn reduce(&self, slot: usize, partial: f64) -> f64 {
        self.ctx.sum_reduce_f64_at(slot, partial)
    }
    /// One epoch that swaps in place; `exchange_pair`'s last two
    /// arguments are unused, so the state's own arrays fill them.
    fn exchange(&self, lo: u32, hi: u32) {
        self.view.exchange_pair(lo, hi, self.re, self.im);
    }
    fn slab(&self) -> &Slab<'_> {
        &self.slab
    }
}

/// Execute one lowered segment on `fabric`: every kernel of every step over
/// this worker's share, then the fabric's sync. `randoms` are the segment's
/// pre-drawn measurement draws (`seg.n_rand` of them, taken up front in
/// step order so every backend consumes the RNG identically) and
/// `initial_cbits` carries the classical register across checkpoint
/// segments; returns the register afterwards and what the walker counted
/// ([`WalkCounts`]).
///
/// **Tile runs.** The segment's tile runs ([`TileRun`], decided by the
/// lowering) run as they stand, each followed by one sync: on the slab,
/// tile-major ([`tile_major`]), skipping the tiles a run keeps all `+0.0`.
/// Only preloaded segments hold any.
fn interpret<'a, F: Fabric>(
    fabric: &'a F,
    seg: &'a PlanSegment,
    config: &'a SimConfig,
    randoms: &[f64],
    initial_cbits: u64,
) -> SvResult<(u64, WalkCounts)> {
    let mut cbits = initial_cbits;
    let on_slab_runs = Cell::new(0usize);
    let mut zero_tiles = 0;
    let add = |n: usize| on_slab_runs.set(on_slab_runs.get() + n);
    let n_qubits = fabric.view().dim().trailing_zeros();
    let slab = fabric.slab();
    let mut kernels = Kernels::<F::View>::new(seg, config, n_qubits, slab);
    // One kernel on the slab if it was bound there, else through the view.
    let exec = |(kernel, on_slab): Bound<'a, F::View>, args: &GateArgs| match on_slab {
        Some(local) => {
            slab.run(local, args);
            add(1);
        }
        None => kernel(fabric.view(), args, fabric.share(args.work)),
    };
    let run = |bound: Bound<'a, F::View>, args: &GateArgs| {
        exec(bound, args);
        fabric.sync();
    };
    // The tile runs not yet reached, and the first queue entry not yet run.
    let mut runs = seg.runs.iter().peekable();
    let mut next = 0;
    // A collapse sums and rescales the walker's own memory, the aligned
    // block `rank` of `2^boundary` amplitudes, and meets the other walkers
    // in one scalar reduction. Under a block-preserving snapshot layout
    // (`Step::Measure`) `qubit` is logical and the block holds the logical
    // one whose index, read off the partition-index positions, is its slot
    // on the tree; without one the layout is the identity and the slot is
    // the rank.
    let (own, base) = (&slab.view, slab.base);
    let boundary = own.dim().trailing_zeros();
    let rank = base >> boundary;
    let collapse = |qubit: u32, layout: Option<&QubitLayout>, r: f64| -> SvResult<u8> {
        let (slot, low_pos, phys) = match layout {
            Some(lay) => {
                let slot = (0..n_qubits - boundary).fold(0, |slot, j| {
                    slot | ((rank >> (lay.phys(boundary + j) - boundary)) & 1) << j
                });
                let low_pos: Vec<u32> = (0..boundary).map(|k| lay.phys(k)).collect();
                (slot, Some(low_pos), lay.phys(qubit))
            }
            None => (rank, None, qubit),
        };
        let partial = measure::partial_prob_one(own, slot << boundary, low_pos.as_deref(), qubit);
        let p1 = fabric.reduce(slot as usize, partial);
        let outcome = u8::from(r < p1);
        let p = if outcome == 1 { p1 } else { 1.0 - p1 };
        if p < 1e-300 {
            return Err(SvError::Numeric(format!(
                "collapse of qubit {qubit} with probability ~0"
            )));
        }
        measure::collapse(own, base, phys, outcome, 1.0 / p.sqrt());
        fabric.sync();
        Ok(outcome)
    };
    for step in &seg.steps {
        match step {
            Step::Exchange { lo, hi } => fabric.exchange(*lo, *hi),
            Step::Gate { raw, compiled, .. } if seg.runs.is_empty() => {
                kernels.each(Some(raw), compiled, run);
            }
            // A tile run may start and end inside any of the gate steps it
            // spans.
            Step::Gate { compiled, .. } => {
                for k in compiled.clone() {
                    let Some(tile_run) = runs.next_if(|r| r.kernels.start == k) else {
                        if k >= next {
                            let (bound, args) = kernels.queued(k);
                            run(bound, args);
                        }
                        continue;
                    };
                    next = tile_run.kernels.end;
                    // Swept once for the run instead of once per kernel, and
                    // accounted for with what its kernels count one by one —
                    // skipped tiles too: the counters stand for the footprint
                    // the traffic model predicts.
                    let on_slab = |k| {
                        let ((_, on_slab), args) = kernels.queued(k);
                        (on_slab.expect("tile runs are partition-local"), args)
                    };
                    let accesses = tile_run.kernels.clone().map(|k| on_slab(k).0.accesses);
                    (slab.lend)(accesses.sum());
                    zero_tiles += tile_major(&slab.view, tile_run, n_qubits, &on_slab);
                    add(tile_run.kernels.len());
                    fabric.sync();
                }
            }
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
    Ok((cbits, (on_slab_runs.get(), zero_tiles)))
}

/// Run one lowered segment on a single device — also how a sweep template
/// runs a trial ([`crate::batch`]). Returns the classical register and the
/// tile sweeps skipped as all `+0.0`.
pub(crate) fn run_solo(
    state: &mut StateVector,
    seg: &PlanSegment,
    config: &SimConfig,
    randoms: &[f64],
    initial_cbits: u64,
) -> SvResult<(u64, usize)> {
    let (re, im) = state.parts_mut();
    let solo = Solo(Slab {
        view: LocalView::new(re, im),
        base: 0,
        n_pes: 1,
        lend: &|_| (),
    });
    let (cbits, (_, zero_tiles)) = interpret(&solo, seg, config, randoms, initial_cbits)?;
    Ok((cbits, zero_tiles))
}

/// Partitioned execution of one lowered segment: SPMD over SHMEM PEs, each
/// owning one partition of the symmetric-heap state vector. Both
/// distributed backends — **scale-up** (§3.2.2, the peer pointer table of
/// devices in one process) and **scale-out** (§3.2.3, one-sided `get` /
/// `put`) — run this one body over one lending [`ShmemView`], and differ
/// only in how an amplitude access counts: one 16-byte access on scale-up,
/// two 8-byte words on scale-out (`Shape`), picked here once from the
/// backend. Only a scale-out segment relabels (`Step::Exchange`), and only
/// scale-out runs on process PEs.
///
/// Every partition is plain memory for the walk (`shmem_ptr`,
/// [`svsim_shmem::SharedF64Vec::as_cells`]): a partition-local kernel runs
/// on the PE's own slab, accounted for per kernel, any other kernel borrows
/// its runs from the owning partitions through the view, accounted for per
/// run (module docs), the slab is swept tile-major over each of the
/// segment's tile runs, accounted for per run ([`interpret`]), and a
/// relabeling exchange swaps in place through the lent partitions, each
/// piece accounted for ([`ShmemView::exchange_pair`]). Each account is a
/// [`ShmemCtx::borrow`], where the race detector traces the range and a
/// fault plan's `Put` / `Get` specs count and fire: a launch under either
/// walks this same walk, through the barriers the plan puts, and the
/// detector watches the epochs that run.
///
/// A PE hands back only its classical register and its walk's counts. The
/// state stays on the symmetric heap: once the launch has joined and every
/// PE has succeeded, the host reads both planes straight from the PEs'
/// final partitions ([`svsim_shmem::SpmdOutput::heap`]) into `state`. The
/// segment's classical bits, per-worker traffic, race reports, exchange
/// count, respawn count, PE 0's slab-kernel count and every PE's skipped
/// zero tiles accumulate into `summary` (`summary.cbits` is also the
/// segment's initial classical register).
///
/// `faults` is threaded into the SHMEM world on either backend; if any
/// worker dies (injected or real), the barrier is poisoned, the whole
/// segment fails with a typed error before the heap is read, and `state` is
/// left untouched at its pre-segment contents — exactly what
/// checkpoint/restart needs.
///
/// With [`SimConfig::detect_races`] the launch, on either backend, runs
/// under a fresh [`RaceDetector`]: every borrow is recorded against
/// epoch-scoped shadow state, and any access-protocol violations come back
/// in the summary without failing the run. The detector records accesses
/// through in-process `Arc` shadow state, so it requires thread PEs.
///
/// The remaining knobs, relabeling and the substrate, are scale-out only.
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
    let shape = if scale_out {
        Shape::WORDS
    } else {
        Shape::AMPLITUDE
    };
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

    let detector = if config.detect_races {
        Some(RaceDetector::new(n_pes)?)
    } else {
        None
    };
    let body = |ctx: &ShmemCtx<'_>| -> SvResult<(u64, WalkCounts)> {
        let pe = ctx.my_pe();
        let sym_re = ctx.malloc_f64(per_pe)?;
        let sym_im = ctx.malloc_f64(per_pe)?;
        // Local initialization of this PE's slice (host scatter).
        sym_re
            .partition(pe)
            .store_slice(0, &init_re[pe * per_pe..(pe + 1) * per_pe]);
        sym_im
            .partition(pe)
            .store_slice(0, &init_im[pe * per_pe..(pe + 1) * per_pe]);
        ctx.try_barrier_all()?;

        let (re, im) = (&sym_re, &sym_im);
        // `shmem_ptr`: every partition is plain memory for the length of the
        // walk, and the state vector is reached no other way. The walk keeps
        // one owner per amplitude per barrier epoch: a kernel's share under
        // `worker_range` touches amplitudes no other PE's share does
        // (`traffic::partition_local` for the slab; for a boundary kernel the
        // index sets the analyzer proves disjoint, its `ProvenSafe` verdict),
        // a collapse touches the PE's own partition, and `interpret` passes
        // the world barrier after every kernel outside a tile run (whose
        // kernels touch the PE's own partition only), every tile run,
        // collapse and exchange epoch — the epochs the analyzer proves and
        // the race detector checks. An exchange's one epoch reads and writes
        // the words of the PE's share of its pair's swap, in its own
        // partition and its partner's, and no other PE touches them (the
        // pair splits its words in two, and pairing is an involution). That
        // barrier is an acquire-release arrival by every PE and then, by
        // each, an acquire of the last arriver's release (`BarrierSm`, driven
        // by `barrier::wait_epoch`), so each plain access of one epoch
        // happens-before every access of the next, by whichever PE; the
        // scatter above is fenced by `try_barrier_all` the same way, and the
        // host reads the partitions only after the join.
        let parts = re.partitions().iter().zip(im.partitions());
        // SAFETY: `as_cells` asks that no word be accessed through the cells
        // while another thread or process writes it without a happens-before
        // edge in between. One owner per amplitude per epoch and the
        // barrier's release/acquire edge between epochs (above) are that;
        // the cells never leave this PE's walk.
        #[allow(unsafe_code)]
        let lent: Vec<Plane<'_>> = parts
            .map(|(re, im)| unsafe { (re.as_cells(), im.as_cells()) })
            .collect();
        let view = &ShmemView::new(ctx, re, im).lending(&lent, shape);
        // The slab's account: the PE's whole partition, read and written,
        // as `n` accesses of one amplitude.
        let borrowed = |n| view.borrow(pe, 0..per_pe, &[PeOp::Get, PeOp::Put], n, 1);
        let worker = Worker {
            ctx,
            re,
            im,
            view,
            slab: Slab {
                view: LocalView::over(lent[pe]),
                base: (pe * per_pe) as u64,
                n_pes: n_pes as u64,
                lend: &borrowed,
            },
        };
        let walked = interpret(&worker, seg, config, randoms, initial_cbits)?;
        ctx.try_barrier_all()?;
        Ok(walked)
    };
    let out = if process {
        // Symmetric heap: re + im (per_pe each); result slot: the classical
        // register and two counts, whatever the width.
        let opts = ProcOptions {
            respawn_max: config.respawn_max,
            hang_deadline_ms: u64::from(config.hang_deadline_ms),
            ..ProcOptions::sized_for(2 * per_pe + 64, 3)
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
    let (cbits, (on_slab, _)) = out.results[0];
    summary.cbits = cbits;
    summary.slab_kernels += on_slab;
    // PEs skip different tiles: each walks its own partition's zeros.
    summary.zero_tiles += out.results.iter().map(|(_, w)| w.1).sum::<usize>();
    // Every PE succeeded: read the state straight from the symmetric
    // partitions they left (the body's two allocations), host-side and
    // with no fabric traffic. A remapped run left it in its final
    // physical layout, which the readback un-permutes into logical order.
    let [sym_re, sym_im] = &out.heap[..] else {
        unreachable!("every PE ran the body, which allocates two arrays")
    };
    let (re, im) = state.parts_mut();
    let layout = seg.final_layout.as_ref();
    crate::remap::unpermute_into(layout, sym_re.partitions(), re);
    crate::remap::unpermute_into(layout, sym_im.partitions(), im);
    summary.absorb_traffic(out.traffic);
    if let Some(det) = detector {
        summary.races.extend(det.take_reports());
    }
    summary.remap_swaps += seg.n_swaps;
    summary.respawns += respawns;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::KernelId;
    use crate::plan::{build_segment, checkpoint_grid, tile_runs};
    use crate::sim::Simulator;
    use crate::view::PeerView;
    use std::collections::HashSet;
    use svsim_ir::{Circuit, GateKind};
    use svsim_shmem::TrafficSnapshot;
    use svsim_types::SvRng;

    /// Every gate family at every lowest qubit of interest around the tile
    /// boundaries at `tiles` — 0, 2, 3 (the run path starts there), `t - 1`
    /// and `t` for each width `t`, `n - 1` — in both operand orders, between
    /// layers that leave no amplitude zero or symmetric; then the steps that
    /// end a tile run with tile-local gates either side of each: a measure, a
    /// conditional gate that fires and one that does not, a reset.
    fn circuit_around_tiles(n: u32, tiles: &[u32]) -> Circuit {
        gates_around_tiles(n, tiles, true)
    }

    /// [`circuit_around_tiles`], or (`dense` false) the same gates from
    /// `|0...0>`, without its first layer of U3s: most tiles stay all `+0.0`
    /// for most of the walk. A phase and a rotation of negative cosine on
    /// each qubit below the tile width take the first layer's place, so runs
    /// that do not keep zero meet zero tiles too. They come again after the
    /// last measure has cleared half the state, and then, past a
    /// conditional gate that ends the run, a layer that turns some of the
    /// `-0.0` they wrote back into `+0.0`: the final state still shows a
    /// zero tile skipped that should not have been.
    fn gates_around_tiles(n: u32, tiles: &[u32], dense: bool) -> Circuit {
        use GateKind::*;
        let tile = tiles[0];
        let mut c = Circuit::with_cbits(n, 2);
        let mut rng = SvRng::seed_from_u64(u64::from(n * 100 + tile));
        let mut angle = move || rng.next_f64() * 6.0 - 3.0;
        let negative_layer = |c: &mut Circuit| {
            for q in 0..tile {
                c.apply(U1, &[q], &[3.0]).unwrap();
                c.apply(RZ, &[q], &[7.0]).unwrap();
            }
        };
        if dense {
            for q in 0..n {
                c.apply(U3, &[q], &[angle(), angle(), angle()]).unwrap();
            }
        } else {
            negative_layer(&mut c);
        }
        let kinds = [
            X, Y, Z, H, T, RZ, RY, RX, U3, CX, CH, CZ, CRZ, CCX, C4X, SWAP, CSWAP, RZZ, RXX,
        ];
        let mut lowest_qubits = vec![0, 2, 3, n - 1];
        lowest_qubits.extend(tiles.iter().flat_map(|&t| [t - 1, t]));
        lowest_qubits.sort_unstable();
        lowest_qubits.dedup();
        for kind in kinds {
            for &lowest in &lowest_qubits {
                let up: Vec<u32> = (lowest..n).take(kind.n_qubits()).collect();
                if up.len() < kind.n_qubits() {
                    continue;
                }
                let params: Vec<f64> = (0..kind.n_params()).map(|_| angle()).collect();
                let down: Vec<u32> = up.iter().rev().copied().collect();
                c.apply(kind, &up, &params).unwrap();
                c.apply(kind, &down, &params).unwrap();
            }
        }
        let low_layer = |c: &mut Circuit| {
            for q in 0..tile {
                c.apply(H, &[q], &[]).unwrap();
                c.apply(T, &[q], &[]).unwrap();
            }
        };
        low_layer(&mut c);
        c.measure(1, 0).unwrap();
        low_layer(&mut c);
        for value in [0, 1] {
            let x = Gate::new(X, &[0], &[]).unwrap();
            c.if_eq(0, 1, value, x).unwrap();
            low_layer(&mut c);
        }
        c.reset(2).unwrap();
        low_layer(&mut c);
        c.measure(n - 1, 1).unwrap();
        if !dense {
            negative_layer(&mut c);
            let x = Gate::new(X, &[0], &[]).unwrap();
            c.if_eq(0, 2, 3, x).unwrap();
            low_layer(&mut c);
        }
        c
    }

    /// What one walk leaves behind.
    struct Walked {
        state: Vec<u64>,
        summary: RunSummary,
        /// Kernel ids of the lowered segments.
        ids: HashSet<KernelId>,
        /// Widths of the segments' tile runs (not of their sub-runs).
        widths: HashSet<u32>,
        /// Tile runs and sub-runs that do not keep an all-`+0.0` tile so,
        /// and walk it.
        unkept: usize,
    }

    /// Walk `circuit` under `config` (and `faults`, on a partitioned
    /// backend), with tile runs lowered at the widths `tiles` — tiles of
    /// `2^t` amplitudes for each width `t` — segment by segment along the
    /// checkpoint grid, as `Simulator::run` does at
    /// [`crate::traffic::TILE_QUBITS`].
    fn walk(
        circuit: &Circuit,
        config: &SimConfig,
        tiles: &[u32],
        faults: Option<Arc<FaultPlan>>,
    ) -> Walked {
        let n = circuit.n_qubits();
        let ops = circuit.ops();
        let mut state = StateVector::zero_state(n).unwrap();
        let mut rng = SvRng::seed_from_u64(config.seed);
        let mut summary = RunSummary::new(0, 0);
        let (mut ids, mut widths, mut unkept) = (HashSet::new(), HashSet::new(), 0);
        for range in checkpoint_grid(0, ops.len(), config.checkpoint_every) {
            let mut seg = build_segment(ops, range.start, range.end, n, config);
            seg.runs = tile_runs(&seg, n, config, tiles);
            ids.extend(seg.queue.iter().map(|cg| cg.id));
            widths.extend(seg.runs.iter().map(|r| r.width));
            let runs = seg
                .runs
                .iter()
                .flat_map(|r| std::iter::once(r).chain(&r.inner));
            unkept += runs.filter(|r| !r.keeps_zero).count();
            let randoms: Vec<f64> = (0..seg.n_rand).map(|_| rng.next_f64()).collect();
            let state = &mut state;
            if config.backend == BackendKind::SingleDevice {
                let (cbits, zero_tiles) =
                    run_solo(state, &seg, config, &randoms, summary.cbits).unwrap();
                summary.cbits = cbits;
                summary.zero_tiles += zero_tiles;
            } else {
                let faults = faults.clone();
                run_partitioned(state, &seg, config, &randoms, faults, &mut summary).unwrap();
            }
            summary.absorb_tiles(&seg.runs);
        }
        let bits = |plane: &[f64]| plane.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        Walked {
            state: [bits(state.re()), bits(state.im())].concat(),
            summary,
            ids,
            widths,
            unkept,
        }
    }

    /// The backends, PE counts and remap settings of the identity matrix.
    fn backends() -> Vec<SimConfig> {
        let mut out = vec![SimConfig::single_device()];
        for n_pes in [2, 4] {
            out.push(SimConfig::scale_up(n_pes));
            for remap in [false, true] {
                out.push(SimConfig {
                    remap,
                    ..SimConfig::scale_out(n_pes)
                });
            }
        }
        out
    }

    #[test]
    fn tile_major_walks_are_bit_identical_to_kernel_major_ones() {
        let mut ids = HashSet::new();
        let (mut runs, mut inner_runs, mut exchanges_between_runs) = (0, 0, 0);
        // At 6 qubits a PE's memory is at most one outer tile of 2^5.
        for (n, nested) in [(6u32, [5u32, 3]), (8, [3, 1]), (9, [4, 2]), (10, [5, 3])] {
            let tile = nested[0];
            let circuit = circuit_around_tiles(n, &nested);
            for backend in backends() {
                let outer_fits = n - backend.backend.n_workers().trailing_zeros() > tile;
                for checkpoint_every in [0, 3] {
                    let config = SimConfig {
                        checkpoint_every,
                        ..backend
                    };
                    let what = format!("{n} qubits, tiles of 2^{nested:?}, {config:?}");
                    // Tiles as wide as the state: the kernel-major walk.
                    let plain = walk(&circuit, &config, &[n], None);
                    let single = walk(&circuit, &config, &[tile], None);
                    let tiled = walk(&circuit, &config, &nested, None);
                    assert_eq!(plain.summary.tile_runs, 0, "{what}");
                    // The harness walks what the simulator walks (no state
                    // this small tiles at the shipped widths).
                    let mut sim = Simulator::new(n, config).unwrap();
                    let shipped = sim.run(&circuit).unwrap();
                    assert_eq!(shipped.cbits, plain.summary.cbits, "{what}");
                    assert_eq!(shipped.traffic, plain.summary.traffic, "{what}");
                    assert_eq!(shipped.tile_runs, 0, "{what}");

                    let tiling: &[&Walked] = if outer_fits {
                        &[&single, &tiled]
                    } else {
                        // Own memory of at most one outer tile: the
                        // single-level walk is the kernel-major one, and the
                        // nested walk tiles at the inner width alone.
                        assert_eq!(single.state, plain.state, "{what}: amplitudes");
                        assert_eq!(single.summary.tile_runs, 0, "{what}");
                        let inner = HashSet::from([nested[1]]);
                        assert!(tiled.widths.is_subset(&inner), "{what}");
                        assert_eq!(tiled.summary.inner_tile_runs, 0, "{what}");
                        &[&tiled]
                    };
                    for walked in tiling {
                        assert_eq!(walked.state, plain.state, "{what}: amplitudes");
                        let (t, p) = (&walked.summary, &plain.summary);
                        assert_eq!(t.cbits, p.cbits, "{what}");
                        assert_eq!(t.remap_swaps, p.remap_swaps, "{what}");
                        assert_eq!(t.slab_kernels, p.slab_kernels, "{what}");
                        // Whole-circuit segments hold long runs; three-op
                        // ones still pair up their tile-local kernels.
                        assert!(t.tile_runs > 0, "{what}");
                        assert!(t.tiled_kernels >= 2 * t.tile_runs, "{what}");
                        let saved = (t.tiled_kernels - t.tile_runs) as u64;
                        assert_eq!(t.traffic.len(), p.traffic.len(), "{what}");
                        for (pe, (t, p)) in t.traffic.iter().zip(&p.traffic).enumerate() {
                            // One barrier per run where there was one per
                            // kernel; every other counter as if nothing had
                            // changed.
                            assert_eq!(t.barriers, p.barriers - saved, "{what}: PE {pe}");
                            let rest = TrafficSnapshot { barriers: 0, ..*t };
                            assert_eq!(rest, TrafficSnapshot { barriers: 0, ..*p }, "{what}");
                        }
                    }
                    let (t, s) = (&tiled.summary, &single.summary);
                    if outer_fits {
                        // Nesting runs the same outer runs and adds or
                        // removes no barrier; only the sub-runs inside them
                        // are new.
                        assert_eq!(tiled.widths, HashSet::from([tile]), "{what}");
                        assert_eq!(t.traffic, s.traffic, "{what}");
                        assert_eq!(
                            (t.tile_runs, t.tiled_kernels),
                            (s.tile_runs, s.tiled_kernels),
                            "{what}"
                        );
                        assert_eq!((s.inner_tile_runs, s.inner_tiled_kernels), (0, 0));
                        assert!(
                            t.inner_tiled_kernels >= 2 * t.inner_tile_runs
                                && t.inner_tiled_kernels <= t.tiled_kernels,
                            "{what}"
                        );
                        // The layers below the tile boundary start with an H
                        // and a T on qubit 0.
                        assert!(t.inner_tile_runs > 0, "{what}");
                    }
                    ids.extend(tiled.ids);
                    runs += t.tile_runs;
                    inner_runs += t.inner_tile_runs;
                    if config.remap && checkpoint_every == 0 {
                        exchanges_between_runs += t.remap_swaps;
                    }
                }
            }
        }
        assert_eq!(ids.len(), 11, "every KernelId walked: {ids:?}");
        assert!(runs > 1000, "{runs} tile runs");
        assert!(inner_runs > 500, "{inner_runs} inner sub-runs");
        assert!(exchanges_between_runs > 0, "exchange steps ended runs");
    }

    /// The sparse twin of the identity matrix above: from `|0...0>`, most
    /// tiles are all `+0.0` when a run reaches them, and the runs that keep
    /// zero skip them. At the nested widths, on every backend, the walk is
    /// bit-identical to the kernel-major one, every counter included; some
    /// tiles were skipped, and some runs walked theirs because a kernel of
    /// theirs writes `-0.0` (Y, Z, a phase or rotation of negative cosine).
    #[test]
    fn zero_tiles_are_skipped_bit_identically() {
        for (n, nested) in [(8u32, [3u32, 1]), (9, [4, 2]), (10, [5, 3])] {
            let circuit = gates_around_tiles(n, &nested, false);
            for backend in backends() {
                for checkpoint_every in [0, 3] {
                    let config = SimConfig {
                        checkpoint_every,
                        ..backend
                    };
                    let what = format!("{n} qubits, tiles of 2^{nested:?}, {config:?}");
                    let plain = walk(&circuit, &config, &[n], None);
                    let tiled = walk(&circuit, &config, &nested, None);
                    let t = &tiled.summary;
                    assert!(t.zero_tiles > 0, "{what}: nothing skipped");
                    assert!(tiled.unkept > 0, "{what}: every run keeps zero");
                    assert_eq!(plain.summary.zero_tiles, 0, "{what}");
                    assert_eq!(tiled.state, plain.state, "{what}: amplitudes");
                    assert_eq!(t.cbits, plain.summary.cbits, "{what}");
                    let saved = (t.tiled_kernels - t.tile_runs) as u64;
                    for (pe, (t, p)) in t.traffic.iter().zip(&plain.summary.traffic).enumerate() {
                        assert_eq!(t.barriers, p.barriers - saved, "{what}: PE {pe}");
                        let rest = TrafficSnapshot { barriers: 0, ..*t };
                        assert_eq!(rest, TrafficSnapshot { barriers: 0, ..*p }, "{what}");
                    }
                }
            }
        }
    }

    /// Every partition of `re` and `im` as plain memory.
    fn lend_all<'a>(re: &'a SymF64, im: &'a SymF64) -> Vec<Plane<'a>> {
        let parts = re.partitions().iter().zip(im.partitions());
        // SAFETY: as in `run_partitioned`: the walks below keep one owner
        // per word per barrier epoch and pass a world barrier between epochs.
        #[allow(unsafe_code)]
        parts
            .map(|(re, im)| unsafe { (re.as_cells(), im.as_cells()) })
            .collect()
    }

    /// Launch a thread world of `n_pes` PEs over `start`, partitioned as
    /// `run_partitioned` partitions it (two allocations, the scatter, one
    /// barrier), and let every PE run `body` over the arrays and their lent
    /// partitions; then one more barrier. Returns the state the PEs left,
    /// as bits, and what each PE's `body` returned.
    fn over_partitions<T: Send>(
        start: &StateVector,
        n_pes: usize,
        body: impl Fn(&ShmemCtx<'_>, [&SymF64; 2], &[Plane<'_>]) -> T + Sync,
    ) -> (Vec<u64>, Vec<T>) {
        let per_pe = start.dim() / n_pes;
        let out = svsim_shmem::launch(n_pes, |ctx| {
            let pe = ctx.my_pe();
            let at = pe * per_pe..(pe + 1) * per_pe;
            let re = ctx.malloc_f64(per_pe).unwrap();
            let im = ctx.malloc_f64(per_pe).unwrap();
            re.partition(pe).store_slice(0, &start.re()[at.clone()]);
            im.partition(pe).store_slice(0, &start.im()[at]);
            ctx.barrier_all();
            let walked = body(ctx, [&re, &im], &lend_all(&re, &im));
            ctx.barrier_all();
            walked
        })
        .unwrap();
        let mut state = StateVector::zero_state(start.n_qubits()).unwrap();
        let (re, im) = state.parts_mut();
        crate::remap::unpermute_into(None, out.heap[0].partitions(), re);
        crate::remap::unpermute_into(None, out.heap[1].partitions(), im);
        let bits = state.re().iter().chain(state.im()).map(|x| x.to_bits());
        (bits.collect(), out.results)
    }

    /// `2^n` amplitudes of assorted magnitudes and both signs.
    fn assorted(n: u32) -> StateVector {
        let mut rng = SvRng::seed_from_u64(u64::from(n));
        let mut plane = || (0..1 << n).map(|_| rng.next_f64() - 0.5).collect();
        StateVector::from_parts(n, plane(), plane()).unwrap()
    }

    /// The counters the instrumented word accessors keep are the reference
    /// for what a lent walk accounts: every kernel of every `KernelId`, at
    /// lowest qubits 0 to 5 and on the top three qubits of 10, with
    /// operands on one side of the partition boundary and straddling it,
    /// walked over 2, 4 and 8 partitions through a view that lends nothing
    /// (scale-out `ShmemView::new`, scale-up `PeerView::new`: one counted
    /// word or amplitude per access) and through the lending `ShmemView`
    /// over the same partitions, in the backend's shape (runs borrowed, and
    /// single amplitudes where no run is lent). Then the same kernels
    /// through `run_partitioned`, which runs the partition-local ones on
    /// each PE's slab. Amplitudes bit for bit, and on every PE every
    /// counter, field by field: after each kernel for the views, and at the
    /// end (barriers included) for the slab.
    #[test]
    fn lending_views_and_the_slab_count_what_the_word_accessors_count() {
        use GateKind::*;
        let n = 10u32;
        let top = n - 1;
        let kinds = [
            X, Y, Z, H, T, RZ, RY, RX, U3, CX, CY, CH, CZ, CRZ, CRY, CRX, CU1, CCX, C4X, SWAP,
            CSWAP, RZZ, RXX,
        ];
        let mut circuit = Circuit::new(n);
        let mut rng = SvRng::seed_from_u64(10);
        for kind in kinds {
            for lowest in [0, 1, 2, 3, 4, 5, top - 2, top - 1, top] {
                let k = kind.n_qubits();
                let side: Vec<u32> = (lowest..n).take(k).collect();
                let across: Vec<u32> = std::iter::once(lowest)
                    .chain((lowest + 1..n).rev().take(k - 1))
                    .collect();
                for qubits in [side, across] {
                    if qubits.len() < k {
                        continue;
                    }
                    let params: Vec<f64> = (0..kind.n_params()).map(|_| rng.next_f64()).collect();
                    let down: Vec<u32> = qubits.iter().rev().copied().collect();
                    circuit.apply(kind, &qubits, &params).unwrap();
                    circuit.apply(kind, &down, &params).unwrap();
                }
            }
        }
        let start = assorted(n);
        let ops = circuit.ops();
        for n_pes in [2usize, 4, 8] {
            for config in [SimConfig::scale_out(n_pes), SimConfig::scale_up(n_pes)] {
                let shape = match config.backend {
                    BackendKind::ScaleOut { .. } => Shape::WORDS,
                    _ => Shape::AMPLITUDE,
                };
                let seg = build_segment(ops, 0, ops.len(), n, &config);
                let ids: HashSet<KernelId> = seg.queue.iter().map(|cg| cg.id).collect();
                assert_eq!(ids.len(), 11, "every KernelId: {ids:?}");
                let walk_views = |lend: bool| {
                    over_partitions(&start, n_pes, |ctx, [re, im], lent| {
                        let pe = ctx.my_pe();
                        let mut counted = Vec::new();
                        for cg in &seg.queue {
                            let share = worker_range(cg.args.work, n_pes as u64, pe as u64);
                            if lend {
                                let view = ShmemView::new(ctx, re, im).lending(lent, shape);
                                resolve::<ShmemView>(cg.id)(&view, &cg.args, share);
                            } else if shape == Shape::WORDS {
                                let view = ShmemView::new(ctx, re, im);
                                resolve::<ShmemView>(cg.id)(&view, &cg.args, share);
                            } else {
                                let parts = (re.partitions(), im.partitions());
                                let view =
                                    PeerView::new(parts.0, parts.1, pe, Some(ctx.counters()));
                                resolve::<PeerView>(cg.id)(&view, &cg.args, share);
                            }
                            ctx.barrier_all();
                            counted.push(ctx.counters().snapshot());
                        }
                        counted
                    })
                };
                let (by_word, lent) = (walk_views(false), walk_views(true));
                let what = format!("{config:?}");
                assert_eq!(lent.0, by_word.0, "{what}: amplitudes");
                for (pe, (l, w)) in lent.1.iter().zip(&by_word.1).enumerate() {
                    for (k, (l, w)) in l.iter().zip(w).enumerate() {
                        let cg = &seg.queue[k];
                        assert_eq!(l, w, "{what}: PE {pe} after kernel {k}: {cg:?}");
                    }
                }

                let mut state = start.clone();
                let mut summary = RunSummary::new(0, 0);
                run_partitioned(&mut state, &seg, &config, &[], None, &mut summary).unwrap();
                let on_slab = seg
                    .queue
                    .iter()
                    .filter(|cg| partition_local(cg, n, n_pes as u64));
                assert!(summary.slab_kernels > 0, "{what}");
                assert_eq!(summary.slab_kernels, on_slab.count(), "{what}");
                let bits = state.re().iter().chain(state.im()).map(|x| x.to_bits());
                assert_eq!(bits.collect::<Vec<_>>(), by_word.0, "{what}: amplitudes");
                for (pe, (s, w)) in summary.traffic.iter().zip(&by_word.1).enumerate() {
                    // The walk's last barrier comes after the last kernel's.
                    let last = *w.last().unwrap();
                    let barriers = last.barriers + 1;
                    assert_eq!(*s, TrafficSnapshot { barriers, ..last }, "{what}: PE {pe}");
                }
            }
        }
    }

    /// A relabeling exchange through the lending view swaps what the
    /// per-word view's `get_slice` / `put_slice` messages swap and counts
    /// what they count, on every PE, at every low position: runs of 1 to 8
    /// amplitudes, and longer ones.
    #[test]
    fn lent_exchanges_move_and_count_what_the_messages_do() {
        let n = 8;
        let start = assorted(n);
        let unmoved: Vec<u64> = start
            .re()
            .iter()
            .chain(start.im())
            .map(|x| x.to_bits())
            .collect();
        let mut exchanges = 0;
        for n_pes in [2usize, 4] {
            let boundary = n - n_pes.trailing_zeros();
            for (lo, hi) in (0..boundary).flat_map(|lo| (boundary..n).map(move |hi| (lo, hi))) {
                let exchange = |lend: bool| {
                    over_partitions(&start, n_pes, |ctx, [re, im], lent| {
                        let view = ShmemView::new(ctx, re, im);
                        let view = if lend {
                            view.lending(lent, Shape::WORDS)
                        } else {
                            view
                        };
                        view.exchange_pair(lo, hi, re, im);
                        ctx.counters().snapshot()
                    })
                };
                let (lent, by_message) = (exchange(true), exchange(false));
                let what = format!("{n_pes} PEs, positions ({lo}, {hi})");
                assert_ne!(lent.0, unmoved, "{what}: nothing moved");
                assert_eq!(lent.0, by_message.0, "{what}");
                assert_eq!(lent.1, by_message.1, "{what}");
                exchanges += 1;
            }
        }
        assert_eq!(exchanges, 7 + 2 * 6);
    }

    /// The race detector watches the lent walk of either backend: two PEs
    /// whose lending views, in the scale-out or the scale-up shape, borrow
    /// the same run in one epoch are reported — the pair, the epoch, and
    /// every word they share, from the first on. The planes are borrowed and
    /// never touched.
    #[test]
    fn the_detector_names_two_pes_borrowing_one_run_in_one_epoch() {
        use svsim_shmem::RaceAccess;
        for shape in [Shape::WORDS, Shape::AMPLITUDE] {
            let det = RaceDetector::new(2).unwrap();
            let out = svsim_shmem::launch_detected(2, None, Arc::clone(&det), |ctx| {
                let re = ctx.malloc_f64(64).unwrap();
                let im = ctx.malloc_f64(64).unwrap();
                let lent = lend_all(&re, &im);
                let view = ShmemView::new(ctx, &re, &im).lending(&lent, shape);
                let epoch = ctx.barrier_epoch();
                // Words 40..48 of PE 1's partition, from either PE.
                let (run, _) = view.run(64 + 40, 8).unwrap();
                assert_eq!(run.len(), 8);
                ctx.barrier_all();
                epoch
            })
            .unwrap()
            .into_result()
            .unwrap();
            let epoch = out.results[0];
            assert_eq!(out.results[1], epoch, "{shape:?}");
            let reports = det.take_reports();
            assert!(!reports.is_empty(), "{shape:?}: the shared run went unseen");
            for r in &reports {
                let pair = |a: RaceAccess, b: RaceAccess| [a.pe.min(b.pe), a.pe.max(b.pe)];
                assert_eq!(pair(r.first, r.second), [0, 1], "{shape:?}: {r}");
                assert_eq!((r.owner_pe, r.epoch), (1, epoch), "{shape:?}: {r}");
                assert!((40..48).contains(&r.index), "{shape:?}: {r}");
            }
            let words: HashSet<usize> = reports.iter().map(|r| r.index).collect();
            assert_eq!(words, (40..48).collect(), "{shape:?}: every shared word");
            assert_eq!(reports.iter().map(|r| r.index).min(), Some(40));
        }
    }

    /// A relabeling exchange of positions `(lo, hi)` is the gate SWAP(lo,
    /// hi): on thread PEs and forked ones, with a fault plan attached (its
    /// `Get` spec counting every borrow and never firing) or not, it leaves
    /// exactly the amplitudes a single device's SWAP leaves, and moves the
    /// remote bytes `exchange_traffic` predicts. Also where a partition is
    /// two amplitudes and one PE of each pair swaps its one pair alone.
    #[test]
    fn an_exchange_is_a_swap() {
        use crate::traffic::exchange_traffic;
        use svsim_shmem::FaultAction;
        let observed =
            Arc::new(FaultPlan::new().with(0, PeOp::Get, u64::MAX, FaultAction::Delay(0)));
        let process = SimConfig {
            shmem_backend: ShmemBackend::Process,
            ..SimConfig::scale_out(2)
        };
        let out = SimConfig::scale_out;
        let cases = [
            (8, out(2)),
            (8, out(4)),
            (8, out(8)),
            (8, process),
            (2, out(2)),
            (3, out(4)),
        ];
        let mut exchanges = 0;
        for (n, config) in cases {
            let amplitudes: Vec<f64> = (0..1 << n).map(f64::from).collect();
            let negated = amplitudes.iter().map(|x| -x).collect();
            let start = StateVector::from_parts(n, amplitudes, negated).unwrap();
            let n_pes = config.backend.n_workers();
            let boundary = n - n_pes.trailing_zeros();
            for (lo, hi) in (0..boundary).flat_map(|lo| (boundary..n).map(move |hi| (lo, hi))) {
                let mut swap = Circuit::new(n);
                swap.apply(GateKind::SWAP, &[lo, hi], &[]).unwrap();
                let solo = SimConfig::single_device();
                let gate = build_segment(swap.ops(), 0, 1, n, &solo);
                let mut want = start.clone();
                run_solo(&mut want, &gate, &solo, &[], 0).unwrap();
                let seg = PlanSegment {
                    start: 0,
                    end: 0,
                    steps: vec![Step::Exchange { lo, hi }],
                    queue: Vec::new(),
                    n_rand: 0,
                    n_swaps: 1,
                    final_layout: None,
                    runs: Vec::new(),
                };
                for faults in [None, Some(Arc::clone(&observed))] {
                    let what = format!(
                        "{n} qubits, {config:?}, ({lo}, {hi}), observed: {}",
                        faults.is_some()
                    );
                    let mut state = start.clone();
                    let mut summary = RunSummary::new(0, 0);
                    run_partitioned(&mut state, &seg, &config, &[], faults, &mut summary).unwrap();
                    let bits = |s: &StateVector| {
                        let words = s.re().iter().chain(s.im());
                        words.map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&state), bits(&want), "{what}");
                    assert_eq!(
                        summary
                            .traffic
                            .iter()
                            .map(|t| t.remote_bytes())
                            .sum::<u64>(),
                        exchange_traffic(n, n_pes as u64).remote_bytes,
                        "{what}"
                    );
                }
                exchanges += 1;
            }
        }
        assert_eq!(exchanges, 7 + 2 * 6 + 3 * 5 + 7 + 1 + 2);
    }

    #[test]
    fn walks_that_cannot_tile_take_the_kernel_major_path() {
        let circuit = circuit_around_tiles(8, &[3]);
        let tiled = walk(&circuit, &SimConfig::single_device(), &[3], None);
        assert!(tiled.summary.tile_runs > 0);
        // Runtime parsing re-parses gate by gate; memory of one tile has
        // nothing to reorder.
        let parse = SimConfig {
            dispatch: DispatchMode::RuntimeParse,
            ..SimConfig::single_device()
        };
        for (config, width) in [
            (parse, 3),
            (SimConfig::single_device(), 8),
            (SimConfig::scale_out(2), 7),
            (SimConfig::scale_up(4), 6),
        ] {
            let untiled = walk(&circuit, &config, &[width], None);
            assert_eq!(untiled.summary.tile_runs, 0, "{config:?}");
            assert_eq!(untiled.summary.tiled_kernels, 0, "{config:?}");
            assert_eq!(untiled.state, tiled.state, "{config:?}");
            assert_eq!(untiled.summary.cbits, tiled.summary.cbits, "{config:?}");
        }
        // The race detector watches the walk a plain launch takes, on either
        // backend: the same tile runs on the same slab, the same counters, no
        // race.
        for config in [SimConfig::scale_out(2), SimConfig::scale_up(2)] {
            let observed = SimConfig {
                detect_races: true,
                ..config
            };
            let detected = walk(&circuit, &observed, &[3], None);
            let (s, plain) = (
                &detected.summary,
                walk(&circuit, &config, &[3], None).summary,
            );
            assert!(s.tile_runs > 0 && s.slab_kernels > 0, "{config:?}");
            assert!(s.races.is_empty(), "{config:?}: {:?}", s.races);
            assert_eq!(
                (s.tile_runs, s.tiled_kernels, s.slab_kernels, s.zero_tiles),
                (
                    plain.tile_runs,
                    plain.tiled_kernels,
                    plain.slab_kernels,
                    plain.zero_tiles
                ),
                "{config:?}"
            );
            assert_eq!(s.traffic, plain.traffic, "{config:?}");
            assert_eq!(detected.state, tiled.state, "{config:?}");
            assert_eq!(s.cbits, tiled.summary.cbits, "{config:?}");
        }
    }
}
