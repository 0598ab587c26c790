//! Circuit executors: single-device, and one partitioned runner for
//! scale-up and scale-out.
//!
//! All three backends walk the same step stream with the same kernels; they
//! differ only in the memory fabric ([`crate::view`]) and the
//! synchronization between gates — none for a single device, and the SHMEM
//! world's barrier across workers for the partitioned backends (the
//! cooperative multi-grid sync of Listing 4 and the `shmem_barrier_all` of
//! Listing 5 are the same call here).

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::{resolve, KernelFn};
use crate::kernels::{worker_range, GateArgs};
use crate::measure;
use crate::plan::PlanSegment;
use crate::remap::QubitLayout;
use crate::sim::{BackendKind, RunSummary, SimConfig};
use crate::state::StateVector;
use crate::view::{LocalView, PeerView, ShmemView, StateView};
use std::ops::Range;
use std::sync::Arc;
use svsim_ir::Gate;
use svsim_shmem::{FaultPlan, ProcOptions, RaceDetector, SharedF64Vec, ShmemBackend, ShmemCtx};
use svsim_types::{SvError, SvResult, SvRng};

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
    /// Unitary gate (raw form kept for the runtime-parse mode).
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
    /// A fused run of adjacent gates ([`crate::fuse`]): `compiled` is one
    /// window-sweep kernel, `op` the first constituent's source op.
    Fused { op: usize, compiled: Range<usize> },
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
            | Self::Fused { op, compiled }
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
            | Self::Fused { compiled, .. }
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

/// A segment's kernels bound for one walker: the preloaded pointer table,
/// or the raw gates re-parsed at every execution.
struct Kernels<'a, V: StateView> {
    queue: &'a [CompiledGate],
    /// The fn-pointer path binds every kernel pointer once, up front — the
    /// analog of preloading the device-function symbols; one flat pointer
    /// table parallel to the flat compiled queue, nothing copied per gate.
    /// Empty under [`DispatchMode::RuntimeParse`].
    uploaded: Vec<KernelFn<V>>,
    config: &'a SimConfig,
    n_qubits: u32,
    scratch: Vec<CompiledGate>,
}

impl<'a, V: StateView> Kernels<'a, V> {
    fn new(seg: &'a PlanSegment, config: &'a SimConfig, n_qubits: u32) -> Self {
        let uploaded = match config.dispatch {
            DispatchMode::PreloadedFnPointer => {
                seg.queue.iter().map(|c| resolve::<V>(c.id)).collect()
            }
            DispatchMode::RuntimeParse => Vec::new(),
        };
        Self {
            queue: &seg.queue,
            uploaded,
            config,
            n_qubits,
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
        mut apply: impl FnMut(KernelFn<V>, &GateArgs),
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
                    apply(resolve::<V>(cg.id), &cg.args);
                }
            }
            None => {
                for k in compiled.clone() {
                    let cg = &self.queue[k];
                    let kernel = match self.uploaded.get(k) {
                        Some(f) => *f,
                        None => resolve::<V>(cg.id),
                    };
                    apply(kernel, &cg.args);
                }
            }
        }
    }
}

/// Run one lowered segment on a single device (sequential, full ranges).
/// `initial_cbits` carries the classical register across checkpoint
/// segments (0 for a whole-circuit run).
pub(crate) fn run_single(
    state: &mut StateVector,
    seg: &PlanSegment,
    config: &SimConfig,
    rng: &mut SvRng,
    initial_cbits: u64,
) -> SvResult<u64> {
    let n = state.n_qubits();
    let half = (1u64 << n) / 2;
    let mut cbits = initial_cbits;
    let (re, im) = state.parts_mut();
    let view = LocalView::new(re, im);
    let mut kernels = Kernels::new(seg, config, n);
    let full = |kernel: KernelFn<_>, args: &GateArgs| kernel(&view, args, 0..args.work);
    let collapse = |qubit: u32, r: f64| -> SvResult<u8> {
        // Canonical-tree sum (svsim_types::numeric): bit-identical to the
        // partitioned backends' partial + pairwise reduce at any PE count.
        let p1 = measure::prob_one_view(&view, qubit, 1u64 << n);
        let outcome = u8::from(r < p1);
        let p = if outcome == 1 { p1 } else { 1.0 - p1 };
        if p < 1e-300 {
            return Err(SvError::Numeric(format!(
                "collapse of qubit {qubit} with probability ~0"
            )));
        }
        crate::kernels::collapse_pairs(&view, qubit, outcome, 1.0 / p.sqrt(), 0..half);
        Ok(outcome)
    };
    for step in &seg.steps {
        match step {
            Step::Gate { raw, compiled, .. } => kernels.each(Some(raw), compiled, full),
            Step::IfEq {
                creg_lo,
                creg_len,
                value,
                raw,
                compiled,
                ..
            } => {
                if cond_holds(cbits, *creg_lo, *creg_len, *value) {
                    kernels.each(Some(raw), compiled, full);
                }
            }
            Step::Fused { compiled, .. } => kernels.each(None, compiled, full),
            Step::Measure { qubit, cbit, .. } => {
                let outcome = collapse(*qubit, rng.next_f64())?;
                cbits = (cbits & !(1u64 << cbit)) | (u64::from(outcome) << cbit);
            }
            Step::Reset { qubit, x, .. } => {
                if collapse(*qubit, rng.next_f64())? == 1 {
                    kernels.each(None, x, full);
                }
            }
            Step::Exchange { .. } => unreachable!("no relabeling on a single device"),
        }
    }
    Ok(cbits)
}

/// One worker of a partitioned backend: its SHMEM context (rank, world
/// size, barrier, reduce) and the partition of the state it owns.
struct Worker<'a> {
    ctx: &'a ShmemCtx<'a>,
    n_qubits: u32,
    re: &'a SharedF64Vec,
    im: &'a SharedF64Vec,
    /// Global index of the partition's first amplitude.
    base: u64,
}

impl Worker<'_> {
    /// Per-partition measurement partial plus the reduce slot and physical
    /// qubit for the collapse. Under a block-preserving snapshot layout
    /// (`lay`) the partition holds the logical subcube whose top value
    /// indexes the reduce slot, and the partial walks it in logical order
    /// so the probability tree is the single-device logical tree
    /// bit-for-bit; without a snapshot the layout is identity and the slot
    /// is the worker rank.
    fn measure_partial(&self, lay: Option<&QubitLayout>, qubit: u32) -> (f64, usize, u32) {
        let rank = self.ctx.my_pe();
        match lay {
            Some(lay) => {
                let boundary = self.n_qubits - self.ctx.n_pes().trailing_zeros();
                let mut slot = 0usize;
                for j in 0..(self.n_qubits - boundary) {
                    slot |= ((rank >> (lay.phys(boundary + j) - boundary)) & 1) << j;
                }
                let logical_base = (slot as u64) << boundary;
                let low_pos: Vec<u32> = (0..boundary).map(|k| lay.phys(k)).collect();
                let partial = measure::partial_prob_one_mapped(
                    self.re,
                    self.im,
                    logical_base,
                    &low_pos,
                    qubit,
                );
                (partial, slot, lay.phys(qubit))
            }
            None => (
                measure::partial_prob_one_partition(self.re, self.im, self.base, qubit),
                rank,
                qubit,
            ),
        }
    }
}

/// Shared segment walker for the partitioned backends: every worker runs
/// its share of each kernel through `view`, then `shmem_barrier_all`
/// (Listings 4 and 5 differ only in how `view` reaches `sv[i]`).
/// `exchange` realizes one relabeling slab exchange collectively.
fn walk_steps<V: StateView>(
    seg: &PlanSegment,
    config: &SimConfig,
    view: &V,
    me: &Worker<'_>,
    randoms: &[f64],
    initial_cbits: u64,
    exchange: impl Fn(u32, u32),
) -> SvResult<u64> {
    let ctx = me.ctx;
    let (rank, n_workers) = (ctx.my_pe() as u64, ctx.n_pes() as u64);
    let mut cbits = initial_cbits;
    let mut kernels = Kernels::<V>::new(seg, config, me.n_qubits);
    // One barrier per kernel — a fused kernel's whole run included. Safe:
    // windows are disjoint and each worker owns a disjoint window
    // sub-range, so no cross-worker dataflow exists inside the sweep (same
    // argument as any two-qubit kernel).
    let mine = |kernel: KernelFn<V>, args: &GateArgs| {
        kernel(view, args, worker_range(args.work, n_workers, rank));
        ctx.barrier_all();
    };
    let collapse = |qubit: u32, lay: Option<&QubitLayout>, r: f64| -> SvResult<u8> {
        let (partial, slot, phys_q) = me.measure_partial(lay, qubit);
        // Pairwise combine: each partial is a subtree node of the canonical
        // probability tree (see svsim_types::numeric), so this matches
        // prob_one bit-for-bit.
        let p1 = ctx.sum_reduce_f64_at(slot, partial);
        let outcome = u8::from(r < p1);
        let p = if outcome == 1 { p1 } else { 1.0 - p1 };
        if p < 1e-300 {
            return Err(SvError::Numeric(format!(
                "collapse of qubit {qubit} with probability ~0"
            )));
        }
        measure::collapse_partition(me.re, me.im, me.base, phys_q, outcome, 1.0 / p.sqrt());
        ctx.barrier_all();
        Ok(outcome)
    };
    for step in &seg.steps {
        match step {
            Step::Exchange { lo, hi } => exchange(*lo, *hi),
            Step::Gate { raw, compiled, .. } => kernels.each(Some(raw), compiled, mine),
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
                    kernels.each(Some(raw), compiled, mine);
                }
            }
            Step::Fused { compiled, .. } => kernels.each(None, compiled, mine),
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
                // Distributed X to restore |0>.
                if collapse(*qubit, layout.as_ref(), randoms[*r_idx])? == 1 {
                    kernels.each(None, x, mine);
                }
            }
        }
    }
    Ok(cbits)
}

/// Partitioned execution of one lowered segment: SPMD over SHMEM PEs, each
/// owning one partition of the symmetric-heap state vector. Both
/// distributed backends run this one body and differ only in how a kernel
/// reaches `sv[i]`:
///
/// - **scale-up** (§3.2.2): a [`PeerView`] over the symmetric arrays'
///   partitions — the peer pointer table, plain loads and stores. Always
///   thread PEs (devices of one process).
/// - **scale-out** (§3.2.3): a [`ShmemView`] — one-sided `get`/`put`
///   through the ctx — plus the relabeling exchange hook.
///
/// The segment's classical bits, per-worker traffic, race reports,
/// exchange count and respawn count accumulate into `summary`
/// (`summary.cbits` is also the segment's initial classical register).
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
    rng: &mut SvRng,
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
    let n = state.n_qubits();
    let n_pes = config.backend.n_workers();
    let per_pe = state.dim() / n_pes;
    let randoms: Vec<f64> = (0..seg.n_rand).map(|_| rng.next_f64()).collect();
    let initial_cbits = summary.cbits;
    let (init_re, init_im) = (state.re(), state.im());

    let detector = if scale_out && config.detect_races {
        Some(RaceDetector::new(n_pes)?)
    } else {
        None
    };
    let body = |ctx: &ShmemCtx<'_>| -> SvResult<(u64, Vec<f64>, Vec<f64>)> {
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

        let me = Worker {
            ctx,
            n_qubits: n,
            re: sym_re.partition(pe),
            im: sym_im.partition(pe),
            base: (pe * per_pe) as u64,
        };
        let cbits = if scale_out {
            let view = ShmemView::new(ctx, &sym_re, &sym_im);
            walk_steps(seg, config, &view, &me, &randoms, initial_cbits, |a, b| {
                let (xr, xi) = xch.as_ref().expect("staging buffers allocated");
                view.exchange_pair(a, b, xr, xi);
            })
        } else {
            let view = PeerView::new(
                sym_re.partitions(),
                sym_im.partitions(),
                pe,
                Some(ctx.counters()),
            );
            walk_steps(seg, config, &view, &me, &randoms, initial_cbits, |_, _| {
                unreachable!("no relabeling on the scale-up path")
            })
        }?;
        ctx.try_barrier_all()?;
        Ok((
            cbits,
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
    for (pe, (cbits, pre, pim)) in out.results.into_iter().enumerate() {
        if pe == 0 {
            summary.cbits = cbits;
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
