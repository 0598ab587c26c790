//! The one lowering: a circuit compiled, once, into the [`CompiledPlan`]
//! that is executed and that every static reader consults.
//!
//! The paper lowers a circuit once into a device-resident buffer of gate
//! objects and walks that one buffer on every backend (PAPER.md §3.2).
//! Here that buffer is the `PlanSegment`: the ordered step stream — gate
//! kernels, measurements, and (for remapped scale-out) the relabeling slab
//! exchanges, each at the position it runs — over one flat compiled-kernel
//! queue, one segment per checkpoint-grid interval, and the segment's **tile
//! runs**: which consecutive kernels sweep memory together and share one
//! barrier. `build_segment` is the only code that produces one (remap
//! planning, then step/kernel lowering, then the tile runs, all driven by
//! the [`SimConfig`]), and a segment is the only thing the executors
//! ([`crate::exec`]) accept; they decide nothing of it.
//!
//! Nothing else re-derives the schedule. [`CompiledPlan::schedule`] yields
//! a plan's exchanges, kernels and collapses in execution order, each kernel
//! marked with whether a barrier follows it, and the traffic model
//! ([`CompiledPlan::predict_traffic`]), the performance model
//! (`svsim-perfmodel`) and the static race analyzer (`svsim-analyzer`) are
//! folds over that one sequence — so what they price and prove is, by
//! construction, what runs.
//!
//! A plan is a standalone value: [`crate::Simulator::run_from`] executes a
//! precompiled one without recompiling (the serving layer caches them and
//! overlaps "compile job B" with "execute job A"), and a run without one
//! lowers each segment right before executing it — through the same
//! `build_segment`, so the two are bit-identical.

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::resolve;
use crate::exec::{DispatchMode, Step};
use crate::remap::{plan_remap, QubitLayout};
use crate::sim::{BackendKind, SimConfig};
use crate::traffic::{exchange_traffic, gate_traffic, tile_local, GateTraffic, TILE_QUBITS};
use crate::view::LocalView;
use std::ops::Range;
use svsim_ir::{Circuit, Gate, GateKind, Op};

/// A **tile run**: a maximal stretch of two or more consecutive
/// unconditional gate kernels of a segment, all [`tile_local`] at `width`
/// (the widest of [`TILE_QUBITS`] narrower than the walker's own memory).
/// A walker sweeps its own memory tile by tile for it — every kernel of the
/// run over one tile of `2^width` amplitudes, then the next tile — and a PE
/// passes one barrier after it instead of one per kernel: no kernel of the
/// run leaves the PE's partition. Its sub-runs are the same thing one width
/// down, swept inside each of its tiles; they add no barrier.
#[derive(Debug, Clone)]
pub(crate) struct TileRun {
    /// log2 of the amplitudes in one tile.
    pub(crate) width: u32,
    /// The run's kernels: a range of the segment's queue.
    pub(crate) kernels: Range<usize>,
    /// Whether every kernel of the run [`preserves_zero`] (their verdicts in
    /// [`PlanSegment::keeps_zero`]): then a tile whose words are all `+0.0`
    /// when the run reaches it leaves the run exactly as it entered, and the
    /// walker skips it.
    pub(crate) keeps_zero: bool,
    /// Its sub-runs at the next, narrower width, in order.
    pub(crate) inner: Vec<TileRun>,
}

impl TileRun {
    /// Derive [`Self::keeps_zero`] again, for this run and its sub-runs, from
    /// the segment's per-kernel verdicts `keeps`: after some were decided
    /// again.
    pub(crate) fn decide_zero(&mut self, keeps: &[bool]) {
        for sub in &mut self.inner {
            sub.decide_zero(keeps);
        }
        self.keeps_zero = keeps[self.kernels.clone()].iter().all(|&k| k);
    }
}

/// Whether kernel `cg` maps one work item of `+0.0` words to `+0.0` words,
/// bit for bit. Asked of the kernel's own [`LocalView`] body, not of a table:
/// it runs once on one item of zeros with its qubits packed to the bottom
/// (at most 2^5 amplitudes, on the stack), and the bits it leaves are
/// tested. Every item of a kernel is the same arithmetic on the same
/// payload, and the words outside its footprint are left as they are, so
/// the one item speaks for all. Y, Z, and a phase or rotation whose cosine
/// is negative write `-0.0`.
pub(crate) fn preserves_zero(cg: &CompiledGate) -> bool {
    let args = &cg.args;
    let pack = |off: u64| {
        (args.sorted().iter().enumerate()).fold(0, |packed, (j, &q)| packed | (off >> q & 1) << j)
    };
    let mut probe = *args;
    probe.sorted = [0, 1, 2, 3, 4];
    probe.offs = args.offs.map(pack);
    probe.work = 1;
    let (mut re, mut im) = ([0.0; 32], [0.0; 32]);
    let amplitudes = 1 << args.n_sorted;
    let view = LocalView::new(&mut re[..amplitudes], &mut im[..amplitudes]);
    resolve::<LocalView>(cg.id)(&view, &probe, 0..1);
    re.iter().chain(&im).all(|x| x.to_bits() == 0)
}

/// One checkpoint-grid segment lowered to executable form.
#[derive(Debug, Clone)]
pub(crate) struct PlanSegment {
    /// First op of the segment (inclusive, grid-aligned).
    pub(crate) start: usize,
    /// One past the last op of the segment.
    pub(crate) end: usize,
    /// Everything the segment executes, in order.
    pub(crate) steps: Vec<Step>,
    /// Flat compiled-kernel queue the steps index into.
    pub(crate) queue: Vec<CompiledGate>,
    /// Each queue entry's [`preserves_zero`] verdict, decided once where the
    /// segment is tiled ([`Self::tile`]); empty when it tiles at no width,
    /// where nothing skips.
    pub(crate) keeps_zero: Vec<bool>,
    /// Random draws the segment's measurements/resets will consume.
    pub(crate) n_rand: usize,
    /// Relabeling exchanges among the steps.
    pub(crate) n_swaps: usize,
    /// Physical layout the segment leaves the state in — the readback
    /// un-permutation (remapped scale-out only).
    pub(crate) final_layout: Option<QubitLayout>,
    /// The segment's tile runs, in queue order.
    pub(crate) runs: Vec<TileRun>,
    /// log2 of the amplitudes in one **finest tile**: the innermost width
    /// the segment is tiled at, and the grain of a walker's zero map
    /// ([`crate::exec`]). `None` when it tiles at no width.
    pub(crate) finest: Option<u32>,
}

impl PlanSegment {
    /// Tile the segment for a walker of an `n_qubits` register under
    /// `config`, at those of the widths `widths` (outermost first, each
    /// narrower than the last) it [`tiles`] at ([`build_segment`] passes
    /// [`TILE_QUBITS`]; the crate's tests walk small registers in small
    /// tiles): the finest of them, every kernel's [`preserves_zero`] verdict,
    /// and the tile runs at the widest of them, each with its sub-runs at the
    /// next. A stretch of gate steps is cut by every other step — a measure,
    /// a reset, an `IfEq`, an exchange — and within it a run by every kernel
    /// that is not tile-local.
    pub(crate) fn tile(&mut self, n_qubits: u32, config: &SimConfig, widths: &[u32]) {
        let widths = tiles(config, n_qubits, widths);
        self.finest = widths.last().copied();
        self.keeps_zero = match self.finest {
            Some(_) => self.queue.iter().map(preserves_zero).collect(),
            None => Vec::new(),
        };
        let gates = |step: &Step| !widths.is_empty() && matches!(step, Step::Gate { .. });
        let stretches = self.steps.chunk_by(|a, b| gates(a) && gates(b));
        self.runs = (stretches.filter(|stretch| gates(&stretch[0])))
            .flat_map(|stretch| {
                let kernels = |step: &Step| step.kernels().map_or(0..0, |(_, r)| r.clone());
                let (first, last) = (kernels(&stretch[0]), kernels(&stretch[stretch.len() - 1]));
                let span = first.start..last.end;
                runs_in(&self.queue, &self.keeps_zero, span, n_qubits, &widths)
            })
            .collect();
    }
}

/// The two settings the lowering derives from `config` for an `n_qubits`
/// register: `(remap_pes, tile widths)`. Remapping applies to multi-PE
/// scale-out only (`remap_pes` is 0 elsewhere). Runtime parsing re-parses
/// gate by gate, so it is lowered without tile runs.
fn lowering_shape(config: &SimConfig, n_qubits: u32) -> (u64, Vec<u32>) {
    let remap_pes = match config.backend {
        BackendKind::ScaleOut { n_pes } if config.remap && n_pes > 1 => n_pes as u64,
        _ => 0,
    };
    (remap_pes, tiles(config, n_qubits, &TILE_QUBITS))
}

/// The entries of `widths` a walker of an `n_qubits` register under `config`
/// tiles at, in their order: only with preloaded kernels, and only those
/// narrower than its own memory — `2^(n_qubits − log2 workers)` amplitudes.
/// A 2^15-amplitude slab tiles at 11 alone; a 2^11 one not at all.
fn tiles(config: &SimConfig, n_qubits: u32, widths: &[u32]) -> Vec<u32> {
    let own = n_qubits.saturating_sub(config.backend.n_workers().trailing_zeros());
    let preloaded = config.dispatch == DispatchMode::PreloadedFnPointer;
    widths
        .iter()
        .copied()
        .filter(|&w| preloaded && w < own)
        .collect()
}

/// The maximal runs of two or more kernels of `queue[span]` of an `n`-qubit
/// register that are tile-local at `widths[0]`, each with its sub-runs at the
/// widths after it, and whether each keeps zero by the kernels' verdicts
/// `keeps`.
fn runs_in(
    queue: &[CompiledGate],
    keeps: &[bool],
    span: Range<usize>,
    n: u32,
    widths: &[u32],
) -> Vec<TileRun> {
    let Some((&width, narrower)) = widths.split_first() else {
        return Vec::new();
    };
    let fits = |cg: &CompiledGate| tile_local(cg, n, width);
    let mut start = span.start;
    (queue[span].chunk_by(|a, b| fits(a) == fits(b)))
        .filter_map(|piece| {
            let kernels = start..start + piece.len();
            start = kernels.end;
            (piece.len() >= 2 && fits(&piece[0])).then(|| TileRun {
                width,
                keeps_zero: keeps[kernels.clone()].iter().all(|&k| k),
                inner: runs_in(queue, keeps, kernels.clone(), n, narrower),
                kernels,
            })
        })
        .collect()
}

/// Lower `ops[start..end]` into a segment: remap planning first (remapped
/// scale-out only), then step/kernel lowering over the stream the executor
/// will actually walk, then the tile runs ([`PlanSegment::tile`]). This is the
/// single compile entry point — [`CompiledPlan::compile`] ahead of
/// time, [`crate::Simulator`] for a segment no plan supplies.
pub(crate) fn build_segment(
    ops: &[Op],
    start: usize,
    end: usize,
    n_qubits: u32,
    config: &SimConfig,
) -> PlanSegment {
    let slice = &ops[start..end];
    let (remap_pes, _) = lowering_shape(config, n_qubits);
    let remap = (remap_pes > 1).then(|| plan_remap(slice, n_qubits, remap_pes));
    let planned = remap.as_ref();
    // The stream to lower: the planner's rewritten ops (gates at physical
    // positions, barriers and absorbed SWAPs gone) or the slice itself.
    let lowered = planned.map_or(slice, |p| &p.ops);
    let mut steps = Vec::with_capacity(lowered.len());
    let mut queue: Vec<CompiledGate> = Vec::new();
    let mut n_rand = 0usize;
    for (i, lowered_op) in lowered.iter().enumerate() {
        let op = start + planned.map_or(i, |p| p.source_ops[i]);
        let layout = planned.and_then(|p| p.measure_layouts[i].clone());
        if let Some(p) = planned {
            steps.extend(
                p.pre_swaps[i]
                    .iter()
                    .map(|&(lo, hi)| Step::Exchange { lo, hi }),
            );
        }
        let mut compile = |g: &Gate, specialized: bool| {
            let first = queue.len();
            compile_gate(g, n_qubits, specialized, &mut queue);
            first..queue.len()
        };
        match lowered_op {
            Op::Gate(g) => steps.push(Step::Gate {
                op,
                raw: *g,
                compiled: compile(g, config.specialized),
            }),
            Op::IfEq {
                creg_lo,
                creg_len,
                value,
                gate,
            } => steps.push(Step::IfEq {
                op,
                creg_lo: *creg_lo,
                creg_len: *creg_len,
                value: *value,
                raw: *gate,
                compiled: compile(gate, config.specialized),
            }),
            Op::Measure { qubit, cbit } => {
                steps.push(Step::Measure {
                    qubit: *qubit,
                    cbit: *cbit,
                    r_idx: n_rand,
                    layout,
                });
                n_rand += 1;
            }
            Op::Reset { qubit } => {
                let phys = layout.as_ref().map_or(*qubit, |l| l.phys(*qubit));
                let x = Gate::new(GateKind::X, &[phys], &[]).expect("X on a valid qubit");
                steps.push(Step::Reset {
                    op,
                    qubit: *qubit,
                    r_idx: n_rand,
                    layout,
                    x: compile(&x, true),
                });
                n_rand += 1;
            }
            Op::Barrier(_) => {} // scheduling hint only
        }
    }
    let mut seg = PlanSegment {
        start,
        end,
        steps,
        queue,
        n_rand,
        n_swaps: planned.map_or(0, |p| p.n_swaps),
        final_layout: remap.map(|p| p.final_layout),
        keeps_zero: Vec::new(),
        runs: Vec::new(),
        finest: None,
    };
    seg.tile(n_qubits, config, &TILE_QUBITS);
    seg
}

/// The checkpoint grid over `ops[from..n_ops]`: consecutive segments, each
/// ending at the next multiple of `every` from op 0 (one segment to the end
/// when `every` is 0). Compiling walks it from op 0 and running from
/// wherever the run starts — on the grid or not — so a resumed execution
/// re-enters the segments the uninterrupted one ran: the basis of the
/// bit-identical recovery guarantee.
pub(crate) fn checkpoint_grid(
    from: usize,
    n_ops: usize,
    every: u32,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    let segment_at = move |pos: usize| {
        let end = match every as usize {
            0 => n_ops,
            k => n_ops.min((pos + 1).next_multiple_of(k)),
        };
        (pos < n_ops).then_some(pos..end)
    };
    std::iter::successors(segment_at(from), move |prev| segment_at(prev.end))
}

/// One entry of a plan's schedule ([`CompiledPlan::schedule`]).
#[derive(Debug, Clone, Copy)]
pub enum Scheduled<'a> {
    /// One relabeling slab exchange of physical qubit positions `lo`
    /// (below the partition boundary) and `hi` (at or above it):
    /// [`crate::view::ShmemView::exchange`], one in-place epoch and
    /// its barrier.
    Exchange {
        /// The PE-local position.
        lo: u32,
        /// The partition-index position.
        hi: u32,
    },
    /// One compiled kernel. On a partitioned backend a barrier follows it
    /// when `barrier` says so.
    Kernel {
        /// The kernel and its arguments, at physical qubit positions.
        cg: &'a CompiledGate,
        /// Index in [`Circuit::ops`] of the op it was lowered from.
        source_op: usize,
        /// The gate it was lowered from (`None`: the X a reset applies). A
        /// [`crate::KernelId`] names only the body several gate families
        /// share; this names the family.
        gate: Option<GateKind>,
        /// True when it only runs if classical bits say so: an `IfEq`
        /// payload, or the X restoring `|0>` after a reset that read 1.
        conditional: bool,
        /// True when a barrier follows it: false for every kernel of a tile
        /// run (consecutive kernels swept tile by tile) but its last.
        barrier: bool,
    },
    /// One measure/reset collapse: each worker rescales its own partition
    /// around an internally synchronized probability reduction.
    Collapse,
}

/// A circuit compiled ahead of execution for a specific simulator shape
/// (width, specialization, checkpoint cadence, remap partitioning, tile
/// runs).
///
/// Build one with [`CompiledPlan::compile`], hand it around freely
/// (`Clone` is deep but execution never mutates it), and execute it with
/// [`crate::Simulator::run_from`]. A plan is only valid for the
/// circuit/config shape it was compiled against; [`CompiledPlan::matches`]
/// is the compatibility check callers gate on before reusing a cached
/// plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_qubits: u32,
    specialized: bool,
    checkpoint_every: u32,
    n_ops: usize,
    /// What the lowering derived from the config ([`lowering_shape`]): the
    /// remap PE count and the widths its tile runs are lowered at (none: it
    /// holds no tile run).
    shape: (u64, Vec<u32>),
    segments: Vec<PlanSegment>,
}

impl CompiledPlan {
    /// Compile `circuit` for a simulator of `n_qubits` qubits running
    /// under `config`, one segment per `checkpoint_grid` interval — the
    /// grid [`crate::Simulator::run`] executes on, so resumed executions
    /// reuse the same segments.
    #[must_use]
    pub fn compile(circuit: &Circuit, n_qubits: u32, config: &SimConfig) -> Self {
        let ops = circuit.ops();
        let segments: Vec<PlanSegment> = checkpoint_grid(0, ops.len(), config.checkpoint_every)
            .map(|r| build_segment(ops, r.start, r.end, n_qubits, config))
            .collect();
        Self {
            n_qubits,
            specialized: config.specialized,
            checkpoint_every: config.checkpoint_every,
            n_ops: ops.len(),
            shape: lowering_shape(config, n_qubits),
            segments,
        }
    }

    /// Whether this plan was compiled for exactly this simulator shape and
    /// an identically-shaped circuit. The op count is a cheap structural
    /// sanity check; supplying a *different* circuit with the same length
    /// is a caller contract violation, same as resuming
    /// [`crate::Simulator::run_from`] with the wrong circuit. The tile
    /// widths count as shape: a plan lowered for a walker that tiles at
    /// other widths does not match (its runs could hold kernels that cross
    /// this walker's partitions, or miss runs this walker opens), nor does
    /// runtime parsing.
    #[must_use]
    pub fn matches(&self, circuit: &Circuit, n_qubits: u32, config: &SimConfig) -> bool {
        self.n_qubits == n_qubits
            && self.specialized == config.specialized
            && self.checkpoint_every == config.checkpoint_every
            && self.shape == lowering_shape(config, n_qubits)
            && self.n_ops == circuit.ops().len()
    }

    /// Everything the plan executes, in exactly the order the executor
    /// walks it: every relabeling exchange, every compiled kernel (the X
    /// after a reset included, at its physical position, and each marked
    /// with whether a barrier follows it) and every measure/reset collapse,
    /// segment after segment. This is the one description of the schedule —
    /// the traffic model, the performance model and the static analyzer all
    /// read it instead of lowering the circuit again.
    pub fn schedule(&self) -> impl Iterator<Item = Scheduled<'_>> + '_ {
        self.segments.iter().flat_map(|seg| {
            // Whether a barrier follows kernel `k`: not inside a tile run.
            let barrier = move |k: usize| {
                let at = seg.runs.partition_point(|r| r.kernels.end <= k);
                (seg.runs.get(at)).is_none_or(|r| k < r.kernels.start || k + 1 == r.kernels.end)
            };
            seg.steps.iter().flat_map(move |step| {
                let lead = match step {
                    Step::Exchange { lo, hi } => Some(Scheduled::Exchange { lo: *lo, hi: *hi }),
                    Step::Measure { .. } | Step::Reset { .. } => Some(Scheduled::Collapse),
                    Step::Gate { .. } | Step::IfEq { .. } => None,
                };
                let conditional = matches!(step, Step::IfEq { .. } | Step::Reset { .. });
                let gate = match step {
                    Step::Gate { raw, .. } => Some(raw.kind()),
                    Step::IfEq { raw, .. } => Some(raw.kind()),
                    _ => None,
                };
                let (source_op, range) =
                    step.kernels().map_or((0, 0..0), |(op, r)| (op, r.clone()));
                lead.into_iter()
                    .chain(range.map(move |k| Scheduled::Kernel {
                        cg: &seg.queue[k],
                        source_op,
                        gate,
                        conditional,
                        barrier: barrier(k),
                    }))
            })
        })
    }

    /// Predict the communication traffic of executing this plan on
    /// `n_workers` devices / PEs without running it: a fold over
    /// [`Self::schedule`] — every kernel at its physical position, every
    /// relabeling exchange.
    /// Conditional kernels are priced as executed, so prediction and
    /// measured counters agree exactly on any run whose conditions all
    /// fire.
    #[must_use]
    pub fn predict_traffic(&self, n_workers: u64) -> GateTraffic {
        let n = self.n_qubits;
        self.schedule()
            .fold(GateTraffic::default(), |total, item| match item {
                Scheduled::Kernel { cg, .. } => total.merged(&gate_traffic(cg, n, n_workers)),
                Scheduled::Exchange { .. } => total.merged(&exchange_traffic(n, n_workers)),
                Scheduled::Collapse => total,
            })
    }

    /// Register width the plan was compiled for.
    #[must_use]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The PE count a remapped plan's relabeling exchanges were planned for
    /// (its scale-out width), 0 for a plan that does not relabel.
    #[must_use]
    pub fn remap_pes(&self) -> u64 {
        self.shape.0
    }

    /// Segments in the plan (one when checkpointing is off and the circuit
    /// has any op).
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Compiled kernels across all segments — the "device-resident circuit
    /// buffer" footprint of the plan, and the number of amplitude passes
    /// its unitary portion performs.
    #[must_use]
    pub fn n_kernels(&self) -> usize {
        self.segments.iter().map(|s| s.queue.len()).sum()
    }

    /// The precompiled segment covering exactly `ops[start..end]`, if the
    /// plan holds one.
    pub(crate) fn segment(&self, start: usize, end: usize) -> Option<&PlanSegment> {
        let idx = self.segments.binary_search_by_key(&start, |s| s.start);
        self.segments.get(idx.ok()?).filter(|s| s.end == end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::GateKind;

    fn circuit() -> Circuit {
        let mut c = Circuit::with_cbits(5, 1);
        for q in 0..5 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::T, &[4], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c
    }

    #[test]
    fn segments_follow_the_checkpoint_grid() {
        let c = circuit();
        let cfg = SimConfig {
            checkpoint_every: 3,
            ..SimConfig::single_device()
        };
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert_eq!(plan.n_segments(), c.ops().len().div_ceil(3));
        // Every grid segment resolves; a misaligned range does not.
        assert!(plan.segment(0, 3).is_some());
        assert!(plan.segment(3, 6).is_some());
        assert!(plan.segment(1, 3).is_none());
        assert!(plan.n_kernels() >= c.gates().count());
    }

    #[test]
    fn unsegmented_plan_is_one_segment() {
        let c = circuit();
        let cfg = SimConfig::single_device();
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert_eq!(plan.n_segments(), 1);
        assert!(plan.segment(0, c.ops().len()).is_some());
    }

    #[test]
    fn matches_is_shape_exact() {
        let c = circuit();
        let cfg = SimConfig {
            remap: true,
            ..SimConfig::scale_out(4)
        };
        let plan = CompiledPlan::compile(&c, 5, &cfg);
        assert!(plan.matches(&c, 5, &cfg));
        assert!(!plan.matches(&c, 6, &cfg), "width differs");
        assert!(
            !plan.matches(
                &c,
                5,
                &SimConfig {
                    remap: true,
                    ..SimConfig::scale_out(2)
                }
            ),
            "remap partitioning differs"
        );
        assert!(
            !plan.matches(
                &c,
                5,
                &SimConfig {
                    checkpoint_every: 2,
                    ..cfg
                }
            ),
            "checkpoint grid differs"
        );
        let seg = plan.segment(0, c.ops().len()).unwrap();
        assert!(
            seg.final_layout.is_some(),
            "remapped plan carries the schedule"
        );
        assert_eq!(seg.n_rand, 1, "one measurement draw");
    }

    #[test]
    fn schedule_of_a_remapped_measured_plan_is_pinned() {
        // What the analyzer, the traffic model and the perfmodel read,
        // recorded from the lowering as it stood when the remap planner
        // still had a fusion-aware twin: folding the two into one planner
        // must not move, drop or relabel an entry.
        use GateKind::{C4X, CX, CZ, H, RCCX, T, X};
        let mut c = circuit(); // H on 0..5, CX(0,1), T(4), measure 0 -> c0
        c.if_eq(0, 1, 1, Gate::new(X, &[3], &[]).unwrap()).unwrap();
        for (kind, qubits) in [
            (RCCX, &[2, 3, 4][..]),
            (CZ, &[3, 4]),
            (C4X, &[0, 1, 2, 3, 4]),
        ] {
            c.apply(kind, qubits, &[]).unwrap();
        }
        c.reset(4).unwrap();
        for (kind, qubits) in [(H, &[4][..]), (T, &[4]), (CX, &[4, 0])] {
            c.apply(kind, qubits, &[]).unwrap();
        }
        let cfg = SimConfig {
            remap: true,
            checkpoint_every: 10,
            ..SimConfig::scale_out(4)
        };
        let got: Vec<String> = CompiledPlan::compile(&c, 5, &cfg)
            .schedule()
            .map(|item| match item {
                Scheduled::Exchange { lo, hi } => format!("exchange {lo} {hi}"),
                Scheduled::Collapse => "collapse".into(),
                Scheduled::Kernel {
                    cg,
                    source_op,
                    gate,
                    conditional,
                    barrier: true,
                } => {
                    let gate = gate.map_or("-".into(), |g| g.to_string());
                    format!("{:?} ({gate}) op {source_op} cond {conditional}", cg.id)
                }
                Scheduled::Kernel { .. } => unreachable!("5 qubits run no tile run"),
            })
            .collect();
        let want = [
            "H (h) op 0 cond false",
            "H (h) op 1 cond false",
            "H (h) op 2 cond false",
            "exchange 2 3",
            "H (h) op 3 cond false",
            "exchange 2 4",
            "H (h) op 4 cond false",
            "X (cx) op 5 cond false",
            "Phase (t) op 6 cond false",
            "exchange 2 3",
            "collapse",
            "exchange 1 4",
            "X (x) op 8 cond true",
            "exchange 0 3",
            "H (rccx) op 9 cond false",
            "Phase (rccx) op 9 cond false",
            "X (rccx) op 9 cond false",
            "Phase (rccx) op 9 cond false",
            "X (rccx) op 9 cond false",
            "Phase (rccx) op 9 cond false",
            "X (rccx) op 9 cond false",
            "Phase (rccx) op 9 cond false",
            "H (rccx) op 9 cond false",
            "exchange 2 4",
            "Phase (cz) op 10 cond false",
            "X (c4x) op 11 cond false",
            "exchange 2 4",
            "collapse",
            "X (-) op 12 cond true",
            "exchange 2 4",
            "H (h) op 13 cond false",
            "Phase (t) op 14 cond false",
            "X (cx) op 15 cond false",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn tile_runs_are_lowered_once_and_are_the_schedules_barrier_windows() {
        // 17 qubits: a single device's memory is four tiles of 2^15
        // amplitudes, a PE's at 2 PEs two of them, at 4 or 8 PEs one or less.
        use GateKind::{CX, H, T};
        let mut c = Circuit::with_cbits(17, 1);
        for q in 0..17 {
            c.apply(H, &[q], &[]).unwrap();
        }
        c.measure(0, 0).unwrap();
        for (kind, qubits) in [(H, &[3][..]), (H, &[4]), (CX, &[3, 16]), (T, &[5])] {
            c.apply(kind, qubits, &[]).unwrap();
        }
        let barriers = |config: &SimConfig| -> Vec<bool> {
            let plan = CompiledPlan::compile(&c, 17, config);
            (plan.schedule())
                .filter_map(|s| match s {
                    Scheduled::Kernel { barrier, .. } => Some(barrier),
                    _ => None,
                })
                .collect()
        };
        let single = SimConfig::single_device();
        let plan = CompiledPlan::compile(&c, 17, &single);
        let span = |r: &TileRun| (r.width, r.kernels.start, r.kernels.end);
        let runs: Vec<_> = (plan.segments[0].runs.iter())
            .map(|r| (span(r), r.inner.iter().map(span).collect::<Vec<_>>()))
            .collect();
        // H on qubits 0-14 (under 11: 0-10), then the measure ends the
        // stretch; H on 3 and 4 pair up, and the cx on qubit 16 ends them.
        let want_runs = [
            ((15, 0, 15), vec![(11, 0, 11)]),
            ((15, 17, 19), vec![(11, 17, 19)]),
        ];
        assert_eq!(runs, want_runs);
        let mut want = vec![true; 21];
        want[..14].fill(false);
        want[17] = false;
        for config in [single, SimConfig::scale_up(2), SimConfig::scale_out(2)] {
            assert_eq!(barriers(&config), want, "{config:?}");
            assert!(plan.matches(&c, 17, &config), "{config:?}");
        }
        // A slab of at most one L2 tile (4 or 8 PEs) tiles at 11 alone: H on
        // qubits 0-10, then H on 3 and 4. The single device's plan, whose
        // runs hold kernels on qubits 11-14, is not theirs.
        let mut at_11 = vec![true; 21];
        at_11[..10].fill(false);
        at_11[17] = false;
        for config in [SimConfig::scale_out(4), SimConfig::scale_up(8)] {
            assert_eq!(barriers(&config), at_11, "{config:?}");
            assert!(!plan.matches(&c, 17, &config), "{config:?}");
        }
        let parse = SimConfig {
            dispatch: DispatchMode::RuntimeParse,
            ..single
        };
        assert_eq!(barriers(&parse), [true; 21]);
        assert!(!plan.matches(&c, 17, &parse));
    }

    #[test]
    fn zero_verdicts_are_pinned_per_family_and_payload_sign() {
        // Whether a kernel maps `+0.0` words to `+0.0` is asked of its body;
        // these answers are what that body gives. A negative cosine (U1 at
        // 3.0; RY at 4.0 and RZ at 7.0, whose half angles are past pi / 2)
        // multiplies a zero into `-0.0`, and so do Y and Z.
        use GateKind::{CCX, CX, H, RY, RZ, SWAP, T, U1, X, Y, Z};
        let cases: [(GateKind, &[f64], bool); 13] = [
            (X, &[], true),
            (CX, &[], true),
            (CCX, &[], true),
            (SWAP, &[], true),
            (H, &[], true),
            (T, &[], true),
            (U1, &[0.3], true),
            (RY, &[0.3], true),
            (Y, &[], false),
            (Z, &[], false),
            (U1, &[3.0], false),
            (RY, &[4.0], false),
            (RZ, &[7.0], false),
        ];
        let n = 9;
        for (kind, params, keeps) in cases {
            // Anchored low and high, in both operand orders: the verdict is
            // the payload's, not the position's.
            for lowest in [0, 3, 6] {
                let up: Vec<u32> = (lowest..n).take(kind.n_qubits()).collect();
                for qubits in [up.clone(), up.into_iter().rev().collect()] {
                    let mut queue = Vec::new();
                    compile_gate(
                        &Gate::new(kind, &qubits, params).unwrap(),
                        n,
                        true,
                        &mut queue,
                    );
                    assert_eq!(queue.len(), 1, "{kind}");
                    let verdict = preserves_zero(&queue[0]);
                    assert_eq!(verdict, keeps, "{kind}{params:?} on {qubits:?}");
                }
            }
        }
    }

    #[test]
    fn matches_rejects_a_plan_lowered_for_other_tile_widths() {
        // 16 qubits: one device tiles at [15, 11]; a slab of 2^15 (2 PEs) or
        // 2^13 (8 PEs) at 11 alone, so those two lower the same plan; a slab
        // of 2^11 (32 PEs) not at all.
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        let plan = |config: &SimConfig| CompiledPlan::compile(&c, 16, config);
        let two = plan(&SimConfig::scale_out(2));
        assert_eq!(two.shape.1, [11]);
        assert!(two.matches(&c, 16, &SimConfig::scale_out(8)));
        for config in [SimConfig::single_device(), SimConfig::scale_out(32)] {
            assert!(!two.matches(&c, 16, &config), "{config:?}");
            assert!(!plan(&config).matches(&c, 16, &SimConfig::scale_out(2)));
        }
        assert_eq!(plan(&SimConfig::single_device()).shape.1, TILE_QUBITS);
        assert!(plan(&SimConfig::scale_out(32)).shape.1.is_empty());
    }
}
